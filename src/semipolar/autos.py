"""Automorphism constructors, their validity conditions, composition, and a brute-force oracle.

An affine map of Y preserving adjacency has the shape
F([v,u]) = [psi1(v) + psi2(u) + v0, phi(u) + u0] with psi2 determined by phi and
u0, and phi twisting eta by psi1.  One parameter type, GeneralAutoParams, holds
every such map: the symplectic family of a scalar space is the case nu = 1,
psi1 = [[alpha]] with alpha the multiplier of phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .apsg import Point, SemipolarSpace
from .errors import DimensionMismatch, EnumerationTooLarge, NotCompatible
from .forms import AlternatingMap, under_map
from .linalg import LinearMap, as_vec, blocks, encode_vecs, enumerate_vectors, rank

ORACLE_CAP = 27  # largest |Y| whose full affine group the oracle sweeps
MATRIX_SWEEP_CAP = 10**7  # most n x n matrices invertible_matrices enumerates


class PointMap:
    """An affine bijection x -> A x + t of Y, realized as a point permutation."""

    __slots__ = ("space", "linear", "shift", "_perm")

    def __init__(self, space: SemipolarSpace, linear: LinearMap, shift):
        if linear.domain_dim != space.ydim or not linear.is_bijective():
            raise NotCompatible("linear part must be a bijection of Y")
        self.space = space
        self.linear = linear
        self.shift = as_vec(shift, space.p)
        self._perm = None

    @classmethod
    def of_bijection(cls, space: SemipolarSpace, linear: LinearMap, shift) -> "PointMap":
        """The map for a linear part already known to be a bijection of Y,
        which is not tested again."""
        pmap = cls.__new__(cls)
        pmap.space, pmap.linear, pmap.shift, pmap._perm = space, linear, as_vec(shift, space.p), None
        return pmap

    @property
    def perm(self) -> np.ndarray:
        if self._perm is None:
            imgs = (self.space._coords @ self.linear.matrix.T + self.shift) % self.space.p
            self._perm = encode_vecs(imgs, self.space.p)
            self._perm.setflags(write=False)
        return self._perm

    def __call__(self, pt: Point) -> Point:
        return self.space.point(int(self.perm[self.space.index(pt)]))

    def compose(self, other: "PointMap") -> "PointMap":
        mat = (self.linear.matrix @ other.linear.matrix) % self.space.p
        shift = (self.linear.matrix @ other.shift + self.shift) % self.space.p
        return PointMap.of_bijection(self.space, LinearMap(mat, self.space.p), shift)

    def __eq__(self, other):
        return isinstance(other, PointMap) and self.perm.tobytes() == other.perm.tobytes()

    def __hash__(self):
        return hash(self.perm.tobytes())

    def __repr__(self):
        return f"PointMap(linear={self.linear.matrix.tolist()}, shift={self.shift.tolist()})"


@dataclass
class GeneralAutoParams:
    psi1: LinearMap
    phi: LinearMap
    u0: tuple[int, ...]
    v0: tuple[int, ...]
    psi2: LinearMap  # derived: psi2(u) = eta(phi(u), u0)


def multiplier(eta: AlternatingMap, phi: LinearMap) -> int | None:
    """The unique alpha with eta(phi u1, phi u2) = alpha * eta(u1, u2), or None."""
    if not phi.is_bijective() or phi.domain_dim != eta.n:
        raise NotCompatible("phi must be a linear bijection of V")
    p = eta.p
    if not eta.gram.any():
        return 1
    pulled = eta.pullback(phi)
    i = int(np.flatnonzero(eta.gram)[0])
    alpha = (int(pulled.flat[i]) * pow(int(eta.gram.flat[i]), p - 2, p)) % p
    return alpha if bool((pulled == (alpha * eta.gram) % p).all()) else None


def build_general_auto(
    space: SemipolarSpace, psi1: LinearMap, phi: LinearMap, u0, v0
) -> tuple[PointMap, GeneralAutoParams]:
    """F([v,u]) = [psi1(v) + psi2(u) + v0, phi(u) + u0] with psi2 forced by phi, u0."""
    p = space.p
    u0 = tuple(int(c) % p for c in u0)
    v0 = tuple(int(c) % p for c in v0)
    if len(u0) != space.n or len(v0) != space.nu:
        raise DimensionMismatch("shift parts must lie in V and V'")
    if not psi1.is_bijective() or psi1.domain_dim != space.nu:
        raise NotCompatible("psi1 must be a linear bijection of V'")
    if not phi.is_bijective() or phi.domain_dim != space.n:
        raise NotCompatible("phi must be a linear bijection of V")
    eta = space.form.eta
    # Both sides are alternating tensors, so this is the test on the pairs i < j.
    if not (eta.pullback(phi) == psi1.apply_rows(eta.gram)).all():
        raise NotCompatible("phi does not twist eta by psi1")
    return _general_auto(space, psi1, phi, u0, v0)


def _general_auto(
    space: SemipolarSpace, psi1: LinearMap, phi: LinearMap, u0: tuple, v0: tuple
) -> tuple[PointMap, GeneralAutoParams]:
    """build_general_auto for parts that passed its tests.  The block matrix
    [[psi1, psi2], [0, phi]] is then a bijection, of determinant
    det(psi1) det(phi)."""
    p = space.p
    # psi2(u) = eta(phi u, u0) = -eta(u0, phi u).
    psi2 = LinearMap(-space.form.eta.eta_u(u0).compose(phi).matrix, p)
    block = np.zeros((space.ydim, space.ydim), dtype=np.int64)
    block[: space.nu, : space.nu] = psi1.matrix
    block[: space.nu, space.nu :] = psi2.matrix
    block[space.nu :, space.nu :] = phi.matrix
    pmap = PointMap.of_bijection(space, LinearMap(block, p), v0 + u0)
    return pmap, GeneralAutoParams(psi1, phi, u0, v0, psi2)


def verify_semiform_scaling(pmap: PointMap, psi1: LinearMap, space: SemipolarSpace) -> bool:
    """rho(F p1, F p2) = psi1(rho(p1, p2)) on all point pairs."""
    t = space.value_table
    perm = pmap.perm
    vecs = enumerate_vectors(space.p, space.nu)
    psi1_codes = encode_vecs(psi1.apply_rows(vecs), space.p).astype(np.int32)
    return bool((under_map(t, perm) == psi1_codes[t]).all())


def point_transitive_auto(space: SemipolarSpace, src: Point, dst: Point) -> PointMap:
    """A shift-style automorphism carrying src to dst: identity linear parts."""
    p = space.p
    u0 = tuple((a - b) % p for a, b in zip(dst.u, src.u))
    e = space.form.eta.eta_u(src.u)(u0)
    v0 = tuple((d - s - c) % p for d, s, c in zip(dst.v, src.v, e))
    pmap, _ = build_general_auto(
        space, LinearMap.identity(space.nu, p), LinearMap.identity(space.n, p), u0, v0
    )
    return pmap


def compose_params(
    space: SemipolarSpace, f2: GeneralAutoParams, f1: GeneralAutoParams
) -> tuple[PointMap, GeneralAutoParams]:
    """The map f2 o f1 and its parameters: psi1 = psi1_2 psi1_1, phi = phi_2 phi_1,
    u0 = phi_2(u0_1) + u0_2 and v0 = psi1_2(v0_1) + psi2_2(u0_1) + v0_2, built
    and twist-tested by build_general_auto."""
    u0 = np.add(f2.phi(f1.u0), f2.u0)
    v0 = np.add(f2.psi1(f1.v0), f2.psi2(f1.u0)) + f2.v0
    return build_general_auto(space, f2.psi1.compose(f1.psi1), f2.phi.compose(f1.phi), u0, v0)


def rho_scaling_constant(space: SemipolarSpace, pmap: PointMap) -> int | None:
    """The fixed nonzero alpha with rho(F p1, F p2) = alpha * rho(p1, p2), if any:
    read off the first nonzero table entry, then tested on every pair."""
    if space.nu != 1:
        raise DimensionMismatch("scaling constants are scalar-space notions")
    t = space.value_table
    nz = np.flatnonzero(t)
    if not len(nz):
        return None
    i, j = np.unravel_index(int(nz[0]), t.shape)
    perm = pmap.perm
    alpha = (int(t[perm[i], perm[j]]) * pow(int(t[i, j]), space.p - 2, space.p)) % space.p
    # alpha = 0 fails the test: the permuted table keeps its nonzero entries
    return alpha if verify_semiform_scaling(pmap, LinearMap([[alpha]], space.p), space) else None


def invertible_matrices(n: int, p: int) -> np.ndarray:
    """All invertible n x n matrices over GF(p), in the code order of their entries."""
    if p ** (n * n) > MATRIX_SWEEP_CAP:
        raise EnumerationTooLarge("matrix space exceeds the sweep budget")
    mats = enumerate_vectors(p, n * n).reshape(-1, n, n)
    return mats[rank(mats, p) == n]


def brute_force_aut_group(space: SemipolarSpace) -> list[PointMap]:
    """All affine bijections of Y preserving adjacency in both directions.

    Sweeps the full affine group of Y; refuse beyond ORACLE_CAP, where the
    sweep stops being a desk-scale computation.
    """
    if space.size > ORACLE_CAP:
        raise EnumerationTooLarge(f"|Y| = {space.size} exceeds the oracle cap {ORACLE_CAP}")
    p, d, size = space.p, space.ydim, space.size
    mats = invertible_matrices(d, p)
    coords = space._coords
    adj = space.adjacency
    lin_perms = encode_vecs(np.einsum("mij,nj->mni", mats, coords) % p, p)
    shift_perm = np.stack(
        [encode_vecs((coords + coords[t]) % p, p) for t in range(size)]
    )
    out = []
    total = np.empty((len(mats), size), dtype=np.int64)
    for t in range(size):
        np.take(shift_perm[t], lin_perms, out=total)
        for b in blocks(len(total), size):  # one permutation row an item
            sl = total[b]
            img = adj[sl[:, :, None], sl[:, None, :]]
            good = np.flatnonzero((img == adj[None]).all(axis=(1, 2)))
            for g in good:
                out.append(PointMap.of_bijection(space, LinearMap(mats[b.start + int(g)], p), coords[t]))
    return out


def symplectic_family(space: SemipolarSpace) -> list[tuple[GeneralAutoParams, PointMap]]:
    """Every admissible (alpha, b, w, phi): the parametric automorphism family,
    as the general maps with psi1 = [[alpha]], u0 = w and v0 = (b,)."""
    if space.nu != 1:
        raise DimensionMismatch("the parametric family needs a scalar-valued semiform")
    p = space.p
    out = []
    for mat in invertible_matrices(space.n, p):
        phi = LinearMap(mat, p)
        alpha = multiplier(space.form.eta, phi)
        if alpha is None or alpha == 0:
            continue
        # multiplier has tested phi and its twist by alpha, for every (w, b)
        psi1 = LinearMap([[alpha]], p)
        for w in product(range(p), repeat=space.n):
            for b in range(p):
                pmap, g = _general_auto(space, psi1, phi, w, (b,))
                out.append((g, pmap))
    return out


def fixes_vertical_direction(space: SemipolarSpace, pmap: PointMap) -> bool:
    """The linear part maps the direction class of V' x {0} to itself: the
    images of the V' basis vectors, its first nu columns, have no V part."""
    return not pmap.linear.matrix[space.nu :, : space.nu].any()


def shift_images(space: SemipolarSpace, start: Point) -> np.ndarray:
    """Code of point_transitive_auto(space, start, dst)(start) for every point
    code dst, in one array pass.

    Those maps are the general maps with psi1 = phi = id.  With u0 = u_dst - u_s
    and v0 = v_dst - v_s - eta(u_s, u0), the image of start = [v_s, u_s] is
    [v_s - eta(u0, u_s) + v0, u_s + u0].
    """
    p, nu = space.p, space.nu
    gram = space.form.eta.gram
    v_s, u_s = np.array(start.v, dtype=np.int64), np.array(start.u, dtype=np.int64)
    u0 = space._coords[:, nu:] - u_s
    v0 = space._coords[:, :nu] - v_s - np.einsum("a,abk,lb->lk", u_s, gram, u0)
    image = np.concatenate([v_s - np.einsum("la,abk,b->lk", u0, gram, u_s) + v0, u_s + u0], axis=1)
    return encode_vecs(image, p)


def orbit_of(space: SemipolarSpace, start: Point) -> set[Point]:
    """Orbit of a point under the constructed shift automorphisms."""
    return {space.points[c] for c in shift_images(space, start).tolist()}
