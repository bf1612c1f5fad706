"""Hyperbolic polar spaces from symmetric forms by doubling, their reducts, and
the reconstruction of a deleted maximal singular subspace.

Doubling a nondegenerate symmetric form xi on W produces the symmetric form
zeta([u1,v1],[u2,v2]) = xi(u1,v2) + xi(v1,u2) on W + W, whose isotropic points
are exactly the pairs with xi(u, v) = 0.  Deleting a maximal singular subspace
leaves a reduct from which the deleted geometry is rebuilt: punctured-plane
maximals are grouped by their incidences against affine-plane maximals, the
groups are the deleted points, the affine maximals the deleted hyperplanes.

Inside the engine a totally isotropic subspace is a row of quadric-point
indices: spans are looked up in a table from vector code to quadric-point
index, and the maximal subspaces are also held as boolean masks over the
quadric points, whose intersections are mask products.  `Subspace` values are
decoded only where the public functions return them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    DegenerateForm,
    DimensionMismatch,
    InvalidSubspace,
    check_budget,
)
from .gf import GF
from .linalg import (
    Subspace,
    as_vec,
    blocks,
    encode_vecs,
    enumerate_vectors,
    pack_rows,
    projective_classes,
    rank,
    rref,
    subspace_closure,
)

def is_square(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


class SymmetricForm:
    """A nondegenerate symmetric bilinear form held by its Gram matrix."""

    __slots__ = ("p", "gram")

    def __init__(self, gram, p: int):
        GF(p)
        g = as_vec(np.atleast_2d(gram), p)
        if g.shape[0] != g.shape[1]:
            raise DimensionMismatch("Gram matrix must be square")
        if (g != g.T % p).any():
            raise DimensionMismatch("Gram matrix must be symmetric")
        if rank(g, p) != g.shape[0]:
            raise DegenerateForm("symmetric form has a radical")
        self.p = p
        self.gram = g

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def eval(self, x, y) -> int:
        x = as_vec(x, self.p)
        y = as_vec(y, self.p)
        return int(x @ self.gram @ y % self.p)


def diagonalize_symmetric(gram: np.ndarray, p: int) -> list[int]:
    """Diagonal of a congruent diagonal form (char != 2 pivoting)."""
    g = as_vec(np.array(gram, dtype=np.int64), p).copy()
    n = g.shape[0]
    diag = []
    idx = list(range(n))
    while idx:
        pivot = next((i for i in idx if g[i, i] % p), None)
        if pivot is None:
            i = idx[0]
            j = next((j for j in idx if g[i, j] % p), None)
            if j is None:
                diag.append(0)
                idx.remove(i)
                continue
            g[i, :] = (g[i, :] + g[j, :]) % p
            g[:, i] = (g[:, i] + g[:, j]) % p
            pivot = i
        d = int(g[pivot, pivot])
        diag.append(d)
        for i in idx:
            if i == pivot or not g[pivot, i] % p:
                continue
            c = (g[pivot, i] * pow(d, p - 2, p)) % p
            g[i, :] = (g[i, :] - c * g[pivot, :]) % p
            g[:, i] = (g[:, i] - c * g[:, pivot]) % p
        idx.remove(pivot)
    return diag


def _meet_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i & b_j| for every pair of rows of two boolean point-mask matrices, as
    float32, which is exact for counts below 2^24; a is converted once when b is a."""
    fa = a.astype(np.float32)
    return fa @ (fa if b is a else b.astype(np.float32)).T


class HypPolarSpace:
    """The polar space of the doubled form on Y = W + W."""

    def __init__(self, xi: SymmetricForm, budget: int = DEFAULT_BUDGET):
        if xi.dim < 3:
            raise DimensionMismatch("doubling needs dim(W) >= 3")
        self.p = xi.p
        self.n = xi.dim
        self.xi = xi
        z = np.zeros((2 * self.n, 2 * self.n), dtype=np.int64)
        z[: self.n, self.n :] = xi.gram
        z[self.n :, : self.n] = xi.gram
        self.zeta = SymmetricForm(z, self.p)
        check_budget(self.p ** (2 * self.n), budget, "doubled point enumeration")
        vecs = enumerate_vectors(self.p, 2 * self.n, budget)
        reps, cls = projective_classes(vecs, self.p)
        self._all_reps = vecs[reps]
        g = self.zeta.gram
        iso = ((self._all_reps @ g) * self._all_reps).sum(axis=1) % self.p == 0
        self._rep_matrix = self._all_reps[iso]
        self.quadric_points = [tuple(r) for r in self._rep_matrix.tolist()]
        # vector code -> index of its projective point in quadric_points, -1 off
        # the quadric (the zero vector, class -1, reads the spare last entry)
        by_class = np.full(len(reps) + 1, -1, dtype=np.int64)
        by_class[np.flatnonzero(iso)] = np.arange(len(self._rep_matrix))
        self._point_index = by_class[cls]

    # -- structure verification -------------------------------------------------

    def isotropy_matches_orthogonal_pairs(self) -> bool:
        """<[u,v]> is zeta-isotropic iff xi(u, v) = 0, over all projective points."""
        r, n = self._all_reps, self.n
        iso = ((r @ self.zeta.gram) * r).sum(axis=1) % self.p == 0
        orth = ((r[:, :n] @ self.xi.gram) * r[:, n:]).sum(axis=1) % self.p == 0
        return bool((iso == orth).all())

    def hyperbolic_by_discriminant(self) -> bool:
        """Even-rank classification: (-1)^(rank/2) det is a square exactly in the
        maximal-index case."""
        diag = diagonalize_symmetric(self.zeta.gram, self.p)
        disc = 1
        for d in diag:
            disc = (disc * d) % self.p
        k = self.zeta.dim // 2
        return is_square(((-1) ** k) * disc, self.p)

    # -- spans, closure layers and point masks ---------------------------------------

    def _span_indices(self, bases: np.ndarray) -> np.ndarray:
        """Quadric-point index of every nonzero member of each span of (m, k, 2n)
        bases, as an (m, p^k - 1) array; -1 marks a member off the quadric."""
        m, k, dim = bases.shape
        grid = enumerate_vectors(self.p, k)[1:]
        out = np.empty((m, len(grid)), dtype=np.int64)
        for b in blocks(m, grid.size * dim):
            vecs = (grid @ bases[b]) % self.p
            out[b] = self._point_index[encode_vecs(vecs, self.p)]
        return out

    def _masks(self, idx: np.ndarray) -> np.ndarray:
        """Boolean masks over the quadric points of rows of quadric-point
        indices; an index -1 sets no point."""
        masks = np.zeros((len(idx), len(self.quadric_points) + 1), dtype=bool)
        masks[np.arange(len(idx))[:, None], idx] = True  # -1 lands in the spare last column
        return masks[:, :-1]

    def _span_masks(self, bases: np.ndarray) -> np.ndarray:
        """Point masks of the spans of (m, k, 2n) bases of totally isotropic subspaces."""
        return self._masks(self._span_indices(bases))

    def point_mask(self, s: Subspace) -> np.ndarray:
        """The quadric points of a totally isotropic subspace, as a mask over quadric_points."""
        if (s.p, s.ambient_dim) != (self.p, 2 * self.n):
            raise DimensionMismatch("subspace is not in the doubled space")
        idx = self._span_indices(s.matrix()[None])
        if (idx < 0).any():
            raise InvalidSubspace("subspace is not totally isotropic")
        return self._masks(idx)[0]

    @cached_property
    def _orthogonal_words(self) -> np.ndarray:
        """Row i marks the quadric points zeta-orthogonal to point i (collinear
        or equal), as pack_rows words, built a block of rows at a time."""
        r = self._rep_matrix
        words = np.empty((len(r), -(-len(r) // 64)), dtype=np.uint64)
        for b in blocks(len(r), len(r)):
            words[b] = pack_rows((r[b] @ self.zeta.gram @ r.T) % self.p == 0)
        return words

    def _dims(self, counts) -> np.ndarray:
        """Dimension d of subspaces from their numbers of points, (p^d - 1)/(p - 1),
        read from a table indexed by count."""
        sizes = (self.p ** np.arange(2 * self.n + 1) - 1) // (self.p - 1)
        dim_of = np.full(sizes[-1] + 1, -1, dtype=np.int8)
        dim_of[sizes] = np.arange(len(sizes))
        d = dim_of[np.asarray(counts, dtype=np.intp)]
        if (d < 0).any():
            raise DegenerateForm("a point count that no subspace has")
        return d

    def _span_with(self, members: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Quadric-point indices of the span of each row of member indices with
        the point x[i]: the points <s + a*x> for every member s and scalar a, and x."""
        rep = self._rep_matrix
        a = np.arange(self.p)[:, None]
        vecs = rep[members][:, :, None, :] + a * rep[x][:, None, None, :]
        idx = self._point_index[encode_vecs(vecs, self.p)].reshape(len(x), -1)
        return np.concatenate([idx, x[:, None]], axis=1)

    @cached_property
    def _layers(self) -> tuple[np.ndarray, np.ndarray]:
        """The member rows of the lines and of the maximal subspaces, in the
        lexicographic order of `linalg.subspace_closure` on the orthogonality
        words."""
        closure = subspace_closure(self._orthogonal_words, self._span_with)
        for k, (members, top) in enumerate(closure):
            if k == 1:
                lines = members
            if top.any():
                if not top.all():
                    raise DegenerateForm("maximal singular subspaces of different dimensions")
                return lines, members

    @cached_property
    def _maximal_masks(self) -> np.ndarray:
        """The maximal subspaces as boolean masks over the quadric points."""
        return self._masks(self._layers[1])

    def _decode(self, members: np.ndarray) -> list[Subspace]:
        """The subspaces of rows of member indices, their echelon bases the
        nonzero rows of the `rref` of the members' vectors, reduced a block of
        rows at a time, each row counted twice its (s, 2n) stack, as in
        `SemipolarSpace._is_affine_codes`."""
        m, s = members.shape
        k = int(self._dims([s])[0])
        out = []
        for block in blocks(m, 2 * s * 2 * self.n):
            basis = rref(self._rep_matrix[members[block]], self.p)[0][:, :k]
            out += [Subspace.from_echelon(b, self.p, 2 * self.n) for b in basis.tolist()]
        return out

    @cached_property
    def _lines(self) -> list[Subspace]:
        return self._decode(self._layers[0])

    @cached_property
    def _maximals(self) -> list[Subspace]:
        return self._decode(self._layers[1])

    def lines(self) -> list[Subspace]:
        """All totally isotropic 2-subspaces (the lines of the polar space), in
        the order of `_layers`."""
        return self._lines

    def maximal_singulars(self) -> list[Subspace]:
        """All maximal totally isotropic subspaces, by extension from points, in
        the order of `_layers`: entry k is the subspace of `_maximal_masks[k]`."""
        return self._maximals

    def parity_classes(self) -> tuple[list[int], np.ndarray]:
        """Split the maximals into the two equivalence classes of even-intersection
        parity; returns (class id per maximal, the relation matrix)."""
        masks = self._maximal_masks
        k = len(masks)
        dims = self._dims(masks.sum(axis=1))
        rel = (dims[:, None] - self._dims(_meet_counts(masks, masks))) % 2 == 0
        # the relation must be an equivalence: reflexive, symmetric, transitive
        if not rel.diagonal().all():
            raise DegenerateForm("parity relation is not reflexive")
        if ((_meet_counts(rel, rel.T) > 0) & ~rel).any():
            raise DegenerateForm("parity relation is not transitive")
        classes = [-1] * k
        label = 0
        for i in range(k):
            if classes[i] < 0:
                for j in np.flatnonzero(rel[i]):
                    classes[int(j)] = label
                label += 1
        return classes, rel


def build_double(n: int, xi: SymmetricForm, budget: int = DEFAULT_BUDGET) -> HypPolarSpace:
    """Double a symmetric form on GF(p)^n into its hyperbolic polar space,
    whose p^2n points must lie within the enumeration budget."""
    if xi.dim != n:
        raise DimensionMismatch(f"form has dimension {xi.dim}, expected {n}")
    return HypPolarSpace(xi, budget)


def default_deleted_subspace(space: HypPolarSpace) -> Subspace:
    """W + 0, the first summand of Y = W + W: the deleted subspace used when none is given."""
    n = space.n
    gens = np.zeros((n, 2 * n), dtype=np.int64)
    gens[:, :n] = np.eye(n, dtype=np.int64)
    return Subspace(gens, space.p, 2 * n)


def standard_doubling_base(n: int, p: int, diag=None) -> SymmetricForm:
    entries = [1] * n if diag is None else list(diag)
    if len(entries) != n or any(e % p == 0 for e in entries):  # a zero makes it degenerate
        raise DimensionMismatch(f"the diagonal needs {n} entries, each nonzero mod {p}")
    return SymmetricForm(np.diag(np.array(entries, dtype=np.int64) % p), p)


@dataclass
class Reduct:
    """The quadric points off a deleted subspace z, and the polar lines that
    keep at least two of them; a reduct line is such a line less z."""

    space: HypPolarSpace
    z: Subspace
    z_mask: np.ndarray  # the quadric points of z
    line_members: np.ndarray  # quadric-point indices of the polar lines keeping two points


def reduct(space: HypPolarSpace, z: Subspace) -> Reduct:
    """Delete a maximal singular subspace: clip its points from every line."""
    try:
        z_mask = space.point_mask(z)
        maximal = (space._maximal_masks == z_mask).all(axis=1).any()
    except DimensionMismatch:
        maximal = False
    if not maximal:
        raise InvalidSubspace("the deleted subspace must be maximal singular")
    members = space._layers[0]
    kept = (~z_mask[members]).sum(axis=1) >= 2
    return Reduct(space, z, z_mask, members[kept])


def _classify(red: Reduct) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices into the maximals of R0, R1 and the rest, by the dimension of
    their meet with the deleted subspace Z (Z itself left out)."""
    masks = red.space._maximal_masks
    z = red.z_mask
    dims = red.space._dims((masks & z).sum(axis=1))
    kept = ~(masks == z).all(axis=1)
    point, plane = dims == 1, dims == red.space.n - 1
    return (
        np.flatnonzero(kept & point),
        np.flatnonzero(kept & plane),
        np.flatnonzero(kept & ~point & ~plane),
    )


@dataclass
class Reconstruction:
    class_count: int
    r0_size: int
    r1_size: int
    other_size: int
    point_map_ok: bool
    hyperplane_map_ok: bool
    incidence_ok: bool
    lines_ok: bool
    classes: list[list[int]] = field(default_factory=list)

    @property
    def isomorphic(self) -> bool:
        return self.point_map_ok and self.hyperplane_map_ok and self.incidence_ok and self.lines_ok

    def to_jsonable(self) -> dict:
        return {
            "class_count": self.class_count,
            "r0_size": self.r0_size,
            "r1_size": self.r1_size,
            "other_size": self.other_size,
            "point_map_ok": self.point_map_ok,
            "hyperplane_map_ok": self.hyperplane_map_ok,
            "incidence_ok": self.incidence_ok,
            "lines_ok": self.lines_ok,
            "isomorphic": self.isomorphic,
        }


def reconstruct_deleted_subspace(red: Reduct) -> Reconstruction:
    """Rebuild the deleted geometry from the reduct and compare with ground truth.

    Points: profile classes of the point-meeting maximals against the
    hyperplane-meeting ones.  Hyperplanes: the latter themselves.  Lines: common
    points of the hyperplanes through two recovered points.  Each recovered
    object is matched to the deleted subspace through its improper part, and
    every incidence is compared both ways.
    """
    space = red.space
    masks = space._maximal_masks
    z = red.z_mask
    r0, r1, other = _classify(red)
    x0, x1 = masks[r0], masks[r1]
    # X0 \ Z and X1 \ Z share a reduct line, for every pair at once: X0 and
    # X1 meet in a line (p + 1 points), and at least two of its points survive
    # the deletion of Z
    profiles = (_meet_counts(x0, x1) == space.p + 1) & (_meet_counts(x0 & ~z, x1 & ~z) >= 2)
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(np.packbits(profiles, axis=1)):
        groups.setdefault(row.tobytes(), []).append(i)
    class_list = sorted(groups.values())

    # ground truth: the improper point of each R0 member (the one point of
    # X0 and Z), the improper hyperplane X1 and Z of each R1 member
    improper_points = (x0 & z).argmax(axis=1)
    improper_planes = x1 & z
    z_points = set(np.flatnonzero(z).tolist())

    reps = [set(improper_points[members].tolist()) for members in class_list]
    point_map_ok = (
        all(len(r) == 1 for r in reps) and set().union(*reps) == z_points and len(class_list) == len(z_points)
    )

    plane_keys = [row.tobytes() for row in np.packbits(improper_planes, axis=1)]
    # onto all hyperplanes of the deleted subspace
    all_planes = {row.tobytes() for row in np.packbits(_hyperplanes_of(space, red.z), axis=1)}
    hyperplane_map_ok = len(set(plane_keys)) == len(plane_keys) and set(plane_keys) == all_planes

    incidence_ok = bool((profiles == improper_planes[:, improper_points].T).all())
    lines_ok = _recovered_lines_match(space, class_list, profiles, improper_points)
    return Reconstruction(
        class_count=len(class_list),
        r0_size=len(r0),
        r1_size=len(r1),
        other_size=len(other),
        point_map_ok=bool(point_map_ok),
        hyperplane_map_ok=bool(hyperplane_map_ok),
        incidence_ok=incidence_ok,
        lines_ok=bool(lines_ok),
        classes=class_list,
    )


def _hyperplanes_of(space: HypPolarSpace, z: Subspace) -> np.ndarray:
    """Point masks of the codimension-1 subspaces of z, one per normalized
    nonzero c in GF(p)^k: the points whose coordinates g in z's basis have
    c . g = 0."""
    grid = enumerate_vectors(z.p, z.dim)
    reps, _ = projective_classes(grid, z.p)
    points = space._span_indices(z.matrix()[None])[0]  # the point of each g in grid[1:]
    planes, members = np.nonzero(grid[reps] @ grid[1:].T % z.p == 0)
    masks = np.zeros((len(reps), len(space.quadric_points)), dtype=bool)
    masks[planes, points[members]] = True
    return masks


def _recovered_lines_match(space: HypPolarSpace, class_list, profiles, improper_points) -> bool:
    """Recovered line through two classes = the classes on every recovered
    hyperplane through both; for every pair it must be the line of Z through
    their improper points, with p + 1 classes."""
    reps = [members[0] for members in class_list]
    on_plane = profiles[reps]  # class c lies on recovered hyperplane j
    a, b = np.triu_indices(len(reps), 1)
    common = on_plane[a] & on_plane[b]
    recovered = _meet_counts(common, ~on_plane) == 0
    points = improper_points[reps]
    true = space._span_masks(space._rep_matrix[np.stack([points[a], points[b]], axis=1)])
    return bool((recovered == true[:, points]).all() and (recovered.sum(axis=1) == space.p + 1).all())


def reconstruction_report(space: HypPolarSpace, z: Subspace) -> dict:
    red = reduct(space, z)
    rec = reconstruct_deleted_subspace(red)
    classes, _ = space.parity_classes()
    sizes = sorted({classes.count(c) for c in set(classes)})
    return {
        "field": space.p,
        "base_dim": space.n,
        "quadric_points": len(space.quadric_points),
        "polar_lines": len(space._layers[0]),
        "maximal_singulars": len(space._maximal_masks),
        "parity_class_sizes": sizes,
        "reduct_points": int((~red.z_mask).sum()),
        "reduct_lines": len(red.line_members),
        "reconstruction": rec.to_jsonable(),
    }
