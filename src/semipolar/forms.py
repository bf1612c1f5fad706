"""Alternating vector-valued maps, affine atlases, semiforms, and their axiom checkers.

Scalars live in GF(p), p an odd prime.  A semiform on Y = V' + V is
rho([v1,u1],[v2,u2]) = eta(u1,u2) - delta(v1,v2) with eta alternating bilinear
and delta(v1,v2) = phi(v1) - phi(v2) for a linear phi.  Bulk checks run on
integer-encoded value tables (base-p codes of V' vectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    DegenerateAtlas,
    DimensionMismatch,
    check_budget,
)
from .gf import GF
from .linalg import (
    LinearMap,
    SplitTable,
    Subspace,
    as_vec,
    blocks,
    code_dtype,
    encode_vecs,
    enumerate_vectors,
    first_failure,
    index_vec,
    vec_index,
)


@lru_cache(maxsize=None)
def group_tables(p: int, n: int):
    """Index-arithmetic tables for GF(p)^n under the vec_index encoding.

    Returns (vectors, add, sub, neg, scale): add[i, j] is the code of
    vectors[i] + vectors[j] and sub[i, j] that of vectors[i] - vectors[j],
    each a `SplitTable` of two half tables, neg[i] the code of -vectors[i],
    and scale[a, i] that of a * vectors[i].  Every code is at code width,
    `code_dtype(p^n - 1)`, so the tables hold O(p^n) entries and no
    (p^n, p^n) array.
    """
    vecs = enumerate_vectors(p, n)
    dt = code_dtype(p**n - 1)
    add, sub = SplitTable.of_sum(p, n, 1), SplitTable.of_sum(p, n, -1)
    neg = encode_vecs(-vecs, p).astype(dt)
    scale = np.stack([encode_vecs(a * vecs, p) for a in range(p)]).astype(dt)
    for t in (vecs, neg, scale):
        t.setflags(write=False)
    return vecs, add, sub, neg, scale


class AlternatingMap:
    """Alternating bilinear eta: V x V -> V' held by its strict-upper Gram coefficients.

    Antisymmetry and eta(u,u) = 0 hold by construction: the full Gram tensor is
    antisymmetrized from the coefficients for i < j.
    """

    __slots__ = ("p", "n", "nu", "gram")

    def __init__(self, p: int, n: int, nu: int, upper: dict[tuple[int, int], tuple]):
        GF(p)
        gram = np.zeros((n, n, nu), dtype=np.int64)
        for (i, j), coeffs in upper.items():
            if not 0 <= i < j < n:
                raise DimensionMismatch(f"Gram index ({i},{j}) out of range for n={n}")
            c = as_vec(coeffs, p)
            if c.shape != (nu,):
                raise DimensionMismatch(f"Gram coefficient at ({i},{j}) not in V'")
            gram[i, j] = c
            gram[j, i] = (-c) % p
        gram.setflags(write=False)
        self.p, self.n, self.nu, self.gram = p, n, nu, gram

    def upper_items(self) -> list[tuple[int, int, tuple[int, ...]]]:
        return [
            (i, j, tuple(int(c) for c in self.gram[i, j]))
            for i, j in combinations(range(self.n), 2)
        ]

    def eval(self, u1, u2) -> tuple[int, ...]:
        u1 = as_vec(u1, self.p)
        u2 = as_vec(u2, self.p)
        if u1.shape != (self.n,) or u2.shape != (self.n,):
            raise DimensionMismatch("arguments must lie in V")
        out = np.einsum("i,ijk,j->k", u1, self.gram, u2) % self.p
        return tuple(int(c) for c in out)

    def eta_u(self, u0) -> LinearMap:
        """The partial map u -> eta(u0, u) as a linear map V -> V'."""
        u0 = as_vec(u0, self.p)
        mat = np.einsum("i,ijk->kj", u0, self.gram) % self.p
        return LinearMap(mat, self.p)

    def pullback(self, phi: LinearMap) -> np.ndarray:
        """The (n, n, nu) Gram tensor of (u1, u2) -> eta(phi u1, phi u2)."""
        a = phi.matrix
        return np.einsum("ai,abk,bj->ijk", a, self.gram, a) % self.p

    def pair_table(self, us: np.ndarray) -> np.ndarray:
        """Encoded eta values for all row pairs of us: out[i,j] = code(eta(us[i], us[j])),
        at code width, built a block of rows at a time, an entry counted as the
        8 bytes of its int64 product."""
        p = self.p
        us = as_vec(us, p)
        out = np.zeros((len(us), len(us)), dtype=code_dtype(p**self.nu - 1))
        for b in blocks(len(us), 8 * len(us)):
            block = out[b]
            for k in range(self.nu):
                block *= p
                block += (us[b] @ self.gram[:, :, k] % p @ us.T % p).astype(out.dtype)
        return out

    def radical(self) -> Subspace:
        """{u : eta(u, .) == 0}, the kernel of u -> (eta(u, e_j))_j."""
        stacked = self.gram.reshape(self.n, self.n * self.nu).T
        from .linalg import matrix_kernel

        return matrix_kernel(stacked, self.p, self.n)

    def is_nondegenerate(self) -> bool:
        return self.radical().dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, AlternatingMap)
            and (self.p, self.n, self.nu) == (other.p, other.n, other.nu)
            and bool((self.gram == other.gram).all())
        )

    def __hash__(self):
        return hash((self.p, self.n, self.nu, self.gram.tobytes()))


def standard_symplectic(m: int, p: int) -> AlternatingMap:
    """The scalar symplectic form of index m on GF(p)^(2m): sum of hyperbolic planes."""
    if m < 1:
        raise DimensionMismatch("index must be at least 1")
    upper = {(2 * i, 2 * i + 1): (1,) for i in range(m)}
    return AlternatingMap(p, 2 * m, 1, upper)


def wedge_coordinates(n: int) -> list[tuple[int, int]]:
    """Basis order of the wedge square: pairs (i, j), i < j, lexicographic."""
    return list(combinations(range(n), 2))


def exterior_square(g: LinearMap, n: int) -> AlternatingMap:
    """The alternating map u1, u2 -> g(u1 ^ u2) for a linear g on wedge coordinates."""
    if n < 2:
        raise DimensionMismatch("wedge dimension must be at least 2")
    pairs = wedge_coordinates(n)
    if g.domain_dim != len(pairs):
        raise DimensionMismatch(
            f"g must have domain dimension C({n},2)={len(pairs)}, got {g.domain_dim}"
        )
    upper = {}
    for k, (i, j) in enumerate(pairs):
        e = np.zeros(len(pairs), dtype=np.int64)
        e[k] = 1
        upper[(i, j)] = g(e)
    return AlternatingMap(g.p, n, g.codomain_dim, upper)


def cross_product_map(p: int, signs: tuple[int, int, int] = (1, -1, 1)) -> AlternatingMap:
    """The vector product on GF(p)^3 whose coordinates are signed 2x2 minors."""
    e1, e2, e3 = signs
    upper = {
        (0, 1): (0, 0, e3 % p),
        (0, 2): (0, e2 % p, 0),
        (1, 2): (e1 % p, 0, 0),
    }
    return AlternatingMap(p, 3, 3, upper)


class AffineAtlas:
    """delta(v1, v2) = phi(v1) - phi(v2) for a linear phi on V'."""

    __slots__ = ("phi",)

    def __init__(self, phi: LinearMap):
        if phi.domain_dim != phi.codomain_dim:
            raise DimensionMismatch("phi must be an endomorphism of V'")
        self.phi = phi

    @classmethod
    def identity(cls, nu: int, p: int) -> "AffineAtlas":
        return cls(LinearMap.identity(nu, p))

    @property
    def p(self) -> int:
        return self.phi.p

    @property
    def nu(self) -> int:
        return self.phi.domain_dim

    def delta(self, v1, v2) -> tuple[int, ...]:
        a = np.array(self.phi(v1), dtype=np.int64)
        b = np.array(self.phi(v2), dtype=np.int64)
        return tuple(int(c) for c in (a - b) % self.p)

    def is_nondegenerate(self) -> bool:
        return self.phi.kernel().dim == 0

    def is_identity(self) -> bool:
        return bool((self.phi.matrix == np.eye(self.nu, dtype=np.int64)).all())


@lru_cache(maxsize=None)
def _residues(p: int, top: int, dtype) -> np.ndarray:
    """a mod p for a = 0..top, as dtype."""
    table = (np.arange(top + 1) % p).astype(dtype)
    table.setflags(write=False)
    return table


class Semiform:
    """rho([v1,u1],[v2,u2]) = eta(u1,u2) - delta(v1,v2) on Y = V' + V."""

    __slots__ = ("eta", "atlas", "kind")

    def __init__(self, eta: AlternatingMap, atlas: Optional[AffineAtlas] = None, kind: str = "custom"):
        if atlas is None:
            atlas = AffineAtlas.identity(eta.nu, eta.p)
        if atlas.p != eta.p or atlas.nu != eta.nu:
            raise DimensionMismatch("atlas does not match the codomain of eta")
        self.eta = eta
        self.atlas = atlas
        self.kind = kind

    @property
    def p(self) -> int:
        return self.eta.p

    @property
    def n(self) -> int:
        return self.eta.n

    @property
    def nu(self) -> int:
        return self.eta.nu

    @property
    def ydim(self) -> int:
        return self.nu + self.n

    @property
    def simplified(self) -> bool:
        return self.atlas.is_identity()

    def split(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Split a Y-point into its (v, u) parts; accepts flat or (v, u) form."""
        if hasattr(point, "v") and hasattr(point, "u"):
            v, u = point.v, point.u
        elif len(point) == 2 and not np.isscalar(point[0]):
            v, u = point
        else:
            flat = as_vec(point, self.p)
            if flat.shape != (self.ydim,):
                raise DimensionMismatch("point does not lie in Y")
            v, u = flat[: self.nu], flat[self.nu :]
        v = as_vec(v, self.p)
        u = as_vec(u, self.p)
        if v.shape != (self.nu,) or u.shape != (self.n,):
            raise DimensionMismatch("point does not lie in Y")
        return v, u

    def eval(self, p1, p2) -> tuple[int, ...]:
        v1, u1 = self.split(p1)
        v2, u2 = self.split(p2)
        e = np.array(self.eta.eval(u1, u2), dtype=np.int64)
        d = np.array(self.atlas.delta(v1, v2), dtype=np.int64)
        return tuple(int(c) for c in (e - d) % self.p)

    def row_factors(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The (left, right) factors of `codes_from_factors` for r coordinate
        rows, each a flat (v, u) point x of Y, as float32 arrays of residues,
        one (n + 2)-vector per point and V' coordinate k:

          left   (nu, r, n + 2)   left[k][x]      = [u, phi(v)_k, 1]
          right  (nu, 2r, n + 2)  right[k][x]     = [G_k^T u mod p, 1, (p - 1) phi(v)_k]
                                  right[k][r + x] = [G_k u mod p, p - 1, phi(v)_k]

        so right[k][x] . left[k][y] is coordinate k of rho(x, y) mod p and
        right[k][r + x] . left[k][y] that of rho(y, x): the right factor holds
        a row and a column of rho for every point, any set of them one gather."""
        p, nu, n = self.p, self.nu, self.n
        rows = as_vec(rows, p)
        u = rows[:, nu:]
        phi = ((rows[:, :nu] @ self.atlas.phi.matrix.T) % p).T  # rows are reduced: no second reduction
        left = np.ones((nu, len(rows), n + 2), dtype=np.float32)
        left[:, :, :n] = u
        left[:, :, n] = phi
        right = np.empty((nu, 2, len(rows), n + 2), dtype=np.float32)
        right[:, 0, :, :n] = np.einsum("jik,rj->kri", self.eta.gram, u) % p
        right[:, 1, :, :n] = np.einsum("ijk,rj->kri", self.eta.gram, u) % p
        right[..., n] = [[1], [p - 1]]
        right[:, 0, :, n + 1] = (p - 1) * phi
        right[:, 1, :, n + 1] = phi
        return left, right.reshape(nu, 2 * len(rows), n + 2)

    def codes_from_factors(self, lines, left) -> np.ndarray:
        """Encoded rho from `row_factors`: out[l, y] is the base-p code whose
        coordinate k is lines[k][l] . left[k][y] mod p, at code width, for rows
        `lines` of the right factor.  One float32 matmul per V' coordinate, a
        block of rows at a time, an entry counted as its 8-byte index: each
        sum is an integer of at most (n + 2)(p - 1)^2 < 2^24, so exact, and one
        take from a residue table reduces it into the block holding the code
        so far."""
        p = self.p
        out = np.empty((lines.shape[1], left.shape[1]), dtype=code_dtype(p**self.nu - 1))
        residue = _residues(p, left.shape[2] * (p - 1) ** 2, out.dtype)
        for b in blocks(len(out), 8 * left.shape[1]):
            block = out[b]
            residue.take((lines[0, b] @ left[0].T).astype(np.intp), out=block, mode="clip")
            for k in range(1, self.nu):
                block *= p
                block += residue.take((lines[k, b] @ left[k].T).astype(np.intp))
        return out

    def value_table(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """Encoded rho over all point pairs of Y, indexed by vec_index of (v, u),
        at code width: uint8 up to p^nu = 256."""
        size = self.p**self.ydim
        check_budget(size * size, budget, "semiform value table")
        left, right = self.row_factors(enumerate_vectors(self.p, self.ydim))
        return self.codes_from_factors(right[:, :size], left)

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "nu": self.nu,
            "gram": [[i, j, *coeffs] for i, j, coeffs in self.eta.upper_items()],
            "atlas": self.atlas.phi.matrix.tolist(),
            "kind": self.kind,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Semiform":
        p, n, nu = int(data["p"]), int(data["n"]), int(data["nu"])
        GF(p)
        upper = {}
        for row in data["gram"]:
            i, j, *coeffs = row
            upper[(int(i), int(j))] = tuple(int(c) for c in coeffs)
        eta = AlternatingMap(p, n, nu, upper)
        atlas = AffineAtlas(LinearMap(data["atlas"], p))
        kind = str(data.get("kind", "custom"))
        return cls(eta, atlas, kind=kind)


def normalize(rho: Semiform) -> tuple[Semiform, LinearMap]:
    """Replace the atlas by the identity.

    Returns the simplified semiform together with the point bijection Phi of Y,
    Phi([v,u]) = [phi(v), u], satisfying rho(q1, q2) = simplified(Phi q1, Phi q2).
    """
    if not rho.atlas.is_nondegenerate():
        raise DegenerateAtlas("atlas map has a nontrivial kernel")
    simplified = Semiform(rho.eta, AffineAtlas.identity(rho.nu, rho.p), kind=rho.kind)
    block = np.zeros((rho.ydim, rho.ydim), dtype=np.int64)
    block[: rho.nu, : rho.nu] = rho.atlas.phi.matrix
    block[rho.nu :, rho.nu :] = np.eye(rho.n, dtype=np.int64)
    return simplified, LinearMap(block, rho.p)


def scaled_conjugate(eta: AlternatingMap, b: LinearMap, gamma: int) -> tuple[AlternatingMap, LinearMap]:
    """The alternating map (u1,u2) -> gamma*eta(B u1, B u2) and the Y-bijection relating it back.

    With Phi([v,u]) = [gamma^(-1) v, B u] the simplified semiforms satisfy
    rho_scaled(q1, q2) = gamma * rho(Phi q1, Phi q2); the inverse scale on the
    V' block absorbs the factor gamma in front of the atlas difference.
    """
    p = eta.p
    if not b.is_bijective() or b.domain_dim != eta.n:
        raise DimensionMismatch("B must be a linear bijection of V")
    gamma %= p
    if gamma == 0:
        raise DegenerateAtlas("gamma must be nonzero")
    gram = (gamma * eta.pullback(b)) % p
    upper = {(i, j): gram[i, j] for i, j in combinations(range(eta.n), 2)}
    scaled = AlternatingMap(p, eta.n, eta.nu, upper)
    inv_gamma = pow(int(gamma), p - 2, p)
    block = np.zeros((eta.nu + eta.n, eta.nu + eta.n), dtype=np.int64)
    block[: eta.nu, : eta.nu] = (inv_gamma * np.eye(eta.nu, dtype=np.int64)) % p
    block[eta.nu :, eta.nu :] = b.matrix
    return scaled, LinearMap(block, p)


class Check(NamedTuple):
    name: str
    passed: bool
    witness: object = None
    note: str = ""


@dataclass
class Report:
    """The verdict of a checker or a suite: named checks with witnesses, plus data."""

    checks: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def add(self, name: str, passed, witness=None, note: str = "") -> None:
        self.checks.append(Check(name, bool(passed), witness, note))

    def to_jsonable(self, suite: str) -> dict:
        """The suite report: every witness encoded by `_jsonable`, data as given."""
        checks = [
            {"name": c.name, "passed": c.passed, "witness": _jsonable(c.witness), "note": c.note}
            for c in self.checks
        ]
        return {"suite": suite, "passed": self.passed, "checks": checks, "data": self.data}


def _jsonable(x):
    """Tuples become lists, numpy integers int and arrays lists; the rest stays."""
    if isinstance(x, (list, tuple)):
        return [_jsonable(y) for y in x]
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


def under_map(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The table read under the point map s, out[i, j] = t[s[i], s[j]], as two
    takes, which are faster than one 2-D gather."""
    return t.take(s, axis=0).take(s, axis=1)


def _additive_columns(planes: np.ndarray, p: int) -> np.ndarray:
    """Whether each column g = planes[:, :, n] of residue planes over the codes
    of GF(p)^k has g(x + y) = g(x) + g(y) for all x and y.

    Lemma: exactly when g(x) = sum_l x_l g(e_l) for all x, as an additive map
    of GF(p)^k is Z-linear and the right side is linear.  One float32 matmul
    per plane and block of columns, exact: each sum is at most k(p-1)^2 < 2^24.
    """
    size = planes.shape[1]
    k = round(np.log(size) / np.log(p))
    coords = enumerate_vectors(p, k).astype(np.float32)
    basis = p ** np.arange(k - 1, -1, -1)  # the codes of e_0, ..., e_{k-1}
    additive = np.ones(planes.shape[2], dtype=bool)
    for b in blocks(len(additive), size):
        for plane in planes:
            g = plane[:, b]
            additive[b] &= (np.fmod(coords @ g[basis].astype(np.float32), p) == g).all(axis=0)
    return additive


def _first_additivity_fail(tab: np.ndarray, offsets: np.ndarray, padd: SplitTable, p: int, nu: int):
    """The first (i, j, n) in loop order (n, then i, then j) with
    tab[i + j, n] != tab[i, n] + tab[j, n] + offsets[n] in V', or None: the
    first column where g = tab[:, n] + offsets[n] is not additive, swept a
    block of rows i at a time for its witness."""
    planes = _residue_planes(tab, p, nu, code_dtype(2 * p - 1))
    planes += _residue_planes(np.asarray(offsets), p, nu, planes.dtype)[:, None, :]
    planes %= p
    failed = ~_additive_columns(planes, p)
    if not failed.any():
        return None
    n = int(np.argmax(failed))
    _, vadd, _, _, _ = group_tables(p, nu)
    col, rows = tab[:, n], np.arange(len(tab))
    b, (i, j) = first_failure(
        (b, col.take(padd.rows(rows[b])) == vadd[vadd[col[b], offsets[n]][:, None], col[None, :]])
        for b in blocks(len(tab), len(tab))
    )
    return b.start + i, j, n


def _residue_planes(codes: np.ndarray, p: int, nu: int, dt) -> np.ndarray:
    """The base-p digits of V' codes as nu planes of dtype dt: plane c holds
    coordinate c of every value (the first coordinate is the leading digit)."""
    return np.stack([(codes // p ** (nu - 1 - c) % p).astype(dt) for c in range(nu)])


def _along_sums(t: np.ndarray, padd: SplitTable) -> np.ndarray:
    """The table in difference coordinates, S[i, d] = t[i, i + d], at the
    dtype of t, gathered a block of rows at a time along the `padd` rows of
    the block, an entry counted as the 8 bytes of its index."""
    size = len(t)
    out = np.empty(t.shape, dtype=t.dtype)
    for b in blocks(size, 8 * size):
        rows = np.arange(b.start, b.stop)
        out[b] = np.take_along_axis(t[rows], padd.rows(rows), axis=1)
    return out


def check_atlas_axioms(
    delta_table: np.ndarray, p: int, nu: int, budget: int = DEFAULT_BUDGET
) -> Report:
    """Exhaustively test a candidate difference map delta: V' x V' -> V'.

    The table holds base-p codes: delta_table[i, j] = code(delta(vec_i, vec_j)).
    On a pass of the first three axioms the representing linear map
    phi(v) = delta(v, 0) is extracted and the difference formula
    delta(v1, v2) = phi(v1) - phi(v2) is confirmed pointwise.
    """
    m = p**nu
    check_budget(m**3, budget, "atlas axiom quantification")
    t = np.asarray(delta_table)
    if t.shape != (m, m):
        raise DimensionMismatch(f"table must be {m}x{m}")
    vecs, vadd, vsub, vneg, vscl = group_tables(p, nu)
    report = Report()

    def vec(i: int) -> tuple:
        return tuple(vecs[i])

    # C1: delta(v1+v, v2+v) = delta(v1, v2), quantified over (v1, v2, v).
    fail = first_failure((v, under_map(t, vadd.rows(v)) == t) for v in range(m))
    wit = None if fail is None else (vec(fail[1][0]), vec(fail[1][1]), vec(fail[0]))
    report.add("C1", fail is None, wit, "translation invariance")

    # C2: delta(a v1, a v2) = a delta(v1, v2).
    fail = first_failure((a, under_map(t, vscl[a]) == vscl[a][t]) for a in range(p))
    wit = None if fail is None else (fail[0], vec(fail[1][0]), vec(fail[1][1]))
    report.add("C2", fail is None, wit, "homogeneity")

    # C3: delta(v1, v) + delta(v, v2) = delta(v1, v2).
    fail = first_failure((v, vadd[t[:, v][:, None], t[v, :][None, :]] == t) for v in range(m))
    wit = None if fail is None else (vec(fail[1][0]), vec(fail[0]), vec(fail[1][1]))
    report.add("C3", fail is None, wit, "chain rule")

    report.add("C4", t[0, 0] == 0, None if t[0, 0] == 0 else (vec(0),), "zero at origin")

    for name, eq, note in [
        ("C5", t.diagonal() == 0, "zero diagonal"),
        ("C6", t == vneg[t.T], "antisymmetry"),
        ("C7", t[:, 0][vadd.rows(np.arange(m))] == vadd[t[:, 0][:, None], t[:, 0][None, :]],
         "additivity against the origin"),
    ]:
        fail = first_failure([(name, eq)])
        report.add(name, fail is None, None if fail is None else tuple(map(vec, fail[1])), note)

    if report.check("C1").passed and report.check("C2").passed and report.check("C3").passed:
        phi_codes = t[:, 0]
        diff_ok = bool((t == vsub[phi_codes[:, None], phi_codes[None, :]]).all())
        cols = [index_vec(int(phi_codes[vec_index(row, p)]), p, nu) for row in np.eye(nu, dtype=np.int64)]
        phi_matrix = np.array(cols, dtype=np.int64).T
        report.data["difference_form_ok"] = diff_ok
        report.data["phi_matrix"] = phi_matrix.tolist()
        report.add("difference-form", diff_ok, None, "delta(v1,v2) = phi(v1) - phi(v2)")
    return report


def check_semiform_axioms(
    rho_table: np.ndarray, p: int, ydim: int, nu: int, budget: int = DEFAULT_BUDGET
) -> Report:
    """Exhaustively test a candidate operation table rho: Y x Y -> V' against A1-A8.

    A1  rho(p,q) = -rho(q,p)
    A2  rho(theta,p) = 0  implies  rho(a q, p) = a rho(q, p)
    A3  rho(theta,p) = 0  implies  rho(q1+q2, p) = rho(q1,p) + rho(q2,p)
    A4  p != theta  implies some q has rho(p,q) != 0 and rho(theta,q) = 0
    A5  rho(-p,-q) + rho(p,q) = 2(rho(p, p+q) - rho(theta, q))
    A6  if rho(p+q, q) = rho(p, theta) for all p, then q shifts rho invariantly
    A7  2(rho(a p1, a p2) - a rho(p1,p2)) = a(a-1)(rho(-p1,-p2) + rho(p1,p2))
    A8  every q admits p with rho(p, theta) = 0 and rho(p-q, -r) = -rho(q-p, r)

    A3 is decided by the lemma of `_additive_columns`, and the first failing
    column alone is swept for the witness.

    On a full pass the report also carries the dimensions of the kernel part M
    and the shift part D, the direct-sum confirmation Y = D + M, and the
    pointwise reconstruction of the table from its restrictions to M and D.
    """
    size = p**ydim
    check_budget(size * size, budget, "semiform axiom quantification")
    t = np.asarray(rho_table)
    if t.shape != (size, size):
        raise DimensionMismatch(f"table must be {size}x{size}")
    pts, padd, psub, pneg, pscl = group_tables(p, ydim)
    vvecs, vadd, vsub, vneg, vscl = group_tables(p, nu)
    report = Report()

    def pt(i: int) -> tuple:
        return tuple(int(c) for c in pts[i])

    # A1: antisymmetry.
    fail = first_failure([("A1", t == vneg[t.T])])
    report.add("A1", fail is None, None if fail is None else tuple(map(pt, fail[1])), "antisymmetry")

    m_set = np.flatnonzero(t[0, :] == 0)

    # A2 / A3: rho_p is linear for p with rho(theta, p) = 0; A2 runs mp, then a, then q.
    fail = first_failure((int(mp), t[pscl, mp] == vscl[:, t[:, mp]]) for mp in m_set)
    wit = None if fail is None else (fail[1][0], pt(fail[1][1]), pt(fail[0]))
    report.add("A2", fail is None, wit, "homogeneity of rho_p on the kernel part")

    fail = _first_additivity_fail(t[:, m_set], np.zeros(len(m_set), dtype=np.intp), padd, p, nu)
    wit = None if fail is None else (pt(fail[0]), pt(fail[1]), pt(int(m_set[fail[2]])))
    report.add("A3", fail is None, wit, "additivity of rho_p on the kernel part")

    # A4: nondegeneracy through the kernel part.
    ok, wit = True, None
    if len(m_set):
        bad = np.flatnonzero(~(t[:, m_set] != 0).any(axis=1))
        bad = bad[bad != 0]
        if len(bad):
            ok, wit = False, (pt(int(bad[0])),)
    else:
        ok, wit = False, (pt(1),)
    report.add("A4", ok, wit, "separating witnesses in the kernel part")

    # rho(-p, -q), gathered once: A5 and A7 read the parity sum
    # rho(-p,-q) + rho(p,q), and A8 the rows with rho(-p,-q) = -rho(p,q)
    neg = under_map(t, pneg)
    parity_sum = vadd[neg, t]
    row_ok = (neg == vneg[t]).all(axis=1)
    del neg

    # A5: rho(-p,-q) + rho(p,q) = 2(rho(p,p+q) - rho(theta,q)).
    inner = vsub[_along_sums(t, padd), t[0, :][None, :]]
    rhs = vscl[2 % p][inner]
    fail = first_failure([("A5", parity_sum == rhs)])
    wit = None if fail is None else tuple(map(pt, fail[1]))
    report.add("A5", fail is None, wit, "parity defect matches the doubled offset")
    # The shift part of the decomposition: rho(q, q + r) = rho(theta, r) for all r.
    shift_rows = (inner == 0).all(axis=1)

    # A6: shift-invariance propagates from the one-sided condition: the q
    # whose rows p + q have rho(p + q, q) = rho(p, theta) for every p.
    shifts = (q for q in range(size) if (t[padd.rows(q), q] == t[:, 0]).all())
    fail = first_failure((q, under_map(t, padd.rows(q)) == t) for q in shifts)
    wit = None if fail is None else (pt(fail[0]), pt(fail[1][0]), pt(fail[1][1]))
    report.add("A6", fail is None, wit, "one-sided shift condition implies full shift invariance")

    # A7: 2(rho(a p1, a p2) - a rho(p1, p2)) = a(a-1)(rho(-p1,-p2) + rho(p1,p2)).
    fail = first_failure(
        (a, vscl[2 % p][vsub[under_map(t, pscl[a]), vscl[a][t]]] == vscl[(a * (a - 1)) % p][parity_sum])
        for a in range(p)
    )
    wit = None if fail is None else (fail[0], pt(fail[1][0]), pt(fail[1][1]))
    report.add("A7", fail is None, wit, "quadratic scaling defect")

    # A8: every q splits against some kernel-part p: rho(p-q, -r) = -rho(q-p, r)
    # for all r.  Since p - q = -(q - p), the pair (q, p) passes exactly when the
    # row d = q - p has rho(-d, -r) = -rho(d, r) for all r, so the rows are
    # tested once and every kernel-part p of every q is one lookup.
    m_row = np.flatnonzero(t[:, 0] == 0)
    fail = first_failure([("A8", row_ok[psub[np.arange(size)[:, None], m_row[None, :]]].any(axis=1))])
    wit = None if fail is None else (pt(fail[1][0]),)
    report.add("A8", fail is None, wit, "existence of a kernel-part complement point")

    if not report.passed:
        return report

    # Decomposition: M = ker rho_theta, D = the shift/parity part, Y = D + M.
    # The parity part is {q : rho(-r, -q) = -rho(r, q) for all r}; with A1 passed
    # this column test is the A8 row test of q.
    d_shift = np.flatnonzero(shift_rows)
    d_parity = np.flatnonzero(row_ok)
    same = len(d_shift) == len(d_parity) and (d_shift == d_parity).all()
    report.add("D-agreement", bool(same), None, "shift part equals parity part")
    if not same:
        return report
    d_set = d_shift

    m_space = Subspace([pts[i] for i in m_set] or [], p, ydim)
    d_space = Subspace([pts[i] for i in d_set] or [], p, ydim)
    decomposition_ok = (
        p**m_space.dim == len(m_set)
        and p**d_space.dim == len(d_set)
        and m_space.intersection(d_space).dim == 0
        and m_space.dim + d_space.dim == ydim
    )
    report.add("decomposition", decomposition_ok, None, "Y is the direct sum D + M")
    report.data["M_dim"] = m_space.dim
    report.data["D_dim"] = d_space.dim
    if not decomposition_ok:
        return report

    # Reconstruction: rho(q1, q2) = eta(m1, m2) - delta(d1, d2), where eta is
    # the restriction of the table to M and delta is its restriction to D with
    # the argument order reversed (rho on D points is antisymmetric, so the
    # reversed restriction is the difference map that recombines exactly).
    comp_m = np.full(size, -1, dtype=np.int64)
    comp_d = np.full(size, -1, dtype=np.int64)
    q = padd[d_set[:, None], m_set[None, :]]
    comp_m[q] = m_set[None, :]
    comp_d[q] = d_set[:, None]
    unique_cover = bool((comp_m >= 0).all())
    rec = vsub[under_map(t, comp_m), under_map(t, comp_d).T]
    rec_ok = unique_cover and bool((rec == t).all())
    report.add("reconstruction", rec_ok, None, "table equals its M/D recombination")
    report.data["reconstruction_ok"] = rec_ok

    # The reversed D-restriction must itself be a nondegenerate affine atlas;
    # re-coordinatize D by its basis and run the atlas axioms on it.
    if d_space.dim:
        d_basis = d_space.matrix()
        d_coords = enumerate_vectors(p, d_space.dim)
        d_points = encode_vecs((d_coords @ d_basis) % p, p)  # point codes in Y
        dd = under_map(t, d_points).T
        # The codomain values live in V'; D may have any dimension <= nu only
        # when the decomposition is genuine, so guard before reusing the checker.
        if d_space.dim == nu:
            atlas_report = check_atlas_axioms(dd, p, nu, budget=budget)
            report.data["delta_atlas_ok"] = atlas_report.passed
            phi_on_d = t[:, 0][d_points.astype(np.int64)]
            report.data["delta_nondegenerate"] = len(set(int(c) for c in phi_on_d)) == len(d_points)
    return report


def verify_identities(t: np.ndarray, rho: Semiform, budget: int = DEFAULT_BUDGET) -> Report:
    """Exhaustively check the six evaluation identities of a semiform on its
    encoded value table t.

    With p_i = [v_i, u_i], q = [v, y], theta the zero point and phi the atlas map:

      alpha-scaling-pairs   rho(a p1, a p2) - a rho(p1, p2) = a(a-1) eta(u1, u2)
      translation-shift     rho(p1+q, p2+q) - rho(p1, p2)   = eta(u1-u2, y)
      offset-pair           rho(p1, p1+p2) - rho(theta, p2) = eta(u1, u2)
      zero-evaluation       rho(theta, q)                   = phi(v)
      alpha-scaling-left    rho(a p1, q) - a rho(p1, q)     = (1-a) phi(v)
      additivity-defect     rho(p1+p2, q) - rho(p1,q) - rho(p2,q) = -phi(v)

    additivity-defect says g = rho(., q) - phi(v) is additive: the lemma of
    `_additive_columns`.  translation-shift says S[i + k, d] = S[i, d] + E[k, d]
    for S[i, d] = rho(p_i, p_i + p_d), E[k, d] = eta(-u_d, y_k); that holds for
    all i, k exactly when it holds at i = 0 and E[., d] is additive (set i = 0,
    then compare; the converse telescopes).  Witnesses are in failing columns.
    """
    p, nu, ydim = rho.p, rho.nu, rho.ydim
    size = p**ydim
    check_budget(size * size, budget, "identity quantification")
    pts, padd, psub, pneg, pscl = group_tables(p, ydim)
    vvecs, vadd, vsub, vneg, vscl = group_tables(p, nu)
    eta_codes = rho.eta.pair_table(pts[:, nu:])
    phi_codes = encode_vecs(rho.atlas.phi.apply_rows(pts[:, : nu]), p).astype(vneg.dtype)
    report = Report()

    def pt(i: int) -> tuple:
        return tuple(int(c) for c in pts[i])

    def scaling_witness(fail) -> Optional[tuple]:
        return None if fail is None else (fail[0], pt(fail[1][0]), pt(fail[1][1]))

    fail = first_failure(
        (a, vsub[under_map(t, pscl[a]), vscl[a][t]] == vscl[(a * (a - 1)) % p][eta_codes]) for a in range(p)
    )
    report.add("alpha-scaling-pairs", fail is None, scaling_witness(fail))

    # E[k, d] = eta_codes[k, d] (eta alternates): i = 0 is offset-pair at (k, d)
    along = _along_sums(t, padd)
    offset_eq = vsub[along, t[0, :][None, :]] == eta_codes
    bad = np.flatnonzero(
        ~offset_eq.all(axis=0) | ~_additive_columns(_residue_planes(eta_codes, p, nu, vneg.dtype), p)
    )
    along, e = along[:, bad], eta_codes[:, bad]
    fail = first_failure(
        (k, along.take(padd.rows(k), axis=0) == vadd[along, e[k][None, :]]) for k in range(size)
    ) if len(bad) else None
    wit = None
    if fail is not None:  # j is the least point of the failing columns of the first failing row i
        k, (i, _) = fail
        j = padd.rows(i)[bad][along[padd[k, i]] != vadd[along[i], e[k]]].min()
        wit = (pt(i), pt(j), pt(k))
    del along
    report.add("translation-shift", fail is None, wit)

    fail = first_failure([("offset-pair", offset_eq)])
    report.add("offset-pair", fail is None, None if fail is None else tuple(map(pt, fail[1])))

    fail = first_failure([("zero-evaluation", t[0, :] == phi_codes)])
    report.add("zero-evaluation", fail is None, None if fail is None else (pt(fail[1][0]),))

    fail = first_failure(
        (a, vsub[t.take(pscl[a], axis=0), vscl[a][t]] == vscl[(1 - a) % p][phi_codes][None, :]) for a in range(p)
    )
    report.add("alpha-scaling-left", fail is None, scaling_witness(fail))

    # The identity holds exactly when rho(p1+p2, q) = rho(p1,q) + rho(p2,q) - phi(v).
    fail = _first_additivity_fail(t, vneg[phi_codes], padd, p, nu)
    wit = None if fail is None else tuple(pt(i) for i in fail)
    report.add("additivity-defect", fail is None, wit)
    return report
