"""Bisectors and spheres of a point pair, and translation non-invariance.

Segment congruence on a scalar space: p1p2 = p3p4 when rho(p1,p2) = rho(p3,p4).
It is not symmetric in the pair order, so there are two bisector families, and
it is not translation invariant.  All hyperplane classifications below are for
scalar-valued semiforms (nu = 1); the defining point sets make sense for any nu.
The congruence laws themselves are checked over all pairs by the `metric` and
`bisectors` suites.

Every defining set is quantified over all of Y.  `pair_sets` answers a block of
pairs of point codes at once: its masks compare rows and columns of encoded rho
(`SemipolarSpace.rho_codes`), and its equations are integer array arithmetic on
point coordinates.  The per-pair functions are its one-pair case; points are
decoded only for the values returned.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .apsg import Point, SemipolarSpace
from .errors import DimensionMismatch
from .forms import group_tables
from .linalg import CHUNK, encode_vecs, enumerate_vectors, normalize_rows

KINDS = ("t", "m", "sphere")
_KIND = np.arange(3)[:, None]
_POINTS_OF_PAIR = np.array([[1, -1], [1, 1], [1, 0]])  # y_i - y_j, y_i + y_j, y_i


def _classification(u0, alpha: int, beta: int) -> str:
    """The kind of the solution set of one normalized equation row."""
    if any(u0) or alpha:
        return "hyperplane"
    return "all" if beta == 0 else "empty"


class HyperplaneDescriptor(NamedTuple):
    """Normalized coefficients of {[a, u] : eta(u0, u) = beta + alpha * a}."""

    p: int
    u0: tuple[int, ...]
    alpha: int
    beta: int

    @classmethod
    def from_row(cls, p: int, row: list) -> "HyperplaneDescriptor":
        """The descriptor of one normalized row (u0..., alpha, beta)."""
        *u0, alpha, beta = row
        return cls(p, tuple(u0), alpha, beta)


def _decode(space: SemipolarSpace, mask: np.ndarray) -> tuple[Point, ...]:
    """The points of a membership mask over point codes, in code order."""
    return tuple(space.points[k] for k in np.flatnonzero(mask).tolist())


class PairSets(NamedTuple):
    """The t-bisector, m-bisector and sphere of each pair of a block of B
    pairs, indexed (kind, pair) in the order of KINDS."""

    masks: np.ndarray  # (3, B, |Y|) membership over point codes
    sizes: np.ndarray  # (3, B) cardinalities
    equations: Optional[np.ndarray]  # (3, B, n + 2) normalized rows; None unless nu = 1


@lru_cache(maxsize=None)
def _equation_rows(p: int, n: int) -> np.ndarray:
    """rows[k, z]: the normalized row (u, alpha_k, a) of each point z = [a, u]
    of the scalar space over GF(p)^n, in code order, for the alpha of each
    kind: 0 (t), -2 (m) and -1 (sphere)."""
    pts = enumerate_vectors(p, n + 1)
    rows = np.empty((3, len(pts), n + 2), dtype=np.int64)
    rows[..., :n] = pts[:, 1:]
    rows[..., n] = np.array([0, -2, -1])[:, None]
    rows[..., n + 1] = pts[:, 0]
    rows = normalize_rows(rows, p)
    rows.setflags(write=False)
    return rows


def pair_sets(space: SemipolarSpace, i, j) -> PairSets:
    """The sets of the pairs (i[b], j[b]) of point codes.

    The masks compare the rows rho(y_i, .) and rho(y_j, .) and the column
    rho(., y_j) over all of Y, read by one `rho_codes` call.  On a scalar
    space each equation is the `_equation_rows` row of one point z:

      t       z = y_i - y_j            eta(u_i - u_j, u) = a_i - a_j
      m       z = y_i + y_j            eta(u_i + u_j, u) = a_i + a_j - 2a
      sphere  z = y_i + [rho_ij, 0]    eta(u_i, u) = rho_ij + a_i - a
    """
    b = len(i)
    ij = np.concatenate([i, j], dtype=np.intp)
    j = ij[b:]
    lines = space.rho_codes(ij, j)
    first = lines[:b]
    r12 = first[np.arange(b), j]
    masks = np.empty((3, b, space.size), dtype=bool)
    np.equal(lines[b:].reshape(2, b, -1), first, out=masks[:2])
    np.equal(first, r12[:, None], out=masks[2])
    sizes = masks.sum(axis=2)
    if space.nu != 1:
        return PairSets(masks, sizes, None)
    z = (_POINTS_OF_PAIR @ space._coords.take(ij, axis=0).reshape(2, -1)).reshape(3, b, -1)
    z[2, :, 0] += r12
    return PairSets(masks, sizes, _equation_rows(space.p, space.n)[_KIND, encode_vecs(z, space.p)])


def _pair_set(space: SemipolarSpace, p1: Point, p2: Point, kind: str):
    """One set of the pair p1, p2: its points and, on scalar spaces, its equation."""
    sets = pair_sets(space, [space.index(p1)], [space.index(p2)])
    k = KINDS.index(kind)
    eq = sets.equations
    desc = None if eq is None else HyperplaneDescriptor.from_row(space.p, eq[k, 0].tolist())
    return _decode(space, sets.masks[k, 0]), desc


def bisector_t(space: SemipolarSpace, p1: Point, p2: Point):
    """{p : rho(p1, p) = rho(p2, p)} with its equation for scalar spaces.

    Empty exactly when p1 != p2 differ only vertically; the whole space when
    p1 = p2; a hyperplane otherwise.
    """
    return _pair_set(space, p1, p2, "t")


def bisector_m(space: SemipolarSpace, p1: Point, p2: Point):
    """{p : rho(p1, p) = rho(p, p2)}: always a hyperplane on scalar spaces."""
    return _pair_set(space, p1, p2, "m")


def translation_noninvariance_witness(space: SemipolarSpace):
    """The first (p1, p2, t) in nested-loop order over the points with
    rho(p1+t, p2+t) != rho(p1, p2), one p1 and a block of about CHUNK
    (p2, t) pairs of the value table at a time."""
    _, add, _, _, _ = group_tables(space.p, space.ydim)
    t = space.value_table
    size = space.size
    step = max(1, CHUNK // size)
    for i in range(size):
        moved = add.rows(i)  # p_i + p_k for every k
        for lo in range(0, size, step):
            # bad[j, k]: rho(p_i + p_k, p_j + p_k) != rho(p_i, p_j), j in the block
            bad = t[moved[None, :], add.rows(np.arange(lo, min(lo + step, size)))] != t[i, lo : lo + step, None]
            if bad.any():
                j, k = divmod(int(np.argmax(bad)), size)
                return space.points[i], space.points[lo + j], space.points[k]
    return None


def pair_report(space: SemipolarSpace, p1: Point, p2: Point) -> list[dict]:
    """Bisector/sphere reports for one point pair (scalar spaces)."""
    return pair_reports(space, [space.index(p1)], [space.index(p2)])


def pair_reports(space: SemipolarSpace, i: list[int], j: list[int]) -> list[dict]:
    """`pair_report` of each pair (i[b], j[b]) of point codes, in order, from
    `pair_sets` blocks of about CHUNK mask elements."""
    if space.nu != 1:
        raise DimensionMismatch("this operation needs a scalar-valued semiform")
    step = max(1, CHUNK // (3 * space.size))
    out = []
    for lo in range(0, len(i), step):
        first, second = i[lo : lo + step], j[lo : lo + step]
        sets = pair_sets(space, first, second)
        block = zip(first, second, sets.sizes.T.tolist(), sets.equations.transpose(1, 0, 2).tolist())
        for a, b, sizes, rows in block:
            for kind, size, (*u0, alpha, beta) in zip(KINDS, sizes, rows):
                out.append({
                    "pair": [a, b],
                    "kind": kind,
                    "classification": _classification(u0, alpha, beta),
                    "equation": {"u0": u0, "alpha": alpha, "beta": beta},
                    "cardinality": size,
                })
    return out
