"""Bisectors and spheres of a point pair, and translation non-invariance.

Segment congruence on a scalar space: p1p2 = p3p4 when rho(p1,p2) = rho(p3,p4).
It is not symmetric in the pair order, so there are two bisector families, and
it is not translation invariant.  All hyperplane classifications below are for
scalar-valued semiforms (nu = 1); the defining point sets make sense for any nu.
The congruence laws themselves are checked over all pairs by the `metric` and
`bisectors` suites.

Every defining set is quantified over all of Y.  `_pair_block` compares lines
of rho, read by one `SemipolarSpace.rho_codes` call, for a block of pairs of
point codes, one pair being a block of one; `_equations` is integer arithmetic
on one pair's coordinates.  Points are decoded only for the values returned.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .apsg import Point, SemipolarSpace
from .errors import DimensionMismatch
from .forms import group_tables
from .linalg import blocks, enumerate_vectors, first_failure, normalize_rows

KINDS = ("t", "m", "sphere")


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


class PairSets(NamedTuple):
    """The t-bisector, m-bisector and sphere of each pair of a block of B
    pairs, indexed (kind, pair) in the order of KINDS."""

    masks: np.ndarray  # (3, B, |Y|) membership over point codes
    sizes: np.ndarray  # (3, B) cardinalities
    equations: Optional[np.ndarray]  # (3, B, n + 2) normalized rows; None unless nu = 1


@lru_cache(maxsize=None)
def _equation_rows(p: int, n: int) -> tuple:
    """rows[k][z]: the normalized row (u, alpha_k, a) of each point z = [a, u]
    of the scalar space over GF(p)^n, in code order, for the alpha of each
    kind: 0 (t), -2 (m) and -1 (sphere), as tuples."""
    pts = enumerate_vectors(p, n + 1)
    rows = np.empty((3, len(pts), n + 2), dtype=np.int64)
    rows[..., :n] = pts[:, 1:]
    rows[..., n] = np.array([0, -2, -1])[:, None]
    rows[..., n + 1] = pts[:, 0]
    return tuple(tuple(map(tuple, kind)) for kind in normalize_rows(rows, p).tolist())


def _equations(space: SemipolarSpace, i: int, j: int, r: int) -> tuple:
    """The normalized rows (t, m, sphere) of the pair of point codes i, j of
    a scalar space with rho(y_i, y_j) = r: each the `_equation_rows` row of
    one point z, whose code is integer arithmetic on the pair's coordinates.

      t       z = y_i - y_j            eta(u_i - u_j, u) = a_i - a_j
      m       z = y_i + y_j            eta(u_i + u_j, u) = a_i + a_j - 2a
      sphere  z = y_i + [r, 0]         eta(u_i, u) = r + a_i - a
    """
    p, h = space.p, space.size // space.p  # the code of [a, u] is a * h + code(u)
    t = m = 0
    for a, b in zip(space.points[i].flat(), space.points[j].flat()):
        t = t * p + (a - b) % p
        m = m * p + (a + b) % p
    rows = _equation_rows(p, space.n)
    return rows[0][t], rows[1][m], rows[2][i % h + (i // h + r) % p * h]


def _pair_block(space: SemipolarSpace, i, j) -> tuple[np.ndarray, np.ndarray, list]:
    """The masks and sizes of `PairSets` of the pairs (i[b], j[b]) of point
    codes, and the list of their rho(y_i, y_j): the rows rho(y_i, .) and
    rho(y_j, .) and the column rho(., y_j) compared over all of Y."""
    b = len(i)
    lines = space.rho_codes([*i, *j, *(space.size + y for y in j)])
    rho = [lines.item(k, y) for k, y in enumerate(j)]
    masks = np.empty((3, b, space.size), dtype=bool)
    np.equal(lines[b:].reshape(2, b, -1), lines[:b], out=masks[:2])
    np.equal(lines[:b], np.array(rho)[:, None], out=masks[2])
    return masks, masks.sum(axis=2), rho


def pair_sets(space: SemipolarSpace, i, j) -> PairSets:
    """`_pair_block`'s masks and sizes and, if nu = 1, the pairs' `_equations`."""
    masks, sizes, rho = _pair_block(space, i, j)
    if space.nu != 1:
        return PairSets(masks, sizes, None)
    rows = [_equations(space, a, b, r) for a, b, r in zip(i, j, rho)]
    return PairSets(masks, sizes, np.array(rows, dtype=np.int64).transpose(1, 0, 2))


def _pair_set(space: SemipolarSpace, p1: Point, p2: Point, kind: str):
    """One set of the pair p1, p2: its points and, on scalar spaces, its equation."""
    sets = pair_sets(space, [space.index(p1)], [space.index(p2)])
    k, eq = KINDS.index(kind), sets.equations
    desc = None if eq is None else HyperplaneDescriptor.from_row(space.p, eq[k, 0].tolist())
    return tuple(space.points[c] for c in np.flatnonzero(sets.masks[k, 0]).tolist()), desc


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
    rho(p1+t, p2+t) != rho(p1, p2), one p1 and a block of (p2, t) pairs,
    every t for each p2, at a time."""
    _, add, _, _, _ = group_tables(space.p, space.ydim)
    t = space.value_table
    size = space.size
    rows = np.arange(size)
    # ok[j, k] of (i, b): rho(p_i + p_k, p_j + p_k) = rho(p_i, p_j), j in the block
    fail = first_failure(
        ((i, b), t[add.rows(i)[None, :], add.rows(rows[b])] == t[i, b, None])
        for i in range(size) for b in blocks(size, size)
    )
    if fail is None:
        return None
    (i, b), (j, k) = fail
    return space.points[i], space.points[b.start + j], space.points[k]


def pair_report(space: SemipolarSpace, p1: Point, p2: Point) -> list[dict]:
    """Bisector/sphere reports for one point pair (scalar spaces)."""
    return pair_reports(space, [space.index(p1)], [space.index(p2)])


def pair_reports(space: SemipolarSpace, i: list[int], j: list[int]) -> list[dict]:
    """`pair_report` of each pair (i[b], j[b]) of point codes, in order, from
    `_pair_block`s, three masks over Y a pair, and the `_equations` of each pair."""
    if space.nu != 1:
        raise DimensionMismatch("this operation needs a scalar-valued semiform")
    out = []
    for block in blocks(len(i), 3 * space.size):
        first, second = i[block], j[block]
        _, sizes, rho = _pair_block(space, first, second)
        for a, b, r, counts in zip(first, second, rho, sizes.T.tolist()):
            for kind, size, (*u0, alpha, beta) in zip(KINDS, counts, _equations(space, a, b, r)):
                out.append({
                    "pair": [a, b],
                    "kind": kind,
                    "classification": _classification(u0, alpha, beta),
                    "equation": {"u0": u0, "alpha": alpha, "beta": beta},
                    "cardinality": size,
                })
    return out
