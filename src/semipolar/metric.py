"""Bisectors and spheres of a point pair, and translation non-invariance.

Segment congruence on a scalar space: p1p2 = p3p4 when rho(p1,p2) = rho(p3,p4).
It is not symmetric in the pair order, so there are two bisector families, and
it is not translation invariant.  All hyperplane classifications below are for
scalar-valued semiforms (nu = 1); the defining point sets make sense for any nu.
The congruence laws themselves are checked over all pairs by the `metric` and
`bisectors` suites.

Every defining set is quantified over all of Y and read as a mask over point
codes from rows and columns of encoded rho (`SemipolarSpace.rho_codes`); points
are decoded only for the values returned.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .apsg import Point, SemipolarSpace
from .errors import DimensionMismatch
from .forms import group_tables


class HyperplaneDescriptor(NamedTuple):
    """Normalized coefficients of {[a, u] : eta(u0, u) = beta + alpha * a}."""

    p: int
    u0: tuple[int, ...]
    alpha: int
    beta: int

    @classmethod
    def make(cls, p: int, u0, alpha: int, beta: int) -> "HyperplaneDescriptor":
        u0 = tuple(int(c) % p for c in u0)
        alpha %= p
        beta %= p
        coeffs = u0 + (alpha, beta)
        pivot = next((c for c in coeffs if c), None)
        if pivot not in (None, 1):
            s = pow(pivot, p - 2, p)
            u0 = tuple((s * c) % p for c in u0)
            alpha = (s * alpha) % p
            beta = (s * beta) % p
        return cls(p, u0, alpha, beta)

    def classification(self) -> str:
        if any(self.u0) or self.alpha:
            return "hyperplane"
        return "all" if self.beta == 0 else "empty"

    def members(self, space: SemipolarSpace) -> tuple[Point, ...]:
        return _decode(space, space.zset_mask(self.u0, (self.beta,), self.alpha))

    def to_jsonable(self) -> dict:
        return {
            "u0": list(self.u0),
            "alpha": self.alpha,
            "beta": self.beta,
            "classification": self.classification(),
        }


def _decode(space: SemipolarSpace, mask: np.ndarray) -> tuple[Point, ...]:
    """The points of a membership mask over point codes, in code order."""
    return tuple(space.points[k] for k in np.flatnonzero(mask).tolist())


def _pair_sets(space: SemipolarSpace, p1: Point, p2: Point) -> dict:
    """kind -> (membership mask, equation or None) for the t-bisector, the
    m-bisector and the sphere of p1, p2.

    The masks compare the rows rho(p1, .) and rho(p2, .) and the column
    rho(., p2) over all of Y; the equations exist on scalar spaces only.
    """
    i, j = space.index(p1), space.index(p2)
    rows = space.rho_codes([i, j])
    col = space.rho_codes(cols=[j])[:, 0]
    masks = {"t": rows[0] == rows[1], "m": rows[0] == col, "sphere": rows[0] == rows[0, j]}
    if space.nu != 1:
        return {kind: (mask, None) for kind, mask in masks.items()}
    p, (a1,), (a2,) = space.p, p1.v, p2.v
    descs = {
        "t": HyperplaneDescriptor.make(p, [x - y for x, y in zip(p1.u, p2.u)], 0, a1 - a2),
        "m": HyperplaneDescriptor.make(p, [x + y for x, y in zip(p1.u, p2.u)], -2, a1 + a2),
        # eta(u1, u) = rho(p1, p2) + a1 - a
        "sphere": HyperplaneDescriptor.make(p, p1.u, -1, int(rows[0, j]) + a1),
    }
    return {kind: (mask, descs[kind]) for kind, mask in masks.items()}


def bisector_t(space: SemipolarSpace, p1: Point, p2: Point):
    """{p : rho(p1, p) = rho(p2, p)} with its equation for scalar spaces.

    Empty exactly when p1 != p2 differ only vertically; the whole space when
    p1 = p2; a hyperplane otherwise.
    """
    mask, desc = _pair_sets(space, p1, p2)["t"]
    return _decode(space, mask), desc


def bisector_m(space: SemipolarSpace, p1: Point, p2: Point):
    """{p : rho(p1, p) = rho(p, p2)}: always a hyperplane on scalar spaces."""
    mask, desc = _pair_sets(space, p1, p2)["m"]
    return _decode(space, mask), desc


def sphere(space: SemipolarSpace, p1: Point, p2: Point):
    """{p : rho(p1, p) = rho(p1, p2)}: a hyperplane on scalar spaces."""
    mask, desc = _pair_sets(space, p1, p2)["sphere"]
    return _decode(space, mask), desc


def translation_noninvariance_witness(space: SemipolarSpace):
    """The first (p1, p2, t) in nested-loop order over the points with
    rho(p1+t, p2+t) != rho(p1, p2), one p1 row of the value table at a time."""
    _, add, _, _, _ = group_tables(space.p, space.ydim)
    t = space.value_table
    for i in range(space.size):
        # bad[j, k]: rho(p_i + p_k, p_j + p_k) != rho(p_i, p_j)
        bad = t[add[i][None, :], add] != t[i][:, None]
        if bad.any():
            j, k = divmod(int(np.argmax(bad)), space.size)
            return space.points[i], space.points[j], space.points[k]
    return None


def pair_report(space: SemipolarSpace, p1: Point, p2: Point) -> list[dict]:
    """Bisector/sphere reports for one point pair (scalar spaces)."""
    if space.nu != 1:
        raise DimensionMismatch("this operation needs a scalar-valued semiform")
    i, j = space.index(p1), space.index(p2)
    return [
        {
            "pair": [i, j],
            "kind": kind,
            "classification": desc.classification(),
            "equation": {"u0": list(desc.u0), "alpha": desc.alpha, "beta": desc.beta},
            "cardinality": int(mask.sum()),
        }
        for kind, (mask, desc) in _pair_sets(space, p1, p2).items()
    ]
