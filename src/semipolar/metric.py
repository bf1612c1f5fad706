"""Equidistance, bisectors, spheres, midpoints, and hyperplane symmetries.

Segment congruence on a scalar space: p1p2 = p3p4 when rho(p1,p2) = rho(p3,p4).
It is not symmetric in the pair order, so there are two bisector families, and
it is not translation invariant.  All hyperplane classifications below are for
scalar-valued semiforms (nu = 1); the defining point sets make sense for any nu.

Every defining set is quantified over all of Y and read as a mask over point
codes from rows and columns of encoded rho (`SemipolarSpace.rho_codes`); points
are decoded only for the values returned.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .apsg import Point, SemipolarSpace
from .autos import PointMap
from .errors import DimensionMismatch
from .forms import group_tables
from .linalg import LinearMap


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


def _scalar(space: SemipolarSpace) -> None:
    if space.nu != 1:
        raise DimensionMismatch("this operation needs a scalar-valued semiform")


def _decode(space: SemipolarSpace, mask: np.ndarray) -> tuple[Point, ...]:
    """The points of a membership mask over point codes, in code order."""
    return tuple(space.points[k] for k in np.flatnonzero(mask).tolist())


def equidistant(space: SemipolarSpace, p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Segment congruence: rho(p1, p2) = rho(p3, p4)."""
    codes = space.rho_codes([space.index(p1), space.index(p3)], [space.index(p2), space.index(p4)])
    return bool(codes[0, 0] == codes[1, 1])


def midpoint(space: SemipolarSpace, p1: Point, p2: Point) -> Point:
    """(p1 + p2) / 2; needs char != 2 which the field guarantees."""
    _, add, _, _, scale = group_tables(space.p, space.ydim)
    half = pow(2, space.p - 2, space.p)
    return space.points[scale[half, add[space.index(p1), space.index(p2)]]]


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


def proportional_difference(space: SemipolarSpace, pair1, pair2) -> bool:
    """Some nonzero gamma scales p2 - p1 onto q2 - q1."""
    _, _, sub, _, scale = group_tables(space.p, space.ydim)
    (p1, p2), (q1, q2) = pair1, pair2
    d1 = sub[space.index(p2), space.index(p1)]
    d2 = sub[space.index(q2), space.index(q1)]
    return bool((scale[1:, d1] == d2).any())


def bisectors_equal_t(space: SemipolarSpace, pair1, pair2) -> bool:
    """Set equality of the two t-bisectors, cross-checked against proportionality."""
    s1, _ = _pair_sets(space, *pair1)["t"]
    s2, _ = _pair_sets(space, *pair2)["t"]
    equal = bool((s1 == s2).all())
    criterion = proportional_difference(space, pair1, pair2)
    if equal != criterion:
        raise AssertionError(
            f"t-bisector criterion mismatch on {pair1} vs {pair2}: sets {equal}, criterion {criterion}"
        )
    return equal


def bisectors_equal_m(space: SemipolarSpace, pair1, pair2) -> bool:
    """Set equality of the two m-bisectors, cross-checked against sum equality."""
    _, add, _, _, _ = group_tables(space.p, space.ydim)
    s1, _ = _pair_sets(space, *pair1)["m"]
    s2, _ = _pair_sets(space, *pair2)["m"]
    equal = bool((s1 == s2).all())
    (p1, p2), (q1, q2) = pair1, pair2
    criterion = bool(add[space.index(p1), space.index(p2)] == add[space.index(q1), space.index(q2)])
    if equal != criterion:
        raise AssertionError(
            f"m-bisector criterion mismatch on {pair1} vs {pair2}: sets {equal}, criterion {criterion}"
        )
    return equal


def symmetry_m(space: SemipolarSpace, desc: HyperplaneDescriptor) -> Optional[PointMap]:
    """The central symmetry swapping every pair whose m-bisector is the given
    hyperplane, or None when no pair realizes it.

    All realizing pairs share the same sum, hence the same centre (p1 + p2)/2.
    The pairs (p1, p2), p1 at or before p2, are swept one p1 row at a time.
    """
    _scalar(space)
    _, add, _, _, _ = group_tables(space.p, space.ydim)
    target = space.zset_mask(desc.u0, (desc.beta,), desc.alpha)
    t = space.value_table
    sums = set()
    for i in range(space.size):
        # m-bisector of (p_i, p_j) for every j >= i: rho(p_i, q) = rho(q, p_j)
        realized = ((t[i][None, :] == t.T[i:]) == target[None, :]).all(axis=1)
        sums.update(add[i, i + np.flatnonzero(realized)].tolist())
    if not sums:
        return None
    if len(sums) != 1:
        raise AssertionError(f"realizing pairs disagree on the centre: {sorted(sums)}")
    mat = (-np.eye(space.ydim, dtype=np.int64)) % space.p
    return PointMap(space, LinearMap(mat, space.p), space.points[sums.pop()].flat())


def embedding_form_value(space: SemipolarSpace, x1, x2):
    """xi((a1,b1,w1),(a2,b2,w2)) = a1 b2 - a2 b1 + eta(w1, w2) on F + F + V.

    The second argument may also hold k vectors at once (b2 of shape (k,) and
    w2 of shape (k, dim V)); the value is then an array of k values.
    """
    _scalar(space)
    a1, b1, w1 = x1
    a2, b2, w2 = x2
    e = space.form.eta.eta_u(w1).apply_rows(np.atleast_2d(w2))[:, 0]
    out = (a1 * np.asarray(b2) - a2 * b1 + e.reshape(np.shape(b2))) % space.p
    return out if out.ndim else int(out)


def polar_correspondence_check(space: SemipolarSpace, p1: Point, p2: Point) -> bool:
    """Both bisectors against the surrounding null polarity.

    The m-bisector is the adjacency neighborhood of the midpoint; the t-bisector
    is cut out by orthogonality to the direction of the line p1 p2 under the
    extended symplectic form on F + F + V.
    """
    _scalar(space)
    p = space.p
    sets = _pair_sets(space, p1, p2)
    mid = space.index(midpoint(space, p1, p2))
    neighbors = space.rho_codes([mid])[0] == 0
    if not (sets["m"][0] == neighbors).all():
        return False
    theta = (0, (p2.v[0] - p1.v[0]) % p, tuple((a - b) % p for a, b in zip(p2.u, p1.u)))
    coords = space._coords
    ortho = embedding_form_value(space, theta, (1, coords[:, 0], coords[:, 1:])) == 0
    return bool((sets["t"][0] == ortho).all())


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
    _scalar(space)
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
