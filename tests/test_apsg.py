"""Adjacency, singular lines, triangles, line recovery, and pencils."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semipolar import linalg
from semipolar.apsg import (
    AffLine,
    Point,
    SemipolarSpace,
    canonical_direction,
    neighborhood_intersections,
)
from semipolar.errors import DegenerateForm
from semipolar.forms import AlternatingMap, Semiform
from semipolar.linalg import (
    Subspace,
    and_tables,
    enumerate_subspaces,
    enumerate_vectors,
    pack_rows,
    rank,
    unpack_rows,
)
from test_forms import random_semiforms


def P(v, u):
    return Point(tuple(v), tuple(u))


def singular(space, line):
    """The one-equation criterion `lines_singular` for one AffLine."""
    return bool(space.lines_singular([space.index(line.base)], [space.index(line.direction)])[0])


def all_affine_lines(space):
    """Every affine line of Y, once: oracle enumeration by (point, direction class)."""
    out = set()
    for pt in space.points:
        for d in space._y_classes[0].tolist():
            out.add(AffLine(pt, space.points[d], space.p))
    return out


# -- lines and canonical forms -------------------------------------------------


def test_affline_canonicalization_identifies_equal_point_sets(sp_m1_gf3):
    p = 3
    base = P((1,), (2, 0))
    d = P((2,), (1, 1))
    l1 = AffLine(base, d, p)
    l2 = AffLine(base.add(d, p), d.scale(2, p), p)
    assert l1 == l2
    assert set(l1.points()) == set(l2.points())
    assert len(l1.points()) == p
    flat = l1.direction.flat()
    pivot = next(i for i, c in enumerate(flat) if c)
    assert flat[pivot] == 1
    assert l1.base.flat()[pivot] == 0


def test_affline_distinct_lines_differ():
    l1 = AffLine(P((0,), (0, 0)), P((0,), (1, 0)), 3)
    l2 = AffLine(P((1,), (0, 0)), P((0,), (1, 0)), 3)
    assert l1 != l2


def test_canonical_direction_rejects_zero():
    with pytest.raises(ValueError):
        canonical_direction(P((0,), (0, 0)), 3)


# -- adjacency ------------------------------------------------------------------


def test_adjacency_reflexive_and_symmetric(sp_m1_gf3, sp_cross_gf3):
    for space in (sp_m1_gf3, sp_cross_gf3):
        adj = space.adjacency
        assert adj.diagonal().all()
        assert (adj == adj.T).all()


def test_adjacency_examples(sp_m1_gf3):
    assert sp_m1_gf3.adjacent(P((0,), (0, 0)), P((0,), (1, 0)))
    assert not sp_m1_gf3.adjacent(P((1,), (0, 0)), P((0,), (0, 0)))
    for pt in sp_m1_gf3.points:
        assert sp_m1_gf3.adjacent(pt, pt)


def test_adjacency_iff_semiform_vanishes(sp_m1_gf3):
    for x in sp_m1_gf3.points:
        for y in sp_m1_gf3.points:
            assert sp_m1_gf3.adjacent(x, y) == (not any(sp_m1_gf3.form.eval(x, y)))


def test_rho_codes_read_rows_and_columns_of_the_value_table(sp_cross_gf3):
    # the per-point factors are built on the first read, not with the space
    space = SemipolarSpace(sp_cross_gf3.form)
    assert "_row_factors" not in space.__dict__
    rows, cols = [5, 0, 700, 5], [3, 728, 41]
    table = sp_cross_gf3.value_table
    columns = [space.size + c for c in cols]
    assert (space.rho_codes(rows + columns) == np.vstack([table[rows], table[:, cols].T])).all()
    assert (space.rho_codes(rows) == table[rows]).all()
    assert (space.rho_codes(columns) == table[:, cols].T).all()
    assert (space.rho_codes(np.array(columns)) == table[:, cols].T).all()
    assert "_row_factors" in space.__dict__


def test_degenerate_map_rejected():
    zero = AlternatingMap(3, 2, 1, {})
    with pytest.raises(DegenerateForm):
        from semipolar.apsg import SemipolarSpace

        SemipolarSpace(Semiform(zero))


# -- singular lines ---------------------------------------------------------------


def test_vertical_direction_lines_never_singular(sp_m1_gf3):
    line = AffLine(P((0,), (0, 0)), P((1,), (0, 0)), 3)
    assert not singular(sp_m1_gf3, line)


def test_singular_criterion_worked_examples(sp_m1_gf3):
    assert singular(sp_m1_gf3, AffLine(P((0,), (0, 0)), P((0,), (1, 0)), 3))
    assert not singular(sp_m1_gf3, AffLine(P((0,), (0, 0)), P((1,), (0, 1)), 3))
    # base [0,(1,0)], direction [t,(0,1)]: singular exactly for t = -eta((1,0),(0,1)) = 2
    hits = [
        t
        for t in range(3)
        if singular(sp_m1_gf3, AffLine(P((0,), (1, 0)), P((t,), (0, 1)), 3))
    ]
    assert hits == [2]


def test_criterion_equals_pairwise_adjacency_on_all_lines(sp_m1_gf3, sp_m2_gf3):
    for line in all_affine_lines(sp_m1_gf3):
        assert singular(sp_m1_gf3, line) == sp_m1_gf3.line_singular_by_pairs(line)
    rng = np.random.default_rng(2)
    lines = sorted(all_affine_lines(sp_m2_gf3), key=lambda l: (l.base, l.direction))
    for k in rng.choice(len(lines), 400, replace=False):
        line = lines[k]
        assert singular(sp_m2_gf3, line) == sp_m2_gf3.line_singular_by_pairs(line)


def test_one_adjacent_pair_makes_the_whole_line_adjacent(sp_m1_gf3):
    # singular iff some pair of distinct points is adjacent iff all pairs are
    for line in all_affine_lines(sp_m1_gf3):
        pts = line.points()
        some = any(
            sp_m1_gf3.adjacent(a, b) for a, b in combinations(pts, 2)
        )
        assert some == sp_m1_gf3.line_singular_by_pairs(line)


def test_singular_lines_through_origin_m1(sp_m1_gf3):
    lines = sp_m1_gf3.singular_lines_through(sp_m1_gf3.origin)
    assert len(lines) == 4  # (3^2 - 1)/(3 - 1) direction classes of V
    for line in lines:
        assert singular(sp_m1_gf3, line)
        assert line.direction.v == (0,)  # through the origin: directions [0, u]


def test_singular_lines_through_origin_cross(sp_cross_gf3):
    lines = sp_cross_gf3.singular_lines_through(sp_cross_gf3.origin)
    assert len(lines) == 13
    for line in lines:
        assert line.direction.v == (0, 0, 0)


def test_singular_line_count_constant_across_points(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    for space, expect in ((sp_m1_gf3, 4), (sp_m2_gf3, 40), (sp_cross_gf3, 13)):
        counts = {len(space.singular_lines_through(pt)) for pt in space.points}
        assert counts == {expect}


def test_total_singular_line_counts(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    assert len(sp_m1_gf3.singular_lines) == 27 * 4 // 3
    assert len(sp_m2_gf3.singular_lines) == 243 * 40 // 3
    assert len(sp_cross_gf3.singular_lines) == 729 * 13 // 3


# -- excluded directions -----------------------------------------------------------


def excluded_codes(space) -> set:
    """The representative codes of the direction classes `_excluded_classes` flags."""
    return set(space._y_classes[0][space._excluded_classes].tolist())


def test_direction_exclusion_scalar_is_the_vertical_class(sp_m1_gf3, sp_m2_gf3):
    for space in (sp_m1_gf3, sp_m2_gf3):
        vertical = canonical_direction(
            Point((1,) + (0,) * (space.nu - 1), (0,) * space.n), space.p
        )
        assert excluded_codes(space) == {space.index(vertical)}


def test_direction_exclusion_cross_matches_orthogonality(sp_cross_gf3):
    # [v, 0] always excluded; [v, u] with u != 0 excluded iff u not perpendicular
    # to v for the dot product attached to the vector product.
    space = sp_cross_gf3
    expected = set()
    for code in space._y_classes[0].tolist():
        q = space.points[code]
        if not any(q.u) or sum(a * b for a, b in zip(q.u, q.v)) % 3 != 0:
            expected.add(code)
    assert excluded_codes(space) == expected


def test_vertical_directions_always_excluded(sp_cross_gf3, sp_m2_gf3):
    for space in (sp_cross_gf3, sp_m2_gf3):
        vertical = {c for c in space._y_classes[0].tolist() if not any(space.points[c].u)}
        assert vertical and vertical <= excluded_codes(space)


def test_direction_partition_against_singular_line_scan(sp_m1_gf3, sp_cross_gf3):
    # every direction class either is excluded or carries a singular line; never both
    for space in (sp_m1_gf3, sp_cross_gf3):
        carried = {
            space.index(canonical_direction(line.direction, space.p)) for line in space.singular_lines
        }
        excluded = excluded_codes(space)
        assert carried | excluded == set(space._y_classes[0].tolist())
        assert not carried & excluded


# -- one-equation solution sets ------------------------------------------------------


def test_zset_trivial_cases(sp_m1_gf3):
    z = sp_m1_gf3.zset((0, 0), (1,), 0)
    assert z.kind == "empty" and z.points == ()
    z = sp_m1_gf3.zset((0, 0), (0,), 0)
    assert z.kind == "all" and len(z.points) == 27


def test_zset_hyperplane_dimension_m2(sp_m2_gf3):
    z = sp_m2_gf3.zset((1, 0, 0, 0), (0,), 0)
    assert z.kind == "affine"
    assert z.dim == 4  # nu + dim ker(eta_u) = 1 + 3
    assert len(z.points) == 81


def test_zset_alpha_nonzero_dimension(sp_m1_gf3, sp_cross_gf3):
    z = sp_m1_gf3.zset((1, 0), (2,), 1)
    assert z.kind == "affine" and z.dim == sp_m1_gf3.n
    z = sp_cross_gf3.zset((1, 0, 0), (0, 1, 0), 2)
    assert z.kind == "affine" and z.dim == sp_cross_gf3.n


def test_zset_translation_invariance_of_the_class(sp_m1_gf3):
    # the translate of a solution set is a solution set with adjusted constants
    space = sp_m1_gf3
    z = space.zset((1, 0), (1,), 2)
    t = P((2,), (1, 1))
    translated = {q.add(t, 3) for q in z.points}
    u0 = (1, 0)
    eta_shift = space.form.eta.eval(u0, t.u)[0]
    new_v0 = (1 - eta_shift + 2 * t.v[0]) % 3
    z2 = space.zset(u0, (new_v0,), 2)
    assert translated == set(z2.points)


def closed_by_point_arithmetic(space, pts):
    """Definitional closure under x + a(y - x), in Point arithmetic."""
    p = space.p
    members = set(pts)
    return all(
        x.add(y.sub(x, p).scale(a, p), p) in members
        for x, y in combinations(list(pts), 2)
        for a in range(2, p)
    )


def affine_span(space, base, dirs):
    p = space.p
    pts = {base}
    for d in dirs:
        pts = {q.add(d.scale(a, p), p) for q in pts for a in range(p)}
    return pts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_affine_point_set_agrees_with_point_closure(sp_m1_gf3, sp_m2_gf3, data):
    space = data.draw(st.sampled_from([sp_m1_gf3, sp_m2_gf3]))
    pick = st.integers(0, space.size - 1)
    base = space.points[data.draw(pick)]
    dirs = [space.points[i] for i in data.draw(st.lists(pick, max_size=space.ydim))]
    pts = affine_span(space, base, dirs)
    assert closed_by_point_arithmetic(space, pts)
    assert space.is_affine_point_set(pts)
    if 1 < len(pts) < space.size:
        # one point swapped out: p^k - 1 shared points are too many for two
        # distinct affine k-subspaces, so the result is never affine
        out = sorted(pts)[data.draw(st.integers(0, len(pts) - 1))]
        outside = [q for q in space.points if q not in pts]
        into = outside[data.draw(st.integers(0, len(outside) - 1))]
        swapped = (pts - {out}) | {into}
        assert not closed_by_point_arithmetic(space, swapped)
        assert not space.is_affine_point_set(swapped)


def test_empty_point_set_is_affine(sp_m1_gf3):
    # closure under x + a(y - x) holds vacuously
    assert closed_by_point_arithmetic(sp_m1_gf3, [])
    assert sp_m1_gf3.is_affine_point_set([]) is True


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rho=random_semiforms(), data=st.data())
def test_affine_codes_agree_with_point_closure_on_random_forms(rho, data):
    # rows of four kinds: affine spans, spans with one member swapped for an
    # outside point, spans with a repeated point, and point sets whose size is
    # no power of p; all in one call, padded by repeating their first point
    space = SemipolarSpace(rho)
    p = space.p
    pick = st.integers(0, space.size - 1)
    rows = []
    for _ in range(3):
        base = space.points[data.draw(pick)]
        dirs = [space.points[i] for i in data.draw(st.lists(pick, max_size=3 if p == 3 else 2))]
        span = sorted(space.index(q) for q in affine_span(space, base, dirs))
        rows.append(span)
        if 1 < len(span) < space.size:
            outside = sorted(set(range(space.size)) - set(span))
            swapped = list(span)
            swapped[data.draw(st.integers(0, len(span) - 1))] = data.draw(st.sampled_from(outside))
            rows.append(swapped)
        rows.append(span + [span[data.draw(st.integers(0, len(span) - 1))]])
    size = data.draw(st.integers(2, min(30, space.size - 1)).filter(lambda s: s not in {p**k for k in range(4)}))
    rows.append(data.draw(st.lists(pick, min_size=size, max_size=size, unique=True)))
    width = max(map(len, rows))
    affine = space._is_affine_codes(np.array([r + r[:1] * (width - len(r)) for r in rows]))
    for row, got in zip(rows, affine.tolist()):
        assert got == closed_by_point_arithmetic(space, {space.points[c] for c in row}), row


def test_joinable_counts_and_membership(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    for space, expect in ((sp_m1_gf3, 9), (sp_m2_gf3, 81), (sp_cross_gf3, 27)):
        masks = space.joinable_masks(np.arange(space.size))
        assert expect == space.p**space.n
        assert (masks.sum(axis=1) == expect).all()
        assert masks.diagonal().all()
        # the joinable set of a point is its neighborhood
        assert (masks == space.adjacency).all()
        z = space.zset(space.origin.u, space.origin.v, -1)
        assert z.kind == "affine" and z.dim == space.n
        assert set(z.points) == {space.points[i] for i in np.flatnonzero(masks[0])}
    # off-origin spot checks
    for space in (sp_m1_gf3, sp_cross_gf3):
        pt = space.points[7]
        z = space.zset(pt.u, pt.v, -1)
        assert z.kind == "affine" and len(z.points) == space.p**space.n and pt in z.points


# -- triangles -------------------------------------------------------------------------


def test_triangle_censuses(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    assert sp_m1_gf3.triangle_census() == 0
    assert sp_cross_gf3.triangle_census() == 0
    assert sp_m2_gf3.triangle_census() > 0


def test_triangles_through_origin_match_census_shape(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    # the origin is point code 0
    assert len(sp_m1_gf3.triangle_codes(0)) == 0
    assert len(sp_cross_gf3.triangle_codes(0)) == 0
    assert len(sp_m2_gf3.triangle_codes(0))
    # census cross-check: total over all points is 3x the triangle count
    per_point = sum(len(sp_m2_gf3.triangle_codes(i)) for i in range(sp_m2_gf3.size))
    assert per_point == 3 * sp_m2_gf3.triangle_census()


def test_triangles_have_parametric_form(sp_m2_gf3):
    space = sp_m2_gf3
    for row in space.triangle_codes(0)[:50].tolist():
        p0, p1, p2 = map(space.point, row)
        u = p1.sub(p0, 3).u
        y = p2.sub(p0, 3).u
        assert not any(space.form.eta.eval(u, y))  # eta(u, y) = 0
        expect_v1 = tuple(
            (a + b) % 3 for a, b in zip(p0.v, space.form.eta.eval(u, p0.u))
        )
        assert p1.v == expect_v1
        assert Subspace([u, y], 3).dim == 2  # genuinely non-collinear


def test_no_triangles_iff_all_partial_kernels_are_lines(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    for space in (sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
        # the kernel of u' -> eta(u, u') is a line when eta_u has rank n - 1
        all_one = all(
            rank(space.form.eta.eta_u(u).matrix, space.p) == space.n - 1 for u in space.u_direction_classes
        )
        assert (space.triangle_census() == 0) == all_one


# -- the Gamma-space property ------------------------------------------------------------


def test_gamma_space_m2_and_cross(sp_m2_gf3, sp_cross_gf3):
    for space in (sp_m2_gf3, sp_cross_gf3):
        report = space.verify_gamma_space()
        assert report.passed


def test_gamma_space_corrupted_line_set_fails(sp_m2_gf3):
    space = sp_m2_gf3
    planes = space.singular_planes_through(space.origin)
    assert len(planes)
    plane = set(planes[0].tolist())
    inside = [
        l
        for l in space.singular_lines_through(space.origin)
        if {space.index(q) for q in l.points()} <= plane
    ]
    assert len(inside) == 4
    corrupted = set(space.singular_lines)
    corrupted.remove(inside[-1])
    # a fresh space that lacks the dropped line: no two of its points are
    # adjacent, so x + <a * direction> is not singular at any of its points x
    broken = SemipolarSpace(space.form)
    adj = broken.adjacency.copy()
    _, _, scale = space._tables
    rows = np.array([space.index(q) for q in inside[-1].points()])
    multiples = scale[1:, space.index(inside[-1].direction)][None, :]
    assert broken._singular_at(rows[:, None], multiples).all()
    adj[rows[:, None], rows[None, :]] = np.eye(len(rows), dtype=bool)
    broken.__dict__["adjacency"] = adj
    assert not broken._singular_at(rows[:, None], multiples).any()
    report = broken.verify_gamma_space()
    assert not report.check("plane-closure").passed
    assert report.check("singular-subspaces-affine").passed
    witness = report.check("plane-closure").witness
    assert witness is not None
    # the named candidate passes through the base point, lies in the plane the
    # two named lines span there, and is the line missing from the set
    pt, r1, r2, rc = witness
    by_repr = {repr(l): l for l in space.singular_lines}
    l1, l2, candidate = by_repr[r1], by_repr[r2], by_repr[rc]
    assert pt in l1.points() and pt in l2.points() and pt in candidate.points()
    span = {
        space.index(pt.add(l1.direction.scale(a, 3), 3).add(l2.direction.scale(b, 3), 3))
        for a in range(3)
        for b in range(3)
    }
    assert {space.index(q) for q in candidate.points()} <= span
    assert l1 in corrupted and l2 in corrupted
    assert candidate not in corrupted


def with_swapped_members(space, picks):
    """A fresh space on the same form whose cached maximal subspaces have, for
    each (array, row) of `picks`, the row's last member swapped for the lowest
    point outside it, the row kept sorted; and the corrupted rows."""
    arrays = [codes.copy() for codes in space.maximal_subspace_codes]
    rows = []
    for k, r in picks:
        row = arrays[k][r]
        row[-1] = min(set(range(space.size)) - set(row.tolist()))
        row.sort()
        rows.append(row.tolist())
    broken = SemipolarSpace(space.form)
    broken.__dict__["maximal_subspace_codes"] = tuple(arrays)
    return broken, rows


# (3, 3, 2): 729 maximal lines and 27 maximal planes; the witness is the
# first failing row across both widths, the order of maximal_singular_subspaces
MIXED_WIDTHS = AlternatingMap(3, 3, 2, {(0, 1): (1, 0), (0, 2): (0, 1), (1, 2): (0, 0)})


@pytest.mark.parametrize(
    "mixed, picks",
    [
        pytest.param(False, [(0, 540)], id="m2"),
        pytest.param(True, [(1, 13)], id="mixed-plane"),
        pytest.param(True, [(0, 728), (1, 0)], id="mixed-line-and-plane"),
    ],
)
def test_singular_subspaces_affine_fails_on_a_swapped_member(sp_m2_gf3, mixed, picks):
    space = SemipolarSpace(Semiform(MIXED_WIDTHS)) if mixed else sp_m2_gf3
    assert len(space.maximal_subspace_codes) == (2 if mixed else 1)
    broken, rows = with_swapped_members(space, picks)
    check = broken.verify_gamma_space().check("singular-subspaces-affine")
    assert not check.passed
    assert check.witness == (min(rows),)
    assert not broken.is_affine_point_set([broken.points[c] for c in check.witness[0]])


def test_parallel_unclosed(sp_m1_gf3, sp_m2_gf3):
    for space in (sp_m1_gf3, sp_m2_gf3):
        assert space.verify_parallel_unclosed().passed


def test_parallel_witness_example_m1(sp_m1_gf3):
    # vertical translations preserve singularity (they are automorphisms);
    # shifting the u-part by some y with eta(y, u_dir) != 0 breaks it.
    space = sp_m1_gf3
    for line in space.singular_lines_through(space.origin):
        vertical = AffLine(line.base.add(P((1,), (0, 0)), 3), line.direction, 3)
        assert singular(space, vertical)
        u = line.direction.u
        y = next(
            y
            for y in [(1, 0), (0, 1)]
            if space.form.eta.eval(y, u) != (0,)
        )
        shifted = AffLine(line.base.add(P((0,), y), 3), line.direction, 3)
        assert not singular(space, shifted)


# -- kernel separation and line recovery ---------------------------------------------------


def test_condition_star_holds_on_shipped_instances(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    for space in (sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
        assert space.separating_kernels


def test_recover_line_exhaustive_m1(sp_m1_gf3):
    space = sp_m1_gf3
    for i in range(space.size):
        for j in np.flatnonzero(space.adjacency[i]):
            if j <= i:
                continue
            p1, p2 = space.points[i], space.points[int(j)]
            got = set(space.neighborhood_intersection(p1, p2))
            expect = set(AffLine(p1, p2.sub(p1, 3), 3).points())
            assert got == expect


def test_recover_line_examples_m2(sp_m2_gf3):
    space = sp_m2_gf3
    q = P((0,), (1, 0, 0, 0))
    got = set(space.neighborhood_intersection(space.origin, q))
    assert got == set(AffLine(space.origin, q, 3).points())
    assert space.origin in got and q in got and len(got) == 3


def test_neighborhood_intersection_scalar_case_dichotomy(sp_m1_gf3):
    # scalar case, exhaustively: the double-neighborhood intersection of a
    # distinct non-vertical pair is the affine line through it; a vertical
    # pair has no common neighbors, so the intersection degenerates
    space = sp_m1_gf3
    for i, p1 in enumerate(space.points):
        for p2 in space.points[i + 1 :]:
            if p1.u == p2.u:
                j = space.index(p2)
                assert not (space.adjacency[i] & space.adjacency[j]).any()
            else:
                got = set(space.neighborhood_intersection(p1, p2))
                assert got == set(AffLine(p1, p2.sub(p1, 3), 3).points())


def big_int_neighborhood_intersection(adj, i, j):
    """Reference: neighbor sets as Python integers, one AND per common neighbor."""
    bits = [sum(1 << int(k) for k in np.flatnonzero(row)) for row in adj]
    acc = (1 << len(adj)) - 1
    common = bits[i] & bits[j]
    for k in range(len(adj)):
        if common >> k & 1:
            acc &= bits[k]
    return {k for k in range(len(adj)) if acc >> k & 1}


def kernel_intersections(adj, i, j):
    """neighborhood_intersections on a boolean adjacency, unpacked to rows."""
    words = pack_rows(adj)
    return unpack_rows(neighborhood_intersections(words, and_tables(words), len(adj), i, j), len(adj))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_neighborhood_kernel_matches_big_int_reference(data):
    # sizes on both sides of the 64-bit word boundaries, sparse to dense
    size = data.draw(st.integers(1, 140))
    density = data.draw(st.sampled_from([0.05, 0.3, 0.7, 0.95]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((size, size)) < density)
    adj = upper | upper.T
    i = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40)))
    j = rng.integers(0, size, len(i))
    got = kernel_intersections(adj, i, j)
    for k in range(len(i)):
        assert set(np.flatnonzero(got[k]).tolist()) == big_int_neighborhood_intersection(
            adj, i[k], j[k]
        )


@pytest.mark.parametrize("chunk", [1, 64, 300, 2000])
def test_packed_neighborhood_kernel_blocks_match_the_reference(monkeypatch, chunk):
    # 130 points, 3 words and 24 bytes a row: blocks of one pair, of 2, of 12,
    # and all 50 pairs in one block
    rng = np.random.default_rng(chunk)
    upper = np.triu(rng.random((130, 130)) < 0.6)
    adj = upper | upper.T
    i, j = rng.integers(0, 130, (2, 50))
    monkeypatch.setattr(linalg, "CHUNK", chunk)
    got = kernel_intersections(adj, i, j)
    for k in range(len(i)):
        assert set(np.flatnonzero(got[k]).tolist()) == big_int_neighborhood_intersection(
            adj, i[k], j[k]
        )


def test_packed_neighborhood_kernel_without_common_neighbors_gives_every_point():
    # points 0 and 1 are adjacent only to each other and 2 to nothing, so the
    # pairs (0, 1), (0, 2) and (2, 2) have no common neighbor; (0, 0) has one
    adj = np.zeros((70, 70), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    got = kernel_intersections(adj, [0, 0, 2, 0], [1, 2, 2, 0])
    assert got[:3].all()
    assert np.flatnonzero(got[3]).tolist() == [0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_and_tables_entries_are_the_and_of_their_set_bits(data):
    # every entry at sizes 1..140, across the byte and word padding of a row:
    # bit k of byte b is point 8b + 7 - k, and a padding point ANDs nothing away
    size = data.draw(st.integers(1, 140))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    words = pack_rows(rng.random((size, size)) < data.draw(st.sampled_from([0.2, 0.8])))
    tables = and_tables(words)
    width = words.shape[1]
    assert tables.shape == (8 * width, 256, width)
    for b in range(8 * width):
        for v in range(256):
            expect = np.full(width, ~np.uint64(0))
            for k in range(8):
                if v >> k & 1 and 8 * b + 7 - k < size:
                    expect &= words[8 * b + 7 - k]
            assert (tables[b, v] == expect).all(), (size, b, v)


def test_neighborhood_intersection_gives_affine_line_m2_sample(sp_m2_gf3):
    space = sp_m2_gf3
    rng = np.random.default_rng(11)
    hits = 0
    while hits < 60:
        i, j = rng.integers(0, space.size, 2)
        if i == j:
            continue
        p1, p2 = space.points[int(i)], space.points[int(j)]
        if p1.u == p2.u:
            continue
        got = set(space.neighborhood_intersection(p1, p2))
        assert got == set(AffLine(p1, p2.sub(p1, 3), 3).points())
        hits += 1


# -- pencils and maximal singular subspaces ---------------------------------------------------


def test_pencil_structure_m2_origin(sp_m2_gf3):
    pencil = sp_m2_gf3.pencil_structure(sp_m2_gf3.origin)
    assert len(pencil.lines) == 40
    assert len(pencil.planes) == 40
    assert pencil.isomorphic
    for plane in pencil.planes:
        assert len(plane) == 4  # lines through a point inside a singular plane


def test_pencil_structure_cross_origin(sp_cross_gf3):
    pencil = sp_cross_gf3.pencil_structure(sp_cross_gf3.origin)
    assert len(pencil.lines) == 13
    assert pencil.planes == []
    assert pencil.isomorphic


def test_pencil_structure_off_origin(sp_m2_gf3, sp_cross_gf3):
    for space in (sp_m2_gf3, sp_cross_gf3):
        pencil = space.pencil_structure(space.points[5])
        assert pencil.isomorphic


@pytest.mark.parametrize("name", ["m2", "cross"])
def test_null_system_matches_isotropic_subspace_sweep(name, sp_m2_gf3, sp_cross_gf3):
    space = {"m2": sp_m2_gf3, "cross": sp_cross_gf3}[name]
    p, n = space.p, space.n
    classes = {u: c for c, u in enumerate(space.u_direction_classes)}

    def class_of(u):
        u = np.asarray(u) % p
        first = int(u[np.flatnonzero(u)[0]])
        return classes[tuple(int(x) for x in (u * pow(first, p - 2, p)) % p)]

    expected = set()
    for s in enumerate_subspaces(2, n, p):
        b = s.matrix()
        if not any(space.form.eta.eval(b[0], b[1])):
            members = {class_of(v) for v in enumerate_vectors(p, 2) @ b % p if v.any()}
            expected.add(tuple(sorted(members)))
    points, lines = space.null_system
    assert points == tuple((c,) for c in range(len(classes)))
    assert space.null_system is space.null_system  # computed once per space
    assert set(lines) == expected and len(lines) == len(expected)
    assert all(len(line) == p + 1 for line in lines)


def test_pencil_with_a_broken_plane_is_not_isomorphic(sp_m2_gf3):
    space = SemipolarSpace(sp_m2_gf3.form)
    plane = space.singular_planes_through(space.origin)[0]
    a, b = plane[1], plane[-1]
    adj = space.adjacency.copy()
    adj[a, b] = adj[b, a] = False
    space.__dict__["adjacency"] = adj
    pencil = space.pencil_structure(space.origin)
    assert len(pencil.planes) == 39
    assert not pencil.isomorphic


def test_maximal_singular_subspaces_are_lines_when_no_triangles(sp_m1_gf3, sp_cross_gf3):
    for space in (sp_m1_gf3, sp_cross_gf3):
        maximal = space.maximal_singular_subspaces()
        line_sets = {
            frozenset(space.index(q) for q in l.points()) for l in space.singular_lines
        }
        assert set(maximal) == line_sets


def brute_force_maximal(space):
    """Maximal singular subspaces from every coset of every linear subspace of Y."""
    coords = enumerate_vectors(space.p, space.ydim)
    weights = space.p ** np.arange(space.ydim - 1, -1, -1)
    layers = []  # layers[k]: the singular subspaces of dimension k + 1, as code rows
    for k in range(1, space.ydim + 1):
        found = set()
        for w in enumerate_subspaces(k, space.ydim, space.p):
            span = enumerate_vectors(space.p, k) @ w.matrix()
            cosets = ((coords[:, None, :] + span[None, :, :]) % space.p) @ weights
            cosets = np.unique(np.sort(cosets, axis=1), axis=0)
            ok = space.adjacency[cosets[:, :, None], cosets[:, None, :]].all(axis=(1, 2))
            found.update(tuple(c) for c in cosets[ok].tolist())
        if not found:
            break
        layers.append(np.array(sorted(found)))
    maximal = []
    for k, layer in enumerate(layers):
        above = layers[k + 1] if k + 1 < len(layers) else np.zeros((0, 1), dtype=np.int64)
        member = np.zeros((len(above), space.size), dtype=bool)
        member[np.arange(len(above))[:, None], above] = True
        contained = member[:, layer].all(axis=2).any(axis=0)
        maximal += [frozenset(s) for s in layer[~contained].tolist()]
    return sorted(maximal, key=sorted)


def test_maximal_singular_subspaces_m2_match_brute_force(sp_m2_gf3):
    assert sp_m2_gf3.maximal_singular_subspaces() == brute_force_maximal(sp_m2_gf3)


@st.composite
def random_spaces(draw, shape):
    """The space of a random nondegenerate alternating map of shape (p, n, nu)."""
    p, n, nu = shape
    coeff = st.integers(0, p - 1)
    upper = {
        (i, j): tuple(draw(coeff) for _ in range(nu)) for i, j in combinations(range(n), 2)
    }
    eta = AlternatingMap(p, n, nu, upper)
    assume(eta.is_nondegenerate())
    return SemipolarSpace(Semiform(eta))


# (3, 3, 2) has maximal singular lines and planes side by side, which no
# built-in instance has; its brute force takes about 3 s an example.
@pytest.mark.parametrize(
    "shape, examples", [((3, 2, 1), 10), ((5, 2, 1), 10), ((3, 2, 2), 10), ((3, 3, 2), 3)]
)
def test_maximal_singular_subspaces_match_brute_force_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        maximal = space.maximal_singular_subspaces()
        assert maximal == brute_force_maximal(space)
        # the batched affine check covers subspaces of every dimension at once
        assert space.verify_gamma_space().check("singular-subspaces-affine").passed

    check()


# -- batched kernels against their definitions on random forms ---------------------------------

KERNEL_SHAPES = [((3, 2, 1), 6), ((5, 2, 1), 6), ((3, 2, 2), 6), ((3, 3, 2), 3)]


def kernels_separate_by_definition(space):
    """Condition (*) pair by pair, over every y0 of V: some y0 has eta(u', y0) = 0
    and eta(u'', y0) != 0."""
    eta = space.form.eta
    vecs = [tuple(v) for v in enumerate_vectors(space.p, space.n).tolist()]
    zero = {u: [not any(eta.eval(u, y)) for y in vecs] for u in space.u_direction_classes}
    return all(
        any(z1 and not z2 for z1, z2 in zip(zero[u1], zero[u2]))
        for u1 in zero
        for u2 in zero
        if u1 != u2
    )


def planes_by_definition(space, pt):
    """Spans of two singular lines through pt whose point pairs are all adjacent,
    as sorted point codes, in lexicographic order."""
    p, out = space.p, set()
    for l1, l2 in combinations(space.singular_lines_through(pt), 2):
        members = {
            space.index(pt.add(l1.direction.scale(a, p), p).add(l2.direction.scale(b, p), p))
            for a in range(p)
            for b in range(p)
        }
        if all(space.adjacency[x, y] for x, y in combinations(members, 2)):
            out.add(tuple(sorted(members)))
    return sorted(out)


def pencil_planes_by_definition(space, pt):
    """Each singular plane through pt as the lines of the pencil at pt inside
    it: line k lies in a plane iff every point of the line does."""
    lines = [{space.index(q) for q in l.points()} for l in space.singular_lines_through(pt)]
    return [
        tuple(k for k, line in enumerate(lines) if line <= set(plane))
        for plane in planes_by_definition(space, pt)
    ]


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_triangle_census_matches_triangles_through_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        per_point = sum(len(space.triangle_codes(i)) for i in range(space.size))
        assert per_point == 3 * space.triangle_census()

    check()


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_separating_kernels_matches_the_pair_condition_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        assert space.separating_kernels == kernels_separate_by_definition(space)

    check()


def test_separating_kernels_fails_where_the_pair_condition_fails():
    # (*) holds on every nondegenerate scalar form and for n = 2; search the
    # (3, 3, 2) forms for one with two u-classes sharing a partial kernel
    rng = np.random.default_rng(0)
    for _ in range(200):
        upper = {(i, j): tuple(rng.integers(0, 3, 2).tolist()) for i, j in combinations(range(3), 2)}
        eta = AlternatingMap(3, 3, 2, upper)
        if not eta.is_nondegenerate():
            continue
        space = SemipolarSpace(Semiform(eta))
        if not kernels_separate_by_definition(space):
            break
    else:
        pytest.fail("no nondegenerate (3, 3, 2) form without kernel separation in 200 draws")
    assert not space.separating_kernels


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_singular_planes_through_match_pairwise_adjacency_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        for k in (0, space.size // 2, space.size - 1):
            pt = space.points[k]
            planes = space.singular_planes_through(pt)
            assert planes.shape[1:] == (space.p**2,)
            assert [tuple(row) for row in planes.tolist()] == planes_by_definition(space, pt)

    check()


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_pencil_planes_match_line_containment_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        for k in (0, space.size // 2, space.size - 1):
            pt = space.points[k]
            assert space.pencil_structure(pt).planes == pencil_planes_by_definition(space, pt)

    check()


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_joinable_masks_match_zset_mask_rows_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        masks = space.joinable_masks(np.arange(space.size))
        for k, pt in enumerate(space.points):
            assert (masks[k] == space.zset_mask(pt.u, pt.v, -1)).all()

    check()


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_singular_line_table_matches_pairwise_adjacency_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        _, _, scale = space._tables
        # every (point, nonzero direction) pair lies on exactly one affine line
        expected = []
        for b, d in zip(*space.affine_lines()):
            line = space.decode_line(b, d)
            singular = space.line_singular_by_pairs(line)
            rows = space.line_codes(b, d)
            assert (space._singular_at(rows[:, None], scale[1:, d][None, :]) == singular).all()
            if singular:
                expected.append((space.index(line.base), space.index(line.direction)))
        bases, dirs = space.singular_line_codes
        assert list(zip(bases.tolist(), dirs.tolist())) == sorted(expected)

    check()


def test_one_corrupted_adjacency_pair_changes_census_and_pencil(sp_m2_gf3):
    space = SemipolarSpace(sp_m2_gf3.form)
    plane = space.singular_planes_through(space.origin)[0]
    a, b = plane[1], plane[-1]
    common = int((space.adjacency[a] & space.adjacency[b]).sum()) - 2
    adj = space.adjacency.copy()
    adj[a, b] = adj[b, a] = False
    space.__dict__["adjacency"] = adj
    # each triangle on the pair {a, b} is gone, one per other common neighbor
    assert space.triangle_census() == sp_m2_gf3.triangle_census() - common
    assert len(space.singular_planes_through(space.origin)) == 39


def test_maximal_singular_subspaces_m2_are_planes(sp_m2_gf3):
    space = sp_m2_gf3
    maximal = space.maximal_singular_subspaces()
    assert len(maximal) == 1080  # 243 * 40 / 9
    assert all(len(s) == 9 for s in maximal)
    for s in maximal[:20]:
        pts = [space.points[i] for i in s]
        assert space.is_affine_point_set(pts)
        assert all(space.adjacency[a, b] for a, b in combinations(s, 2))


# -- exports ------------------------------------------------------------------------------------


def test_adjacency_dot_and_csv(sp_m1_gf3):
    dot = sp_m1_gf3.adjacency_dot()
    assert dot.startswith("// point index")
    assert "graph adjacency {" in dot
    assert dot.count(";") >= 27
    csv = sp_m1_gf3.adjacency_csv()
    header, columns, *rows = csv.strip().split("\n")
    assert header.startswith("#") and "v varying slowest" in header
    assert columns == "p_index,q_index"
    # edge count: 27 points, 8 non-self neighbors each
    assert len(rows) == 27 * 8 // 2
    first = rows[0].split(",")
    assert len(first) == 2 and all(part.isdigit() for part in first)
