"""Equidistance, bisectors, spheres, midpoints, polar correspondence."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semipolar import linalg
from semipolar.apsg import Point, SemipolarSpace, canonical_direction
from semipolar.errors import DimensionMismatch
from semipolar.forms import AlternatingMap, Semiform, group_tables
from semipolar.metric import (
    KINDS,
    HyperplaneDescriptor,
    bisector_m,
    _classification,
    _pair_set,
    bisector_t,
    pair_report,
    pair_reports,
    pair_sets,
    translation_noninvariance_witness,
)
from semipolar.linalg import CHUNK, encode_vecs, enumerate_vectors, normalize_rows
from semipolar.suites import SuiteConfig, _bisector_counts, _group_counts, _same_partitions, run_suite
from test_forms import CORRUPTIONS, KERNEL_SHAPES, corrupted, first_hit, random_semiforms


def P(v, u):
    return Point(tuple(v), tuple(u))


# -- equidistance ----------------------------------------------------------------


def test_equidistance_reflexive_and_reversal(sp_m1_gf3):
    space = sp_m1_gf3
    pts = space.points[:9]
    rho = {(p1, p2): space.form.eval(p1, p2) for p1 in pts for p2 in pts}
    for p1, p2, p3, p4 in product(pts, repeat=4):
        fwd = rho[p1, p2] == rho[p3, p4]
        rev = rho[p2, p1] == rho[p4, p3]
        assert fwd == rev


def test_equidistance_reversal_law_exhaustive_via_table(sp_m1_gf3):
    t = sp_m1_gf3.value_table
    neg = (3 - t) % 3  # the codes are unsigned: 3 - t cannot wrap
    assert ((t[:, :, None, None] == t[None, None, :, :]) == (
        neg[:, :, None, None] == neg[None, None, :, :]
    )).all()


def test_equidistance_is_an_equivalence_on_pairs(sp_m1_gf3):
    # grouping pairs by their rho value partitions them; equality of values is
    # trivially reflexive/symmetric/transitive, asserted through the groups
    t = sp_m1_gf3.value_table
    groups = {}
    for i in range(27):
        for j in range(27):
            groups.setdefault(int(t[i, j]), set()).add((i, j))
    assert sum(len(g) for g in groups.values()) == 27 * 27
    for val, g in groups.items():
        i, j = next(iter(g))
        assert all(int(t[a, b]) == val for a, b in g)


def test_degenerate_segment_congruence_is_adjacency(sp_m1_gf3):
    space = sp_m1_gf3
    rho = space.form.eval
    for p1 in space.points:
        for p2 in space.points:
            lhs = rho(p1, p2) == rho(p1, p1)
            assert lhs == space.adjacent(p1, p2)
            swap = rho(p1, p2) == rho(p2, p1)
            assert swap == space.adjacent(p1, p2)


# -- midpoints --------------------------------------------------------------------


def midpoint(p1, p2, p):
    return p1.add(p2, p).scale(pow(2, p - 2, p), p)


def test_midpoint_equidistance_property_exhaustive(sp_m1_gf3):
    space = sp_m1_gf3
    for p1 in space.points:
        for p2 in space.points:
            mid = midpoint(p1, p2, 3)
            assert space.form.eval(p1, mid) == space.form.eval(mid, p2)
            m_pts, _ = bisector_m(space, p1, p2)
            assert mid in set(m_pts)


# -- bisectors and spheres -----------------------------------------------------------


def test_bisector_t_trivial_and_empty_cases(sp_m1_gf3):
    space = sp_m1_gf3
    p0 = P((0,), (1, 2))
    pts, desc = bisector_t(space, p0, p0)
    assert len(pts) == 27 and _classification(*desc[1:]) == "all"
    pts, desc = bisector_t(space, P((0,), (0, 0)), P((1,), (0, 0)))
    assert pts == () and _classification(*desc[1:]) == "empty"


def test_bisector_t_hyperplane_case(sp_m1_gf3):
    pts, desc = bisector_t(sp_m1_gf3, P((0,), (1, 0)), P((0,), (0, 0)))
    assert len(pts) == 9
    assert _classification(*desc[1:]) == "hyperplane"


def test_bisector_t_empty_exactly_for_vertical_pairs(sp_m1_gf3):
    space = sp_m1_gf3
    for p1 in space.points:
        for p2 in space.points:
            if p1 == p2:
                continue
            pts, _ = bisector_t(space, p1, p2)
            vertical = p1.u == p2.u
            assert (len(pts) == 0) == vertical
            if not vertical:
                assert len(pts) == 9


def test_bisector_m_always_hyperplane(sp_m1_gf3):
    space = sp_m1_gf3
    for p1 in space.points:
        for p2 in space.points:
            pts, desc = bisector_m(space, p1, p2)
            assert len(pts) == 9
            assert _classification(*desc[1:]) == "hyperplane"


def test_bisector_m_of_equal_pair_is_the_neighborhood(sp_m1_gf3):
    space = sp_m1_gf3
    for p0 in space.points:
        pts, _ = bisector_m(space, p0, p0)
        assert set(pts) == {q for q in space.points if space.adjacent(p0, q)}


def test_sphere_cardinalities_and_membership(sp_m1_gf3):
    space = sp_m1_gf3
    for p1 in space.points:
        for p2 in space.points:
            pts, desc = _pair_set(space, p1, p2, "sphere")
            assert len(pts) == 9
            assert p2 in set(pts)
            assert _classification(*desc[1:]) == "hyperplane"
    # contains p1 iff p1 ~ p2 (rho(p1,p1) = 0)
    p1, p2 = P((0,), (1, 0)), P((1,), (0, 1))
    pts, _ = _pair_set(space, p1, p2, "sphere")
    assert (p1 in set(pts)) == space.adjacent(p1, p2)


def descriptor_members(space, desc):
    """The points of a descriptor's equation eta(u0, u) = beta + alpha * a."""
    mask = space.zset_mask(desc.u0, (desc.beta,), desc.alpha)
    return {space.points[k] for k in np.flatnonzero(mask).tolist()}


def test_descriptor_sets_match_definitional_sets(sp_m1_gf3):
    space = sp_m1_gf3
    rng = np.random.default_rng(3)
    for _ in range(60):
        i, j = rng.integers(0, 27, 2)
        p1, p2 = space.points[int(i)], space.points[int(j)]
        for kind in KINDS:
            pts, desc = _pair_set(space, p1, p2, kind)
            assert descriptor_members(space, desc) == set(pts)


def test_descriptor_normalization_identifies_scaled_equations():
    d1, d2, empty, whole = (
        HyperplaneDescriptor.from_row(3, row)
        for row in normalize_rows([[2, 0, 2, 1], [1, 0, 1, 2], [0, 0, 0, 2], [0, 0, 0, 0]], 3).tolist()
    )
    assert d1 == d2
    assert _classification(*empty[1:]) == "empty"
    assert _classification(*whole[1:]) == "all"


def test_bisectors_and_spheres_on_m2(sp_m2_gf3):
    space = sp_m2_gf3
    rng = np.random.default_rng(9)
    for _ in range(25):
        i, j = rng.integers(0, space.size, 2)
        p1, p2 = space.points[int(i)], space.points[int(j)]
        t_pts, _ = bisector_t(space, p1, p2)
        m_pts, _ = bisector_m(space, p1, p2)
        s_pts, _ = _pair_set(space, p1, p2, "sphere")
        assert len(m_pts) == 81 and len(s_pts) == 81
        if p1 == p2:
            assert len(t_pts) == space.size
        elif p1.u == p2.u:
            assert t_pts == ()
        else:
            assert len(t_pts) == 81


# -- equal-bisector criteria -----------------------------------------------------------


def test_translated_pairs_share_t_bisectors(sp_m1_gf3):
    space = sp_m1_gf3
    q = P((1,), (2, 0))
    for p1 in space.points[:6]:
        for p2 in space.points[:6]:
            assert bisector_t(space, p1, p1.add(q, 3))[0] == bisector_t(space, p2, p2.add(q, 3))[0]


def test_doubled_difference_shares_t_bisector(sp_m1_gf3):
    space = sp_m1_gf3
    p1, d = P((0,), (1, 0)), P((1,), (0, 1))
    pair1 = (p1, p1.add(d, 3))
    pair2 = (p1, p1.add(d.scale(2, 3), 3))
    assert bisector_t(space, *pair1)[0] == bisector_t(space, *pair2)[0]


def test_unrelated_pairs_generically_unequal_t(sp_m1_gf3):
    space = sp_m1_gf3
    pair1 = (P((0,), (0, 0)), P((0,), (1, 0)))
    pair2 = (P((0,), (0, 0)), P((0,), (0, 1)))
    assert bisector_t(space, *pair1)[0] != bisector_t(space, *pair2)[0]


def test_central_reflection_pairs_share_m_bisectors(sp_m1_gf3):
    space = sp_m1_gf3
    q = P((2,), (1, 1))
    two_q = q.scale(2, 3)
    for p1 in space.points[:6]:
        for p2 in space.points[:6]:
            pair1 = (p1, two_q.sub(p1, 3))
            pair2 = (p2, two_q.sub(p2, 3))
            assert bisector_m(space, *pair1)[0] == bisector_m(space, *pair2)[0]


def test_m_bisectors_unequal_when_sums_differ(sp_m1_gf3):
    space = sp_m1_gf3
    pair1 = (P((0,), (0, 0)), P((0,), (1, 0)))
    pair2 = (P((0,), (0, 0)), P((1,), (1, 0)))
    assert bisector_m(space, *pair1)[0] != bisector_m(space, *pair2)[0]


def test_bisector_criteria_never_disagree_sampled(sp_m1_gf3):
    # equal t-bisectors exactly for proportional differences, equal m-bisectors
    # exactly for equal sums, on a sample of pair-pairs
    space = sp_m1_gf3
    rng = np.random.default_rng(21)
    for _ in range(300):
        p1, p2, q1, q2 = (space.points[int(x)] for x in rng.integers(0, 27, 4))
        d1, d2 = p2.sub(p1, 3), q2.sub(q1, 3)
        proportional = d2 in (d1, d1.scale(2, 3))
        assert (bisector_t(space, p1, p2)[0] == bisector_t(space, q1, q2)[0]) == proportional
        same_sum = p1.add(p2, 3) == q1.add(q2, 3)
        assert (bisector_m(space, p1, p2)[0] == bisector_m(space, q1, q2)[0]) == same_sum


def test_translations_stay_inside_t_symmetry_class(sp_m1_gf3):
    # if bisector_t(p1, p2) = H then every translated pair (r, r + (p2 - p1))
    # has the same t-bisector H
    space = sp_m1_gf3
    p1, p2 = P((0,), (1, 0)), P((1,), (2, 1))
    h_pts, _ = bisector_t(space, p1, p2)
    d = p2.sub(p1, 3)
    for r in space.points:
        pts, _ = bisector_t(space, r, r.add(d, 3))
        assert set(pts) == set(h_pts)


# -- the polar correspondence ---------------------------------------------------------


def polar_correspondence_holds(space, p1, p2) -> bool:
    """The m-bisector of p1, p2 is the neighborhood of their midpoint, and the
    t-bisector is {[a, u] : eta(u2 - u1, u) = v2 - v1}: the points [a, u] whose
    (1, a, u) is orthogonal to the direction (0, v2 - v1, u2 - u1) of the line
    p1 p2 under xi((a1,b1,w1),(a2,b2,w2)) = a1 b2 - a2 b1 + eta(w1, w2)."""
    p = space.p
    mid = midpoint(p1, p2, p)
    du = tuple((a - b) % p for a, b in zip(p2.u, p1.u))
    dv = (p2.v[0] - p1.v[0]) % p
    neighbors = tuple(q for q in space.points if space.adjacent(mid, q))
    ortho = tuple(q for q in space.points if space.form.eta.eval(du, q.u) == (dv,))
    return bisector_m(space, p1, p2)[0] == neighbors and bisector_t(space, p1, p2)[0] == ortho


def test_polar_correspondence_exhaustive_m1(sp_m1_gf3):
    space = sp_m1_gf3
    for i, p1 in enumerate(space.points):
        for p2 in space.points[i + 1 :]:
            assert polar_correspondence_holds(space, p1, p2)


def test_polar_correspondence_vertical_pair_consistency(sp_m1_gf3):
    # vertical pair: t-bisector empty, and no point is xi-orthogonal to theta
    space = sp_m1_gf3
    p1, p2 = P((0,), (0, 0)), P((1,), (0, 0))
    pts, _ = bisector_t(space, p1, p2)
    assert pts == ()
    assert polar_correspondence_holds(space, p1, p2)


def test_polar_correspondence_equal_pair_reduces_to_neighborhood(sp_m1_gf3):
    space = sp_m1_gf3
    p0 = P((1,), (2, 1))
    assert polar_correspondence_holds(space, p0, p0)


# -- translation non-invariance ---------------------------------------------------------


def test_translation_noninvariance_witness(sp_m1_gf3):
    space = sp_m1_gf3

    def first_in_loop_order():
        for p1, p2, t in product(space.points, repeat=3):
            if space.form.eval(p1.add(t, 3), p2.add(t, 3)) != space.form.eval(p1, p2):
                return p1, p2, t
        return None

    got = translation_noninvariance_witness(space)
    assert got is not None
    assert got == first_in_loop_order()
    p1, p2, t = got
    assert space.form.eval(p1.add(t, 3), p2.add(t, 3)) != space.form.eval(p1, p2)


def metric_laws_by_definition(space, t):
    """On a scalar table t: the codes (p1, p2, t) of the first tuple in loop
    order with rho(p1 + t, p2 + t) != rho(p1, p2), or None, and whether the
    midpoint congruence and the polar correspondence hold, with sums and
    midpoints taken on coordinates."""
    p = space.p
    pts = enumerate_vectors(p, space.ydim)
    idx = np.arange(len(pts))
    total = encode_vecs((pts[:, None] + pts[None, :]) % p, p)
    mid = encode_vecs(pow(2, p - 2, p) * (pts[:, None] + pts[None, :]) % p, p)
    translation = first_hit(((i,), t[total[i][None, :], total] != t[i][:, None]) for i in idx)
    midpoint = bool((t[idx[:, None], mid] == t[mid, idx[None, :]]).all())
    # the m-bisector of (y_i, y_j) is the neighbourhood of their midpoint, and
    # t[i, x] = t[j, x] exactly when w[i, x] = w[j, x], w[j, x] = eta(u_j, u_x) - v_j
    m_bisectors = all(((t[i][None, :] == t.T) == (t[mid[i]] == 0)).all() for i in idx)
    w = (np.einsum("ia,ab,jb->ij", pts[:, 1:], space.form.eta.gram[:, :, 0], pts[:, 1:]) - pts[:, :1]) % p
    t_bisectors = all(((t[:, x, None] == t[None, :, x]) == (w[:, x, None] == w[None, :, x])).all() for x in idx)
    return translation, midpoint, m_bisectors and t_bisectors


def assert_metric_laws_are_their_definitions(form, table):
    space = SemipolarSpace(form)
    space.__dict__["value_table"] = table
    translation, midpoint, polar = metric_laws_by_definition(space, table)
    got = translation_noninvariance_witness(space)
    assert (None if got is None else tuple(space.index(q) for q in got)) == translation
    checks = {c["name"]: c for suite in ("metric", "bisectors") for c in run_suite(suite, space, SuiteConfig())["checks"]}
    assert (checks["midpoint-congruence"]["passed"], checks["polar-correspondence"]["passed"]) == (midpoint, polar)


@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
@pytest.mark.parametrize("family", CORRUPTIONS)
@pytest.mark.parametrize("instance", ["sp_m1_gf3", "sp_m2_gf3"])
def test_metric_laws_match_their_definitions_on_corrupted_tables(request, monkeypatch, instance, family, chunk):
    if chunk:
        monkeypatch.setattr(linalg, "CHUNK", chunk)
    form = request.getfixturevalue(instance).form
    assert_metric_laws_are_their_definitions(form, corrupted(form.value_table(), form.p, family, np.random.default_rng(28)))


@pytest.mark.parametrize("shape, examples", [(shape, examples) for shape, examples in KERNEL_SHAPES if shape[2] == 1])
def test_metric_laws_match_their_definitions_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(rho=random_semiforms([shape]), family=st.sampled_from(CORRUPTIONS), seed=st.integers(0, 2**32 - 1))
    def check(rho, family, seed):
        assert_metric_laws_are_their_definitions(rho, corrupted(rho.value_table(), rho.p, family, np.random.default_rng(seed)))

    check()


# -- reports ------------------------------------------------------------------------------


def test_pair_report_shape(sp_m1_gf3):
    space = sp_m1_gf3
    entries = pair_report(space, space.points[1], space.points[5])
    assert [e["kind"] for e in entries] == ["t", "m", "sphere"]
    for e in entries:
        assert set(e) == {"pair", "kind", "classification", "equation", "cardinality"}
        assert set(e["equation"]) == {"u0", "alpha", "beta"}
        if e["classification"] == "hyperplane":
            assert e["cardinality"] == 9


def test_metric_classifications_require_scalar_space(sp_cross_gf3):
    space = sp_cross_gf3
    pts, desc = bisector_t(space, space.points[0], space.points[1])
    assert desc is None  # defining set still computed
    with pytest.raises(DimensionMismatch):
        pair_report(space, space.points[0], space.points[1])


# -- random forms ---------------------------------------------------------------------------

# (p, n, nu) of the random spaces: scalar over GF(3) and GF(5), and
# vector-valued over GF(3), where the sets exist without equations
RANDOM_SHAPES = [(3, 2, 1), (3, 4, 1), (5, 2, 1), (3, 2, 2)]


@st.composite
def random_spaces(draw, shapes=RANDOM_SHAPES):
    """The space of a random nondegenerate alternating map of a drawn shape."""
    p, n, nu = draw(st.sampled_from(shapes))
    coeff = st.integers(0, p - 1)
    upper = {
        (i, j): tuple(draw(coeff) for _ in range(nu)) for i, j in combinations(range(n), 2)
    }
    eta = AlternatingMap(p, n, nu, upper)
    assume(eta.is_nondegenerate())
    return SemipolarSpace(Semiform(eta))


def definitional_sets(space, p1, p2) -> dict:
    rho = space.form.eval
    return {
        "t": {q for q in space.points if rho(p1, q) == rho(p2, q)},
        "m": {q for q in space.points if rho(p1, q) == rho(q, p2)},
        "sphere": {q for q in space.points if rho(p1, q) == rho(p1, p2)},
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(space=random_spaces(), data=st.data())
def test_bisectors_spheres_and_reports_match_definitions(space, data):
    pick = st.integers(0, space.size - 1)
    i, j = data.draw(pick), data.draw(pick)
    p1, p2 = space.points[i], space.points[j]
    want = definitional_sets(space, p1, p2)
    reference = []
    found = {
        "t": bisector_t(space, p1, p2),
        "m": bisector_m(space, p1, p2),
        "sphere": _pair_set(space, p1, p2, "sphere"),
    }
    for kind in KINDS:
        pts, desc = found[kind]
        assert pts == tuple(q for q in space.points if q in want[kind])
        if space.nu != 1:
            assert desc is None
            continue
        assert descriptor_members(space, desc) == want[kind]
        size = len(want[kind])
        reference.append({
            "pair": [i, j],
            "kind": kind,
            "classification": {0: "empty", space.size: "all"}.get(size, "hyperplane"),
            "equation": {"u0": list(desc.u0), "alpha": desc.alpha, "beta": desc.beta},
            "cardinality": size,
        })
    if space.nu == 1:
        assert pair_report(space, p1, p2) == reference


def definitional_rows(space, x: int, y: int) -> dict:
    """The equation rows (u0..., alpha, beta) of the sets of the pair of point
    codes x, y of a scalar space, before normalization."""
    ((a1,), u1), ((a2,), u2) = space.points[x], space.points[y]
    return {
        "t": [*(c - d for c, d in zip(u1, u2)), 0, a1 - a2],
        "m": [*(c + d for c, d in zip(u1, u2)), -2, a1 + a2],
        "sphere": [*u1, -1, int(space.value_table[x, y]) + a1],
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(space=random_spaces(), data=st.data())
def test_pair_sets_match_their_definitions_in_blocks(space, data):
    pick = st.integers(0, space.size - 1)
    pairs = data.draw(st.lists(st.tuples(pick, pick), min_size=2, max_size=7))
    i, j = (np.array(codes) for codes in zip(*pairs))
    sets = pair_sets(space, i, j)
    t, p = space.value_table, space.p
    assert sets.masks.shape == (3, len(pairs), space.size)
    for b, (x, y) in enumerate(pairs):
        assert (sets.masks[0, b] == (t[x] == t[y])).all()
        assert (sets.masks[1, b] == (t[x] == t[:, y])).all()
        assert (sets.masks[2, b] == (t[x] == t[x, y])).all()
    assert (sets.sizes == sets.masks.sum(axis=2)).all()
    if space.nu != 1:
        assert sets.equations is None
        return
    sizes = {"hyperplane": space.size // p, "all": space.size, "empty": 0}
    for b, (x, y) in enumerate(pairs):
        rows = definitional_rows(space, x, y)
        want = {k: HyperplaneDescriptor.from_row(p, normalize_rows(r, p).tolist()) for k, r in rows.items()}
        for k, kind in enumerate(KINDS):
            desc = HyperplaneDescriptor.from_row(p, sets.equations[k, b].tolist())
            assert desc == want[kind]
            assert (space.zset_mask(desc.u0, (desc.beta,), desc.alpha) == sets.masks[k, b]).all()
            assert sets.sizes[k, b] == sizes[_classification(*desc[1:])]


def assert_report_blocks_match_definitions(space, seed: int):
    """`pair_reports` over more pairs than one block holds equals the one-pair
    `pair_report`s, and each entry its definition on the value table."""
    step = CHUNK // (3 * space.size)
    rng = np.random.default_rng(seed)
    count = step + int(rng.integers(1, step + 1))
    i, j = (rng.integers(0, space.size, count).tolist() for _ in range(2))
    got = pair_reports(space, i, j)
    assert got == [e for x, y in zip(i, j) for e in pair_report(space, space.points[x], space.points[y])]
    t, p = space.value_table, space.p
    for b, (x, y) in enumerate(zip(i, j)):
        sizes = [(t[x] == t[y]).sum(), (t[x] == t[:, y]).sum(), (t[x] == t[x, y]).sum()]
        for kind, size, entry in zip(KINDS, sizes, got[3 * b : 3 * b + 3]):
            *u0, alpha, beta = normalize_rows(definitional_rows(space, x, y)[kind], p).tolist()
            assert entry == {
                "pair": [x, y],
                "kind": kind,
                "classification": {0: "empty", space.size: "all"}.get(size, "hyperplane"),
                "equation": {"u0": u0, "alpha": alpha, "beta": beta},
                "cardinality": size,
            }


def test_pair_reports_cross_block_boundaries_on_m1_gf5(sp_m1_gf5):
    assert_report_blocks_match_definitions(sp_m1_gf5, 5)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(space=random_spaces([shape for shape in RANDOM_SHAPES if shape[2] == 1]), seed=st.integers(0, 2**32 - 1))
def test_pair_reports_cross_block_boundaries_on_random_forms(space, seed):
    assert_report_blocks_match_definitions(space, seed)


# -- the bisectors suite --------------------------------------------------------------


def definitional_bisector_counts(t: np.ndarray):
    """|{x : t[i, x] = t[j, x]}| and |{x : t[i, x] = t[x, j]}| by one boolean per triple."""
    return (t[:, None, :] == t[None, :, :]).sum(axis=2), (t[:, None, :] == t.T[None, :, :]).sum(axis=2)


def assert_counts_match_definitions(t: np.ndarray, p: int):
    eq, m = _bisector_counts(t, p)
    eq_def, m_def = definitional_bisector_counts(t)
    assert eq.shape == eq_def.shape and (eq == eq_def).all()
    assert m.shape == m_def.shape and (m == m_def).all()


def test_bisector_counts_match_triple_counts(sp_m1_gf3, sp_m1_gf5):
    for space in (sp_m1_gf3, sp_m1_gf5):
        assert_counts_match_definitions(np.asarray(space.value_table), space.p)
    # any table of values, not only a semiform's
    assert_counts_match_definitions(np.random.default_rng(5).integers(0, 5, (40, 40)), 5)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(space=random_spaces([s for s in RANDOM_SHAPES if s[2] == 1]))
def test_bisector_counts_match_triple_counts_on_random_forms(space):
    assert_counts_match_definitions(np.asarray(space.value_table), space.p)
    report = run_suite("bisectors", space, SuiteConfig())
    assert report["passed"], report["checks"]


@pytest.mark.parametrize("entry", [(5, 14), (0, 0), (26, 3), (124, 60)])
def test_bisectors_suite_detects_a_corrupted_table(sp_m1_gf3, sp_m1_gf5, monkeypatch, entry):
    space = sp_m1_gf3 if max(entry) < sp_m1_gf3.size else sp_m1_gf5
    table = np.asarray(space.value_table).copy()
    table[entry] = (table[entry] + 1) % space.p
    monkeypatch.setattr(Semiform, "value_table", lambda self, budget=None: table)
    report = run_suite("bisectors", SemipolarSpace(space.form), SuiteConfig())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert {"t-cardinalities", "m-cardinalities", "polar-correspondence"} <= failed


@pytest.mark.parametrize("entry", [(5, 14), (26, 3)])
def test_metric_and_bisector_checks_detect_a_corrupted_entry(sp_m1_gf3, monkeypatch, entry):
    # each named check is the only place its law is checked over all pairs;
    # a diagonal entry would leave midpoint-congruence intact (p = (p + p) / 2)
    table = np.asarray(sp_m1_gf3.value_table).copy()
    table[entry] = (table[entry] + 1) % 3
    monkeypatch.setattr(Semiform, "value_table", lambda self, budget=None: table)
    space = SemipolarSpace(sp_m1_gf3.form)
    failed = {
        c["name"]
        for suite in ("metric", "bisectors")
        for c in run_suite(suite, space, SuiteConfig())["checks"]
        if not c["passed"]
    }
    assert {
        "reversal-law", "swap-congruence", "midpoint-congruence", "sphere-cardinality",
        "t-bisector-criterion", "m-bisector-criterion",
    } <= failed


@pytest.mark.parametrize("entry", [None, (5, 14)])
@pytest.mark.parametrize("suite", ["metric", "bisectors"])
def test_metric_suites_give_a_code_width_table_and_its_int32_copy_one_report(sp_m2_gf3, monkeypatch, suite, entry):
    # m=2 over GF(3) has a uint8 value table, on which -t would wrap around
    table = np.asarray(sp_m2_gf3.value_table).copy()
    if entry is not None:
        table[entry] = (table[entry] + 1) % 3
    reports = []
    for t in (table, table.astype(np.int32)):
        monkeypatch.setattr(Semiform, "value_table", lambda self, budget=None: t)
        reports.append(run_suite(suite, SemipolarSpace(sp_m2_gf3.form), SuiteConfig()))
    assert table.dtype == np.uint8
    assert reports[0] == reports[1]
    assert reports[0]["passed"] == (entry is None)


def row_partitions_agree(t, w) -> bool:
    """The definition: for every row i, t[i, x] == t[j, x] exactly when
    w[i, x] == w[j, x], for every row j and column x."""
    return all(((t[i] == t) == (w[i] == w)).all() for i in range(len(t)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    p=st.sampled_from([2, 3, 5]),
    relabel=st.booleans(),
)
def test_same_partitions_matches_the_row_definition_on_random_tables(seed, shape, p, relabel):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, p, shape).astype(np.uint8)
    if relabel:
        # w relabels each column of t, so the partitions agree; then one entry moves
        labels = np.array([rng.permutation(p) for _ in range(shape[1])])
        w = labels[np.arange(shape[1])[None, :], t]
        assert _same_partitions(t, w.astype(np.uint8), p)
        w[rng.integers(shape[0]), rng.integers(shape[1])] = rng.integers(p)
    else:
        w = rng.integers(0, p, shape)
    assert _same_partitions(t, w.astype(np.uint8), p) == row_partitions_agree(t, w)


def test_polar_partitions_fail_on_one_changed_entry_of_w(sp_m2_gf3):
    # w[j, x] = eta(u_j, u_x) - v_j as suite_bisectors builds it; every column
    # of m=2 holds each value in 81 rows, so one moved entry splits a part
    space = sp_m2_gf3
    _, _, vsub, _, _ = group_tables(3, 1)
    eta = space.form.eta.pair_table(space._coords[:, 1:])
    w = vsub[eta, (np.arange(space.size) // 81)[:, None]]
    assert _same_partitions(space.value_table, w, 3)
    for entry in [(0, 0), (17, 200), (242, 5)]:
        bad = w.copy()
        bad[entry] = (bad[entry] + 1) % 3
        assert not _same_partitions(space.value_table, bad, 3)


def test_polar_correspondence_detects_a_corrupted_eta_table(sp_m1_gf3, monkeypatch):
    # eta enters only the t-part of the polar check, so the value table, and
    # with it both cardinality checks, stays intact
    space = SemipolarSpace(sp_m1_gf3.form)
    space.value_table
    pair_table = AlternatingMap.pair_table

    def corrupted(self, us):
        out = pair_table(self, us).copy()
        out[4, 7] = (out[4, 7] + 1) % self.p
        return out

    monkeypatch.setattr(AlternatingMap, "pair_table", corrupted)
    report = run_suite("bisectors", space, SuiteConfig())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"polar-correspondence"}


# -- the equal-bisector criteria ----------------------------------------------------------


def dict_loop_criterion(masks: np.ndarray, ids: np.ndarray) -> tuple[bool, int]:
    """Reference: group the ordered pairs by their mask in a dict of id sets.
    The criterion holds when every group has one id and there are as many
    groups as ids; also returns the number of groups."""
    groups, seen = {}, set()
    for i in range(ids.shape[0]):
        for j in range(ids.shape[1]):
            groups.setdefault(masks[i, j].tobytes(), set()).add(int(ids[i, j]))
            seen.add(int(ids[i, j]))
    return all(len(g) == 1 for g in groups.values()) and len(groups) == len(seen), len(groups)


def assert_group_counts_match_the_dict_loop(masks, ids) -> bool:
    counts = _group_counts(masks, ids)
    ok, groups = dict_loop_criterion(masks, ids)
    assert (len(set(counts)) == 1, counts[0]) == (ok, groups)
    return ok


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 9),
    p=st.sampled_from([2, 3, 5]),
    ids_from_masks=st.booleans(),
)
def test_group_counts_match_the_dict_loop_on_random_tables(seed, size, p, ids_from_masks):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, p, (size, size))
    for masks in (t[:, None, :] == t[None, :, :], t[:, None, :] == t.T[None, :, :]):
        if ids_from_masks:
            # a one-to-one naming: the code of the mask's first pair, -1 for pair (0, 0)'s
            first = {}
            for i, j in np.ndindex(size, size):
                first.setdefault(masks[i, j].tobytes(), i * size + j - 1)
            ids = np.array([[first[masks[i, j].tobytes()] for j in range(size)] for i in range(size)])
            assert assert_group_counts_match_the_dict_loop(masks, ids)
        else:
            assert_group_counts_match_the_dict_loop(masks, rng.integers(-1, size, (size, size)))


def pair_ids(space):
    """Per ordered pair: the code of the direction class of y_j - y_i (-1 on the
    diagonal) and the code of y_i + y_j, by Point arithmetic."""
    p, pts = space.p, space.points
    direction = np.array([
        [space.index(canonical_direction(b.sub(a, p), p)) if a != b else -1 for b in pts] for a in pts
    ])
    total = np.array([[space.index(a.add(b, p)) for b in pts] for a in pts])
    return direction, total


@pytest.mark.parametrize("entry", [None, (5, 14)])
def test_bisector_criteria_match_the_dict_loop(sp_m1_gf3, monkeypatch, entry):
    table = np.asarray(sp_m1_gf3.value_table).copy()
    if entry is not None:
        table[entry] = (table[entry] + 1) % 3
        monkeypatch.setattr(Semiform, "value_table", lambda self, budget=None: table)
    space = SemipolarSpace(sp_m1_gf3.form)
    report = run_suite("bisectors", space, SuiteConfig())
    verdicts = {c["name"]: c["passed"] for c in report["checks"]}
    direction, total = pair_ids(space)
    t_ok, t_groups = dict_loop_criterion(table[:, None, :] == table[None, :, :], direction)
    m_ok, m_groups = dict_loop_criterion(table[:, None, :] == table.T[None, :, :], total)
    assert (verdicts["t-bisector-criterion"], report["data"]["pair_groups_t"]) == (t_ok, t_groups)
    assert (verdicts["m-bisector-criterion"], report["data"]["pair_groups_m"]) == (m_ok, m_groups)
    assert t_ok == m_ok == (entry is None)

