"""Alternating maps, semiforms, the two axiom systems, and normalization."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semipolar import linalg
from semipolar.errors import DegenerateAtlas, DimensionMismatch
from semipolar.forms import (
    AffineAtlas,
    _additive_columns,
    AlternatingMap,
    Semiform,
    check_atlas_axioms,
    check_semiform_axioms,
    cross_product_map,
    exterior_square,
    group_tables,
    normalize,
    scaled_conjugate,
    standard_symplectic,
    verify_identities,
    wedge_coordinates,
)
from semipolar.linalg import LinearMap, code_dtype, enumerate_vectors, encode_vecs, vec_index


# -- independent oracles -----------------------------------------------------


def symplectic_sum_formula(x, y, p):
    """Direct evaluation of sum_i (x_{2i-1} y_{2i} - x_{2i} y_{2i-1})."""
    total = 0
    for i in range(len(x) // 2):
        total += x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
    return total % p


def minor(a, b, i, j, p):
    return (a[i] * b[j] - a[j] * b[i]) % p


def cross_formula(a, b, p, signs=(1, -1, 1)):
    """Signed 2x2 minors of the two rows, the textbook vector-product formula."""
    return (
        (signs[0] * minor(a, b, 1, 2, p)) % p,
        (signs[1] * minor(a, b, 0, 2, p)) % p,
        (signs[2] * minor(a, b, 0, 1, p)) % p,
    )


def wedge_formula(a, b, p):
    """All 2x2 minors in lexicographic pair order."""
    n = len(a)
    return tuple(minor(a, b, i, j, p) for i, j in combinations(range(n), 2))


def line_complex_formula(x, y, p):
    """det[[x2,x3],[y2,y3]] - (x1 - y1): the scalar instance on 3 coordinates."""
    return ((x[1] * y[2] - x[2] * y[1]) - (x[0] - y[0])) % p


# -- constructors -------------------------------------------------------------


def test_standard_symplectic_matches_sum_formula():
    for m, p in [(1, 3), (1, 5), (2, 3)]:
        eta = standard_symplectic(m, p)
        assert eta.n == 2 * m and eta.nu == 1
        for x in enumerate_vectors(p, 2 * m):
            for y in enumerate_vectors(p, 2 * m):
                assert eta.eval(x, y) == (symplectic_sum_formula(x, y, p),)


def test_standard_symplectic_worked_values():
    eta = standard_symplectic(1, 5)
    assert eta.eval((1, 0), (0, 1)) == (1,)
    eta2 = standard_symplectic(2, 3)
    assert eta2.eval((1, 0, 0, 0), (0, 0, 1, 0)) == (symplectic_sum_formula((1, 0, 0, 0), (0, 0, 1, 0), 3),)
    assert eta2.eval((1, 0, 0, 0), (0, 0, 1, 0)) == (0,)


def test_alternating_by_construction():
    for eta in [standard_symplectic(1, 3), cross_product_map(3), standard_symplectic(2, 3)]:
        vs = enumerate_vectors(eta.p, eta.n)
        for u in vs:
            assert not any(eta.eval(u, u))
        for u1 in vs:
            for u2 in vs:
                lhs = eta.eval(u1, u2)
                rhs = eta.eval(u2, u1)
                assert all((a + b) % eta.p == 0 for a, b in zip(lhs, rhs))


def test_bilinearity_exhaustive_small():
    eta = standard_symplectic(1, 3)
    vs = list(enumerate_vectors(3, 2))
    for a in range(3):
        for u1 in vs:
            for u2 in vs:
                for u3 in vs:
                    lhs = eta.eval((a * u1 + u3) % 3, u2)
                    rhs = tuple(
                        (a * x + y) % 3 for x, y in zip(eta.eval(u1, u2), eta.eval(u3, u2))
                    )
                    assert lhs == rhs


def test_exterior_square_identity_map_values():
    g = LinearMap.identity(1, 3)  # C(2,2) = 1 wedge coordinate
    eta = exterior_square(g, 2)
    assert eta.eval((1, 0), (0, 1)) == (1,)
    gz = LinearMap(np.zeros((1, 1), dtype=np.int64), 3)
    etaz = exterior_square(gz, 2)
    for x in enumerate_vectors(3, 2):
        for y in enumerate_vectors(3, 2):
            assert etaz.eval(x, y) == (0,)


def test_exterior_square_n3_matches_minor_formula():
    g = LinearMap.identity(3, 3)
    eta = exterior_square(g, 3)
    assert wedge_coordinates(3) == [(0, 1), (0, 2), (1, 2)]
    assert eta.eval((1, 0, 0), (0, 1, 0)) == (1, 0, 0)
    for x in enumerate_vectors(3, 3):
        for y in enumerate_vectors(3, 3):
            assert eta.eval(x, y) == wedge_formula(x, y, 3)


def test_exterior_square_wrong_domain_rejected():
    with pytest.raises(DimensionMismatch):
        exterior_square(LinearMap.identity(2, 3), 3)


def test_cross_product_matches_minor_formula():
    eta = cross_product_map(3)
    assert eta.eval((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert eta.eval((0, 1, 0), (0, 0, 1)) == (1, 0, 0)
    for x in enumerate_vectors(3, 3):
        for y in enumerate_vectors(3, 3):
            assert eta.eval(x, y) == cross_formula(x, y, 3)
            assert not any(eta.eval(x, x))


def test_cross_product_configurable_signs():
    eta = cross_product_map(3, signs=(1, 1, 1))
    for x in enumerate_vectors(3, 3):
        for y in enumerate_vectors(3, 3):
            assert eta.eval(x, y) == cross_formula(x, y, 3, signs=(1, 1, 1))
    assert eta.is_nondegenerate()


def test_nondegeneracy_checks():
    assert standard_symplectic(1, 3).is_nondegenerate()
    assert standard_symplectic(2, 3).is_nondegenerate()
    assert cross_product_map(3).is_nondegenerate()
    zero = AlternatingMap(3, 2, 1, {})
    assert not zero.is_nondegenerate()
    # Exhaustive dual route: every nonzero u1 has a witness u2.
    eta = cross_product_map(3)
    for u1 in enumerate_vectors(3, 3)[1:]:
        assert any(any(eta.eval(u1, u2)) for u2 in enumerate_vectors(3, 3))


# -- semiform evaluation -------------------------------------------------------


def test_eval_semiform_scalar_instance_matches_line_complex_formula():
    rho = Semiform(standard_symplectic(1, 5))
    for x in enumerate_vectors(5, 3):
        for y in enumerate_vectors(5, 3):
            assert rho.eval(x, y) == (line_complex_formula(x, y, 5),)


def test_eval_semiform_worked_values():
    rho = Semiform(standard_symplectic(1, 5))
    assert rho.eval((0, 1, 0), (0, 0, 1)) == (1,)
    assert rho.eval((2, 1, 0), (3, 0, 1)) == (2,)
    for x in enumerate_vectors(5, 3):
        assert rho.eval(x, x) == (0,)


def test_eval_semiform_antisymmetry_and_split_forms():
    rho = Semiform(cross_product_map(3))
    assert rho.eval(((1, 2, 0), (0, 1, 1)), ((0, 0, 1), (1, 0, 2))) == rho.eval(
        (1, 2, 0, 0, 1, 1), (0, 0, 1, 1, 0, 2)
    )
    with pytest.raises(DimensionMismatch):
        rho.eval((1, 0), (0, 1))


def test_value_table_matches_pointwise_eval():
    rho = Semiform(standard_symplectic(1, 3))
    table = rho.value_table()
    pts = enumerate_vectors(3, 3)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert table[i, j] == rho.eval(x, y)[0]


def test_value_table_vector_valued_matches_pointwise_eval():
    rho = Semiform(cross_product_map(3))
    table = rho.value_table()
    pts = enumerate_vectors(3, 6)
    rng = np.random.default_rng(5)
    for _ in range(300):
        i, j = rng.integers(0, len(pts), 2)
        assert table[i, j] == vec_index(rho.eval(pts[i], pts[j]), 3)


# (p, n, nu) of the random semiforms: scalar over GF(3) and GF(5), and
# vector-valued over GF(3)
RANDOM_SHAPES = [(3, 2, 1), (3, 4, 1), (5, 2, 1), (3, 3, 2)]


@st.composite
def random_semiforms(draw, shapes=RANDOM_SHAPES):
    """A nondegenerate alternating map of a drawn shape with an invertible atlas."""
    p, n, nu = draw(st.sampled_from(shapes))
    coeff = st.integers(0, p - 1)
    upper = {
        (i, j): tuple(draw(coeff) for _ in range(nu)) for i, j in combinations(range(n), 2)
    }
    eta = AlternatingMap(p, n, nu, upper)
    assume(eta.is_nondegenerate())
    phi = LinearMap([[draw(coeff) for _ in range(nu)] for _ in range(nu)], p)
    assume(phi.is_bijective())
    return Semiform(eta, AffineAtlas(phi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rho=random_semiforms(), data=st.data())
def test_factor_codes_and_table_match_pointwise_eval(rho, data):
    # the first |Y| rows of the right factor give rho(x, y), the last |Y| rho(y, x)
    p = rho.p
    pts = enumerate_vectors(p, rho.ydim)
    left, right = rho.row_factors(pts)
    rows = st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=6)
    a, b = data.draw(rows), data.draw(rows)
    codes = rho.codes_from_factors(right[:, a], left[:, b])
    swapped = rho.codes_from_factors(right[:, len(pts) + np.array(a, dtype=np.intp)], left[:, b])
    table = rho.value_table()
    assert codes.shape == swapped.shape == (len(a), len(b))
    for r, i in enumerate(a):
        for c, j in enumerate(b):
            want = vec_index(rho.eval(pts[i], pts[j]), p)
            assert codes[r, c] == want
            assert swapped[r, c] == vec_index(rho.eval(pts[j], pts[i]), p)
            assert table[i, j] == want


# -- identities ----------------------------------------------------------------


@pytest.mark.parametrize(
    "rho",
    [
        Semiform(standard_symplectic(1, 3)),
        Semiform(standard_symplectic(1, 5)),
        Semiform(standard_symplectic(2, 3)),
    ],
    ids=["m1-gf3", "m1-gf5", "m2-gf3"],
)
def test_identities_scalar_instances(rho):
    report = verify_identities(rho.value_table(), rho)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_identities_vector_instance():
    rho = Semiform(cross_product_map(3))
    report = verify_identities(rho.value_table(), rho)
    assert report.passed


def test_identity_values_spot_checks():
    # zero-evaluation: rho(theta, q) recovers the V'-part of q.
    rho = Semiform(standard_symplectic(1, 3))
    theta = (0, 0, 0)
    for q in enumerate_vectors(3, 3):
        assert rho.eval(theta, q) == (q[0] % 3,)
    # alpha-scaling-pairs with alpha = 1 is trivially zero on both sides.
    for x in enumerate_vectors(3, 3)[:5]:
        for y in enumerate_vectors(3, 3)[:5]:
            lhs = (np.array(rho.eval(x, y)) - np.array(rho.eval(x, y))) % 3
            assert not lhs.any()


def test_offset_pair_identity_exhaustive_gf3():
    rho = Semiform(standard_symplectic(1, 3))
    eta = rho.eta
    pts = enumerate_vectors(3, 3)
    theta = (0, 0, 0)
    for x in pts:
        for y in pts:
            lhs = (rho.eval(x, (x + y) % 3)[0] - rho.eval(theta, y)[0]) % 3
            assert lhs == eta.eval(x[1:], y[1:])[0]


def corrupted_m1_table(i, j, by=1):
    """The value table of symplectic m=1 over GF(3) with entry (i, j) raised by `by`."""
    table = Semiform(standard_symplectic(1, 3)).value_table().copy()
    table[i, j] = (table[i, j] + by) % 3
    return table


def point_sum(a, b, p=3, ydim=3):
    """Code of pts[a] + pts[b], by coordinates rather than through group_tables."""
    pts = enumerate_vectors(p, ydim)
    return vec_index((pts[a] + pts[b]) % p, p)


@pytest.mark.parametrize(
    "p, n", [(3, k) for k in range(1, 7)] + [(5, k) for k in range(1, 4)] + [(7, 2)]
)
def test_group_tables_match_the_broadcast_definition(p, n):
    vecs, add, sub, neg, scale = group_tables.__wrapped__(p, n)
    want = enumerate_vectors(p, n)
    codes = np.arange(p**n)
    assert (vecs == want).all()
    for table, sign in ((add, 1), (sub, -1)):
        expect = encode_vecs(want[:, None, :] + sign * want[None, :, :], p)
        assert (table[codes[:, None], codes[None, :]] == expect).all()
        assert (table.rows(codes) == expect).all()
    assert (neg == encode_vecs(-want, p)).all()
    assert (scale == np.stack([encode_vecs(a * want, p) for a in range(p)])).all()
    # codes at code width, in halves over ceil(n/2) and floor(n/2) coordinates
    width = code_dtype(p**n - 1)
    halves = [h for t in (add, sub) for h in (t.hi, t.lo)]
    assert all(t.dtype == width for t in [neg, scale, *halves])
    assert [h.shape for h in halves] == 2 * [(p ** (n - n // 2),) * 2, (p ** (n // 2),) * 2]
    assert not any(t.flags.writeable for t in [vecs, neg, scale, *halves])


@pytest.mark.parametrize("shape", RANDOM_SHAPES + [(7, 2, 1)])
def test_split_table_lookups_match_vector_addition_on_random_forms(shape):
    # the add and sub lookups of Y and of V': pointwise in broadcast blocks,
    # at python ints, and as whole rows, against coordinatewise addition
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(rho=random_semiforms([shape]), data=st.data())
    def check(rho, data):
        p = rho.p
        for n in (rho.ydim, rho.nu):
            vecs, add, sub, _, _ = group_tables(p, n)
            codes = st.lists(st.integers(0, p**n - 1), min_size=1, max_size=8)
            x, y = np.array(data.draw(codes)), np.array(data.draw(codes))
            for table, sign in ((add, 1), (sub, -1)):
                expect = encode_vecs(vecs[x][:, None] + sign * vecs[y][None, :], p)
                assert (table[x[:, None], y[None, :]] == expect).all()
                assert (table.rows(x)[:, y] == expect).all()
                assert table[int(x[0]), int(y[0])] == expect[0, 0]

    check()


@pytest.mark.parametrize("shape, examples", [((3, 2, 1), 3), ((5, 2, 1), 2), ((3, 2, 2), 2)])
def test_code_width_and_int32_tables_get_the_same_verdicts(shape, examples):
    # the checkers read any integer table: a value table at code width and its
    # int32 copy give equal reports, witnesses included, intact and with one
    # entry changed
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(rho=random_semiforms([shape]), data=st.data())
    def check(rho, data):
        p, codes = rho.p, rho.p**rho.nu
        table = rho.value_table()
        assert table.dtype == code_dtype(codes - 1)
        corrupted = table.copy()
        i, j = (data.draw(st.integers(0, len(table) - 1)) for _ in range(2))
        corrupted[i, j] = (corrupted[i, j] + data.draw(st.integers(1, codes - 1))) % codes
        for t in (table, corrupted):
            for checker in (
                lambda u: check_semiform_axioms(u, p, rho.ydim, rho.nu),
                lambda u: verify_identities(u, rho),
            ):
                assert checker(t).to_jsonable("") == checker(t.astype(np.int32)).to_jsonable("")

    check()


def first_shift_failure(table, rho):
    """The first (k, i, j) in loop order with rho(p_i + q, p_j + q) - rho(p_i, p_j)
    != eta(u_i - u_j, y) for q = p_k = [v, y], or None: point sums by
    coordinates, eta from the Gram tensor, rho read from the table."""
    p, nu = rho.p, rho.nu
    pts = enumerate_vectors(p, rho.ydim)
    vals = enumerate_vectors(p, nu).astype(np.int16)[table]
    for k, q in enumerate(pts):
        moved = encode_vecs((pts + q) % p, p)
        lhs = vals[moved][:, moved] - vals
        # eta(u_i - u_j, y) = u_i G y - u_j G y, in integers before reduction
        e = (pts[:, nu:] @ np.einsum("abc,b->ac", rho.eta.gram, q[nu:]) % p).astype(np.int16)
        bad = np.flatnonzero((lhs - (e[:, None] - e[None, :])) % p)
        if bad.size:
            i, j = divmod(int(bad[0]) // nu, len(pts))
            return k, i, j
    return None


def first_additivity_failure(table, p, ydim, nu, columns, offsets):
    """The first (n, i, j) in loop order with rho(p_i + p_j, q) - rho(p_i, q) -
    rho(p_j, q) != offsets[n] for q = columns[n], or None."""
    pts = enumerate_vectors(p, ydim)
    vals = enumerate_vectors(p, nu).astype(np.int16)[table]
    total = encode_vecs((pts[:, None] + pts[None, :]) % p, p)
    for n, q in enumerate(columns):
        col = vals[:, q]
        bad = np.flatnonzero((col[total] - col[:, None] - col[None, :] - offsets[n]) % p)
        if bad.size:
            i, j = divmod(int(bad[0]) // nu, len(pts))
            return n, i, j
    return None


def assert_witnesses_are_first_failures(table, rho):
    """translation-shift, additivity-defect and A3 on a table: each fails
    exactly when its definition fails somewhere, with the first failure in
    loop order as its witness."""
    p, nu, ydim = rho.p, rho.nu, rho.ydim

    def codes(witness):
        return tuple(vec_index(w, p) for w in witness)

    ids = verify_identities(table, rho)
    axioms = check_semiform_axioms(table, p, ydim, nu)

    first = first_shift_failure(table, rho)
    check = ids.check("translation-shift")
    assert check.passed == (first is None)
    if first is not None:
        k, i, j = first
        assert codes(check.witness) == (i, j, k)

    pts = enumerate_vectors(p, ydim)
    phi = rho.atlas.phi.apply_rows(pts[:, :nu])
    first = first_additivity_failure(table, p, ydim, nu, range(len(pts)), -phi)
    check = ids.check("additivity-defect")
    assert check.passed == (first is None)
    if first is not None:
        n, i, j = first
        assert codes(check.witness) == (i, j, n)

    m_set = np.flatnonzero(table[0] == 0)
    first = first_additivity_failure(table, p, ydim, nu, m_set, np.zeros((len(m_set), nu), dtype=np.int64))
    check = axioms.check("A3")
    assert check.passed == (first is None)
    if first is not None:
        n, i, j = first
        assert codes(check.witness) == (i, j, m_set[n])


def test_identities_detect_a_corrupted_table():
    # (13, 5) and (400, 5) lie in kernel-part columns, so A3 fails as well;
    # (5, 14) does not, and A3 passes
    for rho, (i, j) in [
        (Semiform(standard_symplectic(1, 3)), (5, 14)),
        (Semiform(standard_symplectic(1, 3)), (13, 5)),
        (Semiform(cross_product_map(3)), (400, 5)),
    ]:
        table = rho.value_table().copy()
        table[i, j] = (table[i, j] + 1) % 3
        report = verify_identities(table, rho)
        assert not report.check("translation-shift").passed
        assert not report.check("additivity-defect").passed
        assert check_semiform_axioms(table, 3, rho.ydim, rho.nu).check("A3").passed == (table[0, j] != 0)
        assert_witnesses_are_first_failures(table, rho)


# (p, n, nu) of the random semiforms for the Y^3 kernels, with examples each:
# every nu in {1, 2, 3} and every p in {3, 5, 7}, |Y| <= 343 for the brute force
KERNEL_SHAPES = [((3, 2, 1), 4), ((5, 2, 1), 4), ((7, 2, 1), 3), ((3, 4, 1), 3), ((3, 2, 2), 4), ((3, 2, 3), 2)]


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_value_table_kernels_match_their_definitions_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(rho=random_semiforms([shape]), data=st.data())
    def check(rho, data):
        table = rho.value_table()
        assert_witnesses_are_first_failures(table, rho)
        size, codes = len(table), rho.p**rho.nu
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        table[i, j] = (table[i, j] + data.draw(st.integers(1, codes - 1))) % codes
        assert_witnesses_are_first_failures(table, rho)

    check()


@pytest.mark.parametrize("family", ["row", "column", "uniform"])
@pytest.mark.parametrize("instance", ["sp_m1_gf3", "sp_m2_gf3", "sp_cross_gf3", "sp_wedge3_gf3"])
def test_witnesses_are_first_failures_on_corrupted_rows_columns_and_random_tables(request, instance, family):
    # every entry of one row or one column moved by a nonzero value, or a
    # uniformly random table of the same shape and code width
    rho = request.getfixturevalue(instance).form
    table = rho.value_table()
    codes = rho.p**rho.nu
    rng = np.random.default_rng(27)
    line = int(rng.integers(1, len(table)))
    moves = rng.integers(1, codes, len(table)).astype(table.dtype)
    if family == "row":
        table[line] = (table[line] + moves) % codes
    elif family == "column":
        table[:, line] = (table[:, line] + moves) % codes
    else:
        table = rng.integers(0, codes, table.shape).astype(table.dtype)
    assert_witnesses_are_first_failures(table, rho)


def additive_by_definition(planes, p, k):
    """Whether each column g of the planes has g(x + y) = g(x) + g(y) in every
    plane, by a sum table over all (x, y)."""
    vecs = enumerate_vectors(p, k)
    total = encode_vecs((vecs[:, None] + vecs[None, :]) % p, p)
    g = planes.astype(np.int64)
    bad = (g[:, total] - g[:, :, None] - g[:, None, :]) % p
    return ~bad.any(axis=(0, 1, 2))


@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
def test_additive_columns_match_their_definition(monkeypatch, chunk):
    # linear columns, shifted ones (g(0) != 0), linear ones with one entry
    # changed, and random ones; at CHUNK = 7 each column is a block
    if chunk:
        monkeypatch.setattr(linalg, "CHUNK", chunk)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(p=st.sampled_from([3, 5, 7]), k=st.integers(1, 3), nu=st.integers(1, 2), data=st.data())
    def check(p, k, nu, data):
        size = p**k
        kinds = data.draw(st.lists(st.sampled_from(["linear", "shifted", "one-entry", "random"]), min_size=1, max_size=8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        planes = (enumerate_vectors(p, k) @ rng.integers(0, p, (nu, k, len(kinds)))) % p
        for n, kind in enumerate(kinds):
            c = int(rng.integers(0, nu))
            if kind == "shifted":
                planes[c, :, n] = (planes[c, :, n] + rng.integers(1, p)) % p
            elif kind == "one-entry":
                x = int(rng.integers(0, size))
                planes[c, x, n] = (planes[c, x, n] + rng.integers(1, p)) % p
            elif kind == "random":
                planes[:, :, n] = rng.integers(0, p, (nu, size))
        planes = planes.astype(np.uint8)
        want = additive_by_definition(planes, p, k)
        assert (_additive_columns(planes, p) == want).all()
        assert not want[[kind in ("shifted", "one-entry") for kind in kinds]].any()

    check()


# -- every first-failure check against its definition -------------------------------

CORRUPTIONS = ["intact", "entry", "row", "column", "uniform"]


def corrupted(table, codes, family, rng):
    """A copy of a table of codes below `codes`: intact, with one entry, one
    row or one column moved by nonzero values, or uniformly random."""
    out = table.copy()
    k, moves = int(rng.integers(0, len(out))), rng.integers(1, codes, len(out))
    if family == "entry":
        j = int(rng.integers(0, len(out)))
        out[k, j] = (out[k, j] + moves[0]) % codes
    elif family == "row":
        out[k] = (out[k] + moves) % codes
    elif family == "column":
        out[:, k] = (out[:, k] + moves) % codes
    elif family == "uniform":
        out[:] = rng.integers(0, codes, out.shape)
    return out


def first_hit(tests):
    """(*key, *index) of the first True entry of the first array that has
    one, the arrays in the given order and each in row-major order, or None;
    by np.argwhere, independent of linalg.first_failure."""
    for key, bad in tests:
        hits = np.argwhere(bad)
        if len(hits):
            return (*key, *(int(h) for h in hits[0]))
    return None


def witness_codes(witness, p):
    """A report witness with every point or V' vector replaced by its code."""
    return None if witness is None else tuple(w if isinstance(w, int) else vec_index(w, p) for w in witness)


def failures_by_definition(table, rho) -> dict:
    """The witness of the first failing tuple, in quantifier order, of each
    first-failure check of `check_semiform_axioms` and `verify_identities`,
    with points as codes, or None.  Points are added, negated and scaled on
    their coordinates, rho is read from the table as V' vectors, eta comes
    from the Gram tensor and phi from the atlas matrix; no group table."""
    p, nu = rho.p, rho.nu
    pts = enumerate_vectors(p, rho.ydim)
    vals = enumerate_vectors(p, nu)[table]  # vals[i, j] = rho(p_i, p_j)
    idx = np.arange(len(pts))

    def code(x):
        return encode_vecs(x % p, p)

    def bad(x):  # the V' vectors along the last axis that are not zero
        return (x % p).any(axis=-1)

    def under(s):  # rho(s_i, s_j)
        return vals[s][:, s]

    neg, total = code(-pts), code(pts[:, None] + pts[None, :])
    scaled = [code(a * pts) for a in range(p)]
    eta = np.einsum("ia,abk,jb->ijk", pts[:, nu:], rho.eta.gram, pts[:, nu:])
    phi = pts[:, :nu] @ rho.atlas.phi.matrix.T  # phi(v) of every point [v, y]
    parity = under(neg) + vals
    offset = vals[idx[:, None], total] - vals[0][None]  # rho(p1, p1 + p2) - rho(theta, p2)
    m_set, m_row = np.flatnonzero(~bad(vals[0])), np.flatnonzero(~bad(vals[:, 0]))
    shifts = [q for q in idx if not bad(vals[total[:, q], q] - vals[:, 0]).any()]
    split = [
        (~bad(vals[code(pts[m_row] - q)][:, neg] + vals[code(q - pts[m_row])]).any(axis=1)).any() for q in pts
    ]
    out = {
        "A1": first_hit([((), bad(vals + vals.transpose(1, 0, 2)))]),
        "A5": first_hit([((), bad(parity - 2 * offset))]),
        "A6": first_hit(((q,), bad(under(total[:, q]) - vals)) for q in shifts),
        "A7": first_hit(((a,), bad(2 * (under(scaled[a]) - a * vals) - a * (a - 1) * parity)) for a in range(p)),
        "A8": first_hit([((), ~np.array(split, dtype=bool))]),
        "alpha-scaling-pairs": first_hit(
            ((a,), bad(under(scaled[a]) - a * vals - a * (a - 1) * eta)) for a in range(p)
        ),
        "offset-pair": first_hit([((), bad(offset - eta))]),
        "zero-evaluation": first_hit([((), bad(vals[0] - phi))]),
        "alpha-scaling-left": first_hit(
            ((a,), bad(vals[scaled[a]] - a * vals - (1 - a) * phi[None])) for a in range(p)
        ),
    }
    hit = first_hit(((mp, a), bad(vals[scaled[a], mp] - a * vals[:, mp])) for mp in m_set for a in range(p))
    out["A2"] = hit and (hit[1], hit[2], hit[0])  # (a, q, mp)
    return out


def atlas_failures_by_definition(table, p, nu) -> dict:
    """The witness codes of the first failing tuple of C1-C3 and C5-C7 on a
    difference table over V', by vector arithmetic on coordinates, or None."""
    vecs = enumerate_vectors(p, nu)
    vals, m = vecs[table], len(vecs)  # vals[i, j] = delta(v_i, v_j)

    def code(x):
        return encode_vecs(x % p, p)

    def bad(x):
        return (x % p).any(axis=-1)

    total = code(vecs[:, None] + vecs[None, :])
    c1 = first_hit(((v,), bad(vals[total[:, v]][:, total[:, v]] - vals)) for v in range(m))
    c3 = first_hit(((v,), bad(vals[:, v][:, None] + vals[v][None] - vals)) for v in range(m))
    return {
        "C1": c1 and (c1[1], c1[2], c1[0]),  # (v1, v2, v)
        "C2": first_hit(((a,), bad(vals[code(a * vecs)][:, code(a * vecs)] - a * vals)) for a in range(p)),
        "C3": c3 and (c3[1], c3[0], c3[2]),  # (v1, v, v2)
        "C5": first_hit([((), bad(vals[np.arange(m), np.arange(m)]))]),
        "C6": first_hit([((), bad(vals + vals.transpose(1, 0, 2)))]),
        "C7": first_hit([((), bad(vals[total, 0] - vals[:, 0][:, None] - vals[:, 0][None]))]),
    }


def assert_checks_are_their_definitions(table, rho, atlas_table):
    """Every first-failure check of the three checkers passes exactly when its
    definition holds, with the first failing tuple as its witness."""
    p, nu = rho.p, rho.nu
    reports = [check_semiform_axioms(table, p, rho.ydim, nu), verify_identities(table, rho),
               check_atlas_axioms(atlas_table, p, nu)]
    checks = {c.name: c for report in reports for c in report.checks}
    expected = {**failures_by_definition(table, rho), **atlas_failures_by_definition(atlas_table, p, nu)}
    for name, want in expected.items():
        assert (checks[name].passed, witness_codes(checks[name].witness, p)) == (want is None, want), name


@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
@pytest.mark.parametrize("family", CORRUPTIONS[1:])
@pytest.mark.parametrize("instance", ["sp_m1_gf3", "sp_m2_gf3"])
def test_first_failure_checks_match_their_definitions_on_corrupted_tables(request, monkeypatch, instance, family, chunk):
    if chunk:
        monkeypatch.setattr(linalg, "CHUNK", chunk)
    rho = request.getfixturevalue(instance).form
    rng = np.random.default_rng(28)
    codes = rho.p**rho.nu
    atlas = delta_table_from_phi(rho.atlas.phi)
    assert_checks_are_their_definitions(
        corrupted(rho.value_table(), codes, family, rng), rho, corrupted(atlas, codes, family, rng)
    )


@pytest.mark.parametrize("shape, examples", KERNEL_SHAPES)
def test_first_failure_checks_match_their_definitions_on_random_forms(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(rho=random_semiforms([shape]), family=st.sampled_from(CORRUPTIONS), seed=st.integers(0, 2**32 - 1))
    def check(rho, family, seed):
        rng = np.random.default_rng(seed)
        codes = rho.p**rho.nu
        atlas = delta_table_from_phi(rho.atlas.phi)
        assert_checks_are_their_definitions(
            corrupted(rho.value_table(), codes, family, rng), rho, corrupted(atlas, codes, family, rng)
        )

    check()


def test_a2_quantifies_the_kernel_part_point_before_the_scalar():
    # over GF(7), 2 does not generate the units: column 1 keeps rho(2q, 1) =
    # 2 rho(q, 1) but breaks a = 3 on the orbit {q0, 2q0, 4q0}, and column 2
    # breaks a = 2 at one entry, so mp before a finds (3, q, 1), not (2, q, 2)
    rho = Semiform(standard_symplectic(1, 7))
    table = rho.value_table()
    pts, q0 = enumerate_vectors(7, 3), 50
    for k in range(3):
        q = vec_index(pow(2, k) * pts[q0] % 7, 7)
        table[q, 1] = (table[q, 1] + pow(2, k)) % 7
    table[q0, 2] = (table[q0, 2] + 1) % 7
    witness = witness_codes(check_semiform_axioms(table, 7, 3, 1).check("A2").witness, 7)
    assert witness == failures_by_definition(table, rho)["A2"]
    assert (witness[0], witness[2]) == (3, 1)


# -- atlas axioms ----------------------------------------------------------------


def delta_table_from_phi(phi: LinearMap):
    """delta(v1, v2) = phi(v1) - phi(v2) of the atlas of phi over all of V' x V',
    encoded at code width."""
    atlas = AffineAtlas(phi)
    img = phi.apply_rows(enumerate_vectors(atlas.p, atlas.nu))
    return encode_vecs(img[:, None, :] - img[None, :, :], atlas.p).astype(code_dtype(atlas.p**atlas.nu - 1))


def test_atlas_axioms_identity_atlas_pass():
    report = check_atlas_axioms(delta_table_from_phi(LinearMap.identity(1, 3)), 3, 1)
    assert report.passed
    assert report.data["difference_form_ok"]
    assert report.data["phi_matrix"] == [[1]]


def test_atlas_axioms_projection_first_argument_fails_antisymmetry():
    # delta(v1, v2) := v1 over GF(3): C6 fails, e.g. delta(1,0)=1 but -delta(0,1)=0.
    m = 3
    table = np.zeros((m, m), dtype=np.int32)
    for i in range(m):
        table[i, :] = i
    report = check_atlas_axioms(table, 3, 1)
    assert not report.check("C6").passed
    w = report.check("C6").witness
    v1, v2 = w
    assert table[vec_index(v1, 3), vec_index(v2, 3)] != (-table[vec_index(v2, 3), vec_index(v1, 3)]) % 3


def test_atlas_axioms_scaling_atlas_extracts_phi():
    report = check_atlas_axioms(delta_table_from_phi(LinearMap([[2]], 5)), 5, 1)
    assert report.passed
    assert report.data["phi_matrix"] == [[2]]
    assert report.data["difference_form_ok"]


def test_atlas_axioms_on_vector_valued_atlas():
    phi = LinearMap([[1, 1], [0, 1]], 3)
    report = check_atlas_axioms(delta_table_from_phi(phi), 3, 2)
    assert report.passed
    assert report.data["phi_matrix"] == [[1, 1], [0, 1]]


def test_atlas_alternative_axiom_subset_implies_chain_rule():
    # Whenever C2, C7, C6, C1 all pass on some table, C3 must pass as well.
    rng = np.random.default_rng(19)
    found_pass = 0
    for _ in range(60):
        table = rng.integers(0, 3, size=(3, 3)).astype(np.int32)
        report = check_atlas_axioms(table, 3, 1)
        subset = all(report.check(c).passed for c in ("C1", "C2", "C6", "C7"))
        if subset:
            found_pass += 1
            assert report.check("C3").passed
    # the identity atlas always qualifies, so make sure the implication was exercised
    report = check_atlas_axioms(delta_table_from_phi(LinearMap.identity(1, 3)), 3, 1)
    assert all(report.check(c).passed for c in ("C1", "C2", "C6", "C7", "C3"))


# -- semiform axioms ---------------------------------------------------------------


def test_semiform_axioms_scalar_m1_gf3():
    rho = Semiform(standard_symplectic(1, 3))
    report = check_semiform_axioms(rho.value_table(), 3, 3, 1)
    assert report.passed
    assert report.data["M_dim"] == 2
    assert report.data["D_dim"] == 1
    assert report.data["reconstruction_ok"]


def test_semiform_axioms_cross_product():
    rho = Semiform(cross_product_map(3))
    report = check_semiform_axioms(rho.value_table(), 3, 6, 3)
    assert report.passed
    assert report.data["M_dim"] == 3
    assert report.data["D_dim"] == 3


def test_semiform_axioms_zero_table_fails_nondegeneracy():
    size = 27
    table = np.zeros((size, size), dtype=np.int32)
    report = check_semiform_axioms(table, 3, 3, 1)
    a4 = report.check("A4")
    assert not a4.passed
    assert a4.witness is not None


def test_semiform_axioms_antisymmetry_violation_witnessed():
    rho = Semiform(standard_symplectic(1, 3))
    table = np.array(rho.value_table(), dtype=np.int32).copy()
    table[1, 2] = (table[1, 2] + 1) % 3
    report = check_semiform_axioms(table, 3, 3, 1)
    a1 = report.check("A1")
    assert not a1.passed
    i, j = (vec_index(w, 3) for w in a1.witness)
    assert table[i, j] != (-table[j, i]) % 3


def test_semiform_axioms_parity_violation_witnessed():
    # Corrupt a symmetric pair of entries: antisymmetry survives, A5 must fail.
    rho = Semiform(standard_symplectic(1, 3))
    table = np.array(rho.value_table(), dtype=np.int32).copy()
    i, j = 4, 7
    table[i, j] = (table[i, j] + 1) % 3
    table[j, i] = (-table[i, j]) % 3
    report = check_semiform_axioms(table, 3, 3, 1)
    assert report.check("A1").passed
    assert not report.check("A5").passed
    w = report.check("A5").witness
    wi, wj = (vec_index(x, 3) for x in w)
    pts, padd, psub, pneg, _ = group_tables(3, 3)
    lhs = (table[pneg[wi], pneg[wj]] + table[wi, wj]) % 3
    rhs = (2 * (table[wi, padd[wi, wj]] - table[0, wj])) % 3
    assert lhs != rhs


def test_semiform_axioms_additivity_violation_witnessed():
    # Entry (13, 5): column 5 is a kernel-part point (rho(theta, 5) = 0), and
    # row 13 is outside the shift part, so A3 fails but A8 still passes.
    table = corrupted_m1_table(13, 5)
    report = check_semiform_axioms(table, 3, 3, 1)
    a3 = report.check("A3")
    assert not a3.passed and report.check("A8").passed
    q1, q2, mp = (vec_index(w, 3) for w in a3.witness)

    def fails(a, b, m):
        return table[point_sum(a, b), m] != (table[a, m] + table[b, m]) % 3

    assert table[0, mp] == 0 and fails(q1, q2, mp)
    m_set = [m for m in range(27) if table[0, m] == 0]
    first = next((a, b, m) for m in m_set for a in range(27) for b in range(27) if fails(a, b, m))
    assert (q1, q2, mp) == first


def test_semiform_axioms_complement_violation_witnessed():
    # Entry (9, 4): row 9 = [1, 0, 0] lies in the shift part D, the one row that
    # splits the points q = 9 + m, m in the kernel part, so A8 fails first at 9.
    table = corrupted_m1_table(9, 4)
    report = check_semiform_axioms(table, 3, 3, 1)
    a8 = report.check("A8")
    assert not a8.passed
    (q,) = (vec_index(w, 3) for w in a8.witness)
    pts = enumerate_vectors(3, 3)
    neg = [vec_index((-x) % 3, 3) for x in pts]

    def splits(a, m):
        # rho(m - a, -r) = -rho(a - m, r) for every r
        d = vec_index((pts[a] - pts[m]) % 3, 3)
        return all(table[neg[d], neg[r]] == (3 - table[d, r]) % 3 for r in range(27))

    m_row = [m for m in range(27) if table[m, 0] == 0]
    assert not any(splits(q, m) for m in m_row)
    assert all(any(splits(a, m) for m in m_row) for a in range(q))


def test_semiform_reconstruction_round_trip_wedge():
    g = LinearMap.identity(3, 3)
    rho = Semiform(exterior_square(g, 3))
    report = check_semiform_axioms(rho.value_table(), 3, 6, 3)
    assert report.passed
    assert report.data["M_dim"] == 3 and report.data["D_dim"] == 3
    assert report.data["reconstruction_ok"]


# -- normalization -------------------------------------------------------------------


def test_normalize_identity_input_is_identity_bijection():
    rho = Semiform(standard_symplectic(1, 3))
    simplified, bij = normalize(rho)
    assert simplified.simplified
    assert (bij.matrix == np.eye(3, dtype=np.int64)).all()


def test_normalize_scaling_atlas_exhaustive_gf5():
    phi = LinearMap([[2]], 5)
    rho = Semiform(standard_symplectic(1, 5), AffineAtlas(phi))
    simplified, bij = normalize(rho)
    assert simplified.simplified
    pts = enumerate_vectors(5, 3)
    for x in pts:
        for y in pts:
            assert rho.eval(x, y) == simplified.eval(bij(x), bij(y))
    # The point bijection acts as [v, u] -> [phi(v), u].
    assert bij((1, 0, 0)) == (2, 0, 0)
    assert bij((0, 1, 2)) == (0, 1, 2)


def test_normalize_rejects_degenerate_atlas():
    rho = Semiform(standard_symplectic(1, 3), AffineAtlas(LinearMap([[0]], 3)))
    with pytest.raises(DegenerateAtlas):
        normalize(rho)


def test_scaled_conjugate_relation_exhaustive_gf5():
    # gamma * eta(B u1, B u2) against the original, through the point bijection.
    eta = standard_symplectic(1, 5)
    scaled, bij = scaled_conjugate(eta, LinearMap.identity(2, 5), 2)
    rho = Semiform(eta)
    rho_scaled = Semiform(scaled)
    pts = enumerate_vectors(5, 3)
    for x in pts:
        for y in pts:
            lhs = rho_scaled.eval(x, y)[0]
            rhs = (2 * rho.eval(bij(x), bij(y))[0]) % 5
            assert lhs == rhs


def test_scaled_conjugate_with_nontrivial_b():
    eta = standard_symplectic(1, 3)
    b = LinearMap([[1, 1], [0, 1]], 3)
    scaled, bij = scaled_conjugate(eta, b, 2)
    rho, rho_scaled = Semiform(eta), Semiform(scaled)
    pts = enumerate_vectors(3, 3)
    for x in pts:
        for y in pts:
            assert rho_scaled.eval(x, y)[0] == (2 * rho.eval(bij(x), bij(y))[0]) % 3


# -- instance serialization ------------------------------------------------------------


def test_instance_json_round_trip():
    for rho in [
        Semiform(standard_symplectic(2, 3), kind="symplectic"),
        Semiform(cross_product_map(3), kind="cross"),
        Semiform(exterior_square(LinearMap.identity(3, 3), 3), kind="wedge"),
    ]:
        data = rho.to_jsonable()
        back = Semiform.from_jsonable(data)
        assert back.to_jsonable() == data
        assert back.eta == rho.eta
        assert back.kind == rho.kind
    assert set(data.keys()) == {"p", "n", "nu", "gram", "atlas", "kind"}
