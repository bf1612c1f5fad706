"""Canonical subspaces, ranks, linear maps, and subspace enumeration over GF(p)."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipolar.errors import DimensionMismatch, EnumerationTooLarge
from semipolar.gf import GF
from semipolar.hyperbolic import build_double, standard_doubling_base
from semipolar import linalg
from semipolar.linalg import (
    CHUNK,
    LinearMap,
    Subspace,
    blocks,
    distinct_rows,
    encode_vecs,
    enumerate_subspaces,
    enumerate_vectors,
    first_failure,
    gaussian_binomial,
    index_vec,
    pack_codes,
    pack_rows,
    rank,
    rref,
    subspace_closure,
    unpack_rows,
    vec_index,
)
from test_apsg import random_spaces


def span_set(generators, p, n):
    """Brute-force span as a set of tuples: the oracle for all canonical-form claims."""
    gens = [tuple(g) for g in generators]
    out = set()
    for coeffs in product(range(p), repeat=len(gens)):
        v = [0] * n
        for c, g in zip(coeffs, gens):
            for i in range(n):
                v[i] = (v[i] + c * g[i]) % p
        out.add(tuple(v))
    return out


def test_empty_generators_give_dim_zero():
    s = Subspace([], 3, ambient_dim=2)
    assert s.dim == 0
    assert span_set(s.basis, s.p, s.ambient_dim) == {(0, 0)}


def test_canonical_basis_of_scaled_standard_basis():
    s = Subspace([(2, 0), (0, 1)], 5)
    assert s.basis == ((1, 0), (0, 1))
    assert span_set(s.basis, s.p, s.ambient_dim) == span_set([(2, 0), (0, 1)], 5, 2)


def test_canonical_basis_collapses_dependent_generators():
    # (2,4) = 2*(1,2) over GF(5)
    s = Subspace([(1, 2), (2, 4)], 5)
    assert s.basis == ((1, 2),)
    assert s.dim == 1
    assert span_set(s.basis, s.p, s.ambient_dim) == span_set([(1, 2)], 5, 2)


def test_canonical_basis_idempotent_and_order_insensitive():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([3, 5])
        n = rng.randrange(1, 5)
        gens = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        s1 = Subspace(gens, p)
        s2 = Subspace(list(reversed(gens)), p)
        s3 = Subspace(list(s1.basis), p, n)
        assert s1 == s2 == s3
        assert span_set(s1.basis, p, n) == span_set(gens, p, n)


def test_canonical_basis_is_reduced_echelon():
    rng = random.Random(11)
    for _ in range(30):
        p, n = 3, 4
        gens = [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
        s = Subspace(gens, p)
        pivots = []
        for row in s.basis:
            piv = next(i for i, c in enumerate(row) if c)
            assert row[piv] == 1
            pivots.append(piv)
            for other in s.basis:
                if other is not row:
                    assert other[piv] == 0
        assert pivots == sorted(pivots)


def test_mixed_ambient_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        Subspace([(1, 0), (1, 0, 0)], 3)


def kernel_size(mat, p):
    """Brute force: the number of x with mat @ x = 0, by a scan of the domain."""
    mat = np.array(mat, dtype=np.int64)
    return int((~(enumerate_vectors(p, mat.shape[1]) @ mat.T % p).any(axis=1)).sum())


def test_rank_of_identity_and_zero_maps():
    # nullity n - rank against a solution scan
    for mat, want in (([[1, 0], [0, 1]], 2), ([[0, 0], [0, 0]], 0)):
        assert rank(mat, 3) == want
        assert kernel_size(mat, 3) == 3 ** (2 - want)


def test_rank_of_coordinate_sum_map():
    # f(x, y) = x + y on GF(3)^2 has rank 1; its kernel holds the 3 points of <(1, 2)>
    assert rank([[1, 1]], 3) == 1
    assert kernel_size([[1, 1]], 3) == 3
    assert LinearMap([[1, 1]], 3)((1, 2)) == (0,)


def test_rank_nullity_random_maps_gf3():
    rng = random.Random(17)
    for _ in range(100):
        dom = rng.randrange(1, 5)
        cod = rng.randrange(1, 5)
        mat = [[rng.randrange(3) for _ in range(dom)] for _ in range(cod)]
        f = LinearMap(mat, 3)
        images = len(np.unique(encode_vecs(f.apply_rows(enumerate_vectors(3, dom)), 3)))
        assert images == 3 ** rank(mat, 3)
        assert kernel_size(mat, 3) * images == 3**dom


def test_rank_of_empty_matrices_and_stacks():
    # no rows: rank 0, one per matrix of a stack, also with no columns
    for c in (0, 1, 4):
        assert rank(np.zeros((0, c), dtype=np.int64), 3) == 0
        for k in (1, 3):
            assert rank(np.zeros((k, 0, c), dtype=np.int64), 5).tolist() == [0] * k


def test_is_bijective_matches_an_image_count(monkeypatch):
    rng = random.Random(23)
    for _ in range(200):
        p, n = rng.choice([3, 5]), rng.randrange(1, 5)
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:  # upper triangular with a diagonal drawn from {0, 1}
            mat = [[0 if j < i else rng.randrange(2) if j == i else c for j, c in enumerate(row)]
                   for i, row in enumerate(mat)]
        f = LinearMap(mat, p)
        images = encode_vecs(f.apply_rows(enumerate_vectors(p, n)), p)
        assert f.is_bijective() == (len(np.unique(images)) == p**n)
    assert not LinearMap([[1, 0, 0], [0, 1, 0]], 3).is_bijective()
    # an upper unitriangular matrix is answered without a rank test
    monkeypatch.setattr("semipolar.linalg.rref", None)
    assert LinearMap([[1, 2, 0], [0, 1, 1], [0, 0, 1]], 3).is_bijective()


def scalar_rref(mat, p):
    """Reference: one matrix, one row operation at a time; the reduced rows
    of its rank and the list of pivot columns."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i, c] % p:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[: len(pivots)], pivots


@st.composite
def matrix_stacks(draw):
    """A (count, rows, cols) stack over GF(p), some of its rows zero or
    repeats of another row of the same matrix."""
    p = draw(st.sampled_from([3, 5, 7]))
    count, rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entries = st.lists(st.integers(0, p - 1), min_size=count * rows * cols, max_size=count * rows * cols)
    stack = np.array(draw(entries), dtype=np.int64).reshape(count, rows, cols)
    for k in range(count):
        for i in range(rows):
            kind = draw(st.sampled_from(["drawn", "drawn", "zero", "repeat"]))
            if kind == "zero":
                stack[k, i] = 0
            elif kind == "repeat":
                stack[k, i] = stack[k, draw(st.integers(0, rows - 1))]
    return stack, p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=matrix_stacks())
def test_batched_rref_matches_the_scalar_loop(case):
    stack, p = case
    reduced, pivots = rref(stack, p)
    assert reduced.shape == stack.shape and pivots.shape == (len(stack), stack.shape[2])
    for k, mat in enumerate(stack):
        want, want_pivots = scalar_rref(mat, p)
        assert np.flatnonzero(pivots[k]).tolist() == want_pivots
        assert reduced[k, : len(want_pivots)].tolist() == want.tolist()
        assert not reduced[k, len(want_pivots) :].any()
        one, one_pivots = rref(mat, p)  # one matrix is a stack of one
        assert one.tolist() == reduced[k].tolist() and one_pivots.tolist() == pivots[k].tolist()
        assert rank(mat, p) == len(want_pivots)
    assert rank(stack, p).tolist() == pivots.sum(axis=1).tolist()


def brute_force_subspace_count(n, k, p):
    """Count distinct k-dimensional spans over all k-tuples of vectors."""
    vecs = list(product(range(p), repeat=n))
    seen = set()
    for combo in product(vecs, repeat=k):
        s = Subspace(list(combo), p, n)
        if s.dim == k:
            seen.add(s)
    return len(seen)


def test_gaussian_binomial_against_brute_force():
    for n, k, p in [(2, 1, 3), (3, 1, 3), (3, 2, 3), (2, 1, 5), (2, 2, 3)]:
        assert gaussian_binomial(n, k, p) == brute_force_subspace_count(n, k, p)


def test_enumerate_subspaces_counts_and_uniqueness():
    for p in (3, 5):
        for n in range(1, 5):
            for k in range(0, n + 1):
                subs = enumerate_subspaces(k, n, p)
                assert len(subs) == gaussian_binomial(n, k, p)
                assert len(set(subs)) == len(subs)
                for s in subs[:10]:
                    assert s.dim == k
                    assert Subspace(list(s.basis) or [], p, n) == s


def test_enumerate_subspaces_examples():
    assert len(enumerate_subspaces(1, 2, 3)) == 4  # (3^2-1)/(3-1)
    assert len(enumerate_subspaces(0, 2, 3)) == 1
    assert len(enumerate_subspaces(1, 2, 5)) == 6  # (5^2-1)/(5-1)


def test_enumeration_budget_enforced():
    with pytest.raises(EnumerationTooLarge):
        enumerate_subspaces(3, 12, 5, budget=1000)
    with pytest.raises(EnumerationTooLarge):
        enumerate_vectors(3, 20)


def test_vec_index_round_trip_and_order():
    # First coordinate varies slowest: index of (1,0,0) over GF(3) is 9.
    assert vec_index((1, 0, 0), 3) == 9
    assert vec_index((0, 0, 1), 3) == 1
    assert index_vec(9, 3, 3) == (1, 0, 0)
    vecs = enumerate_vectors(3, 3)
    for i, row in enumerate(vecs):
        assert vec_index(row, 3) == i
        assert index_vec(i, 3, 3) == tuple(int(c) for c in row)


def test_intersection_dimension_by_rank_against_brute_force():
    # dim(A & B) = dim A + dim B - rank [A; B], the test that decides M & D = 0
    rng = random.Random(23)
    for _ in range(40):
        p, n = 3, 4
        a = Subspace([[rng.randrange(p) for _ in range(n)] for _ in range(2)], p, n)
        b = Subspace([[rng.randrange(p) for _ in range(n)] for _ in range(2)], p, n)
        oracle = span_set(a.basis, p, n) & span_set(b.basis, p, n)
        assert p ** (a.dim + b.dim - rank(np.vstack([a.matrix(), b.matrix()]), p)) == len(oracle)


def lexsort_distinct_rows(rows):
    """Reference: one lexsort pass per column, the first column primary, the
    first row of each equal run."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order[keep]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.uint16, np.uint8])
@pytest.mark.parametrize("shape, top", [((0, 3), 5), ((1, 1), 5), ((40, 1), 4), ((900, 9), 3), ((2000, 27), 2), ((600, 4), 255)])
def test_distinct_rows_matches_the_lexsort_reference(dtype, shape, top):
    # repeated rows, and values filling whole bytes: the sort must be stable
    # and order multi-byte values by magnitude, not by their low byte
    rng = np.random.default_rng(shape[0])
    rows = rng.integers(0, top + 1, shape).astype(dtype)
    if np.iinfo(dtype).max > 2**16:
        rows[::5] *= 257
    rows[1::3] = rows[::3][: len(rows[1::3])]
    assert distinct_rows(rows).tolist() == lexsort_distinct_rows(rows).tolist()


@pytest.mark.parametrize("count, width, chunk, step", [
    (0, 3, None, None),
    (1, 3, None, 21845),
    (100000, 3, None, 21845),  # 65536 // 3
    (70000, 0, None, 65536),  # a zero width counts as 1
    (10000, 130 / 8, None, 4032),  # the closure's n / 8: 8 * 65536 // 130
    (3, 1 << 20, None, 1),  # an item wider than CHUNK is a block alone
    (10, 0, 7, 7),
    (100, 0.125, 7, 56),
    (100, 3, 7, 2),
    (100, 8, 7, 1),
    (20, 0.5, 7, 14),
])
def test_blocks_cover_the_range_once_in_order(monkeypatch, count, width, chunk, step):
    # a patched linalg.CHUNK takes effect at the next call
    if chunk is not None:
        monkeypatch.setattr(linalg, "CHUNK", chunk)
    got = list(blocks(count, width))
    assert [k for b in got for k in range(count)[b]] == list(range(count))
    assert all(b.step is None and b.stop - b.start == step for b in got[:-1])
    assert not got if count == 0 else 0 < got[-1].stop - got[-1].start <= step


def test_first_failure_reads_keys_in_order_and_indices_in_row_major_order():
    ok = np.ones((3, 4, 5), dtype=bool)
    ok[2, 0, 4] = ok[1, 3, 0] = ok[1, 3, 2] = False
    assert first_failure([("a", np.ones(6, dtype=bool)), ("b", ok), ("c", ~ok)]) == ("b", (1, 3, 0))
    assert all(type(i) is int for i in first_failure([(0, ok)])[1])
    # the first failing key wins over an earlier entry of a later array
    assert first_failure([(k, np.arange(4) != 3 - k) for k in range(4)]) == (0, (3,))
    assert first_failure([("scalar", np.bool_(False))]) == ("scalar", ())
    # a pass, an empty iterable, and arrays with no entries all give None
    assert first_failure([(0, ok | True), (1, np.ones((2, 2), dtype=bool))]) is None
    assert first_failure([]) is None
    assert first_failure([(0, np.zeros((0, 3), dtype=bool))]) is None


def test_first_failure_computes_no_pair_after_the_first_failure():
    computed = []

    def tests():
        for k in range(10):
            computed.append(k)
            yield k, np.arange(5) != (2 if k == 3 else 9)

    assert first_failure(tests()) == (3, (2,))
    assert computed == [0, 1, 2, 3]


@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130])
def test_pack_codes_matches_pack_rows(n):
    rng = np.random.default_rng(n)
    codes = np.array([rng.permutation(n)[: min(n, 5)] for _ in range(30)])
    mask = np.zeros((len(codes), n), dtype=bool)
    mask[np.arange(len(codes))[:, None], codes] = True
    assert np.array_equal(pack_codes(codes, n), pack_rows(mask))


def reference_closure(words, span):
    """Reference: the closure that keeps every row's candidates as pack_rows
    words.  An extension's candidates are its parent's, before striking, and
    words[x], less its members."""
    def without(cand, members, n):
        bits = unpack_rows(cand, n)
        bits[np.arange(len(bits))[:, None], members] = False
        return pack_rows(bits)

    def distinct(found):
        merged = [np.concatenate(part) for part in zip(*found)]
        keep = distinct_rows(merged[0])
        return tuple(part[keep] for part in merged)

    n = len(words)
    members = np.arange(n)[:, None]
    cand = without(words, members, n)
    step = max(1, CHUNK // n)
    while True:
        top = np.ones(len(members), dtype=bool)
        found = []
        for lo in range(0, len(members), step):
            live = unpack_rows(cand[lo : lo + step], n)
            rows = np.flatnonzero(live.any(axis=1))
            top[lo + rows] = False
            while rows.size:
                x = live[rows].argmax(axis=1)
                grown = np.sort(span(members[lo + rows], x), axis=1)
                live[rows[:, None], grown] = False
                found.append((grown, lo + rows, x))
                rows = rows[live[rows].any(axis=1)]
        yield members, top
        if not found:
            return
        members, parent, x = distinct(found)
        cand = without(cand[parent] & words[x], members, n)


def closure_layers(closure):
    """Each layer as the sorted list of its (member row, maximal) pairs."""
    return [sorted(zip(map(tuple, members.tolist()), top.tolist())) for members, top in closure]


def assert_closures_agree(words, span):
    got, want = closure_layers(subspace_closure(words, span)), closure_layers(reference_closure(words, span))
    assert got == want
    assert all(top for _, top in got[-1])


# (3, 3, 2) has maximal singular lines and planes side by side
@pytest.mark.parametrize("shape, examples", [((3, 2, 1), 6), ((5, 2, 1), 6), ((3, 2, 2), 6), ((3, 3, 2), 3)])
def test_subspace_closure_matches_the_candidate_word_reference(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        assert_closures_agree(space._adjacency_words, space._affine_span)

    check()


@pytest.mark.parametrize("p, diag", [(3, None), (3, (1, 1, -1)), (5, None)])
def test_subspace_closure_matches_the_reference_on_hyperbolic_words(p, diag):
    space = build_double(3, standard_doubling_base(3, p, diag=diag))
    assert_closures_agree(space._orthogonal_words, space._span_with)


def assert_layers_in_row_order(words, span):
    """Every layer's rows strictly increase lexicographically: sorted and distinct."""
    for members, _ in subspace_closure(words, span):
        rows = members.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("shape, examples", [((3, 2, 1), 6), ((5, 2, 1), 6), ((3, 2, 2), 6), ((3, 3, 2), 3)])
def test_subspace_closure_layers_are_in_lexicographic_row_order(shape, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(space=random_spaces(shape))
    def check(space):
        assert_layers_in_row_order(space._adjacency_words, space._affine_span)

    check()


@pytest.mark.parametrize("p, diag", [(3, None), (3, (1, 1, -1)), (5, None)])
def test_subspace_closure_layers_are_in_lexicographic_row_order_on_hyperbolic_words(p, diag):
    space = build_double(3, standard_doubling_base(3, p, diag=diag))
    assert_layers_in_row_order(space._orthogonal_words, space._span_with)
