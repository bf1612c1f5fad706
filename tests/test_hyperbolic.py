"""The doubled polar space, its maximal singular subspaces, reducts, reconstruction."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semipolar import hyperbolic
from semipolar.errors import DegenerateForm, DimensionMismatch, InvalidSubspace
from semipolar.hyperbolic import (
    HypPolarSpace,
    Reconstruction,
    SymmetricForm,
    _classify,
    _hyperplanes_of,
    build_double,
    default_deleted_subspace,
    diagonalize_symmetric,
    is_square,
    reconstruct_deleted_subspace,
    reconstruction_report,
    reduct,
    standard_doubling_base,
)
from semipolar.linalg import (
    Subspace,
    enumerate_subspaces,
    enumerate_vectors,
    projective_classes,
    rank,
    subspace_closure,
)


@pytest.fixture(scope="session")
def hyp_identity():
    return build_double(3, standard_doubling_base(3, 3))


@pytest.fixture(scope="session")
def hyp_diag112():
    return build_double(3, standard_doubling_base(3, 3, diag=(1, 1, -1)))


def brute_force_isotropic_projective_count(space):
    total = 0
    vecs = enumerate_vectors(3, 6)
    for r in vecs[projective_classes(vecs, 3)[0]].tolist():
        if space.zeta.eval(r, r) == 0:
            total += 1
    return total


# -- the symmetric substrate ------------------------------------------------------


def test_symmetric_form_validation():
    with pytest.raises(DimensionMismatch):
        SymmetricForm([[0, 1], [2, 0]], 3)
    with pytest.raises(DegenerateForm):
        SymmetricForm([[1, 0], [0, 0]], 3)
    with pytest.raises(DegenerateForm):
        SymmetricForm([[1, 2], [2, 1]], 3)  # det = -3 = 0 over GF(3)
    f = SymmetricForm([[1, 1], [1, 2]], 3)
    assert f.eval((1, 0), (0, 1)) == 1


def test_diagonalize_symmetric_congruence_invariants():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = rng.integers(0, 3, (n, n))
        g = (m + m.T) % 3
        diag = diagonalize_symmetric(g, 3)
        # rank and discriminant square class are congruence invariants
        from semipolar.linalg import rank

        assert sum(1 for d in diag if d % 3) == rank(g, 3)
        if rank(g, 3) == n:
            disc = 1
            for d in diag:
                disc = disc * d % 3
            det = int(round(np.linalg.det(g.astype(float)))) % 3
            assert is_square(disc, 3) == is_square(det, 3)


def test_is_square_euler():
    assert [a for a in range(1, 5) if is_square(a, 5)] == [1, 4]
    assert [a for a in range(1, 3) if is_square(a, 3)] == [1]


# -- the doubled space -------------------------------------------------------------


def test_double_rejects_small_or_mismatched():
    with pytest.raises(DimensionMismatch):
        build_double(2, standard_doubling_base(2, 3))
    with pytest.raises(DimensionMismatch):
        build_double(3, standard_doubling_base(4, 3))


def test_zeta_is_symmetric_and_detects_orthogonal_pairs(hyp_identity):
    space = hyp_identity
    assert (space.zeta.gram == space.zeta.gram.T).all()
    assert space.isotropy_matches_orthogonal_pairs()
    # direct spot check: zeta([u1,v1],[u2,v2]) = xi(u1,v2) + xi(v1,u2)
    rng = np.random.default_rng(12)
    for _ in range(50):
        x, y = rng.integers(0, 3, 6), rng.integers(0, 3, 6)
        expect = (space.xi.eval(x[:3], y[3:]) + space.xi.eval(x[3:], y[:3])) % 3
        assert space.zeta.eval(x, y) == expect


def test_quadric_point_count_is_hyperbolic(hyp_identity, hyp_diag112):
    q = 3
    expect = (q * q + 1) * (q * q + q + 1)  # 130
    for space in (hyp_identity, hyp_diag112):
        assert len(space.quadric_points) == expect
        assert brute_force_isotropic_projective_count(space) == expect
        assert space.hyperbolic_by_discriminant()


def test_w_by_zero_block_is_singular(hyp_identity):
    space = hyp_identity
    for u1 in enumerate_vectors(3, 3):
        for u2 in enumerate_vectors(3, 3):
            assert space.zeta.eval(tuple(u1) + (0, 0, 0), tuple(u2) + (0, 0, 0)) == 0


def test_line_count(hyp_identity):
    assert len(hyp_identity.lines()) == 520  # 130 * 16 / 4


def test_maximal_singulars_count_and_shape(hyp_identity, hyp_diag112):
    for space in (hyp_identity, hyp_diag112):
        maximals = space.maximal_singulars()
        assert len(maximals) == 80  # 2 (q+1)(q^2+1) over GF(3)
        assert all(m.dim == 3 for m in maximals)
        z = Subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 3)
        assert z in set(maximals)


def test_parity_classes_are_two_equal_halves(hyp_identity):
    classes, rel = hyp_identity.parity_classes()
    assert sorted(set(classes)) == [0, 1]
    assert classes.count(0) == classes.count(1) == 40
    # same-class maximals meet in even-codimension intersections
    maximals = hyp_identity.maximal_singulars()
    for i in range(0, 80, 7):
        for j in range(0, 80, 11):
            inter = maximals[i].intersection(maximals[j])
            assert rel[i, j] == ((3 - inter.dim) % 2 == 0)
            assert (classes[i] == classes[j]) == rel[i, j]


def isotropic_echelon_bases(space, k):
    """Every totally isotropic k-subspace of the doubled space, by its reduced
    echelon basis, built row by row: each row a vector whose first nonzero
    coordinate is 1, its pivot right of the rows before, zero at their pivots,
    and zeta-isotropic and orthogonal to every other row."""
    p, gram = space.p, space.zeta.gram
    vecs = enumerate_vectors(p, 2 * space.n)
    lead = (vecs != 0).argmax(axis=1)
    rows = vecs[(vecs[np.arange(len(vecs)), lead] == 1) & ((vecs @ gram * vecs).sum(axis=1) % p == 0)]
    lead = (rows != 0).argmax(axis=1)
    orth = rows @ gram @ rows.T % p == 0
    bases = np.arange(len(rows))[:, None]
    for _ in range(k - 1):
        ok = lead[None, :] > lead[bases[:, -1]][:, None]
        for col in bases.T:
            ok &= orth[col] & (rows[col][:, lead] == 0)
        i, j = np.nonzero(ok)
        bases = np.concatenate([bases[i], j[:, None]], axis=1)
    return sorted((Subspace.from_echelon(rows[b], p, 2 * space.n) for b in bases), key=lambda s: s.basis)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    base=st.sampled_from([3, 5]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(1, p - 1), min_size=3, max_size=3))
    )
)
@example(base=(3, [1, 1, 1]))
@example(base=(3, [1, 1, 2]))
def test_maximal_singulars_equal_brute_force(base):
    # random nondegenerate diagonal forms on GF(p)^3: the lines and the maximal
    # subspaces equal the echelon enumeration, and no isotropic 4-subspace exists
    p, diag = base
    space = build_double(3, standard_doubling_base(3, p, diag=diag))
    for found, k in ((space.lines(), 2), (space.maximal_singulars(), 3)):
        expected = isotropic_echelon_bases(space, k)
        assert len(found) == len(expected) and set(found) == set(expected)
    assert isotropic_echelon_bases(space, 4) == []
    # maximal_singulars() is decoded in the order of the masks
    for k, x in enumerate(space.maximal_singulars()):
        assert (space.point_mask(x) == space._maximal_masks[k]).all()


@pytest.mark.parametrize("n, p", [(3, 3), (3, 5), (4, 3)])
def test_reconstruction_report_reduces_no_member_rows(n, p, monkeypatch):
    # the layers stay member rows: the report needs no echelon basis, so it
    # runs with the engine's rref gone
    def refuse(*args, **kwargs):
        raise AssertionError("rref called on the reconstruction path")

    monkeypatch.setattr(hyperbolic, "rref", refuse)
    space = build_double(n, standard_doubling_base(n, p))
    report = reconstruction_report(space, default_deleted_subspace(space))
    assert report["reconstruction"]["isomorphic"] is True
    with pytest.raises(AssertionError):
        space.lines()


def test_closure_spans_each_extension_once(hyp_identity):
    # a subspace S has one candidate per point of each extension U outside S,
    # and the first of them strikes the rest, so every U is spanned once from
    # each of its hyperplanes; a projective U has as many hyperplanes as points
    space, spans = hyp_identity, []

    def span(members, x):
        spans.append(len(x))
        return space._span_with(members, x)

    closure = subspace_closure(space._orthogonal_words, span)
    layers = []
    for count, (members, top) in zip([130, 520, 80], closure):
        assert len(members) == count
        assert top.all() == (count == 80) and top.any() == top.all()
        layers.append(members)
    assert sum(spans) == layers[1].size + layers[2].size


def test_parity_classes_match_rank_definition(hyp_identity, hyp_diag112):
    for space in (hyp_identity, hyp_diag112):
        classes, rel = space.parity_classes()
        maximals = space.maximal_singulars()
        for i, a in enumerate(maximals):
            for j in range(i, len(maximals)):
                b = maximals[j]
                inter = a.dim + b.dim - rank(np.vstack([a.matrix(), b.matrix()]), 3)
                expect = (a.dim - inter) % 2 == 0
                assert rel[i, j] == rel[j, i] == expect
                assert (classes[i] == classes[j]) == expect


def test_reconstruction_over_gf5():
    space = build_double(3, standard_doubling_base(3, 5))
    report = reconstruction_report(space, default_deleted_subspace(space))
    assert report["quadric_points"] == 806  # (q^2 + 1)(q^2 + q + 1)
    assert report["polar_lines"] == 4836
    assert report["maximal_singulars"] == 312  # 2 (q + 1)(q^2 + 1)
    assert report["parity_class_sizes"] == [156]
    assert report["reconstruction"]["class_count"] == 31  # points of PG(2, 5)
    assert report["reconstruction"]["isomorphic"] is True


def test_reconstruction_base_dimension_four():
    # Z is PG(3, 3): two recovered points lie on several recovered hyperplanes,
    # and the recovered line is the meet of all of them
    space = build_double(4, standard_doubling_base(4, 3))
    rec = reconstruct_deleted_subspace(reduct(space, default_deleted_subspace(space)))
    assert rec.class_count == 40  # points of PG(3, 3)
    assert rec.r1_size == 40  # one per plane of PG(3, 3)
    assert rec.lines_ok and rec.isomorphic


@pytest.mark.parametrize("n, p", [(3, 3), (4, 3), (3, 5)])
def test_hyperplane_masks_match_enumerated_subspaces(n, p):
    # the masks from normalized c with c . g = 0 against the spans of the
    # enumerated (dim Z - 1)-subspaces of coordinate space, mapped into Z
    space = build_double(n, standard_doubling_base(n, p))
    coeffs = np.array([s.matrix() for s in enumerate_subspaces(n - 1, n, p)])
    for z in (default_deleted_subspace(space), space.maximal_singulars()[-1]):
        expected = space._span_masks(coeffs @ z.matrix() % p)
        masks = _hyperplanes_of(space, z)
        assert len(masks) == len(expected) == (p**n - 1) // (p - 1)
        assert (masks.sum(axis=1) == (p ** (n - 1) - 1) // (p - 1)).all()
        assert {row.tobytes() for row in masks} == {row.tobytes() for row in expected}


# -- reducts --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def red_identity(hyp_identity):
    z = Subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 3)
    return reduct(hyp_identity, z)


def reduct_lines(red):
    """The reduct lines as sets of quadric points: each kept polar line less
    the deleted subspace."""
    pts = red.space.quadric_points
    return [frozenset(pts[i] for i in line[~red.z_mask[line]].tolist()) for line in red.line_members]


def inc_relation(red, x0, x1):
    """Do the clipped maximals X0 \\ Z and X1 \\ Z share a reduct line?

    Any shared line spans the full intersection of X0 and X1, so the test
    reduces to that intersection being a 2-subspace whose clipped point set
    is a reduct line.
    """
    space = red.space
    inter = space.point_mask(x0) & space.point_mask(x1)
    if inter.sum() != space.p + 1:
        return False
    pts = space.quadric_points
    clipped = frozenset(pts[i] for i in np.flatnonzero(inter & ~red.z_mask).tolist())
    return len(clipped) >= 2 and clipped in set(reduct_lines(red))


def test_reduct_point_and_line_counts(red_identity):
    red = red_identity
    assert (~red.z_mask).sum() == 130 - 13
    assert red.z_mask.sum() == 13
    # lines wholly inside the deleted plane disappear; lines meeting it in one
    # point survive with 3 points; disjoint ones keep all 4
    lines = reduct_lines(red)
    assert {len(l) for l in lines} == {3, 4}
    assert len(set(lines)) == len(lines)
    inside = [l for l in red.space.lines() if not (red.space.point_mask(l) & ~red.z_mask).any()]
    assert len(lines) == 520 - len(inside)
    assert len(inside) == 13  # the 13 lines of the deleted projective plane


def test_reduct_rejects_non_maximal(hyp_identity):
    with pytest.raises(InvalidSubspace):
        reduct(hyp_identity, Subspace([(1, 0, 0, 0, 0, 0)], 3))
    # so are a subspace that is not totally isotropic and one of the wrong
    # ambient dimension
    with pytest.raises(InvalidSubspace):
        reduct(hyp_identity, Subspace([(1, 0, 0, 1, 0, 0)], 3))
    with pytest.raises(InvalidSubspace):
        reduct(hyp_identity, Subspace(np.eye(3, 4, dtype=np.int64), 3))


def test_classification_sizes(red_identity):
    r0, r1, other = _classify(red_identity)
    assert len(r0) == 39  # same parity class as Z, minus Z itself
    assert len(r1) == 13  # opposite class, meeting Z in a line
    assert len(other) == 27  # opposite class, disjoint from Z
    assert len(r0) + len(r1) + len(other) == 79
    maximals = red_identity.space.maximal_singulars()
    for idx, dim in ((r0, 1), (r1, 2), (other, 0)):
        for i in idx.tolist():
            assert maximals[i].intersection(red_identity.z).dim == dim


def test_surviving_maximals_are_maximal_cliques(red_identity):
    red = red_identity
    pts = red.space.quadric_points
    point_set = {pts[i] for i in np.flatnonzero(~red.z_mask).tolist()}
    for x in red.space.maximal_singulars()[:12]:
        if x == red.z:
            continue
        members = [pts[i] for i in np.flatnonzero(red.space.point_mask(x) & ~red.z_mask)]
        for a, b in combinations(members, 2):
            assert red.space.zeta.eval(a, b) == 0
        # no outside point is collinear with all members
        for r in point_set - set(members):
            assert not all(red.space.zeta.eval(r, m) == 0 for m in members)


def test_inc_relation_routes_agree(red_identity):
    red = red_identity
    r0, r1, _ = _classify(red)
    maximals = red.space.maximal_singulars()
    pts = red.space.quadric_points

    lines = reduct_lines(red)

    def clipped(x):
        return {pts[i] for i in np.flatnonzero(red.space.point_mask(x) & ~red.z_mask)}

    for x0 in (maximals[i] for i in r0[:10].tolist()):
        j0 = clipped(x0)
        for x1 in (maximals[i] for i in r1.tolist()):
            got = inc_relation(red, x0, x1)
            j1 = clipped(x1)
            brute = any(l <= j0 and l <= j1 for l in lines)
            assert got == brute
            # ground truth: the improper point lies on the improper line
            pt = x0.intersection(red.z).matrix()[0]
            line = x1.intersection(red.z)
            assert got == (rank(np.vstack([line.matrix(), pt]), 3) == line.dim)


# -- reconstruction ---------------------------------------------------------------------


def test_reconstruction_identity_form(red_identity):
    rec = reconstruct_deleted_subspace(red_identity)
    assert rec.class_count == 13  # the 13 points of the deleted projective plane
    assert rec.r0_size == 39 and rec.r1_size == 13 and rec.other_size == 27
    assert all(len(members) == 3 for members in rec.classes)
    assert rec.point_map_ok and rec.hyperplane_map_ok
    assert rec.incidence_ok and rec.lines_ok
    assert rec.isomorphic


def test_reconstruction_classes_match_inc_relation(red_identity, hyp_diag112):
    z = next(
        m
        for m in hyp_diag112.maximal_singulars()
        if not m.matrix()[:, 3:].any()
    )
    for red in (red_identity, reduct(hyp_diag112, z)):
        r0, r1, _ = _classify(red)
        maximals = red.space.maximal_singulars()
        groups = {}
        for i, a in enumerate(r0.tolist()):
            profile = tuple(inc_relation(red, maximals[a], maximals[b]) for b in r1.tolist())
            groups.setdefault(profile, []).append(i)
        assert reconstruct_deleted_subspace(red).classes == sorted(groups.values())


def test_reconstruction_diag112(hyp_diag112):
    z = next(
        m
        for m in hyp_diag112.maximal_singulars()
        if not m.matrix()[:, 3:].any()
    )
    rec = reconstruct_deleted_subspace(reduct(hyp_diag112, z))
    assert rec.class_count == 13
    assert rec.isomorphic


def test_reconstruction_for_several_deleted_subspaces(hyp_identity):
    maximals = hyp_identity.maximal_singulars()
    for z in maximals[::13]:
        rec = reconstruct_deleted_subspace(reduct(hyp_identity, z))
        assert rec.class_count == 13
        assert rec.isomorphic


def test_reconstruction_report_shape(hyp_identity):
    z = Subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 3)
    report = reconstruction_report(hyp_identity, z)
    assert report["quadric_points"] == 130
    assert report["maximal_singulars"] == 80
    assert report["parity_class_sizes"] == [40]
    assert report["reduct_points"] == 117
    assert report["reconstruction"]["isomorphic"] is True
    assert report["reconstruction"]["class_count"] == 13
