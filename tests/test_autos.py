"""Automorphism construction, validity conditions, composition, and the oracle sweep."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semipolar.apsg import Point, SemipolarSpace
from semipolar.autos import (
    PointMap,
    brute_force_aut_group,
    build_general_auto,
    compose_params,
    fixes_vertical_direction,
    invertible_matrices,
    multiplier,
    orbit_of,
    point_transitive_auto,
    rho_scaling_constant,
    shift_images,
    symplectic_family,
    verify_semiform_scaling,
)
from semipolar.errors import EnumerationTooLarge, NotCompatible
from semipolar.forms import AlternatingMap
from semipolar import linalg
from semipolar.linalg import LinearMap
from test_forms import random_semiforms


def P(v, u):
    return Point(tuple(v), tuple(u))


def preserves_adjacency(pmap):
    """The map sends adjacent pairs to adjacent pairs and only those."""
    adj, perm = pmap.space.adjacency, pmap.perm
    return bool((adj[np.ix_(perm, perm)] == adj).all())


# -- matrix sweeps -------------------------------------------------------------


def test_invertible_matrix_counts():
    assert len(invertible_matrices(1, 3)) == 2
    assert len(invertible_matrices(2, 3)) == (9 - 1) * (9 - 3)
    assert len(invertible_matrices(3, 3)) == (27 - 1) * (27 - 3) * (27 - 9)
    assert len(invertible_matrices(2, 5)) == (25 - 1) * (25 - 5)
    with pytest.raises(EnumerationTooLarge):
        invertible_matrices(4, 3)


# -- multipliers ----------------------------------------------------------------


def test_multiplier_identity_and_scalars(sp_m1_gf3):
    eta = sp_m1_gf3.form.eta
    assert multiplier(eta, LinearMap.identity(2, 3)) == 1
    for c in (1, 2):
        assert multiplier(eta, LinearMap([[c, 0], [0, c]], 3)) == (c * c) % 3


def test_multiplier_basis_swap_is_minus_one(sp_m1_gf3):
    eta = sp_m1_gf3.form.eta
    swap = LinearMap([[0, 1], [1, 0]], 3)
    assert multiplier(eta, swap) == 2  # -1 mod 3


def test_multiplier_dim2_always_det(sp_m1_gf3):
    eta = sp_m1_gf3.form.eta
    for mat in invertible_matrices(2, 3):
        det = int(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]) % 3
        assert multiplier(eta, LinearMap(mat, 3)) == det


def test_multiplier_none_for_incompatible_map(sp_m2_gf3):
    eta = sp_m2_gf3.form.eta
    # swapping one hyperbolic pair but not the other has no single multiplier
    mat = np.eye(4, dtype=np.int64)
    mat[[0, 1]] = mat[[1, 0]]
    assert multiplier(eta, LinearMap(mat, 3)) is None


def test_multiplier_multiplicative(sp_m1_gf3):
    eta = sp_m1_gf3.form.eta
    rng = np.random.default_rng(4)
    mats = invertible_matrices(2, 3)
    for _ in range(30):
        a, b = (mats[int(i)] for i in rng.integers(0, len(mats), 2))
        fa, fb = LinearMap(a, 3), LinearMap(b, 3)
        assert multiplier(eta, fa.compose(fb)) == (
            multiplier(eta, fa) * multiplier(eta, fb)
        ) % 3


# (p, n, nu) of the random alternating maps: scalar, two- and three-dimensional
# values over GF(3), scalar over GF(5)
TWIST_SHAPES = [(3, 2, 1), (3, 4, 1), (3, 3, 2), (3, 3, 3), (5, 2, 1), (5, 4, 1)]


@st.composite
def nondegenerate_maps_and_bijections(draw):
    """A random nondegenerate alternating map, a random linear bijection of V and
    a nonzero scalar."""
    p, n, nu = draw(st.sampled_from(TWIST_SHAPES))
    coeff = st.integers(0, p - 1)
    upper = {
        (i, j): tuple(draw(coeff) for _ in range(nu)) for i, j in combinations(range(n), 2)
    }
    eta = AlternatingMap(p, n, nu, upper)
    assume(eta.is_nondegenerate())
    phi = LinearMap([[draw(coeff) for _ in range(n)] for _ in range(n)], p)
    assume(phi.is_bijective())
    return eta, phi, draw(st.integers(1, p - 1))


def pullback_by_definition(eta, phi):
    """eta(phi e_i, phi e_j) for every basis pair, one pointwise evaluation each."""
    cols = phi.matrix.T
    return np.array([[eta.eval(a, b) for b in cols] for a in cols], dtype=np.int64)


def multiplier_by_definition(eta, phi):
    """The alpha in GF(p)* with eta(phi e_i, phi e_j) = alpha eta(e_i, e_j) on all
    pairs i < j, found by trying every alpha, or None."""
    p = eta.p
    pairs = list(combinations(range(eta.n), 2))
    for alpha in range(1, p):
        if all(
            eta.eval(phi.matrix[:, i], phi.matrix[:, j])
            == tuple(alpha * int(c) % p for c in eta.gram[i, j])
            for i, j in pairs
        ):
            return alpha
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=nondegenerate_maps_and_bijections())
def test_pullback_and_multiplier_match_their_definitions(case):
    eta, phi, c = case
    # c times the identity has the multiplier c^2, so the non-None branch is
    # reached on every shape, and a random phi mostly gives None for n > 2
    for f in (phi, LinearMap(c * np.eye(eta.n, dtype=np.int64), eta.p)):
        pulled = eta.pullback(f)
        assert pulled.shape == (eta.n, eta.n, eta.nu)
        assert (pulled == pullback_by_definition(eta, f)).all()
        assert multiplier(eta, f) == multiplier_by_definition(eta, f)


def test_multiplier_of_the_zero_map():
    zero = AlternatingMap(3, 2, 1, {})
    assert multiplier(zero, LinearMap([[0, 1], [1, 1]], 3)) == 1


# -- general automorphisms ---------------------------------------------------------


def test_identity_params_give_identity_map(sp_m1_gf3):
    pmap, params = build_general_auto(
        sp_m1_gf3,
        LinearMap.identity(1, 3),
        LinearMap.identity(2, 3),
        (0, 0),
        (0,),
    )
    assert (pmap.perm == np.arange(27)).all()
    assert params.psi2.matrix.tolist() == [[0, 0]]


def test_shift_auto_matches_closed_formula(sp_m1_gf3):
    space = sp_m1_gf3
    u0, v0 = (1, 2), (2,)
    pmap, _ = build_general_auto(
        space, LinearMap.identity(1, 3), LinearMap.identity(2, 3), u0, v0
    )
    for pt in space.points:
        e = space.form.eta.eval(pt.u, u0)[0]
        expect = P(((pt.v[0] + e + v0[0]) % 3,), tuple((a + b) % 3 for a, b in zip(pt.u, u0)))
        assert pmap(pt) == expect


def test_general_auto_preserves_adjacency_batch(sp_m1_gf3, sp_cross_gf3):
    # scalar: psi1 is the multiplier; vector-valued: swap two coordinates of V
    space = sp_m1_gf3
    swap = LinearMap([[0, 1], [1, 0]], 3)
    pmap, _ = build_general_auto(space, LinearMap([[2]], 3), swap, (1, 0), (2,))
    assert preserves_adjacency(pmap)

    cross = sp_cross_gf3
    # permuting coordinates of V by a 3-cycle twists the vector product by the
    # same 3-cycle on V' (even permutation, determinant 1)
    cyc = LinearMap([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3)
    pmap2, _ = build_general_auto(cross, cyc, cyc, (0, 1, 2), (1, 0, 0))
    assert preserves_adjacency(pmap2)


def test_general_auto_rejects_incompatible_twist(sp_m1_gf3):
    with pytest.raises(NotCompatible):
        build_general_auto(
            sp_m1_gf3, LinearMap([[2]], 3), LinearMap.identity(2, 3), (0, 0), (0,)
        )
    with pytest.raises(NotCompatible):
        build_general_auto(
            sp_m1_gf3, LinearMap([[0]], 3), LinearMap.identity(2, 3), (0, 0), (0,)
        )
    with pytest.raises(NotCompatible):
        build_general_auto(
            sp_m1_gf3, LinearMap.identity(1, 3), LinearMap([[1, 1], [0, 0]], 3), (0, 0), (0,)
        )


def test_semiform_scaling_verification(sp_m1_gf3, sp_m1_gf5):
    space = sp_m1_gf3
    ident = PointMap(space, LinearMap.identity(3, 3), (0, 0, 0))
    assert verify_semiform_scaling(ident, LinearMap.identity(1, 3), space)

    pmap = point_transitive_auto(space, space.origin, P((1,), (2, 0)))
    assert verify_semiform_scaling(pmap, LinearMap.identity(1, 3), space)

    gf5 = sp_m1_gf5
    pmap5, _ = build_general_auto(gf5, LinearMap([[2]], 5), LinearMap([[2, 0], [0, 1]], 5), (0, 0), (0,))
    assert verify_semiform_scaling(pmap5, LinearMap([[2]], 5), gf5)
    assert not verify_semiform_scaling(pmap5, LinearMap.identity(1, 5), gf5)


def test_point_transitive_auto_hits_target(sp_m1_gf3, sp_cross_gf3):
    for space in (sp_m1_gf3, sp_cross_gf3):
        src = space.points[3]
        for dst in (space.origin, space.points[10], space.points[-1]):
            pmap = point_transitive_auto(space, src, dst)
            assert pmap(src) == dst
            assert preserves_adjacency(pmap)


def test_orbit_of_origin_is_everything(sp_m1_gf3, sp_cross_gf3):
    for space in (sp_m1_gf3, sp_cross_gf3):
        assert orbit_of(space, space.origin) == set(space.points)


def assert_shift_images_match_the_maps(space, starts):
    for start in starts:
        start = space.points[start]
        images = shift_images(space, start)
        for dst, got in zip(space.points, images.tolist()):
            assert space.points[got] == point_transitive_auto(space, start, dst)(start)


@pytest.mark.parametrize("instance", ["sp_m1_gf3", "sp_m2_gf3", "sp_cross_gf3", "sp_wedge3_gf3"])
def test_shift_images_match_point_transitive_auto(request, instance):
    space = request.getfixturevalue(instance)
    assert_shift_images_match_the_maps(space, [0, 5, space.size - 1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rho=random_semiforms(), data=st.data())
def test_shift_images_match_point_transitive_auto_on_random_forms(rho, data):
    space = SemipolarSpace(rho)
    starts = data.draw(st.lists(st.integers(0, space.size - 1), min_size=3, max_size=3))
    assert_shift_images_match_the_maps(space, starts)


# -- symplectic automorphisms: the general maps at nu = 1 ------------------------


def scalar_auto(space, alpha, b, w, phi):
    """The map [a,u] -> [alpha*a + v.u + b, phi(u) + w] of a scalar space."""
    return build_general_auto(space, LinearMap([[alpha]], space.p), phi, w, (b,))


def test_vertical_translation_is_an_automorphism(sp_m1_gf3):
    pmap, _ = scalar_auto(sp_m1_gf3, 1, 2, (0, 0), LinearMap.identity(2, 3))
    assert preserves_adjacency(pmap)
    for pt in sp_m1_gf3.points:
        assert pmap(pt) == P(((pt.v[0] + 2) % 3,), pt.u)


def test_translation_with_nonzero_w_is_not_an_automorphism(sp_m1_gf3):
    # as a pure translation (identity linear part) adjacency breaks for w != 0
    space = sp_m1_gf3
    for w in [(1, 0), (0, 1), (2, 1)]:
        tau = PointMap(space, LinearMap.identity(3, 3), (1,) + w)
        assert not preserves_adjacency(tau)
        # the shift-scaling test of the autos suite rejects it as well
        assert not verify_semiform_scaling(tau, LinearMap.identity(1, 3), space)
    tau0 = PointMap(space, LinearMap.identity(3, 3), (1, 0, 0))
    assert preserves_adjacency(tau0)


def test_compose_params_identity_and_translations(sp_m1_gf3):
    space = sp_m1_gf3
    _, ident = scalar_auto(space, 1, 0, (0, 0), LinearMap.identity(2, 3))
    _, f = scalar_auto(space, 1, 2, (0, 0), LinearMap.identity(2, 3))
    _, c = compose_params(space, f, ident)
    assert c == f
    _, g = scalar_auto(space, 1, 1, (0, 0), LinearMap.identity(2, 3))
    _, c = compose_params(space, f, g)
    assert c.v0 == (0,)  # 2 + 1 mod 3
    assert c == ident


def test_compose_params_matches_pointwise_composition(sp_m1_gf3):
    space = sp_m1_gf3
    rng = np.random.default_rng(8)
    mats = invertible_matrices(2, 3)
    for _ in range(25):
        picks = []
        for _ in range(2):
            mat = mats[int(rng.integers(0, len(mats)))]
            phi = LinearMap(mat, 3)
            alpha = multiplier(space.form.eta, phi)
            w = tuple(int(c) for c in rng.integers(0, 3, 2))
            b = int(rng.integers(0, 3))
            picks.append(scalar_auto(space, alpha, b, w, phi))
        (m1, p1), (m2, p2) = picks
        composed, _ = compose_params(space, p2, p1)
        assert composed == m2.compose(m1)


def test_compose_params_associative_pointwise(sp_m1_gf3):
    space = sp_m1_gf3
    phi = LinearMap([[0, 1], [1, 0]], 3)
    _, pa = scalar_auto(space, 2, 1, (1, 0), phi)
    _, pb = scalar_auto(space, 1, 0, (0, 1), LinearMap.identity(2, 3))
    _, pc = scalar_auto(space, 2, 2, (1, 1), phi)
    left, _ = compose_params(space, compose_params(space, pa, pb)[1], pc)
    right, _ = compose_params(space, pa, compose_params(space, pb, pc)[1])
    assert left == right


def cofactor(mat, p):
    """The cofactor matrix of an integer matrix, mod p: det(M) M^-T."""
    n = len(mat)
    cof = [[(-1) ** (i + j) * round(np.linalg.det(np.delete(np.delete(mat, i, 0), j, 1)))
            for j in range(n)] for i in range(n)]
    return LinearMap(np.array(cof) % p, p)


@pytest.fixture(scope="module")
def cross_autos(sp_cross_gf3):
    """Nine general maps of the cross GF(3) space (nu = 3): phi a seeded draw
    from GL(3, 3) and psi1 its cofactor matrix, as (phi a) x (phi b) =
    cof(phi)(a x b), with seeded shifts."""
    space = sp_cross_gf3
    rng = np.random.default_rng(29)
    mats = invertible_matrices(3, 3)
    out = []
    for _ in range(9):
        mat = mats[int(rng.integers(0, len(mats)))]
        out.append(build_general_auto(space, cofactor(mat, 3), LinearMap(mat, 3),
                                      rng.integers(0, 3, 3), rng.integers(0, 3, 3)))
    assert len({g.psi1 for _, g in out}) > 1
    return out


def test_general_composition_matches_pointwise_composition(sp_cross_gf3, cross_autos):
    for (m2, g2), (m1, g1) in product(cross_autos, repeat=2):
        composed, _ = compose_params(sp_cross_gf3, g2, g1)
        assert composed == m2.compose(m1)


def test_general_composition_is_associative(sp_cross_gf3, cross_autos):
    space = sp_cross_gf3
    params = [g for _, g in cross_autos]
    for ga, gb, gc in combinations(params, 3):
        left = compose_params(space, compose_params(space, ga, gb)[1], gc)
        right = compose_params(space, ga, compose_params(space, gb, gc)[1])
        assert left[1] == right[1]
        assert left[0] == right[0]


def test_general_composition_parts_pass_the_twist_test(sp_cross_gf3, cross_autos):
    # the composed parts rebuild to the same map, and its psi2 is the block
    # product's psi1_2 psi2_1 + psi2_2 phi_1
    space = sp_cross_gf3
    for (m2, g2), (m1, g1) in product(cross_autos, repeat=2):
        pmap, g3 = compose_params(space, g2, g1)
        assert build_general_auto(space, g3.psi1, g3.phi, g3.u0, g3.v0) == (pmap, g3)
        psi2 = (g2.psi1.matrix @ g1.psi2.matrix + g2.psi2.matrix @ g1.phi.matrix) % 3
        assert (g3.psi2.matrix == psi2).all()


def test_symplectic_family_is_the_general_map_with_psi1_alpha(sp_m1_gf3):
    # each member is F([v,u]) = [alpha v + psi2(u) + b, phi(u) + w], and psi2 is
    # the row v with v_j = eta(phi e_j, w)
    space = sp_m1_gf3
    eta = space.form.eta
    for params, pmap in symplectic_family(space):
        alpha, (b,), w = int(params.psi1.matrix[0, 0]), params.v0, params.u0
        assert params.psi1 == LinearMap([[multiplier(eta, params.phi)]], 3)
        general, g = scalar_auto(space, alpha, b, w, params.phi)
        assert general == pmap
        assert g == params
        v = [eta.eval(params.phi.matrix[:, j], w)[0] for j in range(space.n)]
        assert params.psi2.matrix[0].tolist() == v
        block = np.zeros((3, 3), dtype=np.int64)
        block[0] = [alpha, *v]
        block[1:, 1:] = params.phi.matrix
        assert PointMap(space, LinearMap(block, 3), (b, *w)) == pmap


def test_family_and_oracle_rank_test_each_matrix_once(sp_m1_gf3, monkeypatch):
    # phi is tested once for all its (w, b), and the oracle's linear parts
    # come from the one batched rank test of invertible_matrices
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(args) or rref(*args))
    phis = invertible_matrices(sp_m1_gf3.n, 3)
    family = symplectic_family(sp_m1_gf3)
    assert len(family) == len(phis) * 3 ** (sp_m1_gf3.n + 1)
    assert len(calls) <= 2 + len(phis)
    calls.clear()
    brute_force_aut_group(sp_m1_gf3)
    assert len(calls) == 1
    # the public constructor still tests what it is given
    with pytest.raises(NotCompatible):
        PointMap(sp_m1_gf3, LinearMap([[1, 0, 0], [0, 1, 2], [0, 1, 2]], 3), (0, 0, 0))


# -- the oracle --------------------------------------------------------------------


def test_oracle_cap_enforced(sp_m2_gf3):
    with pytest.raises(EnumerationTooLarge):
        brute_force_aut_group(sp_m2_gf3)


def test_oracle_count_and_contents(sp_m1_gf3, oracle_m1_gf3):
    oracle = oracle_m1_gf3
    # predicted: |GL(2,3)| * 3^2 * 3 parameter choices, all distinct maps
    assert len(oracle) == 48 * 9 * 3 == 1296
    assert len({m for m in oracle}) == 1296
    ident = PointMap(sp_m1_gf3, LinearMap.identity(3, 3), (0, 0, 0))
    assert ident in set(oracle)


def test_oracle_equals_parametric_family(sp_m1_gf3, oracle_m1_gf3):
    family = symplectic_family(sp_m1_gf3)
    assert len(family) == 1296
    assert {m for _, m in family} == set(oracle_m1_gf3)


def test_every_oracle_member_scales_rho(sp_m1_gf3, oracle_m1_gf3):
    for pmap in oracle_m1_gf3:
        alpha = rho_scaling_constant(sp_m1_gf3, pmap)
        assert alpha is not None and alpha != 0


def test_every_oracle_member_fixes_vertical_direction(sp_m1_gf3, oracle_m1_gf3):
    assert all(fixes_vertical_direction(sp_m1_gf3, m) for m in oracle_m1_gf3)


def test_rho_scalers_preserve_equidistance(sp_m1_gf3, oracle_m1_gf3):
    # if rho scales by a fixed alpha, equality of rho values is preserved
    space = sp_m1_gf3
    t = space.value_table
    for pmap in oracle_m1_gf3[:50]:
        perm = pmap.perm
        mapped = t[np.ix_(perm, perm)]
        same = t[:, :, None] == t[:, None, :]
        same_mapped = mapped[:, :, None] == mapped[:, None, :]
        assert (same == same_mapped).all()


# -- serialization -------------------------------------------------------------------


def test_family_export_is_a_json_list(sp_m1_gf3):
    family = symplectic_family(sp_m1_gf3)
    assert len(family) == 1296
    # rebuilding from the parameters reproduces distinct maps
    rebuilt = set()
    for params, _ in family[:30]:
        pmap, _ = build_general_auto(sp_m1_gf3, params.psi1, params.phi, params.u0, params.v0)
        rebuilt.add(pmap)
    assert len(rebuilt) == 30
