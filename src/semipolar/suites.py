"""Named verification suites over a space, each returning a JSON-able report.

Every suite is exhaustive by default and guarded by the enumeration budget;
seeded sampling thins the Python-level quantifier loops for instances above
desk scale.  Reports are deterministic given (instance, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .apsg import SemipolarSpace, canonical_direction
from .autos import (
    PointMap,
    brute_force_aut_group,
    build_from_params,
    build_symplectic_auto,
    compose_params,
    fixes_vertical_direction,
    invertible_matrices,
    multiplier,
    orbit_of,
    point_transitive_auto,
    rho_scaling_constant,
    symplectic_family,
    verify_semiform_scaling,
)
from .errors import DEFAULT_BUDGET, DimensionMismatch, check_budget
from .forms import check_semiform_axioms, group_tables, verify_identities
from .hyperbolic import (
    build_double,
    default_deleted_subspace,
    reconstruction_report,
    standard_doubling_base,
)
from .linalg import LinearMap, pack_rows
from .metric import translation_noninvariance_witness


@dataclass
class SuiteConfig:
    budget: int = DEFAULT_BUDGET
    sample: Optional[int] = None
    seed: int = 0
    oracle_cap: int = 27
    hyp_dim: int = 3
    hyp_diag: Optional[tuple[int, ...]] = None
    field: Optional[int] = None


def _result(name: str, checks: list[dict], data: Optional[dict] = None) -> dict:
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "data": data or {},
    }


def _check(name: str, passed, witness=None, note: str = "") -> dict:
    w = witness
    if w is not None and not isinstance(w, (str, int, list, dict)):
        w = repr(w)
    return {"name": name, "passed": bool(passed), "witness": w, "note": note}


def _maybe_sample(items: list, cfg: SuiteConfig, tag: str) -> list:
    if cfg.sample is None:
        check_budget(len(items), cfg.budget, tag)
        return items
    rng = random.Random(cfg.seed)
    if len(items) <= cfg.sample:
        return items
    return rng.sample(items, cfg.sample)


# -- core algebraic suites ------------------------------------------------------


def suite_axioms(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    report = check_semiform_axioms(
        space.value_table, space.p, space.ydim, space.nu, budget=cfg.budget
    )
    data = {k: v for k, v in report.data.items() if not k.endswith("basis")}
    return _result("axioms", [c.to_jsonable() for c in report.checks], data)


def suite_identities(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    report = verify_identities(space.form, budget=cfg.budget)
    return _result("identities", [c.to_jsonable() for c in report.checks])


def suite_gamma(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    gamma = space.verify_gamma_space()
    parallel = space.verify_parallel_unclosed()
    checks = [c.to_jsonable() for c in gamma.checks + parallel.checks]
    data = {
        "singular_lines": len(space.singular_lines),
        "maximal_singular_subspaces": len(space.maximal_singular_subspaces()),
    }
    return _result("gamma", checks, data)


def suite_lines(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    bases, dirs = space.affine_lines()
    picked = np.array(_maybe_sample(list(range(len(bases))), cfg, "affine lines"), dtype=np.int64)
    bases, dirs = bases[picked], dirs[picked]
    rows = space.line_codes(bases, dirs)
    first, second = np.triu_indices(space.p, 1)
    pair_adj = space.adjacency[rows[:, first], rows[:, second]]
    by_pairs = pair_adj.all(axis=1)
    crit_bad = space.lines_singular(bases, dirs) != by_pairs
    some_bad = pair_adj.any(axis=1) != by_pairs
    crit_wit = some_wit = None
    bad = np.flatnonzero(crit_bad | some_bad)
    if len(bad):
        k = bad[0]
        wit = repr(space.decode_line(bases[k], dirs[k]))
        if crit_bad[k]:
            crit_wit = wit
        else:
            some_wit = wit
    expected = space.size * len(space.u_direction_classes) // space.p
    census_ok = len(space.singular_lines) == expected
    checks = [
        _check("criterion-equivalence", crit_wit is None, crit_wit, "one-equation test equals all-pairs test"),
        _check("one-pair-suffices", some_wit is None, some_wit, "a single adjacent pair makes the line singular"),
        _check("line-census", census_ok, None, f"{len(space.singular_lines)} singular lines"),
    ]
    return _result("lines", checks, {"singular_lines": len(space.singular_lines)})


def suite_dset(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    excluded = space.direction_excluded_set()
    carried = {canonical_direction(l.direction, space.p) for l in space.singular_lines}
    classes = set(space.direction_classes)
    partition_ok = (carried | excluded == classes) and not (carried & excluded)
    checks = [
        _check("partition", partition_ok, None,
               "every direction is excluded or carries a singular line, never both"),
    ]
    if space.nu == 1:
        vertical = next(d for d in space.direction_classes if not any(d.u))
        checks.append(_check("vertical-only", excluded == {vertical}, None,
                             "scalar case: only the vertical direction is excluded"))
    else:
        vertical_in = all(q in excluded for q in space.direction_classes if not any(q.u))
        checks.append(_check("vertical-included", vertical_in, None,
                             "pure V'-directions never carry singular lines"))
    return _result("dset", checks, {"excluded": len(excluded), "classes": len(classes)})


def suite_joinable(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    pts = _maybe_sample(list(space.points), cfg, "points")
    expected = space.p**space.n
    ok, wit = True, None
    for pt in pts:
        members = space.joinable_subspace(pt)
        if len(members) != expected or pt not in members:
            ok, wit = False, pt
            break
    checks = [_check("joinable-size", ok, wit, f"every neighborhood has {expected} points")]
    return _result("joinable", checks, {"expected": expected})


def suite_triangles(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    census = space.triangle_census()
    kernel_dims = {
        space.form.eta.eta_u(u).kernel().dim for u in space.u_direction_classes
    }
    predicted_empty = kernel_dims == {1}
    checks = [
        _check("census-matches-kernel-profile", (census == 0) == predicted_empty, None,
               "no triangles exactly when every partial kernel is a line"),
    ]
    sample = space.triangles_through(space.origin)[:20]
    form_ok = True
    for p0, p1, p2 in sample:
        u = p1.sub(p0, space.p).u
        y = p2.sub(p0, space.p).u
        if any(space.form.eta.eval(u, y)):
            form_ok = False
            break
    checks.append(_check("parametric-form", form_ok, None, "triangle legs have orthogonal directions"))
    return _result("triangles", checks, {"census": census})


# pairs per chunk of the recover checks: bounds the (pairs x |Y|) intermediates
_PAIR_CHUNK = 2048


def _first_failing_pair(space: SemipolarSpace, pairs, fails: Callable):
    """The first pair, in list order, on which `fails(i, j)` (one flag per pair
    of code arrays) holds, as a pair of points, or None."""
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    for lo in range(0, len(i), _PAIR_CHUNK):
        a, b = i[lo : lo + _PAIR_CHUNK], j[lo : lo + _PAIR_CHUNK]
        bad = np.flatnonzero(fails(a, b))
        if bad.size:
            return space.points[a[bad[0]]], space.points[b[bad[0]]]
    return None


def _first_unrecovered(space: SemipolarSpace, pairs):
    """The first pair whose double-neighborhood intersection is not the affine
    line through it, as a pair of points, or None."""

    def fails(i, j):
        line = np.zeros((len(i), space.size), dtype=bool)
        line[np.arange(len(i))[:, None], space.lines_through_pairs(i, j)] = True
        return (space.neighborhood_intersection_words(i, j) != pack_rows(line)).any(axis=1)

    return _first_failing_pair(space, pairs, fails)


def suite_recover(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    star = space.separating_kernels
    checks = [_check("kernel-separation", star, None, "distinct direction kernels separate")]
    if not star:
        return _result("recover", checks, {})
    adj = space.adjacency
    pairs = [(i, int(j)) for i in range(space.size) for j in np.flatnonzero(adj[i]) if j > i]
    pairs = _maybe_sample(pairs, cfg, "adjacent pairs")
    wit = _first_unrecovered(space, pairs)
    checks.append(_check("adjacent-pairs", wit is None, wit, "intersection equals the singular line"))
    if space.nu == 1:
        # scalar case: the double-neighborhood intersection of any distinct
        # non-vertical pair is the full affine line through it; vertical pairs
        # have no common neighbors at all, so the construction degenerates
        all_pairs = [(i, j) for i in range(space.size) for j in range(i + 1, space.size)]
        all_pairs = _maybe_sample(all_pairs, cfg, "point pairs")
        all_pairs = np.array(all_pairs, dtype=np.int64).reshape(-1, 2)
        u = space._coords[:, space.nu :]
        vertical = (u[all_pairs[:, 0]] == u[all_pairs[:, 1]]).all(axis=1)
        wit2 = _first_unrecovered(space, all_pairs[~vertical])
        vert_wit = _first_failing_pair(
            space, all_pairs[vertical], lambda i, j: (adj[i] & adj[j]).any(axis=1)
        )
        checks.append(_check("nonvertical-pairs-affine-line", wit2 is None, wit2,
                             "the intersection is the affine line through the pair"))
        checks.append(_check("vertical-pairs-degenerate", vert_wit is None, vert_wit,
                             "vertical pairs have no common neighbors"))
    return _result("recover", checks, {"pairs": len(pairs)})


def suite_pencil(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    at_origin = space.pencil_structure(space.origin)
    off = space.pencil_structure(space.points[min(5, space.size - 1)])
    checks = [
        _check("origin-isomorphic", at_origin.isomorphic, None,
               "pencil at the origin matches the null system"),
        _check("off-origin-isomorphic", off.isomorphic, None,
               "pencil away from the origin matches as well"),
        _check("pencil-sizes", len(at_origin.lines) == len(off.lines)
               and len(at_origin.planes) == len(off.planes), None),
    ]
    data = {"lines": len(at_origin.lines), "planes": len(at_origin.planes)}
    return _result("pencil", checks, data)


# -- automorphism suites -----------------------------------------------------------


def suite_autos(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    orbit = orbit_of(space, space.origin)
    checks = [_check("transitivity", orbit == set(space.points), None,
                     "shift automorphisms reach every point")]
    shift_ok = True
    for idx in range(0, space.size, max(1, space.size // 9)):
        pmap = point_transitive_auto(space, space.origin, space.points[idx])
        if not pmap.preserves_adjacency() or not verify_semiform_scaling(
            pmap, LinearMap.identity(space.nu, space.p), space
        ):
            shift_ok = False
            break
    checks.append(_check("shift-scaling", shift_ok, None,
                         "shift automorphisms leave the semiform unchanged"))
    if space.nu == 1:
        p = space.p
        phis = [np.eye(space.n, dtype=np.int64), 2 * np.eye(space.n, dtype=np.int64) % p]
        if space.n <= 3:
            mats = invertible_matrices(space.n, p)
            rng = random.Random(cfg.seed)
            phis += [mats[rng.randrange(len(mats))] for _ in range(4)]
        built = []
        for k, mat in enumerate(phis):
            phi = LinearMap(mat, p)
            alpha = multiplier(space.form.eta, phi)
            if alpha is None:
                continue
            built.append(build_symplectic_auto(space, alpha, k % p, (1,) * space.n, phi))
        comp_ok = True
        for (m1, p1), (m2, p2) in combinations(built, 2):
            if build_from_params(space, compose_params(space, p2, p1)) != m2.compose(m1):
                comp_ok = False
                break
        checks.append(_check("composition-rules", comp_ok, None,
                             "composed parameters match pointwise composition"))
    return _result("autos", checks, {"orbit": len(orbit)})


def suite_oracle(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    group = brute_force_aut_group(space, cap=cfg.oracle_cap)
    checks = []
    data = {"group_order": len(group)}
    if space.nu == 1:
        family = symplectic_family(space)
        data["family_order"] = len(family)
        checks.append(_check("family-equality", {m for _, m in family} == set(group), None,
                             "the parametric family is exactly the affine automorphism group"))
        scaling = all(rho_scaling_constant(space, m) for m in group)
        checks.append(_check("scaling-constants", scaling, None,
                             "every member scales the semiform by a nonzero constant"))
    vertical = all(fixes_vertical_direction(space, m) for m in group)
    checks.append(_check("vertical-direction-fixed", vertical, None))
    ident = PointMap(space, LinearMap.identity(space.ydim, space.p), (0,) * space.ydim)
    checks.append(_check("identity-present", ident in set(group), None))
    return _result("oracle", checks, data)


# -- metric suites --------------------------------------------------------------------


def _scalar_only(space: SemipolarSpace, name: str) -> None:
    if space.nu != 1:
        raise DimensionMismatch(f"suite {name} needs a scalar-valued semiform")


def suite_metric(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    _scalar_only(space, "metric")
    t = np.asarray(space.value_table)
    p, size = space.p, space.size
    checks = []

    checks.append(_check("reversal-law", bool((((-t) % p) == t.T).all()), None,
                         "p1p2 = p3p4 iff p2p1 = p4p3"))
    checks.append(_check("degenerate-congruence", bool((t.diagonal() == 0).all()), None,
                         "pp has measure zero, so p1p2 = pp exactly for adjacent pairs"))
    checks.append(_check("swap-congruence", bool(((t == t.T) == (t == 0)).all()), None,
                         "p1p2 = p2p1 iff the points are adjacent"))

    _, padd, _, _, pscl = group_tables(p, space.ydim)
    inv2 = pow(2, p - 2, p)
    mid = pscl[inv2][padd]
    rows = np.arange(size)
    lhs = t[rows[:, None], mid]
    rhs = t[mid, rows[None, :]]
    checks.append(_check("midpoint-congruence", bool((lhs == rhs).all()), None,
                         "p1 (p1+p2)/2 = (p1+p2)/2 p2 for all pairs"))

    counts = np.stack([np.bincount(row, minlength=p) for row in t])
    checks.append(_check("sphere-cardinality", bool((counts == size // p).all()), None,
                         f"every sphere has exactly {size // p} points"))

    witness = translation_noninvariance_witness(space)
    checks.append(_check("translation-noninvariance", witness is not None, None,
                         "a segment and its translate with different measures exists"))
    data = {}
    if witness:
        p1, p2, tr = witness
        data["witness"] = {
            "p1": list(p1.flat()),
            "p2": list(p2.flat()),
            "translation": list(tr.flat()),
            "before": list(space.rho(p1, p2)),
            "after": list(space.rho(p1.add(tr, p), p2.add(tr, p))),
        }
    return _result("metric", checks, data)


def suite_bisectors(space: SemipolarSpace, cfg: SuiteConfig) -> dict:
    _scalar_only(space, "bisectors")
    t = np.asarray(space.value_table)
    p, size = space.p, space.size
    hyper = size // p
    un = p**space.n
    checks = []

    eq_counts = (t[:, None, :] == t[None, :, :]).sum(axis=2)
    idx = np.arange(size)
    vertical = (idx[:, None] % un == idx[None, :] % un) & (idx[:, None] != idx[None, :])
    same = idx[:, None] == idx[None, :]
    expected = np.where(same, size, np.where(vertical, 0, hyper))
    checks.append(_check("t-cardinalities", bool((eq_counts == expected).all()), None,
                         "empty exactly for vertical pairs, hyperplanes otherwise"))

    m_counts = (t[:, None, :] == t.T[None, :, :]).sum(axis=2)
    checks.append(_check("m-cardinalities", bool((m_counts == hyper).all()), None,
                         "every m-bisector is a hyperplane"))

    _, padd, _, _, pscl = group_tables(p, space.ydim)
    inv2 = pow(2, p - 2, p)
    eta_codes = np.asarray(space.form.eta.pair_table(space._coords[:, space.nu:]))
    a_part = idx // un
    polar_ok = True
    for i in range(size):
        mid_row = pscl[inv2][padd[i]]
        m_member = t[i][None, :] == t.T
        nbr = t[mid_row] == 0
        if not (m_member == nbr).all():
            polar_ok = False
            break
        t_member = t[i][None, :] == t
        ortho = (eta_codes - eta_codes[i][None, :]) % p == ((a_part[:, None] - a_part[i]) % p)
        if not (t_member == ortho).all():
            polar_ok = False
            break
    checks.append(_check("polar-correspondence", polar_ok, None,
                         "bisectors match the surrounding null polarity"))

    data = {"hyperplane_size": hyper}
    if size * size <= 1000:
        pairs = [(i, j) for i in range(size) for j in range(size)]

        def dir_id(i, j):
            if i == j:
                return -1
            d = space.points[j].sub(space.points[i], p)
            return space.index(canonical_direction(d, p))

        t_groups: dict[bytes, set] = {}
        m_groups: dict[bytes, set] = {}
        t_ids = {}
        sum_ids = {}
        for i, j in pairs:
            t_ids[(i, j)] = dir_id(i, j)
            sum_ids[(i, j)] = int(padd[i, j])
            t_groups.setdefault((t[i] == t[j]).tobytes(), set()).add(t_ids[(i, j)])
            m_groups.setdefault((t[i] == t.T[j]).tobytes(), set()).add(sum_ids[(i, j)])
        t_crit_ok = all(len(g) == 1 for g in t_groups.values()) and len(t_groups) == len(
            set(t_ids.values())
        )
        m_crit_ok = all(len(g) == 1 for g in m_groups.values()) and len(m_groups) == len(
            set(sum_ids.values())
        )
        checks.append(_check("t-bisector-criterion", t_crit_ok, None,
                             "equal t-bisectors exactly for proportional differences"))
        checks.append(_check("m-bisector-criterion", m_crit_ok, None,
                             "equal m-bisectors exactly for equal sums"))
        data["pair_groups_t"] = len(t_groups)
        data["pair_groups_m"] = len(m_groups)
    return _result("bisectors", checks, data)


def suite_hyperbolic(space: Optional[SemipolarSpace], cfg: SuiteConfig) -> dict:
    p = cfg.field or (space.p if space is not None else 3)
    n = cfg.hyp_dim
    base = standard_doubling_base(n, p, diag=cfg.hyp_diag)
    hyp = build_double(n, base)
    report = reconstruction_report(hyp, default_deleted_subspace(hyp))
    expected_points = (p**n - 1) // (p - 1)
    rec = report["reconstruction"]
    checks = [
        _check("isotropy-equivalence", hyp.isotropy_matches_orthogonal_pairs(), None,
               "doubled-form isotropy detects orthogonal pairs"),
        _check("hyperbolic-type", hyp.hyperbolic_by_discriminant(), None,
               "discriminant classification: maximal index"),
        _check("two-parity-classes",
               report["parity_class_sizes"] == [len(hyp.maximal_singulars()) // 2], None),
        _check("reconstruction-isomorphic", rec["isomorphic"], None),
        _check("class-count", rec["class_count"] == expected_points, None,
               f"one class per deleted projective point ({expected_points})"),
    ]
    return _result("hyperbolic", checks, report)


SUITES: dict[str, Callable] = {
    "axioms": suite_axioms,
    "identities": suite_identities,
    "gamma": suite_gamma,
    "lines": suite_lines,
    "dset": suite_dset,
    "joinable": suite_joinable,
    "triangles": suite_triangles,
    "recover": suite_recover,
    "pencil": suite_pencil,
    "autos": suite_autos,
    "oracle": suite_oracle,
    "metric": suite_metric,
    "bisectors": suite_bisectors,
    "hyperbolic": suite_hyperbolic,
}


def applicable_suites(space: Optional[SemipolarSpace], cfg: SuiteConfig) -> list[str]:
    """The suites `verify --suite all` runs for this instance."""
    if space is None:
        return ["hyperbolic"]
    names = [
        "axioms", "identities", "gamma", "lines", "dset", "joinable",
        "triangles", "recover", "pencil", "autos",
    ]
    if space.nu == 1:
        names += ["metric", "bisectors"]
        if space.size <= cfg.oracle_cap:
            names.append("oracle")
    names.append("hyperbolic")
    return names


def run_suite(name: str, space: Optional[SemipolarSpace], cfg: SuiteConfig) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if name != "hyperbolic" and space is None:
        raise DimensionMismatch(f"suite {name} needs an instance")
    out = SUITES[name](space, cfg)
    out["mode"] = "exhaustive" if cfg.sample is None else {"sample": cfg.sample, "seed": cfg.seed}
    return out
