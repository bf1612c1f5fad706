"""Named verification suites over a space, each returning a Report.

Every suite is exhaustive by default and guarded by the enumeration budget;
seeded sampling thins the quantifiers of `lines`, `joinable` and `recover`
for instances above desk scale, and only those suites report a sampled mode.
Reports are deterministic given (instance, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .apsg import SemipolarSpace, neighborhood_intersections
from .autos import (
    ORACLE_CAP,
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
from .errors import DEFAULT_BUDGET, DegenerateForm, DimensionMismatch, check_budget
from .forms import Report, check_semiform_axioms, group_tables, verify_identities
from .hyperbolic import (
    build_double,
    default_deleted_subspace,
    reconstruction_report,
    standard_doubling_base,
)
from .linalg import (
    CHUNK,
    LinearMap,
    and_tables,
    distinct_rows,
    encode_vecs,
    first_occurrences,
    normalize_rows,
    pack_codes,
    pack_rows,
)
from .metric import translation_noninvariance_witness


@dataclass
class SuiteConfig:
    budget: int = DEFAULT_BUDGET
    sample: Optional[int] = None
    seed: int = 0
    hyp_dim: int = 3
    hyp_diag: Optional[tuple[int, ...]] = None
    field: Optional[int] = None


SAMPLING_SUITES = ("lines", "joinable", "recover")  # the suites that read cfg.sample


def _maybe_sample(count: int, cfg: SuiteConfig, tag: str) -> np.ndarray:
    """Indices of the items a suite quantifies over, out of `count`: all of them
    within the budget, or a seeded sample of `cfg.sample` in sampled mode."""
    if cfg.sample is None:
        check_budget(count, cfg.budget, tag)
        return np.arange(count)
    if count <= cfg.sample:
        return np.arange(count)
    return np.array(random.Random(cfg.seed).sample(range(count), cfg.sample), dtype=np.int64)


# -- core algebraic suites ------------------------------------------------------


def suite_axioms(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    return check_semiform_axioms(space.value_table, space.p, space.ydim, space.nu, budget=cfg.budget)


def suite_identities(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    return verify_identities(space.value_table, space.form, budget=cfg.budget)


def suite_gamma(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    report = space.verify_gamma_space()
    report.checks += space.verify_parallel_unclosed().checks
    report.data = {
        "singular_lines": len(space.singular_line_codes[0]),
        "maximal_singular_subspaces": sum(map(len, space.maximal_subspace_codes)),
    }
    return report


def suite_lines(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    bases, dirs = space.affine_lines()
    picked = _maybe_sample(len(bases), cfg, "affine lines")
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
    count = len(space.singular_line_codes[0])
    census_ok = count == expected
    report = Report(data={"singular_lines": count})
    report.add("criterion-equivalence", crit_wit is None, crit_wit, "one-equation test equals all-pairs test")
    report.add("one-pair-suffices", some_wit is None, some_wit, "a single adjacent pair makes the line singular")
    report.add("line-census", census_ok, None, f"{count} singular lines")
    return report


def suite_dset(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    reps, cls = space._y_classes
    excluded = space._excluded_classes
    carried = np.zeros(len(reps), dtype=bool)
    carried[cls[space.singular_line_codes[1]]] = True
    vertical = ~space._coords[reps, space.nu :].any(axis=1)
    report = Report(data={"excluded": int(excluded.sum()), "classes": len(reps)})
    report.add("partition", (carried != excluded).all(), None,
               "every direction is excluded or carries a singular line, never both")
    if space.nu == 1:
        report.add("vertical-only", (excluded == vertical).all(), None,
                   "scalar case: only the vertical direction is excluded")
    else:
        report.add("vertical-included", excluded[vertical].all(), None,
                   "pure V'-directions never carry singular lines")
    return report


def suite_joinable(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    """Every joinable set {x : x ~ y} is an affine subspace of p^n points through y.

    The sets of all points are the rows of `joinable_masks`; the rows of p^n
    points go through one `_is_affine_codes` call.  The first row that fails,
    in sample order, is classified by `zset`, which raises DegenerateForm on a
    set that is not an affine subspace.
    """
    expected = space.p**space.n
    picked = _maybe_sample(space.size, cfg, "points")
    masks = space.joinable_masks(picked)
    full = masks.sum(axis=1) == expected
    good = np.zeros(len(picked), dtype=bool)
    good[full] = space._is_affine_codes(np.nonzero(masks[full])[1].reshape(-1, expected))
    good &= masks[np.arange(len(picked)), picked]
    wit = None
    bad = np.flatnonzero(~good)
    if len(bad):
        pt = space.points[picked[bad[0]]]
        z = space.zset(pt.u, pt.v, -1)
        if z.kind != "affine" or z.dim != space.n:
            raise DegenerateForm(f"joinable set of {pt} is not a dim-{space.n} subspace")
        wit = repr(pt)
    report = Report(data={"expected": expected})
    report.add("joinable-size", wit is None, wit, f"every neighborhood has {expected} points")
    return report


def suite_triangles(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    census = space.triangle_census()
    kernel_sizes = space.kernel_mask.sum(axis=1)
    predicted_empty = len(kernel_sizes) > 0 and bool((kernel_sizes == space.p).all())
    report = Report(data={"census": census})
    report.add("census-matches-kernel-profile", (census == 0) == predicted_empty, None,
               "no triangles exactly when every partial kernel is a line")
    codes = space.triangle_codes(space.index(space.origin))[:20]
    _, sub, _ = space._tables
    legs = space._coords[sub[codes[:, 1:], codes[:, :1]], space.nu :]  # u-parts of p1 - p0, p2 - p0
    eta = np.einsum("ka,abj,kb->kj", legs[:, 0], space.form.eta.gram, legs[:, 1]) % space.p
    report.add("parametric-form", not eta.any(), None, "triangle legs have orthogonal directions")
    return report


def _unrecovered(space: SemipolarSpace, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One flag per pair (i[k], j[k]) of point codes: the double-neighborhood
    intersection of the pair is not the affine line through it, a block of
    pairs at a time, sized as neighborhood_intersections sizes its blocks.

    The suite builds its own AND table and drops it on return: the space's
    cached one would hold about 4 |Y|^2 bytes through every later suite."""
    _, sub, _ = space._tables
    words = space._adjacency_words
    tables = and_tables(words)
    out = np.empty(len(i), dtype=bool)
    step = max(1, CHUNK // (8 * words.shape[1]))
    for lo in range(0, len(i), step):
        a, b = i[lo : lo + step], j[lo : lo + step]
        line = pack_codes(space.line_codes(a, sub[b, a]), space.size)
        out[lo : lo + step] = (neighborhood_intersections(words, tables, space.size, a, b) != line).any(axis=1)
    return out


def _first_unrecovered(space: SemipolarSpace, key_sets: list[np.ndarray]) -> list:
    """For each array of pair keys i * |Y| + j, its first pair whose
    double-neighborhood intersection is not the affine line through it, as
    the repr of a pair of points, or None.  A pair in several sets is
    intersected once."""
    distinct = first_occurrences(np.concatenate(key_sets))[0]
    bad = _unrecovered(space, *np.divmod(distinct, space.size))
    witnesses = []
    for keys in key_sets:
        hits = np.flatnonzero(bad[np.searchsorted(distinct, keys)])
        witnesses.append(_pair_repr(space, keys[hits[0]]) if hits.size else None)
    return witnesses


def _pair_repr(space: SemipolarSpace, key) -> str:
    return repr(tuple(space.points[c] for c in divmod(int(key), space.size)))


def _pair_keys(mask: np.ndarray, cfg: SuiteConfig, tag: str) -> np.ndarray:
    """Keys i * |Y| + j of the pairs i < j set in a (|Y|, |Y|) mask, in
    row-major order, or the seeded sample of `_maybe_sample` in sampled mode."""
    keys = np.flatnonzero(np.triu(mask, 1))
    if cfg.sample is None:
        check_budget(len(keys), cfg.budget, tag)
        return keys
    return keys[_maybe_sample(len(keys), cfg, tag)]


def _point_pairs(space: SemipolarSpace, cfg: SuiteConfig) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the (sampled) pairs of distinct points, as (non-vertical,
    vertical).  The V coordinates are the trailing n digits of a point code,
    so a vertical pair has equal codes mod p^n."""
    size = space.size
    v_codes = np.arange(size) % space.p**space.n
    vertical = (v_codes[:, None] == v_codes[None, :]).ravel()
    keys = _pair_keys(np.ones((size, size), dtype=bool), cfg, "point pairs")
    split = vertical[keys]
    return keys[~split], keys[split]


def suite_recover(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    star = space.separating_kernels
    report = Report()
    report.add("kernel-separation", star, None, "distinct direction kernels separate")
    if not star:
        return report
    adjacent = _pair_keys(space.adjacency, cfg, "adjacent pairs")
    key_sets = [adjacent]
    if space.nu == 1:
        # scalar case: the double-neighborhood intersection of any distinct
        # non-vertical pair is the full affine line through it; vertical pairs
        # have no common neighbors at all, so the construction degenerates
        nonvertical, vertical = _point_pairs(space, cfg)
        key_sets.append(nonvertical)
    wit = _first_unrecovered(space, key_sets)
    report.add("adjacent-pairs", wit[0] is None, wit[0], "intersection equals the singular line")
    if space.nu == 1:
        words = space._adjacency_words
        i, j = np.divmod(vertical, space.size)
        shared = np.flatnonzero((words[i] & words[j]).any(axis=1))
        vert_wit = _pair_repr(space, vertical[shared[0]]) if shared.size else None
        report.add("nonvertical-pairs-affine-line", wit[1] is None, wit[1],
                   "the intersection is the affine line through the pair")
        report.add("vertical-pairs-degenerate", vert_wit is None, vert_wit,
                   "vertical pairs have no common neighbors")
    report.data = {"pairs": len(adjacent)}
    return report


def suite_pencil(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    at_origin = space.pencil_structure(space.origin)
    off = space.pencil_structure(space.points[min(5, space.size - 1)])
    report = Report(data={"lines": len(at_origin.lines), "planes": len(at_origin.planes)})
    report.add("origin-isomorphic", at_origin.isomorphic, None,
               "pencil at the origin matches the null system")
    report.add("off-origin-isomorphic", off.isomorphic, None,
               "pencil away from the origin matches as well")
    report.add("pencil-sizes", len(at_origin.lines) == len(off.lines)
               and len(at_origin.planes) == len(off.planes))
    return report


# -- automorphism suites -----------------------------------------------------------


def suite_autos(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    orbit = orbit_of(space, space.origin)
    report = Report(data={"orbit": len(orbit)})
    report.add("transitivity", orbit == set(space.points), None,
               "shift automorphisms reach every point")
    shift_ok = True
    for idx in range(0, space.size, max(1, space.size // 9)):
        pmap = point_transitive_auto(space, space.origin, space.points[idx])
        if not verify_semiform_scaling(pmap, LinearMap.identity(space.nu, space.p), space):
            shift_ok = False
            break
    report.add("shift-scaling", shift_ok, None,
               "shift automorphisms leave the semiform unchanged")
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
        report.add("composition-rules", comp_ok, None,
                   "composed parameters match pointwise composition")
    return report


def suite_oracle(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    group = brute_force_aut_group(space)
    report = Report(data={"group_order": len(group)})
    if space.nu == 1:
        family = symplectic_family(space)
        report.data["family_order"] = len(family)
        report.add("family-equality", {m for _, m in family} == set(group), None,
                   "the parametric family is exactly the affine automorphism group")
        scaling = all(rho_scaling_constant(space, m) for m in group)
        report.add("scaling-constants", scaling, None,
                   "every member scales the semiform by a nonzero constant")
    vertical = all(fixes_vertical_direction(space, m) for m in group)
    report.add("vertical-direction-fixed", vertical)
    ident = PointMap(space, LinearMap.identity(space.ydim, space.p), (0,) * space.ydim)
    report.add("identity-present", ident in set(group))
    return report


# -- metric suites --------------------------------------------------------------------


def _scalar_only(space: SemipolarSpace, name: str) -> None:
    if space.nu != 1:
        raise DimensionMismatch(f"suite {name} needs a scalar-valued semiform")


def suite_metric(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    _scalar_only(space, "metric")
    t = space.value_table
    p, size = space.p, space.size
    report = Report()

    # p - t, not -t: the codes are unsigned, and p - t lies in 1..p
    report.add("reversal-law", bool((((p - t) % p) == t.T).all()), None,
               "p1p2 = p3p4 iff p2p1 = p4p3")
    report.add("degenerate-congruence", bool((t.diagonal() == 0).all()), None,
               "pp has measure zero, so p1p2 = pp exactly for adjacent pairs")
    report.add("swap-congruence", bool(((t == t.T) == (t == 0)).all()), None,
               "p1p2 = p2p1 iff the points are adjacent")

    _, padd, _, _, pscl = group_tables(p, space.ydim)
    half = pscl[pow(2, p - 2, p)]
    idx = np.arange(size)
    mid_ok = True
    step = max(1, CHUNK // size)
    for lo in range(0, size, step):
        rows = idx[lo : lo + step]
        mid = half[padd.rows(rows)]  # (p1 + p2) / 2 for the block's p1 and every p2
        mid_ok &= bool((t[rows[:, None], mid] == t[mid, idx[None, :]]).all())
    report.add("midpoint-congruence", mid_ok, None,
               "p1 (p1+p2)/2 = (p1+p2)/2 p2 for all pairs")

    counts = np.stack([np.bincount(row, minlength=p) for row in t])
    report.add("sphere-cardinality", bool((counts == size // p).all()), None,
                         f"every sphere has exactly {size // p} points")

    witness = translation_noninvariance_witness(space)
    report.add("translation-noninvariance", witness is not None, None,
               "a segment and its translate with different measures exists")
    if witness:
        p1, p2, tr = witness
        i1, i2, k = (space.index(q) for q in witness)
        report.data["witness"] = {
            "p1": list(p1.flat()),
            "p2": list(p2.flat()),
            "translation": list(tr.flat()),
            "before": [int(t[i1, i2])],
            "after": [int(t[padd[i1, k], padd[i2, k]])],
        }
    return report


def _bisector_counts(t: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """For a scalar value table t: eq[i, j] = |{x : t[i, x] = t[j, x]}|, the
    t-bisector sizes, and m[i, j] = |{x : t[i, x] = t[x, j]}|, the m-bisector
    sizes, as the sums over the values c of E_c E_c^T and E_c E_c, where
    E_c = (t == c).  One indicator is held at a time, so the counts take
    O(|Y|^2) memory; float32 counts are exact up to 2^24 > |Y|."""
    eq = np.zeros(t.shape, dtype=np.float32)
    m = np.zeros(t.shape, dtype=np.float32)
    ind = np.empty(t.shape, dtype=np.float32)
    for c in range(p):
        np.equal(t, c, out=ind)
        eq += ind @ ind.T
        m += ind @ ind
    return eq, m


def _group_counts(masks: np.ndarray, ids: np.ndarray) -> tuple[int, int, int]:
    """The numbers of distinct masks, of distinct (mask, id) rows and of
    distinct ids over the ordered pairs (i, j), for a mask masks[i, j] and an
    id ids[i, j] >= -1 of each: the ids name the masks one to one exactly
    when the three are equal.  One `distinct_rows` sort each."""
    words = pack_rows(masks.reshape(-1, masks.shape[-1]))
    shifted = (ids.reshape(-1, 1).astype(np.int64) + 1).astype(np.uint64)  # the diagonal's -1 becomes 0
    rows = (words, np.concatenate([words, shifted], axis=1), shifted)
    return tuple(len(distinct_rows(r)) for r in rows)


def _same_partitions(t: np.ndarray, w: np.ndarray, p: int) -> bool:
    """Whether, in every column x, the rows with equal t-values are exactly the
    rows with equal w-values, for (|Y|, |Y|) tables of values below p.

    Two partitions of the rows are equal exactly when each has as many parts
    as their common refinement, so a column passes when its distinct t-values,
    distinct w-values and distinct (t, w) pairs are equally many.  The pairs
    present in each column are marked a block of about CHUNK / 8 entries at
    a time, in a (p^2, |Y|) table."""
    size = t.shape[1]
    present = np.zeros((p * p, size), dtype=bool)
    cols = np.arange(size)
    step = max(1, CHUNK // (8 * size))
    for lo in range(0, len(t), step):
        pairs = t[lo : lo + step].astype(np.intp) * p + w[lo : lo + step]
        present[pairs, cols] = True
    pair_count = present.sum(axis=0)
    present = present.reshape(p, p, size)
    return bool(
        (present.any(axis=1).sum(axis=0) == pair_count).all()
        and (present.any(axis=0).sum(axis=0) == pair_count).all()
    )


def suite_bisectors(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    _scalar_only(space, "bisectors")
    t = space.value_table
    p, size = space.p, space.size
    hyper = size // p
    un = p**space.n
    report = Report()

    eq_counts, m_counts = _bisector_counts(t, p)
    idx = np.arange(size)
    expected = np.where(idx[:, None] % un == idx[None, :] % un, np.float32(0), np.float32(hyper))
    np.fill_diagonal(expected, size)
    report.add("t-cardinalities", bool((eq_counts == expected).all()), None,
               "empty exactly for vertical pairs, hyperplanes otherwise")
    report.add("m-cardinalities", bool((m_counts == hyper).all()), None,
               "every m-bisector is a hyperplane")
    del eq_counts, m_counts, expected

    _, padd, psub, _, pscl = group_tables(p, space.ydim)
    half = pscl[pow(2, p - 2, p)]
    t_cols = np.ascontiguousarray(t.T)
    polar_ok = True
    for i in range(size):
        m_member = t[i][None, :] == t_cols
        nbr = t.take(half[padd.rows(i)], axis=0) == 0  # rows of the midpoints (y_i + y_j) / 2
        if not (m_member == nbr).all():
            polar_ok = False
            break
    del t_cols
    if polar_ok:
        # the polar condition eta(u_j - u_i, u_x) = v_j - v_i on (i, j, x) says
        # w[j, x] = w[i, x] for w[j, x] = eta(u_j, u_x) - v_j, read in V' codes
        _, _, vsub, _, _ = group_tables(p, space.nu)
        eta_codes = space.form.eta.pair_table(space._coords[:, space.nu:])
        w = vsub[eta_codes, (idx // un)[:, None]]
        polar_ok = _same_partitions(t, w, p)
        del eta_codes, w
    report.add("polar-correspondence", polar_ok, None,
               "bisectors match the surrounding null polarity")

    report.data["hyperplane_size"] = hyper
    if size * size <= 1000:
        # code of the direction class of y_j - y_i, -1 on the diagonal
        dir_ids = encode_vecs(normalize_rows(space._coords[psub[idx[None, :], idx[:, None]]], p), p)
        np.fill_diagonal(dir_ids, -1)
        t_counts = _group_counts(t[:, None, :] == t[None, :, :], dir_ids)
        m_counts = _group_counts(t[:, None, :] == t.T[None, :, :], padd[idx[:, None], idx[None, :]])
        report.add("t-bisector-criterion", len(set(t_counts)) == 1, None,
                   "equal t-bisectors exactly for proportional differences")
        report.add("m-bisector-criterion", len(set(m_counts)) == 1, None,
                   "equal m-bisectors exactly for equal sums")
        report.data["pair_groups_t"] = t_counts[0]
        report.data["pair_groups_m"] = m_counts[0]
    return report


def suite_hyperbolic(space: Optional[SemipolarSpace], cfg: SuiteConfig) -> Report:
    p = cfg.field or (space.p if space is not None else 3)
    n = cfg.hyp_dim
    base = standard_doubling_base(n, p, diag=cfg.hyp_diag)
    hyp = build_double(n, base, budget=cfg.budget)
    data = reconstruction_report(hyp, default_deleted_subspace(hyp))
    expected_points = (p**n - 1) // (p - 1)
    rec = data["reconstruction"]
    report = Report(data=data)
    report.add("isotropy-equivalence", hyp.isotropy_matches_orthogonal_pairs(), None,
               "doubled-form isotropy detects orthogonal pairs")
    report.add("hyperbolic-type", hyp.hyperbolic_by_discriminant(), None,
               "discriminant classification: maximal index")
    report.add("two-parity-classes",
               data["parity_class_sizes"] == [len(hyp._maximal_masks) // 2])
    report.add("reconstruction-isomorphic", rec["isomorphic"])
    report.add("class-count", rec["class_count"] == expected_points, None,
               f"one class per deleted projective point ({expected_points})")
    return report


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
        if space.size <= ORACLE_CAP:
            names.append("oracle")
    names.append("hyperbolic")
    return names


def run_suite(name: str, space: Optional[SemipolarSpace], cfg: SuiteConfig) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if name != "hyperbolic" and space is None:
        raise DimensionMismatch(f"suite {name} needs an instance")
    out = SUITES[name](space, cfg).to_jsonable(name)
    sampled = cfg.sample is not None and name in SAMPLING_SUITES
    out["mode"] = {"sample": cfg.sample, "seed": cfg.seed} if sampled else "exhaustive"
    return out
