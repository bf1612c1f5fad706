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
from typing import Callable, Iterator, Optional

import numpy as np

from .apsg import SemipolarSpace, neighborhood_intersections
from .autos import (
    ORACLE_CAP,
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
    LinearMap,
    and_tables,
    blocks,
    distinct_rows,
    encode_vecs,
    first_failure,
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


def _pair_offsets(mask: np.ndarray) -> np.ndarray:
    """Row i of a (|Y|, |Y|) mask holds the row-major ordinals offsets[i] to
    offsets[i + 1] - 1 of the pairs i < j that it sets, counted a block of
    rows at a time: right of the block, then above the diagonal of its square."""
    counts = [np.count_nonzero(mask[b, b.stop :], axis=1)
              + np.count_nonzero(np.triu(mask[b, b.start + 1 : b.stop]), axis=1)
              for b in blocks(len(mask), len(mask))]
    return np.concatenate([[0], np.cumsum(np.concatenate(counts))])


def _row_major_pairs(mask: np.ndarray, offsets: np.ndarray, width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs i < j set in mask in row-major order, as (i, j) blocks of
    ordinals of `width` elements each.  Each row is read once: a carry holds
    the flat codes i |Y| + j of the pairs read and not yet yielded, and a block
    reads on to the row that holds its last pair."""
    size, read = len(mask), 0
    carry = np.empty(0, dtype=np.intp)
    for b in blocks(int(offsets[-1]), width):
        last = int(np.searchsorted(offsets, b.stop - 1, side="right")) - 1
        if last >= read:
            fresh = np.flatnonzero(np.triu(mask[read : last + 1], read + 1)) + read * size
            carry, read = np.concatenate([carry, fresh]), last + 1
        cut = b.stop - b.start
        yield np.divmod(carry[:cut], size)
        carry = carry[cut:]


def _nth_pairs(mask: np.ndarray, offsets: np.ndarray, ords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j set in mask at the row-major ordinals `ords`, in their
    order: ordinal k lies in the row i with offsets[i] <= k < offsets[i + 1],
    and j is where the running count of that row's pairs passes k - offsets[i].
    A block of ordinals at a time, each reading its row of the mask."""
    i = np.searchsorted(offsets, ords, side="right") - 1
    rank = ords - offsets[i]
    j = np.empty_like(i)
    for b in blocks(len(i), len(mask)):
        rows = i[b]
        after = mask[rows] & (np.arange(len(mask)) > rows[:, None])
        j[b] = (after.cumsum(axis=1) <= rank[b, None]).sum(axis=1)
    return i, j


def _recover_pairs(
    space: SemipolarSpace, cfg: SuiteConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, bool]]:
    """Blocks (i, j, adjacent, points) of pairs, 8W elements a pair of W
    adjacency words as in `neighborhood_intersections`, in the order the
    recover checks read their witnesses: `adjacent` flags the pairs of
    adjacent-pairs, and `points` says whether the pairs are those of the
    point-pair checks of a scalar form.  Exhaustive, one row-major sweep over
    every pair i < j of a scalar form, else over its adjacent pairs; sampled,
    the seeded sample of the adjacent pairs, then of every pair."""
    scalar = space.nu == 1
    lists = [(space.adjacency, "adjacent pairs")] + scalar * [(np.broadcast_to(True, (space.size,) * 2), "point pairs")]
    offsets = [_pair_offsets(mask) for mask, _ in lists]
    width = 8 * space._adjacency_words.shape[1]
    if cfg.sample is None:
        for (_, tag), off in zip(lists, offsets):
            check_budget(int(off[-1]), cfg.budget, tag)
        for i, j in _row_major_pairs(lists[-1][0], offsets[-1], width):
            yield i, j, space.adjacency[i, j], scalar
        return
    for k, ((mask, tag), off) in enumerate(zip(lists, offsets)):
        ords = _maybe_sample(int(off[-1]), cfg, tag)
        for b in blocks(len(ords), width):
            i, j = _nth_pairs(mask, off, ords[b])
            yield i, j, np.full(len(i), k == 0), k == 1


def suite_recover(space: SemipolarSpace, cfg: SuiteConfig) -> Report:
    # scalar case: the double-neighborhood intersection of a non-vertical pair is the full
    # affine line through it; vertical pairs have no common neighbors, so the construction degenerates
    star = space.separating_kernels
    report = Report()
    report.add("kernel-separation", star, None, "distinct direction kernels separate")
    if not star:
        return report
    _, sub, _ = space._tables
    words = space._adjacency_words
    tables = and_tables(words)  # dropped on return: cached, it would hold about 4 |Y|^2 bytes
    q = space.p**space.n  # the V coordinates are the trailing n digits of a point code
    witnesses, pairs = [None] * 3, 0
    for i, j, adjacent, points in _recover_pairs(space, cfg):
        line = pack_codes(space.line_codes(i, sub[j, i]), space.size)
        bad = (neighborhood_intersections(words, tables, space.size, i, j) != line).any(axis=1)
        flags = [adjacent & bad]
        if points:
            vertical = i % q == j % q
            shared = vertical.copy()
            shared[vertical] = (words[i[vertical]] & words[j[vertical]]).any(axis=1)
            flags += [~vertical & bad, shared]
        for c, hits in enumerate(flags):
            if witnesses[c] is None and hits.any():
                k = hits.argmax()
                witnesses[c] = repr((space.points[i[k]], space.points[j[k]]))
        pairs += int(np.count_nonzero(adjacent))
    checks = [("adjacent-pairs", "intersection equals the singular line"),
              ("nonvertical-pairs-affine-line", "the intersection is the affine line through the pair"),
              ("vertical-pairs-degenerate", "vertical pairs have no common neighbors")]
    for (name, note), wit in zip(checks[: 3 if space.nu == 1 else 1], witnesses):
        report.add(name, wit is None, wit, note)
    report.data = {"pairs": pairs}
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
    identity = LinearMap.identity(space.nu, space.p)
    shift_ok = all(
        verify_semiform_scaling(point_transitive_auto(space, space.origin, space.points[idx]), identity, space)
        for idx in range(0, space.size, max(1, space.size // 9))
    )
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
            built.append(build_general_auto(space, LinearMap([[alpha]], p), phi, (1,) * space.n, (k % p,)))
        comp_ok = all(
            compose_params(space, p2, p1)[0] == m2.compose(m1)
            for (m1, p1), (m2, p2) in combinations(built, 2)
        )
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

    def midpoint_congruent(rows: np.ndarray) -> np.ndarray:
        mid = half[padd.rows(rows)]  # (p1 + p2) / 2 for the rows' p1 and every p2
        return t[rows[:, None], mid] == t[mid, idx[None, :]]

    mid_ok = first_failure((b, midpoint_congruent(idx[b])) for b in blocks(size, size)) is None
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
    present in each column are marked a block of rows at a time, an entry
    counted as its 8-byte index, in a (p^2, |Y|) table."""
    size = t.shape[1]
    present = np.zeros((p * p, size), dtype=bool)
    cols = np.arange(size)
    for b in blocks(len(t), 8 * size):
        pairs = t[b].astype(np.intp) * p + w[b]
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
    # the m-bisector of (y_i, y_j) is the neighbourhood of the midpoint (y_i + y_j) / 2
    polar_ok = first_failure(
        (i, (t[i][None, :] == t_cols) == (t.take(half[padd.rows(i)], axis=0) == 0)) for i in range(size)
    ) is None
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
