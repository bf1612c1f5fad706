"""Acceptance criteria: every suite exhaustive at its stated scale, exact counts.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import json
from itertools import combinations

import numpy as np
import pytest

from semipolar.apsg import AffLine
from semipolar.autos import (
    PointMap,
    orbit_of,
    rho_scaling_constant,
    symplectic_family,
)
from semipolar.cli import main
from semipolar.forms import (
    Semiform,
    check_semiform_axioms,
    group_tables,
    standard_symplectic,
    verify_identities,
)
from semipolar.hyperbolic import (
    build_double,
    reconstruct_deleted_subspace,
    reduct,
    standard_doubling_base,
)
from semipolar.linalg import LinearMap, vec_index
from semipolar.metric import translation_noninvariance_witness
from semipolar.suites import SuiteConfig, run_suite


def conclude(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE C{num:02d} {status}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {tail}"


def test_c01_semiform_axioms_and_reconstruction(
    sp_m1_gf3, sp_m2_gf3, sp_m1_gf5, sp_cross_gf3, sp_wedge3_gf3
):
    spaces = {
        "symplectic m=1 GF(3)": sp_m1_gf3,
        "symplectic m=2 GF(3)": sp_m2_gf3,
        "symplectic m=1 GF(5)": sp_m1_gf5,
        "cross GF(3)": sp_cross_gf3,
        "wedge n=3 GF(3)": sp_wedge3_gf3,
    }
    ok = True
    for name, space in spaces.items():
        report = check_semiform_axioms(space.value_table, space.p, space.ydim, space.nu)
        axioms_pass = all(report.check(f"A{k}").passed for k in range(1, 9))
        rec_pass = report.check("reconstruction").passed and report.data["reconstruction_ok"]
        ok = ok and axioms_pass and rec_pass
    conclude(1, "axioms A1-A8 and exact M/D reconstruction on all five instances", ok)


def test_c02_adversarial_tables_rejected(sp_m1_gf3):
    table = np.array(sp_m1_gf3.value_table, dtype=np.int32)
    pts, padd, psub, pneg, _ = group_tables(3, 3)

    bad_a1 = table.copy()
    bad_a1[1, 2] = (bad_a1[1, 2] + 1) % 3
    report1 = check_semiform_axioms(bad_a1, 3, 3, 1)
    a1 = report1.check("A1")
    w1 = a1.witness
    i, j = (vec_index(x, 3) for x in w1)
    a1_reevaluates = bad_a1[i, j] != (-bad_a1[j, i]) % 3
    ok1 = (not a1.passed) and a1_reevaluates

    # corrupt a symmetric pair of entries: antisymmetry survives, the parity
    # axiom A5 must fail with a re-checkable witness
    bad_a5 = table.copy()
    i, j = 4, 7
    bad_a5[i, j] = (bad_a5[i, j] + 1) % 3
    bad_a5[j, i] = (-bad_a5[i, j]) % 3
    report2 = check_semiform_axioms(bad_a5, 3, 3, 1)
    a5 = report2.check("A5")
    ok2 = report2.check("A1").passed and not a5.passed
    wi, wj = (vec_index(x, 3) for x in a5.witness)
    lhs = (bad_a5[pneg[wi], pneg[wj]] + bad_a5[wi, wj]) % 3
    rhs = (2 * (bad_a5[wi, padd[wi, wj]] - bad_a5[0, wj])) % 3
    ok2 = ok2 and (lhs != rhs)
    conclude(2, "adversarial tables rejected with re-checkable witnesses (A1, A5)", ok1 and ok2)


def test_c03_identities_gf5(sp_m1_gf5):
    report = verify_identities(sp_m1_gf5.value_table, sp_m1_gf5.form, budget=10**7)
    names = [c.name for c in report.checks]
    ok = report.passed and len(names) == 6
    conclude(3, "all six evaluation identities exhaustive on symplectic m=1 GF(5)", ok,
             f"{sp_m1_gf5.size}^2 = {sp_m1_gf5.size ** 2} point pairs per identity")


def test_c04_gamma_space_and_parallel_unclosed(sp_m2_gf3, sp_cross_gf3):
    ok = True
    for space in (sp_m2_gf3, sp_cross_gf3):
        gamma = space.verify_gamma_space()
        parallel = space.verify_parallel_unclosed()
        ok = ok and gamma.passed and parallel.passed
    conclude(4, "Gamma-space and parallel-unclosedness on m=2 GF(3) and cross GF(3)", ok,
             "243 and 729 points")


def test_c05_triangle_census(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    c1 = sp_m1_gf3.triangle_census()
    c2 = sp_cross_gf3.triangle_census()
    c3 = sp_m2_gf3.triangle_census()
    ok = c1 == 0 and c2 == 0 and c3 > 0
    conclude(5, "triangle census: zero for m=1 and cross, positive for m=2", ok,
             f"m=1: {c1}, cross: {c2}, m=2: {c3}")


def test_c06_line_recovery_all_adjacent_pairs_m2(sp_m2_gf3):
    space = sp_m2_gf3
    adj = space.adjacency
    checked = 0
    ok = True
    for i in range(space.size):
        for j in np.flatnonzero(adj[i]):
            if j <= i:
                continue
            p1, p2 = space.points[i], space.points[int(j)]
            got = set(space.neighborhood_intersection(p1, p2))
            if got != set(AffLine(p1, p2.sub(p1, 3), 3).points()):
                ok = False
                break
            checked += 1
        if not ok:
            break
    conclude(6, "adjacency-only line recovery equals the singular line, all adjacent pairs", ok,
             f"{checked} pairs on m=2 GF(3)")


def test_c07_joinable_sizes(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    ok = True
    for space in (sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
        expected = 3**space.n
        masks = space.joinable_masks(np.arange(space.size))
        if not (masks.sum(axis=1) == expected).all():
            ok = False
            break
        # the equation's own classification: an affine subspace of dimension n
        for pt in space.points:
            z = space.zset(pt.u, pt.v, -1)
            if z.kind != "affine" or z.dim != space.n:
                ok = False
                break
    conclude(7, "every neighborhood has exactly 3^dim(V) points on the GF(3) instances", ok)


def test_c08_automorphism_completeness(sp_m1_gf3, oracle_m1_gf3):
    oracle = oracle_m1_gf3
    predicted = 48 * 9 * 3
    family = symplectic_family(sp_m1_gf3)
    count_ok = len(oracle) == predicted == len(family)
    sets_ok = {m for _, m in family} == set(oracle)
    scaling_ok = all(rho_scaling_constant(sp_m1_gf3, m) for m in oracle)
    conclude(8, "oracle sweep equals the parametric family with the predicted order",
             count_ok and sets_ok and scaling_ok,
             f"order {len(oracle)} = 48*9*3, all members scale the semiform")


def test_c09_transitivity(sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
    ok = True
    for space in (sp_m1_gf3, sp_m2_gf3, sp_cross_gf3):
        ok = ok and orbit_of(space, space.origin) == set(space.points)
    conclude(9, "the origin's orbit under constructed automorphisms is the whole point set", ok)


def test_c10_metric_suite(sp_m1_gf3, sp_m2_gf3):
    cfg = SuiteConfig()
    ok = True
    details = []
    for space in (sp_m1_gf3, sp_m2_gf3):
        metric = run_suite("metric", space, cfg)
        bisectors = run_suite("bisectors", space, cfg)
        ok = ok and metric["passed"] and bisectors["passed"]
        details.append(f"|Y|={space.size}: hyperplanes of {bisectors['data']['hyperplane_size']}")
    conclude(10, "bisector/sphere cardinalities, emptiness, polar correspondence, criteria", ok,
             "; ".join(details))


def test_c11_translation_noninvariance(sp_m1_gf3):
    witness = translation_noninvariance_witness(sp_m1_gf3)
    ok = witness is not None
    detail = ""
    if ok:
        p1, p2, t = witness
        before = sp_m1_gf3.form.eval(p1, p2)
        after = sp_m1_gf3.form.eval(p1.add(t, 3), p2.add(t, 3))
        ok = before != after
        detail = f"p1={p1.flat()}, p2={p2.flat()}, t={t.flat()}: {before} -> {after}"
    conclude(11, "a segment and its translate with different measures exists on m=1 GF(3)", ok, detail)


def test_c12_hyperbolic_reconstruction():
    ok = True
    details = []
    for diag in (None, (1, 1, -1)):
        hyp = build_double(3, standard_doubling_base(3, 3, diag=diag))
        maximals = hyp.maximal_singulars()
        tried = 0
        for z in maximals[::13] if diag is None else maximals[:1]:
            rec = reconstruct_deleted_subspace(reduct(hyp, z))
            ok = ok and rec.isomorphic and rec.class_count == 13
            tried += 1
        details.append(f"diag={diag or (1, 1, 1)}: {tried} deleted subspaces")
    conclude(12, "deleted-subspace reconstruction is an exact incidence isomorphism, 13 classes",
             ok, "; ".join(details))


def test_c13_determinism(tmp_path):
    inst = tmp_path / "m1.json"
    assert main(["build", "--field", "3", "--kind", "symplectic", "--index", "1",
                 "--out", str(inst)]) == 0
    argv = ["verify", str(inst), "--suite", "axioms", "--suite", "dset", "--suite",
            "oracle", "--suite", "bisectors", "--suite", "hyperbolic"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--out", str(r1)]) == 0
    assert main(argv + ["--out", str(r2)]) == 0
    ok = r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    ok = ok and report["passed"]
    conclude(13, "rerunning the suites yields byte-identical JSON reports", ok,
             f"{len(r1.read_bytes())} bytes")
