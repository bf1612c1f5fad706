"""The named suite runners: shapes, applicability, budget behavior."""

import random

import numpy as np
import pytest

from semipolar import linalg, suites
from semipolar.apsg import Point, SemipolarSpace
from semipolar.errors import DimensionMismatch, EnumerationTooLarge
from semipolar.forms import AlternatingMap, Report, Semiform
from semipolar.suites import SUITES, SuiteConfig, applicable_suites, run_suite


def refuse_pointwise_eval(monkeypatch):
    """Make both pointwise evaluators raise, so every verdict must come from the
    value tables and the Gram tensor."""
    def refuse(*args, **kwargs):
        raise AssertionError("pointwise eval called on the verify path")

    monkeypatch.setattr(Semiform, "eval", refuse)
    monkeypatch.setattr(AlternatingMap, "eval", refuse)


def test_all_suites_pass_on_the_scalar_instance(sp_m1_gf3, monkeypatch):
    refuse_pointwise_eval(monkeypatch)
    space = SemipolarSpace(sp_m1_gf3.form)  # fresh: its tables are built under the guard
    cfg = SuiteConfig()
    for name in applicable_suites(space, cfg):
        report = run_suite(name, space, cfg)
        assert report["passed"], (name, report["checks"])
        assert report["suite"] == name
        assert report["mode"] == "exhaustive"
        for check in report["checks"]:
            assert set(check) == {"name", "passed", "witness", "note"}


def test_all_suites_pass_on_the_vector_instance_without_pointwise_eval(sp_cross_gf3, monkeypatch):
    refuse_pointwise_eval(monkeypatch)
    space = SemipolarSpace(sp_cross_gf3.form)
    cfg = SuiteConfig()
    for name in applicable_suites(space, cfg):
        report = run_suite(name, space, cfg)
        assert report["passed"], (name, report["checks"])


def test_applicable_suites_scalar_vs_vector(sp_m1_gf3, sp_cross_gf3, sp_m2_gf3):
    cfg = SuiteConfig()
    small = applicable_suites(sp_m1_gf3, cfg)
    assert "oracle" in small and "metric" in small and "bisectors" in small
    vector = applicable_suites(sp_cross_gf3, cfg)
    assert "metric" not in vector and "oracle" not in vector
    assert "axioms" in vector and "gamma" in vector
    big_scalar = applicable_suites(sp_m2_gf3, cfg)
    assert "metric" in big_scalar and "oracle" not in big_scalar
    assert applicable_suites(None, cfg) == ["hyperbolic"]


def test_vector_instance_spot_suites(sp_cross_gf3):
    cfg = SuiteConfig()
    for name in ("dset", "joinable", "triangles", "pencil", "autos"):
        report = run_suite(name, sp_cross_gf3, cfg)
        assert report["passed"], (name, report["checks"])
    assert run_suite("triangles", sp_cross_gf3, cfg)["data"]["census"] == 0


def test_m2_metric_and_bisector_suites(sp_m2_gf3):
    cfg = SuiteConfig()
    metric = run_suite("metric", sp_m2_gf3, cfg)
    assert metric["passed"]
    assert metric["data"]["witness"]["before"] != metric["data"]["witness"]["after"]
    bis = run_suite("bisectors", sp_m2_gf3, cfg)
    assert bis["passed"]
    assert bis["data"]["hyperplane_size"] == 81
    # the pair-of-pairs criterion sweep is desk-scale only
    assert "pair_groups_t" not in bis["data"]


def test_bisector_pair_groups_on_small_instance(sp_m1_gf3):
    report = run_suite("bisectors", sp_m1_gf3, SuiteConfig())
    # 27 equal-pair masks collapse to one group (whole space); nonzero classes:
    # one group per direction class of Y plus the whole-space group
    assert report["data"]["pair_groups_t"] == 13 + 1
    # m-groups: one per point sum
    assert report["data"]["pair_groups_m"] == 27


def test_scalar_only_suites_reject_vector_instances(sp_cross_gf3):
    for name in ("metric", "bisectors"):
        with pytest.raises(DimensionMismatch):
            run_suite(name, sp_cross_gf3, SuiteConfig())


def test_budget_propagates(sp_m1_gf3):
    with pytest.raises(EnumerationTooLarge):
        run_suite("identities", sp_m1_gf3, SuiteConfig(budget=10))
    with pytest.raises(EnumerationTooLarge):
        run_suite("recover", sp_m1_gf3, SuiteConfig(budget=10))


def test_sampling_thins_loops(sp_m1_gf3):
    cfg = SuiteConfig(budget=10, sample=5, seed=3)
    report = run_suite("recover", sp_m1_gf3, cfg)
    assert report["passed"]
    assert report["mode"] == {"sample": 5, "seed": 3}


@pytest.mark.parametrize("count", [0, 3, 10, 57, 1000, 100_000])
def test_sample_indices_pick_what_a_list_sample_picks(count):
    items = [f"item{k}" for k in range(count)]
    for sample, seed in ((5, 0), (50, 3), (999, 11)):
        picked = suites._maybe_sample(count, SuiteConfig(sample=sample, seed=seed), "items")
        expect = items if count <= sample else random.Random(seed).sample(items, sample)
        assert [items[k] for k in picked.tolist()] == expect
    assert suites._maybe_sample(count, SuiteConfig(), "items").tolist() == list(range(count))
    if count > 10:
        with pytest.raises(EnumerationTooLarge):
            suites._maybe_sample(count, SuiteConfig(budget=10), "items")


def test_report_witness_encoding():
    report = Report(data={"n": 1})
    report.add("nested", False, ((1, (2, 3)), [np.int64(4)]), "a note")
    report.add("numpy", False, np.int32(7))
    report.add("point", False, Point((1,), (0, 2)))
    report.add("text", True, "AffLine(...)")
    report.add("none", True)
    out = report.to_jsonable("demo")
    assert out == {
        "suite": "demo",
        "passed": False,
        "data": {"n": 1},
        "checks": [
            {"name": "nested", "passed": False, "witness": [[1, [2, 3]], [4]], "note": "a note"},
            {"name": "numpy", "passed": False, "witness": 7, "note": ""},
            {"name": "point", "passed": False, "witness": [[1], [0, 2]], "note": ""},
            {"name": "text", "passed": True, "witness": "AffLine(...)", "note": ""},
            {"name": "none", "passed": True, "witness": None, "note": ""},
        ],
    }
    assert type(out["checks"][1]["witness"]) is int
    assert report.check("text").passed and not report.passed


def corrupted_spaces(space):
    """Copies of a space with a corrupted adjacency, each made by a fixed rule
    or a seeded one.  In the scalar case the first gives a vertical pair (0, j)
    a common neighbor k: that breaks the vertical check and the recovery of
    every pair that now sees k.  The others toggle a few symmetric entries
    off the diagonal."""
    adjacency = space.adjacency
    rules = []
    if space.nu == 1:
        j = next(j for j in range(1, space.size) if space.points[j].u == space.points[0].u)
        k = next(k for k in range(space.size) if not adjacency[0, k] and not adjacency[j, k])
        rules.append(([0, j], [k, k]))
    for seed in range(2):
        rng = random.Random(seed)
        pairs = [rng.sample(range(space.size), 2) for _ in range(seed + 1)]
        rules.append(tuple(map(list, zip(*pairs))))
    for rows, cols in rules:
        adj = adjacency.copy()
        adj[rows + cols, cols + rows] ^= True
        fresh = SemipolarSpace(space.form)
        fresh.__dict__["adjacency"] = adj
        yield fresh


def first_failing_pairs(space) -> dict:
    """The witnesses of the recover checks by their definitions: the first
    pair, in row-major order, whose common neighbors' neighborhoods do not
    meet in the affine line through it (adjacent pairs, and in the scalar case
    non-vertical pairs), and the first vertical pair with a common neighbor."""
    nbrs = [set(np.flatnonzero(row).tolist()) for row in space.adjacency]
    _, sub, _ = space._tables

    def recovered(a, b):
        out = set(range(space.size))
        for c in nbrs[a] & nbrs[b]:
            out &= nbrs[c]
        return out == set(space.line_codes(a, sub[b, a]).tolist())

    def first(pairs, bad):
        return next((repr((space.points[a], space.points[b])) for a, b in pairs if bad(a, b)), None)

    adjacent = [(a, b) for a in range(space.size) for b in sorted(nbrs[a]) if b > a]
    expect = {"adjacent-pairs": first(adjacent, lambda a, b: not recovered(a, b))}
    if space.nu == 1:
        pairs = [(a, b) for a in range(space.size) for b in range(a + 1, space.size)]
        vertical = [(a, b) for a, b in pairs if space.points[a].u == space.points[b].u]
        other = [(a, b) for a, b in pairs if space.points[a].u != space.points[b].u]
        expect["nonvertical-pairs-affine-line"] = first(other, lambda a, b: not recovered(a, b))
        expect["vertical-pairs-degenerate"] = first(vertical, lambda a, b: nbrs[a] & nbrs[b])
    return expect


@pytest.mark.parametrize("chunk", [7, 2048])
def test_recover_witnesses_are_the_first_failing_pairs(sp_m1_gf3, sp_cross_gf3, monkeypatch, chunk):
    # blocks of 7 elements hold one pair each, blocks of 2048 elements 256
    # pairs on GF(3)^3 and 21 on the cross's 729 points
    monkeypatch.setattr(linalg, "CHUNK", chunk)
    for instance in (sp_m1_gf3, sp_cross_gf3):
        for n, space in enumerate(corrupted_spaces(instance)):
            expect = first_failing_pairs(space)
            assert all(expect.values()) if n == 0 else any(expect.values())
            report = run_suite("recover", space, SuiteConfig())
            got = {c["name"]: c["witness"] for c in report["checks"] if c["name"] != "kernel-separation"}
            assert got == expect, (instance.nu, n)


@pytest.mark.parametrize("sample", [None, 40])
def test_recover_pairs_are_the_row_major_pairs_or_their_seeded_sample(sp_m1_gf3, sp_cross_gf3, monkeypatch,
                                                                      sample):
    # each entry: (i, j, in the adjacent-pairs check, in the point-pair checks);
    # blocks of 2048 elements hold 256 pairs on GF(3)^3 and 21 on the cross's
    # 729 points, so the exhaustive blocks end inside rows
    monkeypatch.setattr(linalg, "CHUNK", 2048)
    cfg = SuiteConfig(sample=sample, seed=5)
    for space in (sp_m1_gf3, sp_cross_gf3):
        scalar = space.nu == 1
        pairs = [(a, b) for a in range(space.size) for b in range(a + 1, space.size)]
        adjacent = [(a, b) for a, b in pairs if space.adjacency[a, b]]
        if sample is None:
            expect = [(a, b, bool(space.adjacency[a, b]), True) for a, b in pairs] if scalar else \
                [(a, b, True, False) for a, b in adjacent]
        else:
            expect = [(*adjacent[k], True, False) for k in random.Random(5).sample(range(len(adjacent)), sample)]
            if scalar:
                expect += [(*pairs[k], False, True) for k in random.Random(5).sample(range(len(pairs)), sample)]
        blocks = list(suites._recover_pairs(space, cfg))
        got = [(a, b, bool(adj), points) for i, j, adjacent_flags, points in blocks
               for a, b, adj in zip(i.tolist(), j.tolist(), adjacent_flags)]
        assert got == expect
        step = 2048 // (8 * -(-space.size // 64))
        sizes = [len(i) for i, *_ in blocks]
        assert max(sizes) <= step
        if sample is None:
            assert set(sizes[:-1]) == {step}


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus", None, SuiteConfig())
    assert set(SUITES) == {
        "axioms", "identities", "gamma", "lines", "dset", "joinable", "triangles",
        "recover", "pencil", "autos", "oracle", "metric", "bisectors", "hyperbolic",
    }


def test_hyperbolic_suite_without_instance():
    report = run_suite("hyperbolic", None, SuiteConfig(field=3))
    assert report["passed"]
    assert report["data"]["reconstruction"]["class_count"] == 13
    with pytest.raises(DimensionMismatch):
        run_suite("axioms", None, SuiteConfig())
