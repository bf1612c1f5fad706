"""The command-line driver: build, verify, export, exit codes, determinism."""

import hashlib
import json

import pytest

from semipolar import linalg
from semipolar.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_symplectic_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _, _ = run(["build", "--field", "3", "--kind", "symplectic", "--index", "2",
                      "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["p"] == 3 and data["n"] == 4 and data["nu"] == 1
    assert data["kind"] == "symplectic"
    assert set(data) == {"p", "n", "nu", "gram", "atlas", "kind"}


def test_build_cross_instance(tmp_path, capsys):
    out = tmp_path / "cross.json"
    code, _, _ = run(["build", "--field", "3", "--kind", "cross", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 3 and data["nu"] == 3


def test_build_rejects_char2(capsys):
    code, _, err = run(["build", "--field", "2", "--kind", "symplectic"], capsys)
    assert code == 2
    assert "usage error" in err


def test_build_rejects_composite_field(capsys):
    code, _, _ = run(["build", "--field", "9", "--kind", "cross"], capsys)
    assert code == 2


@pytest.mark.parametrize("index", ["1", "0"])
def test_build_wedge_below_dimension_2_is_usage_error(index, tmp_path, capsys):
    # n < 2 has no wedge coordinates, so nu = 0 and the instance would not load
    out = tmp_path / "wedge.json"
    code, _, err = run(["build", "--field", "3", "--kind", "wedge", "--index", index,
                        "--out", str(out)], capsys)
    assert code == 2
    assert "usage error" in err and "wedge dimension" in err
    assert not out.exists()


def test_build_wedge_dimension_2_verifies(tmp_path, capsys):
    out = tmp_path / "wedge.json"
    assert run(["build", "--field", "3", "--kind", "wedge", "--index", "2", "--out", str(out)], capsys)[0] == 0
    assert run(["verify", str(out), "--suite", "axioms"], capsys)[0] == 0


def test_build_cross_refuses_index(capsys):
    code, _, err = run(["build", "--field", "3", "--kind", "cross", "--index", "3"], capsys)
    assert code == 2
    assert "usage error" in err and "--index" in err


def test_build_custom_refuses_index(tmp_path, capsys):
    first = tmp_path / "a.json"
    assert run(["build", "--field", "3", "--kind", "symplectic", "--out", str(first)], capsys)[0] == 0
    code, _, err = run(["build", "--field", "3", "--kind", "custom", "--in", str(first),
                        "--index", "2"], capsys)
    assert code == 2
    assert "usage error" in err and "--index" in err


def test_build_custom_round_trip(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["build", "--field", "5", "--kind", "symplectic", "--out", str(first)], capsys)[0] == 0
    code, _, _ = run(["build", "--field", "5", "--kind", "custom", "--in", str(first),
                      "--out", str(second)], capsys)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.fixture(scope="module")
def m1_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "m1.json"
    assert main(["build", "--field", "3", "--kind", "symplectic", "--index", "1",
                 "--out", str(path)]) == 0
    return path


def test_verify_single_suite_passes(m1_instance, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run(["verify", str(m1_instance), "--suite", "dset", "--suite", "joinable",
                        "--out", str(out)], capsys)
    assert code == 0
    assert "[pass] dset" in err and "[pass] joinable" in err
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["config"] == {"budget": 10**6, "sample": None, "seed": None}
    assert [s["suite"] for s in report["suites"]] == ["dset", "joinable"]
    for suite in report["suites"]:
        assert suite["mode"] == "exhaustive"


def test_verify_reports_are_byte_identical(m1_instance, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", str(m1_instance), "--suite", "metric", "--suite", "bisectors",
            "--suite", "oracle"]
    assert run(argv + ["--out", str(out1)], capsys)[0] == 0
    assert run(argv + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_sampled_mode_is_seeded(m1_instance, tmp_path, capsys):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    argv = ["verify", str(m1_instance), "--suite", "recover", "--sample", "20", "--seed", "7"]
    assert run(argv + ["--out", str(out1)], capsys)[0] == 0
    assert run(argv + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["suites"][0]["mode"] == {"sample": 20, "seed": 7}


def test_verify_sampled_mode_without_seed_is_reproducible(m1_instance, tmp_path, capsys):
    out1, out2, out0 = tmp_path / "u1.json", tmp_path / "u2.json", tmp_path / "u0.json"
    argv = ["verify", str(m1_instance), "--suite", "lines", "--suite", "recover",
            "--sample", "20"]
    assert run(argv + ["--out", str(out1)], capsys)[0] == 0
    assert run(argv + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    for suite in report["suites"]:
        assert suite["mode"] == {"sample": 20, "seed": 0}
    # the omitted seed is seed 0: the same tuples get checked
    assert run(argv + ["--seed", "0", "--out", str(out0)], capsys)[0] == 0
    assert json.loads(out0.read_text())["suites"] == report["suites"]


def test_verify_sampled_mode_labels_only_the_sampling_suites(m1_instance, tmp_path, capsys):
    out = tmp_path / "sampled.json"
    code, _, _ = run(["verify", str(m1_instance), "--suite", "all", "--sample", "5",
                      "--out", str(out)], capsys)
    assert code == 0
    modes = {s["suite"]: s["mode"] for s in json.loads(out.read_text())["suites"]}
    assert {"lines", "joinable", "recover", "gamma", "hyperbolic"} <= set(modes)
    for name, mode in modes.items():
        sampled = name in ("lines", "joinable", "recover")
        assert mode == ({"sample": 5, "seed": 0} if sampled else "exhaustive"), name


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_verify_sample_below_one_is_usage_error(m1_instance, sample, capsys):
    # a sample of 0 tuples checks nothing, so it could only pass vacuously
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(m1_instance), "--suite", "recover", "--sample", sample])
    assert exc.value.code == 2
    assert "--sample" in capsys.readouterr().err


def test_verify_budget_exceeded_exit_code(m1_instance, capsys):
    code, _, err = run(["verify", str(m1_instance), "--suite", "identities",
                        "--budget", "10"], capsys)
    assert code == 3
    assert "budget exceeded" in err


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "hyperbolic"],
    ["export", "--what", "reconstruct"],
])
def test_hyperbolic_commands_honour_budget(command, tmp_path, capsys):
    # the doubled space over GF(3)^3 has 3^6 = 729 points: --budget decides,
    # not the default budget, in both directions
    args = command + ["--field", "3", "--hyp-dim", "3", "--out", str(tmp_path / "out.json")]
    code, _, err = run(args + ["--budget", "728"], capsys)
    assert code == 3
    assert "doubled point enumeration: 729 exceeds budget 728" in err
    assert run(args + ["--budget", "729"], capsys)[0] == 0


def test_verify_oracle_over_cap_is_budget_error(tmp_path, capsys):
    path = tmp_path / "m2.json"
    assert main(["build", "--field", "3", "--kind", "symplectic", "--index", "2",
                 "--out", str(path)]) == 0
    code, _, _ = run(["verify", str(path), "--suite", "oracle"], capsys)
    assert code == 3


def test_verify_oracle_cap_flag_is_gone(m1_instance, capsys):
    # the oracle cap is a fixed constant, not a flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(m1_instance), "--suite", "oracle", "--oracle-cap", "27"])
    assert exc.value.code == 2
    assert "--oracle-cap" in capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error(m1_instance, capsys):
    code, _, _ = run(["verify", str(m1_instance), "--suite", "nonsense"], capsys)
    assert code == 2


def test_verify_metric_suite_on_vector_instance_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cross.json"
    assert main(["build", "--field", "3", "--kind", "cross", "--out", str(path)]) == 0
    code, _, _ = run(["verify", str(path), "--suite", "metric"], capsys)
    assert code == 2


def test_verify_missing_instance_file(capsys):
    code, _, _ = run(["verify", "does-not-exist.json", "--suite", "dset"], capsys)
    assert code == 2


def test_verify_triangles_on_cross_reports_zero(tmp_path, capsys):
    path = tmp_path / "cross.json"
    assert main(["build", "--field", "3", "--kind", "cross", "--out", str(path)]) == 0
    out = tmp_path / "report.json"
    code, _, _ = run(["verify", str(path), "--suite", "triangles", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suites"][0]["data"]["census"] == 0


def test_verify_hyperbolic_without_instance(tmp_path, capsys):
    out = tmp_path / "hyp.json"
    code, _, _ = run(["verify", "--suite", "hyperbolic", "--field", "3",
                      "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    hyp = report["suites"][0]
    assert hyp["passed"] is True
    assert hyp["data"]["reconstruction"]["class_count"] == 13


def test_export_adjacency_dot_and_csv(m1_instance, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, _ = run(["export", str(m1_instance), "--what", "adjacency", "--format", "dot",
                      "--out", str(dot)], capsys)
    assert code == 0
    text = dot.read_text()
    assert text.count(";") >= 27  # all vertices listed
    assert "--" in text

    csv = tmp_path / "g.csv"
    code, _, _ = run(["export", str(m1_instance), "--what", "adjacency", "--format", "csv",
                      "--out", str(csv)], capsys)
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[1] == "p_index,q_index"
    assert len(lines) == 2 + 27 * 8 // 2


def test_export_adjacency_bad_format(m1_instance, capsys):
    # no export reads json, so argparse rejects it with a usage error
    with pytest.raises(SystemExit) as exc:
        main(["export", str(m1_instance), "--what", "adjacency", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_export_adjacency_defaults_to_dot(m1_instance, tmp_path, capsys):
    default, dot = tmp_path / "default.dot", tmp_path / "g.dot"
    argv = ["export", str(m1_instance), "--what", "adjacency"]
    assert run(argv + ["--out", str(default)], capsys)[0] == 0
    assert run(argv + ["--format", "dot", "--out", str(dot)], capsys)[0] == 0
    assert default.read_bytes() == dot.read_bytes()


@pytest.mark.parametrize("at", ["27", "99", "-1"])
def test_export_pencil_out_of_range_point_is_usage_error(m1_instance, capsys, at):
    code, out, err = run(["export", str(m1_instance), "--what", "pencil", "--at", at], capsys)
    assert code == 2
    assert "usage error" in err and "below 27" in err
    assert out == ""


def test_export_pencil(m1_instance, tmp_path, capsys):
    out = tmp_path / "pencil.json"
    code, _, _ = run(["export", str(m1_instance), "--what", "pencil", "--at", "origin",
                      "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["lines"]) == 4
    assert data["isomorphic"] is True


def test_export_bisectors_single_pair(m1_instance, tmp_path, capsys):
    out = tmp_path / "bis.json"
    code, _, _ = run(["export", str(m1_instance), "--what", "bisectors", "--pair", "0,4",
                      "--out", str(out)], capsys)
    assert code == 0
    entries = json.loads(out.read_text())
    assert [e["kind"] for e in entries] == ["t", "m", "sphere"]
    # one pair reads rows of rho, so a budget below |Y|^2 (27 <= 100 < 729) suffices
    small = tmp_path / "bis_small.json"
    code, _, _ = run(["export", str(m1_instance), "--what", "bisectors", "--pair", "0,4",
                      "--budget", "100", "--out", str(small)], capsys)
    assert code == 0
    assert small.read_bytes() == out.read_bytes()


def test_export_bisectors_all_pairs_deterministic(m1_instance, tmp_path, capsys):
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    argv = ["export", str(m1_instance), "--what", "bisectors"]
    assert run(argv + ["--out", str(out1)], capsys)[0] == 0
    assert run(argv + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    entries = json.loads(out1.read_text())
    assert len(entries) == 3 * 27 * 26 // 2


def test_export_reconstruct(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run(["export", "--what", "reconstruct", "--field", "3", "--hyp-dim", "3",
                      "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["reconstruction"]["isomorphic"] is True
    assert data["quadric_points"] == 130


def test_export_reconstruct_diag(tmp_path, capsys):
    out = tmp_path / "rec2.json"
    code, _, _ = run(["export", "--what", "reconstruct", "--field", "3",
                      "--hyp-diag", "1", "1", "-1", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["reconstruction"]["isomorphic"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "hyperbolic", "--hyp-diag", "1", "1", "0"],
    ["export", "--what", "reconstruct", "--hyp-diag", "1", "1", "3"],
])
def test_degenerate_hyp_diag_is_usage_error(argv, tmp_path, capsys):
    # an entry divisible by p (3 here) makes the diagonal base form degenerate
    out = tmp_path / "report.json"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2 and "usage error" in err
    assert not out.exists()


# SHA-256 of reports on instances from `semipolar build --field 3`; any change
# to a verdict, a witness, a count or the JSON layout shows here
PINNED_REPORTS = {
    ("verify", "m1", "--suite", "all"):
        "c10f0181eb918468a6b5189869a66f8b12ca3bee50d11b02d694a64abcaa3a8d",
    ("verify", "m2", "--suite", "recover", "--suite", "lines", "--suite", "joinable",
     "--sample", "50", "--seed", "3"):
        "7d1cf27ace777aeec545c8b5e7323cfa051a51f678867ae3d8180e4692ea88e1",
    ("export", "m2", "--what", "pencil", "--at", "5"):
        "3f696785e3ceac1b310d5f61f5672a5269413bf01f515b3b8fb45d1c679ca448",
    ("export", "cross", "--what", "pencil", "--at", "origin"):
        "cf16fcf0fd154b828af2a6284b082372e1fb2f3820269b6784871d57820d1b4d",
    ("export", "--what", "reconstruct", "--field", "5"):
        "024e35d5ad2f5aa7f4d34760566c65104b6a6b7595bcd559485ed0891228da6d",
    ("verify", "m2", "--suite", "all"):
        "22f2fb503d5ddf4fa816f042107bb24ab20235513808aa01ae32187129469834",
    ("verify", "cross", "--suite", "all"):
        "f0237070f6c795b95901c4b22b3809c8f5c4a773f09fb554eba79697bf987eee",
    ("verify", "cross", "--suite", "gamma"):
        "ca5425a03f9013cd808dc65a571b9175f32c043e00e8b98480590d828a4e1089",
    ("export", "m1", "--what", "bisectors"):
        "04d2bb94c79fbb24a0f24338044e550395fd9b0bdea6097c2fbd957e10730c3e",
    ("verify", "cross", "--suite", "dset", "--suite", "joinable"):
        "6f42fbf0872eb2f7ba4acd773a5bf1550e6010714771729fd777db3df1e7f5bf",
    ("export", "m2", "--what", "adjacency", "--format", "dot"):
        "53fb838c0a4aed0d0ace7c91a0c589c77273e5f2f41144883777c15910dbe61e",
    ("export", "m2", "--what", "adjacency", "--format", "csv"):
        "6f0f2e23c28a690f063e6163190187f582731d6b5c90d39bd6b3cabd61f7eadf",
    ("export", "m2", "--what", "pencil", "--at", "origin"):
        "1a234f0afb0103bc3137dbfd72757695333d96e68756c9cbc69691d50c5c7fbd",
    ("verify", "--suite", "hyperbolic", "--hyp-dim", "4", "--field", "3"):
        "a0ea0caba6c6b8fa4f40cb68a0bd638fd49172ce8f964cd76a905fde682c924b",
    ("verify", "--suite", "hyperbolic", "--hyp-diag", "1", "1", "-1", "--field", "3"):
        "0e1c3134dfb1a0ee45005d1ec354f898d68652ca7d4d6c0b2460436766fb58c3",
}


# the pins hold at any block size; at 7 elements a block the hyperbolic
# closure on dimension 4 takes about 30 s, so that entry runs at the default only
SLOW_AT_SMALL_CHUNK = ("verify", "--suite", "hyperbolic", "--hyp-dim", "4", "--field", "3")


@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
def test_reports_are_pinned_byte_for_byte(tmp_path, capsys, monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(linalg, "CHUNK", chunk)
    instances = {
        "m1": ["--kind", "symplectic", "--index", "1"],
        "m2": ["--kind", "symplectic", "--index", "2"],
        "cross": ["--kind", "cross"],
    }
    for name, args in instances.items():
        path = tmp_path / f"{name}.json"
        assert run(["build", "--field", "3", *args, "--out", str(path)], capsys)[0] == 0
    for argv, digest in PINNED_REPORTS.items():
        if chunk and argv == SLOW_AT_SMALL_CHUNK:
            continue
        out = tmp_path / "report.json"
        argv = [str(tmp_path / f"{a}.json") if a in instances else a for a in argv]
        assert run(argv + ["--out", str(out)], capsys)[0] == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus-flag"])
    assert exc.value.code == 2
