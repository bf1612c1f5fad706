"""Benchmark of the semipolar verifier: end to end, and per layer in a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/semipolar).
Every measured process is a child started with PYTHONPATH=src, one at a time,
in a closed loop: the next child starts when the previous one has exited.
Instances are written with the public `semipolar build` command into
perfbench/work/, together with reports, traces and result sets.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  The exit code is 0 when every operation passed its correctness
gate, 1 when one did not, and 2 when the benchmark could not run.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"

SETUP_REPEATS = 2  # fresh setup processes before and again after the measured loop
QUERIES_PER_SESSION = 100  # pair_report calls per query-session process
VERIFY_REPEATS = 2  # verify processes per run at least; wall_s takes the slower
DEADLINE_S = 170.0  # a run stops (and fails) rather than overrun this

HYPERBOLIC_GF3 = {
    "field": 3,
    "base_dim": 3,
    "quadric_points": 130,
    "polar_lines": 520,
    "maximal_singulars": 80,
    "parity_class_sizes": [40],
    "reduct_points": 117,
    "reduct_lines": 507,
    "reconstruction.class_count": 13,
    "reconstruction.r0_size": 39,
    "reconstruction.r1_size": 13,
    "reconstruction.isomorphic": True,
}

# Each verify workload pins the suites `--suite all` runs and exact counts read
# from their reports at the commit the benchmark was written against.
WORKLOADS = {
    "verify-m2": {
        "build": ["--field", "3", "--kind", "symplectic", "--index", "2"],
        "verify": ["--suite", "all"],
        "pins": {
            "axioms": {"D_dim": 1, "M_dim": 4},
            "identities": {},
            "gamma": {"singular_lines": 3240, "maximal_singular_subspaces": 1080},
            "lines": {"singular_lines": 3240},
            "dset": {"classes": 121, "excluded": 1},
            "joinable": {"expected": 81},
            "triangles": {"census": 77760},
            "recover": {"pairs": 9720},
            "pencil": {"lines": 40, "planes": 40},
            "autos": {"orbit": 243},
            "metric": {},
            "bisectors": {"hyperplane_size": 81},
            "hyperbolic": HYPERBOLIC_GF3,
        },
    },
    # Not listed in BENCHMARK.json (see README.md: too slow for the run budget);
    # kept so it can be run by name.
    "verify-cross": {
        "build": ["--field", "3", "--kind", "cross"],
        "verify": ["--suite", "all"],
        "pins": {
            "axioms": {"D_dim": 3, "M_dim": 3},
            "identities": {},
            "gamma": {"singular_lines": 3159, "maximal_singular_subspaces": 3159},
            "lines": {"singular_lines": 3159},
            "dset": {"classes": 364, "excluded": 247},
            "joinable": {"expected": 27},
            "triangles": {"census": 0},
            "recover": {"pairs": 9477},
            "pencil": {"lines": 13, "planes": 0},
            "autos": {"orbit": 729},
            "hyperbolic": HYPERBOLIC_GF3,
        },
    },
    # Not listed in BENCHMARK.json (see README.md: too noisy on a shared host
    # while one reconstruction fills a run); kept so it can be run by name.
    "reconstruct-gf5": {
        "build": None,
        "setup_double": ["5", "3"],
        "verify": ["--suite", "hyperbolic", "--field", "5", "--hyp-dim", "3"],
        "pins": {
            "hyperbolic": {
                "field": 5,
                "base_dim": 3,
                "quadric_points": 806,
                "polar_lines": 4836,
                "maximal_singulars": 312,
                "parity_class_sizes": [156],
                "reduct_points": 775,
                "reduct_lines": 4805,
                "reconstruction.class_count": 31,
                "reconstruction.r0_size": 155,
                "reconstruction.r1_size": 31,
                "reconstruction.isomorphic": True,
            },
        },
    },
    "pair-queries": {
        "build": ["--field", "5", "--kind", "symplectic", "--index", "1"],
        "queries": True,
    },
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p95_ms": "ms",
}

SUITE_NAMES = (
    "axioms", "identities", "gamma", "lines", "dset", "joinable", "triangles",
    "recover", "pencil", "autos", "metric", "bisectors", "hyperbolic",
)

# per-layer metric -> (unit, how it is read from the traced child's summary)
PER_LAYER: dict[str, tuple[str, tuple]] = {
    **{f"suite.{s}_s": ("s", ("total", f"suite.{s}")) for s in SUITE_NAMES},
    "apsg.point_ops": ("count", ("count", "apsg.point_ops")),
    "apsg.affline_new": ("count", ("count", "apsg.affline_new")),
    "apsg.affline_distinct": ("count", ("count", "apsg.affline_distinct")),
    "apsg.line_yield": ("ratio", ("ratio", "apsg.affline_distinct", "apsg.affline_new")),
    "apsg.singular_lines_s": ("s", ("total", "apsg.singular_lines")),
    "apsg.maximal_singular_subspaces_s": ("s", ("total", "apsg.maximal_singular_subspaces")),
    "apsg.zset_calls": ("count", ("count", "apsg.zset")),
    "apsg.zset_s": ("s", ("total", "apsg.zset")),
    "apsg.is_affine_point_set_s": ("s", ("total", "apsg.is_affine_point_set")),
    "apsg.neighborhood_intersection_calls": ("count", ("count", "apsg.neighborhood_intersection")),
    "forms.verify_identities_s": ("s", ("total", "forms.verify_identities")),
    "forms.check_semiform_axioms_s": ("s", ("total", "forms.check_semiform_axioms")),
    "forms.value_table_s": ("s", ("total", "forms.value_table")),
    "forms.value_table_bytes": ("bytes", ("count", "forms.value_table_bytes")),
    "forms.group_tables_builds": ("count", ("count", "forms.group_tables_builds")),
    "forms.group_tables_bytes": ("bytes", ("count", "forms.group_tables_bytes")),
    "forms.eval_calls": ("count", ("count", "forms.eval_calls")),
    "linalg.rref_calls": ("count", ("count", "linalg.rref")),
    "linalg.rref_s": ("s", ("total", "linalg.rref")),
    "linalg.subspace_new": ("count", ("count", "linalg.subspace_new")),
    "linalg.enumerate_subspaces_s": ("s", ("total", "linalg.enumerate_subspaces")),
    "gf.field_new": ("count", ("count", "gf.field_new")),
    "hyperbolic.build_s": ("s", ("total", "hyperbolic.build")),
    "hyperbolic.lines_s": ("s", ("total", "hyperbolic.lines")),
    "hyperbolic.maximal_singulars_s": ("s", ("total", "hyperbolic.maximal_singulars")),
    "hyperbolic.maximal_found": ("count", ("count", "hyperbolic.maximal_found")),
    "hyperbolic.extension_rref_calls": ("count", ("count", "hyperbolic.extension_rref_calls")),
    "hyperbolic.extension_yield": (
        "ratio", ("ratio", "hyperbolic.maximal_found", "hyperbolic.extension_rref_calls")
    ),
    "hyperbolic.parity_classes_s": ("s", ("total", "hyperbolic.parity_classes")),
    "hyperbolic.reconstruct_s": ("s", ("total", "hyperbolic.reconstruct")),
    "autos.orbit_of_s": ("s", ("total", "autos.orbit_of")),
    "autos.point_map_new": ("count", ("count", "autos.point_map_new")),
    "metric.pair_report_s": ("s", ("total", "metric.pair_report")),
    "metric.pair_report_calls": ("count", ("count", "metric.pair_report")),
    "metric.bisector_calls": ("count", ("count", "metric.bisector_calls")),
    "cli.dump_s": ("s", ("total", "cli.dump")),
    "cli.report_bytes": ("bytes", ("count", "cli.report_bytes")),
    "trace.wall_s": ("s", ("wall", "traced")),
    "trace.overhead_s": ("s", ("wall", "overhead")),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- correctness gates -----------------------------------------------------------


def _lookup(data: dict, path: str):
    for key in path.split("."):
        if not isinstance(data, dict) or key not in data:
            return KeyError
        data = data[key]
    return data


def report_misses(report, exit_code: int, pins: dict) -> list[str]:
    """Every reason a `semipolar verify` run fails its gate; empty when it passes.

    A run misses on a nonzero exit, on a report that does not parse, on any
    suite or check with passed false, on a pinned suite it did not run, and on
    a pinned count that differs.  Report bytes are deliberately not compared.
    """
    misses = []
    if exit_code != 0:
        misses.append(f"exit code {exit_code}")
    if not isinstance(report, dict):
        return misses + ["no parsable report"]
    if report.get("passed") is not True:
        misses.append("report passed is not true")
    suites = {}
    for suite in report.get("suites", []):
        name = suite.get("suite")
        suites[name] = suite
        if suite.get("passed") is not True:
            misses.append(f"suite {name}: passed is not true")
        for check in suite.get("checks", []):
            if check.get("passed") is not True:
                misses.append(f"suite {name} check {check.get('name')}: passed is not true")
    for name, counts in pins.items():
        if name not in suites:
            misses.append(f"suite {name} did not run")
            continue
        for path, want in counts.items():
            got = _lookup(suites[name].get("data", {}), path)
            if got is KeyError:
                misses.append(f"suite {name}: {path} missing, expected {want!r}")
            elif got != want:
                misses.append(f"suite {name}: {path} = {got!r}, expected {want!r}")
    return misses


# -- child processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence counts, repeat exactly
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # no BLAS worker threads in the measured process
    return env


class Child:
    """One finished child process: wall time, its own rusage, exit code, stdout."""

    def __init__(self, argv: list[str], deadline: float, log_name: str):
        out_path = WORK / f"{log_name}.out"
        err_path = WORK / f"{log_name}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                    raise BenchError(f"{' '.join(argv[:4])} ran past the run deadline")
                time.sleep(0.005)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = out_path.read_text()
        self.stderr_path = err_path


def build_instance(name: str, spec: dict, deadline: float) -> Path | None:
    if spec["build"] is None:
        return None
    path = WORK / f"{name}.json"
    child = Child(
        [sys.executable, "-m", "semipolar.cli", "build", *spec["build"], "--out", str(path)],
        deadline,
        f"{name}.build",
    )
    if child.exit_code != 0:
        raise BenchError(f"semipolar build failed; see {child.stderr_path}")
    return path


def measure_setup(name: str, spec: dict, instance: Path | None, deadline: float) -> list[float]:
    """Setup times of SETUP_REPEATS fresh processes, each timed from inside."""
    if instance is not None:
        args = ["setup", "space", str(instance)]
    else:
        args = ["setup", "double", *spec["setup_double"]]
    times = []
    for k in range(SETUP_REPEATS):
        child = Child([sys.executable, str(BENCH / "child.py"), *args], deadline, f"{name}.setup")
        if child.exit_code != 0:
            raise BenchError(f"setup process failed; see {child.stderr_path}")
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class VerifyOp:
    """One `semipolar verify` run of a workload, gated by its pinned counts."""

    def __init__(self, name: str, spec: dict, instance: Path | None, deadline: float,
                 trace_tag: str | None = None):
        report_path = WORK / f"{name}.report.json"
        if report_path.exists():
            report_path.unlink()
        cli = ([str(instance)] if instance else []) + spec["verify"] + ["--out", str(report_path)]
        if trace_tag is None:
            argv = [sys.executable, "-m", "semipolar.cli", "verify", *cli]
        else:
            summary_path = WORK / f"{trace_tag}.summary.json"
            argv = [
                sys.executable, str(BENCH / "child.py"), "verify", str(summary_path),
                str(WORK / f"{trace_tag}.trace.json"), "verify", *cli,
            ]
        child = Child(argv, deadline, f"{name}.verify")
        exit_code = child.exit_code
        self.summary = None
        if trace_tag is not None and exit_code == 0:
            self.summary = json.loads(summary_path.read_text())
            exit_code = self.summary["exit_code"]
        try:
            report = json.loads(report_path.read_text())
        except (OSError, json.JSONDecodeError):
            report = None
        self.child = child
        self.misses = report_misses(report, exit_code, spec["pins"])
        self.attempted, self.failed = 1, int(bool(self.misses))
        self.latencies_s = [child.wall_s]


class QuerySession:
    """One process that builds the space once and answers a stream of pair queries."""

    def __init__(self, name: str, instance: Path, pairs: list, deadline: float,
                 trace_tag: str | None = None):
        pairs_path = WORK / f"{name}.pairs.json"
        pairs_path.write_text(json.dumps(pairs))
        summary_path = WORK / f"{name}.session.json"
        args = ["queries", str(instance), str(pairs_path), str(summary_path)]
        if trace_tag is not None:
            args.append(str(WORK / f"{trace_tag}.trace.json"))
        child = Child([sys.executable, str(BENCH / "child.py"), *args], deadline, f"{name}.queries")
        if child.exit_code != 0:
            raise BenchError(f"query session process failed; see {child.stderr_path}")
        self.child = child
        self.summary = json.loads(summary_path.read_text())
        self.misses = self.summary["misses"]
        self.attempted, self.failed = self.summary["attempted"], self.summary["failed"]
        self.latencies_s = self.summary["latencies_s"]


def session_pairs(seed: int, size: int, k: int) -> list[list[int]]:
    """The k-th session's slice of the seeded pair stream; the only input the seed controls."""
    rng = random.Random(seed)
    pairs = [[rng.randrange(size), rng.randrange(size)] for _ in range((k + 1) * QUERIES_PER_SESSION)]
    return pairs[k * QUERIES_PER_SESSION :]


def instance_size(instance: Path) -> int:
    data = json.loads(instance.read_text())
    return int(data["p"]) ** (int(data["nu"]) + int(data["n"]))


# -- statistics ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    spans, counts = summary["spans"], summary["counts"]
    out = {}
    for metric, (unit, source) in PER_LAYER.items():
        kind = source[0]
        if kind == "total":
            value = spans.get(source[1], {}).get("total_s", 0.0)
        elif kind == "count":
            value = counts.get(source[1], 0)
        elif kind == "ratio":
            den = counts.get(source[2], 0)
            value = counts.get(source[1], 0) / den if den else 0.0
        elif source[1] == "traced":
            value = traced_wall
        else:
            value = traced_wall - untraced_wall
        out[metric] = {"value": value, "unit": unit}
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


# -- one run -----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(the result line, the detail record) of one benchmark run."""
    if not (ROOT / "src" / "semipolar" / "cli.py").is_file():
        raise BenchError(f"no semipolar sources under {ROOT / 'src'}")
    spec = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    instance = build_instance(workload, spec, deadline)

    def operation(k: int, trace_tag=None):
        if spec.get("queries"):
            pairs = session_pairs(seed, instance_size(instance), k)
            return QuerySession(workload, instance, pairs, deadline, trace_tag)
        return VerifyOp(workload, spec, instance, deadline, trace_tag)

    detail: dict = {"workload": workload, "seed": seed, "trace": int(trace), "env": environment()}
    if trace:
        # the same inputs once untraced and once traced: the difference is the overhead
        tag = f"{workload}-seed{seed}"
        plain = operation(0)
        traced = operation(0, trace_tag=tag)
        if traced.summary is None:
            raise BenchError(f"the traced process failed; see {traced.child.stderr_path}")
        ops = [plain, traced]
        metrics = layer_metrics(traced.summary, traced.child.wall_s, plain.child.wall_s)
        detail["trace_id"] = traced.summary["trace_id"]
        detail["trace_file"] = str((WORK / f"{tag}.trace.json").relative_to(ROOT))
        detail["spans"] = traced.summary["spans"]
    else:
        # setup is sampled on both sides of the loop, so its samples span the run
        setups = measure_setup(workload, spec, instance, deadline)
        # fill the window, but start no operation the window cannot hold
        least = 1 if spec.get("queries") else VERIFY_REPEATS
        start = time.perf_counter()
        ops = [operation(0)]
        while len(ops) < least or (
            time.perf_counter() - start + statistics.median(op.child.wall_s for op in ops) <= seconds
        ):
            ops.append(operation(len(ops)))
        setups += measure_setup(workload, spec, instance, deadline)
        walls = [op.child.wall_s for op in ops]
        latencies = [x for op in ops for x in op.latencies_s]
        metrics = {
            "wall_s": max(walls),
            "setup_s": max(setups),
            "peak_rss_mb": max(op.child.peak_rss_mb for op in ops),
            "query_p95_ms": percentile(latencies, 95) * 1e3,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        detail["query_p50_ms"] = percentile(latencies, 50) * 1e3
        detail["samples"] = {
            "wall_s": len(walls),
            "setup_s": len(setups),
            "peak_rss_mb": len(ops),
            "query_ms": len(latencies),
        }
        detail["setup_s_all"] = setups
        detail["wall_s_all"] = walls
        detail["cpu_s_all"] = [op.child.cpu_s for op in ops]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    detail["fail_frac"] = {"failed": failed, "attempted": attempted, "value": failed / attempted}
    detail["misses"] = [m for op in ops for m in op.misses][:20]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def describe(result: dict, detail: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, sample counts and ratio bases."""
    env = detail["env"]
    lines = [
        f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
        f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}"
    ]
    samples = detail.get("samples", {})
    for name, m in result["metrics"].items():
        note = ""
        if name.startswith("query_"):
            note = f" (n={samples['query_ms']})"
        elif name in samples:
            note = f" (n={samples[name]})"
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if "query_p50_ms" in detail:
        lines.append(f"  query_p50_ms = {detail['query_p50_ms']:.6g} ms (n={samples['query_ms']}; not gated)")
    ff = detail["fail_frac"]
    lines.append(f"  fail_frac = {ff['failed']}/{ff['attempted']} = {ff['value']:.6g}")
    for miss in detail["misses"]:
        lines.append(f"  MISS {miss}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = WORK / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"result": result, "detail": detail}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print("\n".join(describe(result, detail)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
