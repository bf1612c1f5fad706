"""One measured child process of the benchmark; run.py starts it with PYTHONPATH=src.

    child.py setup space INSTANCE          import, load, SemipolarSpace + value_table
    child.py setup double P N              import, build_double(N, standard base over GF(P))
    child.py verify SUMMARY TRACE ARGS...  `semipolar verify ARGS...` under the tracer
    child.py queries INSTANCE PAIRS SUMMARY [TRACE]
                                           one closed-loop session of pair_report calls

Each mode writes its result as JSON (to stdout for setup, to SUMMARY otherwise).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def cmd_setup(args) -> dict:
    if args.what == "space":
        from semipolar.apsg import SemipolarSpace
        from semipolar.cli import load_instance

        (path,) = args.params
        space = SemipolarSpace(load_instance(path))
        table = space.value_table
        if table.shape != (space.size, space.size):
            raise SystemExit(f"value table has shape {table.shape}, expected {space.size}^2")
    else:
        from semipolar.hyperbolic import build_double, standard_doubling_base

        p, n = (int(x) for x in args.params)
        hyp = build_double(n, standard_doubling_base(n, p))
        if not hyp.quadric_points:
            raise SystemExit("the doubled form has no isotropic points")
    return {"setup_s": time.perf_counter() - _T0}


def _tracer(trace_path):
    if trace_path is None:
        return None
    from spans import Tracer, instrument

    tracer = Tracer(os.path.basename(trace_path).removesuffix(".trace.json"))
    instrument(tracer)
    return tracer


def _finish(tracer, trace_path, summary: dict) -> dict:
    if tracer is not None:
        from spans import span_times

        tracer.write(trace_path)
        summary["trace_id"] = tracer.trace_id
        summary["spans"] = span_times(*tracer.span_table())
        summary["counts"] = tracer.counts
    return summary


def cmd_verify(args) -> dict:
    tracer = _tracer(args.trace)
    from semipolar.cli import main

    code = main(args.cli_args)
    return _finish(tracer, args.trace, {"exit_code": code})


def check_pair_report(entries: list, size: int, p: int, pair: tuple) -> list[str]:
    """Misses of one pair_report: its cardinalities must match its classification."""
    expected = {"hyperplane": size // p, "empty": 0, "all": size}
    misses = []
    if sorted(e["kind"] for e in entries) != ["m", "sphere", "t"]:
        misses.append(f"{pair}: kinds {[e['kind'] for e in entries]}")
    for e in entries:
        if e["pair"] != list(pair):
            misses.append(f"{pair}: report names pair {e['pair']}")
        want = expected.get(e["classification"])
        if want is None or e["cardinality"] != want:
            misses.append(
                f"{pair} {e['kind']}: {e['classification']} with {e['cardinality']} points"
            )
    return misses


def cmd_queries(args) -> dict:
    tracer = _tracer(args.trace)
    from semipolar.apsg import SemipolarSpace
    from semipolar.cli import load_instance
    from semipolar.metric import pair_report

    space = SemipolarSpace(load_instance(args.instance))
    with open(args.pairs, encoding="utf-8") as fh:
        pairs = [tuple(pair) for pair in json.load(fh)]
    latencies, misses, failed = [], [], 0
    clock = time.perf_counter
    for i, j in pairs:
        start = clock()
        try:
            entries = pair_report(space, space.point(i), space.point(j))
            bad = []
        except Exception as exc:  # a raising query is a failed operation, not a crash
            bad = [f"({i}, {j}): {type(exc).__name__}: {exc}"]
        latencies.append(clock() - start)
        if not bad:
            bad = check_pair_report(entries, space.size, space.p, (i, j))
        failed += bool(bad)
        misses.extend(bad)
    summary = {"latencies_s": latencies, "attempted": len(pairs), "failed": failed, "misses": misses[:20]}
    return _finish(tracer, args.trace, summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("what", choices=["space", "double"])
    s.add_argument("params", nargs="+")
    v = sub.add_parser("verify")
    v.add_argument("summary")
    v.add_argument("trace")
    v.add_argument("cli_args", nargs=argparse.REMAINDER)
    q = sub.add_parser("queries")
    q.add_argument("instance")
    q.add_argument("pairs")
    q.add_argument("summary")
    q.add_argument("trace", nargs="?")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps(cmd_setup(args)))
        return 0
    result = cmd_verify(args) if args.mode == "verify" else cmd_queries(args)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
