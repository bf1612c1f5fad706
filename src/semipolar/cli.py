"""Command-line driver: build instances, run verification suites, export structures.

Exit codes: 0 all suites pass, 1 a suite failed, 2 usage error (among them an
instance file whose form or atlas is degenerate), 3 enumeration budget exceeded.
All reports are JSON with sorted keys, byte-identical on rerun.

Each command imports the layers it runs, when it runs them: `build` and the
instance loaders need only apsg, forms, linalg and gf; `verify` imports the
suites and through them every layer, `export --what reconstruct` the
hyperbolic engine and `export --what bisectors` the metric layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .apsg import SemipolarSpace
from .errors import (
    DEFAULT_BUDGET, DegenerateAtlas, DegenerateForm, DimensionMismatch, EnumerationTooLarge, GeometryError,
)
from .forms import Semiform, cross_product_map, exterior_square, standard_symplectic
from .gf import GF
from .linalg import LinearMap


def _write_text(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj, path: Optional[str]) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_instance(kind: str, field: int, index: int) -> Semiform:
    GF(field)
    if kind == "symplectic":
        return Semiform(standard_symplectic(index, field), kind="symplectic")
    if kind == "wedge":
        pairs = index * (index - 1) // 2
        return Semiform(exterior_square(LinearMap.identity(pairs, field), index), kind="wedge")
    if kind == "cross":
        return Semiform(cross_product_map(field), kind="cross")
    raise ValueError(f"unknown kind {kind!r}")


def load_instance(path: str) -> Semiform:
    with open(path, encoding="utf-8") as fh:
        return Semiform.from_jsonable(json.load(fh))


def cmd_build(args) -> int:
    if args.kind == "custom":
        if not args.infile:
            print("--kind custom needs --in", file=sys.stderr)
            return 2
        rho = load_instance(args.infile)
    else:
        rho = build_instance(args.kind, args.field, args.index)
    _dump(rho.to_jsonable(), args.out)
    return 0


def _space_from_args(args) -> Optional[SemipolarSpace]:
    if not args.instance:
        return None
    try:
        return SemipolarSpace(load_instance(args.instance), budget=args.budget)
    except (DegenerateForm, DegenerateAtlas) as exc:  # an instance no space is built on
        raise ValueError(str(exc)) from exc


def cmd_verify(args) -> int:
    from .suites import SuiteConfig, applicable_suites, run_suite

    cfg = SuiteConfig(
        budget=args.budget,
        sample=args.sample,
        seed=0 if args.seed is None else args.seed,
        hyp_dim=args.hyp_dim,
        hyp_diag=tuple(args.hyp_diag) if args.hyp_diag else None,
        field=args.field,
    )
    space = _space_from_args(args)
    names = args.suite or ["all"]
    if "all" in names:
        names = applicable_suites(space, cfg)
    reports = [run_suite(name, space, cfg) for name in names]
    passed = all(r["passed"] for r in reports)
    out = {
        "command": "verify",
        "instance": space.form.to_jsonable() if space else None,
        "config": {
            "budget": cfg.budget,
            "sample": cfg.sample,
            "seed": args.seed,
        },
        "suites": reports,
        "passed": passed,
    }
    _dump(out, args.out)
    for r in reports:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['suite']}", file=sys.stderr)
    return 0 if passed else 1


def cmd_export(args) -> int:
    if args.what == "reconstruct":
        from .hyperbolic import (
            build_double,
            default_deleted_subspace,
            reconstruction_report,
            standard_doubling_base,
        )

        p = args.field or 3
        base = standard_doubling_base(args.hyp_dim, p, diag=args.hyp_diag)
        hyp = build_double(args.hyp_dim, base, budget=args.budget)
        _dump(reconstruction_report(hyp, default_deleted_subspace(hyp)), args.out)
        return 0

    space = _space_from_args(args)
    if space is None:
        print("this export needs an instance file", file=sys.stderr)
        return 2

    if args.what == "adjacency":
        _write_text(space.adjacency_dot() if args.format == "dot" else space.adjacency_csv(), args.out)
        return 0

    if args.what == "pencil":
        if args.at in (None, "origin"):
            at = space.origin
        elif 0 <= int(args.at) < space.size:
            at = space.point(int(args.at))
        else:
            raise ValueError(f"--at needs 'origin' or a point index below {space.size}")
        pencil = space.pencil_structure(at)
        out = {
            "at": list(at.flat()),
            "lines": [
                {"base": list(l.base.flat()), "direction": list(l.direction.flat())}
                for l in pencil.lines
            ],
            "planes": [list(plane) for plane in pencil.planes],
            "null_system_points": len(pencil.null_points),
            "null_system_lines": len(pencil.null_lines),
            "isomorphic": pencil.isomorphic,
        }
        _dump(out, args.out)
        return 0

    if args.what == "bisectors":
        from .metric import pair_reports

        if args.pair:
            i, j = (int(x) for x in args.pair.split(","))
            if not (0 <= i < space.size and 0 <= j < space.size):
                raise ValueError(f"--pair needs point indices below {space.size}")
            first, second = [i], [j]
        else:
            first, second = (codes.tolist() for codes in np.triu_indices(space.size, 1))
        _dump(pair_reports(space, first, second), args.out)
        return 0

    print(f"unknown export {args.what!r}", file=sys.stderr)
    return 2


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semipolar",
        description="Construct and exhaustively verify affine semipolar spaces over odd prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a semiform instance file")
    b.add_argument("--field", type=int, required=True, help="odd prime p")
    b.add_argument("--kind", choices=["symplectic", "wedge", "cross", "custom"], required=True)
    b.add_argument("--index", type=int, default=None,
                   help="symplectic index m >= 1 (dim V = 2m) or wedge dimension n >= 2; "
                        "refused with cross and custom")
    b.add_argument("--in", dest="infile", help="existing instance file for --kind custom")
    b.add_argument("--out", help="output path (stdout when omitted)")

    v = sub.add_parser("verify", help="run verification suites against an instance")
    v.add_argument("instance", nargs="?", help="instance JSON file")
    v.add_argument("--suite", action="append",
                   help="suite name or 'all'; may repeat")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.add_argument("--sample", type=positive_int, default=None,
                   help="sampled mode: tuples per suite, at least 1")
    v.add_argument("--seed", type=int, default=None,
                   help="sampling seed, 0 when omitted; the config block echoes the flag as given")
    v.add_argument("--field", type=int, default=None, help="field for the hyperbolic suite")
    v.add_argument("--hyp-dim", type=int, default=3)
    v.add_argument("--hyp-diag", type=int, nargs="+", default=None)
    v.add_argument("--out", help="report path (stdout when omitted)")

    e = sub.add_parser("export", help="export graphs, pencils, bisectors, reconstructions")
    e.add_argument("instance", nargs="?", help="instance JSON file")
    e.add_argument("--what", choices=["adjacency", "pencil", "bisectors", "reconstruct"],
                   required=True)
    e.add_argument("--format", choices=["dot", "csv"], default="dot", help="adjacency format")
    e.add_argument("--at", help="pencil base point: 'origin' or a point index")
    e.add_argument("--pair", help="bisector pair 'i,j' (point indices)")
    e.add_argument("--field", type=int, default=None)
    e.add_argument("--hyp-dim", type=int, default=3)
    e.add_argument("--hyp-diag", type=int, nargs="+", default=None)
    e.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    e.add_argument("--out", help="output path (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            if args.index is None:
                args.index = {"symplectic": 1, "wedge": 3}.get(args.kind)
            elif args.kind in ("cross", "custom"):
                raise ValueError(f"--index does not apply to --kind {args.kind}")
            return cmd_build(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "export":
            return cmd_export(args)
        parser.error(f"unknown command {args.command!r}")
    except EnumerationTooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, DimensionMismatch, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
