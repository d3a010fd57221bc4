"""Command line interface.

Subcommands::

    solve     run one algorithm on a model, write assignment and trace
    generate  write a seeded synthetic grid instance
    compare   run several algorithms on one model, write a merged trace
    verify    exhaustive and rank-oracle checks on a small model

Exit codes: 0 success, 1 solver truncation or failed or incomplete
verification, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import diagram as dg
from . import oracle
from .engine import DualTrace, SolverParams, _check_model, run
from .factor_graph import EnumerationCapError, FactorGraph, energy, random_grid
from .io import emit_trace, load_model, save_model
from .pursuit import run_with_pursuit
from .relaxations import (
    RelaxationError,
    all_subsets_spec,
    cycle_spec,
    dd_spec,
    gmplp_spec,
    max_intersection_spec,
    pi_system_spec,
    powerset_spec,
)

ALGORITHMS = {
    "gmplp": gmplp_spec,
    "dd": dd_spec,
    "cycle": cycle_spec,
    "ps": powerset_spec,
    "pi-s": pi_system_spec,
    "mi": max_intersection_spec,
}


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("beliefs", "messages"), default="beliefs")
    p.add_argument("--pursuit", choices=("none", "stealth"), default="none")
    p.add_argument("--tg", type=float, default=1e-8, help="inner-loop tolerance")
    p.add_argument("--ta", type=float, default=1e-6, help="outer gap tolerance")
    p.add_argument("--k1", type=int, default=1000, help="sweeps in the first round")
    p.add_argument("--k2", type=int, default=20, help="sweeps per pursuit round")
    p.add_argument("--n", type=int, default=20, help="clusters added per pursuit round")
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--trace", type=Path, help="trace output path (.csv or .json)")


def _params(args: argparse.Namespace) -> SolverParams:
    return SolverParams(
        inner_tol=args.tg,
        outer_tol=args.ta,
        max_sweeps=args.k1,
        pursuit_sweeps=args.k2,
        clusters_per_round=args.n,
        time_limit=args.time_limit,
    )


def _trace_fmt(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "csv"


def _load_valid(path: Path) -> FactorGraph:
    """The model at ``path``, checked before any relaxation is built from it
    (an invalid one raises ``InvalidModelError``)."""
    graph = load_model(path)
    _check_model(graph)
    return graph


def _run_one(graph, alg: str, args: argparse.Namespace):
    solve = run_with_pursuit if args.pursuit == "stealth" else run
    return solve(graph, ALGORITHMS[alg](graph), _params(args), args.mode, label=alg)


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = _load_valid(args.model)
    result = _run_one(graph, args.alg, args)
    if args.trace:
        emit_trace(result.trace, args.trace, _trace_fmt(args.trace))
    payload = {
        "algorithm": args.alg,
        "assignment": list(result.assignment),
        "energy": energy(graph, result.assignment),
        "dual": result.dual,
        "gap": result.gap,
        "truncated": result.truncated,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload) + "\n")
    else:
        print(json.dumps(payload))
    return 1 if result.truncated else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dims = args.grid.lower().split("x")
    if len(dims) != 2:
        print("--grid expects WxH, e.g. 16x16", file=sys.stderr)
        return 2
    width, height = int(dims[0]), int(dims[1])
    graph = random_grid(width, height, args.states, args.seed)
    save_model(graph, args.out)
    print(f"wrote {width}x{height} grid with {len(graph.clusters)} clusters to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_valid(args.model)
    algs = [a.strip() for a in args.alg.split(",") if a.strip()]
    unknown = [a for a in algs if a not in ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {', '.join(unknown)}", file=sys.stderr)
        return 2
    traces = []
    any_truncated = False
    for alg in algs:
        result = _run_one(graph, alg, args)
        any_truncated = any_truncated or result.truncated
        traces.append(result.trace)
        print(f"{alg}: dual={result.dual:.6f} primal={result.primal:.6f} "
              f"gap={result.gap:.2e}")
    if args.trace:
        merged = DualTrace([r for trace in traces for r in trace.records])
        emit_trace(merged, args.trace, _trace_fmt(args.trace))
    return 1 if any_truncated else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_valid(args.model)
    checks: list[tuple[str, bool, str]] = []

    try:
        exact = oracle.brute_force_map(graph, cap=args.cap)
    except EnumerationCapError as exc:
        print(f"verify: cannot enumerate model: {exc}", file=sys.stderr)
        return 1

    params = SolverParams(max_sweeps=args.k1)
    for alg in ("dd", "mi"):
        spec = ALGORITHMS[alg](graph)
        result = run(graph, spec, params, label=alg)
        ok = result.dual >= exact.value - 1e-9
        detail = f"dual={result.dual:.6f} optimum={exact.value:.6f}"
        checks.append((f"{alg} weak duality", ok, detail))
        if result.gap <= 1e-6:
            checks.append((
                f"{alg} exact decoding",
                energy(graph, result.assignment) == exact.value,
                detail,
            ))

    anchors = graph.clusters
    stopped = ""
    try:
        base = dg.diagram_from_relaxation(all_subsets_spec(graph), anchors)
        base_sys = oracle.constraint_system(base, graph.cardinalities)
        for alg in ("ps", "pi-s", "mi"):
            d = dg.diagram_from_relaxation(ALGORITHMS[alg](graph), anchors)
            sys_d = oracle.constraint_system(d, graph.cardinalities)
            checks.append((
                f"{alg} diagram equivalent to unreduced baseline",
                oracle.affine_system_equal(base_sys, sys_d),
                "",
            ))
    except (EnumerationCapError, RelaxationError) as exc:
        # a valid model too large for the rank oracle: not a usage error
        stopped = f"verify: cannot certify diagrams: {exc}"

    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status}: {name}{suffix}")
        failed += 0 if ok else 1
    if stopped:
        print(stopped, file=sys.stderr)
    return 0 if failed == 0 and not stopped else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maplp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm on a model")
    p_solve.add_argument("--model", type=Path, required=True)
    p_solve.add_argument("--alg", choices=sorted(ALGORITHMS), required=True)
    p_solve.add_argument("--out", type=Path, help="assignment output path (JSON)")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate", help="write a seeded grid instance")
    p_gen.add_argument("--grid", required=True, help="WxH, e.g. 16x16")
    p_gen.add_argument("--states", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_cmp = sub.add_parser("compare", help="run several algorithms on one model")
    p_cmp.add_argument("--model", type=Path, required=True)
    p_cmp.add_argument("--alg", required=True,
                       help="comma-separated algorithm names")
    _add_solver_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="oracle checks on a small model")
    p_ver.add_argument("--model", type=Path, required=True)
    p_ver.add_argument("--cap", type=int, default=1_000_000,
                       help="state-space cap for enumeration")
    p_ver.add_argument("--k1", type=int, default=500)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"maplp: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"maplp: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
