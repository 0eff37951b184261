"""Command-line surface: solve, verify, gap, gen, export-dot.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 input error (or a failed stdout write), 2 resource cap exceeded,
3 verification failure.
Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import os
import sys

from .errors import CapExceeded, ValidationError
from .generate import random_instance
from .graph import bipartite_dot, derived_dot
from .instance import Instance, UnicastInstance, parse_instance, serialize_instance
from .jsontext import Entries, dumps
from .pipeline import SolveConfig, gap_report, pick_cover, solve_instance
from .scheme import DEFAULT_WORD_WIDTH, _check_trials, parse_scheme, verify_scheme

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

# gen's work bound: random_instance draws once per (receiver, message) pair,
# and at -p 1 every draw is an id in the output (10^6 draws: 16 MB of JSON)
GEN_MAX_DRAWS = 10**6
# export-dot's bipartite bound: the diagram draws one node line per message
DOT_MAX_MESSAGES = 10**6
# verify's work bound: at 6-7 us a trial on 500 virtuals (CPython 3.11, 2-vCPU VM),
# 10^6 trials take seconds where 10^12 would take days
VERIFY_MAX_TRIALS = 10**6
# each pipeline flag sets the SolveConfig field it names only when given: no CLI default
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SolveConfig))


def _emit(data: dict) -> None:
    print(dumps(data))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_file(path))


def _config_from_args(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS})


def _warn_fallback(reason: str | None) -> None:
    if reason:
        print(f"warning: {reason}; falling back to greedy", file=sys.stderr)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    config = _config_from_args(args)
    outcome = solve_instance(inst, config)
    _warn_fallback(outcome.fallback)
    _emit(
        {
            "num_messages": inst.num_messages,
            "rate": outcome.scheme.rate,
            "transmissions": [list(t) for t in outcome.scheme.transmissions],
            "solver": outcome.solver_used,
            "dedup": config.dedup,
            "assignments": Entries(outcome.assignments),
        }
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_trials(args.trials, DEFAULT_WORD_WIDTH)
    if args.trials > VERIFY_MAX_TRIALS:
        raise ValidationError(f"trials must be at most {VERIFY_MAX_TRIALS}, got {args.trials}")
    inst = _load_instance(args.instance)
    scheme = parse_scheme(_read_file(args.scheme), num_messages=inst.num_messages)
    u = UnicastInstance(inst)  # verification checks every demand, no dedup
    assigned, failure = verify_scheme(u, scheme, args.trials, args.seed)
    unsatisfied = [i for i, pair in enumerate(assigned) if pair is None]
    report: dict = {
        "rate": scheme.rate,
        "symbolic_ok": not unsatisfied,
        "unsatisfied": [
            {"virtual": i, "origin": list(u.virtuals[i].origin), "want": u.virtuals[i].want}
            for i in unsatisfied
        ],
    }
    if unsatisfied:
        report.update({"random_ok": None, "trials": args.trials, "seed": args.seed})
        _emit(report)
        return EXIT_VERIFY
    report["virtuals"] = Entries([(v.origin, v.want, a[0]) for v, a in zip(u.virtuals, assigned)])
    report.update(
        {
            "random_ok": failure is None,
            "trials": args.trials,
            "seed": args.seed,
            "failure": None
            if failure is None
            else {"trial": failure.trial, "virtual": failure.virtual},
        }
    )
    _emit(report)
    return EXIT_OK if failure is None else EXIT_VERIFY


def cmd_gap(args: argparse.Namespace) -> int:
    report = gap_report(_load_instance(args.instance), _config_from_args(args))
    _emit(report.to_jsonable())
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.messages * args.receivers > GEN_MAX_DRAWS:
        raise ValidationError(
            f"messages * receivers must be at most {GEN_MAX_DRAWS}, "
            f"got {args.messages} * {args.receivers}"
        )
    inst = random_instance(
        num_messages=args.messages,
        num_receivers=args.receivers,
        side_density=args.density,
        demand_range=(args.demand_min, args.demand_max),
        seed=args.seed,
    )
    print(serialize_instance(inst))
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    config = _config_from_args(args)  # both variants check the pipeline flags
    if args.variant == "bipartite":
        if inst.num_messages > DOT_MAX_MESSAGES:
            raise ValidationError(
                f"bipartite diagram: num_messages must be at most {DOT_MAX_MESSAGES}, "
                f"got {inst.num_messages}"
            )
        sys.stdout.writelines(bipartite_dot(inst))
        return EXIT_OK
    u = UnicastInstance(inst, config.dedup)
    cover = None
    if args.overlay_cover:
        cover, _, fallback = pick_cover(u, config)
        _warn_fallback(fallback)
    sys.stdout.writelines(derived_dot(u, cover))
    return EXIT_OK


def _add_solver_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--solver",
        choices=("exact", "greedy", "auto"),
        default=argparse.SUPPRESS,
        help="cover solver; auto falls back to greedy when a component exceeds the cap",
    )


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exact-cap", type=int, default=argparse.SUPPRESS,
                   help="max vertices per connected component for the exact cover solver")
    p.add_argument("--no-dedup", dest="dedup", action="store_false", default=argparse.SUPPRESS,
                   help="keep duplicate virtual receivers in the pipeline")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call:
    ``parse_args`` keeps no state on it (every default is immutable)."""
    parser = argparse.ArgumentParser(
        prog="indexcoding",
        description="Index coding solver: clique covers of the cross-neighbor "
        "graph, XOR schemes, and brute-force optimality oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a coding scheme for an instance")
    p.add_argument("instance", help="instance JSON file")
    _add_solver_flag(p)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a scheme against an instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("scheme", help="scheme JSON file")
    p.add_argument("--trials", type=int, default=100,
                   help="randomized verification trials")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gap", help="bound sandwich: MAIS, oracle, covers")
    p.add_argument("instance", help="instance JSON file")
    _add_pipeline_flags(p)
    p.add_argument("--oracle-cap", dest="oracle_n_cap", metavar="ORACLE_CAP", type=int,
                   default=argparse.SUPPRESS, help="max messages for the GF(2) oracle")
    p.add_argument("--mais-cap", type=int, default=argparse.SUPPRESS,
                   help="max virtuals for the MAIS bound")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("gen", help="generate a random valid instance")
    p.add_argument("--messages", "-n", type=int, required=True)
    p.add_argument("--receivers", "-m", type=int, required=True)
    p.add_argument("--density", "-p", type=float, required=True,
                   help="probability that a non-wanted message is side information")
    p.add_argument("--demand-min", type=int, default=1)
    p.add_argument("--demand-max", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="emit a Graphviz diagram")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--variant", choices=("bipartite", "derived"), default="derived")
    p.add_argument("--overlay-cover", action="store_true",
                   help="color derived-graph nodes by cover part")
    _add_solver_flag(p)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused.

    Reference counting still frees whatever a command drops; what it builds
    (the parsed instance, the split form, the graph) lives until the command
    returns, so the collector would only walk it.  A successful command
    leaves no reference cycle, and one left by an error is freed once the
    collector runs again.  A caller that had disabled the collector finds it
    disabled; otherwise it is back on at every exit."""
    paused = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if paused:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # resource caps here, so remap bad arguments to the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        # _read_file turns read errors into ValidationError, so this is a
        # failed stdout write (a closed pipe, a full device).  The interpreter
        # flushes what is left at exit: send it to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(AttributeError, OSError, ValueError):  # not a file
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
