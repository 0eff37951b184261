"""The benchmark's workloads: instance mix, CLI requests, checks, replay.

Each request drives ``indexcoding.cli.main`` in-process with instance files
written during set-up.  The traced replay calls the same public stage
functions, in the order the CLI calls them, so that per-stage times can be
set against the CLI's own time for the same request.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from indexcoding import (
    build_cross_neighbor_graph,
    connected_components,
    dedup,
    exact_min_cover,
    greedy_cover,
    mais_lower_bound,
    min_linear_rate_gf2,
    parse_instance,
    parse_scheme,
    scheme_from_cover,
    split_groupcast,
    verify_scheme_random,
    verify_scheme_symbolic,
)
from indexcoding.cli import main as cli_main
from indexcoding.cover import DEFAULT_EXACT_CAP
from indexcoding.oracle import DEFAULT_MAIS_CAP, DEFAULT_ORACLE_N_CAP
from indexcoding.scheme import DEFAULT_WORD_WIDTH, assign_transmissions

from tracing import Tracer, clock

VERIFY_TRIALS = 20


@dataclass
class Op:
    """One CLI invocation as the user sees it."""

    kind: str
    seconds: float  # CPU time
    wall_seconds: float
    code: int | None  # None when an exception escaped the CLI
    stdout: str
    stderr: str

    def json(self) -> dict:
        return json.loads(self.stdout)


def cli_op(kind: str, argv: list[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall_start, start = perf_counter(), clock()
        try:
            code = cli_main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds, wall = clock() - start, perf_counter() - wall_start
    return Op(kind, seconds, wall, code, out.getvalue(), err.getvalue())


@dataclass
class Files:
    instance: str
    scheme: str  # where the solve output is written for verify to read


@dataclass
class Request:
    ops: list[Op]
    rate: int | None = None
    # (op index, message) for every failed exit code or output check
    problems: list[tuple[int, str]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def _exit_problems(ops: list[Op]) -> list[tuple[int, str]]:
    return [
        (i, f"{op.kind} exited {op.code}: {op.stderr.strip()[-200:]}")
        for i, op in enumerate(ops)
        if op.code != 0
    ]


def _verify_problems(verify: Op, rate: int) -> list[str]:
    """A solve output is correct when ``verify`` accepts it at that rate."""
    if verify.code != 0:
        return [f"verify exited {verify.code}: {verify.stderr.strip()[-200:]}"]
    report = verify.json()
    out = []
    if report["symbolic_ok"] is not True or report["random_ok"] is not True:
        out.append(f"verify rejected the scheme: {verify.stdout[:200]}")
    if report["rate"] != rate:
        out.append(f"verify read rate {report['rate']}, solve emitted {rate}")
    return out


def _graph_counts(seen: dict) -> dict[str, float]:
    g = seen["graph"]
    comps = connected_components(g)
    return {
        "instance.virtuals": len(seen["split"].virtuals),
        "instance.dedup_removed": len(seen["dedup"].dedup_map),
        "graph.vertices": g.vertex_count,
        "graph.edges": sum(row.bit_count() for row in g.adjacency) // 2,
        "graph.components": len(comps),
        "graph.largest_component": max((len(c) for c in comps), default=0),
    }


def _replay_prepare(tr: Tracer, text: str, seen: dict):
    inst = tr.call("instance.parse", parse_instance, text)
    seen["split"] = full = tr.call("instance.split", split_groupcast, inst)
    seen["dedup"] = u = tr.call("instance.dedup", dedup, full)
    seen["graph"] = g = tr.call("graph.build", build_cross_neighbor_graph, u)
    return u, g


def _replay_solve(tr: Tracer, files: Files, solver: str, exact_cap: int, seen: dict):
    """Mirror of ``cli.solve_instance`` with the default dedup and graph rule."""
    with tr.span("cli.solve"):
        with open(files.instance, encoding="utf-8") as fh:
            text = fh.read()
        u, g = _replay_prepare(tr, text, seen)
        if solver == "exact" or (solver == "auto" and g.vertex_count <= exact_cap):
            cover = tr.call("cover.exact", exact_min_cover, g, cap=exact_cap)
        else:
            cover = tr.call("cover.greedy", greedy_cover, g)
            seen["fallback"] = solver == "auto"
        scheme = tr.call("scheme.from_cover", scheme_from_cover, u, cover)
    return {"rate": scheme.rate, "transmissions": [list(t) for t in scheme.transmissions]}


def _replay_verify(tr: Tracer, files: Files, seen: dict):
    """Mirror of ``cli.cmd_verify`` for a scheme the symbolic check accepts."""
    with tr.span("cli.verify"):
        with open(files.instance, encoding="utf-8") as fh:
            inst_text = fh.read()
        with open(files.scheme, encoding="utf-8") as fh:
            scheme_text = fh.read()
        inst = tr.call("instance.parse", parse_instance, inst_text)
        scheme = tr.call(
            "scheme.parse", parse_scheme, scheme_text, num_messages=inst.num_messages
        )
        u = tr.call("instance.split", split_groupcast, inst)
        unsatisfied = tr.call("scheme.verify_symbolic", verify_scheme_symbolic, u, scheme)
        failure = tr.call(
            "scheme.verify_random",
            verify_scheme_random,
            u,
            scheme,
            trials=VERIFY_TRIALS,
            seed=0,
            word_width=DEFAULT_WORD_WIDTH,
        )
        tr.call("scheme.assign", assign_transmissions, u, scheme)
    seen["decodes"] = VERIFY_TRIALS * len(u.virtuals)
    return {"symbolic_ok": not unsatisfied, "random_ok": failure is None}


class Workload:
    """A closed loop of one client; subclasses fix the mix and the op kinds."""

    name: str
    op_kinds: tuple[str, ...]
    # instances generated per seed; the loop cycles through them in order
    pool_size: int
    # requests always completed, over which rate_total and the stdout hash run
    rate_prefix: int

    def params(self, index: int, rng: random.Random) -> tuple:
        """(num_messages, num_receivers, side_density, demand_range)."""
        raise NotImplementedError

    def run(self, files: Files) -> Request:
        raise NotImplementedError

    def replay(self, tr: Tracer, files: Files, seen: dict) -> dict:
        raise NotImplementedError

    def cli_answers(self, req: Request) -> dict:
        raise NotImplementedError

    def counts(self, seen: dict) -> dict[str, float]:
        raise NotImplementedError


class SolveBulk(Workload):
    """Large greedy solves, each followed by a 20-trial verify: graph build
    (twice per solve), greedy cover, random verify and JSON emit.  Exact cover
    and the oracle never run."""

    name = "solve-bulk"
    op_kinds = ("solve", "verify")
    pool_size = 160
    rate_prefix = 60

    def params(self, index, rng):
        # m is stratified over ten bands of [200, 300) and p cycles, so every
        # 30 consecutive instances cover each (band, p) cell once.  Wider m
        # made requests so uneven that ~100 of them gave p50s 10% apart
        band = index % 10
        m = 200 + int((band + rng.random()) * 10)
        return 100, m, (0.2, 0.5, 0.8)[index % 3], (1, 3)

    def run(self, files):
        solve = cli_op("solve", ["solve", files.instance])
        req = Request([solve])
        if solve.code != 0:
            req.problems = _exit_problems(req.ops)
            return req
        with open(files.scheme, "w", encoding="utf-8") as fh:
            fh.write(solve.stdout)
        verify = cli_op(
            "verify",
            ["verify", files.instance, files.scheme, "--trials", str(VERIFY_TRIALS)],
        )
        req.ops.append(verify)
        req.rate = solve.json()["rate"]
        req.problems = [(1, p) for p in _verify_problems(verify, req.rate)]
        if "falling back to greedy" not in solve.stderr:
            req.problems.append((0, "solve did not report the greedy fallback"))
        return req

    def replay(self, tr, files, seen):
        answers = _replay_solve(tr, files, "auto", DEFAULT_EXACT_CAP, seen)
        answers.update(_replay_verify(tr, files, seen))
        return answers

    def cli_answers(self, req):
        solve, verify = req.ops[0].json(), req.ops[1].json()
        return {
            "rate": solve["rate"],
            "transmissions": solve["transmissions"],
            "symbolic_ok": verify["symbolic_ok"],
            "random_ok": verify["random_ok"],
        }

    def counts(self, seen):
        out = _graph_counts(seen)
        out["cover.greedy_fallbacks"] = int(seen.get("fallback", False))
        out["scheme.decodes"] = seen["decodes"]
        return out


class SolveExact(Workload):
    """Exact solves of one 30-60 virtual component: the DSATUR branch and bound
    dominates, with a heavy tail.  Graph and scheme are small; the oracle never
    runs."""

    name = "solve-exact"
    op_kinds = ("solve",)
    pool_size = 1200
    rate_prefix = 500
    # above the largest graph: 30 receivers with at most 2 demands each
    exact_cap = 128

    def params(self, index, rng):
        return 25, 30, 0.8, (1, 2)

    def run(self, files):
        argv = ["solve", files.instance, "--solver", "exact", "--exact-cap", str(self.exact_cap)]
        solve = cli_op("solve", argv)
        req = Request([solve])
        if solve.code != 0:
            req.problems = _exit_problems(req.ops)
            return req
        req.rate = solve.json()["rate"]
        with open(files.scheme, "w", encoding="utf-8") as fh:
            fh.write(solve.stdout)
        # untimed: the check is not part of the user's request
        verify = cli_op(
            "verify",
            ["verify", files.instance, files.scheme, "--trials", str(VERIFY_TRIALS)],
        )
        req.problems = [(0, p) for p in _verify_problems(verify, req.rate)]
        return req

    def replay(self, tr, files, seen):
        return _replay_solve(tr, files, "exact", self.exact_cap, seen)

    def cli_answers(self, req):
        solve = req.ops[0].json()
        return {"rate": solve["rate"], "transmissions": solve["transmissions"]}

    def counts(self, seen):
        out = _graph_counts(seen)
        out["cover.exact_calls"] = 1
        return out


GAP_FIELDS = ("mais", "oracle", "cover_exact", "cover_greedy", "gap", "counterexample")


class AuditGap(Workload):
    """The bound sandwich on 7-message instances: the RREF subspace search of
    the GF(2) oracle dominates.  Graph, covers and MAIS run at trivial size; the
    scheme never runs."""

    name = "audit-gap"
    op_kinds = ("gap",)
    pool_size = 2500
    rate_prefix = 1000

    def params(self, index, rng):
        # at most 10 receivers x 2 demands = 20 virtuals, inside every default cap
        return 7, 10, 0.4, (1, 2)

    def run(self, files):
        op = cli_op("gap", ["gap", files.instance])
        req = Request([op])
        if op.code != 0:
            req.problems = _exit_problems(req.ops)
            return req
        r = op.json()
        nulls = [k for k in GAP_FIELDS if r.get(k) is None]
        if nulls:
            req.problems.append((0, f"gap left {nulls} null"))
            return req
        req.rate = r["cover_exact"]
        if not r["mais"] <= r["oracle"] <= r["cover_exact"] <= r["cover_greedy"]:
            req.problems.append((0, f"bound sandwich broken: {r}"))
        if r["gap"] != r["cover_exact"] - r["oracle"] or r["counterexample"] != (r["gap"] > 0):
            req.problems.append((0, f"gap fields inconsistent: {r}"))
        return req

    def replay(self, tr, files, seen):
        """Mirror of ``oracle.gap_report`` with the CLI's default caps."""
        with tr.span("cli.gap"):
            with open(files.instance, encoding="utf-8") as fh:
                text = fh.read()
            u, g = _replay_prepare(tr, text, seen)
            greedy = tr.call("cover.greedy", greedy_cover, g).size
            exact = tr.call("cover.exact", exact_min_cover, g, cap=DEFAULT_EXACT_CAP).size
            mais = tr.call("oracle.mais", mais_lower_bound, u, cap=DEFAULT_MAIS_CAP)
            oracle = tr.call(
                "oracle.linear_rate", min_linear_rate_gf2, u, n_cap=DEFAULT_ORACLE_N_CAP
            )
        seen.update(greedy_size=greedy, exact_size=exact, mais=mais, oracle=oracle)
        return {
            "mais": mais,
            "oracle": oracle,
            "cover_exact": exact,
            "cover_greedy": greedy,
            "gap": exact - oracle,
            "counterexample": exact - oracle > 0,
        }

    def cli_answers(self, req):
        r = req.ops[0].json()
        return {k: r[k] for k in GAP_FIELDS}

    def counts(self, seen):
        out = _graph_counts(seen)
        out["cover.exact_calls"] = 1
        out["cover.greedy_excess"] = seen["greedy_size"] - seen["exact_size"]
        out["oracle.audited"] = 1
        out["oracle.search_needed"] = int(seen["mais"] < seen["exact_size"])
        out["oracle.counterexamples"] = int(seen["exact_size"] > seen["oracle"])
        return out


WORKLOADS = {w.name: w for w in (SolveBulk(), SolveExact(), AuditGap())}
