"""The solver pipeline: split, dedup, cross-neighbor graph, clique cover, scheme.

It chains the stages for ``solve``, ``gap`` and ``export-dot``: each builds
its graph once through :func:`prepare`, whose ``unicast`` is the split, and
picks its cover through :func:`pick_cover`.  ``verify`` needs no graph or
cover, so the CLI splits, assigns and runs the random trials itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import DEFAULT_EXACT_CAP, CliqueCover, exact_min_cover, greedy_cover
from .errors import CapExceeded, ValidationError
from .graph import DerivedGraph, build_cross_neighbor_graph
from .instance import Instance, UnicastInstance
from .oracle import DEFAULT_MAIS_CAP, DEFAULT_ORACLE_N_CAP
from .oracle import mais_lower_bound, min_linear_rate_gf2
from .scheme import CodingScheme, scheme_from_cover


@dataclass(frozen=True)
class SolveConfig:
    solver: str = "auto"
    dedup: bool = True
    strict_cross_neighbor: bool = False
    exact_cap: int = DEFAULT_EXACT_CAP
    oracle_n_cap: int = DEFAULT_ORACLE_N_CAP
    mais_cap: int = DEFAULT_MAIS_CAP

    def __post_init__(self):
        if self.solver not in ("exact", "greedy", "auto"):
            raise ValidationError(f"unknown solver {self.solver!r}")
        if min(self.exact_cap, self.oracle_n_cap, self.mais_cap) < 1:
            raise ValidationError("caps must be positive")


@dataclass(frozen=True)
class SolveOutcome:
    scheme: CodingScheme
    solver_used: str
    # per pre-dedup virtual: (origin, want, transmission index)
    assignments: list[tuple[tuple[int, int], int, int]]
    # why auto fell back to greedy (the CapExceeded message), else None
    fallback: str | None


@dataclass(frozen=True)
class RateReport:
    """The bound sandwich for one instance: mais <= oracle <= exact <= greedy.

    Fields are None when the corresponding computation exceeded its cap.  The
    gap is the exact cover's rate minus the oracle's, never negative, since a
    cover scheme is itself linear.  A positive gap means some linear code
    beats the best cover, so the instance is a counterexample to the claim
    that the clique-cover program is linearly optimal.
    """

    mais_bound: int | None
    oracle_rate: int | None
    cover_rate_exact: int | None
    cover_rate_greedy: int
    gap: int | None

    @property
    def counterexample(self) -> bool:
        return self.gap is not None and self.gap > 0

    def to_jsonable(self) -> dict:
        return {
            "mais": self.mais_bound,
            "oracle": self.oracle_rate,
            "cover_exact": self.cover_rate_exact,
            "cover_greedy": self.cover_rate_greedy,
            "gap": self.gap,
            "counterexample": self.counterexample,
        }


def prepare(inst: Instance, dedup: bool = True, strict: bool = False) -> DerivedGraph:
    """Split, optionally dedup, and build the cross-neighbor graph.

    The split is the graph's ``unicast``: its ``demands`` hold one virtual
    per demand, its ``virtuals`` the graph's vertices.
    """
    return build_cross_neighbor_graph(UnicastInstance(inst, dedup), strict=strict)


def pick_cover(g: DerivedGraph, config: SolveConfig) -> tuple[CliqueCover, str, str | None]:
    """Cover g with the configured solver.

    Returns the cover, the solver used and, when ``auto`` fell back to greedy
    because a component exceeds ``exact_cap``, the reason (else None).  An
    explicit ``exact`` over the cap raises CapExceeded.
    """
    if config.solver == "greedy":
        return greedy_cover(g), "greedy", None
    try:
        return exact_min_cover(g, cap=config.exact_cap), "exact", None
    except CapExceeded as exc:
        if config.solver == "exact":
            raise
        return greedy_cover(g), "greedy", str(exc)


def solve_instance(inst: Instance, config: SolveConfig = SolveConfig()) -> SolveOutcome:
    """Run the whole pipeline: split, dedup, graph, cover, scheme."""
    g = prepare(inst, config.dedup, config.strict_cross_neighbor)
    u = g.unicast
    cover, solver_used, fallback = pick_cover(g, config)
    scheme = scheme_from_cover(u, cover)
    part_of = cover.assignment(g.vertex_count)

    # expand assignments back to every demand
    removed = u.dedup_map or {}
    kept = [i for i in range(len(u.demands)) if i not in removed]
    new_pos = {orig: pos for pos, orig in enumerate(kept)}
    assignments = [
        (v.origin, v.want, part_of[new_pos[removed.get(i, i)]])
        for i, v in enumerate(u.demands)
    ]
    return SolveOutcome(scheme, solver_used, assignments, fallback)


def _capped(compute):
    """compute(), or None when it exceeds its size cap."""
    try:
        return compute()
    except CapExceeded:
        return None


def gap_report(inst: Instance, config: SolveConfig = SolveConfig()) -> RateReport:
    """Assemble the full bound sandwich for one instance.

    Each field degrades to None independently when its cap is exceeded; the
    greedy cover always computes (``config.solver`` is not read).  gap =
    cover_exact - oracle when both exist.
    """
    g = prepare(inst, config.dedup, config.strict_cross_neighbor)
    greedy = greedy_cover(g).size
    exact = _capped(lambda: exact_min_cover(g, cap=config.exact_cap).size)
    mais = _capped(lambda: mais_lower_bound(g.unicast, cap=config.mais_cap))
    # the oracle starts from this MAIS (0 when capped): MAIS runs once, under mais_cap
    oracle = _capped(lambda: min_linear_rate_gf2(
        g.unicast, n_cap=config.oracle_n_cap, lower_bound=mais or 0))
    gap = exact - oracle if exact is not None and oracle is not None else None
    return RateReport(
        mais_bound=mais,
        oracle_rate=oracle,
        cover_rate_exact=exact,
        cover_rate_greedy=greedy,
        gap=gap,
    )
