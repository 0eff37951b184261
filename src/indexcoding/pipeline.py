"""The solver pipeline: split, dedup, cross-neighbor graph, clique cover, scheme.

It chains the stages for ``solve``, ``gap`` and ``export-dot``: each makes
one split form, ``UnicastInstance(inst, config.dedup)``, which is also the
graph (its cross-neighbor rows are built on first use, once), and picks its
cover through :func:`pick_cover`.  ``verify`` needs no graph or cover: the
CLI splits and makes one ``scheme.verify_scheme`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import DEFAULT_EXACT_CAP, CliqueCover, DsaturCover, exact_min_cover, greedy_cover
from .errors import CapExceeded, ValidationError
from .instance import Instance, UnicastInstance
from .oracle import DEFAULT_MAIS_CAP, DEFAULT_ORACLE_N_CAP
from .oracle import mais_lower_bound, min_linear_rate_gf2
from .scheme import CodingScheme, scheme_from_cover


@dataclass(frozen=True)
class SolveConfig:
    solver: str = "auto"
    dedup: bool = True
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
    cover scheme is itself linear.  For the same reason the oracle rate is
    taken from the bounds, with no search, when MAIS meets the exact cover.
    The covers pin MAIS from above (its search stops when it reaches the
    smaller of the greedy and DSATUR covers), and MAIS pins the exact cover
    from below (it is the DSATUR cover's size when the two meet, with no
    branch and bound); every field equals its unbounded search's.
    A positive gap means some linear code beats the best cover, so the
    instance is a counterexample to the claim that the clique-cover program
    is linearly optimal.
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


def pick_cover(g: UnicastInstance, config: SolveConfig) -> tuple[CliqueCover, str, str | None]:
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
    u = UnicastInstance(inst, config.dedup)
    cover, solver_used, fallback = pick_cover(u, config)
    scheme = scheme_from_cover(u, cover)
    part_of = cover.assignment(u.vertex_count)

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
    cover_exact - oracle when both exist.  The exact cover's first phase, its
    cap test and DSATUR coloring, runs before MAIS, whose search stops at the
    smaller of the greedy and DSATUR covers.  When MAIS equals the DSATUR
    cover, that is the exact cover and its branch and bound is skipped; the
    cap is tested first, so the field stays None above ``exact_cap`` even
    there.  When MAIS equals the exact cover, the oracle rate is that value
    and no search runs: MAIS bounds every code from below and the cover's
    scheme is a linear code.  The oracle's cap is tested first, so its field
    stays None above ``oracle_n_cap`` even there.
    """
    u = UnicastInstance(inst, config.dedup)
    greedy = greedy_cover(u).size
    dsatur = _capped(lambda: DsaturCover(u, cap=config.exact_cap))
    upper = greedy if dsatur is None else min(greedy, dsatur.size)
    mais = _capped(lambda: mais_lower_bound(u, cap=config.mais_cap, upper=upper))
    if dsatur is None:
        exact = None
    elif mais == dsatur.size:
        exact = mais  # every DSATUR coloring is optimal: the branch and bound keeps it
    else:
        exact = dsatur.minimum().size
    if u.num_messages > config.oracle_n_cap:
        oracle = None  # the cap holds even where the bounds meet
    elif mais is not None and mais == exact:
        oracle = mais  # mais <= oracle <= cover_exact: the bounds pin it
    else:
        # the search starts from this MAIS (0 when capped): MAIS runs once, under mais_cap
        oracle = min_linear_rate_gf2(u, n_cap=config.oracle_n_cap, lower_bound=mais or 0)
    gap = exact - oracle if exact is not None and oracle is not None else None
    return RateReport(
        mais_bound=mais,
        oracle_rate=oracle,
        cover_rate_exact=exact,
        cover_rate_greedy=greedy,
        gap=gap,
    )
