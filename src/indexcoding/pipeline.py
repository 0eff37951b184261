"""The solver pipeline: split, dedup, cross-neighbor graph, clique cover, scheme.

It chains the stages for ``solve``, ``gap`` and ``export-dot``: each makes
one split form, ``UnicastInstance(inst, config.dedup)``, which is also the
graph (its cross-neighbor rows are built on first use, once).  ``solve`` and
``export-dot`` pick their cover through :func:`pick_cover`; ``gap`` runs
``greedy_cover`` and ``cover.DsaturCover`` (:func:`gap_report`).  ``verify``
needs no graph or cover: the CLI splits and makes one
``scheme.verify_scheme`` call.
"""

from __future__ import annotations

from typing import NamedTuple

from .cover import DEFAULT_EXACT_CAP, CliqueCover, DsaturCover, exact_min_cover, greedy_cover
from .errors import CapExceeded, ValidationError
from .instance import Instance, UnicastInstance
from .oracle import DEFAULT_MAIS_CAP, DEFAULT_ORACLE_N_CAP
from .oracle import mais_lower_bound, min_linear_rate_gf2
from .scheme import CodingScheme, scheme_from_cover


class _ConfigFields(NamedTuple):
    solver: str = "auto"
    dedup: bool = True
    exact_cap: int = DEFAULT_EXACT_CAP
    oracle_n_cap: int = DEFAULT_ORACLE_N_CAP
    mais_cap: int = DEFAULT_MAIS_CAP


class SolveConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.solver not in ("exact", "greedy", "auto"):
            raise ValidationError(f"unknown solver {self.solver!r}")
        if type(self.dedup) is not bool:
            raise ValidationError(f"dedup must be a bool, not {type(self.dedup).__name__}")
        for cap in (self.exact_cap, self.oracle_n_cap, self.mais_cap):
            if type(cap) is not int:
                raise ValidationError(f"caps must be integers, not {type(cap).__name__}")
            if cap < 1:
                raise ValidationError("caps must be positive")
        return self

    # _replace, copy and pickle build through _make or __new__: each validates
    _make = classmethod(lambda cls, fields: cls(*fields))


class SolveOutcome(NamedTuple):
    scheme: CodingScheme
    solver_used: str
    # per pre-dedup virtual: (origin, want, transmission index)
    assignments: list[tuple[tuple[int, int], int, int]]
    # why auto fell back to greedy (the CapExceeded message), else None
    fallback: str | None


class RateReport(NamedTuple):
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
    cover_exact - oracle when both exist.

    The bounds pin one another, and every field equals its unbounded search's.
    MAIS bounds every code from below, and every cover's scheme is a linear
    code.  So the exact cover's first phase, its cap test and DSATUR coloring
    (``cover.DsaturCover``), runs before MAIS, whose search stops at the
    smaller of the greedy and DSATUR covers.  When MAIS equals the DSATUR
    cover, that is the exact cover and its branch and bound is skipped; the
    cap is tested first, so the field stays None above ``exact_cap`` even
    there.  When MAIS equals the exact cover, the oracle rate is that value
    and no search runs.  The oracle's cap is tested first, so its field stays
    None above ``oracle_n_cap`` even there.
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
