"""Seeded random instances for tests, demos, and the CLI.

Generators promise validity and determinism for a fixed seed, not a byte
layout that other tools must reproduce.
"""

from __future__ import annotations

import random

from .errors import ValidationError
from .instance import Instance, Receiver


def random_instance(
    num_messages: int,
    num_receivers: int,
    side_density: float,
    demand_range: tuple[int, int] = (1, 1),
    seed: int = 0,
) -> Instance:
    """Draw a valid instance: demand sizes uniform in ``demand_range``, wants
    sampled without replacement, then each non-wanted message joins the side
    information independently with probability ``side_density``."""
    lo, hi = demand_range
    if num_messages < 1:
        raise ValidationError("num_messages must be at least 1")
    if num_receivers < 0:
        raise ValidationError("num_receivers must be non-negative")
    if not 0.0 <= side_density <= 1.0:
        raise ValidationError(f"side_density must be in [0, 1], got {side_density}")
    if not 1 <= lo <= hi <= num_messages:
        raise ValidationError(
            f"demand range [{lo}, {hi}] infeasible for {num_messages} messages"
        )
    rng = random.Random(seed)
    receivers = []
    for _ in range(num_receivers):
        size = rng.randint(lo, hi)
        wants = frozenset(rng.sample(range(1, num_messages + 1), size))
        has = frozenset(
            i
            for i in range(1, num_messages + 1)
            if i not in wants and rng.random() < side_density
        )
        receivers.append(Receiver(wants, has))
    return Instance(num_messages, tuple(receivers))

