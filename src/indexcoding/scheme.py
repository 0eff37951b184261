"""XOR coding schemes: build from a cover, encode, decode, verify.

Each transmission is the XOR of a set of messages over GF(2)^w words.  A
virtual receiver decodes transmission T when T holds its want and it holds
every other summand of T (``_cancels``): XOR-ing the received word with its
side-information words for those summands cancels them exactly.  The bulk
checks test that rule against sets built once per transmission (``_others``).
Message words are one mapping from 1-based message id to int word, shared by
``encode``, ``decode_receiver`` and the randomized check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .cover import CliqueCover
from .errors import ValidationError
from .instance import UnicastInstance, VirtualReceiver
from .jsontext import dumps

DEFAULT_WORD_WIDTH = 64
# trials per bit-sliced pass: at 64-bit words, 8 KiB per wide word whatever the
# trial count
TRIAL_BLOCK = 1024


@dataclass(frozen=True)
class CodingScheme:
    """An ordered list of XOR transmissions; the rate is their count."""

    num_messages: int
    transmissions: tuple[tuple[int, ...], ...]

    @property
    def rate(self) -> int:
        return len(self.transmissions)


@dataclass(frozen=True)
class TrialFailure:
    """First randomized trial on which some virtual decoded the wrong word."""

    trial: int
    virtual: int
    expected: int
    got: int


def _cancels(v: VirtualReceiver, t: tuple[int, ...]) -> list[int] | None:
    """The summands ``v`` must cancel to decode ``t``, or None when it cannot:
    ``t`` must hold the want and ``v`` every other summand of ``t``."""
    if v.want not in t:
        return None
    others = [i for i in t if i != v.want]
    return others if v.has.issuperset(others) else None


def _others(t: tuple[int, ...]) -> dict[int, frozenset[int]]:
    """``_cancels``' rule precomputed for ``t``: each summand ``i`` maps to
    the other summands, and a virtual wanting ``i`` decodes ``t`` exactly
    when its ``has`` is a superset of them."""
    summands = frozenset(t)
    return {i: summands - {i} for i in t}


def scheme_from_cover(u: UnicastInstance, c: CliqueCover) -> CodingScheme:
    """One transmission per cover part: the distinct wants of its virtuals.

    Duplicate wants inside a part collapse to a single summand (a repeated
    XOR summand would cancel itself, and one copy serves every wanter).

    The cover is checked against ``u`` itself, not a graph: its parts must
    partition the virtuals and each virtual must hold every other distinct
    want of its part, which is XOR decodability (a non-strict graph clique).
    """
    k = len(u.virtuals)
    if not all(c.parts) or sorted(v for part in c.parts for v in part) != list(range(k)):
        raise ValidationError(f"invalid cover: not a partition of 0..{k - 1} into nonempty parts")
    transmissions = []
    for t, part in enumerate(c.parts):
        wants = tuple(sorted({u.virtuals[v].want for v in part}))
        others = _others(wants)
        for v in part:
            r = u.virtuals[v]
            if not r.has.issuperset(others[r.want]):
                lacking = [i for i in wants if i != r.want and i not in r.has]
                raise ValidationError(f"invalid cover: part {t}: virtual {v} lacks {lacking}")
        transmissions.append(wants)
    return CodingScheme(u.num_messages, tuple(transmissions))


def encode(s: CodingScheme, words: Mapping[int, int]) -> tuple[int, ...]:
    """XOR the words of each transmission's messages.  ``words`` maps ids in
    1..num_messages to words and must hold every message the scheme sends."""
    outside = [i for i in words if not 1 <= i <= s.num_messages]
    if outside:
        raise ValidationError(f"word for message {min(outside)} outside [1, {s.num_messages}]")
    out = []
    for t in s.transmissions:
        word = 0
        for i in t:
            if i not in words:
                raise ValidationError(f"no word for message {i}")
            word ^= words[i]
        out.append(word)
    return tuple(out)


def decode_receiver(
    s: CodingScheme, v: VirtualReceiver, received: tuple[int, ...],
    side_words: Mapping[int, int], t: int,
) -> int:
    """Recover ``v``'s wanted word from transmission ``t`` of ``received``.

    ``side_words`` maps message ids to words and is read only at the other
    summands of ``t``, which ``v`` must hold, or ``t`` cannot be decoded.
    """
    others = _cancels(v, s.transmissions[t])
    if others is None:
        raise ValidationError(f"virtual {v.origin} not decodable from transmission {t}")
    word = received[t]
    for i in others:
        word ^= side_words[i]
    return word


def assign_transmissions(u: UnicastInstance, s: CodingScheme) -> list[int | None]:
    """First decodable transmission per virtual, None where none qualifies."""
    # message id -> (index, other summands) of each transmission holding it, in order
    holding: dict[int, list[tuple[int, frozenset[int]]]] = {}
    for idx, t in enumerate(s.transmissions):
        for i, others in _others(t).items():
            holding.setdefault(i, []).append((idx, others))
    return [next((idx for idx, others in holding.get(v.want, ()) if v.has.issuperset(others)),
                 None)
            for v in u.virtuals]


def verify_scheme_symbolic(u: UnicastInstance, s: CodingScheme) -> list[int]:
    """Indices of virtuals no transmission satisfies (empty = scheme ok).

    A transmission satisfies a virtual when the virtual can decode it.
    """
    assigned = assign_transmissions(u, s)
    return [idx for idx, t in enumerate(assigned) if t is None]


def verify_scheme_random(
    u: UnicastInstance,
    s: CodingScheme,
    trials: int = 100,
    seed: int = 0,
    word_width: int = DEFAULT_WORD_WIDTH,
) -> TrialFailure | None:
    """Bit-level confirmation of the symbolic check on random message words.

    The trials are bit-sliced: trial t's word for a message is bits
    ``[t*w, (t+1)*w)`` of one wide integer, so one ``encode`` and one decode
    per virtual check every trial at once.  The wide integers come from a
    generator seeded with ``seed`` (deterministic), one per message the
    scheme sends, in ascending id order, for each block of up to
    ``TRIAL_BLOCK`` trials.  Returns None when every decoded word matches, or
    the failure with the least (trial, virtual), with that trial's words.
    Raises if the symbolic check does not pass first.
    """
    if not 1 <= word_width <= 64:
        raise ValidationError(f"word_width must be in [1, 64], got {word_width}")
    assigned = assign_transmissions(u, s)
    if any(t is None for t in assigned):
        raise ValidationError(
            "symbolic verification failed; randomized check requires it to pass"
        )
    return _random_trials(u, s, assigned, trials, seed, word_width)


def _random_trials(
    u: UnicastInstance, s: CodingScheme, assigned: list[int], trials: int, seed: int,
    word_width: int,
) -> TrialFailure | None:
    """The trials of :func:`verify_scheme_random`, decoding each virtual from
    its transmission in ``assigned`` (``assign_transmissions(u, s)``, with no
    None); ``word_width`` is in [1, 64]."""
    sent = sorted({i for t in s.transmissions for i in t})
    rng = random.Random(seed)
    mask = (1 << word_width) - 1
    for start in range(0, trials, TRIAL_BLOCK):
        width = min(TRIAL_BLOCK, trials - start) * word_width
        words = {i: rng.getrandbits(width) for i in sent}
        received = encode(s, words)
        first = None  # (trial in block, virtual, expected, got)
        for idx, v in enumerate(u.virtuals):
            # every word is passed, but decode reads only the summands v holds
            got = decode_receiver(s, v, received, words, assigned[idx])
            wrong = got ^ words[v.want]
            if wrong:
                trial = ((wrong & -wrong).bit_length() - 1) // word_width
                if first is None or trial < first[0]:
                    first = (trial, idx, words[v.want], got)
        if first is not None:
            trial, idx, expected, got = first
            shift = trial * word_width
            return TrialFailure(start + trial, idx, expected >> shift & mask, got >> shift & mask)
    return None


def scheme_to_jsonable(s: CodingScheme) -> dict:
    return {"rate": s.rate, "transmissions": [list(t) for t in s.transmissions]}


def serialize_scheme(s: CodingScheme) -> str:
    """Canonical scheme JSON: rate plus transmissions with ascending ids."""
    return dumps(scheme_to_jsonable(s))


def parse_scheme(text: str, num_messages: int | None = None) -> CodingScheme:
    """Parse scheme JSON; extra keys are tolerated so solve output round-trips.

    When ``num_messages`` is not given it is inferred as the largest id
    mentioned; verification against an instance re-checks the range.
    """
    # RecursionError: deep nesting; ValueError: JSONDecodeError, too-long integers
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    scheme = _scheme_or_none(data, num_messages)
    return scheme if scheme is not None else _checked_scheme(data, num_messages)


_INT_ONLY = frozenset((int,))
_LIST_ONLY = frozenset((list,))


def _scheme_or_none(data, num_messages: int | None) -> CodingScheme | None:
    """The scheme when ``data`` is well formed, else None.

    C-speed checks over all transmissions at once: nonempty lists of exact
    ints with no duplicate; then every id at least 1 and at most
    ``num_messages``, and the declared rate (if any) equal to the
    transmission count.  It returns None on every input
    :func:`_checked_scheme` rejects (and on int subclasses, which that walk
    accepts), so that walk words every error.
    """
    if type(data) is not dict:
        return None
    raw = data.get("transmissions")
    # types before sorting: a list id is unorderable, and 1.0 and True equal 1
    if (type(raw) is not list or not _LIST_ONLY.issuperset(map(type, raw)) or not all(raw)
            or not _INT_ONLY.issuperset(map(type, chain.from_iterable(raw)))):
        return None
    transmissions = list(map(tuple, map(sorted, raw)))
    if list(map(len, map(set, transmissions))) != list(map(len, transmissions)):
        return None
    if "rate" in data and data["rate"] != len(transmissions):
        return None
    max_id = max([t[-1] for t in transmissions], default=0)
    n = num_messages if num_messages is not None else max_id
    if transmissions and (min([t[0] for t in transmissions]) < 1 or max_id > n):
        return None
    return CodingScheme(n, tuple(transmissions))


def _checked_scheme(data, num_messages: int | None) -> CodingScheme:
    """Build the scheme, raising on its first defect."""
    if not isinstance(data, dict):
        raise ValidationError("scheme must be a JSON object")
    if "transmissions" not in data:
        raise ValidationError("missing required key 'transmissions'")
    raw = data["transmissions"]
    if not isinstance(raw, list):
        raise ValidationError("'transmissions' must be an array")
    transmissions = []
    max_id = 0
    for t_idx, entry in enumerate(raw):
        if not isinstance(entry, list) or not entry:
            raise ValidationError(f"transmission {t_idx} must be a nonempty array")
        ids = set()
        for x in entry:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValidationError(
                    f"transmission {t_idx}: bad message id {x!r}"
                )
            if x in ids:
                raise ValidationError(f"transmission {t_idx}: duplicate id {x}")
            ids.add(x)
        max_id = max(max_id, max(ids))
        transmissions.append(tuple(sorted(ids)))
    if "rate" in data and data["rate"] != len(transmissions):
        raise ValidationError(
            f"declared rate {data['rate']} does not match "
            f"{len(transmissions)} transmissions"
        )
    n = num_messages if num_messages is not None else max_id
    if max_id > n:
        raise ValidationError(f"message id {max_id} out of range [1, {n}]")
    return CodingScheme(n, tuple(transmissions))
