"""XOR coding schemes: build from a cover, encode, decode, verify.

Each transmission is the XOR of a set of messages over GF(2)^w words.  A
virtual receiver decodes transmission T when T holds its want and it holds
every other summand of T: XOR-ing the received word with its
side-information words for those summands cancels them exactly.
``_decode_sets`` is the one statement of that rule, and every check and
decode reads it, only for the summands some virtual wants, so a long
transmission costs its length per wanted summand, not its length squared.
``scheme_from_cover`` builds it once per part and ``assign_transmissions``
once per transmission; each virtual is then one ``has.issuperset`` test, and
``verify_scheme``, the one verify, assigns and XORs out the set that passed it.
Message words are one mapping from 1-based message id to int word, shared by
``encode``, ``decode_receiver`` and the randomized check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping

from .cover import CliqueCover
from .errors import ValidationError
from .instance import UnicastInstance, VirtualReceiver
from .jsontext import loads

DEFAULT_WORD_WIDTH = 64
# trials per bit-sliced pass: at 64-bit words, 8 KiB per wide word whatever the
# trial count
TRIAL_BLOCK = 1024
_want = attrgetter("want")
Assignment = tuple[int, frozenset[int]]  # (transmission index, other summands)


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


def _decode_sets(t: tuple[int, ...], wants: Iterable[int]) -> dict[int, frozenset[int]]:
    """The decode rule: a virtual wanting ``i`` decodes transmission ``t``
    exactly when ``i`` is a key of this map and the virtual's ``has`` is a
    superset of its value, the summands of ``t`` other than ``i``.  The keys
    are the summands of ``t`` that are in ``wants``."""
    summands = frozenset(t)
    return {i: summands.difference((i,)) for i in summands.intersection(wants)}


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
        decode = _decode_sets(wants, wants)
        for v in part:
            r = u.virtuals[v]
            if not r.has.issuperset(decode[r.want]):
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

    ``received`` holds one word per transmission.  ``side_words`` maps
    message ids to words and is read only at the other summands of ``t``,
    which ``v`` must hold, or ``t`` cannot be decoded; like ``encode``, it
    names the least summand that has no word.
    """
    if not 0 <= t < s.rate:
        raise ValidationError(f"transmission {t} out of range [0, {s.rate})")
    if len(received) < s.rate:
        raise ValidationError(f"received {len(received)} words for {s.rate} transmissions")
    others = _decode_sets(s.transmissions[t], (v.want,)).get(v.want)
    if others is None or not v.has.issuperset(others):
        raise ValidationError(f"virtual {v.origin} not decodable from transmission {t}")
    missing = others.difference(side_words)
    if missing:
        raise ValidationError(f"no word for message {min(missing)}")
    word = received[t]
    for i in others:
        word ^= side_words[i]
    return word


def assign_transmissions(u: UnicastInstance, s: CodingScheme) -> list[Assignment | None]:
    """Per virtual, ``(t, others)``: the first transmission ``t`` it decodes and
    the other summands of ``t``, all in its ``has``, that it cancels there;
    None where no transmission qualifies."""
    # message id -> (index, other summands) of each transmission holding it, in
    # order; only for wanted ids, so a long transmission costs its length per want
    wanted = set(map(_want, u.virtuals))
    holding: dict[int, list[Assignment]] = {}
    for idx, t in enumerate(s.transmissions):
        for i, others in _decode_sets(t, wanted).items():
            holding.setdefault(i, []).append((idx, others))
    assigned: list[Assignment | None] = []
    for v in u.virtuals:
        for pair in holding.get(v.want, ()):
            if v.has.issuperset(pair[1]):
                assigned.append(pair)
                break
        else:
            assigned.append(None)
    return assigned


def verify_scheme_symbolic(u: UnicastInstance, s: CodingScheme) -> list[int]:
    """Indices of virtuals no transmission satisfies (empty = scheme ok).

    A transmission satisfies a virtual when the virtual can decode it.
    """
    assigned = assign_transmissions(u, s)
    return [idx for idx, pair in enumerate(assigned) if pair is None]


def verify_scheme_random(
    u: UnicastInstance,
    s: CodingScheme,
    trials: int = 100,
    seed: int = 0,
    word_width: int = DEFAULT_WORD_WIDTH,
) -> TrialFailure | None:
    """The failure :func:`verify_scheme` reports, or None.  Raises where it
    does, and when some virtual decodes no transmission."""
    assigned, failure = verify_scheme(u, s, trials, seed, word_width)
    if None in assigned:
        raise ValidationError(
            "symbolic verification failed; randomized check requires it to pass"
        )
    return failure


def _check_trials(trials: int, word_width: int) -> None:
    """The random verify's parameters: at least one trial, 1 to 64 bits a word."""
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    if not 1 <= word_width <= 64:
        raise ValidationError(f"word_width must be in [1, 64], got {word_width}")


def verify_scheme(
    u: UnicastInstance, s: CodingScheme, trials: int = 100, seed: int = 0,
    word_width: int = DEFAULT_WORD_WIDTH,
) -> tuple[list[Assignment | None], TrialFailure | None]:
    """``(assign_transmissions(u, s), failure)``, the trials run only when
    every virtual is assigned.  Raises first on trials below 1 or a word width
    outside [1, 64].

    The trials are bit-sliced: trial t's word for a message is bits
    ``[t*w, (t+1)*w)`` of one wide integer, so one ``encode`` and one decode
    per virtual (its transmission's word XOR its other summands' words) check
    every trial at once.  The wide integers come from a generator seeded with
    ``seed``, one per message the scheme sends, in ascending id order, for
    each block of up to ``TRIAL_BLOCK`` trials.  ``failure`` is the wrong
    decode with the least (trial, virtual), with that trial's words, or None.
    """
    _check_trials(trials, word_width)
    assigned = assign_transmissions(u, s)
    if None in assigned:
        return assigned, None
    sent = sorted({i for t in s.transmissions for i in t})
    rng = random.Random(seed)
    mask = (1 << word_width) - 1
    for start in range(0, trials, TRIAL_BLOCK):
        width = min(TRIAL_BLOCK, trials - start) * word_width
        words = {i: rng.getrandbits(width) for i in sent}
        received = encode(s, words)
        first = None  # (trial in block, virtual, expected, got)
        for idx, (v, (t, others)) in enumerate(zip(u.virtuals, assigned)):
            got = received[t]
            for i in others:
                got ^= words[i]
            wrong = got ^ words[v.want]
            if wrong:
                trial = ((wrong & -wrong).bit_length() - 1) // word_width
                if first is None or trial < first[0]:
                    first = (trial, idx, words[v.want], got)
        if first is not None:
            trial, idx, expected, got = first
            shift = trial * word_width
            return assigned, TrialFailure(
                start + trial, idx, expected >> shift & mask, got >> shift & mask
            )
    return assigned, None


def parse_scheme(text: str, num_messages: int) -> CodingScheme:
    """Parse scheme JSON for an instance of ``num_messages`` messages; extra
    keys are tolerated so solve output round-trips."""
    data = loads(text)
    if not isinstance(data, dict):
        raise ValidationError("scheme must be a JSON object")
    if "transmissions" not in data:
        raise ValidationError("missing required key 'transmissions'")
    raw = data["transmissions"]
    if not isinstance(raw, list):
        raise ValidationError("'transmissions' must be an array")
    transmissions = [_transmission(entry, t_idx) for t_idx, entry in enumerate(raw)]
    if "rate" in data:
        rate = data["rate"]
        if not isinstance(rate, int) or isinstance(rate, bool):
            raise ValidationError("'rate' must be an integer")
        if rate != len(transmissions):
            raise ValidationError(
                f"declared rate {rate} does not match {len(transmissions)} transmissions"
            )
    max_id = max([t[-1] for t in transmissions], default=0)
    if max_id > num_messages:
        raise ValidationError(f"message id {max_id} out of range [1, {num_messages}]")
    return CodingScheme(num_messages, tuple(transmissions))


def _transmission(entry, t_idx: int) -> tuple[int, ...]:
    """Transmission ``t_idx`` as ascending ids, walked id by id so the error
    names its first defect in document order."""
    if not isinstance(entry, list) or not entry:
        raise ValidationError(f"transmission {t_idx} must be a nonempty array")
    ids = set()
    for x in entry:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValidationError(f"transmission {t_idx}: bad message id {x!r}")
        if x in ids:
            raise ValidationError(f"transmission {t_idx}: duplicate id {x}")
        ids.add(x)
    return tuple(sorted(ids))
