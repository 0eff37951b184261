"""XOR coding schemes: build from a cover, encode, decode, verify.

Each transmission is the XOR of a set of messages over GF(2)^w words.  A
virtual receiver assigned to transmission T decodes its want by XOR-ing the
received word with its side-information words for every other summand in T,
which cancels them exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Mapping

from .cover import CliqueCover
from .errors import ValidationError
from .instance import UnicastInstance, VirtualReceiver

DEFAULT_WORD_WIDTH = 64


@dataclass(frozen=True)
class CodingScheme:
    """An ordered list of XOR transmissions; the rate is their count."""

    num_messages: int
    transmissions: tuple[tuple[int, ...], ...]

    @property
    def rate(self) -> int:
        return len(self.transmissions)


@dataclass(frozen=True)
class MessageAssignment:
    """Concrete w-bit words for every message; words[i-1] belongs to message i."""

    words: tuple[int, ...]
    word_width: int = DEFAULT_WORD_WIDTH


@dataclass(frozen=True)
class DecodeView:
    """What one virtual receiver sees: the channel output plus its own words."""

    receiver: VirtualReceiver
    received: tuple[int, ...]
    side_words: Mapping[int, int]


@dataclass(frozen=True)
class TrialFailure:
    """First randomized trial on which some virtual decoded the wrong word."""

    trial: int
    virtual: int
    expected: int
    got: int


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
        wants = {u.virtuals[v].want for v in part}
        for v in part:
            lacking = wants - u.virtuals[v].has - {u.virtuals[v].want}
            if lacking:
                raise ValidationError(
                    f"invalid cover: part {t}: virtual {v} lacks {sorted(lacking)}"
                )
        transmissions.append(tuple(sorted(wants)))
    return CodingScheme(u.num_messages, tuple(transmissions))


def encode(s: CodingScheme, a: MessageAssignment) -> tuple[int, ...]:
    """XOR the words of each transmission's messages."""
    if len(a.words) != s.num_messages:
        raise ValidationError(
            f"assignment has {len(a.words)} words, scheme expects {s.num_messages}"
        )
    out = []
    for t in s.transmissions:
        word = 0
        for i in t:
            word ^= a.words[i - 1]
        out.append(word)
    return tuple(out)


def decode_receiver(s: CodingScheme, v: DecodeView, assignment_index: int) -> int:
    """Recover the wanted word from one transmission.

    The receiver must appear in the transmission and hold every other summand
    as side information; otherwise the transmission cannot be decoded.
    """
    t = s.transmissions[assignment_index]
    want = v.receiver.want
    others = [i for i in t if i != want]
    if want not in t or any(i not in v.receiver.has for i in others):
        raise ValidationError(
            f"virtual {v.receiver.origin} not decodable from transmission "
            f"{assignment_index}"
        )
    word = v.received[assignment_index]
    for i in others:
        word ^= v.side_words[i]
    return word


def assign_transmissions(u: UnicastInstance, s: CodingScheme) -> list[int | None]:
    """First decodable transmission per virtual, None where none qualifies."""
    out: list[int | None] = []
    for v in u.virtuals:
        chosen = None
        for idx, t in enumerate(s.transmissions):
            if v.want in t and all(i in v.has for i in t if i != v.want):
                chosen = idx
                break
        out.append(chosen)
    return out


def verify_scheme_symbolic(u: UnicastInstance, s: CodingScheme) -> list[int]:
    """Indices of virtuals no transmission satisfies (empty = scheme ok).

    A transmission satisfies a virtual when it contains the want and the
    virtual holds all other summands, which is exactly XOR decodability.
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

    Draws ``trials`` uniform assignments from a generator seeded with
    ``seed`` (deterministic), encodes, and decodes every virtual from its
    assigned transmission.  Returns None when every decoded word matches, or
    the first failure.  Raises if the symbolic check does not pass first.
    """
    if not 1 <= word_width <= 64:
        raise ValidationError(f"word_width must be in [1, 64], got {word_width}")
    assigned = assign_transmissions(u, s)
    if any(t is None for t in assigned):
        raise ValidationError(
            "symbolic verification failed; randomized check requires it to pass"
        )
    rng = random.Random(seed)
    for trial in range(trials):
        words = tuple(rng.getrandbits(word_width) for _ in range(u.num_messages))
        a = MessageAssignment(words, word_width)
        received = encode(s, a)
        for idx, v in enumerate(u.virtuals):
            view = DecodeView(
                receiver=v,
                received=received,
                side_words={i: words[i - 1] for i in v.has},
            )
            got = decode_receiver(s, view, assigned[idx])
            expected = words[v.want - 1]
            if got != expected:
                return TrialFailure(trial=trial, virtual=idx, expected=expected, got=got)
    return None


def scheme_to_jsonable(s: CodingScheme) -> dict:
    return {"rate": s.rate, "transmissions": [list(t) for t in s.transmissions]}


def serialize_scheme(s: CodingScheme) -> str:
    """Canonical scheme JSON: rate plus transmissions with ascending ids."""
    return json.dumps(scheme_to_jsonable(s), indent=2)


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
