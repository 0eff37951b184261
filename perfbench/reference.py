"""The reference loop, and CPU times scaled to the reference speed.

The speed of this machine's cores drifts with its neighbours' load, by 20-60%
within a minute, and CPU time drifts with it.  A request's time over the
reference loop's time around it drifts far less, as long as both run the same
kind of code and the loop runs for a fixed share of the requests' time, so
that it meets the machine's fast and slow spells in the same proportion as
they do.  The loop is frozen here, so a change to the program does not move it.
"""

from __future__ import annotations

import json
from typing import Sequence

from tracing import clock

# share of each request's CPU time that reference loops run for after it
REF_SHARE = 0.1
# about the loop's CPU time on the machine the baseline was taken on (a 2.0 GHz
# Xeon virtual machine); normalised times are CPU seconds at that speed
REF_LOOP_S = 5e-4
# requests whose reference loops a request's time is divided by: the speed
# changes within a second, and wider windows left more of it in the times
REF_WINDOW = 5


class _Virtual:
    __slots__ = ("want", "has")

    def __init__(self, want: int, has: frozenset):
        self.want, self.has = want, has


def _reference_input() -> tuple[list[_Virtual], list[tuple[tuple[int, ...], int]], str]:
    x, virtuals, row_sets = 12345, [], []
    for _ in range(60):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        has = frozenset((x >> k) % 40 for k in range(0, 24, 2))
        virtuals.append(_Virtual(x % 40, has))
    for _ in range(40):
        rows = []
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            rows.append((x >> 8) & 0xFF)
        row_sets.append((tuple(rows), (x >> 20) & 0xFF))
    doc = json.dumps([{"want": v.want, "has": sorted(v.has)} for v in virtuals])
    return virtuals, row_sets, doc


_REF_VIRTUALS, _REF_ROW_SETS, _REF_DOC = _reference_input()


def _gf2_reduce(vec: int, basis: dict[int, int]) -> int:
    while vec:
        row = basis.get(vec.bit_length() - 1)
        if row is None:
            break
        vec ^= row
    return vec


def reference_loop() -> int:
    """The program's kind of work on a fixed input: pairwise want/side-info
    tests over 60 slotted objects into big-int adjacency rows, GF(2) span
    tests over masked 8-bit rows, and a JSON parse."""
    virtuals = _REF_VIRTUALS
    k = len(virtuals)
    adjacency = [0] * k
    for p in range(k):
        vp = virtuals[p]
        for q in range(p + 1, k):
            vq = virtuals[q]
            if vp.want == vq.want or (vp.want in vq.has and vq.want in vp.has):
                adjacency[p] |= 1 << q
                adjacency[q] |= 1 << p
    spanned = 0
    for rows, mask in _REF_ROW_SETS:
        basis: dict[int, int] = {}
        for row in [r & ~mask for r in rows]:
            reduced = _gf2_reduce(row, basis)
            if reduced:
                basis[reduced.bit_length() - 1] = reduced
        spanned += sum(_gf2_reduce(1 << w, basis) == 0 for w in range(8))
    parsed = json.loads(_REF_DOC)
    return sum(r.bit_count() for r in adjacency) + spanned + sum(len(v["has"]) for v in parsed)


def reference_sample(request_seconds: float) -> tuple[float, int]:
    """Run reference loops until they took REF_SHARE of a request's CPU time.

    At least one loop runs.  Returns their CPU time and their number.
    """
    loops, start = 0, clock()
    while True:
        reference_loop()
        loops += 1
        spent = clock() - start
        if spent >= REF_SHARE * request_seconds:
            return spent, loops


def normalise(times: Sequence[float], refs: Sequence[tuple[float, int]],
              window: int = REF_WINDOW) -> list[float]:
    """Each time over the mean reference-loop time of the ``window`` requests
    nearest it, times REF_LOOP_S: CPU seconds at the reference speed.

    ``refs[i]`` is the ``reference_sample`` taken right after ``times[i]``.  A
    mean, not a median: a request's time mixes the machine's fast and slow
    spells, and so does the sum of the reference loops run beside it.
    """
    if len(times) != len(refs) or not refs:
        raise ValueError("one reference sample per time is needed")
    window = min(window, len(refs))
    out = []
    for i, t in enumerate(times):
        lo = min(max(0, i - window // 2), len(refs) - window)
        near = refs[lo:lo + window]
        out.append(t * REF_LOOP_S * sum(n for _, n in near) / sum(s for s, _ in near))
    return out


class RefTimer:
    """CPU time of a stretch of small steps, scaled to the reference speed.

    Steps are gathered into chunks of at least ``chunk`` seconds, and a
    reference sample runs after each chunk, as after a request.
    """

    def __init__(self, chunk: float = 0.02):
        self.chunk = chunk
        self.times: list[float] = []
        self.refs: list[tuple[float, int]] = []
        self._pending = 0.0

    def add(self, seconds: float) -> None:
        self._pending += seconds
        if self._pending >= self.chunk:
            self._flush()

    def _flush(self) -> None:
        if self._pending > 0:
            self.times.append(self._pending)
            self.refs.append(reference_sample(self._pending))
            self._pending = 0.0

    def ref_seconds(self) -> float:
        self._flush()
        return sum(normalise(self.times, self.refs))
