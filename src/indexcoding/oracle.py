"""Independent ground truth: optimal scalar-linear GF(2) rate and MAIS bound.

The optimal-rate search enumerates row SPACES rather than raw matrices: every
k-dimensional subspace of GF(2)^n has a unique reduced-row-echelon basis, so
enumerating pivot-column subsets times free-entry assignments visits each
candidate encoder exactly once (e.g. 1395 subspaces for k=3, n=6 instead of
2^18 matrices).  Decodability of a virtual (want d, side info S) is the rank
test: e_d must lie in rowspace(E) + span{e_i : i in S}.

The MAIS bound (maximum acyclic induced subgraph of the side-information
digraph over virtuals with pairwise-distinct wants) lower-bounds every code,
linear or not.  The rate search starts from it, skipping rates it proves
infeasible; no step checks the oracle's answer against it, and
:func:`min_linear_rate_gf2` always searches.  Given an ``upper`` bound,
:func:`mais_lower_bound` returns as soon as its best set reaches it, with the
same answer as the full search.  ``pipeline.gap_report`` states how the covers
and these bounds pin one another.

The MAIS search branches only on the has-minimal virtuals
(:func:`has_minimal`): those with no same-want virtual whose ``has`` is a
strict subset of theirs.  Take p and q with one want and has_q < has_p, and
put q for p in an acyclic set: the arcs into it (from holders of the want)
stay, its arcs out are a subset of p's, so no cycle appears.  So the largest
acyclic set is the same over the has-minimal virtuals.  The cap still counts
every virtual.

The rate search tests the distinct (want, has) pairs of all virtuals, and
each pair that rejects a row space moves to the front of the list
(move-to-front, Rivest, 1976): consecutive RREF bases share most rows, so
the pair that rejected the last one is the likeliest to reject the next.  A
row space is feasible only when every pair decodes, whatever the order, and
the row spaces come in the same order, so the first feasible row space, and
with it the rate and the witness, is that of virtual order; only the
rejections come sooner.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .errors import CapExceeded, ValidationError
from .graph import closure
from .instance import UnicastInstance, _bits

DEFAULT_ORACLE_N_CAP = 10
DEFAULT_MAIS_CAP = 20


def gf2_reduce(vec: int, basis: dict[int, int]) -> int:
    """Reduce vec against a basis keyed by leading bit; 0 means in span."""
    while vec:
        lead = vec.bit_length() - 1
        row = basis.get(lead)
        if row is None:
            break
        vec ^= row
    return vec


def gf2_basis(rows: Sequence[int]) -> dict[int, int]:
    basis: dict[int, int] = {}
    for row in rows:
        reduced = gf2_reduce(row, basis)
        if reduced:
            basis[reduced.bit_length() - 1] = reduced
    return basis


def can_decode(rows: Sequence[int], want: int, has_mask: int) -> bool:
    """Rank test: e_want in rowspace(rows) + span of the has unit vectors.

    Adding unit vectors for the side-info coordinates lets the receiver zero
    them at will, so the test reduces to span membership after masking those
    columns out of every row.
    """
    keep = ~has_mask
    target = 1 << (want - 1)
    basis = gf2_basis([r & keep for r in rows])
    return gf2_reduce(target, basis) == 0


def iter_rref_rowspaces(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield one canonical RREF basis per k-dimensional subspace of GF(2)^n.

    Pivot columns run through ascending combinations; an entry (row i, col j)
    is free exactly when j is a non-pivot column to the right of pivot i.
    Enumeration order is deterministic: pivot sets lexicographic, then free
    assignments in increasing integer order.
    """
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for j in range(n)
            if j not in pivot_set
            for i in range(k)
            if pivots[i] < j
        ]
        base = [1 << p for p in pivots]
        for bits in range(1 << len(free)):
            rows = base[:]
            for t, (i, j) in enumerate(free):
                if (bits >> t) & 1:
                    rows[i] |= 1 << j
            yield tuple(rows)


def has_minimal(u: UnicastInstance) -> int:
    """Bitmask over ``u.virtuals`` of the has-minimal ones: those with no
    virtual of the same want whose ``has`` is a strict subset of theirs.
    Every want group keeps at least one member."""
    virtuals = u.virtuals
    minimal = 0
    for members in u.arcs[0].values():
        group = [(p, virtuals[p].has) for p in _bits(members)]
        for p, has in group:
            if not any(other < has for _, other in group):
                minimal |= 1 << p
    return minimal


def _virtual_masks(u: UnicastInstance) -> list[tuple[int, int]]:
    """Distinct (want, has_mask) pairs of ``u.virtuals``, in virtual order."""
    return list(dict.fromkeys(
        (v.want, sum(1 << (i - 1) for i in v.has)) for v in u.virtuals
    ))


def min_linear_rate_gf2(
    u: UnicastInstance,
    n_cap: int = DEFAULT_ORACLE_N_CAP,
    with_witness: bool = False,
    lower_bound: int | None = None,
):
    """Least number of GF(2) codeword rows that lets every virtual decode.

    Searches rates upward starting from a lower bound (lower rates are
    provably infeasible), enumerating all row spaces of each dimension.  The
    bound is ``lower_bound`` when given (a caller that has the MAIS bound
    passes it, or 0 for none), else the MAIS bound at its default cap.
    Each call starts from the pairs in virtual order and moves the pair
    that rejects a row space to the front.
    Returns the rate, an int from 0 to n, or with ``with_witness=True``
    (rate, rows): the first feasible basis in enumeration order, a tuple of
    n-bit ints (bit i = message i + 1), empty when nothing is wanted.
    Raises ``CapExceeded`` for n above ``n_cap``, and ``ValidationError``
    for a bound above n (else n unit vectors work).
    """
    n = u.num_messages
    if n > n_cap:
        raise CapExceeded(f"oracle cap exceeded ({n} messages > {n_cap})")
    receivers = _virtual_masks(u)
    if not receivers:
        return (0, ()) if with_witness else 0
    if lower_bound is None:
        try:
            lower_bound = mais_lower_bound(u)
        except CapExceeded:
            lower_bound = 0
    for beta in range(max(1, lower_bound), n + 1):
        for rows in iter_rref_rowspaces(n, beta):
            for idx, (want, mask) in enumerate(receivers):
                if not can_decode(rows, want, mask):
                    if idx:  # move to front: the next basis shares most rows
                        receivers.insert(0, receivers.pop(idx))
                    break
            else:
                return (beta, rows) if with_witness else beta
    # the n unit vectors decode every virtual, so only a bound above n gets here
    raise ValidationError(f"lower bound {lower_bound} exceeds the {n} messages")


def mais_lower_bound(u: UnicastInstance, cap: int = DEFAULT_MAIS_CAP,
                     upper: int | None = None) -> int:
    """Largest acyclic set of virtuals with pairwise-distinct wants.

    Acyclic means in the side-information digraph ``u.arcs``; such a
    set of size t forces any code to spend t transmissions.  The search takes at
    most one virtual per want-group (equal wants can't both witness) on an
    explicit stack of (group, chosen mask) pairs, so no recursion limit
    applies, and branches only on has-minimal members; the cap counts every
    virtual.  A new cycle must pass through candidate p, so p is admitted
    unless the closure of its arcs into the chosen set reaches a holder of
    its want.  Branches that cannot beat the best are cut.

    ``upper``, when given, must be a proven upper bound on the answer: the
    search returns as soon as its best set reaches it.  The best grows one
    virtual at a time, so the answer is the same as with no bound.
    """
    k = len(u.virtuals)
    if k > cap:
        raise CapExceeded(f"MAIS cap exceeded ({k} virtuals > {cap})")
    wanted_by, held_by, out = u.arcs
    groups = sorted(wanted_by.items())
    minimal = has_minimal(u)
    best = 0
    stack = [(0, 0)]
    while stack:
        group, chosen = stack.pop()
        size = chosen.bit_count()
        if size > best:
            best = size
            if best == upper:
                return best
        if size + len(groups) - group <= best:
            continue
        stack.append((group + 1, chosen))
        want, members = groups[group]
        into = held_by.get(want, 0)
        for p in _bits(members & minimal):
            if not closure(out, out[p] & chosen, chosen) & into:
                stack.append((group + 1, chosen | 1 << p))
    return best
