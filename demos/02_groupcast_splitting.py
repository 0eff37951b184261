"""Groupcast to unicast: split multi-demand receivers, then decode by hand.

Receiver 2 wants two messages, so it becomes two virtual receivers with the
same side information.  One transmission can never satisfy two demands of
one receiver, which is why the split loses nothing.
"""

import random

from indexcoding import (
    Instance,
    UnicastInstance,
    decode_receiver,
    encode,
    exact_min_cover,
    scheme_from_cover,
)
from indexcoding.scheme import assign_transmissions

# (1) Two receivers over three messages; the second demands both w2 and w3.
inst = Instance.of(3, [({1}, {2, 3}), ({2, 3}, {1})])

# (2) Splitting yields one virtual receiver per demand.
u = UnicastInstance(inst)
for v in u.virtuals:
    print(f"  r{v.origin[0]}_{v.origin[1]} wants w{v.want}, has {sorted(v.has)}")

# (3) Solve: two transmissions, w1+w2 and w3.
scheme = scheme_from_cover(u, exact_min_cover(u))
print("transmissions:", [list(t) for t in scheme.transmissions])

# (4) Put concrete 16-bit words on the messages and broadcast.
rng = random.Random(7)
words = {i: rng.getrandbits(16) for i in (1, 2, 3)}
received = encode(scheme, words)
print("words:    ", [hex(w) for w in words.values()])
print("broadcast:", [hex(w) for w in received])

# (5) Every virtual receiver recovers its want by cancelling side words.
assigned = assign_transmissions(u, scheme)
for v, (t, _) in zip(u.virtuals, assigned):
    side_words = {i: words[i] for i in v.has}
    decoded = decode_receiver(scheme, v, received, side_words, t)
    assert decoded == words[v.want]
    print(
        f"  r{v.origin[0]}_{v.origin[1]} decodes w{v.want} = {hex(decoded)} "
        f"from transmission {t}"
    )
print("receiver 2 got both of its demands from two different transmissions")
