"""Index coding solver toolkit.

Pipeline: split a groupcast instance into single-demand virtual receivers,
build the cross-neighbor graph, partition it into a minimum number of
cliques, and emit one XOR transmission per clique.  Brute-force GF(2) and
MAIS oracles audit the achieved rate.
"""

from .cover import CliqueCover, exact_min_cover, greedy_cover
from .errors import CapExceeded, IndexCodingError, ValidationError
from .generate import random_instance
from .graph import bipartite_dot, connected_components, derived_dot
from .instance import (
    Instance,
    Receiver,
    UnicastInstance,
    VirtualReceiver,
    parse_instance,
    serialize_instance,
)
from .oracle import mais_lower_bound, min_linear_rate_gf2
from .pipeline import RateReport, gap_report
from .scheme import (
    CodingScheme,
    decode_receiver,
    encode,
    parse_scheme,
    scheme_from_cover,
    verify_scheme,
    verify_scheme_random,
    verify_scheme_symbolic,
)

# Not public: the split form UnicastInstance(inst, dedup) is the graph.  The
# benchmark's replay (perfbench/workloads.py) is the last caller of these three
# stage wrappers, and ROADMAP item 1(b) deletes them along with it.
from .graph import build_cross_neighbor_graph
from .instance import dedup, split_groupcast

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CliqueCover",
    "CodingScheme",
    "IndexCodingError",
    "Instance",
    "RateReport",
    "Receiver",
    "UnicastInstance",
    "ValidationError",
    "VirtualReceiver",
    "bipartite_dot",
    "connected_components",
    "decode_receiver",
    "derived_dot",
    "encode",
    "exact_min_cover",
    "gap_report",
    "greedy_cover",
    "mais_lower_bound",
    "min_linear_rate_gf2",
    "parse_instance",
    "parse_scheme",
    "random_instance",
    "scheme_from_cover",
    "serialize_instance",
    "verify_scheme",
    "verify_scheme_random",
    "verify_scheme_symbolic",
]
