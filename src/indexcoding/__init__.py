"""Index coding solver toolkit.

Pipeline: split a groupcast instance into single-demand virtual receivers,
build the cross-neighbor graph, partition it into a minimum number of
cliques, and emit one XOR transmission per clique.  Brute-force GF(2) and
MAIS oracles audit the achieved rate.
"""

from .cover import CliqueCover, exact_min_cover, greedy_cover
from .errors import CapExceeded, IndexCodingError, ValidationError
from .generate import random_instance
from .graph import bipartite_dot, build_cross_neighbor_graph, connected_components, derived_dot
from .instance import (
    Instance,
    Receiver,
    UnicastInstance,
    VirtualReceiver,
    dedup,
    parse_instance,
    serialize_instance,
    split_groupcast,
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
    "build_cross_neighbor_graph",
    "connected_components",
    "decode_receiver",
    "dedup",
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
    "split_groupcast",
    "verify_scheme",
    "verify_scheme_random",
    "verify_scheme_symbolic",
]
