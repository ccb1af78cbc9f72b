"""Popularity and fractional popularity of roommates matchings.

Nodes rank their neighbors strictly; matchings compete by majority vote.
This package decides whether a given matching is popular, and whether it
stays popular against half-integral competition, returning a
machine-checkable certificate either way.
"""

from .engine import EngineError
from .formats import (
    ParseError,
    document_to_json,
    parse_certificate,
    parse_instance,
    parse_matching,
    result_to_document,
    serialize_instance,
    serialize_matching,
    verify_certificate,
)
from .fractional import (
    CycleThroughStar,
    FractionalPopular,
    NotFractionalPopular,
    PathPlusCycle,
    check_fractional_structure,
    is_fractional_popular,
    structure_to_fractional_matching,
)
from .generator import generate_instance, greedy_matching, random_maximal_matching
from .model import (
    HalfIntegralMatching,
    Matching,
    RoommatesInstance,
    blocking_edges,
    delta,
    edge_weight,
    fractional_value,
    fractional_value_times_two,
    half_from_matching,
    loop_weight,
    vote,
)
from .oracle import (
    OracleLimitError,
    brute_fractional_popular,
    brute_popular,
)
from .popularity import (
    BlockingStructure,
    DualWitness,
    InternalError,
    Popular,
    Unpopular,
    check_blocking_structure,
    is_popular,
    more_popular_matching,
    witness_violation,
)

__version__ = "0.1.0"

__all__ = [
    "BlockingStructure",
    "CycleThroughStar",
    "DualWitness",
    "EngineError",
    "FractionalPopular",
    "HalfIntegralMatching",
    "InternalError",
    "Matching",
    "NotFractionalPopular",
    "OracleLimitError",
    "ParseError",
    "PathPlusCycle",
    "Popular",
    "RoommatesInstance",
    "Unpopular",
    "blocking_edges",
    "brute_fractional_popular",
    "brute_popular",
    "check_blocking_structure",
    "check_fractional_structure",
    "delta",
    "document_to_json",
    "edge_weight",
    "fractional_value",
    "fractional_value_times_two",
    "generate_instance",
    "greedy_matching",
    "half_from_matching",
    "is_fractional_popular",
    "is_popular",
    "loop_weight",
    "more_popular_matching",
    "parse_certificate",
    "parse_instance",
    "parse_matching",
    "random_maximal_matching",
    "result_to_document",
    "serialize_instance",
    "serialize_matching",
    "structure_to_fractional_matching",
    "verify_certificate",
    "vote",
    "witness_violation",
]
