"""Mastermind satisfiability toolkit.

Score codes, decide whether any secret is consistent with a set of scored
guesses, test whether an instance pins down a unique secret, and encode
vertex-cover questions as instances (with witness construction and cover
extraction for the round trip back).
"""

from .core import (Code, Palette, Score, multiset, naive_score, rho1, rho2,
                   score)
from .errors import (InvalidInputError, MspkitError, ParseError,
                     PreconditionError, ResourceLimitError)
from .io import (parse_graph, parse_instance, serialize_graph,
                 serialize_instance)
from .reduction import (ColorMap, Graph, ReductionArtifact,
                        brute_force_vertex_cover, construct_witness,
                        extract_cover, is_vertex_cover, reduce_vertex_cover)
from .solver import (DEFAULT_EXHAUSTIVE_CAP, Enumeration, MspInstance,
                     ScoredGuess, SolveOutcome, enumerate_all, solve, verify)
from .uniqueness import (UniquenessReport, is_unique, is_unique_by_followups,
                         score_pairs_excluding_perfect)

__version__ = "0.1.0"

__all__ = [
    "Code", "Palette", "Score", "multiset", "naive_score", "rho1", "rho2",
    "score",
    "InvalidInputError", "MspkitError", "ParseError", "PreconditionError",
    "ResourceLimitError",
    "parse_graph", "parse_instance", "serialize_graph", "serialize_instance",
    "ColorMap", "Graph", "ReductionArtifact", "brute_force_vertex_cover",
    "construct_witness", "extract_cover", "is_vertex_cover",
    "reduce_vertex_cover",
    "DEFAULT_EXHAUSTIVE_CAP", "Enumeration", "MspInstance", "ScoredGuess",
    "SolveOutcome", "enumerate_all", "solve", "verify",
    "UniquenessReport", "is_unique", "is_unique_by_followups",
    "score_pairs_excluding_perfect",
    "__version__",
]
