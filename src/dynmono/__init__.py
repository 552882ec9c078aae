"""Irreversible dynamic monopolies for degree-proportional thresholds.

Library layout: ``graphs`` (representation and structure), ``cascade``
(thresholds and the hull operator), ``exact`` (exhaustive oracle and the
permutation-expectation bound), ``constructors`` (seed-set builders),
``generators`` (instance families), ``bench`` (sweep harness), ``cli``.
"""

from .bench import BenchConfig, BenchResult, load_config, run_bench, write_csv
from .cascade import (
    CascadeResult,
    Thresholds,
    check_thresholds,
    degree_partition,
    hull,
    is_monopoly,
    parse_rho,
    parse_seed_set,
    proportional_thresholds,
    to_fraction,
)
from .constructors import (
    DELTA_CAP,
    Girth5Trace,
    MonopolySeed,
    abw_construct,
    abw_seed_from_permutation,
    activation_probability,
    default_round_count,
    girth5_construct,
    girth5_params,
    greedy_kernel,
    growth_constant,
    rho_upper_bound,
    tree_construct,
    v2_baseline,
)
from .errors import DynmonoError, InputFormatError, PreconditionError, SizeLimitError
from .exact import DEFAULT_SIZE_LIMIT, ExactResult, abw_bound, min_monopoly_exact
from .generators import GeneratorSpec, generate, petersen, prufer_decode, random_girth5, random_tree
from .graphs import (
    ACYCLIC,
    Graph,
    connected_components,
    from_edges,
    girth,
    girth_at_least_five,
    induced_subgraph,
    is_connected,
    is_tree,
    parse_graph,
    serialize_graph,
)

__version__ = "0.1.0"

__all__ = [
    "ACYCLIC",
    "BenchConfig",
    "BenchResult",
    "CascadeResult",
    "DEFAULT_SIZE_LIMIT",
    "DELTA_CAP",
    "DynmonoError",
    "ExactResult",
    "GeneratorSpec",
    "Girth5Trace",
    "Graph",
    "InputFormatError",
    "MonopolySeed",
    "PreconditionError",
    "SizeLimitError",
    "Thresholds",
    "abw_bound",
    "abw_construct",
    "abw_seed_from_permutation",
    "activation_probability",
    "check_thresholds",
    "connected_components",
    "default_round_count",
    "degree_partition",
    "from_edges",
    "generate",
    "girth",
    "girth5_construct",
    "girth5_params",
    "girth_at_least_five",
    "greedy_kernel",
    "growth_constant",
    "hull",
    "induced_subgraph",
    "is_connected",
    "is_monopoly",
    "is_tree",
    "load_config",
    "min_monopoly_exact",
    "parse_graph",
    "parse_rho",
    "parse_seed_set",
    "petersen",
    "proportional_thresholds",
    "prufer_decode",
    "random_girth5",
    "random_tree",
    "rho_upper_bound",
    "run_bench",
    "serialize_graph",
    "to_fraction",
    "tree_construct",
    "v2_baseline",
    "write_csv",
]
