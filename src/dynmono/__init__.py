"""Irreversible dynamic monopolies for degree-proportional thresholds.

Library layout: ``graphs`` (representation and structure), ``cascade``
(thresholds and the hull operator), ``exact`` (exhaustive oracle and the
permutation-expectation bound), ``constructors`` (seed-set builders),
``generators`` (instance families), ``bench`` (sweep harness), ``cli``.
The package namespace exports what users call; everything else stays
importable from its submodule.
"""

from .bench import load_config, run_bench, write_csv
from .cascade import hull, is_monopoly, parse_rho, proportional_thresholds, to_fraction
from .constructors import abw_construct, girth5_construct, girth5_params, tree_construct, v2_baseline
from .errors import DynmonoError, InputFormatError, PreconditionError, SizeLimitError
from .exact import abw_bound, min_monopoly_exact
from .generators import GeneratorSpec, generate, random_girth5, random_tree
from .graphs import Graph, from_edges, girth, parse_graph, serialize_graph

__version__ = "0.1.0"

__all__ = [
    "DynmonoError",
    "InputFormatError",
    "PreconditionError",
    "SizeLimitError",
    "Graph",
    "from_edges",
    "parse_graph",
    "serialize_graph",
    "girth",
    "GeneratorSpec",
    "generate",
    "random_tree",
    "random_girth5",
    "to_fraction",
    "parse_rho",
    "proportional_thresholds",
    "hull",
    "is_monopoly",
    "min_monopoly_exact",
    "abw_bound",
    "abw_construct",
    "girth5_construct",
    "tree_construct",
    "v2_baseline",
    "girth5_params",
    "load_config",
    "run_bench",
    "write_csv",
]
