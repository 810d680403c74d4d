"""autgraph: multigraph isomorphism classes with exact 1/|Aut| coefficients.

The package generates every isomorphism class of loopless multigraphs of
a chosen connectivity family (biconnected, connected, or bridgeless,
with optional labeled external legs) for given vertex and cyclomatic
numbers, each class weighted by the inverse order of its automorphism
group, and it ships an exhaustive brute-force verifier for every
produced coefficient.
"""

from .canon import CanonicalKey, LinearCombination, aut_order, canonical_key
from .graph import (
    Block,
    BlockDecomposition,
    GraphError,
    Multigraph,
    block_decomposition,
    connected_components,
    cycle_graph,
    cyclomatic_number,
    is_biconnected,
    is_connected,
    is_two_edge_connected,
    multi_edge_graph,
    path_graph,
)
from .ops import (
    add_edge,
    apply_weighted,
    contract_block,
    erase_external,
    insert_block,
    insert_block_hat,
    q_hat_map,
    q_map,
    split_vertex,
    split_vertex_hat,
    xi_distribute,
)
from .recursion import BetaEngine, BetaKey, BlockLimits
__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockDecomposition",
    "BetaEngine",
    "BetaKey",
    "BlockLimits",
    "CanonicalKey",
    "GraphError",
    "LinearCombination",
    "Multigraph",
    "add_edge",
    "apply_weighted",
    "aut_order",
    "block_decomposition",
    "canonical_key",
    "connected_components",
    "contract_block",
    "cycle_graph",
    "cyclomatic_number",
    "enumerate_classes",
    "erase_external",
    "family_predicate",
    "insert_block",
    "insert_block_hat",
    "is_biconnected",
    "is_connected",
    "is_two_edge_connected",
    "multi_edge_graph",
    "path_graph",
    "q_hat_map",
    "q_map",
    "split_vertex",
    "split_vertex_hat",
    "verify_beta",
    "verify_lemmas",
    "xi_distribute",
]

# The verifier's names load on first use (PEP 562), so that importing the
# package, as every CLI call does, does not import the verifier.
_VERIFY_NAMES = frozenset({"enumerate_classes", "family_predicate", "verify_beta", "verify_lemmas"})


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
