"""Relative maximum-genus embeddings of dense eulerian digraphs.

Build an orientable embedding whose clockwise faces are exactly a chosen
directed circuit decomposition while the counterclockwise faces collapse to
one or two, verify such embeddings, certify small instances by exhaustive
enumeration, and generate test instances.
"""

from .digraph import (CircuitDecomposition, DensityProfile, Digraph,
                      DirectedCircuit, UndirectedGraph, density_profile,
                      euler_circuit, eulerian_orientation,
                      underlying_simple_graph, undirected_euler_circuit)
from .embedding import (FaceWalk, OrientedDirectedEmbedding, VerificationReport,
                        embed_from_decomposition, euler_genus, verify_embedding)
from .errors import (EmbeddingError, GraphError, HypothesisError,
                     LocalIrreducibilityError, NoProgressError, StateSpaceError)
from .generate import (gen_kn_minus_pm, gen_random_dense_eulerian,
                       gen_rotational_tournament, gen_sts, split_circuit_at,
                       steiner_triple_system)
from .interlace import (InterlacingCertificate, TypeTable, check_big_moderate,
                        check_diamond_corollary, check_three_neighbor_corollary,
                        extract_dense_subgraph, find_vertex_on_three_antifaces,
                        three_neighbor_search, usg_walk)
from .oracle import (CertificationResult, OracleSummary, certify_maximal,
                     enumerate_relative_embeddings, iter_relative_embeddings,
                     state_count)
from .reduce import (BEST_EFFORT, STRICT, ReductionStep, ReductionTrace,
                     reduce_embedding, reduce_to_upper_embedding,
                     relative_upper_from_partial, undirected_upper_embedding)
from .render import embedding_svg
from .surgery import (BLACK, RED, WHITE, DivisionResult, SurgeryResult,
                      blow_up, division_search, merge_interlaced,
                      merge_three_at_vertex, split_swap)
from .touch import (TouchClassification, build_touch_graph, classify,
                    touch_graph_dot)

__version__ = "3.0.0"

__all__ = [
    "BEST_EFFORT", "BLACK", "CertificationResult", "CircuitDecomposition",
    "DensityProfile", "Digraph", "DirectedCircuit", "DivisionResult",
    "EmbeddingError", "FaceWalk", "GraphError", "HypothesisError",
    "InterlacingCertificate", "LocalIrreducibilityError", "NoProgressError",
    "OracleSummary", "OrientedDirectedEmbedding", "RED", "ReductionStep",
    "ReductionTrace", "STRICT", "StateSpaceError", "SurgeryResult",
    "TouchClassification", "TypeTable", "UndirectedGraph",
    "VerificationReport", "WHITE", "blow_up", "build_touch_graph",
    "certify_maximal", "check_big_moderate", "check_diamond_corollary",
    "check_three_neighbor_corollary", "classify", "density_profile",
    "division_search", "embed_from_decomposition",
    "embedding_svg", "enumerate_relative_embeddings", "euler_circuit",
    "euler_genus", "eulerian_orientation", "extract_dense_subgraph",
    "find_vertex_on_three_antifaces", "gen_kn_minus_pm",
    "gen_random_dense_eulerian", "gen_rotational_tournament", "gen_sts",
    "iter_relative_embeddings", "merge_interlaced", "merge_three_at_vertex",
    "reduce_embedding", "reduce_to_upper_embedding",
    "relative_upper_from_partial", "split_circuit_at", "split_swap",
    "state_count", "steiner_triple_system", "touch_graph_dot",
    "underlying_simple_graph", "undirected_euler_circuit",
    "undirected_upper_embedding", "usg_walk", "verify_embedding",
]
