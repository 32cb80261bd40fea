"""Composition-zippering tensors and their combinatorial structure.

Pairs of integer compositions zipper into odd-length binary words; the unit
entries of the resulting tensors are exactly the preorder encodings of
ordered rooted trees, the zero entries tile into descending staircases, and
the words fall into dihedral classes with one tree word each.  This package
builds the tensors, decodes the trees, verifies the structural claims
exhaustively at small scale, and renders the grids.
"""
from .blocks import (Block, GridDecomposition, Staircase, Strip,
                     anti_transpose, blocks, blocks_laminar,
                     decomposition_report, disjoint_staircases,
                     grid_decomposition, partitions_nest, predicted_zeros,
                     sigma, staircase, strip_groups, strips,
                     upper_unitriangular)
from .compositions import (Composition, format_composition, p_set, q_set,
                           rank_desc_lex)
from .dihedral import (OrbitClass, canonical_tree_word, comp_reverse,
                       enumerate_orbits, middle_words, orbit, orbit_summary,
                       rotate)
from .errors import (CapacityError, DomainError, MalformedWordError,
                     ParseError, StructureViolationError, ZiptensorError)
from .render import (BorderClass, border_class, to_csv, to_json, to_svg,
                     to_text)
from .trees import (OrderedTree, catalan, count_trees, count_trees_by_length,
                    decode, encode, narayana, to_dot, tree_words)
from .verify import CHECK_ORDER, DEFAULT_MAX_K, run_check, run_checks
from .zippering import (Tensor, build_tensor, is_tree_word, tensor_entry,
                        unzip, zipper)

__version__ = "0.1.0"

__all__ = [
    "Block", "BorderClass", "CapacityError", "CHECK_ORDER", "Composition",
    "DEFAULT_MAX_K", "DomainError", "GridDecomposition", "MalformedWordError",
    "OrbitClass", "OrderedTree", "ParseError", "Staircase", "Strip",
    "StructureViolationError", "Tensor", "ZiptensorError", "anti_transpose",
    "blocks", "blocks_laminar", "border_class", "build_tensor",
    "canonical_tree_word", "catalan", "comp_reverse", "count_trees",
    "count_trees_by_length", "decode", "decomposition_report",
    "disjoint_staircases", "encode", "enumerate_orbits", "format_composition",
    "grid_decomposition", "is_tree_word", "middle_words", "narayana", "orbit",
    "orbit_summary", "p_set", "partitions_nest", "predicted_zeros", "q_set",
    "rank_desc_lex", "rotate", "run_check", "run_checks", "sigma", "staircase",
    "strip_groups", "strips", "tensor_entry", "to_csv", "to_dot", "to_json",
    "to_svg", "to_text", "tree_words", "unzip", "upper_unitriangular",
    "zipper",
]
