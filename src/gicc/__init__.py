"""Scalar linear XOR index codes from interlinked-cycle structures.

The package validates K-GIC structures on side-information digraphs,
encodes and decodes the resulting N-K+1 symbol codes, covers arbitrary
digraphs with disjoint structures, and certifies optimality against
exact MAIS and GF(2) minrank oracles.
"""

from .bounds import (
    BoundsReport,
    SizeGateError,
    certify_optimality,
    conjecture_sweep,
    mais,
    minrank_gf2,
    sandwich_check,
)
from .codec import (
    CodedSymbol,
    IndexCode,
    MessageVector,
    code_length,
    decode_inner,
    decode_noninner,
    encode,
    parse_messages,
    round_trip,
    serialize_messages,
    side_information,
    symbolic_decode_check,
    xor_cost_bound,
)
from .cover import (
    CoverPart,
    CoverPlan,
    IccDescription,
    clique_cover_length,
    cycle_cover_length,
    gicc_cover,
    icc_to_gic,
    plan_round_trip,
)
from .digraph import (
    Digraph,
    FormatError,
    VertexSet,
    induced_subgraph,
    out_neighbors,
    parse_digraph,
    serialize_digraph,
)
from .generators import (
    DEMO_4GIC_REFERENCE_LENGTHS,
    gen_clique,
    gen_cycle,
    gen_demo_4gic,
    gen_icc,
    gen_random,
    gen_relay_family,
)
from .structure import (
    GicStructure,
    InvalidStructureError,
    RootedTree,
    ViolationReport,
    build_tree,
    check_tree_consistency,
    require_valid,
    validate_gic,
    walk_p_paths,
)

__version__ = "0.1.0"
