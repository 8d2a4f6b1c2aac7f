"""The names the package exports from its top level."""
import ast
from pathlib import Path

import tverberg

INIT = Path(tverberg.__file__)

# A name joins or leaves this set only together with the test or CLI command
# that needs it.
PUBLIC = {
    # exact
    "DimensionError", "Matrix", "Scalar", "SingularMatrixError", "det", "det_sign",
    "rank", "scalar", "scalar_str", "solve_linear",
    # fillings
    "DominanceReport", "Filling", "InvalidFillingError", "Monomial",
    "canonical_filling", "check_split_conditions", "crossing_pairs",
    "dominance_report", "dominant_split", "enumerate_valid_fillings",
    "filling_from_json", "filling_to_json", "find_dominant_filling",
    "find_dominating_switch", "monomial_value", "rainbow_filling",
    "sign_flip_witness", "switch_ratio", "z_switch",
    # partitions
    "CertificateMismatchError", "DegeneratePointsError", "Partition", "TverbergSystem",
    "TverbergVerdict", "affine_intersection_dim", "blocks", "build_system",
    "decide_tverberg", "enumerate_proper_partitions", "enumerate_rainbow",
    "enumerate_tverberg", "is_rainbow", "is_strong_general_position",
    "partition_from_json", "partition_to_json", "tverberg_number",
    # sequences
    "DominanceProfile", "NotDominantError", "PinnedCombinationReport", "PointSequence",
    "Relation", "SuperDominantSequence", "chain_exponents", "classify_pair",
    "combination_row", "default_threshold", "dominance_profile", "gen_moment_curve",
    "gen_power_sequence", "gen_super_dominant", "growth_product", "growth_ratio",
    "is_dominant", "is_ordered", "is_pseudo_geometric", "lift",
    "monochromatic_subsequence", "order_permutation", "ordered_lift",
    "product_config_admissible", "sequence_from_json", "sequence_to_json",
    "solve_prescribed_zeros", "uniform_exponents", "verify_pinned_combination",
}


def test_public_surface_is_pinned():
    bound = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {name for name in bound if not name.startswith("_")} == PUBLIC
