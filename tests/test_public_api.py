"""The names the package exports from its top level."""
import ast
import importlib.util
from collections import Counter
from pathlib import Path

import tverberg

INIT = Path(tverberg.__file__)
BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# A name joins or leaves this set only together with the test or CLI command
# that needs it.
PUBLIC = {
    # exact
    "DimensionError", "Matrix", "SingularMatrixError", "det", "det_sign", "rank",
    "scalar", "scalar_str", "solve_linear",
    # fillings
    "DominanceReport", "Filling", "InvalidFillingError", "crossing_pairs",
    "dominance_report", "enumerate_valid_fillings", "filling_to_json",
    "find_dominant_filling", "monomial_value", "sign_flip_witness", "switch_ratio",
    # partitions
    "CertificateMismatchError", "DegeneratePointsError", "Partition", "TverbergSystem",
    "TverbergVerdict", "affine_intersection_dim", "blocks", "build_system",
    "decide_tverberg", "enumerate_proper_partitions", "enumerate_rainbow",
    "enumerate_tverberg", "is_rainbow", "is_strong_general_position",
    "partition_from_json", "partition_to_json", "tverberg_number",
    # sequences
    "DominanceProfile", "NotDominantError", "PinnedCombinationReport", "PointSequence",
    "Relation", "SuperDominantSequence", "chain_exponents", "default_threshold",
    "dominance_profile", "gen_moment_curve", "gen_power_sequence", "gen_super_dominant",
    "growth_product", "growth_ratio", "is_dominant", "is_ordered", "lift",
    "ordered_lift", "product_config_admissible",
    "sequence_from_json", "sequence_to_json", "solve_prescribed_zeros",
    "uniform_exponents", "verify_pinned_combination",
}


def test_public_surface_is_pinned():
    bound = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {name for name in bound if not name.startswith("_")} == PUBLIC


def test_modules_use_every_name_they_import():
    unused = []
    for path in sorted(INIT.parent.glob("*.py")):
        if path == INIT:
            continue  # __init__ imports in order to export
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{path.name}: {name}" for name in sorted(imported - used))
    assert unused == []


def test_bench_spans_name_live_functions():
    # The traced bench wraps these by name; a retired function would leave
    # its span silently empty.
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, *_ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"tverberg.{module}"), name, None))
    ]
    assert missing == []


def test_private_definitions_are_referenced():
    # A private module-level function or class that nothing else in the
    # package names is dead code left behind by a deletion.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(INIT.parent.glob("*.py"))}

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    used = Counter(name for tree in trees.values() for name in names(tree))
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and used[node.name] == Counter(names(node))[node.name]
    ]
    assert unused == []


def test_no_floats_in_the_package():
    # Arithmetic stays exact: no float literal, no float or round, and from
    # math only the integer functions.
    integer_math = {"lcm", "prod", "factorial", "gcd", "isqrt", "comb"}
    found = []
    for path in sorted(INIT.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id in {"float", "round"}:
                found.append(f"{path.name}:{node.lineno}: {node.id}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.extend(
                    f"{path.name}:{node.lineno}: math.{alias.name}"
                    for alias in node.names
                    if alias.name not in integer_math
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
                if node.attr not in integer_math:
                    found.append(f"{path.name}:{node.lineno}: math.{node.attr}")
    assert found == []
