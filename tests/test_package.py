"""The package's public surface."""

import ast
import importlib
from pathlib import Path

import hopfcalc

PUBLIC = {
    "BoundKind",
    "Budget",
    "CosetTable",
    "DEFAULT_BUDGET",
    "DEFAULT_CAP",
    "HopfResult",
    "ORDER_CAP",
    "OracleUnavailable",
    "Overflow",
    "ParseError",
    "Presentation",
    "RemovalCertificate",
    "RewriteSystem",
    "SubstitutionMap",
    "apply_substitution",
    "as_fp",
    "bar_h1",
    "bar_h2",
    "build_p_cover",
    "check",
    "corpus",
    "corpus_names",
    "corpus_substitution",
    "dump_rules",
    "enumerate_elements",
    "group_order",
    "h1_dimension",
    "image_matrix",
    "initial_rules",
    "knuth_bendix",
    "left_kernel_basis",
    "lower_bound",
    "multiplication_table",
    "normal_form",
    "orient_relator",
    "parse_presentation",
    "parse_substitution",
    "parse_word",
    "rank",
    "reduce_with_allowance",
    "render_presentation",
    "render_word",
    "replay_certificates",
    "rref",
    "run_pipeline",
    "simplify",
    "to_json",
}


def test_public_names_resolve_and_match_the_list():
    assert len(hopfcalc.__all__) == len(set(hopfcalc.__all__))
    assert set(hopfcalc.__all__) == PUBLIC
    for name in hopfcalc.__all__:
        assert hasattr(hopfcalc, name), name


def test_no_module_imports_a_private_name():
    # each module reaches another only through its public names
    found = []
    for path in sorted(Path(hopfcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hopfcalc")
            ):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_traced_names_are_the_functions_their_spans_name():
    # the benchmark's tracer replaces each (module, attribute) in WRAPPED
    # by name, so a renamed or re-imported function would drop its spans
    # without an error
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    ]
    assert wrapped
    for module_name, attr, span in wrapped:
        layer, name = span.split(".")
        owner = importlib.import_module(f"hopfcalc.{layer}")
        site = importlib.import_module(module_name)
        assert getattr(site, attr) is getattr(owner, name), (module_name, attr, span)


def test_every_module_level_definition_is_used_or_public():
    # a function or class that only tests call is dead weight in src/;
    # a definition's mentions of itself (recursion) do not count
    mentions = []  # (module, top-level statement, names it mentions)
    for path in sorted(Path(hopfcalc.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            mentions.append((path.name, stmt, names))
    unused = [
        f"{module}:{stmt.lineno} {stmt.name}"
        for module, stmt, _ in mentions
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in hopfcalc.__all__
        and not any(stmt.name in names for _, other, names in mentions if other is not stmt)
    ]
    assert unused == []
