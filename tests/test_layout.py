"""Source layout guards."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liesphere"


def test_every_src_definition_is_used_in_src():
    # a top-level def or class that no code in src/ names is reached only by
    # tests: it belongs in the product's call graph or in tests/reference.py
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}:{node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert unused == []
