"""Guard on the package surface: src/ holds only what the program runs."""

import ast
from pathlib import Path

import audiotrim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "audiotrim"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_definition_is_exported_or_used_by_the_program():
    # names read as code, so a mention in a docstring or comment is no use
    used = set()
    for path in (p for d in ("src", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in audiotrim.__all__
                    and node.name not in used):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public definitions nothing in the program uses: {unused}"
