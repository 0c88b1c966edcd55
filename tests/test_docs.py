from __future__ import annotations

import ast
import re
from pathlib import Path

import qsagms

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(qsagms.__file__).resolve().parent


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    success, iterations, _ = capsys.readouterr().out.split(" ", 2)
    assert success in ("True", "False") and int(iterations) >= 1


def test_every_exported_name_resolves():
    missing = [name for name in qsagms.__all__ if not hasattr(qsagms, name)]
    assert not missing
    assert len(set(qsagms.__all__)) == len(qsagms.__all__)


def test_readme_quotes_the_numerics_tag():
    assert qsagms.harness.NUMERICS in README.read_text(encoding="utf-8")


def test_every_public_definition_has_a_use():
    # a public top-level function or class is exported or used in the package,
    # a private one is used in the package; a helper only the tests call
    # belongs in tests/oracles.py
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    used = set(qsagms.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}.{node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert unused == []
