from __future__ import annotations

import re
from pathlib import Path

import qsagms

README = Path(__file__).resolve().parent.parent / "README.md"


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
