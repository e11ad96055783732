"""The top-level package: its exports and the README's library quick start."""

import re
from pathlib import Path

import mzgauss

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert len(set(mzgauss.__all__)) == len(mzgauss.__all__)
    assert [name for name in mzgauss.__all__ if not hasattr(mzgauss, name)] == []


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, "README quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["QCRB", "difference-intensity optimum"]
