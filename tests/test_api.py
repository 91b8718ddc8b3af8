"""The README's library example runs, and the package top level exports
exactly the names it imports."""

import ast
import re
from pathlib import Path

import ldp_osc

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    source = _library_example()
    exec(compile(source, str(README), "exec"), {})
    mean, variance, verdict = capsys.readouterr().out.split()
    assert float(variance) > 0.0
    assert verdict == "ExactlyPreserves"

    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "ldp_osc"
                for alias in node.names}
    assert sorted(ldp_osc.__all__) == sorted(imported)


def test_every_exported_name_resolves():
    # the samplers' names load their module on first access
    assert len(ldp_osc.__all__) == 11
    for name in ldp_osc.__all__:
        assert getattr(ldp_osc, name).__name__ == name
