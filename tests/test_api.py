"""The README's library example runs, and the package top level exports
exactly the names it imports."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import ldp_osc

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS = README.parent / "bench" / "layers.py"

# names the benchmark still wraps although their code is gone, so their
# per-layer metrics read 0; ROADMAP item 1 retargets them
STALE_TARGETS = {("rng", "normals"), ("rng", "uniforms"), ("rng", "mix64"),
                 ("rng", "stream_keys"),
                 ("oscillator", "sample_exact_path"), ("sim", "msq_order"),
                 ("spectral", "weight_vector"), ("spectral", "alpha_hat"),
                 ("ldp", "_exact_at_probes")}


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


def _resolves(module, attribute):
    try:
        return hasattr(importlib.import_module(f"ldp_osc.{module}"), attribute)
    except ImportError:
        return False


def test_every_traced_name_resolves():
    # a moved function would silently zero the benchmark's metrics for it
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = {(module, attribute) for module, attribute, *_ in layers.TARGETS}
    assert ("methods", "evaluate_symbolic") in targets
    assert {t for t in targets if not _resolves(*t)} <= STALE_TARGETS
