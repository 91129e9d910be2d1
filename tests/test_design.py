"""Design rules of the library, checked over its source.

No knobs: the number of defaulted parameters (positional and keyword
defaults of every ``def`` and ``lambda`` under ``src/horomix``) may not
grow past MAX_DEFAULTED.  No threads: no module imports a thread or
process pool.  No einsum: quadratic forms go through
``_stencils.quadratic_form``, whose summation order is fixed.  One
owner of the exact sum's chunk size: no module but ``_stencils`` names
``_SUM_CHUNK``, so callers hand it arrays of any size.  No numerical
work at import: the cached Gauss and face rules fill on first use.  Failed
property tests report: the warning filters turn warnings into errors but
still let a failed hypothesis test print its falsifying example.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "horomix"
MAX_DEFAULTED = 14
THREADED = ("threading", "concurrent.futures", "multiprocessing")

MODULES = {
    str(path.relative_to(SRC)): ast.parse(path.read_text(), filename=str(path))
    for path in sorted(SRC.rglob("*.py"))
}


def _defaulted(tree: ast.AST) -> int:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, functions)
    )


def _imported(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return names


def test_defaulted_parameter_count():
    assert MODULES, "no module found under src/horomix"
    count = sum(_defaulted(tree) for tree in MODULES.values())
    assert count <= MAX_DEFAULTED, f"{count} defaulted parameters, at most {MAX_DEFAULTED}"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_threads(module):
    threaded = [
        name for name in _imported(MODULES[module])
        if any(name == t or name.startswith(t + ".") for t in THREADED)
    ]
    assert not threaded, f"{module} imports {threaded}"


def _lines_naming(tree: ast.AST, name: str) -> list[int]:
    """Lines where ``name`` appears as an attribute, a bare name or an import."""
    return [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == name)
    ]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_calls_einsum(module):
    lines = _lines_naming(MODULES[module], "einsum")
    assert not lines, f"{module} names einsum on lines {lines}"


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"_stencils.py"}))
def test_only_stencils_names_the_sum_chunk(module):
    lines = _lines_naming(MODULES[module], "_SUM_CHUNK")
    assert not lines, f"{module} names _SUM_CHUNK on lines {lines}"


def test_import_builds_no_rule():
    # a rule built at import would cost every process that never uses it
    code = (
        "import horomix\n"
        "from horomix import _stencils\n"
        "print(_stencils.legendre_rule.cache_info().currsize,"
        " _stencils._unit_faces.cache_info().currsize)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "0"]


def test_failed_property_test_reports_normally(tmp_path):
    test_file = tmp_path / "test_pair.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
