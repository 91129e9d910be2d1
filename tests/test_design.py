"""Design rules of the library, checked over its source.

No knobs: the number of defaulted parameters (positional and keyword
defaults of every ``def`` and ``lambda`` under ``src/horomix``) may not
grow past MAX_DEFAULTED.  No threads: no module imports a thread or
process pool.  No einsum: quadratic forms go through
``_stencils.quadratic_form``, whose summation order is fixed.  Failed
property tests report: the warning filters turn warnings into errors but
still let a failed hypothesis test print its falsifying example.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "horomix"
MAX_DEFAULTED = 28
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


def _names_einsum(node: ast.AST) -> bool:
    return (
        (isinstance(node, ast.Attribute) and node.attr == "einsum")
        or (isinstance(node, ast.Name) and node.id == "einsum")
        or (isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "einsum")
    )


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_calls_einsum(module):
    lines = [node.lineno for node in ast.walk(MODULES[module]) if _names_einsum(node)]
    assert not lines, f"{module} names einsum on lines {lines}"


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
