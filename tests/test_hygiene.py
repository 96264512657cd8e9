"""Source hygiene: no module of the package imports a name it never uses,
assigns a local it never reads, calls a numpy FFT transform or reads the
workspace's rfft-layout tables (``xi``, ``mode_weights``) outside
``spectral``; every source file parses as the oldest Python the package
admits; and every name the benchmark tracer wraps still exists."""

import ast
import importlib.util
from pathlib import Path

import pytest

import maxmat

SRC = Path(maxmat.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_unused_import():
    src = "import os\nfrom math import pi, tau\nfrom a.b import c as d\nprint(os.sep, tau)\n"
    assert unused_imports(src) == ["pi (line 2)", "d (line 3)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _own_stores(fn):
    """Name nodes a function body stores to, outside its nested functions."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """Locals a function assigns that nothing in it, nested functions
    included, reads; names starting with an underscore are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = set()
        declared = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        dead = {
            node.id: node.lineno for node in _own_stores(fn)
            if node.id not in loaded | declared and not node.id.startswith("_")
        }
        out += [f"{fn.name}: {name} (line {line})" for name, line in sorted(dead.items())]
    return out


def test_scan_finds_unused_local():
    src = (
        "def f(a):\n"
        "    b = 1\n"
        "    c, _d = a\n"
        "    for i in a:\n"
        "        pass\n"
        "    def g():\n"
        "        nonlocal c\n"
        "        c += 1\n"
        "        return [x for x in a]\n"
        "    return g, c\n"
    )
    assert unused_locals(src) == ["f: b (line 2)", "f: i (line 4)"]
    assert unused_locals("def h(a):\n    y = a\n    return lambda: y\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


# The package transforms through scipy.fft only; numpy's frequency tables are fine.
NP_FFT_ALLOWED = {"fftfreq", "rfftfreq"}


def numpy_fft_calls(source: str) -> list[str]:
    """Calls of a ``np.fft`` / ``numpy.fft`` transform, by name and line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        owner = node.func.value
        if (
            isinstance(owner, ast.Attribute)
            and owner.attr == "fft"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in ("np", "numpy")
            and node.func.attr not in NP_FFT_ALLOWED
        ):
            out.append(f"{owner.value.id}.fft.{node.func.attr} (line {node.lineno})")
    return out


def test_scan_finds_numpy_fft_call():
    src = (
        "import numpy as np\n"
        "import scipy.fft\n"
        "a = np.fft.rfftn(x, axes=(0, 1, 2))\n"
        "k = np.fft.fftfreq(8) + np.fft.rfftfreq(8)\n"
        "b = scipy.fft.irfftn(a)\n"
        "c = numpy.fft.ifft(b)\n"
    )
    assert numpy_fft_calls(src) == ["np.fft.rfftn (line 3)", "numpy.fft.ifft (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_fft_transforms(path):
    assert numpy_fft_calls(path.read_text()) == []


# Workspace attributes that carry the rfft layout; only spectral.py reads them.
LAYOUT_TABLES = {"xi", "mode_weights"}


def layout_table_reads(source: str) -> list[str]:
    """Attribute reads of a workspace layout table, by name and line."""
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_TABLES
    ]
    return [f"{attr} (line {line})" for line, attr in sorted(reads)]


def test_scan_finds_layout_table_read():
    src = (
        "a = ws.xi[0] * b\n"
        "c = ws.xi_sq + ws.inv_xi_sq\n"
        "d = self.ws.mode_weights * e\n"
        "xi = ws.div_hat(e)\n"
    )
    assert layout_table_reads(src) == ["xi (line 1)", "mode_weights (line 3)"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "spectral.py"], ids=lambda p: p.name
)
def test_layout_tables_stay_in_spectral(path):
    assert layout_table_reads(path.read_text()) == []


# pyproject.toml admits Python >= 3.10.
OLDEST_PYTHON = (3, 10)
SOURCES = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def test_sources_parse_as_oldest_python():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)


def test_benchmark_tracer_finds_every_traced_name():
    """The benchmark's tracer patches every name it lists, and puts them back."""
    spans_path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    from maxmat import evolution

    run = evolution.run
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert evolution.run is not run
    finally:
        tracer.uninstall()
    assert evolution.run is run
