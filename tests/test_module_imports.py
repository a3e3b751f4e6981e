"""Every import in the package sits at module level, is used, is declared, and every export resolves.

The tests' own third-party imports are declared too, in the ``test`` extra.

An import inside a function body hides a dependency from the module header
and is the usual way a module cycle (such as geometry -> speedlimit ->
geometry) creeps back in.  An import that nothing reads is left behind when
its last caller goes, and so is a definition that nothing reads.  The angle
between two states has one route, ``states.ray_angle``, so no second one is
called anywhere.  The sweep evaluates each constant evolution in closed
form, so it reads no part of the propagation kernel, and it seeds through
one route, a ``default_rng`` per chunk.  Every file is parsed in one place,
``cli._read_json``, which pauses the garbage collector around the parse, so
no other module calls a JSON parser.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qgeo

MODULES = sorted(Path(qgeo.__file__).parent.glob("*.py"))


def function_local_imports(source: str) -> list[tuple[str, int]]:
    """(function name, line) of each import statement inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                (node.name, inner.lineno)
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return found


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``__future__`` aside) that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    # an attribute chain such as np.linalg.norm reads its head as a Name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_module_is_scanned():
    assert {"geometry.py", "speedlimit.py", "propagation.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_local_imports(path.read_text()) == []


def test_detector_finds_a_deferred_import():
    source = "def f():\n    from .speedlimit import min_time\n    return min_time\n"
    assert function_local_imports(source) == [("f", 2)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    # __init__ imports to re-export, so only the other modules are held to this
    assert unused_imports(path.read_text()) == []


def test_detector_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\n"
        "from .errors import FormulaError, GridError\n"
        "def f(x: GridError) -> float:\n    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == ["FormulaError", "os"]


def test_every_export_resolves_once_in_sorted_order():
    # a stale name breaks ``from qgeo import *`` but not ``import qgeo``
    for name in qgeo.__all__:
        getattr(qgeo, name)
    assert qgeo.__all__ == sorted(set(qgeo.__all__))


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports outside the standard library.

    A ``pytest.importorskip("name")`` counts as an import of ``name``: a
    missing module skips its test silently instead of failing it.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
            found.add(node.args[0].value.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"qgeo"}


def declared_dependencies(pyproject: str, extra: str | None = None) -> set[str]:
    """Distribution names in ``[project].dependencies``, and in the optional ``extra`` if named.

    Names are lower-cased, with ``-`` read as ``_``.
    """
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads(pyproject)["project"]
    specs = project["dependencies"] + (project["optional-dependencies"][extra] if extra else [])
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_") for spec in specs}


def source_pyproject() -> Path:
    pyproject = Path(qgeo.__file__).parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("qgeo is installed, not run from its source tree")
    return pyproject


def test_every_third_party_import_is_a_declared_dependency():
    pyproject = source_pyproject()
    imported = set().union(*(third_party_imports(p.read_text()) for p in MODULES))
    assert imported >= {"numpy", "orjson"}
    assert imported <= declared_dependencies(pyproject.read_text())


def test_every_third_party_test_import_is_in_the_test_extra():
    pyproject = source_pyproject()
    tests = sorted(Path(__file__).parent.glob("*.py"))
    imported = set().union(*(third_party_imports(p.read_text()) for p in tests))
    assert imported >= {"pytest", "hypothesis", "scipy", "mpmath"}
    assert imported <= declared_dependencies(pyproject.read_text(), "test")


def test_detector_finds_third_party_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy.linalg as la\n"
        "from orjson import loads\nfrom .errors import GridError\nfrom qgeo import cli\n"
        "def f():\n    return pytest.importorskip('mpmath'), pytest.importorskip('tomllib')\n"
    )
    assert third_party_imports(source) == {"numpy", "orjson", "mpmath"}
    pyproject = (
        '[project]\ndependencies = ["numpy>=1.24", "Py-Yaml ; python_version > \'3\'"]\n'
        '[project.optional-dependencies]\ntest = ["MPMath>=1.3"]\n'
    )
    assert declared_dependencies(pyproject) == {"numpy", "py_yaml"}
    assert declared_dependencies(pyproject, "test") == {"numpy", "py_yaml", "mpmath"}


INVERSE_TRIG = {"acos", "arccos", "asin", "arcsin"}


def inverse_trig_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing top-level name, callee) of each acos/arccos/asin/arcsin call."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in INVERSE_TRIG:
                    found.append((getattr(top, "name", "<module>"), name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_angle_route(path):
    # min_time's overlap is a plain number, not a pair of states
    allowed = [("min_time", "acos")] if path.name == "speedlimit.py" else []
    assert inverse_trig_calls(path.read_text()) == allowed


def test_detector_finds_inverse_trig_calls():
    source = (
        "import math\nimport numpy as np\nfrom math import asin\n"
        "x = np.arccos(0.5)\n"
        "def f(c):\n    return math.acos(c) + asin(c) + math.asinh(c) + math.cos(c)\n"
        "class K:\n    def g(self, c):\n        return np.arcsin(c)\n"
    )
    assert inverse_trig_calls(source) == [
        ("<module>", "arccos"), ("f", "acos"), ("f", "asin"), ("K", "arcsin")
    ]


JSON_PARSERS = {"orjson.loads", "json.loads", "json.load"}


def json_parse_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing top-level name, parser) of each call of orjson.loads, json.loads or json.load.

    A callee is resolved through the module's imports, so ``import json as j``
    and ``from orjson import loads as parse`` do not hide a call.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    callee = f"{imported.get(func.value.id, func.value.id)}.{func.attr}"
                else:
                    callee = imported.get(getattr(func, "id", None))
                if callee in JSON_PARSERS:
                    found.append((getattr(top, "name", "<module>"), callee))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_json_reading_route(path):
    allowed = (
        [("_read_json", "orjson.loads"), ("_read_json", "json.loads")]
        if path.name == "cli.py" else []
    )
    assert json_parse_calls(path.read_text()) == allowed


def test_detector_finds_json_parse_calls():
    source = (
        "import json\nimport json as j\nimport orjson\nfrom orjson import loads as parse\n"
        "from json import load\n"
        "x = json.loads('1')\n"
        "def f(raw, fh):\n    return j.loads(raw), parse(raw), load(fh), orjson.dumps(raw)\n"
        "class K:\n    def g(self, raw):\n        return orjson.loads(raw), json.dumps(raw)\n"
    )
    assert json_parse_calls(source) == [
        ("<module>", "json.loads"), ("f", "json.loads"), ("f", "orjson.loads"),
        ("f", "json.load"), ("K", "orjson.loads"),
    ]


def top_level_statements(source: str) -> list[tuple[set[str], set[str]]]:
    """(public names it defines, names it reads) of each top-level statement.

    A read is a loaded name, an attribute name or a name imported by ``from``;
    an attribute is matched by name alone, whatever object it is read from.
    """
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            defined = {top.name}
        else:  # an assignment, plain or annotated
            targets = getattr(top, "targets", []) + [getattr(top, "target", None)]
            defined = {t.id for t in targets if isinstance(t, ast.Name)}
        read = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
        found.append(({n for n in defined if not n.startswith("_")}, read))
    return found


def unread_definitions(package: dict, readers: dict, allowed=()) -> list[tuple[str, str]]:
    """(module, name) of each public top-level definition of ``package`` no live statement reads.

    Both maps take a module name to its source; ``readers`` only read.  A
    statement is dead once every name it defines is, so a name that only dead
    code reads is dead too.  The ``allowed`` names stay live.
    """
    statements = [(m, *s) for m, src in package.items() for s in top_level_statements(src)]
    statements += [
        (m, set(), r) for m, src in readers.items() for _, r in top_level_statements(src)
    ]
    dead: set[tuple[str, str]] = set()
    while True:
        dead_names = {name for _, name in dead}
        live_reads = [r if not d or d - dead_names else set() for _, d, r in statements]
        found = {
            (m, name)
            for i, (m, defined, _) in enumerate(statements)
            for name in defined - set(allowed)
            if not any(name in read for j, read in enumerate(live_reads) if j != i)
        }
        if found == dead:
            return sorted(dead)
        dead = found


# Read by no module yet, and kept: the paper's decomposition (acceptance check 6), the
# closed-form two-level oracles the tests hold the integrators against, and the
# Hamiltonian of a stored trace, which ``qgeo verify`` is to recompute its statistics from.
UNREAD_ALLOWED = {
    "vaidman_decompose",
    "propagator_static",
    "propagator_driven",
    "dispersion_driven_near_resonance",
    "trace_hamiltonian_from_json",
}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_public_definition_is_read(path):
    # liveness is decided over the whole package, then reported module by module
    bench = Path(qgeo.__file__).parents[2] / "bench"
    if not bench.is_dir():
        pytest.skip("qgeo is installed, not run from its source tree")
    package = {p.name: p.read_text() for p in MODULES if p.name != "__init__.py"}
    readers = {f"bench/{p.name}": p.read_text() for p in sorted(bench.glob("*.py"))}
    dead = unread_definitions(package, readers, UNREAD_ALLOWED)
    assert [name for module, name in dead if module == path.name] == []


def test_detector_finds_unread_definitions():
    package = {
        "a": (
            "LIVE = 1\nDEAD: int = 2\n"
            "def dead():\n    return DEAD\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def _private():\n    return 0\n"
            "class Kept:\n    pass\n"
            "def entry():\n    return LIVE\n"
        ),
        "b": "from .a import Kept\n",
    }
    readers = {"bench": "import a\nprint(a.entry())\n"}
    assert unread_definitions(package, readers) == [
        ("a", "DEAD"), ("a", "dead"), ("a", "recursive")
    ]
    assert unread_definitions(package, readers, {"dead"}) == [("a", "recursive")]


# The propagation path: the sweep evaluates each constant evolution in closed form, so a
# read of any of these (or of a name holding "expm") is a second, propagated path.
PROPAGATION_PARTS = {"constant_nodes", "evolve", "fill_by_doubling", "_require_unit_rows"}


def names_read(source: str) -> set[str]:
    """Every name that a top-level statement of ``source`` reads or imports."""
    return set().union(*(read for _, read in top_level_statements(source)))


def propagation_parts(read: set[str]) -> list[str]:
    return sorted(name for name in read if name in PROPAGATION_PARTS or "expm" in name)


def test_sweep_propagates_no_state():
    read = names_read((Path(qgeo.__file__).parent / "speedlimit.py").read_text())
    assert "_survival" in read
    assert propagation_parts(read) == []


def test_detector_finds_propagation_parts():
    source = (
        "from .propagation import _require_unit_rows, constant_nodes, evolve\n"
        "from . import propagation\nfrom scipy.linalg import expm\n"
        "def f(h, psi):\n"
        "    return fill_by_doubling(propagation.expm_unitary_step(h, 1.0, 1.0), psi, 3)\n"
    )
    assert propagation_parts(names_read(source)) == [
        "_require_unit_rows", "constant_nodes", "evolve", "expm", "expm_unitary_step",
        "fill_by_doubling",
    ]
    assert propagation_parts(names_read("from .propagation import short_time_coefficient\n")) == []


# numpy.random's seeding and generator constructors: the sweep builds one generator per
# chunk in ``_draw_chunk``, from the chunk's spawned child of the seed, and no other.
SEEDING_PARTS = {"SeedSequence", "default_rng", "spawn", "Generator", "PCG64", "RandomState"}


def seeding_calls(source: str) -> list[tuple[str, str, str]]:
    """(enclosing top-level name, callee, arguments) of each call of a SEEDING_PARTS name."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in SEEDING_PARTS:
                    args = ", ".join(map(ast.unparse, node.args + node.keywords))
                    found.append((getattr(top, "name", "<module>"), name, args))
    return found


def test_sweep_seeds_only_through_one_default_rng_per_chunk():
    source = (Path(qgeo.__file__).parent / "speedlimit.py").read_text()
    assert seeding_calls(source) == [
        ("_draw_chunk", "default_rng", "np.random.SeedSequence(seed, spawn_key=(chunk,))"),
        ("_draw_chunk", "SeedSequence", "seed, spawn_key=(chunk,)"),
    ]
    assert names_read(source) & SEEDING_PARTS == {"default_rng", "SeedSequence"}


def test_import_loads_no_numpy_random():
    # the sweep reaches numpy.random on first use, so commands that draw
    # nothing do not pay for loading it
    code = (
        "import sys, numpy; before = set(sys.modules); import qgeo.cli\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout == "[]\n", out.stderr


def test_detector_finds_seeding_parts():
    source = (
        "import numpy as np\nfrom numpy.random import default_rng\n"
        "def f(seed, n):\n"
        "    children = np.random.SeedSequence(seed).spawn(n)\n"
        "    return [np.random.Generator(np.random.PCG64(c)) for c in children]\n"
        "rng = default_rng(seed=5)\n"
    )
    assert sorted(seeding_calls(source)) == [
        ("<module>", "default_rng", "seed=5"), ("f", "Generator", "np.random.PCG64(c)"),
        ("f", "PCG64", "c"), ("f", "SeedSequence", "seed"), ("f", "spawn", "n"),
    ]
    assert names_read(source) & SEEDING_PARTS == {
        "SeedSequence", "default_rng", "spawn", "Generator", "PCG64"
    }
    assert seeding_calls("rng = np.random.default_rng([seed, k])\nx = rng.normal(size=3)\n") == [
        ("<module>", "default_rng", "[seed, k]")
    ]
