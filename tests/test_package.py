"""Package surface: lazy exports, per-command imports, record types, demos."""
import ast
import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import quartaut
from quartaut.exclusion import CURVE_PAIRS, CurveList, ExclusionReport
from quartaut.lattice import IDENTITY, GramLattice
from quartaut.links import LinkRecord, LinkStep, LinkWord
from quartaut.surface import AutKind, QuarticLattice
from quartaut.verify import Check

SRC = Path(quartaut.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; a demo whose output changes on purpose has
# its digest replaced here and named in CHANGES.md
DEMO_DIGESTS = {
    "exclusion_sweep.py": "3e82aecfd673f57101e2577b1b372c96cb7cad8147b1fd238e0937459c739e9a",
    "generator_walkthrough.py": "af94c1781f83a260bcf73f5e1920b39b6146b0d05381561f60663098d7c76439",
    "partition_tour.py": "c5ffaa787eff4f92f0467da47d6967053d349198beb6a43b7cd6053e1ca36ad5",
    "pell_dictionary.py": "b9125ab153d0f2cf05b271d0b8434fad702b7deeebaf82b8b0f67b8c2982f97f",
}

_LOADED = """
import sys
from quartaut.cli import main
code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "quartaut"), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, modules", [
    (["pell", "--r", "17", "--n", "8"], {"quartaut.pell"}),
    (["link"], {"quartaut.links", "quartaut.lattice"}),
    (["exclusion"], {"quartaut.exclusion"}),
    (["curve-class", "--r", "41", "--genus", "6", "--degree", "9"],
     {"quartaut.surface", "quartaut.isometry", "quartaut.pell", "quartaut.lattice",
      "quartaut.exclusion"}),
])
def test_cli_imports_only_the_layers_a_command_uses(argv, modules):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv, "--json", "--no-timestamp"],
                          env=env, capture_output=True, text=True, timeout=60)
    code, loaded = proc.stderr.strip().splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stderr
    assert ast.literal_eval(loaded) == sorted({"quartaut", "quartaut.cli"} | modules)


_CYCLE = """
import importlib
import sys
importlib.import_module(sys.argv[1])
from quartaut.surface import classify_aut, curve_model
kind = classify_aut(curve_model(20)[0])
print(kind.tag, kind.generators)
"""


@pytest.mark.parametrize("first", ["quartaut.isometry", "quartaut.surface"])
def test_surface_and_isometry_import_in_either_order(first):
    # surface imports isometry at its end and isometry imports surface at
    # its top; in a fresh interpreter either may load first
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _CYCLE, first],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Z (((29, 40), (-8, -11)),)\n"


_STDLIB_ONLY = """
import sys
sys.path.insert(0, sys.argv[1])
import quartaut
from quartaut.cli import main
code = main(["verify-paper", "--json", "--no-timestamp"])
for name in quartaut.__all__:
    getattr(quartaut, name)
print(sorted({m.split(".")[0] for m in sys.modules} - {"__main__"}), file=sys.stderr)
sys.exit(code)
"""


def test_package_runs_on_the_standard_library_alone():
    # -I -S: no site-packages and no environment, as with `dependencies = []`;
    # -B, since -I ignores PYTHONDONTWRITEBYTECODE and would write src/ bytecode
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _STDLIB_ONLY, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["results"]
    assert (report["checks"], report["failures"]) == (142, 0)
    loaded = ast.literal_eval(proc.stderr.strip().splitlines()[-1])
    assert "quartaut" in loaded
    assert set(loaded) - {"quartaut"} <= sys.stdlib_module_names


def test_every_export_resolves_to_its_layer():
    for name in quartaut.__all__:
        module, attr = quartaut._EXPORTS[name]
        assert getattr(quartaut, name) is getattr(sys.modules["quartaut." + module], attr)
    assert set(quartaut.__all__) <= set(dir(quartaut))
    namespace = {}
    exec("from quartaut import *", namespace)
    assert set(quartaut.__all__) <= set(namespace)


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quartaut.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from quartaut import no_such_name", {})


def _unused_imports(path: Path) -> list[str]:
    """Names bound by the module-level imports of path (top level, or in a
    top-level if or try) that the module never references."""
    tree = ast.parse(path.read_text())
    imported, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # dead code that every import without cached bytecode compiles again
    unused = {path.name: names for path in sorted((SRC / "quartaut").glob("*.py"))
              if (names := _unused_imports(path))}
    assert unused == {}


_MODULES = {path.stem for path in (SRC / "quartaut").glob("*.py")}


def _loaded(tree: ast.AST) -> Counter:
    """How often tree loads each name: as a bare name, an attribute or a
    from-import, or as the attribute of a "module.name" string naming a
    quartaut module (perfbench's tracer wraps functions by such strings)."""
    loads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            loads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            loads.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, _, name = node.value.partition(".")
            if module in _MODULES:
                loads[name] += 1
    return loads


def _definitions(tree: ast.Module):
    """(name, node) for each module-level def, class and assignment target,
    and for each method of a module-level class; dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                found += [(m.name, m) for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, n) for name, n in found if not name.startswith("__"))


def test_every_module_name_has_a_user():
    """Dead code that every import without cached bytecode compiles again.
    A private name needs a use in src/; a public one a use in src/, a place
    in quartaut.__all__, or a use in demos/ or perfbench/. A use inside the
    name's own body does not count, and each public def, class or method is
    defined once, so that a use of one cannot keep a namesake alive."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((SRC / "quartaut").glob("*.py"))}
    in_src = sum((_loaded(tree) for tree in trees.values()), Counter())
    outside = sum((_loaded(ast.parse(path.read_text()))
                   for path in [*DEMOS, *sorted((SRC.parent / "perfbench").glob("*.py"))]),
                  Counter())
    exported = set(quartaut._EXPORTS.values())
    unused, defined = [], Counter()
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            public = not name.startswith("_")
            if public and not isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined[name] += 1
            if in_src[name] > _loaded(node)[name]:
                continue
            if public and ((module, name) in exported or outside[name]):
                continue
            unused.append((module, name))
    assert (unused, [name for name, count in defined.items() if count > 1]) == ([], [])


_REC = LinkRecord((14, 11), "P3", (14, 11), 19, 5, 19)


@pytest.mark.parametrize("record, text", [
    (QuarticLattice(1, -2), "QuarticLattice(b=1, c=-2)"),
    (GramLattice(4, 1, -4), "GramLattice(q11=4, q12=1, q22=-4)"),
    (AutKind("Trivial"), "AutKind(tag='Trivial', generators=(), obstruction=None, axes=())"),
    (_REC, "LinkRecord(gd=(14, 11), target='P3', gd_plus=(14, 11), a=19, b=5, c=19, "
           "source='P3')"),
    (LinkWord((LinkStep(_REC, ((1, 0), (0, 1))),)),
     f"LinkWord(steps=(LinkStep(record={_REC!r}, change=((1, 0), (0, 1))),))"),
    (ExclusionReport((9,), frozenset({9}), frozenset(), 57),
     "ExclusionReport(rprimes=(9,), admissible=frozenset({9}), "
     "excluded_leq57=frozenset(), bound=57)"),
    (Check("r=17", True), "Check(name='r=17', ok=True, detail='')"),
])
def test_records_keep_their_repr_and_stay_immutable(record, text):
    assert repr(record) == text
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    # records are tuples of their fields: equal to one, and they unpack
    assert record == tuple(getattr(record, f) for f in record._fields)
    first, *_ = record
    assert first == getattr(record, field)


@pytest.mark.parametrize("build, message", [
    (lambda: QuarticLattice(0, 1), "discriminant must be positive"),
    (lambda: QuarticLattice(4, 2), "discriminant must be positive \\(hyperbolic signature\\)"),
    (lambda: QuarticLattice(b=3, c=1), "discriminant 1 carries a class"),
    (lambda: GramLattice(3, 0, 2), "not an even lattice"),
    (lambda: GramLattice(2, 2, 2), "degenerate Gram matrix"),
    (lambda: AutKind("Z"), "tag Z needs 1 generators, got 0"),
    (lambda: AutKind("Z3"), "unknown tag 'Z3'"),
    (lambda: AutKind("Z2starZ2", (IDENTITY,)), "tag Z2starZ2 needs 2 generators, got 1"),
    (lambda: LinkRecord((1, 1), "P4", (1, 1), 1, 1, 1), "link endpoints"),
    (lambda: LinkRecord((1, 1), "P3", (1, 1), 2, 3, 3), "b must divide a\\*c - 1"),
    (lambda: CurveList(((0, 1),), frozenset()), "expected the 34"),
    (lambda: CurveList(((3, 5), *CURVE_PAIRS[1:]), frozenset()),
     "pair \\(3, 5\\) is outside the classification"),
    (lambda: CurveList(CURVE_PAIRS, frozenset({(15, 11)})), "model pairs must be classified"),
])
def test_records_validate_on_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    assert buf.getvalue().strip()
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DEMO_DIGESTS[path.name]
