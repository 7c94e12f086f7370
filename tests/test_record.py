"""Frozen record classes, and checks over the package source as a whole."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rspacelab import algebra, atlas, capacity, finsler, orbit, roots

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rspacelab"

RECORDS = [cls for mod in (algebra, atlas, capacity, finsler, orbit, roots)
           for _, cls in inspect.getmembers(mod, inspect.isclass)
           if cls.__module__ == mod.__name__ and dataclasses.is_dataclass(cls)]

VALUE_RECORDS = {"RSpaceDescriptor"}

# arguments that pass each __post_init__; every other record takes anything
_VALID_ARGS = {
    "RSpaceDescriptor": ("sphere", (2,), "trivial", 2, False, "8a"),
}


def _args(cls):
    return _VALID_ARGS.get(cls.__name__) or tuple(
        object() for _ in cls.__annotations__)


def test_every_record_class_is_found():
    assert len(RECORDS) == 6
    assert all(c.__dataclass_params__.frozen for c in RECORDS)
    assert {c.__name__ for c in RECORDS if c.__eq__ is not object.__eq__} \
        == VALUE_RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    x = cls(*_args(cls))
    name = next(iter(cls.__annotations__))
    with pytest.raises(AttributeError):
        setattr(x, name, 1)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_and_positional_construction_agree(cls):
    args = _args(cls)
    names = list(cls.__annotations__)
    x = cls(*args)
    y = cls(**dict(zip(names, args)))
    for name in names:
        assert getattr(y, name) is getattr(x, name) or \
            np.array_equal(getattr(y, name), getattr(x, name))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    args = _args(cls)
    name = next(iter(cls.__annotations__))
    with pytest.raises(TypeError, match="unexpected"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*args, **{name: args[0]})
    with pytest.raises(TypeError):
        cls(*[object()] * (len(cls.__annotations__) + 1))
    with pytest.raises(TypeError, match="missing"):
        cls()


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if c.__name__ not in VALUE_RECORDS],
                         ids=lambda c: c.__name__)
def test_identity_records_compare_by_identity(cls):
    args = _args(cls)
    x, twin = cls(*args), cls(*args)
    assert x == x and x != twin
    assert len({x, twin, x}) == 2


def test_descriptor_has_value_equality_and_hash():
    a = atlas.descriptor("sphere", 3)
    b = atlas.RSpaceDescriptor(*_VALID_ARGS["RSpaceDescriptor"])
    assert a == atlas.descriptor("sphere", 3) and a is not atlas.descriptor(
        "sphere", 3)
    assert hash(a) == hash(atlas.descriptor("sphere", 3))
    assert a != b and len({a, b, atlas.descriptor("sphere", 3)}) == 2
    assert atlas.RSpaceDescriptor.instantiable is True
    assert b.instantiable is True
    with pytest.raises(atlas.UnsupportedRow):
        atlas.RSpaceDescriptor("x", (), "Q", 1, False, "0")
    with pytest.raises(atlas.UnsupportedRow):
        atlas.RSpaceDescriptor("x", (), "Z", 7, False, "0")


def test_repr_lists_every_field():
    g = algebra.build_algebra("so", 3)
    text = repr(g)
    assert text.startswith("LieAlgebraBasis(family='so', n=3, ")
    assert all(f"{name}=" in text for name in algebra.LieAlgebraBasis
               .__annotations__)
    assert repr(orbit.CriticalCluster(1.5, 2, 3)) == \
        "CriticalCluster(value=1.5, hessian_index=2, population=3)"


def test_algebra_element_entries_are_read_only():
    # an element is its matrix; the basis and the grading element that an
    # instance shares with every caller cannot be written through
    s = atlas.instance("sphere", 2)
    g = s.g_vee
    assert g.basis.shape == (g.dim, g.size, g.size)
    for m in (g.basis, g.basis[0], s.xi):
        assert isinstance(m, np.ndarray) and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    # element() hands a matrix of the span back read-only, and refuses one
    # off the span
    x = g.element(2.0 * s.xi)
    assert np.array_equal(x, 2.0 * s.xi) and not x.flags.writeable
    with pytest.raises(algebra.AlgebraMismatch):
        g.element(np.eye(g.size))


def _load_traced():
    """perfbench/traced.py as a module; loading it installs no wrapper."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_traced", ROOT / "perfbench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def _unread_top_level_names():
    """(module, name) of each top-level function and class in src/rspacelab
    whose name is used nowhere in src/ outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defs, used = [], {}
    for mod, tree in trees.items():
        for node in tree.body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(node)
                      if isinstance(n, ast.ImportFrom) for a in n.names}
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = (mod, node.name)
                defs.append(own)
            for name in names:
                used.setdefault(name, set()).add(own)
    return [(mod, name) for mod, name in defs
            if not used.get(name, set()) - {(mod, name)}]


def _unread_members(src=SRC):
    """(module, class, member) of each annotated field, method and property
    of the classes in src whose name no attribute read in src names outside
    the member's own definition."""
    reads, members = {}, []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                reads[node.attr] = reads.get(node.attr, 0) + 1
            if not isinstance(node, ast.ClassDef):
                continue
            for m in node.body:
                if isinstance(m, ast.AnnAssign) and isinstance(m.target,
                                                               ast.Name):
                    members.append((path.stem, node.name, m.target.id, 0))
                elif isinstance(m, ast.FunctionDef):
                    own = sum(isinstance(n, ast.Attribute) and n.attr == m.name
                              and isinstance(n.ctx, ast.Load)
                              for n in ast.walk(m))
                    members.append((path.stem, node.name, m.name, own))
    return [(mod, cls, name) for mod, cls, name, own in members
            if reads.get(name, 0) <= own]


def test_every_top_level_name_has_a_reader_in_src():
    # no API that only tests hold: a function or class nothing in src/
    # reads belongs in the tests; perfbench wraps its TARGETS by name
    exempt = {(mod.__name__.rsplit(".", 1)[1], attr)
              for _, mod, attr in _load_traced().TARGETS}
    exempt |= {("cli", "main")}
    unread = [(mod, name) for mod, name in _unread_top_level_names()
              if (mod, name) not in exempt and name != "__getattr__"]
    assert unread == []
    # nor a field, method or property of a class; argparse calls
    # _Parser.error, and Python the dunders
    unread = [m for m in _unread_members()
              if m != ("cli", "_Parser", "error")
              and not (m[2].startswith("__") and m[2].endswith("__"))]
    assert unread == []


def test_the_member_scan_sees_fields_methods_and_properties(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    read: int\n"
        "    unread: int\n"
        "    def method(self):\n"
        "        return self.method\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return self.read\n"
        "def f(a):\n"
        "    a.unread = 1\n"
        "    return a.prop\n")
    assert _unread_members(tmp_path) == [("m", "A", "unread"),
                                         ("m", "A", "method")]


def _child_imports(*argv):
    """stdout and the set of modules of a `python -m rspacelab` child,
    read from its -X importtime list."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rspacelab", *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {line.rsplit("|", 1)[1].strip()
                         for line in proc.stderr.splitlines()
                         if line.startswith("import time:")}


def test_atlas_never_imports_numpy_random_or_the_suites():
    out, imported = _child_imports("atlas", "--space", "sphere",
                                   "--params", "2")
    assert "sphere(2)" in out
    assert "rspacelab.cli" in imported and "numpy" in imported
    # the production path draws no random numbers and atlas runs no suite
    assert "numpy.random" not in imported
    assert "rspacelab.reporting" not in imported


def test_report_never_imports_numpy_random():
    # the capacity table path loads neither the suites nor the oracles
    out, imported = _child_imports("report", "--space", "sphere",
                                   "--params", "2")
    assert "sphere(2)" in out and "rspacelab.capacity" in imported
    for name in ("rspacelab.reporting", "rspacelab.orbit",
                 "rspacelab.finsler", "numpy.random"):
        assert name not in imported


def test_default_verify_never_imports_numpy_ma():
    # np.median loads numpy.ma lazily; the Finsler constant takes the
    # middle of one sort instead
    out, imported = _child_imports("verify", "--seed", "7")
    assert "finsler.quadratic[" in out and "numpy" in imported
    assert "numpy.ma" not in imported


def test_verify_algebra_roots_loads_neither_capacity_nor_finsler():
    # each suite loads the layer it runs; these two run neither
    out, imported = _child_imports("verify", "--seed", "1", "--suite",
                                   "algebra,roots", "--space", "sphere",
                                   "--params", "2")
    assert "roots.sl2[sphere(2)]" in out
    assert {"rspacelab.reporting", "rspacelab.orbit"} <= imported
    assert not {"rspacelab.capacity", "rspacelab.finsler"} & imported


def test_verify_still_loads_the_suites_and_the_oracles():
    out, imported = _child_imports("verify", "--seed", "1", "--suite",
                                   "capacity", "--space", "sphere",
                                   "--params", "2")
    assert "capacity.systole[sphere(2)]" in out
    assert {"rspacelab.reporting", "rspacelab.orbit"} <= imported


def test_readme_states_the_line_count_of_src():
    # the count `wc -l src/rspacelab/*.py` prints, as the README gives it
    lines = sum(p.read_text().count("\n") for p in SRC.glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    assert f"`src/` holds {lines:,} lines of Python." in readme


# the oracles and the suites that only verify, the tests and scripts/ read
VERIFY_MODULES = {"orbit", "finsler", "reporting"}


def test_readme_states_the_production_and_verify_line_counts():
    lines = {True: 0, False: 0}
    for p in SRC.glob("*.py"):
        lines[p.stem in VERIFY_MODULES] += p.read_text().count("\n")
    readme = (ROOT / "README.md").read_text()
    assert (f"{lines[False]:,} in the production modules and "
            f"{lines[True]:,} in the verify modules") in readme


def _loaded_modules(node) -> set:
    """The rspacelab modules an import statement loads, by short name."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith("rspacelab.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0 and node.module == "rspacelab" \
            or node.level == 1 and node.module is None:
        return {a.name for a in node.names}  # from . import orbit
    if node.level == 1:
        return {node.module.split(".")[0]}   # from .orbit import x
    if node.level == 0 and node.module.startswith("rspacelab."):
        return {node.module.split(".")[1]}
    return set()


def test_production_never_imports_the_verify_modules():
    # at module or function level; cmd_verify alone dispatches to the suites
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in VERIFY_MODULES:
            continue
        tree = ast.parse(path.read_text())
        exempt = set()
        if path.stem == "cli":
            verify, = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                       and n.name == "cmd_verify"]
            exempt = {id(n) for n in ast.walk(verify)}
        for node in ast.walk(tree):
            hit = _loaded_modules(node) & VERIFY_MODULES
            if hit and id(node) not in exempt:
                found.append((path.name, node.lineno, sorted(hit)))
    assert found == []


def test_the_import_scan_sees_every_import_form():
    forms = {"from . import orbit as ob": {"orbit"},
             "from .finsler import unit_ball_vs_box": {"finsler"},
             "from rspacelab import atlas, reporting": {"atlas", "reporting"},
             "from rspacelab.orbit import structure": {"orbit"},
             "import rspacelab.reporting": {"reporting"},
             "import numpy as np": set()}
    for text, want in forms.items():
        assert _loaded_modules(ast.parse(text).body[0]) == want


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    # requires-python is >=3.10; the suite itself runs on a newer interpreter
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
