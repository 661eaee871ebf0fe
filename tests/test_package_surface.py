"""Every public top-level function or class of src/sfi is referenced by
sfi code (docstrings, imports and sfi.__all__ do not count) or
allowlisted with its reason, every public method or property of its
classes is referenced by sfi code or allowlisted, and every module-level
constant is read by sfi code. Reference computations that only tests
read belong in tests/oracles.py. numpy is the only runtime dependency;
scipy and mpmath serve the tests as oracles."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sfi

SRC = Path(sfi.__file__).parent

CLOSED_FORM = ("a closed form of the paper on the second-order deficit, "
               "for the per-row model and the sharp-ratio search of "
               "ROADMAP items 2 and 3")
BENCHMARK = "the benchmark calls it"
ALLOWED = {
    "poincare_saturation_limit": CLOSED_FORM,
    "h_volume_gradient_bound": CLOSED_FORM,
    "sigma_weighted_volume_gradient_bound": CLOSED_FORM,
    "quermass_gradient_bound": CLOSED_FORM,
    "symmetric_difference_to_ball": "the definition of alpha that the "
                                    "asymmetry search is held to exactly",
    "parse_constraint": BENCHMARK,
    "default_weight_set": BENCHMARK,
    "sweep": BENCHMARK,
    "csv_text": BENCHMARK,
}
ALLOWED_MEMBERS = {
    "ExpansionReport.max_rel_error": "the fit gate of the benchmark's "
                                     "expand workload reads it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in SRC.glob("*.py")}


def _referenced(trees):
    # names read, not assigned
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_public_definition_is_used_exported_or_allowlisted():
    trees = _trees()
    referenced = _referenced(trees)
    unused = sorted(f"{module}.{node.name}" for module, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in referenced | set(ALLOWED))
    assert unused == []


def test_every_public_member_is_used_or_allowlisted():
    # methods and properties of the package's classes, read by name
    # anywhere in the package; exporting the class does not cover them
    trees = _trees()
    referenced = _referenced(trees)
    unused = sorted(f"{module}.{cls.name}.{node.name}"
                    for module, tree in trees.items() for cls in tree.body
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in referenced
                    and f"{cls.name}.{node.name}" not in ALLOWED_MEMBERS)
    assert unused == []


def test_every_module_constant_is_read():
    # module-level names other than dunders such as __all__
    trees = _trees()
    referenced = _referenced(trees)
    unread = sorted(f"{module}.{target.id}"
                    for module, tree in trees.items() for node in tree.body
                    if isinstance(node, ast.Assign) for target in node.targets
                    if isinstance(target, ast.Name)
                    and not target.id.startswith("__")
                    and target.id not in referenced)
    assert unread == []


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, sfi, sfi.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=SRC.parent)
    assert out.stdout.strip() == "[]"


def test_source_imports_no_scipy():
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert not {name for name in imported
                if name.split(".")[0] in ("scipy", "mpmath")}
    assert "numpy" in imported


def test_no_import_inside_a_function():
    # importing sfi.cli runs sfi/__init__.py, which loads numpy and every
    # sfi module, so an import in a function body defers nothing
    local = sorted(f"{module}.{func.name}: {ast.unparse(node)}"
                   for module, tree in _trees().items()
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert local == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (SRC.parents[1] / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    test_extra = {d.split(">")[0] for d in
                  project["optional-dependencies"]["test"]}
    assert {"scipy", "mpmath"} <= test_extra


def _sfi_imports(tree, modules):
    """The sfi modules that a module's source imports, at any depth."""
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            deps |= {a.name.split(".")[1] for a in node.names
                     if a.name.startswith("sfi.")}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "sfi":
            parts = node.module.split(".")
            deps |= {parts[1]} if len(parts) > 1 else \
                {a.name for a in node.names if a.name in modules}
    return deps


# (reader, module, name) of each private name that one module reads
# from another, with its reason
PRIVATE_READS = {
    ("normalize", "domains", "_shoot_radii"):
        "the benchmark counts model.polar calls only under "
        "normalize.reproject_after_isometry; a public shooter would be "
        "wrapped by its recorder and zero model.polar.calls_per_row",
}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(reader, tree, modules):
    """(reader, module, name) of each _-prefixed name of another sfi
    module that a module's source imports or reads as an attribute."""
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname: a.name.split(".")[1] for a in node.names
                        if a.name.startswith("sfi.") and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "sfi":
            parts = node.module.split(".")
            for a in node.names:
                if len(parts) > 1 and _private(a.name):
                    reads.add((reader, parts[1], a.name))
                elif len(parts) == 1 and a.name in modules:
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and aliases.get(node.value.id, reader) != reader:
            reads.add((reader, aliases[node.value.id], node.attr))
    return reads


def test_module_layering():
    # domains reads geometry only through the SurfaceGeometry a caller
    # hands it, no module reads another's private names except those
    # listed, and the imports among the modules form no cycle (the
    # package's __init__, which only re-exports, is left out)
    trees = _trees()
    del trees["__init__"]
    reads = set().union(*(_private_reads(m, tree, trees)
                          for m, tree in trees.items()))
    assert sorted(reads) == sorted(PRIVATE_READS)
    remaining = {m: _sfi_imports(tree, trees) for m, tree in trees.items()}
    assert "graphgeom" not in remaining["domains"]
    while remaining:
        leaves = {m for m, deps in remaining.items()
                  if not deps & remaining.keys()}
        assert leaves, f"import cycle among {sorted(remaining)}"
        for m in leaves:
            del remaining[m]
