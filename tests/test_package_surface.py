"""Every public top-level function or class of src/sfi is referenced by
sfi code (docstrings do not count), exported in sfi.__all__, or
allowlisted with its reason. Reference computations that only tests read
belong in tests/oracles.py."""

import ast
from pathlib import Path

import sfi

CLOSED_FORM = "a closed form of the paper, for the worst-direction search"
ALLOWED = {
    "sigma_weighted_volume_deficit_coefficients": CLOSED_FORM,
    "quermass_deficit_coefficients": CLOSED_FORM,
    "poincare_saturation_limit": CLOSED_FORM,
    "h_volume_gradient_bound": CLOSED_FORM,
    "sigma_weighted_volume_gradient_bound": CLOSED_FORM,
    "quermass_gradient_bound": CLOSED_FORM,
    "weighted_volume_rhs_closed_form": CLOSED_FORM,
    "symmetric_difference_to_ball": "the definition of alpha that the "
                                    "asymmetry search is held to exactly",
}


def test_every_public_definition_is_used_exported_or_allowlisted():
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(sfi.__file__).parent.glob("*.py")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(f"{module}.{node.name}" for module, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in referenced | set(sfi.__all__)
                    | set(ALLOWED))
    assert unused == []
