"""The package's public surface is what the lab runs, and nothing else.

Every public module-level function or class of src/noncollapse/ must be
used by the program: called, raised or passed as an argument in src/
(outside __init__.py) or scripts/, or imported, reached as an attribute or
caught in src/, scripts/ or perfbench/ (perfbench/ reaches the package by
attribute, as in ``cli.interior_suite``).  A name that only the tests use
is a test reference and lives in tests/oracles.py.  Re-exports in
__init__.py do not count, nor do annotations or a function's calls of
itself.  The scan is on the syntax tree, so a word in a docstring or a
local variable of the same name is not mistaken for a use.

Run on the tree before the test-only references moved out of the package,
the scan flags ten of the thirteen that moved (optimal_lambda,
interior_bracket, interior_scale, q_second_derivative_check,
brute_force_boundary, matrix_hess_form, ball_curvature_pair, area,
translate, scale).  The other three were reached only from moved code
(boundary_bracket from brute_force_boundary, PairTooClose raised by
ball_curvature_pair) or from check_convex (principal_radii, now inlined
there), so each dropped out as soon as its one user moved.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noncollapse"

# Public names that stay although no use of the kinds above reaches them.
ALLOWED = {
    "BoundarySample": "the argument type of oracle._boundary_terms, which "
                      "perfbench/tracing.py wraps by name; only annotations name it",
}


def _modules(*dirs: Path):
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            if path.name != "__init__.py":
                yield path, ast.parse(path.read_text(), filename=str(path))


def public_definitions(package: Path = PACKAGE) -> dict:
    """{name: module file} of the public module-level defs and classes."""
    return {node.name: path.name
            for path, tree in _modules(package)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _called_names(node: ast.AST) -> set:
    """Names called, or passed as a positional or keyword argument, in node."""
    out = set()
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        for expr in (call.func, *call.args, *(k.value for k in call.keywords)):
            if isinstance(expr, ast.Starred):
                expr = expr.value
            if isinstance(expr, ast.Name):
                out.add(expr.id)
            elif isinstance(expr, ast.Attribute):
                out.add(expr.attr)
    return out


def _reached_names(node: ast.AST) -> set:
    """Names imported, reached as an attribute, or caught, in node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ExceptHandler) and sub.type is not None:
            caught = sub.type.elts if isinstance(sub.type, ast.Tuple) else [sub.type]
            out.update(e.id if isinstance(e, ast.Name) else e.attr
                       for e in caught if isinstance(e, (ast.Name, ast.Attribute)))
    return out


def unused_public_names(root: Path = ROOT) -> set:
    """Public names of root's src/noncollapse/ that nothing in the program uses."""
    program = list(_modules(root / "src" / "noncollapse", root / "scripts"))
    reached = set()
    for _, tree in program + list(_modules(root / "perfbench")):
        reached |= _reached_names(tree)
    # (name of the top-level def, or None, and the names its statement calls)
    called = [(getattr(node, "name", None), _called_names(node))
              for _, tree in program for node in tree.body]
    return {name for name in public_definitions(root / "src" / "noncollapse")
            if name not in reached
            and not any(name in names for owner, names in called if owner != name)}


def test_every_public_name_is_used_by_the_program():
    unused = unused_public_names() - set(ALLOWED)
    assert not unused, (f"public names only the tests use: {sorted(unused)}; "
                        "move them to tests/oracles.py")


def test_allow_list_is_current():
    # an entry whose name is gone, or now used, is stale
    defined = public_definitions()
    assert set(ALLOWED) <= set(defined)
    assert set(ALLOWED) <= unused_public_names()


def _numpy_random_uses(tree: ast.Module) -> list:
    """Line numbers where tree reaches numpy.random: np.random or
    numpy.random as an attribute, or an import of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name == "numpy.random" or a.name.startswith("numpy.random.")
                for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random")
                or (node.module == "numpy" and any(a.name == "random" for a in node.names))):
            lines.append(node.lineno)
    return lines


def test_numpy_random_scan_sees_every_form():
    for src in ("import numpy as np\nnp.random.default_rng(0)\n",
                "import numpy\nnumpy.random.seed(1)\n",
                "import numpy.random\n",
                "from numpy.random import default_rng\n",
                "from numpy import random\n"):
        assert _numpy_random_uses(ast.parse(src)), src
    assert not _numpy_random_uses(ast.parse("random = 1\nx.random()\n"))


def test_package_never_reaches_numpy_random():
    # every trial is drawn by speeds.trial_uniforms (SplitMix64 in plain
    # numpy); the flow draws nothing
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             for lines in [_numpy_random_uses(ast.parse(path.read_text()))] if lines}
    assert not found, f"numpy.random reached at {found}"
