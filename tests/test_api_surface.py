"""The package's public surface is what the lab runs, and nothing else.

Three kinds of public name of src/noncollapse/ must be used by the program:

- a module-level function or class must be called, raised or passed as an
  argument in src/ (outside __init__.py) or scripts/, or imported, reached
  as an attribute or caught in src/, scripts/ or perfbench/ (perfbench/
  reaches the package by attribute, as in ``cli.interior_suite``);
- a method or property of a public class must be reached as an attribute
  in src/, scripts/ or perfbench/, outside its own body;
- an exception class must be caught by an ``except`` clause in src/,
  scripts/ or perfbench/.  A refusal that nothing catches raises a plain
  ValueError, whose message says what was refused.

A name that only the tests use is a test reference and lives in
tests/oracles.py.  Re-exports in __init__.py do not count, nor do
annotations or a function's calls of itself.  The scan is on the syntax
tree, so a word in a docstring or a local variable of the same name is not
mistaken for a use.  Members are matched by name, so an override of a
reached method (DualSpeed.dual over SpeedFunction.dual) passes with it.

Run on the tree before the test-only references moved out of the package,
the module-level scan flags ten of the thirteen that moved (optimal_lambda,
interior_bracket, interior_scale, q_second_derivative_check,
brute_force_boundary, matrix_hess_form, ball_curvature_pair, area,
translate, scale).  The other three were reached only from moved code
(boundary_bracket from brute_force_boundary, PairTooClose raised by
ball_curvature_pair) or from check_convex (principal_radii, now inlined
there), so each dropped out as soon as its one user moved.  Run on the tree
before the member and exception scans, those flag SpeedFunction.trace_grad,
SpeedFunction.hess, ConvexBody.from_dict, BallCurvatureField.diagonal_upper
and the exception types SingularShift, NotPositiveDefinite, DiagonalWitness
and CenterOutside, which were raised but never caught.
"""
from __future__ import annotations

import ast
import builtins
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


def _member_name(node: ast.stmt):
    """The name a class-body statement defines as a method or property: a
    def, or ``name = property(...)``; None for anything else."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call) \
            and isinstance(node.value.func, ast.Name) and node.value.func.id == "property":
        return node.targets[0].id
    return None


def _public_classes(package: Path):
    for _, tree in _modules(package):
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield node


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


def _caught_names(node: ast.AST) -> set:
    """Exception names in the except clauses of node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ExceptHandler) and sub.type is not None:
            caught = sub.type.elts if isinstance(sub.type, ast.Tuple) else [sub.type]
            out.update(e.id if isinstance(e, ast.Name) else e.attr
                       for e in caught if isinstance(e, (ast.Name, ast.Attribute)))
    return out


def _attribute_names(node: ast.AST) -> set:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _reached_names(node: ast.AST) -> set:
    """Names imported, reached as an attribute, or caught, in node."""
    imported = {alias.name for sub in ast.walk(node) if isinstance(sub, ast.ImportFrom)
                for alias in sub.names}
    return imported | _attribute_names(node) | _caught_names(node)


def _program(root: Path):
    """(modules of src/ and scripts/, modules of perfbench/) of root."""
    return (list(_modules(root / "src" / "noncollapse", root / "scripts")),
            list(_modules(root / "perfbench")))


def unused_public_names(root: Path = ROOT) -> set:
    """Public module-level names of root's src/noncollapse/ that nothing in
    the program uses."""
    program, perfbench = _program(root)
    reached = set()
    for _, tree in program + perfbench:
        reached |= _reached_names(tree)
    # (name of the top-level def, or None, and the names its statement calls)
    called = [(getattr(node, "name", None), _called_names(node))
              for _, tree in program for node in tree.body]
    return {name for name in public_definitions(root / "src" / "noncollapse")
            if name not in reached
            and not any(name in names for owner, names in called if owner != name)}


def unreached_members(root: Path = ROOT) -> set:
    """"Class.member" of the public methods and properties of root's public
    classes that nothing in the program reaches outside their own body."""
    program, perfbench = _program(root)
    # (the member a statement defines, or None, and the attributes it reaches)
    reached = []
    for _, tree in program + perfbench:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                reached += [((node.name, _member_name(sub)), _attribute_names(sub))
                            for sub in node.body]
            else:
                reached.append((None, _attribute_names(node)))
    return {f"{cls.name}.{name}"
            for cls in _public_classes(root / "src" / "noncollapse")
            for node in cls.body
            for name in [_member_name(node)]
            if name and not name.startswith("_")
            and not any(name in names for owner, names in reached if owner != (cls.name, name))}


def uncaught_exceptions(root: Path = ROOT) -> set:
    """Exception classes of root's package that no except clause of the
    program names."""
    classes = list(_public_classes(root / "src" / "noncollapse"))
    builtin = {name for name, v in vars(builtins).items()
               if isinstance(v, type) and issubclass(v, BaseException)}
    exceptions = set()
    while True:  # subclasses of a builtin exception, or of one found already
        found = {cls.name for cls in classes
                 if any(isinstance(b, ast.Name) and b.id in builtin | exceptions
                        for b in cls.bases)}
        if found == exceptions:
            break
        exceptions = found
    program, perfbench = _program(root)
    caught = set()
    for _, tree in program + perfbench:
        caught |= _caught_names(tree)
    return exceptions - caught


def unused_public_api(root: Path = ROOT) -> set:
    """Every name the three scans flag in root."""
    return unused_public_names(root) | unreached_members(root) | uncaught_exceptions(root)


def test_every_public_name_is_used_by_the_program():
    unused = unused_public_api() - set(ALLOWED)
    assert not unused, (f"public names only the tests use: {sorted(unused)}; "
                        "move them to tests/oracles.py")


def test_allow_list_is_current():
    # an entry whose name is gone, or now used, is stale
    defined = public_definitions()
    assert set(ALLOWED) <= set(defined)
    assert set(ALLOWED) <= unused_public_api()


def test_scan_sees_members_and_exceptions(tmp_path):
    files = {
        "src/noncollapse/shapes.py": (
            "class ShapeError(ValueError):\n    pass\n"
            "class Refused(ShapeError):\n    pass\n"
            "class Shape:\n"
            "    side = property(lambda self: 1.0)\n"
            "    def area(self):\n        return self.scaled(1.0)\n"
            "    def scaled(self, s):\n        return s * self.perimeter\n"
            "    @property\n    def perimeter(self):\n        return 4.0\n"
            "    def again(self):\n        return self.again()\n"
            "    def _private(self):\n        pass\n"
            "def main():\n"
            "    try:\n        return Shape().area()\n"
            "    except ShapeError:\n        raise Refused('no')\n"),
        "scripts/go.py": "from noncollapse.shapes import main\nmain()\n",
        "perfbench/bench.py": "import noncollapse.shapes as s\nx = s.Shape.side\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    # area, scaled and perimeter are reached from a sibling or the program,
    # side from perfbench; again reaches only itself
    assert unreached_members(tmp_path) == {"Shape.again"}
    # Refused is raised but never caught; ShapeError is caught
    assert uncaught_exceptions(tmp_path) == {"Refused"}
    assert unused_public_names(tmp_path) == set()
    assert unused_public_api(tmp_path) == {"Shape.again", "Refused"}


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
