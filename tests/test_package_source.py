"""Source-level rules for the package itself.

`python -O` strips every `assert` statement, so no invariant of the
package may rest on one: library code raises explicitly instead.

Arithmetic is exact: no float literal and no `float(...)` call appears
in the package, so that no stray inexact value can enter the integer
and rational code.  Integral entries are stored as ints, and `/` on two
ints is a float, so every true division has a direct `Fraction(...)` call
as one operand; floor division `//` is exact on ints and exempt.  The
engine is integral, and only a fixed list of functions builds a Fraction.

The package may import only itself, the standard library and the
dependencies declared in pyproject.toml: a module that is merely
installed here (scipy, sympy) would pass every test and break a clean
install.

Every public top-level function or class is used by the package itself,
not only by its tests, and so is every public method, property and field
of a package class; the top-level namespace re-exports exactly the names
the README's Python API example imports, plus a few more.  Every
parameter is read in its function's body, and every default, of a
parameter or of a dataclass field, is overridden by some caller.  No
module reads another's private name: what one module uses of another is
public; and every private top-level name is read in its own module, so
that a helper no caller needs leaves with its last caller.

The test settings turn every warning into an error but one, so that a
failing Hypothesis test is reported as a failure and the session goes on.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import g2verify

PACKAGE_DIR = Path(g2verify.__file__).parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_has_no_assert_statements() -> None:
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_float_literals_or_float_calls() -> None:
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            literal = isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            )
            call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            if literal or call:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_division_has_a_fraction_operand() -> None:
    def is_fraction_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
        )

    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                operands = (node.value,)
            else:
                continue
            if not any(map(is_fraction_call, operands)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _fraction_builders(tree: ast.AST, prefix: str) -> set[str]:
    """The qualified names of the functions in `tree` that call `Fraction`
    directly; a call outside any function is named by `prefix` alone."""
    found = set()

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if isinstance(child, ast.Call) and "Fraction" in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.add(name)
            visit(child, name)

    visit(tree, prefix)
    return found


def test_only_the_listed_functions_build_a_fraction() -> None:
    # Every matrix, kernel, g2 element and sampled point is integral.  A
    # Fraction is built only for an exact quotient (rho's brackets over 2
    # and 3, B's normalisation, the Killing norms), for the report's
    # rational constants and by the sampler's `fraction` draw.  A new
    # builder must join this list on purpose.
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found |= _fraction_builders(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {
        "g2_algebra.killing_dual_norm",
        "rep7_verifier.invariant_form",
        "rep7_verifier.build_rep7",
        "report_cli._run_cartan_norms",
        "sampling.SmallRationalSampler.fraction",
    }
    # The walk itself finds a call in a method, a nested function and a module.
    probe = "class C:\n    def f(self):\n        def g():\n            return Fraction(1)\n"
    probe += "X = Fraction(2)\n"
    assert _fraction_builders(ast.parse(probe), "m") == {"m.C.f.g", "m"}


def test_slice_side_types_only_the_triple_and_l() -> None:
    # The sl2-triple and the line l are the slice side's data; n_l, s, t',
    # u5 and u6 are derived in `build_slice_data`, so no subspace is typed.
    tree = ast.parse((PACKAGE_DIR / "slice_verifier.py").read_text(encoding="utf-8"))
    assigned = [
        node.id
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]
    assert assigned == ["E", "F", "H", "L"]


def test_package_imports_only_declared_dependencies() -> None:
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    allowed = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}
    allowed |= set(sys.stdlib_module_names) | {g2verify.__name__}
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported, sources
    assert sorted(imported - allowed) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(tree: ast.Module) -> list[str]:
    """The private names `tree` imports from a sibling module, reads off
    one through the name it imports the module as, or reads off any other
    object without defining that name itself (by a def, a class or an
    assignment to a name or an attribute)."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            of_module = isinstance(node.value, ast.Name) and node.value.id in modules
            undefined = isinstance(node.ctx, ast.Load) and node.attr not in defined
            if of_module or undefined:
                found.append(ast.unparse(node))
    return found


def test_no_module_reads_another_modules_private_name() -> None:
    found = {
        path.name: reads
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (reads := _foreign_private_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
    # The walk itself finds every kind of read, and leaves public names,
    # dunders and the private names a module defines.
    probe = (
        "from . import m as a\nfrom .n import _x, y, __version__\na._z\na.w\na.__doc__\n"
        "def _f(): pass\nk._f\nk._v = 1\nk._v\nk.w[0]._u\n"
    )
    assert _foreign_private_reads(ast.parse(probe)) == ["n._x", "a._z", "k.w[0]._u"]


def _unread_private_names(tree: ast.Module) -> list[str]:
    """The private names `tree` defines at its top level, by a def, a class
    or an assignment (tuple targets included), that no name in `tree` loads."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in defined if _private(name) and name not in read]


def test_every_private_top_level_name_is_read_in_its_module() -> None:
    # No other module may read a private name, so one its own module never
    # reads is dead: a helper left behind by its last caller.
    found = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := _unread_private_names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
    # The walk itself finds unread defs, classes and assignments, tuple
    # targets included, and leaves public names, dunders and read names.
    probe = (
        "def _f(): pass\nclass _C: pass\n_a, (_b, c) = 1, (2, 3)\n_d: int = 4\n"
        "__all__ = []\ndef _g(): return _b\n_h = _g\n"
    )
    assert _unread_private_names(ast.parse(probe)) == ["_f", "_C", "_a", "_d", "_h"]


def test_every_public_definition_is_used_by_the_package() -> None:
    # The `verify` entry point in [project.scripts] is used from outside.
    entry_points = {"report_cli.main"}
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and f"{module}.{node.name}" not in entry_points
    ]
    assert unused == []
    # `fraction` is read only by the tests and by the benchmark's span
    # recorder, which wraps it by name to count the draws that still build
    # a Fraction; it leaves with that count.
    assert _unread_members(trees) == ["sampling.SmallRationalSampler.fraction"]
    # The walk itself finds unread methods, properties and fields, and takes
    # an attribute load or a keyword argument as a read, but not a store.
    probe = (
        "class C:\n    x: int\n    y: int\n    z: int = 0\n    def f(self): pass\n"
        "    @property\n    def g(self): pass\n    def _h(self): pass\n"
        "    def __len__(self): pass\nc.x\nC(y=1)\nc.f = 1\n"
    )
    assert _unread_members({"m": ast.parse(probe)}) == ["m.C.z", "m.C.f", "m.C.g"]


def _unread_members(trees: dict) -> list[str]:
    """`module.Class.member` for each public method, property or annotated
    field of a class in `trees` (module name -> tree) that no attribute load
    and no keyword argument in `trees` reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword):
                read.add(node.arg)
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_") and name not in read:
                    found.append(f"{module}.{cls.name}.{name}")
    return found


def _readme_api_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_top_level_names_are_the_documented_api() -> None:
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert sorted(g2verify.__all__) == sorted(imported)
    assert len(g2verify.__all__) == len(imported)
    example = {
        alias.name
        for node in ast.walk(ast.parse(_readme_api_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "g2verify"
        for alias in node.names
    }
    assert example and example <= imported
    for name in g2verify.__all__:
        assert getattr(g2verify, name) is not None, name


def test_readme_api_example_runs() -> None:
    exec(compile(_readme_api_example(), str(README), "exec"), {})


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
        for d in cls.decorator_list
    )


def _unset_defaults(trees: list) -> list[str]:
    """`function(param=...)` for each defaulted parameter in `trees` that no
    call in `trees` sets, by keyword, by position or through * or **.  A
    dataclass field with a default is a parameter of its class, set by a
    call of the class's name."""
    methods = {
        id(node)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    calls: dict = {}  # called name -> its ast.Call nodes
    defaulted = []  # (function, parameter, positional index or None)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [
                    f for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                ]
                defaulted += [
                    (node.name, f.target.id, i) for i, f in enumerate(fields) if f.value
                ]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                # A method call through an attribute does not pass self or cls.
                skip = 1 if id(node) in methods else 0
                defaulted += [
                    (node.name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first
                ]
                defaulted += [
                    (node.name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]

    def sets(call: ast.Call, param: str, index: int | None) -> bool:
        if any(k.arg in (param, None) for k in call.keywords):  # None is **kwargs
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return index is not None and len(call.args) > index

    return [
        f"{function}({param}=...)"
        for function, param, index in defaulted
        if not any(sets(call, param, index) for call in calls.get(function, ()))
    ]


def test_every_defaulted_parameter_is_set_by_some_caller() -> None:
    # A default that no call site in the package overrides is a constant
    # dressed up as a parameter: every caller gets the same value.
    definition = "def f(x, y=1, *, z=2):\n    return x + y + z\n"
    assert _unset_defaults([ast.parse(definition)]) == ["f(y=...)", "f(z=...)"]
    assert _unset_defaults([ast.parse(definition + "f(0, 1, z=3)\n")]) == []
    fields = "@dataclass\nclass D:\n    a: int\n    b: int = 1\n    c: int = 2\n"
    assert _unset_defaults([ast.parse(fields + "D(0, c=3)\nreplace(d, b=4)\n")]) == ["D(b=...)"]
    assert _unset_defaults([ast.parse(fields + "D(0, 4, c=3)\n")]) == []
    trees = [
        ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE_DIR.glob("*.py"))
    ]
    assert _unset_defaults(trees) == []


def test_every_parameter_is_read_in_its_body() -> None:
    # A parameter the body never reads makes every caller pass a value for
    # nothing.  self and cls are exempt: a method cannot drop them.
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for statement in body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            unread += [
                f"{path.name}:{node.lineno} {name}({p})"
                for p in params
                if p not in read and p not in ("self", "cls")
            ]
    assert unread == []


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path) -> None:
    # Hypothesis imports libcst to write a failing example's patch, and that
    # import warns; under filterwarnings = error alone, the session ended
    # with INTERNALERROR and never reported the failure.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
