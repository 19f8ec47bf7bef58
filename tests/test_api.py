"""The declared surface exists: every name in a module's __all__, read by
the library or the benchmark, and every console script that pyproject.toml
declares; the immutable values keep their value semantics."""
import ast
import copy
import importlib
import math
import pickle
import pkgutil
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import direach
from direach.flow import AprioriBound, StepGeometry
from direach.inputs import InputScheme, PiecewiseConstant, SchemeKind
from direach.interval import Box, Interval
from direach.polymodel import ArityMismatchError, PolynomialModel, Role, VarInfo, VectorModel
from direach.symexpr import Add, Const, Cos, Div, Exp, Mul, Neg, Pow, Sin, StepErrorBounds, Sub, Var

MODULES = ["direach"] + [f"direach.{m.name}" for m in pkgutil.iter_modules(direach.__path__)]
ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
# declared names that only tests read, each kept for the reason ROADMAP gives
READ_BY_TESTS_ONLY = {
    "match_parameters",  # with PiecewiseConstant, defines "matched" for test_theorem.py
    "PiecewiseConstant",
    "quadratic_envelope_check",  # the coverage check of the floor-free family (D12)
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _names_read(paths) -> set[str]:
    """Every name the code of paths reads, as an ast.Name or the attribute
    of an ast.Attribute, outside annotations (strings are never names)."""
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
        annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        skipped = {id(n) for a in annotations if a is not None for n in ast.walk(a)}
        for node in ast.walk(tree):
            if id(node) in skipped or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_declared_name_is_read_by_the_code():
    """A name in some __all__ is there because the library or the benchmark
    uses it: a symbol only tests reach is a test helper, not part of the
    surface, unless it is kept on purpose (READ_BY_TESTS_ONLY)."""
    read = _names_read([*Path(direach.__file__).parent.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    unread = sorted(
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(name), "__all__", [])
        if n not in read and n not in READ_BY_TESTS_ONLY
    )
    assert unread == []


def test_declared_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_only_interval_imports_fractions():
    """Directed rounding lives in interval: no other module does exact
    rational arithmetic of its own."""
    importers = set()
    for path in Path(direach.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names):
                importers.add(path.name)
    assert importers == {"interval.py"}


def test_no_module_imports_dataclass_machinery():
    """The library's values are slotted classes on interval._Immutable:
    no module builds a dataclass, whose class creation costs about a
    millisecond at import and whose instances cost more to build.  Importing
    FrozenInstanceError, the error those values raise, stays allowed."""
    importers = set()
    for path in Path(direach.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                if any(a.name == "dataclasses" for a in node.names):
                    importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                if any(a.name in ("dataclass", "fields", "*") for a in node.names):
                    importers.add(path.name)
    assert importers == set()


def test_no_dense_kernel_returns_none():
    """polymodel's constructor admits only finite coefficients on monomials
    of degree <= cap, so every dense kernel takes whatever model it is
    given and returns its answer or raises: no _dense_* function has a
    return without a value or a return of None, which polymodel would have
    to answer with a second path."""
    tree = ast.parse((Path(direach.__file__).parent / "dense.py").read_text())
    kernels = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("_dense_")]
    assert len(kernels) >= 9
    declines = [
        kernel.name
        for kernel in kernels
        for node in ast.walk(kernel)
        if isinstance(node, ast.Return)
        and (node.value is None or isinstance(node.value, ast.Constant) and node.value.value is None)
    ]
    assert declines == []


def test_only_polymodel_reads_a_models_store():
    """How a polynomial model holds its terms (a dict in _terms or a slot
    vector in _vec) and its caches (the power table _table and the
    poly_magnitude _mag), and which terms a float polynomial keeps for the
    shift product (_monomials), is polymodel's decision alone: no other
    module names those attributes, and dense sees only arrays and the
    (key, coefficient) pairs it is handed."""
    readers = set()
    for path in Path(direach.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_terms", "_vec", "_table", "_mag", "_monomials"):
                readers.add(path.name)
    assert readers == {"polymodel.py"}


def test_only_symexpr_reads_a_systems_slot_layout():
    """Where a system's program holds each field and derivative entry
    (_slots) and how the derivative norms read those slots (the bounds plan
    _plan, its kept values _kept and the runs it makes _runs) is symexpr's
    decision alone: no other module names those attributes."""
    readers = set()
    for path in Path(direach.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_slots", "_plan", "_kept", "_runs"):
                readers.add(path.name)
    assert readers == {"symexpr.py"}


def test_only_the_bounds_plan_knows_what_varies():
    """Whether a Var is below a slot, which decides what no box changes, is
    known in one place: no module, class or function names varies but
    symexpr._bounds_plan, so a program keeps no values of its own."""
    namers = set()
    for path in Path(direach.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {
            id(node): top.name
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if "varies" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None)):
                namers.add(f"{path.stem}.{owner.get(id(node), '<module>')}")
    assert namers == {"symexpr._bounds_plan"}


def test_flow_builds_certification_errors_in_one_place():
    """Every certification failure of flow has its message built by one
    helper: the module calls CertificationError(...) in exactly one place,
    the one place to change when a failure reports more (which check, at
    what time, by what margin)."""
    tree = ast.parse((Path(direach.__file__).parent / "flow.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "CertificationError"
    ]
    assert len(calls) == 1, calls


_IV = Interval(-0.5, 1.25)
_X1, _C = Var(1), Const(-2.5)
_VARS = (VarInfo(Role.STATE, axis=0), VarInfo(Role.TIME, radius=0.1))
_MODEL = PolynomialModel(_VARS, {0: 1.5, 1: 0.5}, 0.25, 3)
_MODEL2 = PolynomialModel(_VARS, {0: 1.5}, 0.0, 3)
_BOUNDS = dict(K=1.0, Kp=2.0, L=3.0, Lp=0.0, H=0.5, Hp=0.0, Lam=-1.0)

# (value, an equal value built with keywords or defaults, a value that
# differs in one field, the repr): the repr strings are those the frozen
# dataclasses printed
VALUES = [
    pytest.param(_IV, Interval(hi=1.25, lo=-0.5), Interval(-0.5, 1.5), "[-0.5, 1.25]", id="Interval"),
    pytest.param(
        Box((_IV, Interval(0.0, 1.0))),
        Box(components=(Interval(-0.5, 1.25), Interval(0.0, 1.0))),
        Box((_IV,)),
        "[-0.5, 1.25]x[0.0, 1.0]",
        id="Box",
    ),
    pytest.param(_X1, Var(index=1), Var(2), "Var(index=1)", id="Var"),
    pytest.param(_C, Const(value=-2.5), Const(2.5), "Const(value=-2.5)", id="Const"),
    *(
        pytest.param(
            node(_X1, _C),
            node(a=Var(1), b=Const(-2.5)),
            node(_C, _X1),
            f"{node.__name__}(a=Var(index=1), b=Const(value=-2.5))",
            id=node.__name__,
        )
        for node in (Add, Sub, Mul, Div)
    ),
    *(
        pytest.param(node(_X1), node(a=Var(1)), node(_C), f"{node.__name__}(a=Var(index=1))", id=node.__name__)
        for node in (Neg, Sin, Cos, Exp)
    ),
    pytest.param(Pow(_X1, -2), Pow(base=Var(1), exponent=-2), Pow(_X1, 2), "Pow(base=Var(index=1), exponent=-2)", id="Pow"),
    pytest.param(
        StepErrorBounds(1.0, 2.0, 3.0, 0.0, 0.5, 0.0, -1.0),
        StepErrorBounds(**_BOUNDS),
        StepErrorBounds(**{**_BOUNDS, "Lam": 0.0}),
        "StepErrorBounds(K=1.0, Kp=2.0, L=3.0, Lp=0.0, H=0.5, Hp=0.0, Lam=-1.0)",
        id="StepErrorBounds",
    ),
    pytest.param(
        _VARS[1],
        VarInfo(Role.TIME, 0, 0.1, None),
        VarInfo(Role.TIME, radius=0.2),
        "VarInfo(role=<Role.TIME: 'time'>, born=0, radius=0.1, axis=None)",
        id="VarInfo",
    ),
    pytest.param(
        VectorModel((_MODEL, _MODEL2)),
        VectorModel(components=(PolynomialModel(_VARS, {1: 0.5, 0: 1.5}, 0.25, 3), _MODEL2)),
        VectorModel((_MODEL2, _MODEL)),
        "VectorModel(components=(PolynomialModel(arity=2, terms=2, error=0.25), PolynomialModel(arity=2, terms=1, error=0)))",
        id="VectorModel",
    ),
    pytest.param(
        StepGeometry(0.5, 0.1), StepGeometry(h=0.1, t0=0.5), StepGeometry(0.5, 0.2), "StepGeometry(t0=0.5, h=0.1)", id="StepGeometry"
    ),
    pytest.param(
        AprioriBound(Box((_IV,)), (Interval(-1.0, 1.0),)),
        AprioriBound(input_ranges=(Interval(-1.0, 1.0),), box=Box((_IV,))),
        AprioriBound(Box((_IV,)), (Interval(-2.0, 2.0),)),
        "AprioriBound(box=[-0.5, 1.25], input_ranges=([-1.0, 1.0],))",
        id="AprioriBound",
    ),
    pytest.param(
        InputScheme(SchemeKind.AFFINE),
        InputScheme.from_name("affine"),
        InputScheme(kind=SchemeKind.STEP),
        "InputScheme(kind=<SchemeKind.AFFINE: 'affine'>)",
        id="InputScheme",
    ),
    pytest.param(
        PiecewiseConstant((0.0, 0.05, 0.1), (1.0, -1.0)),
        PiecewiseConstant(values=(1.0, -1.0), breaks=(0.0, 0.05, 0.1)),
        PiecewiseConstant((0.0, 0.05, 0.1), (1.0, 1.0)),
        "PiecewiseConstant(breaks=(0.0, 0.05, 0.1), values=(1.0, -1.0))",
        id="PiecewiseConstant",
    ),
]
# hashing raises where a field is unhashable: a vector model's components
UNHASHABLE = {VectorModel}


@pytest.mark.parametrize("value, same, other, text", VALUES)
def test_immutable_value_semantics(value, same, other, text):
    """Every immutable value class keeps the behaviour it had as a frozen
    dataclass: value equality within its class only (Add(x, y) is not
    Sub(x, y)), a hash over its fields, read-only fields, its repr, and
    round trips through copy and pickle."""
    assert value is not same and value == same and not value != same
    assert value != other and other != value
    for foreign in VALUES:
        if type(foreign.values[0]) is not type(value):
            assert value != foreign.values[0]
    if type(value) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
        assert {value: 1}[same] == 1
    assert repr(value) == repr(same) == text
    assert value._fields  # the field slots
    for name in value._fields + ("unknown",):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value and repr(copied) == text


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Interval(math.nan, 1.0), ValueError, "invalid interval endpoints [nan, 1.0]"),
        (lambda: Interval(0.0, math.nan), ValueError, "invalid interval endpoints [0.0, nan]"),
        (lambda: Interval(2.0, 1.0), ValueError, "invalid interval endpoints [2.0, 1.0]"),
        (lambda: Interval(math.inf, math.inf), ValueError, "interval may not be a point at infinity"),
        (lambda: Interval(-math.inf, -math.inf), ValueError, "interval may not be a point at infinity"),
        (lambda: Box(()), ValueError, "box must have dimension >= 1"),
        (lambda: StepErrorBounds(**{**_BOUNDS, "Hp": -1e-300}), ValueError, "bounds must be nonnegative"),
        (lambda: VectorModel(()), ValueError, "vector model needs at least one component"),
        (
            lambda: VectorModel((_MODEL, PolynomialModel(_VARS[:1], {}, 0.0, 3))),
            ArityMismatchError,
            "vector model components disagree on variables",
        ),
        (lambda: StepGeometry(0.0, 0.0), ValueError, "step size must be positive"),
        (lambda: StepGeometry(0.0, -0.1), ValueError, "step size must be positive"),
        (lambda: PiecewiseConstant((0.0, 1.0), (1.0, 2.0)), ValueError, "need one more breakpoint than values"),
        (lambda: PiecewiseConstant((0.0, 0.0), (1.0,)), ValueError, "breakpoints must be increasing"),
    ],
)
def test_immutable_value_validation(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_interval_accepts_every_valid_pair():
    """The one chained comparison accepts every valid pair, infinite
    endpoints and signed zeros included, and keeps the endpoints as given."""
    for lo, hi in ((-math.inf, math.inf), (-math.inf, -1.0), (1.0, math.inf), (-0.0, 0.0), (2.0, 2.0)):
        iv = Interval(lo, hi)
        assert (iv.lo, iv.hi) == (lo, hi)
