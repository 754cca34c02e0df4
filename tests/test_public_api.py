"""The package namespace exports exactly the names its callers import, the
value types keep their contract, and the benchmark tracer's hooks resolve."""

import ast
import importlib.util
import json
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import splinezeros
from splinezeros import GeneratorConfig, Polynomial, Spline, VectorConfig
from splinezeros.errors import (
    DegreeError,
    DimensionError,
    KnotOrderError,
    RankDeficiencyError,
)
from splinezeros.linalg import RationalMatrix

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splinezeros"
CALLERS = (sorted((ROOT / "demos").glob("*.py")) + [PACKAGE / "cli.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))
SUBMODULES = {info.name for info in pkgutil.iter_modules(splinezeros.__path__)}


def names_imported_from_package(path: Path) -> set[str]:
    """Names bound by `from splinezeros import ...` (or `from . import ...`
    inside the package), submodules not counted."""
    inside = path.parent == PACKAGE
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        absolute = node.level == 0 and node.module == "splinezeros"
        relative = inside and node.level == 1 and node.module is None
        if absolute or relative:
            names.update(alias.name for alias in node.names)
    return names - SUBMODULES


def test_all_is_exactly_what_callers_import():
    assert CALLERS and all(path.exists() for path in CALLERS)
    used = set().union(*map(names_imported_from_package, CALLERS))
    assert len(splinezeros.__all__) == len(set(splinezeros.__all__))
    assert set(splinezeros.__all__) == used
    assert all(hasattr(splinezeros, name) for name in splinezeros.__all__)


def test_runtime_imports_only_the_standard_library():
    """Every import in the package is relative or names a stdlib module, so
    the runtime keeps ``dependencies = []``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (
                    path.name, module)


def test_import_loads_neither_dataclasses_nor_inspect():
    """The value types are namedtuples, so a fresh ``import splinezeros``
    (site hooks off) pulls in neither module."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import splinezeros; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# (instance, field, bad value, error) for each type whose constructor checks
# its fields
VALIDATED = [
    (Spline(1, (0, 1), (Polynomial(),) * 3), "knots", (1, 0), KnotOrderError),
    (VectorConfig(2, ((1, 0), (0, 1))), "vectors", ((1, 0), (0, 0)),
     RankDeficiencyError),
    (RationalMatrix(1, 1, (Fraction(2),)), "rows", -1, DimensionError),
    (GeneratorConfig(seed=1, degree=2, interior_knots=3), "degree", 0,
     DegreeError),
]


@pytest.mark.parametrize("value, field, bad, error", VALIDATED,
                         ids=[type(case[0]).__name__ for case in VALIDATED])
def test_validated_value_types(value, field, bad, error):
    """_replace checks like the constructor, pickling round-trips through
    it, fields cannot be assigned, and repr names every field."""
    with pytest.raises(error):
        value._replace(**{field: bad})
    assert value._replace() == value
    assert type(value._make(value)) is type(value)
    restored = pickle.loads(pickle.dumps(value))
    assert restored == value and type(restored) is type(value)
    with pytest.raises(AttributeError):
        setattr(value, field, bad)
    name = type(value).__name__
    assert repr(value) == name + "(" + ", ".join(
        f"{f}={getattr(value, f)!r}" for f in value._fields) + ")"


def _tracer_layers():
    """LAYERS of the benchmark tracer, loaded from its file unchanged."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _tracer_layers()


@pytest.mark.parametrize("module_name, attribute, span", LAYERS,
                         ids=[span for _, _, span in LAYERS])
def test_tracer_layers_resolve(module_name, attribute, span, monkeypatch):
    """Every hook the benchmark tracer wraps exists, so ``--trace 1`` can
    install it. Spline.__post_init__ is wrapped on the class and must run
    exactly once per construction, or the spline.Spline row would miscount."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, name)), span
    if attribute == "Spline.__post_init__":
        calls = []
        check = Spline.__post_init__
        monkeypatch.setattr(Spline, "__post_init__",
                            lambda self: calls.append(check(self)))
        Spline(1, (0, 1), (Polynomial(),) * 3)._replace(knots=(0, 2))
        assert len(calls) == 2


SUITE_LAYERS = ("harness.random_spline", "spline.Spline", "spline.normalize",
                "spline.separated_zero_count")
EXTENSION_LAYERS = SUITE_LAYERS + ("bspline.extend_compact",)
LAYERS_BY_KIND = {
    "theorem9": SUITE_LAYERS,
    "prop5": EXTENSION_LAYERS,
    "corollary10": SUITE_LAYERS,
    "extension": EXTENSION_LAYERS,
    "rolle": EXTENSION_LAYERS + ("spline.spline_derivative",),
}


def traced_op(body: str) -> dict:
    """Layer metrics of one op running body in a fresh process, with the
    benchmark tracer loaded from its file unchanged and installed first."""
    code = f"""
import importlib.util, json, sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", {str(ROOT / "perfbench" / "tracer.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import splinezeros
tracer = tracing.Tracer()
tracer.install()
tracer.begin_op(0)
{body}
tracer.end_op()
print(json.dumps(tracer.layer_metrics()))
"""
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout)
    assert metrics["bench.op.calls"] == 1
    return metrics


@pytest.mark.parametrize("kind", LAYERS_BY_KIND)
def test_tracer_installs_and_sees_suite_traffic(kind):
    """``run.py --trace 1`` installs the tracer into the imported package.
    In a fresh process the install finds every hook, and one op of a suite
    kind reaches each layer that kind calls through the names the tracer
    wrapped, so a suite that kept its own reference to a layer function
    fails here."""
    metrics = traced_op(f"""
from splinezeros import GeneratorConfig, run_verification_suite
cfg = GeneratorConfig(seed=1, degree=3, interior_knots=3)
assert run_verification_suite({kind!r}, cfg, 2).violations == 0
""")
    for span in LAYERS_BY_KIND[kind]:
        assert metrics[f"{span}.calls"] > 0, span


def test_tracer_sees_box_spline_traffic():
    """The box-spline and Bareiss spans see conjecture and evaluation
    traffic through the names the tracer wrapped: A_X of the three-direction
    mesh is 7 x 7, and a planar and a 1-D evaluation run beside it."""
    metrics = traced_op("""
from splinezeros import box_spline_eval, conjecture_verdict, parse_vector_config
assert conjecture_verdict(parse_vector_config("1,0;1,1;0,1")).determinant != 0
assert box_spline_eval(parse_vector_config("1,0;0,1;1,1;1,-1"), ("1/2", 1)) > 0
assert box_spline_eval(parse_vector_config("1;1;1"), ("3/2",)) > 0
""")
    for span in ("boxspline.box_spline_eval",
                 "boxspline.semi_integral_interior_points",
                 "boxspline.conjecture_matrix", "linalg.mat_determinant"):
        assert metrics[f"{span}.calls"] > 0, span
    assert metrics["linalg.mat_determinant.max_order"] == 7
