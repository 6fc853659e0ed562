"""The front end's memory: IR nodes carry no instance dict, and every
intermediate is freed by reference counting, never by the cyclic collector.
Also what the IR node classes promise the passes: frozen dataclass
semantics, and no subclasses to slip past their exact-type dispatch.
"""

import contextlib
import dataclasses
import gc
import importlib
import inspect
import pkgutil
import random
import tracemalloc

import pytest

import vspec
from vspec.marabou import interpret_verdicts
from vspec.pipeline import compile_spec
from vspec.verifier import check_query


def _generated_spec(count: int, seed: int = 0) -> str:
    """``count`` properties over the four-ReLU net, each with a tensor
    quantifier, a definition applied to its variable and a DNF hypothesis;
    every fifth is existential."""
    rng = random.Random(seed)
    lines = [
        "type InputVector = Tensor Rat [2]",
        "network net : InputVector -> Rat",
        "inBox : InputVector -> Prop",
        "inBox x = -1 <= x ! 0 <= 1 and -1 <= x ! 1 <= 1",
    ]
    for j in range(count):
        a, b = rng.choice(("-0.5", "0", "0.25")), rng.choice(("-0.25", "0", "0.5"))
        t = rng.randint(0, 12)
        if j % 5 == 4:
            body = f"exists (x : InputVector) . inBox x and net x >= {t}"
            body += f" and (x ! 0 <= {a} or x ! 1 >= {b})"
        else:
            body = f"forall (x : InputVector) . inBox x and (x ! 0 <= {a} or x ! 1 >= {b})"
            body += f" => net x <= {t}"
        lines += [f"p{j} : Prop", f"p{j} = {body}"]
    return "\n\n".join(lines) + "\n"


@contextlib.contextmanager
def _collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _compile_and_solve(spec, networks) -> None:
    compiled = compile_spec(spec, networks)
    for plan in compiled.plans:
        interpret_verdicts(plan, (check_query(q, compiled.ctx) for q in plan.queries))


@pytest.mark.parametrize("case", ["controller", "four-relu", "generated"])
def test_compile_and_solve_leave_no_cyclic_garbage(
    case, tmp_path, controller_spec, controller_net, four_relu_spec, four_relu_net
):
    if case == "controller":
        spec, networks = controller_spec, {"controller": str(controller_net)}
    elif case == "four-relu":
        spec, networks = four_relu_spec, {"net": str(four_relu_net)}
    else:
        spec, networks = tmp_path / "generated.vcl", {"net": str(four_relu_net)}
        spec.write_text(_generated_spec(5))
    _compile_and_solve(spec, networks)  # first imports and caches
    gc.collect()
    with _collector_off():
        _compile_and_solve(spec, networks)
        assert gc.collect() == 0


def _frozen_dataclasses() -> list[type]:
    classes = set()
    for info in pkgutil.walk_packages(vspec.__path__, "vspec."):
        if info.name == "vspec.__main__":  # runs the command line when imported
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                classes.add(cls)
    return sorted(classes, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_frozen_dataclasses_make_instances_without_a_dict():
    classes = _frozen_dataclasses()
    names = {cls.__qualname__ for cls in classes}
    assert {"Expr", "Builtin", "SExpr", "SBinOp", "TensorT", "QVar", "_Binder"} <= names
    assert {"LPConstraint", "PropertyStatus", "NetworkInfo"} <= names
    assert [cls for cls in classes if hasattr(cls.__new__(cls), "__dict__")] == []


def test_frozen_dataclasses_exist_once():
    """The generated ``__setattr__`` and ``__delattr__`` of a slotted class
    hold no other class than it and ``FrozenInstanceError``: not the class
    that ``slots=True`` rebuilt, which would stay alive as a second copy."""
    held = {
        cls: {
            cell.cell_contents
            for name in ("__setattr__", "__delattr__")
            for cell in getattr(cls, name).__closure__ or ()
            if isinstance(cell.cell_contents, type)
        }
        - {cls, dataclasses.FrozenInstanceError}
        for cls in _frozen_dataclasses()
    }
    assert {cls: other for cls, other in held.items() if other} == {}


def _sample(cls) -> tuple[list, list]:
    """Distinct hashable values for the fields of ``cls``, and its defaults."""
    values = [f"{f.name}-{i}" for i, f in enumerate(dataclasses.fields(cls))]
    defaults = [
        f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
    ]
    return values, defaults


def test_frozen_dataclasses_keep_the_dataclass_guarantees():
    """``types.frozen_dataclass`` generates its own ``__init__``: it must
    construct what ``dataclass`` would, and the instances stay frozen."""
    for cls in _frozen_dataclasses():
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        values, defaults = _sample(cls)
        positional = cls(*values)
        keyword = cls(**dict(zip(names, values)))
        assert positional == keyword, cls
        assert hash(positional) == hash(keyword) == hash(tuple(values)), cls
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
        assert repr(positional) == repr(keyword) == f"{cls.__qualname__}({shown})", cls
        if defaults:
            required = values[: len(values) - len(defaults)]
            assert cls(*required) == cls(*required, *defaults), cls
            assert repr(cls(*required)) == repr(cls(*required, *defaults)), cls
        reference = dataclasses.make_dataclass(
            cls.__name__, [(f.name, f.type, f.default) for f in fields], frozen=True
        )
        assert inspect.signature(cls) == inspect.signature(reference), cls
        for name in names + ["not_a_field"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(positional, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(positional, name)
        assert [getattr(positional, n) for n in names] == values, cls


def test_qvars_still_order():
    from vspec.queries import QVar

    assert QVar("x", 2) < QVar("y", 0) and QVar("y", 0) > QVar("x", 9)
    assert QVar("x", 1) <= QVar("x", 1) < QVar("x", 2)
    shuffled = [QVar("y", 1), QVar("x", 3), QVar("y", 0), QVar("x", 0)]
    assert sorted(shuffled) == [QVar("x", 0), QVar("x", 3), QVar("y", 0), QVar("y", 1)]


def test_dispatched_node_classes_have_no_subclass():
    """The passes dispatch on ``type(node) is Cls``, which a subclass of
    ``Cls`` would slip past; so no node class may have one.  The bases
    ``Expr``, ``SExpr``, ``SType`` and ``VType`` are never dispatched on."""
    from vspec import core, networks, normalise, queries, surface, typecheck, types

    _frozen_dataclasses()  # imports every module, so every subclass exists
    bases = (core.Expr, surface.SExpr, surface.SType, types.VType)
    nodes = {
        cls
        for module in (core, surface, types, normalise)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, bases) and cls not in bases
    }
    nodes |= {queries.QVar, typecheck._UVar, networks.Affine, networks.Relu}
    names = {cls.__qualname__ for cls in nodes}
    assert {"Builtin", "Var", "SNum", "SIndex", "TensorT", "_Level", "_Binder"} <= names
    assert {cls: cls.__subclasses__() for cls in nodes if cls.__subclasses__()} == {}


def _compile_peak(spec, networks) -> int:
    """The ``tracemalloc`` peak of one ``compile_spec`` call, in bytes."""
    compile_spec(spec, networks)  # first imports and caches
    tracemalloc.start()
    try:
        compile_spec(spec, networks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compile_peak_memory_scales_linearly_with_the_properties(tmp_path, four_relu_net):
    # Deterministic: the collector is off, so the peak does not depend on
    # when it would have run.
    networks = {"net": str(four_relu_net)}
    peaks = []
    with _collector_off():
        for count in (100, 200):
            spec = tmp_path / f"props{count}.vcl"
            spec.write_text(_generated_spec(count))
            peaks.append(_compile_peak(spec, networks))
    small, large = peaks
    assert large / small <= 2.2, (small, large)
