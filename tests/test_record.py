import copy
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import apmopt
from apmopt import (AssetPortfolio, BRule, DiscretePayoff, DistributionSpec, FactorStrategy,
                    GrowthBounds, MarketModel, MeasureReport, ModelSpec, OptimizationReport,
                    SolverConfig, TiltedMeasure, Utility, appendix_power, build_market,
                    rademacher)
from apmopt._record import Record
from apmopt.config import ExperimentConfig
from apmopt.market import AssumptionVerdict, NoArbitrageVerdict
from apmopt.measures import CoordinateTilt
from apmopt.optimize import LevelResult
from apmopt.utility import GrowthVerdict

RADEMACHER = rademacher()
MODEL = build_market(1, 2, [-0.1, -0.05], [[0.0]], [1.0, 1.0], RADEMACHER)
LEVEL = LevelResult(2, np.array([0.1, 0.2]), 0.01, 1e-9, 5, True)
TILT = CoordinateTilt("logistic_tilt", -0.2, 1.0, 0.0, None)

# each record class: (positional arguments, keyword arguments, a change that
# its checks refuse or None).  SolverConfig().replace(max_iter=-1) and
# appendix_power(0.5).replace(kind="nope") are among the changes.  The
# arguments leave some defaults out, so that binding them to the signature
# shows which defaults it fills in
SAMPLES = {
    DistributionSpec: (("finite_discrete", (-1.0, 1.0), (0.5, 0.5)), {},
                       {"probs": (0.5, 0.6)}),
    BRule: ((), {}, {"kind": "nope"}),
    ModelSpec: ((1, 2, (-0.1, -0.05), ((0.0,),), (1.0, 1.0)),
                {"noise": (RADEMACHER, RADEMACHER)}, {"K": 0}),
    MarketModel: ((), {"spec": MODEL.spec, "b": MODEL.b, "M": MODEL.M}, None),
    AssetPortfolio: (((0.5, -0.5),), {}, {"psi": (1.0, 0.0)}),
    FactorStrategy: ((np.array([0.5, -0.25]),), {}, {"phi": "x"}),
    AssumptionVerdict: (("holds", np.array([0.01, 0.0125])), {}, None),
    NoArbitrageVerdict: ((True, ()), {}, None),
    GrowthBounds: ((0.5, 1.5), {"C1": 1.0, "C2": 2.0}, {"alpha": 1.0}),
    Utility: (("appendix_power", 0.5), {}, {"kind": "nope"}),
    GrowthVerdict: ((True,), {}, None),
    DiscretePayoff: (((-1.0, 2.0), (2 / 3, 1 / 3)), {}, {"probs": (0.5,)}),
    SolverConfig: ((), {}, {"max_iter": -1}),
    LevelResult: ((2, np.array([0.1, 0.2]), 0.01, 1e-9, 5, True), {}, None),
    OptimizationReport: (((LEVEL,), ()), {}, None),
    CoordinateTilt: (("logistic_tilt", -0.2, 1.0, 0.0, None), {}, None),
    TiltedMeasure: ((MODEL, (TILT,)), {}, None),
    MeasureReport: (({"dQ/dP": {2.0: 1.1}}, (1.0,), 0.5), {}, None),
    ExperimentConfig: ((MODEL, appendix_power(0.5), SolverConfig(), 0.5, (2.0,),
                        "exact", 0, 0, "out"), {}, None),
}
# records that hold an array or a dict, directly or in a field's record:
# they compare equal but, as under dataclass, do not hash
UNHASHABLE = {MarketModel, FactorStrategy, AssumptionVerdict, LevelResult,
              OptimizationReport, TiltedMeasure, MeasureReport, ExperimentConfig}


def _records() -> list[type]:
    """Every Record subclass defined in one of the package's modules."""
    found = set()
    for info in pkgutil.iter_modules(apmopt.__path__):
        module = importlib.import_module(f"apmopt.{info.name}")
        found.update(v for v in vars(module).values()
                     if isinstance(v, type) and issubclass(v, Record) and v is not Record
                     and v.__module__ == module.__name__)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


def _same(a, b) -> bool:
    return a is b or (not isinstance(a, np.ndarray) and a == b)


@pytest.mark.parametrize("cls", _records(), ids=lambda c: c.__name__)
def test_record_contract(cls):
    assert cls in SAMPLES, f"{cls.__name__} needs a sample"
    args, kwargs, bad = SAMPLES[cls]
    r = cls(*args, **kwargs)
    names = cls.__match_args__
    values = [getattr(r, n) for n in names]

    # frozen: no field, nor any other attribute, can be set or deleted
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
    with pytest.raises(AttributeError):
        delattr(r, names[0])
    assert getattr(r, names[0]) is values[0]

    # equal fields: equal records, and equal hashes where the fields hash
    twin = cls(*args, **kwargs)
    assert twin is not r and twin == r and not twin != r
    assert r != tuple(values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(twin) == hash(r)

    # dataclass's repr text
    assert repr(r) == (f"{cls.__qualname__}("
                       + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")")

    # a missing, unknown, duplicate or extra argument
    if any(p.default is inspect.Parameter.empty
           for p in inspect.signature(cls).parameters.values()):
        with pytest.raises(TypeError, match="missing"):
            cls()
    with pytest.raises(TypeError, match="unexpected"):
        cls(*args, **kwargs, nope=1)
    with pytest.raises(TypeError, match="multiple"):
        cls(values[0], **{names[0]: values[0]})
    with pytest.raises(TypeError, match="too many"):
        cls(*values, None)

    # the signature lists the fields, in order, with the defaults __init__
    # fills in
    sig = inspect.signature(cls)
    assert tuple(sig.parameters) == names
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    assert list(bound.arguments) == list(names)
    assert all(_same(bound.arguments[n], v) for n, v in zip(names, values))

    # replace keeps every other field and runs the checks again
    changed = r.replace(**{names[-1]: values[-1]})
    assert type(changed) is cls and changed is not r
    assert all(getattr(changed, n) is v for n, v in zip(names, values))
    with pytest.raises(TypeError):
        r.replace(nope=1)
    if bad is not None:
        with pytest.raises(ValueError):
            r.replace(**bad)

    # pickle and both copies rebuild the record through __init__
    built = []
    init = cls.__init__

    def counted(self, *a, **k):
        built.append(self)
        init(self, *a, **k)
    for round_trip in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cls, "__init__", counted)
            back = round_trip(r)
        assert type(back) is cls and back is not r and built[-1] is back
        assert repr(back) == repr(r)
