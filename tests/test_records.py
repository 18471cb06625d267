"""The record classes: construction, pickling, immutability and value equality.

The records are plain classes with a hand-written __init__, so importing
gclab generates and compiles no code of its own; the guard below runs the
import in a fresh interpreter.
"""

import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gclab
from gclab.convolution import FilterTensor, SpectralResponse, WeightStack
from gclab.graph import Graph
from gclab.lmgc import CoefficientScheme, ComputationalGraphSet, LmgcLayer, Variant
from gclab.spectral import SpectralBasis, Spectrum
from gclab.train import ExperimentConfig, TrialResult
from gclab.verify import MultisetInstance, TrialReport

IMPORT_GUARD = """
import importlib, sys
from pathlib import Path
import numpy  # numpy loads none of the three modules and runs no generated code, so what follows is gclab's

generated = []
def hook(event, args):
    if event == "exec" and not getattr(args[0], "co_filename", ".py").endswith(".py"):
        generated.append(args[0].co_filename)
sys.addaudithook(hook)
import gclab
for path in sorted(Path(gclab.__file__).parent.glob("*.py")):
    if path.stem not in ("__init__", "__main__"):  # __main__ runs the command line
        importlib.import_module(f"gclab.{path.stem}")
loaded = sorted({"dataclasses", "json", "multiprocessing"} & set(sys.modules))
import json
print(json.dumps([loaded, generated]))
"""


def test_import_loads_no_dataclasses_or_multiprocessing_and_execs_no_generated_code():
    src = Path(gclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[[], []]"


def instance(shift=0):
    return MultisetInstance((1 + shift, -1), ((0, 2), (3, 3)))


def path_graph():
    return Graph(3, frozenset({(0, 1), (1, 2)}))


# each record's fields in constructor order, with values other than the defaults
FIELDS = {
    Graph: lambda: {"n": 3, "edges": frozenset({(0, 1), (1, 2)})},
    Spectrum: lambda: {"eigenvalues": np.array([0.0, 1.0, 2.0])},
    SpectralBasis: lambda: {"eigenvalues": np.array([0.0, 1.0, 2.0]), "eigenvectors": np.eye(3)},
    FilterTensor: lambda: {"values": np.arange(6.0).reshape(3, 2, 1), "basis_id": "0123456789abcdef"},
    WeightStack: lambda: {"matrices": np.arange(6.0).reshape(3, 1, 2)},
    SpectralResponse: lambda: {"eigenvalues": np.array([0.0, 2.0]), "response": np.array([1.0, -1.0])},
    CoefficientScheme: lambda: {"variant": Variant.FAGCN_TANH, "k": 1, "vectors": ((0.5, -0.5),), "seed": 7},
    ComputationalGraphSet: lambda: {"matrices": path_graph().adjacency[None] + np.eye(3), "graph": path_graph(),
                                    "allow_diagonal": True},
    LmgcLayer: lambda: {"weights": np.arange(4.0).reshape(1, 2, 2),
                        "scheme": CoefficientScheme(Variant.GCN_NORM, 1)},
    ExperimentConfig: lambda: {"n": 8, "d": 2, "c": 3, "p": 0.5, "steps": 10, "lr": 0.01, "seed": 5, "run": 1},
    TrialResult: lambda: {"method": "gin", "lr": 0.01, "seed": 5, "run": 1, "steps": 10, "min_mse": 0.25,
                          "wall_seconds": 1.5, "diverged": True},
    MultisetInstance: lambda: {"center": (1, -1), "elements": ((0, 2), (3, 3))},
    TrialReport: lambda: {"kind": "injectivity", "k": 1, "d": 2, "c": 2, "trials": 10, "violations": 0,
                          "min_separation": 0.5, "witness_pair": 3, "witness_a": instance(),
                          "witness_b": instance(1)},
}
DEFAULTS = {
    CoefficientScheme: {"vectors": (), "seed": 0},
    ComputationalGraphSet: {"allow_diagonal": False},
    ExperimentConfig: {"n": 16, "d": 16, "c": 16, "p": 0.1, "steps": 40000, "lr": 0.03,
                       "seed": gclab.REFERENCE_INSTANCE_SEED, "run": 0},
    TrialResult: {"diverged": False},
}
# a field and another value for it, for the records compared by value
CHANGED = {
    Graph: ("edges", frozenset({(0, 1)})),
    CoefficientScheme: ("seed", 8),
    ExperimentConfig: ("run", 2),
    TrialResult: ("min_mse", 0.5),
    MultisetInstance: ("center", (1, 1)),
    TrialReport: ("violations", 1),
}
RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def plain(value):
    """value with every record replaced by its class name and fields, for np.testing.assert_equal."""
    if isinstance(value, tuple(FIELDS)):
        return type(value).__name__, {k: plain(v) for k, v in vars(value).items() if not k.startswith("_")}
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


@RECORDS
def test_signature_is_the_fields_in_order_with_their_defaults(cls):
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(FIELDS[cls]())
    defaults = {name: p.default for name, p in parameters.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})


@RECORDS
@pytest.mark.parametrize("by", ["position", "keyword"])
def test_construction_sets_every_field(cls, by):
    fields = FIELDS[cls]()
    record = cls(*fields.values()) if by == "position" else cls(**fields)
    assert all(getattr(record, name) is value for name, value in fields.items())
    assert repr(record).startswith(f"{cls.__name__}({next(iter(fields))}=")


@RECORDS
def test_pickle_round_trip_keeps_the_fields(cls):
    record = cls(**FIELDS[cls]())
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    np.testing.assert_equal(plain(copy), plain(record))


@RECORDS
def test_frozen_records_reject_assignment_and_deletion(cls):
    fields = FIELDS[cls]()
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is fields[name]


@pytest.mark.parametrize("cls", list(CHANGED), ids=lambda cls: cls.__name__)
def test_value_records_compare_by_value(cls):
    a, b = cls(**FIELDS[cls]()), cls(**FIELDS[cls]())
    assert a == b and not a != b
    name, other = CHANGED[cls]
    assert a != cls(**{**FIELDS[cls](), name: other})
    assert a != object()


def fresh(value):
    """value with every array copied and every tuple and record rebuilt around the copies."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, tuple):
        return tuple(map(fresh, value))
    if isinstance(value, tuple(FIELDS)):
        return type(value)(**{k: fresh(v) for k, v in vars(value).items() if not k.startswith("_")})
    return value


def array_scheme():
    """CoefficientScheme's fields with its gating vectors as arrays."""
    return {"variant": Variant.FAGCN_TANH, "k": 1, "vectors": (np.array([0.5, -0.5]),), "seed": 7}


@pytest.mark.parametrize("cls, fields", [*FIELDS.items(), (CoefficientScheme, array_scheme)],
                         ids=[*(cls.__name__ for cls in FIELDS), "CoefficientScheme-arrays"])
def test_records_compare_and_hash_by_value_arrays_included(cls, fields):
    a, b = cls(**fields()), cls(**{k: fresh(v) for k, v in fields().items()})
    assert a == b and not a != b and hash(a) == hash(b)
    for k, value in fields().items():
        changed = fresh(value)
        first = changed[0] if isinstance(changed, tuple) and changed else changed
        if isinstance(first, np.ndarray):
            first.reshape(-1)[0] += 1.0  # the first entry: on the diagonal or an edge where a record checks support
            assert a != cls(**{**fields(), k: changed}), k


def test_scalar_records_keep_their_tuple_hashes():
    assert hash(instance()) == hash(((1, -1), ((0, 2), (3, 3))))
    result = TrialResult(**FIELDS[TrialResult]())
    assert hash(result) == hash(tuple(FIELDS[TrialResult]().values()))


def test_graph_equality_ignores_its_cache():
    g = path_graph()
    _ = g.adjacency, g.neighbors  # fill the cache
    assert g == path_graph() and hash(g) == hash(path_graph())


def test_multiset_instances_work_as_set_members():
    members = {instance(), instance(), instance(1)}
    assert len(members) == 2
    assert instance() in members and MultisetInstance((9, 9), ()) not in members
