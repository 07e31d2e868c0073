"""The contract of the package's frozen record classes.

Each record is built by position or by keyword with the signature below,
compares and hashes by its fields, prints as ``Name(field=value, ...)``,
refuses assignment and deletion, and survives pickle and copy. Records that
hold arrays are compared field by field; their hash raises TypeError, as an
array's does.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from lagfrac import (
    ErrorReport,
    InterpolantCoeffs,
    IvpSpec,
    LaguerreParams,
    LinearSystem,
    OrderFunction,
    QuadratureRule,
    gauss_rule,
)
from lagfrac.exprs import BinOp, Call, Neg, Num, Pi, Var

PARAMS = LaguerreParams(1.0, 2.0)
# module-level ufuncs pickle by name, unlike lambdas
ORDER = OrderFunction(np.tanh, 0.25, 0.75)
NODES = gauss_rule(PARAMS, 4).nodes

# (class, positional arguments, the signature's parameter names)
CASES = {
    "LaguerreParams": (LaguerreParams, (1.0, 2.0), ["theta", "beta"]),
    "QuadratureRule": (QuadratureRule, (PARAMS, NODES), ["params", "nodes"]),
    "InterpolantCoeffs": (InterpolantCoeffs, (PARAMS, [1.0, 2.0]), ["params", "coeffs"]),
    "OrderFunction": (OrderFunction, (np.tanh, 0.25, 0.75), ["eval", "rho_min", "rho_max"]),
    "IvpSpec": (IvpSpec, (PARAMS, 6, ORDER, 1, np.cos, np.sin, np.exp, np.tanh, 0.5),
                ["params", "N", "order", "m", "a", "b", "c", "f", "u0", "v0"]),
    "LinearSystem": (LinearSystem, ([[2.0, 1.0], [0.0, 3.0]], [1.0, 4.0]),
                     ["matrix", "rhs"]),
    "ErrorReport": (ErrorReport, (6, PARAMS, 1e-12, 101, 1.0),
                    ["N", "params", "max_abs_error", "grid_size", "domain_length"]),
    "Num": (Num, (2.5,), ["value"]),
    "Var": (Var, (), []),
    "Pi": (Pi, (), []),
    "Neg": (Neg, (Var(),), ["operand"]),
    "BinOp": (BinOp, ("+", Num(1.0), Var()), ["op", "left", "right"]),
    "Call": (Call, ("sin", Var()), ["name", "arg"]),
}
HOLD_ARRAYS = {"QuadratureRule", "InterpolantCoeffs", "LinearSystem"}
# every field a record shows, in order, including the ones its class derives
FIELDS = {name: params for name, (_, _, params) in CASES.items()}
FIELDS["QuadratureRule"] = ["params", "nodes", "weights", "basis", "norms"]


def build(name, by_keyword=False):
    cls, args, params = CASES[name]
    return cls(**dict(zip(params, args))) if by_keyword else cls(*args)


def assert_same_fields(name, got, expected):
    assert type(got) is type(expected)
    for field in FIELDS[name]:
        a, b = getattr(got, field), getattr(expected, field)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
            assert a.shape == b.shape, field
        else:
            assert a == b, field


@pytest.mark.parametrize("name", CASES)
def test_construction_by_position_and_keyword_agree(name):
    assert_same_fields(name, build(name, by_keyword=True), build(name))


@pytest.mark.parametrize("name", CASES)
def test_signature_names_the_fields(name):
    cls, _, params = CASES[name]
    assert list(inspect.signature(cls).parameters) == params


def test_ivp_spec_v0_defaults_to_none():
    parameter = inspect.signature(IvpSpec).parameters["v0"]
    assert parameter.default is None
    assert build("IvpSpec").v0 is None


@pytest.mark.parametrize("name", CASES)
def test_equal_values_compare_and_hash_equal(name):
    a, b = build(name), build(name, by_keyword=True)
    if name in HOLD_ARRAYS:
        # one record equals itself; hashing its arrays fails, as an array's hash does
        assert a == a
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and not a != b
        assert hash(a) == hash(b)


def test_equality_goes_by_class_and_fields():
    assert Pi() != Var()
    assert Num(1.0) != Num(2.0)
    assert BinOp("+", Num(1.0), Var()) != BinOp("-", Num(1.0), Var())
    assert LaguerreParams(1.0, 2.0) != (1.0, 2.0)
    assert LaguerreParams(1, 2) == LaguerreParams(1.0, 2.0)


def test_repr_text():
    assert repr(PARAMS) == "LaguerreParams(theta=1.0, beta=2.0)"
    assert repr(build("BinOp")) == "BinOp(op='+', left=Num(value=1.0), right=Var())"
    assert repr(Call("sin", Neg(Pi()))) == "Call(name='sin', arg=Neg(operand=Pi()))"
    assert repr(ORDER) == "OrderFunction(eval=<ufunc 'tanh'>, rho_min=0.25, rho_max=0.75)"
    assert repr(build("ErrorReport")) == (
        "ErrorReport(N=6, params=LaguerreParams(theta=1.0, beta=2.0), "
        "max_abs_error=1e-12, grid_size=101, domain_length=1.0)")
    assert repr(build("IvpSpec")) == (
        f"IvpSpec(params={PARAMS!r}, N=6, order={ORDER!r}, m=1, a=<ufunc 'cos'>, "
        "b=<ufunc 'sin'>, c=<ufunc 'exp'>, f=<ufunc 'tanh'>, u0=0.5, v0=None)")
    coeffs = build("InterpolantCoeffs")
    assert repr(coeffs) == f"InterpolantCoeffs(params={PARAMS!r}, coeffs={coeffs.coeffs!r})"
    rule = build("QuadratureRule")
    assert repr(rule) == (
        f"QuadratureRule(params={PARAMS!r}, nodes={rule.nodes!r}, weights={rule.weights!r}, "
        f"basis={rule.basis!r}, norms={rule.norms!r})")
    system = build("LinearSystem")
    assert repr(system) == f"LinearSystem(matrix={system.matrix!r}, rhs={system.rhs!r})"


@pytest.mark.parametrize("name", CASES)
def test_assignment_and_deletion_raise(name):
    record = build(name)
    for field in FIELDS[name] + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert_same_fields(name, record, build(name))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("round_trip", [
    lambda record: pickle.loads(pickle.dumps(record)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trips(name, round_trip):
    record = build(name)
    again = round_trip(record)
    assert_same_fields(name, again, record)
    if name not in HOLD_ARRAYS:
        assert again == record and hash(again) == hash(record)
