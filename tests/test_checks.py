"""The type policy applied to every typed field of the config classes, and
the 1-D rule applied to every stream argument."""

import re
from dataclasses import dataclass, fields

import numpy as np
import pytest

from duolink import (
    ChannelParams,
    EstimatorConfig,
    TrialConfig,
    VVConfig,
    _checks,
    apply_channel,
    estimate_delay,
    extract_phase,
)

REQUIRED = {TrialConfig: {"n_symbols": 1000}}

# Wrong values per annotated type. The type name is read from the class when
# the annotation is not a string, so these cases survive annotation changes
# that would make the library's string matching miss a field.
WRONG = {
    "int": [True, "1"],
    "float": [True, "1", float("nan")],
    "bool": [1, "true"],
}

CASES = [
    pytest.param(cls, f.name, value,
                 id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in (ChannelParams, VVConfig, EstimatorConfig, TrialConfig)
    for f in fields(cls)
    for value in WRONG.get(getattr(f.type, "__name__", f.type), [])
]


def test_every_typed_field_is_covered():
    checked = {(cls.__name__, name) for cls, name, _ in (c.values for c in CASES)}
    assert len(checked) == 15


@pytest.mark.parametrize("cls,name,value", CASES)
def test_wrong_type_rejected_naming_field(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{**REQUIRED.get(cls, {}), name: value})


def test_int_beyond_float_range_is_not_a_finite_number():
    _checks.number("x", 10**308)
    with pytest.raises(ValueError, match="x must be a finite number"):
        _checks.number("x", 10**400)


@dataclass
class Composite:
    pair: "tuple[int, int]"
    optional_pair: "tuple[float, float] | None"
    optional_count: "int | None"
    unread: "tuple[int, str]"


GOOD = dict(pair=(1, 2), optional_pair=(0.5, 1.0), optional_count=3, unread=(1, "a"))


@pytest.mark.parametrize("name,value", [
    ("pair", 5),
    ("pair", [1, 2]),
    ("pair", (1,)),
    ("pair", (1, 2, 3)),
    ("pair", (1, True)),
    ("optional_pair", (0.5, "1")),
    ("optional_pair", (0.5, float("inf"))),
    ("optional_count", 1.0),
])
def test_tuple_and_optional_annotations_checked(name, value):
    with pytest.raises(ValueError, match=name):
        _checks.check_fields(Composite(**{**GOOD, name: value}))


def test_none_and_unread_annotations_accepted():
    _checks.check_fields(Composite(**GOOD))
    _checks.check_fields(Composite(**{**GOOD, "optional_pair": None, "optional_count": None,
                                      "unread": None}))


N = 8

# Each stream argument given an array of the shape passed in, the others
# valid 1-D arrays of its size.
STREAM_ARGUMENTS = {
    "tx1": lambda a: apply_channel(a.astype(np.uint8), a.astype(np.uint8), ChannelParams()),
    "tx2": lambda a: apply_channel(np.zeros(a.size, np.uint8), a.astype(np.uint8),
                                   ChannelParams()),
    "phase": lambda a: apply_channel(np.zeros(a.size, np.uint8), np.zeros(a.size, np.uint8),
                                     ChannelParams(), phase=a),
    "samples": lambda a: extract_phase(a.astype(complex), VVConfig(window=1)),
    "trace1": lambda a: estimate_delay(a, a, 0),
    "trace2": lambda a: estimate_delay(np.zeros(a.size), a, 0),
}


@pytest.mark.parametrize("shape", [(), (3, 4), (N, 1)], ids=str)
@pytest.mark.parametrize("name", STREAM_ARGUMENTS)
def test_stream_argument_must_be_one_dimensional(name, shape):
    """A stream that is not 1-D is named with its shape, not left to fail
    in numpy's broadcasting or indexing."""
    a = np.zeros(shape)
    message = f"{name} must be a 1-D array, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        STREAM_ARGUMENTS[name](a)
