"""The type policy applied to every typed field of the config classes."""

from dataclasses import dataclass, fields

import pytest

from duolink import ChannelParams, EstimatorConfig, TrialConfig, VVConfig, _checks

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
