"""The type policy applied to every typed field of the config classes."""

from dataclasses import fields

import pytest

from duolink import ChannelParams, EstimatorConfig, TrialConfig, VVConfig

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
