"""The one type policy for config fields and boundary arguments: each rule
raises ValueError naming the value."""

import math
from numbers import Real

import numpy as np


def integer(name: str, value) -> None:
    """An int or numpy integer; bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


def integer_array(name: str, value: np.ndarray) -> None:
    """An array of an integer dtype; bool arrays are rejected."""
    if not np.issubdtype(value.dtype, np.integer):
        raise ValueError(f"{name} must be an array of integers, got dtype {value.dtype}")


def number(name: str, value) -> None:
    """A finite real number; bools and ints too large for a float are rejected."""
    if isinstance(value, bool) or not isinstance(value, Real) or not _finite(value):
        raise ValueError(f"{name} must be a finite number")


def _finite(value: Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def flag(name: str, value) -> None:
    """A bool or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false")


_RULES = {"int": integer, "float": number, "bool": flag}


def _rule(annotation: str):
    """The check for an annotation built from "int", "float" and "bool" with
    "X | None" and "tuple[X, ...]" (fixed length); None for any other."""
    if annotation.endswith(" | None"):
        inner = _rule(annotation[: -len(" | None")])
        if inner is None:
            return None

        def check_optional(name, value):
            if value is not None:
                inner(name, value)

        return check_optional
    if annotation.startswith("tuple[") and annotation.endswith("]"):
        items = [_rule(a) for a in annotation[len("tuple["):-1].split(", ")]
        if None in items:
            return None

        def check_tuple(name, value):
            if not isinstance(value, tuple) or len(value) != len(items):
                raise ValueError(f"{name} must be a list of {len(items)}")
            for i, (item, v) in enumerate(zip(items, value)):
                item(f"{name}[{i}]", v)

        return check_tuple
    return _RULES.get(annotation)


def check_fields(obj) -> None:
    """Apply the rule of each dataclass field whose annotation _rule reads."""
    for f in obj.__dataclass_fields__.values():
        rule = _rule(f.type)
        if rule is not None:
            rule(f.name, getattr(obj, f.name))
