"""The one type policy for config fields and boundary arguments: each rule
raises ValueError naming the value."""

import math
from numbers import Real

import numpy as np


def integer(name: str, value) -> None:
    """An int or numpy integer; bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


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


def check_fields(obj) -> None:
    """Apply the rule of each dataclass field annotated "int", "float" or "bool"."""
    for f in obj.__dataclass_fields__.values():
        rule = _RULES.get(f.type)
        if rule is not None:
            rule(f.name, getattr(obj, f.name))
