"""The one copy of every input rule, for config fields and boundary
arguments: each rule raises ValueError naming the value."""

import math
from numbers import Real

import numpy as np

from . import _blocks


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


def at_least(name: str, value, low, below=math.inf) -> None:
    """low <= value < below; NaN is rejected."""
    if not low <= value < below:
        bound = f">= {low}" if below == math.inf else f"in [{low}, {below:g})"
        raise ValueError(f"{name} must be {bound}")


def positive(name: str, value) -> None:
    """value > 0; NaN is rejected."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0")


def same_shape(**arrays: np.ndarray) -> None:
    """Arrays of one shape, passed by name; the message lists their lengths
    (the shape of an array that is not 1-D)."""
    if len({a.shape for a in arrays.values()}) > 1:
        dims = [a.size if a.ndim == 1 else a.shape for a in arrays.values()]
        raise ValueError(f"{', '.join(arrays)} lengths differ: {dims}")


def one_d(**arrays: np.ndarray) -> None:
    """Arrays of one dimension, passed by name; the message gives the shape."""
    for name, a in arrays.items():
        if a.ndim != 1:
            raise ValueError(f"{name} must be a 1-D array, got shape {a.shape}")


def finite(**arrays: np.ndarray) -> None:
    """Arrays, passed by name, holding no NaN or infinity; read a block of
    _blocks at a time, so that no array-sized mask is made."""
    for name, a in arrays.items():
        flat = a.reshape(-1)
        if not all(np.isfinite(flat[b]).all() for b in _blocks.blocks(0, flat.size)):
            raise ValueError(f"{name} must be finite")


def quadrants(**arrays: np.ndarray) -> None:
    """Arrays of quadrant indices, passed by name: an integer dtype (bool
    arrays are rejected) and values in 0..3."""
    for name, a in arrays.items():
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"{name} must be an array of integers, got dtype {a.dtype}")
        if a.size and (a.min() < 0 or a.max() > 3):
            raise ValueError(f"{name} must hold quadrant indices in 0..3")


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
    """Apply the rule of each dataclass field whose annotation _rule reads;
    a checked numpy scalar is stored as the Python number it holds, so that
    the field serializes as JSON."""
    for f in obj.__dataclass_fields__.values():
        rule = _rule(f.type)
        if rule is not None:
            value = getattr(obj, f.name)
            rule(f.name, value)
            if isinstance(value, np.generic):
                setattr(obj, f.name, value.item())
