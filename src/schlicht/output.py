"""Deterministic serialization helpers.

Floats are always printed with a fixed 15-significant-digit scientific
format instead of shortest-round-trip repr, so identical computations
produce byte-identical JSON/CSV across runs; golden-file tests rely on
that.  Negative zero is normalized away, and inf/nan are refused, since
JSON has no token for them.
"""

import math
from dataclasses import fields
from json.encoder import encode_basestring

from .errors import NonFiniteOutput


class JsonFields:
    """Mixin for a dataclass whose JSON document is its fields, in order.

    A field that holds a report is written as that report's document.
    """

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteOutput(f"refusing to write the non-finite value {x}")
    if x == 0.0:
        x = 0.0  # drops the sign of -0.0
    return f"{x:.14e}"


def parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def fixed_json_dumps(obj) -> str:
    """JSON text with fixed float formatting and insertion field order.

    An object with a to_json_dict method is written as that document.
    """
    return _json(obj)


def _json(obj) -> str:
    # recursing here rather than through fixed_json_dumps keeps one call of
    # the public name per document, which is what perfbench's tracer counts
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = (f"{encode_basestring(str(key))}:{_json(value)}"
                 for key, value in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_json, obj)) + "]"
    if hasattr(obj, "to_json_dict"):
        return _json(obj.to_json_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__}")
