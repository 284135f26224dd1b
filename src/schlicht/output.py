"""Deterministic serialization helpers.

Floats are always printed with a fixed 15-significant-digit scientific
format instead of shortest-round-trip repr, so identical computations
produce byte-identical JSON/CSV across runs; perfbench's reference
compare and the README's byte-determinism contract rely on that.
Negative zero is normalized away, and inf/nan are refused, since JSON
has no token for them.  The JSON writer formats each distinct float
once per document, as a sweep repeats its margins on every row.
"""

import math
from json.encoder import encode_basestring

from .errors import NonFiniteOutput


class JsonFields:
    """Mixin for a dataclass whose JSON document is its fields, in order.

    A field that holds a report is written as that report's document.
    """

    def to_json_dict(self) -> dict:
        # the class's field table, not dataclasses.fields(self), which
        # builds a tuple of fields on every call
        return {name: getattr(self, name) for name in type(self).__dataclass_fields__}


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
    return _json(obj, {})


def _json(obj, floats: dict) -> str:
    # floats holds the text of each distinct float of one document, since a
    # sweep repeats its margin prefix on every row.  Recursing here rather
    # than through fixed_json_dumps keeps one call of the public name per
    # document, which is what perfbench's tracer counts.
    if isinstance(obj, float):
        # np.float64 is a float subclass that hashes and compares equal to
        # the same Python float, so one entry serves both; -0.0 == 0.0, and
        # both print as 0.
        text = floats.get(obj)
        if text is None:
            text = floats[obj] = format_float(obj)
        return text
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
    if isinstance(obj, dict):
        items = (f"{encode_basestring(str(key))}:{_json(value, floats)}"
                 for key, value in obj.items())
        return "{" + ",".join(items) + "}"
    # exact types: a NamedTuple record such as BoundResult is a tuple but
    # is written as its document
    if type(obj) is list or type(obj) is tuple:
        return "[" + ",".join([_json(value, floats) for value in obj]) + "]"
    if hasattr(obj, "to_json_dict"):
        return _json(obj.to_json_dict(), floats)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
