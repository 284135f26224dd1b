"""Deterministic serialization helpers.

Floats are always printed with a fixed 15-significant-digit scientific
format instead of shortest-round-trip repr, so identical computations
produce byte-identical JSON/CSV across runs; perfbench's reference
compare and the README's byte-determinism contract rely on that.
Negative zero is normalized away, and inf/nan are refused, since JSON
has no token for them.  format_column formats a float column with one
finiteness check and one -0.0 normalization for all of it.  CSV and
table rows are written from such columns, and so are the row lists of
JSON documents: a JsonTable holds columns of JSON tokens and is written
with one row template, while the rest of a document goes through the
recursive writer.
"""

import math
from json.encoder import encode_basestring
from typing import NamedTuple, Sequence

import numpy as np

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


def format_column(values: np.ndarray) -> list[str]:
    """format_float of every entry of a float array, in order; the first
    non-finite entry is refused as format_float refuses it."""
    finite = np.isfinite(values)
    if not finite.all():
        format_float(values[~finite][0])
    return [f"{x:.14e}" for x in (values + 0.0).tolist()]  # + 0.0 drops the sign of -0.0


def parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


class JsonTable(NamedTuple):
    """A JSON list of rows given as columns of JSON tokens, one per key.

    With keys every row is an object of those keys in order, without keys
    an array.  Each token is already JSON text: a float through
    format_column, an int through str, a string through encode_basestring,
    or null, true or false.
    """

    keys: Sequence[str] | None
    columns: Sequence[Sequence[str]]

    def to_json(self) -> str:
        """The rows, each one % template applied to its tokens."""
        if self.keys is None:
            template = "[" + ",".join(["%s"] * len(self.columns)) + "]"
        else:
            fields = [encode_basestring(key).replace("%", "%%") + ":%s" for key in self.keys]
            template = "{" + ",".join(fields) + "}"
        return "[" + ",".join(map(template.__mod__, zip(*self.columns))) + "]"


def fixed_json_dumps(obj) -> str:
    """JSON text with fixed float formatting and insertion field order.

    An object with a to_json_dict method is written as that document, and
    a JsonTable as its rows.
    """
    return _json(obj)


def _json(obj) -> str:
    # recursing here rather than through fixed_json_dumps keeps one call of
    # the public name per document, which is what perfbench's tracer counts
    if isinstance(obj, float):
        return format_float(obj)
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
        items = (f"{encode_basestring(str(key))}:{_json(value)}" for key, value in obj.items())
        return "{" + ",".join(items) + "}"
    # exact types: a NamedTuple such as JsonTable is a tuple but is not
    # written as one
    if type(obj) is list or type(obj) is tuple:
        return "[" + ",".join([_json(value) for value in obj]) + "]"
    if type(obj) is JsonTable:
        return obj.to_json()
    if hasattr(obj, "to_json_dict"):
        return _json(obj.to_json_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__}")
