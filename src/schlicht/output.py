"""Deterministic serialization helpers.

Floats are always printed with a fixed 15-significant-digit scientific
format instead of shortest-round-trip repr, so identical computations
produce byte-identical JSON/CSV across runs; golden-file tests rely on
that.  Negative zero is normalized away, and inf/nan are refused, since
JSON has no token for them.
"""

import math

from .errors import NonFiniteOutput


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
    """JSON text with fixed float formatting and insertion field order."""
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
        return _json_string(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = (f"{_json_string(str(key))}:{_json(value)}"
                 for key, value in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_json, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        # nothing to escape: every key and most values
        return f'"{text}"'
    chars = (_ESCAPES.get(ch) or (f"\\u{ord(ch):04x}" if ord(ch) < 0x20 else ch)
             for ch in text)
    return '"' + "".join(chars) + '"'
