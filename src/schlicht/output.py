"""Deterministic serialization helpers.

Floats are always printed with a fixed 15-significant-digit scientific
format instead of shortest-round-trip repr, so identical computations
produce byte-identical JSON/CSV across runs; golden-file tests rely on
that.  Negative zero is normalized away, and inf/nan are refused, since
JSON has no token for them.
"""

import io
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
    out = io.StringIO()
    _emit(obj, out)
    return out.getvalue()


def _emit(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, str):
        _emit_string(obj, out)
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(format_float(obj))
    elif isinstance(obj, dict):
        out.write("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.write(",")
            _emit_string(str(key), out)
            out.write(":")
            _emit(value, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, value in enumerate(obj):
            if i:
                out.write(",")
            _emit(value, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _emit_string(text: str, out) -> None:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        # nothing to escape: every key and most values
        out.write(f'"{text}"')
        return
    out.write('"')
    for ch in text:
        if ch in _ESCAPES:
            out.write(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.write(f"\\u{ord(ch):04x}")
        else:
            out.write(ch)
    out.write('"')


def csv_rows(header, rows) -> str:
    """Tiny CSV writer: fields are pre-formatted strings, comma-joined."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
