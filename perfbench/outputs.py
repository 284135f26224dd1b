"""Parsing of op stdout and comparison against reference outputs.

Every op's stdout must parse in its declared format, and a non-finite
number anywhere in it is a failure: JSON gets no Infinity/NaN constants
(the bare token `inf` is not JSON at all), and csv/table fields that read
as floats must be finite.
"""

import json
import math
import re

# Numeric leaves agree when within this relative tolerance; the absolute
# floor keeps values at roundoff level (a certification gap of 1e-16, a
# slack of 1e-17) from flagging when summation order changes.
REL_TOL = 1e-9
ABS_TOL = 1e-12

_INT = re.compile(r"[+-]?\d+")


class OutputError(ValueError):
    """Stdout does not parse, or holds a non-finite number."""


def _reject_constant(token):
    raise OutputError(f"non-finite JSON constant {token}")


def _field(token: str):
    if _INT.fullmatch(token):
        return int(token)
    try:
        value = float(token)
    except ValueError:
        return token
    if not math.isfinite(value):
        raise OutputError(f"non-finite field {token!r}")
    return value


def parse_output(text: str, fmt: str):
    """JSON document, or a list of rows (header first) for csv and table."""
    if fmt == "json":
        try:
            return json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as err:
            raise OutputError(f"stdout is not JSON: {err}") from None
    if not text.endswith("\n"):
        raise OutputError(f"{fmt} output does not end with a newline")
    lines = text[:-1].split("\n")
    rows = [line.split(",") if fmt == "csv" else line.split() for line in lines]
    width = len(rows[0])
    if width == 0 or any(len(row) != width for row in rows):
        raise OutputError(f"{fmt} rows do not all have {width} fields")
    return [rows[0]] + [[_field(t) for t in row] for row in rows[1:]]


def compare(actual, expected, path: str = "$") -> str | None:
    """First difference between two parsed outputs, or None.

    Floats compare within REL_TOL (with the ABS_TOL floor); integers,
    strings, booleans and null compare exactly, and so does structure.
    """
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        ok = type(actual) is type(expected) and actual == expected
    elif isinstance(expected, int):
        ok = type(actual) is int and actual == expected
    elif isinstance(expected, float):
        ok = type(actual) is float and math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL
        )
    elif isinstance(expected, dict):
        if not isinstance(actual, dict) or list(actual) != list(expected):
            return f"{path}: keys {list(actual) if isinstance(actual, dict) else actual!r}"
        for key, value in expected.items():
            diff = compare(actual[key], value, f"{path}.{key}")
            if diff:
                return diff
        return None
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            diff = compare(a, e, f"{path}[{i}]")
            if diff:
                return diff
        return None
    else:
        raise TypeError(f"unexpected reference leaf {expected!r}")
    return None if ok else f"{path}: {actual!r} != {expected!r}"
