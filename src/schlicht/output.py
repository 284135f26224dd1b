"""Deterministic serialization helpers.

Floats are always printed with a fixed 15-significant-digit scientific
format instead of shortest-round-trip repr, so identical computations
produce byte-identical JSON/CSV across runs; perfbench's reference
compare and the README's byte-determinism contract rely on that.
Negative zero is normalized away, and inf/nan are refused, since JSON
has no token for them.  Every row list, of a JSON document, CSV or a
text table, is a Table of typed columns, written with one % template per
row; the floats of all its columns go through one format_column call,
interleaved, so the first non-finite float refused is the first in row
order.  The rest of a JSON document goes through the recursive writer,
which writes a record, a NamedTuple, as the object of its fields.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteOutput


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


JSON = "json"  # the kind of a column whose cells are JSON text already


class Column(NamedTuple):
    """A Table column: its JSON key, the kind of its cells (int or None,
    str, float, bool or JSON), its cells (for JSON, maybe a function that
    returns them), and its CSV name, which a text table cuts to its last
    word (crossover_k is k) and right-aligns to width.  Without a key the
    column is not written in JSON, without a name not in CSV or text."""

    key: str | None
    kind: type | str
    values: Sequence | Callable[[], Sequence]
    name: str | None = None
    width: int = 0


@dataclass
class Table:
    """Rows of typed columns, written as JSON objects (arrays when arrays
    is true), CSV or text, one % template per row: an int as its str()
    and None as null, "" or -, a str as it is (a JSON string in JSON), a
    bool as true or false, JSON text as it is and a float through floats."""

    columns: Sequence[Column]
    arrays: bool = False

    @cached_property
    def floats(self) -> dict[int, list[str]]:
        """The cells of each float column, by column index, formatted once
        for every format by one format_column call, interleaved, so the
        first non-finite float refused is the first in row order."""
        index = [i for i, c in enumerate(self.columns) if c.kind is float]
        parts = format_column(np.array([self.columns[i].values for i in index]).T.ravel())
        return {i: parts[offset :: len(index)] for offset, i in enumerate(index)}

    def to_json(self) -> str:
        fields = ["%s" if self.arrays else encode_basestring(c.key).replace("%", "%%") + ":%s"
                  for c in self.columns if c.key is not None]
        template = ("[%s]" if self.arrays else "{%s}") % ",".join(fields)
        return "[" + ",".join(self._rows(template, "key", "null", encode_basestring)) + "]"

    def to_text(self, csv: bool = False) -> str:
        """CSV, or a text table of right-aligned columns."""
        columns = [c for c in self.columns if c.name is not None]
        titles = tuple(c.name if csv else c.name.rpartition("_")[2] for c in columns)
        template = ("," if csv else " ").join(["%s" if csv else f"%{c.width}s" for c in columns])
        template += "\n"
        return template % titles + "".join(self._rows(template, "name", "" if csv else "-", None))

    def _rows(self, template: str, field: str, null: str, quote) -> map:
        """template applied to each row of the columns whose field is set,
        None written as null and a str through quote when there is one."""
        floats, cells = self.floats, []
        for i, column in enumerate(self.columns):
            if getattr(column, field) is None:
                continue
            values = floats[i] if column.kind is float else column.values
            values = values() if callable(values) else values
            if column.kind is int and None in values:
                values = [null if value is None else value for value in values]
            elif column.kind is str and quote:
                values = map(quote, values)
            elif column.kind is bool:
                values = ["true" if value else "false" for value in values]
            cells.append(values)
        return map(template.__mod__, zip(*cells))


def fixed_json_dumps(obj) -> str:
    """JSON text with fixed float formatting and insertion field order.

    A Table is written as its rows, a record (a NamedTuple) as the object
    of its fields in order, and an object with a to_json_dict method as
    that document.
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
    # exact types: a NamedTuple is a tuple but is not written as one
    if type(obj) is list or type(obj) is tuple:
        return "[" + ",".join([_json(value) for value in obj]) + "]"
    if type(obj) is Table:
        return obj.to_json()
    if hasattr(obj, "_asdict"):
        return _json(obj._asdict())
    if hasattr(obj, "to_json_dict"):
        return _json(obj.to_json_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__}")
