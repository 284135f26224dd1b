"""output.Table, the one writer of row lists, against the per-cell references.

A table of drawn columns, of every kind, is written as JSON rows (objects
or arrays), as CSV and as a right-aligned text table, and compared with
conftest.reference_json and conftest.reference_rows, which write one cell
at a time.  A non-finite float is refused as format_float refuses it, in
every format: the first one in row order among all float columns, written
by the format or not.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from schlicht.errors import NonFiniteOutput
from schlicht.output import JSON, Column, Table, fixed_json_dumps, format_float

from conftest import reference_json, reference_rows

# keys, names and strings with the characters that JSON or a % template escape
TEXT = st.text(alphabet='ab_"\\%s,é\n', max_size=6)
# mostly finite; -0.0 prints as 0
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, math.inf, -math.inf, math.nan]))
# a JSON cell is the text of one of these, written by the reference
JSON_VALUES = st.one_of(st.none(), st.integers(), st.lists(st.integers(), max_size=3))
CELLS = {int: st.one_of(st.none(), st.integers()), str: TEXT, float: FLOATS,
         bool: st.booleans(), JSON: JSON_VALUES}


@st.composite
def tables(draw):
    """A Table and, per column, its cells as the references take them."""
    rows = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(list(CELLS)), max_size=6))
    keys = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    columns, cells = [], []
    for kind, key in zip(kinds, keys):
        values = draw(st.lists(CELLS[kind], min_size=rows, max_size=rows))
        cells.append(values)
        if kind == JSON:  # JSON text, or a function that returns it
            values = list(map(reference_json, values))
            if draw(st.booleans()):
                values = (lambda values: lambda: values)(values)
        columns.append(Column(draw(st.one_of(st.none(), st.just(key))), kind, values,
                              draw(st.one_of(st.none(), TEXT)), draw(st.integers(0, 25))))
    return Table(columns, draw(st.booleans())), cells, rows


def _outcome(write) -> tuple[str, str]:
    try:
        return "written", write()
    except NonFiniteOutput as err:
        return "refused", str(err)


def _refusal(table, cells, rows) -> tuple[str, str] | None:
    """format_float's refusal of the first non-finite float in row order."""
    floats = [values for column, values in zip(table.columns, cells) if column.kind is float]
    bad = [values[r] for r in range(rows) for values in floats if not math.isfinite(values[r])]
    return _outcome(lambda: format_float(bad[0])) if bad else None


def _expected_json(table, cells, rows) -> tuple[str, str]:
    keyed = [(column.key, values) for column, values in zip(table.columns, cells)
             if column.key is not None]
    rows = rows if keyed else 0  # the rows are those of the columns written
    if table.arrays:
        doc = [[values[r] for _, values in keyed] for r in range(rows)]
    else:
        doc = [{key: values[r] for key, values in keyed} for r in range(rows)]
    return _outcome(lambda: '{"rows":' + reference_json(doc) + "}")


def _expected_text(table, cells, rows, fmt) -> tuple[str, str]:
    named = [(column, values) for column, values in zip(table.columns, cells)
             if column.name is not None]
    rows = rows if named else 0
    # reference_rows writes other cells as their str(): a bool as Python's
    # True, a JSON cell as the value it holds
    text = {bool: lambda v: "true" if v else "false", JSON: reference_json}
    lines = [[text[column.kind](values[r]) if column.kind in text else values[r]
              for column, values in named] for r in range(rows)]
    return _outcome(lambda: reference_rows([column.name for column, _ in named],
                                           [column.width for column, _ in named], lines, fmt))


@settings(max_examples=300, deadline=None)
@given(drawn=tables())
# every kind: None in an int column, '"', '\' and '%' in a key, a name and
# a str cell, -0.0, bools, JSON text; the second row's floats are inf in
# one column and nan in a later one, and inf is named in every format
@example(drawn=(Table((
    Column("n", int, [1, None, 3], "n", 3),
    Column('x"%s', str, ['a"b', "c\\%s", ""], 'x"\\%_k', 6),
    Column("v", float, [-0.0, math.inf, 2.5], "v_bound", 22),
    Column("flag", bool, [True, False, True]),
    Column("w", float, [1.0, math.nan, 0.5], "w", 22),
    Column("pair", JSON, ["[7,1]", "null", "[7,3]"]),
)), [[1, None, 3], ['a"b', "c\\%s", ""], [-0.0, math.inf, 2.5], [True, False, True],
     [1.0, math.nan, 0.5], [[7, 1], None, [7, 3]]], 3))
# the same table without its non-finite row writes in every format
@example(drawn=(Table((
    Column("n", int, [1, None], "n", 3),
    Column('x"%s', str, ['a"b', "c\\%s"], 'x"\\%_k', 6),
    Column("v", float, [-0.0, 2.5], "v_bound", 22),
    Column("flag", bool, [True, False]),
    Column("pair", JSON, ["[7,1]", "null"]),
)), [[1, None], ['a"b', "c\\%s"], [-0.0, 2.5], [True, False], [[7, 1], None]], 2))
# the JSON rows as arrays, a CSV-only column left out of them
@example(drawn=(Table((Column(None, int, [0, 1], "k"), Column("re", float, [0.5, -0.0], "re"),
                       Column("im", float, [-0.0, 1e300], "im")), arrays=True),
                [[0, 1], [0.5, -0.0], [-0.0, 1e300]], 2))
# a float column that JSON alone writes is refused in CSV and text too
@example(drawn=(Table((Column("n", int, [1], "n"), Column("v", float, [math.inf]))),
                [[1], [math.inf]], 1))
# an empty table, with and without columns
@example(drawn=(Table((Column("n", int, [], "n"), Column("v", float, [], "v", 4))),
                [[], []], 0))
@example(drawn=(Table(()), [], 0))
def test_table_writes_every_kind_in_every_format(drawn):
    table, cells, rows = drawn
    refusal = _refusal(table, cells, rows)
    assert _outcome(lambda: fixed_json_dumps({"rows": table})) == (
        refusal or _expected_json(table, cells, rows))
    for fmt, write in (("csv", lambda: table.to_text(csv=True)), ("table", table.to_text)):
        assert _outcome(write) == (refusal or _expected_text(table, cells, rows, fmt))


def test_table_rows_in_json_csv_and_text():
    table = Table((Column("n", int, [1, 2], "n", 3), Column('x"%s', str, ["a", "b"], "x_k", 3),
                   Column("k", int, [None, 4], "crossover_k", 3),
                   Column("v", float, [-0.0, 0.5]), Column("ok", bool, [True, False], "ok", 5)))
    assert fixed_json_dumps(table) == (
        '[{"n":1,"x\\"%s":"a","k":null,"v":0.00000000000000e+00,"ok":true},'
        '{"n":2,"x\\"%s":"b","k":4,"v":5.00000000000000e-01,"ok":false}]')
    assert fixed_json_dumps({"rows": replace(table, arrays=True)}) == (
        '{"rows":[[1,"a",null,0.00000000000000e+00,true],[2,"b",4,5.00000000000000e-01,false]]}')
    assert table.to_text(csv=True) == "n,x_k,crossover_k,ok\n1,a,,true\n2,b,4,false\n"
    assert table.to_text() == "  n   k   k    ok\n  1   a   -  true\n  2   b   4 false\n"
    assert fixed_json_dumps(Table((Column("n", int, [], "n"),))) == "[]"
