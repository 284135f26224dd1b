"""JSON sweep documents against the recursive reference writer.

The CLI writes the row lists of `bound`, `classify`, `extremal` (its
coefficients and certification) and `report` (its bounds and sharpness)
as output.Tables, typed columns joined by one row template.
Here the same documents are built in their record shape, one dict per
row from reduction_sweep, case_sweep and ComplexSeries.to_json_dict, and
written by conftest.reference_json; stdout, stderr and the exit status
must be the same, refusals of a non-finite bound included.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schlicht import ClassParams, ExtremalSpec, build_extremal, reduce_subclass
from schlicht.bounds import reduction_sweep
from schlicht.cli import main
from schlicht.errors import NonFiniteOutput
from schlicht.extremals import sharpness_record
from schlicht.params import Reduction, case_sweep

from conftest import bound_document, draw_valid_params, reference_json


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _expected(doc) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of writing doc as the reference does."""
    try:
        return 0, reference_json(doc) + "\n", ""
    except NonFiniteOutput as err:
        return 2, "", f"error: {err}\n"


def _class_argv(p) -> list[str]:
    return [f"--gamma={p.gamma.real!r},{p.gamma.imag!r}", f"--lambda={p.lam!r}",
            f"--A={p.a!r}", f"--B={p.b!r}"]


def _bound_doc(red, lo: int, hi: int) -> dict:
    return {"params": red.params, "cauchy_euler": red.cauchy_euler,
            "results": [bound_document(r) for r in reduction_sweep(red, lo, hi)]}


# ranges start past n = 2; a drawn class that reaches case III does so by
# n = 6, so ranges from lo <= 6 cross from case II into it
SWEEPS = dict(seed=st.integers(0, 2**32 - 1), lo=st.integers(3, 12),
              width=st.integers(0, 80))


@settings(max_examples=40, deadline=None)
@given(klass=st.sampled_from(["S", "K"]), m=st.integers(2, 4),
       mu=st.floats(-0.9, 3, allow_nan=False), **SWEEPS)
def test_bound_json_equals_the_record_document(klass, m, mu, seed, lo, width):
    p = draw_valid_params(np.random.default_rng(seed))
    kw = dict(gamma=p.gamma, lam=p.lam, a=p.a, b=p.b)
    argv = ["bound", "--class", klass, *_class_argv(p), "--n", f"{lo}:{lo + width}"]
    if klass == "K":
        kw.update(m=m, mu=mu)
        argv += ["--m", str(m), f"--mu={mu!r}"]
    red = reduce_subclass(klass, **kw)
    assert _run(argv) == _expected(_bound_doc(red, lo, lo + width))


@pytest.mark.parametrize("klass, gamma, transfer, hi", [
    ("S", 1000.0, {}, 300),  # inf from n = 220 on
    ("K", 200.0, {"m": 600, "mu": 0.0}, 700),  # the first non-finite bound is nan, at 687
], ids=["inf", "nan"])
def test_bound_json_refuses_the_first_non_finite_row(klass, gamma, transfer, hi):
    p = ClassParams(gamma, 0.0, 1.0, -1.0)
    red = reduce_subclass(klass, gamma=p.gamma, lam=p.lam, a=p.a, b=p.b, **transfer)
    argv = ["bound", "--class", klass, *_class_argv(p), "--n", f"3:{hi}",
            *[f"--{name}={value!r}" for name, value in transfer.items()]]
    expected = _expected(_bound_doc(red, 3, hi))
    assert expected[0] == 2
    assert _run(argv) == expected


@settings(max_examples=40, deadline=None)
@given(**SWEEPS)
# case II through n = 5, case III from n = 6 on
@example(seed=8, lo=3, width=20)
def test_classify_json_equals_the_record_document(seed, lo, width):
    p = draw_valid_params(np.random.default_rng(seed))
    hi = lo + width
    margins, cases = case_sweep(p, lo, hi)
    doc = {"params": p, "classification": [
        {"n": n, "case": tag, "crossover_k": k, "margins": margins[: n - 2]}
        for n, (tag, k) in zip(range(lo, hi + 1), cases)
    ]}
    argv = ["classify", *_class_argv(p), "--n", f"{lo}:{hi}"]
    assert _run(argv) == _expected(doc)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["case-ii", "case-i"]),
       order=st.integers(2, 64), lo=st.integers(2, 10), width=st.integers(0, 10))
def test_extremal_json_equals_the_record_document(seed, kind, order, lo, width):
    p = draw_valid_params(np.random.default_rng(seed))
    hi = lo + width
    spec = ExtremalSpec(kind, p, max(order, hi), n=hi if kind == "case-i" else None)
    f = build_extremal(spec)
    first = hi if kind == "case-i" else lo
    doc = {
        "kind": kind,
        "params": p,
        "cauchy_euler": None,
        "order": spec.order,
        "series": f.to_json_dict(),
        "certification": [sharpness_record(b, f)
                          for b in reduction_sweep(Reduction(p), first, hi)],
    }
    argv = ["extremal", *_class_argv(p), "--kind", kind, "--n", f"{lo}:{hi}",
            "--order", str(order)]
    assert _run(argv) == _expected(doc)


@pytest.mark.parametrize("seed", [1, 2])  # cases II and III, and cases I and II
def test_report_bounds_equal_the_record_rows(seed):
    p = draw_valid_params(np.random.default_rng(seed))
    status, out, err = _run(["report", *_class_argv(p), "--n", "2:12", "--samples", "5",
                             "--seed", "1"])
    bounds = reduction_sweep(Reduction(p), 2, 12)
    rows = [bound_document(r) for r in bounds]
    case_ii = build_extremal(ExtremalSpec("case-ii", p, 64))
    sharpness = []
    for r in bounds:
        if r.case_tag == "I":
            kind, f = "case-i", build_extremal(ExtremalSpec("case-i", p, r.n, n=r.n))
        else:
            kind, f = "case-ii", case_ii
        sharpness.append({"extremal_kind": kind, **sharpness_record(r, f).to_json_dict()})
    assert (status, err) == (0, "")
    assert (f',"bounds":{reference_json(rows)},"sharpness":{reference_json(sharpness)},'
            '"membership":') in out

