"""CSV and table output against the per-cell reference writer.

The CLI formats each float column once and writes every row with one %
template; conftest.reference_rows writes the same text one cell at a time,
here from the per-index bound and case references.  A sweep with a
non-finite bound must be refused as the reference refuses it: exit 2,
nothing on stdout, and the same first non-finite value named.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from schlicht import ClassParams, ExtremalSpec, build_extremal, reduce_subclass
from schlicht.cli import main
from schlicht.errors import NonFiniteOutput

from conftest import reference_bound, reference_case, reference_cauchy_euler, reference_rows

BOUND_HEADER = ("n", "case", "crossover_k", "bound", "sharp")
BOUND_WIDTHS = (4, 4, 4, 22, 8)


def _expected(header, widths, rows, fmt) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of writing rows as the reference does."""
    try:
        return 0, reference_rows(header, widths, rows, fmt), ""
    except NonFiniteOutput as err:
        return 2, "", f"error: {err}\n"


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _class_argv(gamma: complex, lam: float, a: float, b: float) -> list[str]:
    return [f"--gamma={gamma.real!r},{gamma.imag!r}", f"--lambda={lam!r}", f"--A={a!r}",
            f"--B={b!r}"]


def _gamma(g_re, g_im, scale) -> complex:
    gamma = scale * complex(g_re, g_im)
    return gamma if abs(gamma) >= 1e-6 else 1.0


CLASS_DRAWS = dict(
    g_re=st.floats(-4, 4, allow_nan=False),
    g_im=st.floats(-4, 4, allow_nan=False),
    lam=st.floats(0, 1, allow_nan=False),
    b=st.one_of(st.just(-1.0), st.just(0.0), st.floats(-1, 0.98, allow_nan=False)),
    gap=st.floats(0.02, 2, allow_nan=False),
    lo=st.integers(2, 200),
    width=st.integers(0, 120),
    # larger seeds move the case-III crossover out; 250 with B = -1 overflows
    # the case-II products before n = 300
    scale=st.sampled_from([1.0, 8.0, 40.0, 250.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["S", "K", "B"]),
    m=st.integers(2, 4),
    mu=st.floats(-0.9, 3, allow_nan=False),
    beta=st.floats(0, 0.99, allow_nan=False),
    fmt=st.sampled_from(["csv", "table"]),
    **CLASS_DRAWS,
)
# crossover k = 7 below lo = 20
@example(name="S", m=2, mu=0.0, beta=0.0, fmt="table", g_re=0.0, g_im=6.0, lam=0.5,
         b=-0.2, gap=1.0, lo=20, width=20, scale=1.0)
@example(name="K", m=3, mu=0.5, beta=0.0, fmt="csv", g_re=0.0, g_im=6.0, lam=0.5,
         b=-0.2, gap=1.0, lo=20, width=20, scale=1.0)
# the benchmark's refused sweep: inf from n = 220 on
@example(name="S", m=2, mu=0.0, beta=0.0, fmt="table", g_re=1.0, g_im=0.0, lam=0.0,
         b=-1.0, gap=2.0, lo=2, width=298, scale=1000.0)
def test_bound_rows_equal_the_reference_writer(name, m, mu, beta, fmt, g_re, g_im, lam, b,
                                               gap, lo, width, scale):
    gamma = _gamma(g_re, g_im, scale)
    hi = min(lo + width, 300)
    argv = ["bound", "--class", name, "--n", f"{lo}:{hi}", "--format", fmt]
    if name == "B":
        red = reduce_subclass("B", gamma=gamma, lam=lam, beta=beta, mu=mu)
        argv += [f"--gamma={gamma.real!r},{gamma.imag!r}", f"--lambda={lam!r}",
                 f"--beta={beta!r}", f"--mu={mu!r}"]
    else:
        a = min(b + gap, 1.0)
        red = reduce_subclass("S", gamma=gamma, lam=lam, a=a, b=b)
        argv += _class_argv(gamma, lam, a, b)
        if name == "K":
            red = reduce_subclass("K", gamma=gamma, lam=lam, a=a, b=b, m=m, mu=mu)
            argv += ["--m", str(m), f"--mu={mu!r}"]
    p, ce = red.params, red.cauchy_euler
    rows = []
    for n in range(lo, hi + 1):
        case, k, value = reference_bound(p, n)
        if ce is not None:
            value = reference_cauchy_euler(p, ce, n)
        rows.append((n, case, k, value, "unknown" if case == "III" else "true"))
    assert _run(argv) == _expected(BOUND_HEADER, BOUND_WIDTHS, rows, fmt)


@settings(max_examples=30, deadline=None)
@given(**CLASS_DRAWS)
@example(g_re=0.0, g_im=6.0, lam=0.5, b=-0.2, gap=1.0, lo=20, width=20, scale=1.0)
def test_classify_table_equals_the_reference_writer(g_re, g_im, lam, b, gap, lo, width,
                                                    scale):
    p = ClassParams(_gamma(g_re, g_im, scale), lam, min(b + gap, 1.0), b)
    hi = lo + width
    rows = [(n, *reference_case(p, n)[:2]) for n in range(lo, hi + 1)]
    argv = ["classify", *_class_argv(p.gamma, p.lam, p.a, p.b), "--n", f"{lo}:{hi}",
            "--format", "table"]
    assert _run(argv) == _expected(("n", "case", "k"), (4, 4, 4), rows, "table")


@settings(max_examples=30, deadline=None)
@given(
    g_re=st.floats(-2, 2, allow_nan=False),
    g_im=st.floats(-2, 2, allow_nan=False),
    lam=st.floats(0, 1, allow_nan=False),
    b=st.one_of(st.just(-1.0), st.just(0.0), st.floats(-1, 0.98, allow_nan=False)),
    gap=st.floats(0.02, 2, allow_nan=False),
    order=st.integers(2, 64),
)
# a real class: every imaginary part is 0.0 or -0.0, and -0.0 prints as 0
@example(g_re=1.0, g_im=0.0, lam=0.0, b=-1.0, gap=2.0, order=8)
@example(g_re=-0.5, g_im=0.0, lam=0.3, b=-0.5, gap=1.0, order=16)
def test_extremal_csv_equals_the_reference_writer(g_re, g_im, lam, b, gap, order):
    p = ClassParams(_gamma(g_re, g_im, 1.0), lam, min(b + gap, 1.0), b)
    f = build_extremal(ExtremalSpec("case-ii", p, order))
    rows = [(k, c.real, c.imag) for k, c in enumerate(f.coeffs)]
    argv = ["extremal", *_class_argv(p.gamma, p.lam, p.a, p.b), "--kind", "case-ii",
            "--n", "2", "--order", str(order), "--format", "csv"]
    assert _run(argv) == _expected(("k", "re", "im"), None, rows, "csv")
