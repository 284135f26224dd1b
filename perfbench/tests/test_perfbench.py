"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import ast
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import refclock  # noqa: E402
import run  # noqa: E402
from outputs import OutputError, compare, parse_output  # noqa: E402
from tracing import SPAN_NAMES, Patched, Tracer  # noqa: E402
from workloads import FUZZ_PARAMS, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()[0]


def _run(cli, workload, trace, **kw):
    kw.setdefault("min_ops", 1)
    kw.setdefault("probes", 1)
    return run.run_workload(cli, workload, run.REFERENCE_SEED, 0.0, trace, **kw)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_one_round(cli, workload):
    result, detail = _run(cli, workload, False)
    assert result["correct"], detail["problems"]
    assert detail["reference_checked"] and detail["rounds"] == 1
    assert result["attempted"] == detail["ops_per_round"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


def test_only_the_known_defect_fails(cli):
    result, detail = _run(cli, "dossier", False)
    assert [key.split(":")[1] for key in detail["failures"]] == ["bound-inf"]
    assert result["failed"] == 1
    assert detail["failed_ratio"] == 1 / detail["ops_per_round"]


def test_metric_names_and_counts():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert "setup_s" in end_to_end
    for layer in ("series", "params", "bounds", "extremals", "subordination", "jack",
                  "output", "cli"):
        assert any(name.startswith(layer + ".") for name in per_layer), layer


def test_traced_calls_repeat_exactly(cli):
    for workload in WORKLOADS:
        first, detail = _run(cli, workload, True, trace_rounds=1)
        second, _ = _run(cli, workload, True, trace_rounds=1)
        assert first["correct"], detail["problems"]
        assert detail["untraced_names"] == []
        assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if k.endswith(".calls") or k == "output.bytes"}
        assert counts == {k: second["metrics"][k]["value"] for k in counts}
        assert first["metrics"]["cli.main.calls"]["value"] == detail["ops_per_round"]


def test_self_time_on_a_synthetic_span_tree():
    # cli.main [0, 10] > bounds.coefficient_bound [1, 4] > params.classify_case [2, 3]
    #                  > output.fixed_json_dumps [5, 9] > output.fixed_json_dumps [6, 7]
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("cli.main")
    tracer.enter("bounds.coefficient_bound")
    tracer.enter("params.classify_case")
    tracer.exit()
    tracer.exit()
    tracer.enter("output.fixed_json_dumps")
    tracer.enter("output.fixed_json_dumps")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.stats["cli.main"] == [1, 10, 10 - 3 - 4]
    assert tracer.stats["bounds.coefficient_bound"] == [1, 3, 2]
    assert tracer.stats["params.classify_case"] == [1, 1, 1]
    # the nested call of the same name adds to self time but not twice to total
    assert tracer.stats["output.fixed_json_dumps"] == [2, 4, 3 + 1]


def test_patch_covers_every_alias_and_restores(cli):
    import schlicht.subordination as sub
    from schlicht.series import ComplexSeries

    original = sub.fuzz_bounds
    init = ComplexSeries.__dict__["__init__"]
    with Patched(Tracer()) as tracer:
        assert cli.fuzz_bounds is sub.fuzz_bounds is not original
        ComplexSeries([0.0, 1.0])
        assert tracer.stats["series.construct"][0] == 1
    assert cli.fuzz_bounds is sub.fuzz_bounds is original
    assert ComplexSeries.__dict__["__init__"] is init
    assert len(SPAN_NAMES) == len(set(SPAN_NAMES)) == 31


def test_fuzz_params_match_the_acceptance_gate():
    source = BENCH_DIR.parent / "tests" / "test_acceptance.py"
    if not source.exists():
        pytest.skip("acceptance tests not in this checkout")
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "FUZZ_PARAMS":
            gate = [tuple(ast.literal_eval(a) for a in call.args) for call in node.value.elts]
    assert [(complex(*g), lam, a, b) for g, lam, a, b in FUZZ_PARAMS] == gate


def test_reference_seconds_follow_the_kernel_around_each_op():
    ref = refclock.REFERENCE_KERNEL_S
    # a host at half speed doubles both the op and the kernel: no change
    assert refclock.scale([0.02, 0.04], [2 * ref] * 3) == pytest.approx([0.01, 0.02])
    # each op is scaled by the median of the kernel samples around it, so a
    # single slow kernel sample moves nothing
    kernels = [ref] * 5 + [9 * ref] + [ref] * 5 + [2 * ref] * 10
    scaled = refclock.scale([1.0] * 20, kernels)
    assert scaled[:10] == pytest.approx([1.0] * 10)
    assert scaled[-6:] == pytest.approx([0.5] * 6)
    with pytest.raises(ValueError):
        refclock.scale([1.0], [ref])


@pytest.mark.parametrize("text,fmt", [
    ('{"bound":inf}\n', "json"),
    ('{"bound":Infinity}\n', "json"),
    ('{"bound":NaN}\n', "json"),
    ("n,bound\n2,inf\n", "csv"),
    ("n bound\n2 nan\n", "table"),
    ("n,bound\n2\n", "csv"),
])
def test_unparsable_or_non_finite_output_fails(text, fmt):
    with pytest.raises(OutputError):
        parse_output(text, fmt)


def test_reference_comparison_tolerances():
    ref = {"n": 3, "bound": 2.5, "case": "II", "ok": True, "rows": [1.0, 1e-16]}
    assert compare({"n": 3, "bound": 2.5 * (1 + 1e-10), "case": "II", "ok": True,
                    "rows": [1.0, 3e-16]}, ref) is None
    assert compare({**ref, "bound": 2.5 * (1 + 1e-8)}, ref)
    assert compare({**ref, "n": 4}, ref)
    assert compare({**ref, "n": 3.0}, ref)
    assert compare({**ref, "ok": 1}, ref)
    assert compare({**ref, "rows": [1.0]}, ref)
    assert parse_output("n,case\n2,II\n", "csv") == [["n", "case"], [2, "II"]]
