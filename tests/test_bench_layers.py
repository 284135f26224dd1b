"""bench/layers.py, the per-layer microbenchmark, run once in each mode on
tiny shapes, so that it cannot rot: every kernel is timed, none skipped."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"
KERNELS = ("_row_div", "_row_log_derivative", "circle_values", "schwarz_rows",
           "_member_rows", "spiral_check", "_spiral_sources", "_grid_values", "_windings",
           "is_member", "fixed_json_dumps", "_quadratic_slacks", "cli.main", "import")


def run_layers(*args) -> str:
    return subprocess.run([sys.executable, str(LAYERS), "--tiny", *args], check=True,
                          capture_output=True, text=True).stdout


def test_times_every_kernel(tmp_path):
    out = tmp_path / "layers.json"
    run_layers("--repeat", "2", "--out", str(out))
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["environment"]["blas_threads"] == 1
    assert (doc["shapes"], doc["repeat"]) == ("tiny", 2)
    for kernel in KERNELS:
        assert any(name.split()[0] == kernel for name in doc["kernels"]), kernel
    for name, entry in doc["kernels"].items():
        assert "skipped" not in entry, name
        assert 0.0 < entry["p10_us"] <= entry["median_us"], name
        assert entry["calls"] == 2


def test_compare_pools_both_trees():
    doc = json.loads(run_layers("--compare", str(ROOT), str(ROOT), "--rounds", "2",
                                "--repeat", "1"))
    assert doc["rounds"] == 2
    for name, entry in doc["kernels"].items():
        assert entry["parent"]["calls"] == entry["change"]["calls"] == 2, name
        assert entry["change_over_parent"] > 0.0
