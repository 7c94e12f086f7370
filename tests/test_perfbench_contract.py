"""The traced benchmark harness still runs against the package.

perfbench/traced.py wraps public functions by name and reads keys of their
results; these smoke runs fail when a rename or a dropped key breaks it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rspacelab import capacity, reporting

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


@pytest.mark.parametrize("argv,names", [
    (["report", "--space", "sphere", "--params", "2", "--seed", "1",
      "--format", "json"],
     {"capacity.systole_details", "reporting.capacity_table",
      "reporting.render"}),
    (["verify", "--suite", "capacity", "--space",
      "grassmann_complex_hermitian", "--params", "1,1", "--seed", "1"],
     {"capacity.systole_details"}),
], ids=["report", "verify"])
def test_traced_harness_records_the_systole(tmp_path, argv, names):
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(TRACED), str(spans), "0",
                           *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["exit_code"] == 0
    assert names <= {s[1] for s in record["spans"]}
    assert record["counts"]["capacity.systole_details.tested"] >= 1


def test_every_trace_target_resolves():
    # a moved or renamed function would silently drop its per-layer metric
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines TARGETS; installs nothing
    for name, mod, attr in traced.TARGETS:
        assert callable(getattr(mod, attr, None)), (name, attr)


@pytest.mark.parametrize("attr", ["capacity_table", "table_json",
                                  "table_csv", "table_text"])
def test_reporting_reexports_the_capacity_table(attr):
    # the same function object, so the tracer rebinds both names
    assert getattr(reporting, attr) is getattr(capacity, attr)
