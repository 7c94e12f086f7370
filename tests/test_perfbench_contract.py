"""The traced benchmark harness still runs against the package.

perfbench/traced.py wraps public functions by name and reads keys of their
results; these smoke runs fail when a rename or a dropped key breaks it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


@pytest.mark.parametrize("argv", [
    ["report", "--space", "sphere", "--params", "2", "--seed", "1",
     "--format", "json"],
    ["verify", "--suite", "capacity", "--space",
     "grassmann_complex_hermitian", "--params", "1,1", "--seed", "1"],
], ids=["report", "verify"])
def test_traced_harness_records_the_systole(tmp_path, argv):
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(TRACED), str(spans), "0",
                           *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["exit_code"] == 0
    assert any(s[1] == "capacity.systole_details" for s in record["spans"])
    assert record["counts"]["capacity.systole_details.tested"] >= 1
