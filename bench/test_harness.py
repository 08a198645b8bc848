"""Smoke test of the benchmark harness.

Runs every workload at its shortest length (--seconds 0: only the
workload's minimum op count) and checks that every end-to-end metric is
printed with its unit, that no op failed, and that the report digest
repeats for an equal seed.  The traced run is checked on one workload.

    python3 -m pytest bench/test_harness.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int = 0, seed: int = 7) -> list:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def printed(lines: list) -> dict:
    """{name: (value text, unit)} from the 'name value unit (note)' lines."""
    out = {}
    for text in lines[:-1]:
        parts = text.split()
        if len(parts) >= 3:
            out[parts[0]] = (parts[1], parts[2])
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_fails_nothing_and_repeats(workload):
    first = run(workload)
    second = run(workload)
    shown = printed(first)
    result = json.loads(first[-1])

    for metric in SPEC["end_to_end"]:
        assert shown[metric["name"]][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert shown["failed_frac"][1] == "ratio"

    assert float(shown["failed_frac"][0]) == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    assert shown["digest"] == printed(second)["digest"]


def test_traced_run_reports_every_layer_metric():
    result = json.loads(run("thm2-corpus", trace=1)[-1])
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # every op runs traced; an untraced twin process times the same ops
    assert result["metrics"]["theorems.verify_thm2.calls"]["value"] == result["attempted"]
    assert result["metrics"]["trace.latency_p50_ms_untraced"]["value"] > 0
