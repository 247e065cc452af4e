"""Smoke test of the benchmark itself at toy size (60 cells, 2 epochs per phase).

    python3 -m pytest -q perfbench/test_smoke.py

It checks BENCHMARK.json against the benchmark contract, that every metric
it lists is emitted for every workload with its unit, that the span files
of the traced run parse with a parent for every non-root span, and that the
runner refuses a directory that holds no source tree.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _last_json(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_emitted(trace, kind):
    result = _last_json(_bench("--workload", "all", "--seed", 3, "--seconds", 1,
                               "--trace", trace, "--toy"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for workload in SPEC["workloads"]:
        for metric in SPEC[kind]:
            emitted = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
    if trace:
        for workload in SPEC["workloads"]:
            spans_files = sorted((ROOT / ".perfbench_out").glob(f"{workload['name']}-seed3-rep*.spans.jsonl"))
            assert spans_files
            spans = [json.loads(line) for line in spans_files[-1].read_text().splitlines()]
            ids = {s["id"] for s in spans}
            roots = [s for s in spans if s["parent"] is None]
            assert [r["name"] for r in roots] == ["cli.main"]
            assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
            assert all(s["start"] <= s["end"] and s["run"] for s in spans)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "accept-300", "--seed", 1, "--seconds", 1, "--trace", 0,
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
