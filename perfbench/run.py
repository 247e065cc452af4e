"""Benchmark of the celluster CLI: end-to-end time, memory and quality per
workload, and a per-layer split from a traced run.

    python3 perfbench/run.py --workload accept-300 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a source checkout: it imports celluster from
./src and fails at once when that is missing. Inputs are generated from
--seed before timing starts. Each repetition is a fresh child process
(perfbench/child.py) that runs `celluster.cli.main([...])` with BLAS pinned
to one thread; repetitions run one at a time until the next one would end
after --seconds (at least one, or one untraced/traced pair with --trace 1).
--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
untraced; --trace 1 reports its per-layer metrics from traced repetitions,
plus the tracing overhead. Every repetition's outputs are checked, and
labels.csv, training_log.csv, difficulty.csv (or prune_study.csv) must be
byte-identical across all repetitions of a seed, traced or not. Results,
with an environment record, go to .perfbench_out/; the last line of
stdout is one JSON object. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy
import tracer
import workloads

HERE = Path(__file__).resolve().parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7  # timed fresh imports per run, after one untimed warm-up
CHILD_TIMEOUT_S = 150


@dataclass
class Rep:
    mode: str  # "plain" or "traced"
    result: dict | None = None
    outcome: object = None  # workloads.Outcome when every check passed
    error: str | None = None
    spans: Path | None = None


def _child(root: Path, args: list[str], log: Path) -> dict:
    """Run child.py with `args`; returns its result file or raises RuntimeError."""
    result = log.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(root / "src"),
           "--result", str(result), *args]
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(root / "src"))
    with open(log, "w") as out:
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"child exited with code {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def _blas_threads_ok(result: dict) -> bool:
    return all(b["threads"] in (1, None) for b in result["blas"])


def setup_times(root: Path, work: Path, probes: int) -> list[float]:
    """Import time of celluster.cli in fresh processes; the first is a warm-up."""
    times = []
    for i in range(probes + 1):
        result = _child(root, ["--import-only"], work / f"setup{i}.log")
        if i:
            times.append(result["import_s"])
    return times


def run_rep(root, work, out_dir, wl, inputs, seed, index, mode) -> Rep:
    rep = Rep(mode)
    outdir = work / f"rep{index}"
    args = []
    if mode == "traced":
        rep.spans = out_dir / f"{wl.name}-seed{seed}-rep{index}.spans.jsonl"
        args += ["--spans", str(rep.spans), "--run-id", f"{wl.name}/seed{seed}/rep{index}"]
    args += ["--", *workloads.cli_args(wl, inputs, outdir)]
    try:
        rep.result = _child(root, args, work / f"rep{index}.log")
        if rep.result["code"] != 0:
            raise RuntimeError(f"celluster exited with code {rep.result['code']}")
        if not _blas_threads_ok(rep.result):
            raise RuntimeError(f"BLAS did not run on one thread: {rep.result['blas']}")
        if rep.result["epochs"] < 1:
            raise RuntimeError("no Adam step was counted")
        if wl.command == "train":
            rep.outcome = workloads.check_train(inputs, outdir, rep.result["epochs"])
        else:
            rep.outcome = workloads.check_study(wl, seed, outdir)
    except (RuntimeError, workloads.CheckError, ValueError, LookupError) as err:
        rep.error = f"{type(err).__name__}: {err}"  # malformed output counts as a failure
    shutil.rmtree(outdir, ignore_errors=True)
    return rep


def environment(wl, seed: int, toy: bool, blas) -> dict:
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "machine": platform.machine(),
        "workload": wl.name,
        "command": wl.command,
        "seed": seed,
        "synth_seed": 1000 + seed,
        "shape": [wl.cells, wl.genes],
        "input_format": wl.input_format,
        "t1": wl.t1,
        "t2": wl.t2,
        "grid": [list(wl.strategies), list(wl.alphas)] if wl.command == "prune-study" else None,
        "toy": toy,
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool, toy: bool):
    """Returns (metrics {name: (value, samples)}, attempted, failed, record)."""
    wl = workloads.WORKLOADS[name]
    wl = wl.toy() if toy else wl
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = root / ".perfbench_work" / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    if trace:
        for stale in out_dir.glob(f"{name}-seed{seed}-rep*.spans.jsonl"):
            stale.unlink()
    try:
        inputs = workloads.make_inputs(wl, seed, work / "input")
        setup = [] if trace else setup_times(root, work, 1 if toy else SETUP_PROBES)
        # the first repetition of a run tends to be slower; alternating the
        # pair's order by seed parity cancels that in the median overhead
        modes = ("plain",) if not trace else (
            ("plain", "traced") if seed % 2 == 0 else ("traced", "plain"))
        reps: list[Rep] = []
        start = time.monotonic()
        while True:
            for mode in modes:
                reps.append(run_rep(root, work, out_dir, wl, inputs, seed, len(reps), mode))
            elapsed = time.monotonic() - start
            rounds = len(reps) // len(modes)
            if elapsed + elapsed / rounds > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every successful repetition must reproduce the first one's artifacts
    good = [r for r in reps if r.outcome is not None]
    for r in good[1:]:
        if r.outcome.digests != good[0].outcome.digests:
            changed = sorted(k for k in r.outcome.digests
                             if r.outcome.digests[k] != good[0].outcome.digests[k])
            r.error = f"{', '.join(changed)} not byte-identical to the first repetition"
            r.outcome = None
    good = [r for r in reps if r.outcome is not None]
    ops = wl.grid_cells if wl.command == "prune-study" else 1
    attempted = ops * len(reps)
    failed = sum(r.outcome.failed if r.outcome else ops for r in reps)

    metrics: dict[str, tuple[float, int]] = {"failed_share": (failed / attempted, attempted)}
    plain = [r.result for r in good if r.mode == "plain"]
    if plain:
        metrics["run_s"] = (statistics.median(p["run_s"] for p in plain), len(plain))
        metrics["epochs_per_s"] = (
            statistics.median(p["epochs"] / p["run_s"] for p in plain), len(plain))
        metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in plain), len(plain))
    if good:
        metrics["ari"] = (good[0].outcome.ari, len(good))
        metrics["nmi"] = (good[0].outcome.nmi, len(good))
    if setup:
        metrics["setup_s"] = (statistics.median(setup), len(setup))
    traced = [r for r in good if r.mode == "traced"]
    if traced and plain:
        layers = [tracer.layer_metrics(tracer.read_spans(r.spans)) for r in traced]
        for key in layers[0]:
            metrics[key] = (statistics.median(m[key] for m in layers), len(layers))
        metrics["trace.overhead_s"] = (
            statistics.median(r.result["run_s"] for r in traced) - metrics["run_s"][0],
            len(traced),
        )

    blas = reps[0].result["blas"] if reps[0].result else None
    record = {
        "environment": environment(wl, seed, toy, blas),
        "trace": trace,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"rep {i} ({r.mode}): {r.error}" for i, r in enumerate(reps) if r.error],
        "setup_s_samples": setup,
        "repetitions": [dict(r.result or {}, mode=r.mode, error=r.error) for r in reps],
        "metrics": {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()},
    }
    result_path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    return metrics, attempted, failed, record


def unit_of(name: str, units: dict[str, str]) -> str:
    """Units of the listed metrics come from BENCHMARK.json; others by suffix."""
    if name in units:
        return units[name]
    if name.endswith((".s", "_s")):
        return "s"
    if "_ms." in name:
        return "ms"
    return "ratio" if name.endswith("_share") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
    parser.add_argument("--toy", action="store_true",
                        help="shrink every workload to a few seconds (for testing the benchmark)")
    opts = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "celluster" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {root} is not a celluster source checkout "
              "(needs src/celluster and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = list(workloads.WORKLOADS) if opts.workload == "all" else [opts.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if opts.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    attempted = failed = 0
    reported = {}
    for name in names:
        metrics, n_att, n_fail, record = run_workload(
            root, name, opts.seed, opts.seconds, bool(opts.trace), opts.toy
        )
        attempted += n_att
        failed += n_fail
        print(f"# {name}  seed={opts.seed}  trace={opts.trace}")
        for key, (value, samples) in sorted(metrics.items()):
            print(f"{name:<11} {key:<36} {value:>16.6f} {unit_of(key, units):<6} n={samples}")
        for failure in record["failures"]:
            print(f"FAILED {name}: {failure}")
        print("env " + json.dumps(record["environment"], sort_keys=True))
        prefix = f"{name}." if len(names) > 1 else ""
        for m in listed:
            if m["name"] in metrics:
                reported[prefix + m["name"]] = {"value": metrics[m["name"]][0], "unit": m["unit"]}
    correct = failed == 0 and len(reported) == len(listed) * len(names)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
