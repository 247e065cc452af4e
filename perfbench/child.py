"""Run one celluster CLI call in this fresh process and report on it.

    python3 perfbench/child.py --src SRC --result OUT.json [--spans SPANS.jsonl --run-id ID] -- ARGS...
    python3 perfbench/child.py --src SRC --result OUT.json --import-only

The result file holds the exit code, the time to import `celluster.cli`,
the wall and CPU time of `celluster.cli.main(ARGS)`, the process's peak resident
memory, the number of Adam steps taken (epochs) and the BLAS library and
thread count read back from the loaded library. With --spans the call runs
under the tracer and its spans are written to SPANS.jsonl at exit; without
it the only wrapper is a bare counter on Adam steps, which reads no clock.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path


def blas_info() -> list[dict]:
    """Version string and thread count of every OpenBLAS this process loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name, "threads": None, "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and info["threads"] is None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and info["config"] is None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the celluster package")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--import-only", action="store_true", help="only time the import")
    parser.add_argument("--spans", help="trace the call and write its spans here")
    parser.add_argument("--run-id", default="run", help="identifier stored with each span")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="arguments for celluster")
    opts = parser.parse_args()

    src = Path(opts.src).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import celluster.cli

    import_s = time.perf_counter() - start
    package = Path(celluster.cli.__file__).resolve()
    if src not in package.parents:
        print(f"celluster was imported from {package}, not from {src}", file=sys.stderr)
        return 3
    result = {"import_s": import_s}
    if not opts.import_only:
        import tracer

        argv = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
        adam_step = celluster.cli.trainer.adam_step
        steps = 0

        def counted(*args, **kwargs):
            nonlocal steps
            steps += 1
            return adam_step(*args, **kwargs)

        traced = tracer.Tracer(opts.run_id) if opts.spans else None
        if traced is not None:
            traced.install()
        else:
            tracer.replace_aliases(adam_step, counted)
        cpu_start = time.process_time()
        start = time.perf_counter()
        if traced is not None:
            code = traced.span(tracer.ROOT, celluster.cli.main, (argv,))
        else:
            code = celluster.cli.main(argv)
        run_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        if traced is not None:
            traced.write(opts.spans)
            steps = sum(1 for s in traced.spans if s["name"] == "numerics.adam_step")
        result.update(
            code=code,
            run_s=run_s,
            cpu_s=cpu_s,
            epochs=steps,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    result["blas"] = blas_info()
    Path(opts.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
