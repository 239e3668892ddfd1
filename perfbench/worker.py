"""One repeat of a workload in a fresh process.

Usage (started by run.py):

    python3 perfbench/worker.py --workload W --seed S --mode M --dir D

The process imports relaxbc from the checkout's ``src``, writes the
workload's input files under D and prints ``{"ready": true}``; everything up
to that line is set-up.  Mode ``setup`` then times a fixed numpy probe and
records the environment.  Modes ``run`` and ``trace`` run the workload's CLI
commands in process (``trace`` with spans around the package functions),
check the reports the commands wrote and print one JSON result line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import relaxbc  # noqa: E402
from relaxbc import cli  # noqa: E402  (imports every package module)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def probe_ms() -> float:
    """A fixed small numpy workload: machine speed, reported beside the
    metrics and never used to rescale them."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(120, 120))
    start = time.perf_counter()
    for _ in range(300):
        np.linalg.eigvals(a)
    for _ in range(30):
        np.linalg.solve(b, b)
    return (time.perf_counter() - start) * 1e3


def environment() -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _reports(out_dir: Path) -> list:
    return sorted(p for p in out_dir.rglob("*") if p.is_file())


def _digests(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in _reports(out_dir)
    }


def _run_command(cmd, tracer):
    """Run one CLI command in process; return (exit code, error text)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                return cli.main(cmd.argv), ""
            return tracer.span(f"cli.{cmd.name}", cli.main, cmd.argv), ""
        except Exception:  # a crash is a failed command, not a failed benchmark
            return None, traceback.format_exc(limit=5)


def run(args, inputs, out_dir: Path) -> dict:
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install(relaxbc)
    commands = []
    t0, c0 = time.perf_counter(), time.process_time()
    for cmd in inputs.commands:
        start = time.perf_counter()
        rc, error = _run_command(cmd, tracer)
        commands.append({"name": cmd.name, "rc": rc, "error": error,
                         "wall_s": time.perf_counter() - start})
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for entry, cmd in zip(commands, inputs.commands):
        checks = []
        if entry["rc"] == cmd.expect_rc:
            checks = workloads.check_command(args.workload, cmd, inputs.info)
        entry["checks"] = [[name, bool(ok), str(detail)] for name, ok, detail in checks]
        entry["ok"] = entry["rc"] == cmd.expect_rc and all(c[1] for c in entry["checks"])

    result = {
        "commands": commands,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": _digests(out_dir),
        "report_bytes": sum(p.stat().st_size for p in _reports(out_dir)),
        "observations": workloads.observations(inputs.commands)
        if all(c["ok"] for c in commands) else {},
    }
    if tracer is not None:
        tracer.write(str(Path(args.dir) / "spans.csv"))
        counts = dict(tracer.counts)
        digests = counts.pop("layers.sqrt_layer_digests", set())
        counts["layers.sqrt_layer_unique"] = len(digests)
        result["trace"] = {"stats": tracer.summary(), "counts": counts,
                           "spans": len(tracer.spans)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)

    if Path(relaxbc.__file__).resolve().parent != ROOT / "src" / "relaxbc":
        print(f"relaxbc imported from {relaxbc.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    in_dir, out_dir = Path(args.dir) / "inputs", Path(args.dir) / "out"
    in_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, str(in_dir), str(out_dir))
    print(json.dumps({"ready": True}), flush=True)

    if args.mode == "setup":
        result = {"probe_ms": probe_ms(), "env": environment(), "info": inputs.info}
    else:
        result = run(args, inputs, out_dir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
