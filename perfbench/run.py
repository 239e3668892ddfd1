"""relaxbc benchmark: runs the relaxbc CLI on fixed workloads and checks every
verdict it produces.

    python3 perfbench/run.py --workload certify-d3 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each repeat of a workload is one fresh
process (perfbench/worker.py): a closed loop of one client, the next repeat
starting when the previous one has ended, as long as another repeat is
expected to end within ``--seconds``.

With ``--trace 0`` the last output line carries the end-to-end metrics,
medians over the repeats; with ``--trace 1`` untraced and traced repeats
alternate and it carries the per-layer metrics of the traced ones.  Exit code
0 when every command returned its expected exit code and passed its output
checks, 1 when one did not, 2 when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("certify-d3", "converge")
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

#: set-up-only processes per run, so setup_s is a median of several
SETUP_SAMPLES = 3
#: untraced repeats per run at least, so no median rests on one sample
MIN_REPEATS = 2
#: no repeat starts after this many seconds, so a run ends within 180 s
HARD_STOP_S = 110.0
#: a worker that runs longer than this is killed and counted as failed
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: statistics of the spans of one function (unit per
#: statistic), each layer's summed self time, and values derived from counts
PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "us_per_call": "us",
}
TRACED_FUNCTIONS = {
    "spectral.gkc_ratio": ("calls", "self_s", "us_per_call"),
    "spectral.build_M": ("calls", "self_s"),
    "spectral.check_gkc": ("calls", "self_s"),
    "linalg.split_invariant_subspaces": ("calls", "self_s"),
    "reduction.limit_stable_matrix": ("calls", "self_s"),
    "reduction.derive_reduced_bc": ("self_s",),
    "reduction.solve_closure": ("calls", "self_s"),
    "layers.solve_sqrt_eps_layer": ("calls", "self_s"),
    "layers.assemble_composite": ("self_s",),
    "sim.solve_equilibrium": ("calls", "self_s"),
    "sim.solve_relaxation": ("calls", "self_s"),
    "sim.composite_at_final_time": ("self_s",),
    "sim.run_convergence_study": ("self_s",),
    "model.load_system": ("calls", "self_s"),
}
LAYERS = ("cli", "model", "spectral", "linalg", "reduction", "layers", "sim")
DERIVED = {
    "spectral.unique_direction_frac": "ratio",
    "spectral.skipped": "count",
    "reduction.ukc_samples": "count",
    "layers.doublings": "count",
    "layers.sqrt_layer_unique_frac": "ratio",
    "sim.equilibrium_node_steps": "count",
    "sim.stiff_node_steps": "count",
    "sim.stiff_ns_per_node_step": "ns",
    "cli.report_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for fn, stats in TRACED_FUNCTIONS.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = PER_LAYER_UNITS[stat]
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


# ---------------------------------------------------------------------------
# worker processes


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc  # no more threads than CPUs
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every repeat
    return env


def spawn(workload: str, seed: int, mode: str, wdir: Path) -> dict:
    """Start one worker and wait for it; return its result with ``setup_s``,
    the time from process start to its ready line."""
    wdir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--dir", str(wdir)]
    with open(wdir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, env=worker_env())
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not ready.startswith('{"ready"') or not lines:
        tail = (wdir / "stderr.txt").read_text()[-2000:]
        raise WorkerFailed(f"worker {mode} exited {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


# ---------------------------------------------------------------------------
# one workload


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: list, untraced_wall: float) -> dict:
    """Per-layer metrics: counts from the first traced repeat (they repeat
    exactly), times as medians over the traced repeats."""
    def per_repeat(rep):
        stats, counts = rep["trace"]["stats"], rep["trace"]["counts"]
        get = lambda name, key: stats.get(name, {}).get(key, 0)
        m = {}
        for fn, keys in TRACED_FUNCTIONS.items():
            for key in keys:
                if key == "us_per_call":
                    calls = get(fn, "calls")
                    m[f"{fn}.{key}"] = get(fn, "total_s") / calls * 1e6 if calls else 0.0
                else:
                    m[f"{fn}.{key}"] = get(fn, key)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                s["self_s"] for name, s in stats.items()
                if name.split(".", 1)[0] == layer
            )
        rows = counts.get("spectral.sample_rows", 0)
        m["spectral.unique_direction_frac"] = (
            counts.get("spectral.unique_rows", 0) / rows if rows else 0.0
        )
        m["spectral.skipped"] = counts.get("spectral.skipped", 0)
        m["reduction.ukc_samples"] = counts.get("reduction.ukc_samples", 0)
        m["layers.doublings"] = counts.get("layers.doublings", 0)
        sqrt_calls = get("layers.solve_sqrt_eps_layer", "calls")
        m["layers.sqrt_layer_unique_frac"] = (
            counts.get("layers.sqrt_layer_unique", 0) / sqrt_calls if sqrt_calls else 0.0
        )
        m["sim.equilibrium_node_steps"] = counts.get("sim.equilibrium_node_steps", 0)
        node_steps = counts.get("sim.stiff_node_steps", 0)
        m["sim.stiff_node_steps"] = node_steps
        m["sim.stiff_ns_per_node_step"] = (
            get("sim.solve_relaxation", "total_s") / node_steps * 1e9 if node_steps else 0.0
        )
        m["cli.report_bytes"] = rep["report_bytes"]
        m["trace.spans"] = rep["trace"]["spans"]
        return m

    each = [per_repeat(rep) for rep in traced]
    units = per_layer_units()
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            value = median([r["wall_s"] for r in traced]) / untraced_wall - 1.0
        elif unit in ("count", "bytes"):
            value = each[0][name]
            if any(e[name] != value for e in each):
                raise WorkerFailed(f"count {name} differs between traced repeats")
        else:
            value = median([e[name] for e in each])
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    counter = itertools.count()
    next_dir = lambda: work / f"w{next(counter)}"

    setups = [spawn(workload, seed, "setup", next_dir()) for _ in range(SETUP_SAMPLES)]
    untraced, traced, cycles = [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        untraced.append(spawn(workload, seed, "run", next_dir()))
        if trace:
            traced.append(spawn(workload, seed, "trace", next_dir()))
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        enough = trace or len(untraced) >= MIN_REPEATS
        # stop before a repeat that would end after --seconds, so a run
        # takes about --seconds whatever the length of one repeat
        if (enough and now - start + median(cycles) > seconds) or now - start >= HARD_STOP_S:
            break

    repeats = untraced + traced
    commands = [c for rep in repeats for c in rep["commands"]]
    failed = [c for c in commands if not c["ok"]]
    reference = untraced[0]["digests"]
    identical = all(rep["digests"] == reference for rep in repeats)

    setup_values = [r["setup_s"] for r in setups + repeats]
    wall = median([r["wall_s"] for r in untraced])
    per_cmd = {}
    for rep in untraced:
        for c in rep["commands"]:
            per_cmd.setdefault(c["name"], []).append(c["wall_s"])
    summary = {
        "workload": workload,
        "seed": seed,
        "info": setups[0]["info"],
        "env": setups[0]["env"],
        "probe_ms": [r["probe_ms"] for r in setups],
        "repeats": len(untraced),
        "traced_repeats": len(traced),
        "setup_samples": setup_values,
        "wall_samples": [r["wall_s"] for r in untraced],
        "traced_wall_samples": [r["wall_s"] for r in traced],
        "command_s": {name: median(v) for name, v in per_cmd.items()},
        "attempted": len(commands),
        "failed": len(failed),
        "failures": [
            {"command": c["name"], "rc": c["rc"], "error": c["error"],
             "checks": [ck for ck in c["checks"] if not ck[1]]}
            for c in failed
        ],
        "checks": untraced[0]["commands"],
        "observations": untraced[0]["observations"],
        "reports_identical": identical,
        "correct": not failed and identical,
    }
    if trace:
        summary["metrics"] = layer_metrics(traced, wall)
    else:
        values = {
            "setup_s": median(setup_values),
            "wall_s": wall,
            "cpu_s": median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        summary["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    (work / "summary.json").write_text(json.dumps(summary, indent=1, default=str))
    for wdir in work.glob("w*"):
        shutil.rmtree(wdir / "out", ignore_errors=True)
    return summary


def print_summary(s: dict) -> None:
    info = ", ".join(f"{k}={v}" for k, v in s["info"].items())
    env = s["env"]
    print(f"== {s['workload']} (seed {s['seed']}: {info})")
    print(f"   machine: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"load={env['loadavg']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas'].get('name')}")
    print(f"   repeats: {s['repeats']} untraced, {s['traced_repeats']} traced; "
          f"setup samples {len(s['setup_samples'])}")
    print(f"   probe_ms: {median(s['probe_ms']):.2f} ms (median of {len(s['probe_ms'])}; "
          "machine speed, not used to rescale)")
    for name, m in s["metrics"].items():
        print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
    for name, v in s["command_s"].items():
        print(f"   {name + '_s':40s} {v:.6g} s  (command, untraced median)")
    frac = s["failed"] / s["attempted"]
    print(f"   {'ops_failed_frac':40s} {frac:.6g}  ({s['failed']}/{s['attempted']} commands)")
    print(f"   reports byte-identical across repeats: {s['reports_identical']}")
    for cmd in s["checks"]:
        verdicts = ", ".join(f"{n} {'ok' if ok else 'FAIL'} {d}".rstrip()
                             for n, ok, d in cmd["checks"])
        print(f"   {cmd['name']}: exit {cmd['rc']}; {verdicts}")
    for obs, v in s["observations"].items():
        print(f"   observed {obs}: {v}")
    for f in s["failures"]:
        print(f"   FAILED {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "relaxbc" / "cli.py").is_file() or root != HERE.parent:
        print("run from the root of a relaxbc checkout (src/relaxbc is missing)",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except (WorkerFailed, json.JSONDecodeError) as exc:
            print(f"benchmark error on {name}: {exc}", file=sys.stderr)
            return 2
        print_summary(summaries[-1])

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": v for s in summaries for k, v in s["metrics"].items()}
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
