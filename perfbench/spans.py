"""Span recording around the package's public functions, from outside.

Each wrapper replaces a function at the module attribute its caller looks up
(``relaxbc.spectral.gkc_ratio``, ``relaxbc.cli.check_gkc``, ...), records one
span per call (name, start, end, parent) in memory and hands the return value
to an observer that extracts work counts.  No package file changes.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import defaultdict

import numpy as np

#: (module, attribute looked up by the caller, span name).  A function
#: imported into several modules is wrapped in each one that calls it.
WRAPPED = (
    ("cli", "load_system", "model.load_system"),
    ("cli", "validate_structural_stability", "model.validate_structural_stability"),
    ("cli", "check_sk_condition", "model.check_sk_condition"),
    ("cli", "compute_indices", "model.compute_indices"),
    ("cli", "build_kernel_frame", "spectral.build_kernel_frame"),
    ("cli", "check_gkc", "spectral.check_gkc"),
    ("cli", "derive_all", "reduction.derive_all"),
    ("cli", "run_convergence_study", "sim.run_convergence_study"),
    ("spectral", "build_kernel_frame", "spectral.build_kernel_frame"),
    ("spectral", "gkc_ratio", "spectral.gkc_ratio"),
    ("spectral", "build_M", "spectral.build_M"),
    ("spectral", "split_invariant_subspaces", "linalg.split_invariant_subspaces"),
    ("reduction", "build_equilibrium_frame", "reduction.build_equilibrium_frame"),
    ("reduction", "build_reduction_data", "reduction.build_reduction_data"),
    ("reduction", "derive_reduced_bc", "reduction.derive_reduced_bc"),
    ("reduction", "build_closure", "reduction.build_closure"),
    ("reduction", "limit_stable_matrix", "reduction.limit_stable_matrix"),
    ("reduction", "compute_indices", "model.compute_indices"),
    ("reduction", "split_invariant_subspaces", "linalg.split_invariant_subspaces"),
    ("reduction", "stable_basis_real", "linalg.stable_basis_real"),
    ("layers", "diffusion_matrix", "layers.diffusion_matrix"),
    ("layers", "stable_basis_real", "linalg.stable_basis_real"),
    ("sim", "solve_equilibrium", "sim.solve_equilibrium"),
    ("sim", "solve_relaxation", "sim.solve_relaxation"),
    ("sim", "composite_at_final_time", "sim.composite_at_final_time"),
    ("sim", "measure_error", "sim.measure_error"),
    ("sim", "l2_error", "sim.l2_error"),
    ("sim", "compute_indices", "model.compute_indices"),
    ("sim", "solve_closure", "reduction.solve_closure"),
    ("sim", "build_eps_layer", "layers.build_eps_layer"),
    ("sim", "solve_sqrt_eps_layer", "layers.solve_sqrt_eps_layer"),
    ("sim", "build_second_correction", "layers.build_second_correction"),
    ("sim", "assemble_composite", "layers.assemble_composite"),
)

def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _observe_check_gkc(report, counts):
    counts["spectral.skipped"] += len(report.failures)
    counts["spectral.sample_rows"] += len(report.ratios)
    counts["spectral.unique_rows"] += len({row for row, _ in report.ratios})


def _observe_relaxation(result, counts):
    counts["sim.stiff_node_steps"] += int(result.x.size) * int(result.steps)


def _observe_equilibrium(result, counts):
    counts["sim.equilibrium_node_steps"] += int(result.x.size) * int(result.steps)


def _observe_sqrt_layer(layer, counts):
    counts["layers.doublings"] += int(layer.doublings)
    counts.setdefault("layers.sqrt_layer_digests", set()).add(
        _array_digest(layer.z, layer.m, layer.dm_dz)
    )


def _observe_reduced_bc(rbc, counts):
    counts["reduction.ukc_samples"] += int(rbc.ukc_samples)


OBSERVERS = {
    "spectral.check_gkc": _observe_check_gkc,
    "sim.solve_relaxation": _observe_relaxation,
    "sim.solve_equilibrium": _observe_equilibrium,
    "layers.solve_sqrt_eps_layer": _observe_sqrt_layer,
    "reduction.derive_reduced_bc": _observe_reduced_bc,
}


class Tracer:
    """In-memory span recorder.  ``spans[i] = (name, start, end, parent)``
    with ``parent = -1`` for a root span; times are ``time.perf_counter``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        observe = OBSERVERS.get(name)
        if observe is not None:
            observe(result, self.counts)
        return result

    def install(self, package) -> None:
        """Wrap every entry of WRAPPED in the imported ``package`` modules."""
        for mod_name, attr, name in WRAPPED:
            module = getattr(package, mod_name)
            original = getattr(module, attr)

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self seconds."""
        n = len(self.spans)
        child = np.zeros(n)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        return dict(stats)
