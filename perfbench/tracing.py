"""Spans around the public entry points of each coaglab layer.

The traced run wraps, from the benchmark's own files, each layer function at
the module attribute its caller resolves (``cli.integrate`` for the CLI path,
``kinetics.integrate`` for ``truncation_error_estimate``, class attributes for
methods).  Spans (name, start, end, parent) are kept in memory and written out
when the child ends; a span's self time is its duration minus its child spans.

``core`` gets no span: its calls take microseconds, so a span would cost more
than the call.  Its time shows in its caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span log; records only while ``recording`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.recording = False
        self.engines: list[dict] = []  # sizes of every engine built
        self._rhs_bytes: dict[int, int] = {}  # id(engine) -> bytes per RHS call
        self.rhs_bytes = 0
        self.nominal_steps = 0

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0)
            self._stack.append(sid)
            self.starts.append(time.perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs)
            return out

        return traced

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds]."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        inner = [0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                inner[p] += dur[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            agg = out[name]
            agg[0] += 1
            agg[1] += dur[i] * 1e-9
            agg[2] += (dur[i] - inner[i]) * 1e-9
        return out

    def dump(self, path) -> None:
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent"], "spans": spans}, fh)


# ---------------------------------------------------------------------------
# Hooks: sizes and work counts recorded where the work happens


def _engine_built(tracer: Tracer, args, kwargs) -> None:
    engine = args[0]
    if hasattr(engine, "pair_i"):
        pairs, cells = len(engine.pair_i), 0
    else:
        pairs, cells = 0, engine._fshape[0] * engine._fshape[1]
    tracer.engines.append({"species": engine.size, "pairs": pairs, "fft_cells": cells})
    tracer._rhs_bytes[id(engine)] = rhs_bytes_per_call(engine)


def rhs_bytes_per_call(engine) -> int:
    """Model of the bytes one RHS evaluation must touch (computed, not measured).

    Both engines read and write about six length-N vectors (c, a, b, m, gain,
    loss).  The pair engine also streams seven length-P arrays (i, j, coeff,
    target, the two gathered concentrations and the weights).  The FFT engine
    also writes two real input grids and reads one real output grid of F
    cells, and touches three complex half-spectra of H cells.
    """
    n = engine.size
    if hasattr(engine, "pair_i"):
        return 8 * (6 * n + 7 * len(engine.pair_i))
    f0, f1 = engine._fshape
    return 8 * 6 * n + 8 * 3 * f0 * f1 + 16 * 3 * f0 * (f1 // 2 + 1)


def _rhs_called(tracer: Tracer, args, kwargs) -> None:
    tracer.rhs_bytes += tracer._rhs_bytes[id(args[0])]


def nominal_steps(t_end, solver, checkpoints) -> int:
    """Base steps ``integrate`` takes when no step is bisected."""
    cks = sorted({float(t) for t in (checkpoints if checkpoints is not None else [t_end])} | {0.0})
    t, steps = 0.0, 0
    for target in cks[1:]:
        while t < target - 1e-15:
            t += min(solver.dt, target - t)
            steps += 1
        t = target
    return steps


def _integrate_hook(signature):
    def after(tracer: Tracer, args, kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.nominal_steps += nominal_steps(a["t_end"], a["solver"], a["checkpoints"])

    return after


# (module, attribute path, span name, hook)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "integrate", "kinetics.integrate", "integrate"),
    ("kinetics", "integrate", "kinetics.integrate", "integrate"),
    ("kinetics", "reachable_types", "kinetics.reachable_types", None),
    ("kinetics", "TruncatedSystem.__init__", "kinetics.build", _engine_built),
    ("kinetics", "UniformArmSystem.__init__", "kinetics.build", _engine_built),
    ("kinetics", "TruncatedSystem.rhs", "kinetics.pair_rhs", _rhs_called),
    ("kinetics", "UniformArmSystem.rhs", "kinetics.fft_rhs", _rhs_called),
    ("particles", "ParticleSystemState.__init__", "particles.state_build", None),
    ("particles", "run_simulation", "particles.run_simulation", None),
    ("particles", "first_event_distribution", "particles.first_event_distribution", None),
    ("limits", "gw_sample_total_progeny", "limits.gw_sample", None),
    ("limits", "limiting_concentrations", "limits.limiting_concentrations", None),
    ("limits", "gw_progeny_pmf_series", "limits.gw_progeny_pmf_series", None),
    ("measures", "TruncatedSeries.__mul__", "measures.series_mul", None),
    # ``__rmul__ = __mul__`` is bound when the class is made, so wrap it too
    ("measures", "TruncatedSeries.__rmul__", "measures.series_mul", None),
    ("measures", "convolution_power", "measures.convolution_power", None),
    ("exact", "convolution_power", "measures.convolution_power", None),
    ("exact", "concentration", "exact.concentration", None),
    ("genfun", "InitialGF.invert_phi", "genfun.invert_phi", None),
]


def install() -> Tracer:
    """Wrap every target in place and return the (not yet recording) tracer."""
    import importlib

    tracer = Tracer()
    for module, path, name, hook in TARGETS:
        owner = importlib.import_module(f"coaglab.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        if hook == "integrate":
            hook = _integrate_hook(inspect.signature(fn))
        setattr(owner, attr, tracer.wrap(fn, name, hook))
    return tracer


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, counts: dict) -> dict[str, float]:
    """Every per-layer metric of the benchmark; 0 for a layer the workload
    does not run.  ``counts`` are the workload's deterministic counts."""
    tot = tracer.totals()

    def calls(name):
        return tot[name][0] if name in tot else 0

    def incl(name):
        return tot[name][1] if name in tot else 0.0

    def own(name):
        return tot[name][2] if name in tot else 0.0

    def largest(key):
        return max((e[key] for e in tracer.engines), default=0)

    rhs_calls = calls("kinetics.fft_rhs") + calls("kinetics.pair_rhs")
    return {
        "kinetics.fft_rhs_calls": calls("kinetics.fft_rhs"),
        "kinetics.fft_rhs_ms": 1e3 * incl("kinetics.fft_rhs"),
        "kinetics.rhs_overhead_ratio": _rate(rhs_calls, 4 * tracer.nominal_steps),
        "kinetics.pair_rhs_calls": calls("kinetics.pair_rhs"),
        "kinetics.pair_rhs_ms": 1e3 * incl("kinetics.pair_rhs"),
        "kinetics.build_s": incl("kinetics.build"),
        "kinetics.reachable_s": incl("kinetics.reachable_types"),
        "kinetics.integrate_self_s": own("kinetics.integrate"),
        "kinetics.species": largest("species"),
        "kinetics.pairs": largest("pairs"),
        "kinetics.fft_cells": largest("fft_cells"),
        "kinetics.rhs_bytes_computed": tracer.rhs_bytes,
        "kinetics.moment_gap": counts.get("moment_gap", 0.0),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": counts.get("bytes_written", 0),
        "particles.events": counts.get("events", 0),
        "particles.events_per_s": _rate(counts.get("events", 0), own("particles.run_simulation")),
        "particles.draws_per_s": _rate(counts.get("draws", 0), own("particles.first_event_distribution")),
        "particles.state_build_s": incl("particles.state_build"),
        "particles.sampler_accept_frac": counts.get("sampler_accept_frac", 0.0),
        "limits.gw_trees_per_s": _rate(counts.get("gw_replicates", 0), incl("limits.gw_sample")),
        "limits.gw_nodes": counts.get("gw_nodes", 0),
        "limits.gw_censored": counts.get("gw_censored", 0),
        "limits.series_s": incl("limits.limiting_concentrations"),
        "limits.pmf_series_s": incl("limits.gw_progeny_pmf_series"),
        "measures.series_mul_calls": calls("measures.series_mul"),
        "measures.series_mul_s": incl("measures.series_mul"),
        "measures.convolution_power_s": incl("measures.convolution_power"),
        "exact.table_entries": calls("exact.concentration"),
        "exact.entries_per_s": _rate(calls("exact.concentration"), incl("exact.concentration")),
        "genfun.invert_calls": calls("genfun.invert_phi"),
        "genfun.invert_iters": counts.get("invert_iters", 0),
        "genfun.invert_s": incl("genfun.invert_phi"),
    }
