"""Batch front end: config ingestion, subcommands, bit-stable tabular output.

One JSON config schema feeds every subcommand::

    {
      "initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}, ...]
                 | {"family": "one_female" | "random_gender" | "two_gender",
                    "mu1": {"1": 1}, "mu2": {"1": "1/2"}},
      "truncation": {"mass_cap": 64, "arm_cap": 32},
      "solver": {"rhs": "full", "dt": 0.001},
      "t_grid": [0.25, 0.5, 1.0],
      "n": 100000,
      "seed": 42,
      "replicates": 1,
      "max_mass": 12,
      "gw": {"replicates": 100000, "population_cap": 1000000}
    }

Unknown keys are rejected, and a family object takes exactly its laws (``mu1``,
and ``mu2`` for ``two_gender``); ``gw`` runs at ``max_mass`` 1 too.  Numbers may
be JSON numbers or strings like ``"1/3"``, parsed as exact rationals.

Outputs are deterministic bytes given config and seed: every table is a CSV
written by :func:`coaglab.tables.write_csv` (floats printed with 17
significant digits, LF line endings, UTF-8), and run metadata excludes timing
(wall time goes to stderr).  All randomness flows from the config seed and
is drawn from each generator in fixed-size blocks consumed in a fixed order.
``simulate`` replicate r uses the derived seed (seed, r) (seed itself for a
single replicate), so results do not depend on the worker schedule; ``gw``
runs in one process, and its trees consume one generator seeded by seed,
one tree after another.
``COAG_THREADS`` (a positive integer, default 1) caps the number of worker
processes used for replicate fan-out, which never exceeds the usable CPUs.

Exit codes: 0 success, 2 config/usage error, 3 numerical/convergence failure.
Config errors include integer fields that are not integers in range, a
``solver.dt`` or ``t_grid`` time past the float range, a family law or
initial concentrations whose sums pass the float range, ``t_grid`` times
that are not strictly increasing, a ``COAG_THREADS`` that is not a positive
integer, for ``ode`` an initial species outside the truncation caps, for
``simulate`` an ``n`` so large that an arm total exceeds 2**63 or, with a
float concentration, that a count overflows a float, for ``limit`` and
``gw`` an initial state that gels (a finite T_c, named in the message), for
``limit`` a result past the float range, for ``gw`` an initial state with a
species heavier than mass 1 (the message names its mass) or a degenerate
one, whose trees need not end, a path that cannot be read or written, and
for ``compare`` a
tolerance that is not a finite number >= 0, a value cell that is not a
finite number, a key cell that is not a number, a key repeated within one
table, or two tables whose key columns or value column counts differ.
``compare`` keys each row on its leading columns named ``t``, ``a``, ``b``
or ``m``, each cell read as an exact number (``1``, ``1.0`` and ``1/1`` are
one key), and compares every later cell with the same cell of the other
table.
A subcommand that fails for any reason leaves no new files in its output
directory; any other exception is then re-raised with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .core import ConcentrationState, moment, validate_and_normalize
from .exact import OneFemaleArm, RandomGender, TwoGender, concentration, initial_state, live_types
from .genfun import ConvergenceError, InitialGF
from .kinetics import IntegrationError, SolverSettings, TruncationPolicy, integrate
from .limits import (
    GWConfig,
    degeneracy_reasons,
    gw_progeny_pmf_series,
    gw_sample_total_progeny,
    initial_arm_measure,
    limiting_concentrations,
)
from .measures import Measure1D, size_biased_laws
from .particles import ParticleSystemState, run_simulation
from .tables import write_csv

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# initial.family -> family class; its dataclass fields are the laws it takes
_FAMILIES = {"one_female": OneFemaleArm, "random_gender": RandomGender, "two_gender": TwoGender}


class ConfigError(ValueError):
    pass


def _number(value, where: str):
    """JSON number, or a string such as '1/3' parsed as an exact rational."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{where}: expected a finite number, got {value!r}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: cannot parse {value!r} as a rational") from exc
    raise ConfigError(f"{where}: expected a number, got {type(value).__name__}")


def _integer(value, where: str, least: int):
    """JSON integer (an integral float such as 1e5 is accepted), at least ``least``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{where}: must be at least {least}, got {value}")
    return value


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _section(obj: dict, key: str, allowed: set) -> dict:
    section = obj.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object")
    _check_keys(section, allowed, key)
    return section


def _measure_1d(obj, where: str) -> Measure1D:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object mapping arm counts to weights")
    weights = {}
    for key, val in obj.items():
        try:
            j = int(key)
        except ValueError as exc:
            raise ConfigError(f"{where}: key {key!r} is not an integer") from exc
        weights[j] = _number(val, f"{where}[{key}]")
    try:
        mu = Measure1D.from_dict(weights)
        mu.total(), mu.mean()  # the sums the family checks take
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except OverflowError as exc:  # a float sum past the range, or a float beside a huge exact weight
        raise ConfigError(f"{where}: weights sum past the float range: {exc}") from exc
    return mu


@dataclass
class RunConfig:
    initial_particles: "list[tuple[int, int, int, object]] | None"
    family: "OneFemaleArm | RandomGender | TwoGender | None"
    truncation: TruncationPolicy
    solver: SolverSettings
    t_grid: list
    n: int
    seed: int
    replicates: int
    max_mass: int
    gw_replicates: int
    gw_population_cap: int
    raw: dict = field(repr=False)

    def state(self) -> tuple[ConcentrationState, object]:
        """Normalized initial state and the applied concentration scale."""
        if self.family is not None:
            return initial_state(self.family), 1
        entries: dict = {}
        try:
            for a, b, m, conc in self.initial_particles:
                key = (a, b, m)
                entries[key] = entries.get(key, 0) + conc
            c0 = ConcentrationState(entries)
            return validate_and_normalize(c0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:  # a float concentration beside an exact one past the float range
            raise ConfigError(f"initial concentrations: {exc}") from exc


def parse_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(
        obj,
        {
            "initial",
            "truncation",
            "solver",
            "t_grid",
            "n",
            "seed",
            "replicates",
            "max_mass",
            "gw",
        },
        "config",
    )
    if "initial" not in obj:
        raise ConfigError("config requires an 'initial' section")
    initial = obj["initial"]
    particles = None
    family = None
    if isinstance(initial, list):
        particles = []
        for k, row in enumerate(initial):
            if not isinstance(row, dict):
                raise ConfigError(f"initial[{k}] must be an object")
            _check_keys(row, {"a", "b", "m", "conc"}, f"initial[{k}]")
            for fld in ("a", "b", "m", "conc"):
                if fld not in row:
                    raise ConfigError(f"initial[{k}] is missing {fld!r}")
            particles.append(
                (
                    _integer(row["a"], f"initial[{k}].a", 0),
                    _integer(row["b"], f"initial[{k}].b", 0),
                    _integer(row["m"], f"initial[{k}].m", 1),
                    _number(row["conc"], f"initial[{k}].conc"),
                )
            )
        if not particles:
            raise ConfigError("initial particle list is empty")
    elif isinstance(initial, dict):
        name = initial.get("family")
        if not isinstance(name, str) or name not in _FAMILIES:
            raise ConfigError(f"initial.family must be one of {sorted(_FAMILIES)}, got {name!r}")
        laws = [f.name for f in fields(_FAMILIES[name])]
        if set(initial) != {"family", *laws}:
            given = sorted(set(initial) - {"family"})
            raise ConfigError(f"initial: family {name} takes exactly the laws {laws}, got {given}")
        mus = [_measure_1d(initial[law], f"initial.{law}") for law in laws]
        try:
            family = _FAMILIES[name](*mus)
        except ValueError as exc:
            raise ConfigError(f"initial family: {exc}") from exc
    else:
        raise ConfigError("initial must be a particle list or a family object")

    trunc = _section(obj, "truncation", {"mass_cap", "arm_cap"})
    policy = TruncationPolicy(
        mass_cap=_integer(
            trunc.get("mass_cap", TruncationPolicy.mass_cap), "truncation.mass_cap", 1
        ),
        arm_cap=_integer(trunc.get("arm_cap", TruncationPolicy.arm_cap), "truncation.arm_cap", 0),
    )

    sol = _section(obj, "solver", {"rhs", "dt"})
    rhs = sol.get("rhs", SolverSettings.rhs)
    if not isinstance(rhs, str):
        raise ConfigError(f"solver.rhs: expected a string, got {rhs!r}")
    try:
        dt = _float(_number(sol.get("dt", SolverSettings.dt), "solver.dt"), "solver.dt")
        solver = SolverSettings(rhs=rhs, dt=dt)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    t_grid = obj.get("t_grid", [1.0])
    if not isinstance(t_grid, list) or not t_grid:
        raise ConfigError("t_grid must be a nonempty list of times")
    t_grid = [_number(t, "t_grid") for t in t_grid]
    times = [_float(t, "t_grid") for t in t_grid]
    if times[0] < 0 or any(s >= t for s, t in zip(times, times[1:])):
        raise ConfigError("t_grid must be nonnegative and increasing")

    gw = _section(obj, "gw", {"replicates", "population_cap"})

    return RunConfig(
        initial_particles=particles,
        family=family,
        truncation=policy,
        solver=solver,
        t_grid=t_grid,
        n=_integer(obj.get("n", 10_000), "n", 1),
        seed=_integer(obj.get("seed", 0), "seed", 0),
        replicates=_integer(obj.get("replicates", 1), "replicates", 1),
        max_mass=_integer(obj.get("max_mass", 12), "max_mass", 1),
        gw_replicates=_integer(gw.get("replicates", GWConfig.replicates), "gw.replicates", 1),
        gw_population_cap=_integer(
            gw.get("population_cap", GWConfig.population_cap), "gw.population_cap", 2
        ),
        raw=obj,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


# ---------------------------------------------------------------------------
# Subcommands


def _degeneracy(c0: ConcentrationState) -> tuple[bool, list[str]]:
    """Whether ``c0`` is monodisperse, and if so why its limiting tree may not end."""
    monodisperse = all(p.m == 1 for p in c0.support())
    return monodisperse, degeneracy_reasons(initial_arm_measure(c0)) if monodisperse else []


def cmd_analyze(cfg: RunConfig, out: "Path | None") -> dict:
    c0, scale = cfg.state()
    gf = InitialGF(c0)
    data = gf.critical_data()
    monodisperse, reasons = _degeneracy(c0)
    report = {
        "alpha": float(data.alpha),
        "beta": float(data.beta),
        "gamma": float(data.gamma),
        "M": float(data.big_m),
        "T_c": _jsonable(float(data.t_crit)),
        "monodisperse": monodisperse,
        "degenerate": bool(reasons),
        "degenerate_reasons": reasons,
        "concentration_scale": _jsonable(scale),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is not None:  # before printing, so a failed write prints no report
        out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return report


def _note_past_gelation(command: str, c0: ConcentrationState, grid: list[float]) -> None:
    """One line on stderr when ``grid`` runs past the critical time of ``c0``."""
    t_crit = InitialGF(c0).critical_data().t_crit
    if grid[-1] > t_crit:
        print(
            f"{command}: t_grid runs to {grid[-1]}, past the critical time T_c = {float(t_crit)}; "
            "the model's uniqueness and the chain's convergence are proved only before T_c",
            file=sys.stderr,
        )


def cmd_ode(cfg: RunConfig, out_dir: Path) -> None:
    c0, _ = cfg.state()
    try:
        cfg.truncation.admitted(c0.support())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = [float(t) for t in cfg.t_grid]
    _note_past_gelation("ode", c0, grid)
    traj = integrate(c0, grid[-1], cfg.truncation, cfg.solver, checkpoints=grid)
    write_csv(out_dir / "concentrations.csv", *traj.concentration_rows())
    write_csv(out_dir / "observables.csv", *traj.observable_rows())
    _write_json(out_dir / "meta.json", {"command": "ode", "config": cfg.raw})


def cmd_explicit(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.family is None:
        raise ConfigError("the explicit command needs a family initial condition")
    rows = (
        (t, a, b, m, concentration(cfg.family, t, a, b, m))
        for t in cfg.t_grid
        for m in range(1, cfg.max_mass + 1)
        for a, b in live_types(cfg.family, m)
    )
    write_csv(out_dir / "explicit.csv", ["t", "a", "b", "m", "value"], rows)
    _write_json(out_dir / "meta.json", {"command": "explicit", "config": cfg.raw})


def _replicate_job(args):
    counts, n, t_end, grid, seed = args
    return run_simulation(counts, n, t_end, checkpoints=grid, seed=seed)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int) -> int:
    """Worker processes for ``jobs`` replicates: ``COAG_THREADS`` (default 1),
    capped at the jobs and at the usable CPUs."""
    raw = os.environ.get("COAG_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"COAG_THREADS must be a positive integer, got {raw!r}")
    return min(threads, jobs, _usable_cpus())


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> None:
    c0, _ = cfg.state()
    counts = {}
    for p, wgt in c0.items():
        try:
            k = round(wgt * cfg.n)
        except OverflowError as exc:  # a float weight times an n past the float range
            raise ConfigError(f"n = {cfg.n} times concentration {wgt} of {tuple(p)}: {exc}") from exc
        if k > 0:
            counts[p] = k
    if not counts:
        raise ConfigError(f"initial counts are empty at n = {cfg.n}; increase n")
    try:
        ParticleSystemState(counts, cfg.n)  # refuse here what every replicate would refuse
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = [float(t) for t in cfg.t_grid]
    _note_past_gelation("simulate", c0, grid)
    jobs = [
        (counts, cfg.n, grid[-1], grid, (cfg.seed, r) if cfg.replicates > 1 else cfg.seed)
        for r in range(cfg.replicates)
    ]
    t0 = time.perf_counter()
    workers = _worker_count(len(jobs))
    if workers > 1:
        # imported here: the pool's modules cost every other command memory and start-up
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                runs = list(pool.map(_replicate_job, jobs))
        except OSError as exc:  # no subprocess support: degrade to inline
            print(f"worker pool unavailable ({exc}); running inline", file=sys.stderr)
            runs = [_replicate_job(j) for j in jobs]
    else:
        runs = [_replicate_job(j) for j in jobs]
    wall = time.perf_counter() - t0
    print(f"simulate: {len(runs)} replicate(s) in {wall:.3f} s wall time", file=sys.stderr)
    for r, run in enumerate(runs):
        rows = (
            (t, p.a, p.b, p.m, state[p])
            for t, state in zip(run.times, run.states)
            for p in sorted(state, key=lambda q: (q.m, q.a, q.b))
        )
        header = ["t", "a", "b", "m", "C_n"]
        write_csv(out_dir / f"empirical_{r:03d}.csv", header, rows)
    meta = {
        "command": "simulate",
        "config": cfg.raw,
        "n": cfg.n,
        "seed": cfg.seed,
        "replicates": cfg.replicates,
        "events": [run.events for run in runs],
        "rejections": [run.rejections for run in runs],
        "final_totals": [
            {
                "male_arms": run.final_total_male,
                "female_arms": run.final_total_female,
                "mass": run.final_total_mass,
                "particles": run.final_particles,
            }
            for run in runs
        ],
    }
    _write_json(out_dir / "meta.json", meta)


def _float(value, what: str) -> float:
    """``float(value)``, or a ConfigError naming ``what`` past the float range."""
    try:
        return float(value)
    except OverflowError as exc:  # an exact value from a weight past the float range
        raise ConfigError(f"{what} is past the float range: {exc}") from exc


def _refuse_gelation(command: str, c0: ConcentrationState) -> None:
    """A ConfigError when ``c0`` gels: the t -> inf views need T_c = inf."""
    t_crit = InitialGF(c0).critical_data().t_crit
    if t_crit != math.inf:
        raise ConfigError(
            f"{command}: the initial state gels at T_c = {t_crit}; "
            "the limiting state needs an infinite critical time"
        )


def cmd_limit(cfg: RunConfig, out_dir: Path) -> None:
    c0, _ = cfg.state()
    _refuse_gelation("limit", c0)
    limit = limiting_concentrations(c0, cfg.max_mass)
    rows = ((m, _float(limit.c_inf[m], f"c_inf({m})")) for m in range(1, cfg.max_mass + 1))
    write_csv(out_dir / "limit.csv", ["m", "c_inf"], rows)
    reasons = _degeneracy(c0)[1]
    summary = {
        "command": "limit",
        "config": cfg.raw,
        "max_mass": cfg.max_mass,
        "total_concentration": _float(limit.total_concentration, "total_concentration"),
        "total_mass": _float(limit.total_mass, "total_mass"),
        "initial_concentration": _float(moment(c0, lambda p: 1), "initial_concentration"),
        "degenerate": bool(reasons),
        "degenerate_reasons": reasons,
    }
    _write_json(out_dir / "limit_summary.json", summary)


def cmd_gw(cfg: RunConfig, out_dir: Path) -> None:
    c0, _ = cfg.state()
    try:
        mu = initial_arm_measure(c0)
    except ValueError as exc:  # a species heavier than mass 1
        raise ConfigError(f"gw: initial {exc}") from exc
    reasons = degeneracy_reasons(mu)
    if reasons:  # a tree that does not end grows to the population cap
        raise ConfigError("degenerate initial state, trees need not end: " + "; ".join(reasons))
    _refuse_gelation("gw", c0)
    nu_m, nu_f = size_biased_laws(mu)
    limit = limiting_concentrations(c0, cfg.max_mass)
    pmf = gw_progeny_pmf_series(nu_m, nu_f, cfg.max_mass)
    sample = gw_sample_total_progeny(
        GWConfig(
            nu_m,
            nu_f,
            population_cap=cfg.gw_population_cap,
            replicates=cfg.gw_replicates,
            seed=cfg.seed,
        )
    )
    rows = (
        (m, limit.c_inf[m], pmf[m], sample.pmf(m), sample.censored_fraction)
        for m in range(1, cfg.max_mass + 1)
    )
    header = ["m", "c_inf", "pmf_series", "pmf_sampled", "censored_fraction"]
    write_csv(out_dir / "gw.csv", header, rows)
    summary = {
        "command": "gw",
        "config": cfg.raw,
        "replicates": sample.replicates,
        "censored": sample.censored,
        "censored_fraction": sample.censored_fraction,
        "nodes": sample.nodes,
    }
    _write_json(out_dir / "gw_summary.json", summary)


_KEY_COLUMNS = {"t", "a", "b", "m"}  # leading columns of these names key a row


def cmd_compare(path_a: str, path_b: str, tolerance: float) -> int:
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"--tolerance must be a finite number >= 0, got {tolerance}")

    def read(path):
        """Key column names, value column count and {key: values}, each key
        its cells read as exact numbers, so ``1``, ``1.0`` and ``1/1`` are
        one key."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ConfigError(f"{path} is empty")
        header, body = rows[0], rows[1:]
        n_keys = 0
        while n_keys < len(header) and header[n_keys] in _KEY_COLUMNS:
            n_keys += 1
        if not 0 < n_keys < len(header):
            raise ConfigError(
                f"{path} needs leading key columns named {sorted(_KEY_COLUMNS)}, then value columns"
            )
        table, first_line = {}, {}
        for line, row in enumerate(body, start=2):
            try:
                values = [float(x) for x in row[n_keys:]] if len(row) == len(header) else [math.nan]
            except ValueError:
                values = [math.nan]
            if not all(map(math.isfinite, values)):
                raise ConfigError(
                    f"{path}, line {line}: expected {len(header)} cells, "
                    f"the last {len(header) - n_keys} finite numbers"
                )
            cells = row[:n_keys]
            try:
                key = tuple(map(Fraction, cells))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"{path}, line {line}: key cells {cells} are not all numbers") from None
            if key in first_line:
                raise ConfigError(
                    f"{path}, lines {first_line[key]} and {line}: the same key {tuple(cells)}"
                )
            first_line[key] = line
            table[key] = values
        return header[:n_keys], len(header) - n_keys, table

    keys_a, width_a, table_a = read(path_a)
    keys_b, width_b, table_b = read(path_b)
    if keys_a != keys_b:
        raise ConfigError(f"key columns differ: {keys_a} vs {keys_b}")
    if width_a != width_b:
        raise ConfigError(f"value column counts differ: {width_a} vs {width_b}")
    shared = sorted(set(table_a) & set(table_b))
    # Each value cell is compared with the same cell of the other file.  Keys
    # present in only one file are compared against 0 (absent species have
    # zero concentration in every table this tool emits).
    zeros = [0.0] * width_a
    diffs = [
        abs(x - y)
        for k in shared + sorted(set(table_a) ^ set(table_b))
        for x, y in zip(table_a.get(k, zeros), table_b.get(k, zeros))
    ]
    max_diff = max(diffs) if diffs else 0.0
    mean_diff = sum(diffs) / len(diffs) if diffs else 0.0
    report = {
        "max_abs_diff": max_diff,
        "mean_abs_diff": mean_diff,
        "shared_rows": len(shared),
        "only_in_a": len(set(table_a) - set(table_b)),
        "only_in_b": len(set(table_b) - set(table_a)),
        "tolerance": tolerance,
        "within_tolerance": max_diff <= tolerance,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if max_diff <= tolerance else 1


# subcommands that write to --out: name -> (handler, help)
_OUT_COMMANDS = {
    "ode": (cmd_ode, "integrate the truncated kinetic system"),
    "explicit": (cmd_explicit, "tabulate closed-form family concentrations"),
    "simulate": (cmd_simulate, "run the stochastic particle system"),
    "limit": (cmd_limit, "limiting concentrations as t -> infinity"),
    "gw": (cmd_gw, "total-progeny law: series, sampled, and limit table"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coaglab",
        description="Two-gender coagulation laboratory: deterministic, exact, and stochastic runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="critical constants and degeneracy report")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="also write the JSON report here")

    for name, (_, text) in _OUT_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("compare", help="diff two CSV tables on their key columns")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tolerance", type=float, required=True)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.file_a, args.file_b, args.tolerance)
        cfg = load_config(args.config)
        if args.command == "analyze":
            cmd_analyze(cfg, Path(args.out) if args.out else None)
            return 0
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        preexisting = set(out_dir.iterdir())
        handler = _OUT_COMMANDS[args.command][0]
        try:
            handler(cfg, out_dir)
        except BaseException:  # drop partial outputs of the failed command, then report it
            for path in set(out_dir.iterdir()) - preexisting:
                try:
                    path.unlink()
                except OSError:
                    pass
            raise
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a path on the command line that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, IntegrationError, ValueError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
