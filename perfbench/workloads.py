"""The four benchmark workloads.

Each workload supplies seven functions and a table of perturbations:

* ``inputs(seed, workdir)`` builds everything the study needs from the seed
  (this is part of the measured set-up time);
* ``study(inp)`` is the timed call into coaglab;
* ``summarize(inp, raw)`` turns the study's return value into plain data;
* ``reference(inp)`` computes the oracle data the checks compare against.  It
  runs once per benchmark run, in its own child, and must be JSON-serializable;
* ``checks(inp, result, ref)`` returns ``(name, ok, detail)`` triples;
* ``counts(result, ref)`` returns the deterministic numbers that must repeat
  exactly for a given seed;
* ``calibrate()`` returns the CPU time of a fixed job of the study's kind
  (FFTs, pair gather/scatter, scalar draws and list walks, exact rational
  products) that uses numpy and the standard library only, never coaglab.
  It runs right after the study, so the study's CPU time divided by it
  cancels most of the drift in the host's speed (``solve_time_rel``);
* ``perturb[name]`` spoils a copy of a correct result so that check ``name``
  must fail (see ``selftest.py``).

Study code calls coaglab through module attributes (``kinetics.integrate``,
``cli.main``, ...) so that the traced run sees the wrappers of ``tracing.py``.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

from coaglab import cli, exact, genfun, kinetics, limits, measures, particles
from coaglab.core import ConcentrationState, ParticleType

THREE_ARM = {(3, 0, 1): Fraction(1, 3), (0, 3, 1): Fraction(1, 3)}
PQ = {(1, 0, 1): Fraction(1, 2), (0, 1, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)}
MIXED = [(2, 1, 1), (1, 2, 1), (1, 0, 1), (0, 1, 1)]

MASS_TOL = 1e-8
FAMILY_WISE_ALPHA = 1e-4  # false-alarm rate of one statistical check per run


def _z_bound(z_min: float, k: int) -> float:
    """Per-value sigma multiple: at least ``z_min``, and wide enough that ``k``
    simultaneous comparisons of a correct sampler fail together with
    probability below ``FAMILY_WISE_ALPHA`` (Bonferroni)."""
    return max(z_min, NormalDist().inv_cdf(1.0 - FAMILY_WISE_ALPHA / (2 * k)))


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _mass_balance(runs) -> tuple[bool, str]:
    worst = 0.0
    for obs in runs:
        if not obs:
            return False, "no observables"
        m0 = obs[0]["mass"]
        worst = max(worst, max(abs(o["mass"] + o["lost_mass"] - m0) for o in obs))
    return worst <= MASS_TOL, f"max |retained + lost - initial| = {worst:.3e}"


def _arm_identity(obs, eps) -> tuple[bool, str]:
    """``<a> = <b> = 1/(1+t)`` within max(1e-6, truncation estimate)."""
    if len(obs) != len(eps["mean_a"]):
        return False, f"{len(obs)} checkpoints against {len(eps['mean_a'])} estimates"
    worst = -math.inf
    for k, o in enumerate(obs):
        exact_mean = 1.0 / (1.0 + o["time"])
        for key in ("mean_a", "mean_b"):
            tol = max(1e-6, eps[key][k])
            worst = max(worst, abs(o[key] - exact_mean) - tol)
    return worst <= 0.0, f"worst excess over tolerance {worst:.3e}"


def _moment_gap(obs, second_closed: float) -> float:
    return abs(obs[-1]["second_a"] - second_closed)


def _bump(key, delta, checkpoint=-1):
    """Perturbation: add ``delta`` to ``key`` at one checkpoint of the last run."""

    def apply(result):
        runs = result["runs"] if "runs" in result else [result["obs"]]
        runs[-1][checkpoint][key] += delta
        return result

    return apply


# ---------------------------------------------------------------------------
# gel_fft: the uniform-arm FFT engine with step bisection


GEL_CAP = 160
GEL_DT = 0.05
GEL_GRID = [0.25, 0.5, 0.75]


def gel_inputs(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    # The seed only reorders the initial support; the result must not change.
    c0 = ConcentrationState(dict(_shuffled(rng, THREE_ARM.items())))
    return {
        "c0": c0,
        "policy": kinetics.TruncationPolicy(mass_cap=GEL_CAP, arm_cap=GEL_CAP + 2),
        "solver": kinetics.SolverSettings(dt=GEL_DT),
    }


def gel_study(inp):
    return kinetics.truncation_error_estimate(
        inp["c0"], GEL_GRID[-1], inp["policy"], inp["solver"], GEL_GRID, return_runs=True
    )


def gel_summarize(inp, raw) -> dict:
    eps, runs = raw
    return {"eps": eps, "runs": [[asdict(o) for o in r.observables] for r in runs]}


def gel_reference(inp) -> dict:
    return {"second_closed": float(genfun.InitialGF(inp["c0"]).second_moments(GEL_GRID[-1])[0])}


def gel_checks(inp, result, ref):
    return [
        ("mass_balance", *_mass_balance(result["runs"])),
        ("arm_identity", *_arm_identity(result["runs"][-1], result["eps"])),
    ]


def gel_counts(result, ref) -> dict:
    return {"moment_gap": _moment_gap(result["runs"][-1], ref["second_closed"])}


def gel_calibrate() -> float:
    """Real FFT convolutions on the padded grid of the top-cap engine."""
    u, v = np.random.default_rng(1).random((2, GEL_CAP + 4, GEL_CAP + 1))
    shape = (360, 324)
    t0 = time.process_time()
    for _ in range(12):
        np.fft.irfft2(np.fft.rfft2(u, shape) * np.fft.rfft2(v, shape), shape)
    return time.process_time() - t0


# ---------------------------------------------------------------------------
# mixed_pairs: the pair engine through the CLI


# Caps small enough that the engine's pair arrays (42 587 pairs) stay in cache:
# at mass cap 28 (225 184 pairs) the study is bound by memory bandwidth, which
# neighbours on a shared host make swing by a factor of two.
MIXED_CAPS = {"mass_cap": 20, "arm_cap": 10}
MIXED_DT = 0.0025
MIXED_GRID = [0.25, 0.5, 1.0]


def mixed_inputs(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    # Equal weights at a seed-drawn scale, in a seed-drawn order: the CLI
    # normalizes both away, so only the echoed config in meta.json changes.
    scale = rng.randint(1, 9)
    rows = [{"a": a, "b": b, "m": m, "conc": f"{scale}/4"} for a, b, m in MIXED]
    config = {
        "initial": _shuffled(rng, rows),
        "truncation": MIXED_CAPS,
        "solver": {"rhs": "full", "dt": MIXED_DT},
        "t_grid": MIXED_GRID,
    }
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "mixed.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = workdir / "out"
    out_dir.mkdir(exist_ok=True)
    return {"config": str(cfg_path), "out": out_dir}


def mixed_study(inp):
    return cli.main(["ode", inp["config"], "--out", str(inp["out"])])


def mixed_summarize(inp, raw) -> dict:
    out = inp["out"]
    obs = []
    path = out / "observables.csv"
    if path.exists():
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                row = {k: float(v) for k, v in row.items()}
                row["time"] = row.pop("t")
                obs.append(row)
    written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return {"exit": raw, "obs": obs, "bytes_written": written}


def mixed_reference(inp) -> dict:
    cfg = cli.load_config(inp["config"])
    c0, _ = cfg.state()
    grid = [float(t) for t in cfg.t_grid]
    eps = kinetics.truncation_error_estimate(c0, grid[-1], cfg.truncation, cfg.solver, grid)
    closed = genfun.InitialGF(c0).second_moments(grid[-1])[0]
    return {"eps": eps, "second_closed": float(closed)}


def mixed_checks(inp, result, ref):
    return [
        ("cli_exit_zero", result["exit"] == 0, f"exit code {result['exit']}"),
        ("mass_balance", *_mass_balance([result["obs"]])),
        ("arm_identity", *_arm_identity(result["obs"], ref["eps"])),
    ]


def mixed_counts(result, ref) -> dict:
    gap = _moment_gap(result["obs"], ref["second_closed"]) if result["obs"] else math.inf
    return {"bytes_written": result["bytes_written"], "moment_gap": gap}


def mixed_calibrate() -> float:
    """Gather, multiply and scatter-add over as many pairs and species as the
    study's engine has (42 587 and 794)."""
    rng = np.random.default_rng(2)
    n, pairs = 794, 42_587
    i, j, tgt = rng.integers(0, n, size=(3, pairs))
    coeff, c = rng.random(pairs), rng.random(n)
    t0 = time.process_time()
    for _ in range(150):
        np.bincount(tgt, weights=coeff * c[i] * c[j], minlength=n)
    return time.process_time() - t0


# ---------------------------------------------------------------------------
# stochastic: simulator events, frozen-state sampler draws, GW trees


SIM_N = 50_000
SIM_GRID = [0.5, 1.0]
SIM_MASSES = range(1, 6)
# Fixed, so that the rejection rate, and with it the cost, is the same for every seed.
SAMPLER_STATE = {(1, 0, 1): 2, (0, 1, 1): 2, (1, 1, 1): 1, (2, 1, 1): 1}
SAMPLER_DRAWS = 100_000
GW_REPLICATES = 20_000
GW_MASSES = range(2, 9)


def _pair_key(p, q) -> str:
    return "|".join(",".join(str(int(v)) for v in s) for s in (p, q))


def stochastic_inputs(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    nu_m, nu_f = measures.size_biased_laws(limits.initial_arm_measure(ConcentrationState(PQ)))
    return {
        "sim_seed": rng.getrandbits(63),
        "draw_seed": rng.getrandbits(63),
        "gw": limits.GWConfig(nu_m, nu_f, replicates=GW_REPLICATES, seed=rng.getrandbits(63)),
    }


def stochastic_study(inp):
    run = particles.run_simulation(
        {(1, 1, 1): SIM_N}, SIM_N, SIM_GRID[-1], checkpoints=SIM_GRID, seed=inp["sim_seed"]
    )
    dist = particles.first_event_distribution(SAMPLER_STATE, SAMPLER_DRAWS, seed=inp["draw_seed"])
    sample = limits.gw_sample_total_progeny(inp["gw"])
    return run, dist, sample


def stochastic_summarize(inp, raw) -> dict:
    run, dist, sample = raw
    male = sum(p[0] * k for p, k in SAMPLER_STATE.items())
    female = sum(p[1] * k for p, k in SAMPLER_STATE.items())
    rate = male * female - sum(p[0] * p[1] * k for p, k in SAMPLER_STATE.items())
    return {
        "sim": {
            "times": list(run.times),
            "conc": [[s.get(ParticleType(1, 1, m), 0.0) for m in SIM_MASSES] for s in run.states],
            "events": run.events,
        },
        "pairs": {_pair_key(p, q): v for (p, q), v in dist.items()},
        "gw": {
            "counts": dict(sample.counts),
            "replicates": sample.replicates,
            "censored": sample.censored,
        },
        "accept_frac": rate / (male * female),
    }


def stochastic_reference(inp) -> dict:
    one_female = exact.OneFemaleArm(measures.Measure1D.delta(1))
    closed = [
        [float(exact.concentration(one_female, Fraction(t), 1, 1, m)) for m in SIM_MASSES]
        for t in SIM_GRID
    ]
    # Brute-force event law of the frozen state: rate(p, q) * eta(p) * eta(q),
    # with eta(p) (eta(p) - 1) / 2 on the diagonal.
    items = sorted(SAMPLER_STATE.items())
    table = {}
    for i, (p, kp) in enumerate(items):
        for q, kq in items[i:]:
            rate = q[0] * p[1] + p[0] * q[1]
            lam = rate * kp * (kp - 1) / 2 if p == q else rate * kp * kq
            if lam > 0:
                table[_pair_key(p, q)] = lam
    total = sum(table.values())
    cfg = inp["gw"]
    pmf = limits.gw_progeny_pmf_series(cfg.nu_m, cfg.nu_f, max(GW_MASSES))
    return {
        "closed": closed,
        "pairs": {k: v / total for k, v in table.items()},
        "gw_pmf": [float(v) for v in pmf],
    }


def stochastic_checks(inp, result, ref):
    sim = result["sim"]
    hydro = max(
        (abs(e - c) for emp, cl in zip(sim["conc"], ref["closed"]) for e, c in zip(emp, cl)),
        default=math.inf,
    )
    hydro_ok = sim["times"] == SIM_GRID and hydro <= 0.01

    emp, table = result["pairs"], ref["pairs"]
    z = _z_bound(4.0, len(table))
    excess = max(
        abs(emp.get(k, 0.0) - p) - (z * math.sqrt(p * (1 - p) / SAMPLER_DRAWS) + 1e-12)
        for k, p in table.items()
    )

    gw = result["gw"]
    zg = _z_bound(3.0, len(GW_MASSES))
    gw_excess = -math.inf
    for m in GW_MASSES:
        p = ref["gw_pmf"][m]
        sigma = math.sqrt(p * (1 - p) / gw["replicates"])
        gw_excess = max(gw_excess, abs(gw["counts"].get(m, 0) / gw["replicates"] - p) - zg * sigma)
    return [
        ("hydrodynamic_limit", hydro_ok, f"sup |C_n - closed form| = {hydro:.4f}"),
        ("sampler_support", set(emp) == set(table), f"{len(emp)} pairs against {len(table)}"),
        ("sampler_law", excess <= 0.0, f"worst excess over {z:.2f} sigma: {excess:.2e}"),
        (
            "gw_law",
            gw_excess <= 0.0 and gw["censored"] == 0,
            f"worst excess over {zg:.2f} sigma: {gw_excess:.2e}; censored {gw['censored']}",
        ),
    ]


def stochastic_counts(result, ref) -> dict:
    gw = result["gw"]
    return {
        "events": result["sim"]["events"],
        "draws": SAMPLER_DRAWS,
        "gw_replicates": gw["replicates"],
        "gw_nodes": sum(m * c for m, c in gw["counts"].items()),
        "gw_censored": gw["censored"],
        "sampler_accept_frac": result["accept_frac"],
    }


def stochastic_calibrate() -> float:
    """Scalar generator draws, each followed by a Fenwick-tree descent over a
    Python list, as the simulator and the samplers do per event or draw."""
    rng = np.random.default_rng(3)
    size = 1 << 17
    tree = [i & -i for i in range(size + 1)]  # Fenwick tree of unit weights
    t0 = time.process_time()
    for _ in range(12_000):
        rem, pos, bit = int(rng.integers(size)), 0, size
        while bit:
            nxt = pos + bit
            if nxt <= size and tree[nxt] <= rem:
                pos, rem = nxt, rem - tree[nxt]
            bit >>= 1
    return time.process_time() - t0


def _spoil_pairs(result):
    pairs = result["pairs"]
    first, second = sorted(pairs)[:2]
    pairs[first] += 0.02
    pairs[second] -= 0.02
    return result


def _spoil_gw(result):
    counts = result["gw"]["counts"]
    moved = result["gw"]["replicates"] // 50
    counts[2] -= moved
    counts[3] = counts.get(3, 0) + moved
    return result


def _spoil_sim(result):
    result["sim"]["conc"][-1][0] += 0.02
    return result


def _drop_pair(result):
    result["pairs"].pop(sorted(result["pairs"])[0])
    return result


# ---------------------------------------------------------------------------
# exact_limit: exact series fixed points, closed-form tables, inversion


SERIES_ORDER = 96
TABLE_MAX_MASS = 32
TABLE_TIMES = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
INVERT_POINTS = 64
INVERT_TIME_FRACS = (0.1, 0.5, 0.9)


def _table_key(t, a, b, m) -> str:
    return f"{t}|{a}|{b}|{m}"


def exact_inputs(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    pq = ConcentrationState(PQ)
    gfs = [genfun.InitialGF(ConcentrationState(THREE_ARM)), genfun.InitialGF(pq)]
    grid = []
    for gi, gf in enumerate(gfs):
        horizon = min(float(gf.critical_data().t_crit), 10.0)
        for frac in INVERT_TIME_FRACS:
            for _ in range(INVERT_POINTS):
                u, v, z = (rng.uniform(0.05, 0.95) for _ in range(3))
                grid.append((gi, frac * horizon, u, v, z))
    nu_m, nu_f = measures.size_biased_laws(limits.initial_arm_measure(pq))
    family = exact.RandomGender(measures.Measure1D.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}))
    return {"pq": pq, "laws": (nu_m, nu_f), "family": family, "gfs": gfs, "grid": grid}


def exact_study(inp):
    limit = limits.limiting_concentrations(inp["pq"], SERIES_ORDER)
    pmf = limits.gw_progeny_pmf_series(*inp["laws"], SERIES_ORDER)
    fam = inp["family"]
    table = {
        _table_key(t, a, b, m): exact.concentration(fam, t, a, b, m)
        for t in TABLE_TIMES
        for m in range(1, TABLE_MAX_MASS + 1)
        for a, b in exact.live_types(fam, m)
    }
    inverses = []
    iters = 0
    for gi, t, u, v, z in inp["grid"]:
        history: list = []
        x, y = inp["gfs"][gi].invert_phi(t, u, v, z, history=history)
        iters += len(history)
        inverses.append((gi, t, u, v, z, x, y))
    return limit, pmf, table, inverses, iters


def exact_summarize(inp, raw) -> dict:
    limit, pmf, table, inverses, iters = raw
    return {
        "c_inf": dict(limit.c_inf),
        "pmf": list(pmf),
        "table": table,
        "inverses": inverses,
        "invert_iters": iters,
    }


def exact_reference(inp) -> dict:
    mu1 = {j: float(w) for j, w in inp["family"].mu1.weights}
    fam = exact.RandomGender(measures.Measure1D.from_dict(mu1))
    return {
        "float_table": {
            _table_key(t, a, b, m): exact.concentration(fam, float(t), a, b, m)
            for t in TABLE_TIMES
            for m in range(1, TABLE_MAX_MASS + 1)
            for a, b in exact.live_types(inp["family"], m)
        }
    }


def exact_checks(inp, result, ref):
    c_inf, pmf = result["c_inf"], result["pmf"]
    pmf_ok = (
        len(pmf) == SERIES_ORDER + 1
        and pmf[0] == pmf[1] == 0
        and all(pmf[m] == (m - 1) * c_inf[m] for m in range(2, SERIES_ORDER + 1))
    )
    residual = 0.0
    for gi, t, u, v, z, x, y in result["inverses"]:
        pu, pv = inp["gfs"][gi].phi(t, x, y, z)
        residual = max(residual, abs(pu - u), abs(pv - v))
    round_trip_ok = len(result["inverses"]) == len(inp["grid"]) and residual <= 1e-10

    floats, table = ref["float_table"], result["table"]
    rel = 0.0
    for key, value in table.items():
        fv, ev = floats.get(key, math.nan), float(value)
        if fv != ev:
            rel = max(rel, abs(fv - ev) / abs(ev) if ev else math.inf)
    table_ok = set(table) == set(floats) and rel <= 1e-12
    return [
        ("pmf_identity", pmf_ok, "pmf[m] == (m - 1) c_inf[m] for 2 <= m <= order"),
        ("invert_round_trip", round_trip_ok, f"max phi(h(u, v)) residual {residual:.2e}"),
        ("table_exact_vs_float", table_ok, f"max relative gap {rel:.2e}"),
    ]


def exact_counts(result, ref) -> dict:
    return {"invert_iters": result["invert_iters"], "table_entries": len(result["table"])}


def exact_calibrate() -> float:
    """Truncated products of two series with dyadic rational coefficients."""
    x = [Fraction(k + 1, 2**k) for k in range(SERIES_ORDER)]
    y = [Fraction(3**k, 2 ** (k + 1)) for k in range(SERIES_ORDER)]
    t0 = time.process_time()
    for _ in range(2):
        [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(SERIES_ORDER)]
    return time.process_time() - t0


def _spoil_pmf(result):
    result["pmf"][SERIES_ORDER // 2] += Fraction(1, 10**30)
    return result


def _spoil_inverse(result):
    gi, t, u, v, z, x, y = result["inverses"][0]
    result["inverses"][0] = (gi, t, u, v, z, x + 1e-6, y)
    return result


def _spoil_table(result):
    key = next(k for k in sorted(result["table"]) if result["table"][k] != 0)
    result["table"][key] *= 1 + Fraction(1, 10**9)
    return result


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    study: Callable
    summarize: Callable
    reference: Callable
    checks: Callable
    counts: Callable
    calibrate: Callable
    perturb: dict


WORKLOADS = {
    "gel_fft": Workload(
        gel_inputs,
        gel_study,
        gel_summarize,
        gel_reference,
        gel_checks,
        gel_counts,
        gel_calibrate,
        {"mass_balance": _bump("lost_mass", 1e-6), "arm_identity": _bump("mean_b", 0.05)},
    ),
    "mixed_pairs": Workload(
        mixed_inputs,
        mixed_study,
        mixed_summarize,
        mixed_reference,
        mixed_checks,
        mixed_counts,
        mixed_calibrate,
        {
            "cli_exit_zero": lambda r: {**r, "exit": 1},
            "mass_balance": _bump("lost_mass", 1e-6),
            "arm_identity": _bump("mean_a", 0.05, checkpoint=2),
        },
    ),
    "stochastic": Workload(
        stochastic_inputs,
        stochastic_study,
        stochastic_summarize,
        stochastic_reference,
        stochastic_checks,
        stochastic_counts,
        stochastic_calibrate,
        {
            "hydrodynamic_limit": _spoil_sim,
            "sampler_support": _drop_pair,
            "sampler_law": _spoil_pairs,
            "gw_law": _spoil_gw,
        },
    ),
    "exact_limit": Workload(
        exact_inputs,
        exact_study,
        exact_summarize,
        exact_reference,
        exact_checks,
        exact_counts,
        exact_calibrate,
        {
            "pmf_identity": _spoil_pmf,
            "invert_round_trip": _spoil_inverse,
            "table_exact_vs_float": _spoil_table,
        },
    ),
}
