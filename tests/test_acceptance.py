"""Release acceptance suite.

Each test implements one numbered exit criterion at its stated tolerance and
prints a PASS line when it holds.  Criterion 4 asserts the closed-form match
of the gelling family's second moment at every checkpoint through 0.9 T_c;
the measured truncation analysis (see the observables of the cap-refinement
runs) shows the late checkpoints require mass caps far beyond desk scale, so
failures there are expected and documented rather than masked.
"""

import csv
import json
import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from coaglab import (
    ConcentrationState,
    GWConfig,
    InitialGF,
    OneFemaleArm,
    ParticleType,
    RandomGender,
    SolverSettings,
    TruncationPolicy,
    TwoGender,
    concentration,
    gw_progeny_pmf_series,
    gw_sample_total_progeny,
    initial_arm_measure,
    initial_state,
    integrate,
    limiting_concentrations,
    live_types,
    moment,
    run_simulation,
    truncation_error_estimate,
)
from coaglab.cli import main as cli_main
from coaglab.exact import limiting_mass_concentration
from coaglab.measures import Measure1D, diamond, size_biased_laws
from coaglab.particles import ParticleSystemState, first_event_distribution

T_GRID = [0.25, 0.5, 1.0]
THREE_ARM_GRID = [0.25, 0.5, 0.75, 0.9]


def _ok(n: int, text: str) -> None:
    print(f"[acceptance] criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def families():
    return {
        "one_female": OneFemaleArm(Measure1D.delta(1)),
        "random_gender": RandomGender(Measure1D.delta(2)),
        "two_gender": TwoGender(Measure1D.delta(1), Measure1D.delta(1)),
    }


@pytest.fixture(scope="module")
def family_runs(families):
    """The three closed-form families integrated at mass cap 64, step 1e-3."""
    policy = TruncationPolicy(mass_cap=64, arm_cap=32)
    solver = SolverSettings(dt=1e-3)
    out = {}
    t0 = time.perf_counter()
    for name, fam in families.items():
        c0 = ConcentrationState({p: float(w) for p, w in initial_state(fam).items()})
        eps, runs = truncation_error_estimate(
            c0, T_GRID[-1], policy, solver, T_GRID, return_runs=True
        )
        out[name] = {"family": fam, "c0": c0, "traj": runs[-1], "eps": eps}
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def three_arm_runs(three_arm_state):
    """Gelling 3-arm family at mass caps 128/256/512 (no arm truncation)."""
    policy = TruncationPolicy(mass_cap=512, arm_cap=514)
    eps, runs = truncation_error_estimate(
        three_arm_state,
        THREE_ARM_GRID[-1],
        policy,
        SolverSettings(dt=5e-3),
        THREE_ARM_GRID,
        return_runs=True,
    )
    return {"eps": eps, "traj": runs[-1], "c0": three_arm_state}


def test_criterion_01_critical_time_oracle(three_arm_state, tmp_path, capsys):
    t0 = time.perf_counter()
    data = InitialGF(three_arm_state).critical_data()
    assert data.big_m == Fraction(2) and data.t_crit == Fraction(1)

    cfg = tmp_path / "three_arm.json"
    cfg.write_text(
        json.dumps(
            {
                "initial": [
                    {"a": 3, "b": 0, "m": 1, "conc": "1/3"},
                    {"a": 0, "b": 3, "m": 1, "conc": "1/3"},
                ],
                "t_grid": [0.5],
            }
        )
    )
    assert cli_main(["analyze", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["M"] == 2.0 and report["T_c"] == 1.0

    cfg2 = tmp_path / "d11.json"
    cfg2.write_text(
        json.dumps({"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [1.0]})
    )
    assert cli_main(["analyze", str(cfg2)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["M"] == 1.0 and report["T_c"] == "inf" and report["degenerate"] is True

    cfg3 = tmp_path / "unbalanced.json"
    cfg3.write_text(
        json.dumps({"initial": [{"a": 2, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [1.0]})
    )
    assert cli_main(["analyze", str(cfg3)]) == 2
    err = capsys.readouterr().err
    assert "<a>" in err and "<b>" in err
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"critical constants exact on all three analyze configs ({elapsed:.2f} s)")


def test_criterion_02_closed_form_vs_ode(family_runs):
    worst = 0.0
    for name, bundle in ((k, v) for k, v in family_runs.items() if k != "elapsed"):
        fam, traj = bundle["family"], bundle["traj"]
        for t in T_GRID:
            state = traj.state_at(t)
            for m in range(1, 13):
                for a, b in live_types(fam, m):
                    ref = float(concentration(fam, Fraction(t), a, b, m))
                    worst = max(worst, abs(state[(a, b, m)] - ref))
    assert worst <= 1e-8
    assert family_runs["elapsed"] < 30.0
    _ok(2, f"explicit vs ODE max abs diff {worst:.2e} <= 1e-8 "
           f"({family_runs['elapsed']:.1f} s for all runs)")


def test_criterion_03_conservation_suite(family_runs, three_arm_runs):
    bundles = [v for k, v in family_runs.items() if k != "elapsed"] + [three_arm_runs]
    for bundle in bundles:
        traj, eps = bundle["traj"], bundle["eps"]
        m0 = traj.observables[0].mass
        c0_total = traj.observables[0].total_conc
        for k, o in enumerate(traj.observables):
            assert abs(o.mass + o.lost_mass - m0) <= 1e-8
            tol_a = max(1e-6, eps["mean_a"][k])
            assert abs(o.mean_a - 1 / (1 + o.time)) <= tol_a
            assert abs(o.mean_b - 1 / (1 + o.time)) <= tol_a
            tol_c = max(1e-6, eps["total_conc"][k])
            assert abs(o.total_conc - (c0_total - o.time / (1 + o.time))) <= tol_c
    _ok(3, "mass, arm-identity, and total-concentration laws hold on every ODE run")


@pytest.mark.parametrize("t", THREE_ARM_GRID)
def test_criterion_04_second_moment_blowup(three_arm_runs, t):
    closed = 2.0 / ((1.0 - t) * (1.0 + 3.0 * t))
    obs = next(o for o in three_arm_runs["traj"].observables if abs(o.time - t) < 1e-12)
    gap = abs(obs.second_a - closed)
    assert gap <= 1e-4, (
        f"t = {t}: ODE second moment {obs.second_a:.6f} vs closed {closed:.6f} "
        f"(gap {gap:.3e}); the remaining truncation tail decays like "
        f"(4t/(1+t)^2)^mass_cap, so this checkpoint needs caps beyond desk scale"
    )
    _ok(4, f"second moment matches closed form at t = {t} (gap {gap:.2e})")


def test_criterion_04_closed_form_diverges(three_arm_state):
    gf = InitialGF(three_arm_state)
    val = gf.second_moments(1 - 1e-4)[0]
    assert val > 1e3
    _ok(4, f"closed-form second moment exceeds 1e3 near the critical time ({float(val):.0f})")


def three_arm_second_moment_by_mass(t: float, first: int, last: int) -> np.ndarray:
    """Sum of ``a(a-1) c_t(a, b, m)`` over each mass ``m`` in ``first..last``,
    from the closed form of the three-arm state.

    That state is ``TwoGender`` with ``mu1 = mu2 = {3: 1/3}``, whose
    size-biased laws are delta_2.  So K(a, b, m) has one term, the k with
    ``a = 2m - 3k + 1`` and ``b = 3k - m + 1``, and
    ``c_t = (2k)! (2m - 2k)! / (k! (m - k)! a! b!) tau^(m-1) (1+t)^-(m+2)``.
    Log-factorials come from one cumulative sum; masses go in blocks.
    """
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 2 * last + 2)))])
    log_tau, log_1t = math.log(t / (1 + t)), math.log1p(t)
    out = []
    for lo_m in range(first, last + 1, 256):
        m = np.arange(lo_m, min(lo_m + 256, last + 1))
        k_lo = (m + 1) // 3  # b >= 0
        n = (2 * m + 1) // 3 - k_lo + 1  # a >= 0
        starts = np.cumsum(n) - n
        mm = np.repeat(m, n)
        k = np.arange(n.sum()) - np.repeat(starts - k_lo, n)
        a, b = 2 * mm - 3 * k + 1, 3 * k - mm + 1
        log_c = logfact[2 * k] + logfact[2 * (mm - k)] - logfact[k] - logfact[mm - k]
        log_c += (mm - 1) * log_tau - (mm + 2) * log_1t - logfact[a] - logfact[b]
        out.append(np.add.reduceat(a * (a - 1) * np.exp(log_c), starts))
    return np.concatenate(out)


def test_criterion_04_needs_mass_cap_3315(three_arm_state):
    """The part of <a^2 - a> at t = 0.9 above a mass cap, summed from the
    closed form: the ODE can meet 1e-4 there only from mass cap 3315 on."""
    t = 0.9
    mu = Measure1D.from_dict({3: Fraction(1, 3)})
    fam = TwoGender(mu, mu)
    assert dict(initial_state(fam).items()) == dict(three_arm_state.items())
    head = three_arm_second_moment_by_mass(t, 1, 3314)
    for m in range(1, 9):  # the helper's terms against the exact evaluator
        exact = sum(a * (a - 1) * concentration(fam, t, a, b, m) for a, b in live_types(fam, m))
        assert head[m - 1] == pytest.approx(exact, rel=1e-12)
    tail = three_arm_second_moment_by_mass(t, 3315, 8000)  # what lies past 8000 is 1.5e-10
    above_3314, above_3315 = tail.sum(), tail[1:].sum()
    closed = 2 / ((1 - t) * (1 + 3 * t))
    assert abs(head.sum() + above_3314 - closed) <= 2e-10
    assert above_3314 == pytest.approx(1.00017e-4, rel=1e-5)
    assert above_3315 == pytest.approx(9.9726e-5, rel=1e-5)
    assert above_3314 > 1e-4 > above_3315
    _ok(4, f"the closed form leaves {above_3315:.4e} of <a^2-a> above mass 3315 at t = {t}")


def test_criterion_05_characteristics_round_trip(family_runs, three_arm_state, pq_state):
    states = [
        ConcentrationState({(1, 1, 1): 1.0}),
        family_runs["random_gender"]["c0"],
        family_runs["two_gender"]["c0"],
        three_arm_state,
        pq_state,
    ]
    grid = np.linspace(0.05, 0.95, 4)
    for c0 in states:
        gf = InitialGF(c0)
        horizon = min(float(gf.critical_data().t_crit), 10.0)
        for frac in (0.1, 0.5, 0.9):
            t = frac * horizon
            for u in grid:
                for v in grid:
                    for z in grid:
                        hx, hy = gf.invert_phi(t, u, v, z)
                        pu, pv = gf.phi(t, hx, hy, z)
                        assert max(abs(pu - u), abs(pv - v)) <= 1e-10

    # generating-function value vs the ODE-summed series at interior points
    points = [(0.3, 0.7, 0.5), (0.5, 0.5, 0.5), (0.7, 0.3, 0.4), (0.6, 0.8, 0.3), (0.2, 0.4, 0.6)]
    t = 0.5
    for name, bundle in ((k, v) for k, v in family_runs.items() if k != "elapsed"):
        gf = InitialGF(bundle["c0"])
        state = bundle["traj"].state_at(t)
        for x, y, z in points:
            series = sum(w * x**p.a * y**p.b * z**p.m for p, w in state.items())
            assert abs(gf.eval_g(t, x, y, z) - series) <= 1e-6
    _ok(5, "phi/h round trip within 1e-10 and g_t matches the ODE series within 1e-6")


def test_criterion_06_limiting_state_three_way(pq_state):
    t0 = time.perf_counter()
    limit = limiting_concentrations(pq_state, 12)
    nu_m, nu_f = size_biased_laws(initial_arm_measure(pq_state))
    pmf = gw_progeny_pmf_series(nu_m, nu_f, 12)
    for m in range(2, 13):
        assert pmf[m] == (m - 1) * limit.c_inf[m]  # exact rational identity

    sample = gw_sample_total_progeny(GWConfig(nu_m, nu_f, replicates=100_000, seed=0))
    assert sample.censored == 0
    for m in range(2, 9):
        p = float(pmf[m])
        sigma = math.sqrt(p * (1 - p) / sample.replicates)
        assert abs(sample.pmf(m) - p) <= 3 * sigma

    pair = ConcentrationState({(1, 0, 1): Fraction(1), (0, 1, 1): Fraction(1)})
    pair_limit = limiting_concentrations(pair, 12)
    assert pair_limit.c_inf[2] == 1
    fam = TwoGender(Measure1D.delta(1), Measure1D.delta(1))
    for m in range(2, 13):
        assert pair_limit.c_inf[m] == limiting_mass_concentration(fam, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(6, f"series pmf, (m-1) c_inf, sampled pmf, and diamond limit agree ({elapsed:.1f} s)")


def _brute_power(nu: Measure1D, k: int) -> dict:
    acc = {0: Fraction(1)}
    for _ in range(k):
        nxt = {}
        for j1, w1 in acc.items():
            for j2, w2 in nu.weights:
                nxt[j1 + j2] = nxt.get(j1 + j2, 0) + w1 * w2
        acc = nxt
    return acc


def test_criterion_07_diamond_identity():
    measures = [
        Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)}),
        Measure1D.from_dict({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}),
    ]
    for nu in measures:
        for m in range(2, 13):
            lhs = diamond(nu, nu, m)
            rhs = Fraction(2, m) * _brute_power(nu, m).get(m - 2, Fraction(0))
            assert lhs == rhs
    _ok(7, "diamond product equals (2/m) nu^{*m}(m-2) exactly for both test measures")


def test_criterion_08_hydrodynamic_convergence():
    t0 = time.perf_counter()
    closed = {
        ParticleType(1, 1, m): 1.0 / 2 ** (m + 1) for m in range(1, 6)
    }

    def sup_error(n, seed):
        run = run_simulation({(1, 1, 1): n}, n=n, t_end=1.0, checkpoints=[1.0], seed=seed)
        state = run.states[-1]
        return max(abs(state.get(p, 0.0) - v) for p, v in closed.items())

    seeds = range(20)
    errors = {n: [sup_error(n, s) for s in seeds] for n in (10**3, 10**4, 10**5)}
    hits = sum(e <= 0.01 for e in errors[10**5])
    assert hits >= 18
    means = [np.mean(errors[n]) for n in (10**3, 10**4, 10**5)]
    assert means[0] >= means[1] >= means[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(
        8,
        f"sup error <= 0.01 in {hits}/20 seeds at n=1e5; mean errors "
        f"{means[0]:.4f} >= {means[1]:.4f} >= {means[2]:.4f} ({elapsed:.0f} s)",
    )


def _pair_table(counts: dict) -> dict:
    def rate(p, q):
        return q[0] * p[1] + p[0] * q[1]

    items = sorted(counts.items())
    table = {}
    for i, (p, kp) in enumerate(items):
        for q, kq in items[i:]:
            lam = 0.5 * rate(p, p) * kp * (kp - 1) if p == q else rate(p, q) * kp * kq
            if lam > 0:
                table[(ParticleType(*p), ParticleType(*q))] = lam
    total = sum(table.values())
    return {k: v / total for k, v in table.items()}


def test_criterion_09_event_rate_correctness():
    t0 = time.perf_counter()
    species = [(1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)]
    draws = 10**6
    states = checked = 0
    for size in (2, 3, 4):
        for combo in combinations_with_replacement(species, size):
            counts = {}
            for p in combo:
                counts[p] = counts.get(p, 0) + 1
            if ParticleSystemState(counts, n=1).total_rate() == 0:
                continue
            states += 1
            emp = first_event_distribution(counts, draws, seed=states)
            table = _pair_table(counts)
            assert set(emp) == set(table)
            for pair, prob in table.items():
                sigma = math.sqrt(prob * (1 - prob) / draws)
                assert abs(emp[pair] - prob) <= 4 * sigma + 1e-12
                checked += 1
    elapsed = time.perf_counter() - t0
    assert states > 40
    _ok(9, f"{checked} pair probabilities across {states} states within 4 sigma ({elapsed:.0f} s)")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}],
                "t_grid": [0.5, 1.0],
                "n": 2000,
                "seed": 77,
                "replicates": 3,
            }
        )
    )
    gw_cfg = tmp_path / "gw.json"
    gw_cfg.write_text(
        json.dumps(
            {
                "initial": [
                    {"a": 1, "b": 0, "m": 1, "conc": "1/2"},
                    {"a": 0, "b": 1, "m": 1, "conc": "1/2"},
                    {"a": 1, "b": 1, "m": 1, "conc": "1/2"},
                ],
                "t_grid": [1.0],
                "seed": 77,
                "max_mass": 10,
                "gw": {"replicates": 20000, "population_cap": 100000},
            }
        )
    )
    digests = []
    for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        monkeypatch.setenv("COAG_THREADS", threads)
        sim_out = tmp_path / f"sim_{tag}"
        gw_out = tmp_path / f"gw_{tag}"
        assert cli_main(["simulate", str(sim_cfg), "--out", str(sim_out)]) == 0
        assert cli_main(["gw", str(gw_cfg), "--out", str(gw_out)]) == 0
        digests.append(
            tuple(
                (p.name, p.read_bytes())
                for d in (sim_out, gw_out)
                for p in sorted(d.iterdir())
            )
        )
    assert digests[0] == digests[1] == digests[2]
    _ok(10, "simulate and gw outputs byte-identical across reruns and COAG_THREADS")
