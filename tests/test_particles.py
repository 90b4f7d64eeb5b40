import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coaglab import (
    ConcentrationState,
    ParticleType,
    SolverSettings,
    Trajectory,
    TruncationPolicy,
    empirical_error,
    first_event_distribution,
    integrate,
    run_simulation,
)
from coaglab.particles import ParticleSystemState, _Draws, _event_loop, _Fenwick, _uniform_below


def _loop(state, seed):
    """The event loop of ``state``, drawing from a fresh generator of ``seed``,
    as :func:`run_simulation` builds it."""
    return _event_loop(state, _Draws(np.random.default_rng(seed)))


def _fired(state, loop):
    """Fire the events of ``loop`` one ``next`` at a time, until ``state`` is
    absorbed, yielding the species each one removed and the one it added as
    Counter differences of ``state.counts``.  The merged species is heavier
    than either departure, so the two differences never cancel."""
    dt = next(loop)
    while dt < math.inf:
        before = Counter(state.counts)
        dt = next(loop)
        after = Counter(state.counts)
        yield before - after, after - before


def brute_force_pair_table(counts: dict) -> dict:
    """Normalized event law over canonical species pairs, via the ordered
    rate table lambda(p, q) = p.q eta(p) eta(q) / 2 (diagonal uses eta(eta-1))."""

    def rate(p, q):
        return q[0] * p[1] + p[0] * q[1]

    table = {}
    items = sorted(counts.items())
    for i, (p, kp) in enumerate(items):
        for q, kq in items[i:]:
            if p == q:
                lam = 0.5 * rate(p, p) * kp * (kp - 1)
            else:
                lam = rate(p, q) * kp * kq
            if lam > 0:
                table[(ParticleType(*p), ParticleType(*q))] = lam
    total = sum(table.values())
    return {k: v / total for k, v in table.items()}


def _naive_locate(weights, v):
    """The slot holding cumulative position v and the remainder within it."""
    cum = 0
    for i, w in enumerate(weights):
        if cum + w > v:
            return i, v - cum
        cum += w


_WEIGHTS = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40)
_UPDATES = st.lists(st.tuples(st.integers(min_value=0, max_value=39), st.integers(0, 9)), max_size=4)


def _fresh_and_rebuilt(weights, updates):
    """The weights of a fresh tree, then those of one rebuilt after the updates."""
    rebuilt = list(weights)
    for i, w in updates:
        rebuilt[i % len(rebuilt)] = w
    return weights, rebuilt


@given(_WEIGHTS, _UPDATES)
def test_fenwick_against_naive(weights, updates):
    """Scalar and vectorised descents equal brute-force prefix sums."""
    for w in _fresh_and_rebuilt(weights, updates):
        f = _Fenwick(w)
        assert f.tree[0] == 0
        v = np.arange(sum(w))
        want = [_naive_locate(w, x) for x in v.tolist()]
        assert [f.locate(x) for x in v.tolist()] == want
        pos, rem = f.locate_many(v)
        assert list(zip(pos.tolist(), rem.tolist())) == want


@given(_WEIGHTS, _UPDATES)
def test_fenwick_locate_returns_the_remainder_within_the_slot(weights, updates):
    for w in _fresh_and_rebuilt(weights, updates):
        pos, rem = _Fenwick(w).locate_many(np.arange(sum(w)))
        for x, (i, r) in enumerate(zip(pos.tolist(), rem.tolist())):
            assert sum(w[:i]) + r == x
            assert 0 <= r < w[i]


@pytest.mark.parametrize("bound", [1, 3, 2**62 + 1])
def test_uniform_below_rejects_words_past_the_last_full_block(bound):
    limit = (2**63 // bound) * bound
    rejected = [w for w in (limit, limit + 1, 2**63 - 1) if limit <= w < 2**63]
    for accepted in (limit - 1, limit - 2, 0):
        words = iter(rejected + [accepted, 12345])
        assert _uniform_below(bound, words.__next__) == accepted % bound
        assert next(words) == 12345  # every rejected word and one more were read


def test_total_rate_examples():
    assert ParticleSystemState({(1, 0, 1): 1, (0, 1, 1): 1}, n=2).total_rate() == 1
    assert ParticleSystemState({(1, 1, 1): 2}, n=2).total_rate() == 2
    assert ParticleSystemState({(2, 1, 1): 1}, n=1).total_rate() == 0


def test_step_examples():
    s = ParticleSystemState({(1, 0, 1): 1, (0, 1, 1): 1}, n=2)
    loop = _loop(s, 0)
    (departed, merged), = _fired(s, loop)
    s.check_consistency()
    assert departed == {(1, 0, 1): 1, (0, 1, 1): 1} and merged == {(0, 0, 2): 1}
    assert s.counts == {ParticleType(0, 0, 2): 1}
    # The male's slot 0 is freed first, the female's slot 1 last, and the
    # merged species takes the slot freed last.
    assert s.types == [None, ParticleType(0, 0, 2)]
    assert next(loop) == next(loop) == math.inf  # absorbed, and it stays so

    s = ParticleSystemState({(1, 1, 1): 2}, n=2)
    (departed, merged), = _fired(s, _loop(s, 0))
    s.check_consistency()
    assert departed == {(1, 1, 1): 2} and merged == {(1, 1, 2): 1}

    s = ParticleSystemState({(2, 0, 1): 1, (0, 0, 5): 7}, n=8)
    assert s.total_rate() == 0
    assert next(_loop(s, 0)) == math.inf


def test_event_conservation_laws():
    s = ParticleSystemState({(3, 0, 1): 40, (0, 3, 1): 40, (1, 1, 1): 20}, n=100)
    mass0 = s.total_mass
    totals = s.total_male, s.total_female, s.n_particles
    for _ in _fired(s, _loop(s, 42)):
        s.check_consistency()
        assert s.total_mass == mass0
        assert (s.total_male, s.total_female, s.n_particles) == tuple(k - 1 for k in totals)
        totals = s.total_male, s.total_female, s.n_particles
    assert s.total_rate() == 0


_REPLAY_STATE = {(3, 0, 1): 30, (0, 3, 1): 30, (1, 1, 1): 20}


@pytest.mark.parametrize(
    "counts, n, seed, t_end, absorbed",
    [
        pytest.param(_REPLAY_STATE, 80, 3, 1.0, False, id="3-1.0-False"),
        pytest.param(_REPLAY_STATE, 80, 11, 50.0, True, id="11-50.0-True"),
        # A table of two that doubles mid-run, and a run that redraws.
        pytest.param({(1, 1, 1): 40, (2, 1, 1): 10}, 50, 5, 100.0, True, id="doubling-5-100.0-True"),
    ],
)
def test_checkpoint_holds_every_event_at_or_before_it(counts, n, seed, t_end, absorbed):
    """run_simulation's checkpoint at T holds every event at or before T: its
    loop, fired one event at a time from the same seed, holds the same state
    at each checkpoint, with as many events and rejections by t_end."""
    cks = [t_end / 2, t_end]
    run = run_simulation(counts, n, t_end, checkpoints=cks, seed=seed)
    state = ParticleSystemState(counts, n)
    size = len(state.types)
    loop = _loop(state, seed)
    held = {}  # checkpoint -> concentrations after the last event at or before it
    events, rejections, now = 0, 0, state.empirical_concentrations()
    for _ in _fired(state, loop):
        for t in cks:
            if state.time > t:
                held.setdefault(t, now)
        if state.time > t_end:
            break
        events, rejections, now = events + 1, state.rejections, state.empirical_concentrations()
    state.check_consistency()
    assert len(state.types) > size
    assert (state.time <= t_end) == absorbed
    assert [held.get(t, now) for t in cks] == list(run.states)
    assert (events, rejections) == (run.events, run.rejections)
    if absorbed:
        assert rejections > 0
        assert next(loop) == next(loop) == math.inf
        state.check_consistency()


def test_run_counts_sampler_rejections():
    # Two (1,1,1) instances: one event, whose arm pair lands on one instance
    # with probability 1/2 per try, so the redraws are geometric with mean 1.
    runs = [run_simulation({(1, 1, 1): 2}, 2, 100.0, seed=s) for s in range(200)]
    assert all(run.events == 1 for run in runs)
    assert abs(np.mean([run.rejections for run in runs]) - 1.0) <= 0.5


def test_arm_totals_above_word_range_are_refused():
    # _uniform_below accepts no 63-bit word for a bound above 2**63.
    ParticleSystemState({(1, 1, 1): 2**63}, n=1)
    with pytest.raises(ValueError, match=r"exceeds 2\*\*63, .* at n = 1$"):
        ParticleSystemState({(1, 1, 1): 2**63 + 1}, n=1)
    with pytest.raises(ValueError, match="exceed"):
        ParticleSystemState({(0, 1, 1): 2**62, (0, 2, 1): 2**62}, n=1)


@pytest.mark.parametrize(
    "counts",
    [
        {(1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 1): 1},
        {(1, 1, 1): 2, (2, 1, 1): 1},
        {(1, 0, 1): 2, (0, 1, 1): 2},
        {(2, 1, 1): 2, (1, 1, 1): 1, (0, 1, 1): 1},
    ],
)
def test_sampler_matches_rate_table(counts):
    draws = 200_000
    emp = first_event_distribution(counts, draws, seed=9)
    table = brute_force_pair_table(counts)
    assert set(emp) == set(table)
    for pair, prob in table.items():
        sigma = math.sqrt(prob * (1 - prob) / draws)
        assert abs(emp[pair] - prob) <= 4 * sigma + 1e-12


def test_count_one_species_never_pairs_with_itself():
    # (2,1,1) has two male arms on its one instance: the frozen sampler and
    # the simulator's event loop must reject every draw that pairs it with
    # itself.
    counts = {(2, 1, 1): 1, (1, 1, 1): 2}
    draws = 200_000
    emp = first_event_distribution(counts, draws, seed=4)
    table = brute_force_pair_table(counts)
    assert (ParticleType(2, 1, 1), ParticleType(2, 1, 1)) not in emp
    assert set(emp) == set(table)
    for pair, prob in table.items():
        assert abs(emp[pair] - prob) <= 4 * math.sqrt(prob * (1 - prob) / draws)
    merged = Counter()
    for seed in range(2000):
        s = ParticleSystemState(counts, n=3)
        departed, came = next(_fired(s, _loop(s, seed)))
        assert departed[(2, 1, 1)] <= 1
        merged += came
    # rates: (1,1,1)+(1,1,1) 2, (2,1,1)+(1,1,1) 6
    events = merged.total()
    assert events == 2000
    share = merged[(1, 1, 2)] / events
    assert abs(share - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / events)


def test_slot_table_grows_and_reuses_slots():
    # Two species in a table of two; the run passes that size, then falls
    # back to one live species.  Every cache is rebuilt and compared after
    # each event.
    s = ParticleSystemState({(1, 1, 1): 40, (2, 1, 1): 10}, n=50)
    assert len(s.types) == 2
    seen, most_live = set(s.counts), len(s.counts)
    for _ in _fired(s, _loop(s, 5)):
        s.check_consistency()
        seen.update(s.counts)
        most_live = max(most_live, len(s.counts))
    assert most_live > 2 and len(s.types) >= most_live
    assert len(seen) > len(s.types)  # freed slots were reused
    assert s.total_rate() == 0 and len(s.counts) == 1


def test_state_size_does_not_grow_with_particles():
    small = ParticleSystemState({(1, 1, 1): 10}, n=10)
    large = ParticleSystemState({(1, 1, 1): 10**6}, n=10**6)
    for s in (small, large):
        assert s.types == [ParticleType(1, 1, 1)] and s.slot == {ParticleType(1, 1, 1): 0}
        assert len(s._fen_a.tree) == len(s._fen_b.tree) == 2
    assert large.total_rate() == 10**12 - 10**6


def test_run_deterministic_given_seed():
    kw = dict(n=500, t_end=1.0, checkpoints=[0.5, 1.0], seed=1234)
    a = run_simulation({(1, 1, 1): 500}, **kw)
    b = run_simulation({(1, 1, 1): 500}, **kw)
    assert a.states == b.states and a.events == b.events


def test_run_records_initial_state_at_zero():
    run = run_simulation({(1, 1, 1): 100}, n=100, t_end=0.0, checkpoints=[0.0], seed=0)
    assert run.states[0] == {ParticleType(1, 1, 1): 1.0}
    assert run.events == 0


def test_arm_moment_tracks_inverse_time():
    # Empirical mean arm counts follow 1/(1+t) along the run.
    run = run_simulation(
        {(1, 1, 1): 100_000}, n=100_000, t_end=1.0, checkpoints=[0.25, 0.5, 1.0], seed=7
    )
    for t, state in zip(run.times, run.states):
        mean_a = sum(p.a * v for p, v in state.items())
        assert abs(mean_a - 1 / (1 + t)) <= 0.01


def test_pair_annihilation_limit():
    # Initial concentrations are 1/2 per species, so the exact kinetic
    # solution is c_t(0,0,2) = t/(2(2+t)) -> 1/2 (every pair annihilates).
    n = 20_000
    t = 60.0
    run = run_simulation(
        {(1, 0, 1): n // 2, (0, 1, 1): n // 2}, n=n, t_end=t, checkpoints=[t], seed=3
    )
    c2 = run.states[-1].get(ParticleType(0, 0, 2), 0.0)
    assert abs(c2 - t / (2 * (2 + t))) <= 0.01


def test_empirical_error_against_trajectory():
    c0 = ConcentrationState({(1, 1, 1): 1.0})
    cks = [0.5, 1.0]
    traj = integrate(c0, 1.0, TruncationPolicy(mass_cap=32, arm_cap=4), SolverSettings(dt=1e-3), cks)
    run = run_simulation({(1, 1, 1): 50_000}, n=50_000, t_end=1.0, checkpoints=cks, seed=21)
    tracked = [ParticleType(1, 1, m) for m in range(1, 6)]
    errs = empirical_error(run, traj, tracked)
    assert len(errs) == 2
    assert max(errs) <= 0.02
    with pytest.raises(ValueError, match="grids differ"):
        bad = integrate(c0, 0.7, TruncationPolicy(mass_cap=8, arm_cap=4), checkpoints=[0.7])
        empirical_error(run, bad, tracked)
    # A reference with more checkpoints than the run is read at the run's times.
    finer = integrate(
        c0, 1.0, TruncationPolicy(mass_cap=32, arm_cap=4), SolverSettings(dt=1e-3), [0.25, 0.5, 0.75, 1.0]
    )
    assert finer.times == [0.0, 0.25, 0.5, 0.75, 1.0]
    on_run_grid = Trajectory(finer.table, finer.checkpoints[::2], finer.observables[::2])
    assert empirical_error(run, finer, tracked) == empirical_error(run, on_run_grid, tracked)


def test_counts_validation():
    with pytest.raises(ValueError, match="negative count"):
        ParticleSystemState({(1, 1, 1): -2}, n=2)
    with pytest.raises(ValueError, match="no possible event"):
        first_event_distribution({(1, 0, 1): 3}, 10)


def test_run_simulation_refuses_a_nan_time():
    counts = {(1, 0, 1): 3, (0, 1, 1): 3}
    with pytest.raises(ValueError, match="t_end must be finite, got nan"):
        run_simulation(counts, 6, math.nan)
    with pytest.raises(ValueError, match="checkpoints must be finite, got nan"):
        run_simulation(counts, 6, 1.0, checkpoints=[math.nan])


def test_run_simulation_refuses_an_infinite_time():
    """Once the chain is absorbed its next event is at inf, which never
    passes an inf end time.  Run in a subprocess with a timeout, so a
    simulator that loops fails the test."""
    probe = (
        "import math\n"
        "from coaglab import run_simulation\n"
        "try:\n"
        "    run_simulation({(1, 0, 1): 3, (0, 1, 1): 3}, 6, math.inf)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "t_end must be finite, got inf"


def test_non_integral_counts_are_refused():
    with pytest.raises(ValueError, match=r"non-integral count 2\.5 for \(1, 1, 1\)"):
        ParticleSystemState({(1, 1, 1): 2.5}, n=2)
    with pytest.raises(ValueError, match=r"non-integral count 1/3 for \(2, 1, 1\)"):
        ParticleSystemState({(1, 1, 1): 2, (2, 1, 1): Fraction(1, 3)}, n=2)
    for k in (math.inf, math.nan, -0.5):
        with pytest.raises(ValueError, match=f"non-integral count {k} for"):
            ParticleSystemState({(1, 1, 1): k}, n=2)
    exact = ParticleSystemState({(1, 1, 1): 2.0, (2, 1, 1): Fraction(3), (0, 1, 1): np.int64(4)}, n=2)
    assert exact.counts == {(1, 1, 1): 2, (2, 1, 1): 3, (0, 1, 1): 4}


def test_first_event_distribution_refuses_an_arm_total_past_int64():
    # locate_many descends in int64; the scalar simulator's words reach 2**63
    big = {(1, 0, 1): 2**63, (0, 1, 1): 2**63}
    ParticleSystemState(big, n=1)
    with pytest.raises(ValueError, match=re.escape("batch sampler's limit, 2**63 - 1")):
        first_event_distribution(big, 10)
    emp = first_event_distribution({(1, 0, 1): 2**63 - 1, (0, 1, 1): 2**63 - 1}, 10)
    assert emp == {(ParticleType(0, 1, 1), ParticleType(1, 0, 1)): 1.0}


@pytest.mark.parametrize("draws", [0, -5])
def test_first_event_distribution_needs_a_draw(draws):
    with pytest.raises(ValueError, match=f"draws must be >= 1, got {draws}"):
        first_event_distribution({(1, 1, 1): 2}, draws)
