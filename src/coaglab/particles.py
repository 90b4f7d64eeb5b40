"""Stochastic particle-system simulator for two-gender coagulation.

A finite system of particle instances evolves by pairwise coagulation: the
unordered instance pair {i, j} merges at rate ``a_i b_j + a_j b_i``.  Summing
over pairs, the total event rate from a count state eta is

    rate = (sum a eta) * (sum b eta) - sum_p (a b) eta(p),

which is O(1) from cached totals.  The reported process is the rescaled and
time-changed one: with scale parameter n, empirical concentrations are
counts / n and the event clock in rescaled time runs at rate / n, so an
initial state of order n particles matches the kinetic equations with O(1)
concentrations on O(1) rescaled time horizons.

Pair selection is exact and cheap: one male arm is drawn uniformly among all
male arms and one female arm uniformly among all female arms via two integer
Fenwick (prefix-sum) trees over instances, rejecting when both arms land on
the same instance.  The accepted pair {i, j} then has probability
proportional to ``a_i b_j + a_j b_i``, which is exactly the event law.  Arm
weights are integers, so the trees never accumulate float drift; sampling and
the per-event updates are O(log K) in the number of instance slots.

Randomness is drawn from the generator in blocks of at most ``_BLOCK``
values and consumed in a fixed order, so a run is deterministic given its
seed.  The simulator takes exponentials and 63-bit words from the blocks; a
word becomes an exactly uniform integer below a bound by rejection (see
:func:`_uniform_below`).  Its trees change after every event, so each
descent stays scalar.  The frozen-state sampler behind
:func:`first_event_distribution` walks the same trees with the same descent
for a whole block of draws at once (:meth:`_Fenwick.find_many`).

A single run is strictly sequential; replicates are independent given their
seeds and may be executed concurrently by callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import inf
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ParticleType, as_particle_type
from .kinetics import Trajectory, checkpoint_times


class _Fenwick:
    """Integer Fenwick tree with O(log n) point update and cumulative search."""

    __slots__ = ("size", "tree", "top")

    def __init__(self, weights: Sequence[int]):
        n = len(weights)
        self.size = n
        tree = [0, *weights]
        for i in range(1, n + 1):
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self.tree = tree
        top = 1
        while top * 2 <= n:
            top *= 2
        self.top = top

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` to 0-based slot ``i``."""
        if not delta:
            return
        j = i + 1
        tree = self.tree
        n = self.size
        while j <= n:
            tree[j] += delta
            j += j & -j

    def find(self, v: int) -> int:
        """Smallest 0-based index with cumulative sum > v (v in [0, total))."""
        pos = 0
        rem = v
        bit = self.top
        tree = self.tree
        n = self.size
        while bit:
            nxt = pos + bit
            if nxt <= n and tree[nxt] <= rem:
                pos = nxt
                rem -= tree[nxt]
            bit >>= 1
        return pos

    def find_many(self, v: np.ndarray) -> np.ndarray:
        """:meth:`find` of every entry of ``v``: the same descent, one numpy
        pass per tree level."""
        # Nodes past the end are padded above any remainder, so never taken.
        tree = np.full(2 * self.top, np.iinfo(np.int64).max, dtype=np.int64)
        tree[: self.size + 1] = self.tree
        pos = np.zeros(len(v), dtype=np.int64)
        rem = np.asarray(v, dtype=np.int64)
        bit = self.top
        while bit:
            nxt = pos + bit
            below = tree[nxt]
            take = below <= rem
            pos = np.where(take, nxt, pos)
            rem = np.where(take, rem - below, rem)
            bit >>= 1
        return pos

    def value(self, i: int) -> int:
        j = i + 1
        v = self.tree[j]
        k = j & (j - 1)
        j -= 1
        while j != k:
            v -= self.tree[j]
            j &= j - 1
        return v


_BLOCK = 1 << 10  # values drawn from the generator at a time
_WORD_RANGE = 1 << 63


def _block_stream(draw):
    """The values of ``draw(_BLOCK)``, block after block, one at a time."""
    while True:
        yield from draw(_BLOCK).tolist()


def _uniform_below(bound: int, word) -> int:
    """Exactly uniform integer in [0, bound) from 63-bit words ``word()``.

    A word at or above the largest multiple of ``bound`` in 2**63 is
    rejected; an accepted word is uniform over whole residue classes."""
    limit = _WORD_RANGE - _WORD_RANGE % bound  # == (2**63 // bound) * bound
    while True:
        x = word()
        if x < limit:
            return x % bound


class _Draws:
    """Block-drawn exponentials and 63-bit words of one generator."""

    __slots__ = ("rng", "exponential", "word")

    def __init__(self, rng):
        self.rng = rng
        self.exponential = _block_stream(rng.standard_exponential).__next__
        self.word = _block_stream(lambda k: rng.bit_generator.random_raw(k) >> 1).__next__


@dataclass(frozen=True)
class Event:
    """One coagulation: waiting time in rescaled units and the species involved."""

    dt: float
    left: ParticleType
    right: ParticleType
    merged: ParticleType


class ParticleSystemState:
    """Mutable particle-instance population with cached totals and arm indexes."""

    def __init__(self, counts: Mapping, n: int, bound: "float | None" = None, debug: bool = False):
        if n < 1:
            raise ValueError(f"scale parameter n must be >= 1, got {n}")
        self.n = n
        self.debug = debug
        arm_a: list[int] = []
        arm_b: list[int] = []
        mass: list[int] = []
        self.counts: dict[ParticleType, int] = {}
        for p, k in counts.items():
            p = as_particle_type(p)
            k = int(k)
            if k < 0:
                raise ValueError(f"negative count {k} for {tuple(p)}")
            if k == 0:
                continue
            self.counts[p] = self.counts.get(p, 0) + k
            arm_a.extend(repeat(p.a, k))
            arm_b.extend(repeat(p.b, k))
            mass.extend(repeat(p.m, k))
        self.arm_a = arm_a
        self.arm_b = arm_b
        self.mass = mass
        self.total_male = sum(arm_a)
        self.total_female = sum(arm_b)
        self.sum_ab = sum(a * b for a, b in zip(arm_a, arm_b))
        self.n_particles = len(mass)
        self.total_mass = sum(mass)
        self.time = 0.0
        self.rejections = 0  # same-instance arm pairs redrawn by the sampler
        self._draws: "_Draws | None" = None
        if bound is not None:
            load = self.total_male + self.total_female + self.total_mass
            if load > bound * n:
                raise ValueError(
                    f"initial state violates the population bound: "
                    f"sum (a + b + m) * count = {load} > {bound} * {n}"
                )
        self._fen_a = _Fenwick(arm_a)
        self._fen_b = _Fenwick(arm_b)

    def total_rate(self) -> int:
        """Total coagulation event rate (unrescaled) of the current state."""
        return self.total_male * self.total_female - self.sum_ab

    def empirical_concentrations(self) -> dict[ParticleType, float]:
        return {p: k / self.n for p, k in self.counts.items()}

    def check_consistency(self) -> None:
        """Recompute every cached quantity from scratch (debug aid)."""
        live = [i for i, m in enumerate(self.mass) if m > 0]
        assert self.n_particles == len(live)
        assert self.total_male == sum(self.arm_a[i] for i in live)
        assert self.total_female == sum(self.arm_b[i] for i in live)
        assert self.sum_ab == sum(self.arm_a[i] * self.arm_b[i] for i in live)
        assert self.total_mass == sum(self.mass[i] for i in live)
        recount: dict[ParticleType, int] = {}
        for i in live:
            p = ParticleType(self.arm_a[i], self.arm_b[i], self.mass[i])
            recount[p] = recount.get(p, 0) + 1
        assert recount == self.counts
        for i in range(len(self.mass)):
            assert self._fen_a.value(i) == (self.arm_a[i] if self.mass[i] > 0 else 0)
            assert self._fen_b.value(i) == (self.arm_b[i] if self.mass[i] > 0 else 0)

    def _dec_count(self, p: ParticleType) -> None:
        k = self.counts[p] - 1
        if k:
            self.counts[p] = k
        else:
            del self.counts[p]

    def _merge_instances(self, i: int, j: int) -> tuple[ParticleType, ParticleType, ParticleType]:
        ai, bi, mi = self.arm_a[i], self.arm_b[i], self.mass[i]
        aj, bj, mj = self.arm_a[j], self.arm_b[j], self.mass[j]
        left = ParticleType(ai, bi, mi)
        right = ParticleType(aj, bj, mj)
        merged = ParticleType(ai + aj - 1, bi + bj - 1, mi + mj)
        self._dec_count(left)
        self._dec_count(right)
        self.counts[merged] = self.counts.get(merged, 0) + 1
        # Survivor keeps slot i; slot j dies.
        self.arm_a[i], self.arm_b[i], self.mass[i] = merged.a, merged.b, merged.m
        self.arm_a[j] = self.arm_b[j] = self.mass[j] = 0
        self._fen_a.add(i, merged.a - ai)
        self._fen_a.add(j, -aj)
        self._fen_b.add(i, merged.b - bi)
        self._fen_b.add(j, -bj)
        self.total_male -= 1
        self.total_female -= 1
        self.sum_ab += merged.a * merged.b - ai * bi - aj * bj
        self.n_particles -= 1
        return left, right, merged


def _sample_pair(state: ParticleSystemState, draws: _Draws) -> tuple[int, int]:
    """Instance pair with probability proportional to a_i b_j + a_j b_i.

    Uniform male arm x uniform female arm, resampling same-instance hits;
    acceptance exactly removes the diagonal weight sum_i a_i b_i.
    """
    fa, fb = state._fen_a, state._fen_b
    tm, tf = state.total_male, state.total_female
    word = draws.word
    while True:
        i = fa.find(_uniform_below(tm, word))
        j = fb.find(_uniform_below(tf, word))
        if i != j:
            return i, j
        state.rejections += 1


def _waiting_time(state: ParticleSystemState, draws: _Draws) -> "float | None":
    """Time to the next event on the rescaled clock (rate ``total_rate / n``),
    or None when the state is absorbed."""
    rate = state.total_rate()
    return None if rate == 0 else draws.exponential() * (state.n / rate)


def _fire(state: ParticleSystemState, draws: _Draws, dt: float):
    """Sample the event pair, merge it and advance the clock by ``dt``."""
    species = state._merge_instances(*_sample_pair(state, draws))
    state.time += dt
    if state.debug:
        state.check_consistency()
    return species


def step(state: ParticleSystemState, rng) -> "Event | None":
    """Execute one event in place; returns None when the state is absorbed.

    The waiting time is exponential with rate ``total_rate / n`` (the rescaled
    clock); the state's rescaled time advances by it.  The state keeps the
    block stream of ``rng``, so stepping with a fresh generator of a seed
    replays :func:`run_simulation` of that seed event for event.
    """
    draws = state._draws
    if draws is None or draws.rng is not rng:  # a new generator starts a new stream
        draws = state._draws = _Draws(rng)
    dt = _waiting_time(state, draws)
    return None if dt is None else Event(dt, *_fire(state, draws, dt))


@dataclass(frozen=True)
class SimulationRun:
    """Recorded empirical concentrations of one run at fixed rescaled times."""

    n: int
    seed: "int | tuple"
    times: tuple[float, ...]
    states: tuple[dict[ParticleType, float], ...]
    events: int
    rejections: int
    final_counts: dict[ParticleType, int]
    final_total_male: int
    final_total_female: int
    final_total_mass: int
    final_particles: int


def run_simulation(
    counts: Mapping,
    n: int,
    t_end: float,
    checkpoints: "Sequence[float] | None" = None,
    seed: "int | tuple" = 0,
    bound: "float | None" = None,
    debug: bool = False,
) -> SimulationRun:
    """Simulate from integer counts until rescaled time ``t_end``.

    ``checkpoints`` (default ``[t_end]``) are rescaled times at which
    counts / n snapshots are recorded; a checkpoint at time T reports the
    state including every event occurring at or before T.  Runs are fully
    deterministic given ``seed``.
    """
    cks = checkpoint_times(t_end, checkpoints)
    state = ParticleSystemState(counts, n, bound=bound, debug=debug)
    draws = _Draws(np.random.default_rng(seed))
    snapshots: list[dict[ParticleType, float]] = []
    events = 0
    ci = 0
    while ci < len(cks):
        dt = _waiting_time(state, draws)
        t_next = inf if dt is None else state.time + dt
        while ci < len(cks) and cks[ci] < t_next:
            snapshots.append(state.empirical_concentrations())
            ci += 1
        if ci < len(cks):
            _fire(state, draws, dt)
            events += 1
    return SimulationRun(
        n=n,
        seed=seed,
        times=tuple(cks),
        states=tuple(snapshots),
        events=events,
        rejections=state.rejections,
        final_counts=dict(state.counts),
        final_total_male=state.total_male,
        final_total_female=state.total_female,
        final_total_mass=state.total_mass,
        final_particles=state.n_particles,
    )


def first_event_distribution(
    counts: Mapping, draws: int, seed: "int | tuple" = 0
) -> dict[tuple[ParticleType, ParticleType], float]:
    """Empirical law of the first coagulating species pair.

    Samples the event pair of a frozen state ``draws`` times through the
    same arm trees and rejection rule used by :func:`step`, a block of draws
    at a time, and tallies unordered species pairs (canonically ordered).
    Used to validate the sampler against brute-force rate tables.
    """
    state = ParticleSystemState(counts, n=1)
    if state.total_rate() == 0:
        raise ValueError("state has no possible event")
    species = sorted(state.counts)
    code = {p: k for k, p in enumerate(species)}
    kind = np.array([code[p] for p in map(ParticleType, state.arm_a, state.arm_b, state.mass)])
    s = len(species)
    rng = np.random.default_rng(seed)
    tally = np.zeros(s * s, dtype=np.int64)
    missing = draws
    while missing > 0:
        size = min(_BLOCK, missing)
        i = state._fen_a.find_many(rng.integers(0, state.total_male, size=size))
        j = state._fen_b.find_many(rng.integers(0, state.total_female, size=size))
        keep = i != j
        ki, kj = kind[i[keep]], kind[j[keep]]
        tally += np.bincount(np.minimum(ki, kj) * s + np.maximum(ki, kj), minlength=s * s)
        missing -= int(keep.sum())
    return {(species[k // s], species[k % s]): c / draws for k, c in enumerate(tally.tolist()) if c}


def empirical_error(
    run: SimulationRun,
    reference: Trajectory,
    tracked: Iterable[ParticleType],
    tol: float = 1e-9,
) -> list[float]:
    """Per-checkpoint sup-norm gap between a run and a deterministic trajectory."""
    ref_times = reference.times
    if len(ref_times) - 1 == len(run.times) and ref_times[0] == 0.0 and (
        len(run.times) == 0 or abs(run.times[0]) > tol
    ):
        ref_states = reference.states[1:]  # trajectory always records t = 0
        ref_times = ref_times[1:]
    else:
        ref_states = reference.states
    if len(ref_times) != len(run.times) or any(
        abs(t1 - t2) > tol for t1, t2 in zip(ref_times, run.times)
    ):
        raise ValueError(
            f"checkpoint grids differ: run has {list(run.times)}, trajectory has {ref_times}"
        )
    tracked = [as_particle_type(p) for p in tracked]
    out = []
    for emp, ref in zip(run.states, ref_states):
        out.append(max(abs(emp.get(p, 0.0) - ref[p]) for p in tracked))
    return out

