"""Stochastic particle-system simulator for two-gender coagulation.

A finite system of particles evolves by pairwise coagulation: the unordered
instance pair {i, j} merges at rate ``a_i b_j + a_j b_i``.  Particles of one
species are exchangeable, so the process is a Marcus–Lushnikov chain on the
occupation numbers eta(p) of the species p = (a, b, m).  Summing over pairs,
the total event rate from a count state eta is

    rate = (sum a eta) * (sum b eta) - sum_p (a b) eta(p),

which is O(1) from cached totals.  The reported process is the rescaled and
time-changed one: with scale parameter n, empirical concentrations are
counts / n and the event clock in rescaled time runs at rate / n, so an
initial state of order n particles matches the kinetic equations with O(1)
concentrations on O(1) rescaled time horizons.

The state is a table of the live species only.  Each species holds a slot;
two integer Fenwick (prefix-sum) trees over the slots weigh slot p by its
male arms ``a eta(p)`` and its female arms ``b eta(p)``.  The table's size is
a power of two; it doubles and rebuilds its trees when a new species finds
it full, and a species whose count falls to 0 frees its slot for reuse, last
freed first.  Memory is O(live species), whatever the number of particles.

Pair selection is exact and cheap.  The arms of a species are ordered
instance by instance: male arm r of species p belongs to its instance
``r // a``, female arm r to instance ``r // b``.  One male arm is drawn
uniformly among all male arms and one female arm uniformly among all female
arms, each by one descent that returns a slot and the remainder within it.
A draw is rejected only when both arms land on the same instance: the same
slot and the same instance index.  The accepted pair {i, j} then has
probability proportional to ``a_i b_j + a_j b_i``, which is exactly the event
law.  Arm weights are integers, so the trees never accumulate float drift;
sampling and the per-event updates of at most three slots are O(log K) in
the number K of live species.

Randomness is drawn from the generator in blocks of at most ``_BLOCK``
values and consumed in a fixed order, so a run is deterministic given its
seed.  The simulator takes exponentials and 63-bit words from the blocks; a
word becomes an exactly uniform integer below a bound by rejection (see
:func:`_uniform_below`).  Its trees change after every event, so each
descent stays scalar.  The frozen-state sampler behind
:func:`first_event_distribution` walks the same trees with the same descent
and rejection rule for a whole block of draws at once
(:meth:`_Fenwick.locate_many`).

One event loop, :func:`_event_loop`, runs the chain.  It is a generator over
a state and its draws: it yields the waiting time of the next event and fires
that event when resumed.  Between events the trees, counts, slot table and
totals are bound to the loop's locals, so an event calls only the word
rejection, the two descents and, on a hit of one species, the same-instance
test.  The loop writes the totals and the clock back to the state after each
event, so a paused loop leaves a whole state behind.  Its one driver,
:func:`run_simulation`, runs it across the checkpoints and records the state
before it fires an event that falls past the next one.

A single run is strictly sequential; replicates are independent given their
seeds and may be executed concurrently by callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ParticleType, as_particle_type
from .kinetics import Trajectory, checkpoint_times


class _Fenwick:
    """Integer Fenwick (prefix-sum) tree, built from a list of weights.

    A descent returns a slot and the remainder within it.  The tree is never
    updated through a method: the simulator's event loop (:func:`_event_loop`)
    walks the male and female trees of one slot in a single fused pass.
    """

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
        # The descent's first bit: the largest power of two below n.  Node n
        # of a power-of-two size holds the total, which no search takes.
        self.top = 1 << (n - 1).bit_length() >> 1

    def locate(self, v: int) -> tuple[int, int]:
        """Smallest 0-based index i with cumulative sum > v (v in [0, total)),
        and the remainder ``v - (weights before i)``, in [0, weight(i))."""
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
        return pos, rem

    def locate_many(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`locate` of every entry of ``v``: the same descent, one numpy
        pass per tree level."""
        # The descent reads nodes below 2 * top only; those past the end are
        # padded above any remainder, so never taken.
        width = 2 * self.top
        tree = np.full(width, np.iinfo(np.int64).max, dtype=np.int64)
        known = min(width, self.size + 1)
        tree[:known] = self.tree[:known]
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
        return pos, rem


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

    __slots__ = ("exponential", "word")

    def __init__(self, rng):
        self.exponential = _block_stream(rng.standard_exponential).__next__
        self.word = _block_stream(lambda k: rng.bit_generator.random_raw(k) >> 1).__next__


def _totals(counts: Mapping[ParticleType, int]) -> tuple[int, int, int, int, int]:
    """Male arms, female arms, sum of a b, particles and mass over ``counts``."""
    items = counts.items()
    return (
        sum(p.a * k for p, k in items),
        sum(p.b * k for p, k in items),
        sum(p.a * p.b * k for p, k in items),
        sum(counts.values()),
        sum(p.m * k for p, k in items),
    )


class ParticleSystemState:
    """Live species in a slot table, with cached totals and arm trees over the slots."""

    def __init__(self, counts: Mapping, n: int):
        if n < 1:
            raise ValueError(f"scale parameter n must be >= 1, got {n}")
        self.n = n
        self.counts: dict[ParticleType, int] = {}
        for p, k in counts.items():
            p = as_particle_type(p)
            if k % 1:  # a fraction, inf or nan
                raise ValueError(f"non-integral count {k} for {tuple(p)}")
            k = int(k)
            if k < 0:
                raise ValueError(f"negative count {k} for {tuple(p)}")
            if k == 0:
                continue
            self.counts[p] = self.counts.get(p, 0) + k
        live = list(self.counts)
        size = 1 << (len(live) - 1).bit_length() if live else 1
        self.types: list["ParticleType | None"] = live + [None] * (size - len(live))
        self.slot = {p: s for s, p in enumerate(live)}
        self._free = list(range(size - 1, len(live) - 1, -1))  # the lowest free slot on top
        self.total_male, self.total_female, self.sum_ab, self.n_particles, self.total_mass = (
            _totals(self.counts)
        )
        if max(self.total_male, self.total_female) > _WORD_RANGE:
            # Totals only fall, so every bound _uniform_below is given is <= 2**63.
            raise ValueError(f"an arm total exceeds 2**63, the sampler's word range, at n = {n}")
        self.time = 0.0
        self.rejections = 0  # same-instance arm pairs redrawn by the sampler
        self._fen_a, self._fen_b = self._arm_trees()

    def _arm_trees(self) -> tuple[_Fenwick, _Fenwick]:
        """Male and female arm trees over the slots, built from ``counts``."""
        counts, types = self.counts, self.types
        a = [p.a * counts[p] if p is not None else 0 for p in types]
        b = [p.b * counts[p] if p is not None else 0 for p in types]
        return _Fenwick(a), _Fenwick(b)

    def total_rate(self) -> int:
        """Total coagulation event rate (unrescaled) of the current state."""
        return self.total_male * self.total_female - self.sum_ab

    def empirical_concentrations(self) -> dict[ParticleType, float]:
        return {p: k / self.n for p, k in self.counts.items()}

    def check_consistency(self) -> None:
        """Rebuild the slot table, the totals and both trees from ``counts``
        and compare them with the cached ones (debug aid)."""
        counts, types = self.counts, self.types
        size = len(types)
        assert size & (size - 1) == 0 and len(counts) <= size
        assert all(k > 0 for k in counts.values())
        assert self.slot == {p: s for s, p in enumerate(types) if p is not None}
        assert self.slot.keys() == counts.keys()
        assert sorted(self._free) == [s for s, p in enumerate(types) if p is None]
        cached = self.total_male, self.total_female, self.sum_ab, self.n_particles, self.total_mass
        assert cached == _totals(counts)
        fen_a, fen_b = self._arm_trees()
        assert self._fen_a.tree == fen_a.tree and self._fen_b.tree == fen_b.tree

    def _claim(self, p: ParticleType) -> int:
        """A free slot for the new species ``p``; a full table doubles first."""
        if not self._free:
            size = len(self.types)
            self.types.extend([None] * size)
            self._free.extend(range(2 * size - 1, size - 1, -1))
            self._fen_a, self._fen_b = self._arm_trees()
        s = self._free.pop()
        self.types[s] = p
        self.slot[p] = s
        self.counts[p] = 0
        return s


def _same_instance(male_rem, female_rem, a, b):
    """Whether male arm ``male_rem`` and female arm ``female_rem`` of a
    species with ``a`` male and ``b`` female arms per instance sit on one
    instance (instance-major arm order); elementwise on arrays."""
    return male_rem // a == female_rem // b


def _event_loop(state: ParticleSystemState, draws: _Draws):
    """The event loop of ``state``: yields the waiting time of each event on
    the rescaled clock (rate ``total_rate / n``) and fires that event when
    resumed, or yields ``inf`` forever once the state is absorbed.

    The trees, counts, slot table and totals live in locals between events;
    the totals and the clock are written back to ``state`` after every event.
    """
    counts, slot, types, free = state.counts, state.slot, state.types, state._free
    exponential, word, scale = draws.exponential, draws.word, state.n
    tm, tf, sum_ab = state.total_male, state.total_female, state.sum_ab
    particles, rejections, time = state.n_particles, state.rejections, state.time
    fen_a, fen_b = state._fen_a, state._fen_b
    tree_a, tree_b, size = fen_a.tree, fen_b.tree, fen_a.size
    while rate := tm * tf - sum_ab:
        dt = exponential() * (scale / rate)
        yield dt
        # A uniform male arm and a uniform female arm; a pair of arms on one
        # instance is redrawn, which removes exactly the weight sum a_i b_i.
        while True:
            i, male_rem = fen_a.locate(_uniform_below(tm, word))
            j, female_rem = fen_b.locate(_uniform_below(tf, word))
            if i != j:
                break
            la, lb, _ = types[i]
            if not _same_instance(male_rem, female_rem, la, lb):
                break
            rejections += 1
        left, right = types[i], types[j]
        la, lb, lm = left
        ra, rb, rm = right
        # Both departures leave, freeing their slots (left's first), before
        # the merged species claims one.  Written out per departure: a loop
        # over the two made a 25k-event run 15 % slower (2-vCPU VM).
        if i == j:
            eta, da, db = counts[left] - 2, 2 * la, 2 * lb
        else:
            eta, da, db = counts[left] - 1, la, lb
        if eta:
            counts[left] = eta
        else:
            del counts[left], slot[left]
            types[i] = None
            free.append(i)
        s = i + 1
        while s <= size:
            tree_a[s] -= da
            tree_b[s] -= db
            s += s & -s
        if i != j:
            eta = counts[right] - 1
            if eta:
                counts[right] = eta
            else:
                del counts[right], slot[right]
                types[j] = None
                free.append(j)
            s = j + 1
            while s <= size:
                tree_a[s] -= ra
                tree_b[s] -= rb
                s += s & -s
        ma, mb = la + ra - 1, lb + rb - 1
        s = slot.get((ma, mb, lm + rm))
        if s is None:
            s = state._claim(ParticleType(ma, mb, lm + rm))
            fen_a, fen_b = state._fen_a, state._fen_b  # rebuilt if the table doubled
            tree_a, tree_b, size = fen_a.tree, fen_b.tree, fen_a.size
        counts[types[s]] += 1
        s += 1
        while s <= size:
            tree_a[s] += ma
            tree_b[s] += mb
            s += s & -s
        tm -= 1
        tf -= 1
        sum_ab += ma * mb - la * lb - ra * rb
        particles -= 1
        time += dt
        state.total_male, state.total_female, state.sum_ab = tm, tf, sum_ab
        state.n_particles, state.rejections, state.time = particles, rejections, time
    while True:
        yield inf


@dataclass(frozen=True)
class SimulationRun:
    """Recorded empirical concentrations of one run at fixed rescaled times."""

    times: tuple[float, ...]
    states: tuple[dict[ParticleType, float], ...]
    events: int
    rejections: int
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
) -> SimulationRun:
    """Simulate from integer counts until rescaled time ``t_end``.

    ``checkpoints`` (default ``[t_end]``) are rescaled times at which
    counts / n snapshots are recorded; a checkpoint at time T reports the
    state including every event occurring at or before T.  Runs are fully
    deterministic given ``seed``.
    """
    cks = checkpoint_times(t_end, checkpoints)
    state = ParticleSystemState(counts, n)
    loop = _event_loop(state, _Draws(np.random.default_rng(seed)))
    snapshots: list[dict[ParticleType, float]] = []
    events = 0
    dt = next(loop)
    for t in cks:
        while state.time + dt <= t:
            dt = next(loop)
            events += 1
        snapshots.append(state.empirical_concentrations())
    return SimulationRun(
        times=tuple(cks),
        states=tuple(snapshots),
        events=events,
        rejections=state.rejections,
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
    same species trees and same-instance rule as the event loop, a block
    of draws at a time, and tallies unordered species pairs (canonically
    ordered).
    Used to validate the sampler against brute-force rate tables.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    state = ParticleSystemState(counts, n=1)
    if state.total_rate() == 0:
        raise ValueError("state has no possible event")
    if max(state.total_male, state.total_female) >= _WORD_RANGE:  # locate_many descends in int64
        raise ValueError("an arm total of 2**63 exceeds the batch sampler's limit, 2**63 - 1")
    species = sorted(state.counts)
    code = {p: k for k, p in enumerate(species)}
    live = [p for p in state.types if p is not None]  # slots 0, 1, ... of a new state
    kind = np.array([code[p] for p in live])
    arm_a = np.array([p.a for p in live])
    arm_b = np.array([p.b for p in live])
    s = len(species)
    rng = np.random.default_rng(seed)
    tally = np.zeros(s * s, dtype=np.int64)
    missing = draws
    while missing > 0:
        size = min(_BLOCK, missing)
        i, male_rem = state._fen_a.locate_many(rng.integers(0, state.total_male, size=size))
        j, female_rem = state._fen_b.locate_many(rng.integers(0, state.total_female, size=size))
        keep = i != j
        same = np.flatnonzero(~keep)
        p = i[same]
        keep[same] = ~_same_instance(male_rem[same], female_rem[same], arm_a[p], arm_b[p])
        ki, kj = kind[i[keep]], kind[j[keep]]
        tally += np.bincount(np.minimum(ki, kj) * s + np.maximum(ki, kj), minlength=s * s)
        missing -= int(keep.sum())
    return {(species[k // s], species[k % s]): c / draws for k, c in enumerate(tally.tolist()) if c}


def empirical_error(
    run: SimulationRun,
    reference: Trajectory,
    tracked: Iterable[ParticleType],
) -> list[float]:
    """Per-checkpoint sup-norm gap between a run and a deterministic trajectory,
    which must have a checkpoint at every time of the run."""
    try:
        ref_states = [reference.state_at(t) for t in run.times]
    except KeyError:
        raise ValueError(
            f"checkpoint grids differ: run has {list(run.times)}, "
            f"trajectory has {reference.times}"
        ) from None
    tracked = [as_particle_type(p) for p in tracked]
    out = []
    for emp, ref in zip(run.states, ref_states):
        out.append(max(abs(emp.get(p, 0.0) - ref[p]) for p in tracked))
    return out

