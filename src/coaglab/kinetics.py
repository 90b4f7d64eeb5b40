"""Deterministic integration of the truncated two-gender coagulation system.

The infinite kinetic system is

    d/dt c(p) = 1/2 sum_{q + r = p} rate(q, r) c(q) c(r)  -  c(p) (a B + b A)

with A and B the male and female arm densities that species p mates with.
That loss term is written once, in ``_Engine.rhs``; the ``solver.rhs`` form
only chooses the two densities, from ``_ARM_DENSITIES``: ``full`` measures
them, ``A = <a, c>`` and ``B = <b, c>``, and ``reduced`` sets both to
``1/(1+t)``.  The two agree while the arm identity ``A = B = 1/(1+t)``
holds, i.e. strictly before gelation; past it they are two different
models (see the README).

The solver evolves the finite set of species reachable from the initial
support under merging, intersected with a mass cap and an arm cap; one sweep
over target masses, ``_merge_sweep``, yields both that set and the pairs that
feed each species' gain term, ordered by target, so that each species' gain
is the sum of one contiguous run of the pair table.  Gain flux whose merge
product falls outside the caps is dropped from the evolved state but its mass
and arm content is accumulated into running "lost" totals, so ``retained mass
+ lost mass`` is a linear invariant of the augmented system and is preserved
to rounding error by the Runge-Kutta steps.

On a state invariant under the swap of male and female arms,
``make_system`` builds the pair engine ``mirrored``: it sums only the pairs
into species with ``a <= b``, about half of them, and copies each sum to the
mirror.  The rule, and why it is exact, is stated once, in ``_merge_sweep``.

Both engines share one right-hand side, ``_Engine.rhs``.  An engine builds
its species table and supplies only ``_gain(c)``, the bilinear gain term,
since only that term depends on how pairs are enumerated.  The loss term and
the three lost fluxes are properties of the equation, computed in ``rhs``
for every engine.

A species table is three int arrays ``(a, b, m)``, sorted by ``(m, a, b)``;
no per-species Python object is built to run the solver or to write its
tables.  ``integrate`` returns a :class:`Trajectory` of that table and each
checkpoint's rows and values of its positive entries.  Its CSV rows come
straight from those arrays; it builds the ``ParticleType``s, once per run,
and the checkpoint states only when ``states`` is first read.

Integration is explicit RK4 with a fixed base step and bisection on a
nonnegativity monitor; the system is smooth and non-stiff before the critical
time, so no implicit machinery is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import ConcentrationState, ParticleType, as_particle_type

_MIN_DT = 1e-9  # a step bisected below this aborts the run
_CLAMP_TOL = 1e-12  # negative concentrations within this fraction of the peak are rounding
_TIME_TOL = 1e-9  # state_at finds no checkpoint farther than this from the time asked for
_GAP_TOL = 1e-9  # a checkpoint gap below this fraction of dt is float jitter, not a step
_FFT_NOISE_FLOOR = 1e-15  # FFT gain cells within this fraction of max|gain| are rounding
_DOT_BLOCK = 8192  # most entries per BLAS dot; OpenBLAS threads a ddot past 10 000


class IntegrationError(RuntimeError):
    """Step-size underflow or a nonnegativity violation beyond tolerance."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Caps defining the evolved index set; flux past the caps is accounted."""

    mass_cap: int = 64
    arm_cap: int = 32

    def __post_init__(self):
        if self.mass_cap < 1 or self.arm_cap < 0:
            raise ValueError(f"invalid truncation caps {self}")

    def admitted(self, seeds: Iterable[ParticleType]) -> list[ParticleType]:
        """``seeds`` as ``ParticleType``s; a ValueError names the first one
        outside the caps.  Seeds are refused rather than dropped: dropping
        initial mass would corrupt the conservation accounting."""
        seeds = [as_particle_type(p) for p in seeds]
        for p in seeds:
            if p.m > self.mass_cap or p.a > self.arm_cap or p.b > self.arm_cap:
                raise ValueError(f"initial species {tuple(p)} exceeds truncation caps {self}")
        return seeds


# solver.rhs form -> (A, B), the male and female arm densities of the loss
# term a B + b A, given the engine, its concentrations c and the time t.
_ARM_DENSITIES = {
    "full": lambda engine, c, t: (_dot(engine.a, c), _dot(engine.b, c)),
    "reduced": lambda engine, c, t: (1.0 / (1.0 + t),) * 2,
}


@dataclass(frozen=True)
class SolverSettings:
    rhs: str = "full"  # a form of _ARM_DENSITIES
    dt: float = 1e-3

    def __post_init__(self):
        if self.rhs not in _ARM_DENSITIES:
            raise ValueError(f"rhs must be one of {sorted(_ARM_DENSITIES)}, got {self.rhs!r}")
        if self.dt <= 0:
            raise ValueError("step sizes must be positive")


@dataclass(frozen=True)
class Observables:
    """Moment observables of one checkpoint, plus accumulated truncation loss."""

    time: float
    total_conc: float
    mean_a: float
    mean_b: float
    mass: float
    second_a: float  # <a^2 - a>
    second_b: float  # <b^2 - b>
    cross_ab: float  # <ab>
    lost_mass: float
    lost_male_arms: float
    lost_female_arms: float


# The ODE state's tail, after the concentrations: the fluxes past the caps,
# in this order.  ``Observables`` reads them by these names.
_LOST = ("lost_mass", "lost_male_arms", "lost_female_arms")


def _particle_types(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> list[ParticleType]:
    """One ``ParticleType`` per row of a species table, with int fields."""
    return list(map(ParticleType, a.tolist(), b.tolist(), m.tolist()))


class _Checkpoint(NamedTuple):
    """The positive entries of one checkpoint: table rows and their values."""

    time: float
    rows: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Checkpoints and observables of one run, over its species table.

    ``table`` is the engine's int arrays ``(a, b, m)``, sorted by
    ``(m, a, b)``; each :class:`_Checkpoint` holds the rows and values of its
    positive entries.  The tables come straight from those arrays.  The
    :class:`ConcentrationState`s are built when ``states`` is first read,
    over one list of ``ParticleType``s built then, so a run whose states are
    never read builds none.
    """

    table: tuple[np.ndarray, np.ndarray, np.ndarray]
    checkpoints: list[_Checkpoint]
    observables: list[Observables]

    @cached_property
    def states(self) -> list[ConcentrationState]:
        at = _particle_types(*self.table).__getitem__
        return [  # the engine's own valid types, with positive weights
            ConcentrationState._trusted(
                dict(zip(map(at, ck.rows.tolist()), ck.values.tolist())), ck.time
            )
            for ck in self.checkpoints
        ]

    @property
    def times(self) -> list[float]:
        return [ck.time for ck in self.checkpoints]

    def state_at(self, t: float) -> ConcentrationState:
        """The state of the checkpoint nearest to ``t``, if within ``_TIME_TOL``."""
        gaps = [abs(time - t) for time in self.times]
        if not gaps or min(gaps) > _TIME_TOL:
            raise KeyError(f"no checkpoint at t = {t}")
        return self.states[gaps.index(min(gaps))]

    def concentration_rows(self):
        """(header, rows) of the per-checkpoint concentration table, each
        checkpoint's rows in table order, which is ``(m, a, b)``."""
        rows = []
        for ck in self.checkpoints:
            a, b, m = (x[ck.rows].tolist() for x in self.table)
            rows += zip([ck.time] * len(a), a, b, m, ck.values.tolist())
        return ["t", "a", "b", "m", "concentration"], rows

    def observable_rows(self):
        cols = [f.name for f in fields(Observables)]
        rows = [tuple(getattr(o, c) for c in cols) for o in self.observables]
        return ["t"] + cols[1:], rows


def _merge_sweep(seeds: Iterable[ParticleType], policy: TruncationPolicy, mirrored: bool = False):
    """Species closure of ``seeds`` under merging within the caps, and its pairs.

    Masses strictly increase under merging, so one sweep over target masses
    ``mt`` in increasing order is complete.  The blocks ``(m1, mt - m1)``,
    ``m1 <= mt / 2``, keep pairs of positive rate whose product is within the
    caps (``i <= j`` on a diagonal block, whose rate is halved at ``i == j``).
    Once a target mass's species are known, each gets the row whose pair sum
    it reads (``read``), and only the pairs into species that read their own
    row are kept.  These are then stably sorted by target, so ``pair_tgt`` is
    nondecreasing and each species' pairs are one contiguous run, in which
    they come by ``m1``, then row-major.  Cutting and sorting one target mass
    at a time, not the finished table, keeps the temporaries to the size of
    one block.  Returns ``(table, read, pair_i, pair_j, pair_coeff,
    pair_tgt)``, with ``table`` the int arrays ``(a, b, m)`` of the species,
    sorted by ``(m, a, b)``.

    Unless ``mirrored``, every species reads its own row.  The mirror rule:
    a ``mirrored`` sweep gives each species with ``a > b`` the row of its
    mirror ``(b, a, m)``, so only the pairs into species with ``a <= b``,
    about half of them, are kept; a KeyError names a species whose mirror
    is not in the table.  The swap ``(a, b, m) -> (b, a, m)`` leaves the rate
    ``a'b + ab'``, the merge product and the caps unchanged, so it maps the
    gain of a state to the gain of the swapped state, and the loss too: in
    ``full`` it exchanges ``A`` and ``B``, and in ``reduced`` they are one
    number.  The solution is unique, so a state invariant under the swap,
    weights included, stays invariant in both ``solver.rhs`` forms, and
    there each species with ``a > b`` gains what its mirror gains, to
    rounding.
    """
    cap = policy.arm_cap
    width = cap + 1  # the key a * width + b sorts like (a, b)
    seed_keys: dict[int, set[int]] = {}
    for p in policy.admitted(seeds):
        seed_keys.setdefault(p.m, set()).add(p.a * width + p.b)
    n = 0  # species so far
    species: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}  # m -> (first index, a, b)
    none = np.empty(0, dtype=np.int64)
    reads, pi, pj, pc, pt = [none], [none], [none], [np.empty(0)], [none]
    for mt in range(1, policy.mass_cap + 1):
        products = [np.fromiter(seed_keys.get(mt, ()), dtype=np.int64)]
        bi, bj, bc = [none], [none], [np.empty(0)]  # this target mass's pairs, by m1
        for m1 in range(1, mt // 2 + 1):
            if m1 not in species or mt - m1 not in species:
                continue
            (s1, a1, b1), (s2, a2, b2) = species[m1], species[mt - m1]
            a1, b1 = a1[:, None], b1[:, None]
            rate = a1 * b2 + a2 * b1
            na, nb = a1 + a2 - 1, b1 + b2 - 1
            ok = (rate > 0) & (na <= cap) & (nb <= cap)
            diagonal = 2 * m1 == mt
            i, j = np.nonzero(np.triu(ok) if diagonal else ok)  # row-major
            coeff = rate[i, j] * np.where(diagonal & (i == j), 0.5, 1.0)
            bi.append(s1 + i)
            bj.append(s2 + j)
            bc.append(coeff)
            products.append(na[i, j] * width + nb[i, j])
        keys = np.flatnonzero(np.bincount(np.concatenate(products)))  # sorted, unique
        if not len(keys):
            continue
        a, b = keys // width, keys % width
        read = np.arange(len(keys))
        swap = np.flatnonzero(a > b) if mirrored else none
        mirror = b[swap] * width + a[swap]  # below its species' key, so found in range
        at = np.searchsorted(keys, mirror)
        lost = keys[at] != mirror
        if lost.any():
            k = swap[np.argmax(lost)]
            raise KeyError(f"species {(int(b[k]), int(a[k]), mt)} is not in the table")
        read[swap] = at
        tgt = np.searchsorted(keys, np.concatenate([none, *products[1:]]))
        order = np.flatnonzero(read[tgt] == tgt)  # pairs into species that read their own row
        order = order[np.argsort(tgt[order], kind="stable")]  # by target, then as enumerated
        pi.append(np.concatenate(bi)[order])
        pj.append(np.concatenate(bj)[order])
        pc.append(np.concatenate(bc)[order])
        pt.append(n + tgt[order])
        reads.append(n + read)
        species[mt] = (n, a, b)
        n += len(keys)
    blocks = species.values()
    table = (
        np.concatenate([none, *(a for _, a, _ in blocks)]),
        np.concatenate([none, *(b for _, _, b in blocks)]),
        np.repeat(np.fromiter(species, dtype=np.int64), [len(a) for _, a, _ in blocks]),
    )
    pairs = (np.concatenate(x) for x in (pi, pj, pc, pt))
    return (table, np.concatenate(reads), *pairs)


def reachable_types(
    seeds: Iterable[ParticleType], policy: TruncationPolicy
) -> list[ParticleType]:
    """Closure of ``seeds`` under merging, intersected with the caps; a seed
    outside the caps is refused (see ``TruncationPolicy.admitted``)."""
    return _particle_types(*_merge_sweep(seeds, policy)[0])


def _locate(table, species: Sequence[ParticleType]) -> np.ndarray:
    """Rows of ``species`` in ``table``, int arrays ``(a, b, m)`` sorted by
    ``(m, a, b)``: a binary search for ``(a, b)`` in each mass block."""
    a, b, m = table
    q = np.array(species, dtype=np.int64).reshape(-1, 3)
    width = int(max(a.max(initial=0), b.max(initial=0), q[:, :2].max(initial=0))) + 1
    rows = np.full(len(q), -1)
    for mass in set(q[:, 2].tolist()):  # not np.unique, which imports numpy.ma
        sel = np.flatnonzero(q[:, 2] == mass)
        lo, hi = np.searchsorted(m, [mass, mass + 1]).tolist()
        keys = a[lo:hi] * width + b[lo:hi]  # sorted, like (a, b)
        want = q[sel, 0] * width + q[sel, 1]
        at = np.searchsorted(keys, want)
        hit = at < len(keys)
        hit[hit] = keys[at[hit]] == want[hit]
        rows[sel[hit]] = lo + at[hit]
    if (rows < 0).any():
        raise KeyError(f"species {tuple(q[rows < 0][0].tolist())} is not in the table")
    return rows


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x @ y``, one BLAS call per block of at most ``_DOT_BLOCK`` entries,
    the block results summed in order, so its bits do not depend on how many
    threads BLAS runs.  ``ndarray.dot`` makes the same ``ddot`` call as ``@``,
    with less dispatch."""
    if len(x) <= _DOT_BLOCK:
        return float(x.dot(y))
    total = 0.0
    for lo in range(0, len(x), _DOT_BLOCK):
        hi = lo + _DOT_BLOCK
        total += float(x[lo:hi].dot(y[lo:hi]))
    return total


class _Engine:
    """Species table and right-hand side shared by both engines.

    A subclass builds ``table``, the int arrays ``(a, b, m)`` of its species
    sorted by ``(m, a, b)``, and supplies ``_gain(c)``, the gain term of
    every species; ``rhs`` adds the loss term and the flux lost past the
    caps.  ``types`` is a view built on first read.

    ``rhs`` builds the loss term in two length-N buffers the engine owns,
    ``_rate`` and ``_loss``; what it returns is a fresh array on every call,
    since the integrator keeps each stage's derivative.  A subclass's
    ``_gain`` has buffers of its own, so one engine must not be evaluated
    from two threads at once.
    """

    def __init__(self, policy: TruncationPolicy, table: tuple[np.ndarray, np.ndarray, np.ndarray]):
        self.policy = policy
        self.table = table
        self.a, self.b, self.m = (x.astype(np.float64) for x in table)
        self.size = len(table[0])
        self._rate = np.empty(self.size)  # loss rate per unit concentration
        self._loss = np.empty(self.size)

    @cached_property
    def types(self) -> list[ParticleType]:
        return _particle_types(*self.table)

    def concentration_vector(self, c: ConcentrationState) -> np.ndarray:
        v = np.zeros(self.size)
        if len(c):
            species, weights = zip(*c.items())
            v[_locate(self.table, species)] = [float(w) for w in weights]
        return v

    def rhs(self, y: np.ndarray, t: float, form: str) -> np.ndarray:
        """Signed rates, then the ``_LOST`` fluxes, of the ``solver.rhs`` form
        ``form`` at the state ``y``, whose tail (if any) is not read.

        Flux into dropped (out-of-cap) products is never enumerated: it is
        the loss-side flux minus the retained gain flux, which costs O(N).
        """
        c = y[: self.size]
        gain = self._gain(c)
        rate, loss = self._rate, self._loss
        arms_a, arms_b = _ARM_DENSITIES[form](self, c, t)
        np.multiply(self.a, arms_b, out=rate)
        np.multiply(self.b, arms_a, out=loss)
        np.add(rate, loss, out=rate)
        np.multiply(c, rate, out=loss)
        events = 0.5 * float(loss.sum())
        out = np.empty(self.size + len(_LOST))
        out[self.size :] = (  # in _LOST's order: mass, male arms, female arms
            _dot(self.m, loss) - _dot(self.m, gain),
            _dot(self.a, loss) - events - _dot(self.a, gain),
            _dot(self.b, loss) - events - _dot(self.b, gain),
        )
        np.subtract(gain, loss, out=out[: self.size])
        return out


class TruncatedSystem(_Engine):
    """Gain term over a fixed truncated index set, by pair enumeration.

    Interaction pairs (unordered, positive rate, in-cap merge product) are
    enumerated once, ordered by target (see ``_merge_sweep``).  Each gain
    evaluation gathers and multiplies over the pairs, then sums each fed
    species' run of the table with one ``np.add.reduceat`` over the run
    starts, and reads every species' gain from those sums with one
    ``np.take`` through ``_gain_at``; a species that no pair feeds (a mass-1
    species, or a heavier seed that no merge reaches) reads a slot held at
    0.  ``reduceat`` sums a run pairwise.

    A ``mirrored`` system keeps only the pairs into species with ``a <= b``,
    and a species with ``a > b`` reads the sum of its mirror ``(b, a, m)``,
    which ``_merge_sweep`` chose (see its mirror rule).  The species table,
    the loss term and the lost fluxes are the full system's.

    ``_gain`` works in buffers owned by the system, and returns one of them,
    so one system must not be evaluated from two threads at once.
    """

    def __init__(
        self, seeds: Iterable[ParticleType], policy: TruncationPolicy, mirrored: bool = False
    ):
        table, read, *pairs = _merge_sweep(seeds, policy, mirrored)
        super().__init__(policy, table)
        self.pair_i, self.pair_j, self.pair_coeff, self.pair_tgt = pairs
        counts = np.bincount(self.pair_tgt, minlength=self.size)
        fed = counts > 0  # species that some pair feeds
        self._starts = (np.cumsum(counts) - counts)[fed]  # first pair of each
        # The sum of each fed species' run, then one slot that stays 0.
        self._sums = np.zeros(len(self._starts) + 1)
        slot = np.where(fed, np.cumsum(fed) - 1, len(self._starts))
        self._gain_at = slot[read]
        self._pair_work = np.empty((2, len(self.pair_i)))
        self._gain_out = np.empty(self.size)

    def _gain(self, c: np.ndarray) -> np.ndarray:
        # Pair-sized products go to preallocated buffers: with a fresh
        # temporary of this size per call, malloc can hand the memory back and
        # fault it in again on every call, which costs more than the arithmetic.
        w, cj = self._pair_work
        np.take(c, self.pair_i, out=w, mode="clip")  # "raise" would buffer `out`
        np.multiply(self.pair_coeff, w, out=w)
        np.take(c, self.pair_j, out=cj, mode="clip")
        np.multiply(w, cj, out=w)
        # The pairs of each species are one contiguous run of the table.
        np.add.reduceat(w, self._starts, out=self._sums[:-1])
        np.take(self._sums, self._gain_at, out=self._gain_out, mode="clip")
        return self._gain_out


def _fast_lens(ns) -> np.ndarray:
    """The smallest 5-smooth integer >= n for each of ``ns`` (decent FFT
    sizes without scipy).  A power of 2 lies in [n, 2n), so the 5-smooth
    integers up to twice the largest n are listed once and each n is looked
    up among them."""
    ns = np.asarray(ns)
    top = 2 * int(ns.max())
    smooth = {1}
    for f in (2, 3, 5):
        for v in sorted(smooth):
            while v * f <= top:
                v *= f
                smooth.add(v)
    smooth = np.array(sorted(smooth))
    return smooth[np.searchsorted(smooth, ns)]


class UniformArmSystem(_Engine):
    """Fast gain term for monodisperse data with a uniform arm count.

    If every initial particle has mass 1 and the same total arm count ``s``,
    a cluster of mass m always carries exactly ``(s - 2) m + 2`` free arms,
    so the state lives on a two-dimensional manifold indexed by (male arms,
    mass); the female count is implied.  On that manifold the bilinear gain
    term is an ordinary 2-D convolution of the fields ``a c`` and ``b c``
    read at (a + 1, m), evaluated here with FFTs.  This makes mass caps of
    several hundred affordable, which the generic pair-enumeration engine
    cannot reach (its pair count grows like the fourth power of the cap).
    ``s`` is read from the seeds, which must all have mass 1 and one arm
    count.

    Semantics are identical to :class:`TruncatedSystem` under the same
    truncation policy; only the evaluation strategy differs.

    Each call transforms a window set by ``top``, the heaviest mass with a
    nonzero input (the table is sorted by mass).  Products reach masses up
    to ``2 top``, so only masses up to ``w = min(mass_cap, 2 top)`` gain;
    species above ``w`` get exactly 0.  Both axes are shorter than a full
    linear convolution, because products that wrap land only on cells that
    are never read.  A cluster of mass m has at most ``(s - 2) m + 2`` male
    arms, so a product that lands at a read mass ``m <= w`` has ``a1 + a2 <=
    (s - 2) w + 4``, and ``a1 + a2 <= 2 n_rows - 4``, with ``n_rows`` the
    heaviest row at masses <= top, plus 2.  An arm axis of ``min(2 n_rows -
    1, (s - 2) w + 5)`` cells therefore holds every read product unwrapped.
    A mass axis of ``max(2 top, w + 1)`` cells wraps only mass ``2 top``,
    onto column 0; no species has mass 0, so column 0 is never read.  At
    ``top = mass_cap`` this is the full shape ``_fshape``.  The windows are
    computed at build; each fits inside the full shape, and a call runs on
    the top-left corner of the buffers below.

    The transforms are ordered so that the zero padding is transformed only
    where it holds data or is read (a pruned 2-D FFT).  The forward real
    transform runs along the short arm axis, over the ``top + 1`` mass
    columns that hold data; the complex one then runs along the padded mass
    axis, over only the half-spectrum rows.  The inverse runs the other way
    round, and its last, real transform covers only the mass columns that
    are read.

    The padding is written once, in the buffers the system owns, and no
    transform pads a copy of its input.  The input grids ``_u`` and ``_v``
    have ``f0`` rows, the arm axis's full length; rows past the ``n_rows``
    that hold data are never written, so they stay 0.  Each forward real
    transform writes into the first ``top + 1`` columns of its spectrum,
    ``_spec_u`` or ``_spec_v``; the window's columns past them, the mass
    axis's padding, are zeroed, and the complex transform then runs in
    place.  The product and the inverse transforms reuse the spectra, and
    the last one writes ``_conv``, the output grid.  These buffers serve
    every call, so one system must not be evaluated from two threads at
    once.

    The transforms leave rounding noise on every cell, unreachable ones
    included.  RK4 amplifies it on the high-mass modes until the
    nonnegativity monitor bisects steps that the dynamics do not need
    bisected, and it would surface as species that no merge reaches.
    ``_gain`` therefore zeroes every cell below ``_FFT_NOISE_FLOOR``
    max|gain|, so a species whose value never rises above the transforms'
    resolution is not reported.  Against an extended-precision sum over the
    pair table, the gain error was at most 7.3e-16 max|gain| on states with
    random values on every cell (mass caps 40 to 160); on the states of
    three-arm runs at caps 40 to 100, unreachable cells held below 1e-16
    max|gain|.
    """

    def __init__(self, seeds, policy: TruncationPolicy):
        seeds = policy.admitted(seeds)
        s = _uniform_arms(seeds)
        if s is None:
            raise ValueError(f"seeds {[tuple(p) for p in seeds]} are not mass 1 with one arm count")
        mass_eff = policy.mass_cap
        if s < 2:
            # arms(m) = (s - 2) m + 2 reaches 0; heavier clusters cannot form.
            mass_eff = min(mass_eff, 2 // (2 - s))
        # Per mass, the male counts a with a and total - a both within the
        # arm cap, in order of mass and then a.
        masses = np.arange(1, mass_eff + 1)
        total = (s - 2) * masses + 2
        low = np.maximum(0, total - policy.arm_cap)
        count = np.maximum(0, np.minimum(total, policy.arm_cap) - low + 1)
        first = np.cumsum(count) - count
        rows = np.arange(int(count.sum())) + np.repeat(low - first, count)
        cols = np.repeat(masses, count)
        female = np.repeat(total, count) - rows
        super().__init__(policy, (rows, female, cols))
        # The transform window of each heaviest input mass top = 1..mass_eff
        # (see the class docstring): the arm and mass axes' lengths, the
        # heaviest mass read, and the species counts at masses <= top and <= w.
        w = np.minimum(mass_eff, 2 * masses)
        heaviest = np.where(count > 0, np.minimum(total, policy.arm_cap), 0)
        n_rows = np.maximum.accumulate(heaviest) + 2  # gain is read at row a + 1
        ends = np.cumsum(count)
        self._windows = np.column_stack([
            _fast_lens(np.minimum(2 * n_rows - 1, (s - 2) * w + 5)),
            _fast_lens(np.maximum(2 * masses, w + 1)),
            w,
            ends,
            ends[w - 1],
        ])
        self._fshape = tuple(self._windows[-1, :2].tolist())  # the full call's window
        f0, f1 = self._fshape
        n_cols = mass_eff + 1
        half = f0 // 2 + 1
        # Rows past n_rows are never written, so they hold the arm axis's padding.
        self._u = np.zeros((f0, n_cols))
        self._v = np.zeros((f0, n_cols))
        self._spec_u = np.empty((half, f1), dtype=np.complex128)
        self._spec_v = np.empty((half, f1), dtype=np.complex128)
        self._conv = np.empty((f0, n_cols))  # only the mass columns that are read
        self._grid_at = rows * n_cols + cols  # flat index of (a, m)
        # _conv from row 1 on: in it, _grid_at's index of (a, m) reads its gain at (a + 1, m)
        self._conv_from_row1 = self._conv.reshape(-1)[n_cols:]

    def _gain(self, c: np.ndarray) -> np.ndarray:
        # The window of the heaviest mass with a nonzero input; RK4 stage
        # inputs carry tiny negatives, so the test is != 0, not > 0.
        # (Comparing in memory order and reading backwards is faster than
        # comparing a reversed view.)
        live = (c != 0)[::-1]
        last = int(live.argmax())  # counted from the end
        top = int(self.table[2][-1 - last]) if live[last] else 1
        f0, f1, w, n_in, n_out = self._windows[top - 1].tolist()
        specs = self._spec_u[: f0 // 2 + 1, :f1], self._spec_v[: f0 // 2 + 1, :f1]
        # rfft2 / irfft2 split by axis in the pruned order of the class
        # docstring.  A spectrum's columns past top, the mass axis's padding,
        # still hold an earlier call's spectrum, so they are zeroed.
        for grid, weight, spec in zip((self._u, self._v), (self.a, self.b), specs):
            grid.reshape(-1)[self._grid_at[:n_in]] = weight[:n_in] * c[:n_in]
            np.fft.rfft(grid[:f0, : top + 1], axis=0, out=spec[:, : top + 1])
            spec[:, top + 1 :] = 0.0
            np.fft.fft(spec, axis=1, out=spec)
        spec = np.multiply(*specs, out=specs[0])
        np.fft.ifft(spec, axis=1, out=spec)
        np.fft.irfft(spec[:, : w + 1], f0, axis=0, out=self._conv[:f0, : w + 1])
        # Species above mass w get no product.  Zero every cell with |gain| <=
        # _FFT_NOISE_FLOOR * max|gain| (see the class docstring).  The cut is
        # symmetric in sign, so it biases no moment, unlike a rectification;
        # `rhs` takes the lost fluxes from this floored gain, so retained +
        # lost mass stays a linear invariant.
        gain = np.zeros(self.size)
        read = gain[:n_out]
        # mode "raise" would buffer `out`
        self._conv_from_row1.take(self._grid_at[:n_out], out=read, mode="clip")
        mag = np.abs(read)
        read[mag <= _FFT_NOISE_FLOOR * mag.max(initial=0.0)] = 0.0
        return gain


def _uniform_arms(seeds: list[ParticleType]) -> "int | None":
    """The one arm count of seeds that all have mass 1 and that count, else None."""
    arm_counts = {p.a + p.b for p in seeds}
    if len(arm_counts) == 1 and all(p.m == 1 for p in seeds):
        return arm_counts.pop()
    return None


def make_system(c0: ConcentrationState, policy: TruncationPolicy):
    """Pick the fastest exact engine for the initial state ``c0``.

    Seeds that all have mass 1 and one arm count run the FFT engine.  Any
    other state runs the pair engine, ``mirrored`` when ``c0`` is exactly
    invariant under the arm swap ``(a, b) -> (b, a)``, weights included (see
    the mirror rule of ``_merge_sweep``).
    """
    seeds = c0.support()
    if _uniform_arms(seeds) is not None:
        return UniformArmSystem(seeds, policy)
    mirrored = all(c0[(p.b, p.a, p.m)] == w for p, w in c0.items())
    return TruncatedSystem(seeds, policy, mirrored)


def rate_map(
    c: ConcentrationState, policy: TruncationPolicy = TruncationPolicy(), form: str = "full"
):
    """Signed rate map of the ``solver.rhs`` form ``form`` at ``c.time``, over
    the reachable truncated set."""
    SolverSettings(rhs=form)  # refuses an unknown form
    system = TruncatedSystem(c.support(), policy)
    dc = system.rhs(system.concentration_vector(c), c.time, form)[: system.size]
    return dict(zip(system.types, dc.tolist()))


class _Integrator:
    """RK4 steps, bisected while the nonnegativity monitor rejects them.

    ``accepted`` and ``rejected`` count the steps tried; a rejected step
    hands its ``k1`` to its first half-step, so a run costs
    ``4 * accepted + 3 * rejected`` RHS evaluations.  ``rhs`` is the
    system's, with the ``solver.rhs`` form bound once.
    """

    def __init__(self, system: _Engine, solver: SolverSettings):
        self.rhs = partial(system.rhs, form=solver.rhs)
        self.size = system.size
        self.accepted = 0
        self.rejected = 0

    def _rk4(self, y: np.ndarray, t: float, h: float, k1: np.ndarray) -> np.ndarray:
        f = self.rhs
        k2 = f(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = f(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = f(y + h * k3, t + h)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def advance(
        self, y: np.ndarray, t: float, h: float, depth: int = 0, k1: "np.ndarray | None" = None
    ) -> np.ndarray:
        if k1 is None:
            k1 = self.rhs(y, t)
        ynew = self._rk4(y, t, h, k1)
        conc = ynew[: self.size]
        floor = -_CLAMP_TOL * max(1.0, float(y[: self.size].max(initial=0.0)))
        if conc.min(initial=0.0) >= floor:
            self.accepted += 1
            return ynew
        self.rejected += 1
        if h / 2 < _MIN_DT or depth > 60:
            raise IntegrationError(
                f"step-size underflow at t = {t}: negative concentration "
                f"{conc.min():.3e} persists below dt = {h}"
            )
        ymid = self.advance(y, t, h / 2, depth + 1, k1)
        return self.advance(ymid, t + h / 2, h / 2, depth + 1)


def _observe(system: _Engine, y: np.ndarray, t: float) -> Observables:
    c = y[: system.size]
    a, b, m = system.a, system.b, system.m
    return Observables(
        time=t,
        total_conc=float(c.sum()),
        mean_a=_dot(a, c),
        mean_b=_dot(b, c),
        mass=_dot(m, c),
        second_a=_dot(a * (a - 1.0), c),
        second_b=_dot(b * (b - 1.0), c),
        cross_ab=_dot(a * b, c),
        **dict(zip(_LOST, y[system.size :].tolist())),
    )


def _snapshot(system: _Engine, y: np.ndarray, t: float) -> _Checkpoint:
    c = y[: system.size]
    bad = np.flatnonzero(c < -_CLAMP_TOL * max(1.0, float(c.max(initial=0.0))))
    if len(bad):
        i = int(bad[0])
        species = tuple(int(x[i]) for x in system.table)
        raise IntegrationError(f"negative concentration {c[i]:.3e} for {species} at t = {t}")
    keep = np.flatnonzero(c > 0.0)
    return _Checkpoint(t, keep, c[keep])


def checkpoint_times(t_end: float, checkpoints: "Sequence[float] | None") -> list[float]:
    """Sorted checkpoint times, ``[t_end]`` by default; each must lie in [0, t_end]."""
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    cks = sorted(float(t) for t in (checkpoints if checkpoints is not None else [t_end]))
    if cks and (cks[0] < 0 or cks[-1] > t_end + 1e-12):
        raise ValueError(f"checkpoints must lie in [0, {t_end}]")
    return cks


def integrate(
    c0: ConcentrationState,
    t_end: float,
    policy: TruncationPolicy = TruncationPolicy(),
    solver: SolverSettings = SolverSettings(),
    checkpoints: "Sequence[float] | None" = None,
) -> Trajectory:
    """Integrate the truncated system from ``c0`` to ``t_end``.

    ``checkpoints`` defaults to ``[t_end]``; time 0 is always recorded.
    Checkpoint states are clamped to zero within the tolerance; a negative
    value beyond it aborts the run.  An interval ends once the time left is
    below ``_GAP_TOL * dt``, so float jitter on the grid takes no step.
    The trajectory builds its states when they are first read.
    """
    cks = sorted(set(checkpoint_times(t_end, checkpoints)) | {0.0})
    system = make_system(c0, policy)
    stepper = _Integrator(system, solver)
    y = np.concatenate([system.concentration_vector(c0), np.zeros(len(_LOST))])
    t, snaps, obs = 0.0, [], []
    for target in cks:  # the first is 0.0, recorded before any step
        while target - t > _GAP_TOL * solver.dt:
            h = min(solver.dt, target - t)
            y = stepper.advance(y, t, h)
            t += h
        t = target  # suppress accumulated float jitter on the grid
        snaps.append(_snapshot(system, y, t))
        obs.append(_observe(system, y, t))
    return Trajectory(system.table, snaps, obs)


# The moment observables.
_OBS_FIELDS = tuple(f.name for f in fields(Observables) if f.name not in ("time", *_LOST))


def truncation_error_estimate(
    c0: ConcentrationState,
    t_end: float,
    policy: TruncationPolicy,
    solver: SolverSettings = SolverSettings(),
    checkpoints: "Sequence[float] | None" = None,
    return_runs: bool = False,
):
    """Empirical per-observable truncation error bounds by cap refinement.

    Runs the same problem at quarter, half, and full mass caps and
    extrapolates the cap-to-cap differences geometrically: with
    ``d1 = |obs(cap/2) - obs(cap/4)|`` and ``d2 = |obs(cap) - obs(cap/2)|``,
    the remaining error at the full cap is estimated as
    ``d2 * r / (1 - r)`` with ``r = d2 / d1``, inflated by a safety factor of
    4.  No a-priori bound is claimed; this is a measured estimate.

    With ``return_runs`` the three trajectories (quarter, half, full cap) are
    returned alongside the estimates so callers can reuse the full-cap run.
    The quarter and half caps are at least the heaviest seed mass, so every
    run accepts the seeds that the full cap accepts; a seed past the full cap
    is refused by the first run, under the full cap.
    """
    heaviest = max((p.m for p in c0.support()), default=1)
    least = max(2, min(heaviest, policy.mass_cap))
    caps = [max(least, policy.mass_cap // 4), max(least, policy.mass_cap // 2), policy.mass_cap]
    runs = []
    for cap in caps:
        pol = TruncationPolicy(mass_cap=cap, arm_cap=policy.arm_cap)
        runs.append(integrate(c0, t_end, pol, solver, checkpoints))
    out: dict[str, list[float]] = {}
    n_ck = len(runs[0].observables)
    for name in _OBS_FIELDS:
        eps = []
        for k in range(n_ck):
            v4, v2, v1 = (getattr(r.observables[k], name) for r in runs)
            d1 = abs(v2 - v4)
            d2 = abs(v1 - v2)
            if d2 == 0.0:
                eps.append(0.0)
            elif d1 > d2:
                r = d2 / d1
                eps.append(4.0 * d2 * r / (1.0 - r))
            else:
                eps.append(4.0 * d2)
        out[name] = eps
    return (out, runs) if return_runs else out
