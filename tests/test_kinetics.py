import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coaglab import core, kinetics
from coaglab import (
    ConcentrationState,
    ParticleType,
    SolverSettings,
    TruncationPolicy,
    initial_state,
    integrate,
    rate_map,
    reachable_types,
    truncation_error_estimate,
)
from coaglab.kinetics import (
    IntegrationError,
    Observables,
    TruncatedSystem,
    UniformArmSystem,
    _Integrator,
    _LOST,
    _observe,
    _snapshot,
    make_system,
)
from coaglab.tables import write_csv


def test_rhs_full_examples():
    c = ConcentrationState({(1, 1, 1): 1.0})
    r = rate_map(c, TruncationPolicy(mass_cap=8, arm_cap=4))
    assert r[ParticleType(1, 1, 1)] == pytest.approx(-2.0, abs=1e-14)
    assert r[ParticleType(1, 1, 2)] == pytest.approx(1.0, abs=1e-14)

    inert = ConcentrationState({(0, 0, 5): 3.0})
    r = rate_map(inert, TruncationPolicy(mass_cap=8, arm_cap=4))
    assert all(v == 0 for v in r.values())

    assert rate_map(ConcentrationState({})) == {}


def test_rhs_reduced_examples():
    c = ConcentrationState({(1, 1, 1): 1.0})
    r = rate_map(c, TruncationPolicy(mass_cap=8, arm_cap=4), "reduced")
    assert r[ParticleType(1, 1, 1)] == pytest.approx(-2.0, abs=1e-14)
    assert rate_map(ConcentrationState({}, 2.0), form="reduced") == {}


def test_rate_map_reads_the_state_time_and_refuses_an_unknown_form():
    # At t = 1 the reduced loss of (1,1,1) is a B + b A = 1/2 + 1/2, the gain
    # into it 0; the full form measures A = B = 1 whatever the time.
    pol = TruncationPolicy(mass_cap=8, arm_cap=4)
    c = ConcentrationState({(1, 1, 1): 1.0}, 1.0)
    assert rate_map(c, pol, "reduced")[ParticleType(1, 1, 1)] == pytest.approx(-1.0, abs=1e-14)
    assert rate_map(c, pol, "full")[ParticleType(1, 1, 1)] == pytest.approx(-2.0, abs=1e-14)
    with pytest.raises(ValueError, match=re.escape("rhs must be one of ['full', 'reduced']")):
        rate_map(c, pol, "magic")


def test_reduced_equals_full_on_arm_identity_states():
    # On the exact trajectory <a> = <b> = 1/(1+t), so both forms agree; the
    # closed-form state of the one-female-arm family provides such states
    # (carried to mass 60, where the arm-moment tail is ~1e-13).
    pol = TruncationPolicy(mass_cap=60, arm_cap=4)
    for t in (0.0, 0.5, 1.5):
        entries = {
            (1, 1, m): t ** (m - 1) / (1 + t) ** (m + 1) for m in range(1, 61)
        }
        c = ConcentrationState(entries, t)
        full = rate_map(c, pol)
        red = rate_map(c, pol, "reduced")
        gap = max(abs(full[p] - red[p]) for p in full)
        assert gap <= 1e-10


def test_reachable_types():
    pol = TruncationPolicy(mass_cap=5, arm_cap=3)
    types = reachable_types([(1, 1, 1)], pol)
    assert types == [ParticleType(1, 1, m) for m in range(1, 6)]
    with pytest.raises(ValueError, match="exceeds truncation caps"):
        reachable_types([(9, 1, 1)], pol)


def test_pair_table_matches_brute_force_double_loop():
    """The merge sweep's pairs are every unordered pair of positive rate whose
    product is admitted, on a state with a binding arm cap and heavy seeds."""
    pol = TruncationPolicy(mass_cap=14, arm_cap=5)
    seeds = [(1, 1, 1), (3, 0, 3), (0, 3, 2), (0, 0, 4)]
    system = TruncatedSystem(seeds, pol)
    index = {p: i for i, p in enumerate(system.types)}
    expected, arm_capped = [], 0
    for i, p in enumerate(system.types):
        for j, q in enumerate(system.types[i:], start=i):
            if core.coagulation_rate(p, q) <= 0:
                continue
            r = core.merge(p, q)
            if r.m <= pol.mass_cap and r.a <= pol.arm_cap and r.b <= pol.arm_cap:
                coeff = core.coagulation_rate(p, q) * (0.5 if i == j else 1.0)
                expected.append((i, j, coeff, index[r]))
            elif r.m <= pol.mass_cap:
                arm_capped += 1
    table = zip(system.pair_i.tolist(), system.pair_j.tolist(),
                system.pair_coeff.tolist(), system.pair_tgt.tolist())
    assert sorted(table) == sorted(expected)
    assert (np.diff(system.pair_tgt) >= 0).all()  # each target's pairs are one run
    # ... and keep the sweep's order within it: by m1, then row-major
    order = np.lexsort((system.pair_j, system.pair_i, system.pair_tgt))
    assert np.array_equal(order, np.arange(len(order)))
    assert arm_capped > 0 and any(system.pair_i == system.pair_j)
    assert reachable_types(seeds, pol) == system.types


def test_engine_dispatch(three_arm_state, pq_state):
    pol = TruncationPolicy(mass_cap=10, arm_cap=14)
    assert isinstance(make_system(three_arm_state, pol), UniformArmSystem)
    assert isinstance(make_system(pq_state, pol), TruncatedSystem)


@pytest.mark.parametrize(
    "seeds",
    [
        pytest.param([(3, 0, 1), (1, 1, 1)], id="mixed-arm-counts"),
        pytest.param([(1, 1, 2)], id="mass-2"),
        pytest.param([(1, 1, 1), (2, 0, 2)], id="mass-1-and-2"),
    ],
)
def test_uniform_arm_system_refuses_seeds_without_one_arm_count_at_mass_1(seeds):
    with pytest.raises(ValueError, match="not mass 1 with one arm count"):
        UniformArmSystem(seeds, TruncationPolicy(mass_cap=8, arm_cap=10))


def test_engines_agree(three_arm_state):
    pol = TruncationPolicy(mass_cap=16, arm_cap=12)
    generic = TruncatedSystem(three_arm_state.support(), pol)
    fast = UniformArmSystem(three_arm_state.support(), pol)
    rng = np.random.default_rng(5)
    state = ConcentrationState(
        {p: float(w) for p, w in zip(generic.types, rng.random(len(generic.types)))}
    )
    outg = generic.rhs(generic.concentration_vector(state), 0.4, "full")
    outf = fast.rhs(fast.concentration_vector(state), 0.4, "full")
    dg, fluxg = outg[: generic.size], list(outg[generic.size :])
    df, fluxf = outf[: fast.size], list(outf[fast.size :])
    mg = dict(zip(generic.types, dg))
    mf = dict(zip(fast.types, df))
    assert max(abs(mg.get(p, 0.0) - mf.get(p, 0.0)) for p in set(mg) | set(mf)) < 1e-9
    assert fluxg == pytest.approx(fluxf, rel=1e-12, abs=1e-12)
    for outside in ((4, 0, 1), (3, 3, 2), (0, 0, 17)):  # off the manifold, or past the mass cap
        with pytest.raises(KeyError, match=re.escape(f"species {outside} is not in the table")):
            fast.concentration_vector(ConcentrationState({(1, 2, 1): 0.5, outside: 0.5}))


def test_pair_rhs_buffers_match_direct_gather(pq_state):
    """The buffered gather-multiply-reduce gives the bits of a plain
    ``np.add.reduceat`` over each target's run of the pair table."""
    system = TruncatedSystem(pq_state.support(), TruncationPolicy(mass_cap=12, arm_cap=6))
    fed, starts = np.unique(system.pair_tgt, return_index=True)
    rng = np.random.default_rng(7)
    for _ in range(2):  # the second call reuses the buffers of the first
        c = rng.random(system.size)
        gain = np.zeros(system.size)
        gain[fed] = np.add.reduceat(
            system.pair_coeff * c[system.pair_i] * c[system.pair_j], starts
        )
        loss = c * (system.a * float(system.b @ c) + system.b * float(system.a @ c))
        d = system.rhs(c, 0.3, "full")[: system.size]
        assert np.array_equal(d, gain - loss)


# The ``mixed_pairs`` benchmark state: mixed arm counts, equal weights.
MIXED_SEEDS = [(2, 1, 1), (1, 2, 1), (1, 0, 1), (0, 1, 1)]


@pytest.mark.parametrize(
    "seeds, mass_cap, arm_cap, heavy_unfed",
    [
        ([(1, 0, 1), (0, 1, 1), (1, 1, 1)], 12, 6, []),
        ([(1, 1, 1), (3, 0, 3), (0, 3, 2), (0, 0, 4)], 14, 5, [(0, 3, 2), (3, 0, 3), (0, 0, 4)]),
        (MIXED_SEEDS, 20, 10, []),
        ([(0, 0, 1), (0, 0, 2)], 6, 2, [(0, 0, 2)]),  # no arms, so no pair
    ],
    ids=["pq", "heavy_seeds", "mixed", "armless"],
)
def test_pair_gain_within_rounding_of_exact_sum(seeds, mass_cap, arm_cap, heavy_unfed):
    """Each species' gain is within ``4 k 2^-53 sum|term|`` of the exact sum
    of its k pair terms, so a species that no pair feeds has gain 0."""
    system = TruncatedSystem(seeds, TruncationPolicy(mass_cap=mass_cap, arm_cap=arm_cap))
    c = np.random.default_rng(3).uniform(-1.0, 1.0, system.size)  # signs as in RK4 stages
    cf = [Fraction(x) for x in c.tolist()]
    exact = [Fraction(0)] * system.size
    magnitude = [Fraction(0)] * system.size
    count = [0] * system.size
    pairs = zip(system.pair_i.tolist(), system.pair_j.tolist(),
                system.pair_coeff.tolist(), system.pair_tgt.tolist())
    for i, j, coeff, tgt in pairs:
        term = Fraction(coeff) * cf[i] * cf[j]
        exact[tgt] += term
        magnitude[tgt] += abs(term)
        count[tgt] += 1
    gain = system._gain(c).tolist()
    for g, s, mag, k in zip(gain, exact, magnitude, count):
        assert abs(Fraction(g) - s) <= 4 * k * mag / 2**53
    unfed = [p for p, k in zip(system.types, count) if k == 0]
    assert [p for p in unfed if p.m > 1] == heavy_unfed  # seeds that no merge reaches


MIXED_STATE = ConcentrationState({p: Fraction(1, 4) for p in MIXED_SEEDS})


def _mirror_rows(system):
    """Row of each species' mirror ``(b, a, m)`` in the system's table."""
    a, b, m = system.table
    return kinetics._locate(system.table, np.column_stack((b, a, m)))


def _pairs_into_a_le_b(system):
    """The pair targets of ``system`` whose species have a <= b."""
    a, b, _ = system.table
    return system.pair_tgt[(a <= b)[system.pair_tgt]]


def test_mirrored_pair_engine_sums_half_the_pairs_and_copies_the_mirrors():
    """On the ``mixed_pairs`` state at 20/10, ``make_system`` keeps only the
    23 302 pairs into species with a <= b, in the full table's order.  At a
    mirror-symmetric state each such species' gain has the bits of the full
    table's, each a > b species reads its mirror's, and the gain and lost
    fluxes are within rounding of the full table's, in both ``solver.rhs``
    forms."""
    pol = TruncationPolicy(mass_cap=20, arm_cap=10)
    full = TruncatedSystem(MIXED_SEEDS, pol)
    mirrored = make_system(MIXED_STATE, pol)
    assert (len(full.pair_i), len(mirrored.pair_i)) == (42_587, 23_302)
    a, b, _ = full.table
    kept = (a <= b)[full.pair_tgt]
    for name in ("pair_i", "pair_j", "pair_coeff", "pair_tgt"):
        assert getattr(mirrored, name).tobytes() == getattr(full, name)[kept].tobytes(), name
    rows = _mirror_rows(full)
    c = np.random.default_rng(11).uniform(-1.0, 1.0, full.size)  # signs as in RK4 stages
    c = np.where(a > b, c[rows], c)
    gain, want = mirrored._gain(c).copy(), full._gain(c)
    assert np.array_equal(gain[rows], gain)
    assert np.array_equal(gain, want[np.where(a > b, rows, np.arange(full.size))])
    assert np.abs(gain - want).max() <= 1e-15 * np.abs(want).max()
    for form in ("full", "reduced"):
        got = mirrored.rhs(c, 0.3, form)[mirrored.size :]
        assert got == pytest.approx(full.rhs(c, 0.3, form)[full.size :], rel=1e-15, abs=0)


def test_mirrored_build_holds_only_the_kept_pairs():
    """``_merge_sweep`` cuts the a > b targets' pairs before it sorts each
    target mass, so the mirrored build's ``tracemalloc`` peak falls with the
    pair count (about 0.6 of the full build's on the mixed state at 20/10)."""
    pol = TruncationPolicy(mass_cap=20, arm_cap=10)

    def peak(build):
        build(TruncationPolicy(mass_cap=4, arm_cap=2))  # first-call allocations
        tracemalloc.start()
        try:
            build(pol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mirrored = peak(lambda p: make_system(MIXED_STATE, p))
    full = peak(lambda p: TruncatedSystem(MIXED_SEEDS, p))
    assert mirrored <= 0.7 * full


def test_mirrored_sweep_refuses_a_support_that_is_not_mirror_closed():
    """A mirrored sweep finds each mirror within its mass block, and names a
    species whose mirror is missing rather than read another row."""
    pol = TruncationPolicy(mass_cap=6, arm_cap=4)
    with pytest.raises(KeyError, match=re.escape("species (1, 2, 1) is not in the table")):
        kinetics._merge_sweep([(2, 1, 1), (1, 0, 1), (0, 1, 1)], pol, mirrored=True)
    # The mass-1 seeds are mirrors; the seed (3, 0, 2) has none at mass 2.
    with pytest.raises(KeyError, match=re.escape("species (0, 3, 2) is not in the table")):
        kinetics._merge_sweep([(2, 1, 1), (1, 2, 1), (3, 0, 2)], pol, mirrored=True)


def _run(c0, pol, form, monkeypatch, engine=None):
    """``integrate`` on the 0.5/1 grid at dt 0.01, and the system it built;
    ``engine(c0, policy)``, if given, builds that system."""
    built = []
    make = engine or kinetics.make_system

    def recording(*args):
        built.append(make(*args))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(kinetics, "make_system", recording)
        traj = integrate(c0, 1.0, pol, SolverSettings(rhs=form, dt=0.01), [0.5, 1.0])
    return traj, built[0]


def _unmirrored(c0, policy):
    return TruncatedSystem(c0.support(), policy)


def _dense(traj):
    """Each checkpoint's concentrations over the whole table."""
    out = np.zeros((len(traj.checkpoints), len(traj.table[0])))
    for row, ck in zip(out, traj.checkpoints):
        row[ck.rows] = ck.values
    return out


@pytest.mark.parametrize("form", ["full", "reduced"])
@pytest.mark.parametrize("c0", [pytest.param("pq", id="pq"), pytest.param("mixed", id="mixed")])
def test_mirrored_trajectories_are_symmetric_and_match_the_full_table(
    request, monkeypatch, c0, form
):
    """A mirror-invariant state runs the mirrored engine.  Its checkpoints
    are mirror-symmetric: exactly in the ``reduced`` form, whose arm
    densities are one number; in ``full``, within rounding, since
    ``<a, c>`` and ``<b, c>`` add the same terms in different orders.  They
    agree with a run over the full pair table within 1e-14 relative."""
    c0 = request.getfixturevalue("pq_state") if c0 == "pq" else MIXED_STATE
    pol = TruncationPolicy(mass_cap=12, arm_cap=6)
    traj, system = _run(c0, pol, form, monkeypatch)
    ref, full = _run(c0, pol, form, monkeypatch, _unmirrored)
    assert np.array_equal(system.pair_tgt, _pairs_into_a_le_b(full))
    assert len(system.pair_i) < len(full.pair_i)
    got, want = _dense(traj), _dense(ref)
    asymmetry = np.abs(got[:, _mirror_rows(system)] - got).max()
    assert asymmetry <= (0.0 if form == "reduced" else 1e-15 * got.max())
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    for o, r in zip(traj.observables, ref.observables):
        assert [getattr(o, f.name) for f in fields(o)] == pytest.approx(
            [getattr(r, f.name) for f in fields(r)], rel=1e-14, abs=0
        )


def test_asymmetric_weights_on_a_mirror_closed_support_keep_the_full_table(monkeypatch):
    """A balanced state whose support is mirror-closed but whose weights are
    not runs the full pair table, with the bits of a directly built engine."""
    c0 = ConcentrationState({
        (2, 0, 1): Fraction(1, 4), (0, 2, 1): Fraction(1, 8),
        (1, 0, 1): Fraction(1, 4), (0, 1, 1): Fraction(1, 2),
    })
    pol = TruncationPolicy(mass_cap=12, arm_cap=6)
    for form in ("full", "reduced"):
        traj, system = _run(c0, pol, form, monkeypatch)
        ref, full = _run(c0, pol, form, monkeypatch, _unmirrored)
        assert np.array_equal(system.pair_tgt, full.pair_tgt)
        assert _dense(traj).tobytes() == _dense(ref).tobytes()
        assert traj.observables == ref.observables


def _gain_and_fluxes(system, c):
    """Gain term (the RHS with the loss added back) and the three lost fluxes."""
    out = system.rhs(c, 0.4, "full")
    d, fluxes = out[: system.size], list(out[system.size :])
    loss = c * (system.a * float(system.b @ c) + system.b * float(system.a @ c))
    return dict(zip(system.types, d + loss)), fluxes


@pytest.mark.parametrize(
    "seeds, s, mass_cap, arm_cap",
    [
        ([(3, 0, 1), (0, 3, 1)], 3, 16, 18),  # arm cap not binding: arms(16) = 18
        ([(3, 0, 1), (0, 3, 1)], 3, 16, 14),
        ([(3, 1, 1), (1, 3, 1), (2, 2, 1)], 4, 10, 22),  # arms(10) = 22
        ([(3, 1, 1), (1, 3, 1), (2, 2, 1)], 4, 10, 16),
    ],
)
def test_fft_engine_matches_pair_engine_on_short_arm_axis(seeds, s, mass_cap, arm_cap):
    pol = TruncationPolicy(mass_cap=mass_cap, arm_cap=arm_cap)
    generic = TruncatedSystem(seeds, pol)
    fast = UniformArmSystem(seeds, pol)
    n_rows = max(p.a for p in fast.types) + 2
    assert fast._fshape[0] < 2 * n_rows - 1  # products wrap on the arm axis
    # 2 * mass_cap is 5-smooth in every case, so the product at that mass
    # wraps onto column 0 of the mass axis.
    assert fast._fshape[1] == _next_smooth(2 * mass_cap) == 2 * mass_cap
    rng = np.random.default_rng(mass_cap + arm_cap)
    state = ConcentrationState(
        {p: float(w) for p, w in zip(generic.types, rng.random(generic.size))}
    )
    gain_g, flux_g = _gain_and_fluxes(generic, generic.concentration_vector(state))
    gain_f, flux_f = _gain_and_fluxes(fast, fast.concentration_vector(state))
    scale = max(abs(v) for v in gain_g.values())
    gap = max(abs(gain_g.get(p, 0.0) - gain_f.get(p, 0.0)) for p in set(gain_g) | set(gain_f))
    assert gap <= 1e-13 * scale
    assert flux_f == pytest.approx(flux_g, rel=1e-13, abs=0)


def test_fft_gain_transforms_only_the_pruned_lines(three_arm_state, monkeypatch):
    """Points transformed (lines times length) by one gain call: the padded
    mass axis is transformed only over the half-spectrum rows, and the arm
    axis only over the mass columns that hold data or are read."""
    fast = UniformArmSystem(three_arm_state.support(), TruncationPolicy(mass_cap=160, arm_cap=162))
    f0, f1 = fast._fshape
    n_cols, h0 = 160 + 1, f0 // 2 + 1
    points = []

    def counted(transform):
        def wrapped(x, n=None, axis=-1, **kwargs):
            x = np.asarray(x)
            length = x.shape[axis] if n is None else n
            points.append(x.size // x.shape[axis] * length)
            return transform(x, n, axis, **kwargs)

        return wrapped

    for name in ("rfft", "fft", "ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    fast._gain(np.full(fast.size, 0.1))
    assert len(points) == 6
    assert sum(points) == 2 * (n_cols * f0 + h0 * f1) + h0 * f1 + n_cols * f0


# The 5-smooth integers up to 8192, by brute force.
_SMOOTH = sorted(
    2**i * 3**j * 5**k
    for i in range(14)
    for j in range(9)
    for k in range(7)
    if 2**i * 3**j * 5**k <= 8192
)


def _next_smooth(n):
    """The smallest 5-smooth integer >= n, by brute force (n <= 8192)."""
    return next(v for v in _SMOOTH if v >= n)


def _window(fast, top):
    """``(f0, f1, w)`` of the class docstring's window rule for an input
    supported at masses <= ``top``: the arm and mass axes' lengths and the
    heaviest mass read (s >= 2)."""
    rows, female, cols = fast.table
    s = int(rows[0] + female[0])  # the arm count of mass 1
    w = min(fast.policy.mass_cap, 2 * top)
    n_rows = int(rows[cols <= top].max()) + 2
    return (
        _next_smooth(min(2 * n_rows - 1, (s - 2) * w + 5)),
        _next_smooth(max(2 * top, w + 1)),
        w,
    )


def _padded_copy_gain(fast, c, top=None):
    """The FFT gain by transforms that pad copies of their inputs: fresh
    ``n_rows``-row grids of the masses up to ``top`` (default the cap),
    ``rfft(grid, f0, axis=0)``, ``fft(half, f1, axis=1)``, the product,
    ``ifft``, ``irfft`` over the masses up to ``w`` and the noise floor, at
    the shape of ``_window(fast, top)``; species above ``w`` get 0."""
    top = fast.policy.mass_cap if top is None else top
    f0, f1, w = _window(fast, top)
    rows, _, cols = fast.table
    held, read = cols <= top, cols <= w
    spectra = []
    for weight in (fast.a, fast.b):
        grid = np.zeros((int(rows[held].max()) + 2, top + 1))
        grid[rows[held], cols[held]] = (weight * c)[held]
        half = np.fft.rfft(grid, f0, axis=0)
        spectra.append(np.fft.fft(half, f1, axis=1))
    spec = np.fft.ifft(spectra[0] * spectra[1], axis=1)
    conv = np.fft.irfft(spec[:, : w + 1], f0, axis=0)
    gain = np.zeros(fast.size)
    gain[read] = conv[rows[read] + 1, cols[read]]
    mag = np.abs(gain)
    gain[mag <= kinetics._FFT_NOISE_FLOOR * mag.max(initial=0.0)] = 0.0
    return gain


_FFT_GRIDS = [
    ([(3, 0, 1), (0, 3, 1)], 40, 42),
    ([(3, 0, 1), (0, 3, 1)], 160, 162),
    ([(3, 1, 1), (1, 3, 1), (2, 2, 1)], 10, 16),  # a short arm axis
]


@pytest.mark.parametrize("seeds, mass_cap, arm_cap", _FFT_GRIDS)
def test_fft_gain_equals_transforms_of_padded_copies(seeds, mass_cap, arm_cap):
    """Padding written once in the engine's buffers gives the bits of
    transforms that pad copies, on every call: a second state in between
    leaves no stale spectrum in the padding columns."""
    fast = UniformArmSystem(seeds, TruncationPolicy(mass_cap=mass_cap, arm_cap=arm_cap))
    rng = np.random.default_rng(mass_cap)
    c1, c2 = rng.random(fast.size), rng.uniform(-1.0, 1.0, fast.size)
    expected = [_padded_copy_gain(fast, c) for c in (c1, c2)]
    for c, want in ((c1, expected[0]), (c2, expected[1]), (c1, expected[0])):
        assert fast._gain(c).tobytes() == want.tobytes()
    assert fast._u.shape[0] == fast._fshape[0] > int(fast.table[0].max()) + 2
    assert not hasattr(fast, "_half")


def _window_tops(mass_cap):
    # At caps 40 and 10, 2 top - 1 is 5-smooth for top = mass_cap - 2, so a
    # mass axis one cell short would wrap mass 2 top onto the read mass 1.
    return (1, mass_cap // 2 - 1, mass_cap // 2, mass_cap - 2, mass_cap - 1)


@pytest.mark.parametrize("seeds, mass_cap, arm_cap", _FFT_GRIDS)
def test_fft_gain_on_a_window_equals_transforms_of_padded_copies(seeds, mass_cap, arm_cap):
    """A state supported at masses <= top is transformed on top's window,
    with the bits of padded copies at the window's shape.  A full call in
    between leaves no stale cell in the window, and the full call is the
    last window."""
    fast = UniformArmSystem(seeds, TruncationPolicy(mass_cap=mass_cap, arm_cap=arm_cap))
    assert _window(fast, mass_cap) == (*fast._fshape, mass_cap)
    rng = np.random.default_rng(mass_cap)
    full = rng.uniform(-1.0, 1.0, fast.size)
    want_full = _padded_copy_gain(fast, full)
    for top in _window_tops(mass_cap):
        c = rng.uniform(-1.0, 1.0, fast.size) * (fast.table[2] <= top)
        want = _padded_copy_gain(fast, c, top)
        assert all(n <= m for n, m in zip(_window(fast, top), fast._fshape))  # fits the buffers
        for x, expected in ((c, want), (full, want_full), (c, want)):
            assert fast._gain(x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seeds, mass_cap, arm_cap", _FFT_GRIDS)
def test_fft_gain_on_a_window_matches_the_full_transform_and_the_pair_engine(
    seeds, mass_cap, arm_cap
):
    """The window's gain is the full transform's, and the pair engine's on
    the species it reaches, within 1e-13 max|gain|; above mass
    ``min(mass_cap, 2 top)`` it is exactly 0.  At cap 160 the pair table
    would hold tens of millions of pairs, so there the full transform is
    the one reference."""
    pol = TruncationPolicy(mass_cap=mass_cap, arm_cap=arm_cap)
    fast = UniformArmSystem(seeds, pol)
    reach = np.ones(fast.size, dtype=bool)
    if mass_cap <= 40:
        generic = TruncatedSystem(seeds, pol)
        at = kinetics._locate(fast.table, generic.types)
        reach[:] = False
        reach[at] = True
    rng = np.random.default_rng(mass_cap + 1)
    for top in _window_tops(mass_cap):
        c = rng.random(fast.size) * ((fast.table[2] <= top) & reach)
        gain = fast._gain(c)
        full = _padded_copy_gain(fast, c)
        scale = np.abs(full).max()
        assert np.abs(gain - full).max() <= 1e-13 * scale
        if mass_cap <= 40:
            assert np.abs(gain[at] - generic._gain(c[at])).max() <= 1e-13 * scale
        assert not gain[fast.table[2] > min(mass_cap, 2 * top)].any()


@pytest.mark.parametrize("seeds, mass_cap, arm_cap", _FFT_GRIDS)
def test_window_table_equals_the_rule_read_per_mass(seeds, mass_cap, arm_cap):
    """The window table, built with one ``_fast_lens`` call per axis, equals
    the window rule applied to each mass on its own."""
    fast = UniformArmSystem(seeds, TruncationPolicy(mass_cap=mass_cap, arm_cap=arm_cap))
    table = [tuple(row) for row in fast._windows[:, :3].tolist()]
    assert table == [_window(fast, top) for top in range(1, mass_cap + 1)]


@pytest.mark.parametrize(
    "s, seeds",
    [(1, [(1, 0, 1), (0, 1, 1)]), (2, [(1, 1, 1)]), (3, [(3, 0, 1), (0, 3, 1)]), (4, [(2, 2, 1)])],
)
@pytest.mark.parametrize("arm_cap", [30, 4])  # arms(12) <= 26; 4 binds for s >= 3
def test_uniform_arm_table_matches_brute_force(s, seeds, arm_cap):
    mass_cap = 12
    fast = UniformArmSystem(seeds, TruncationPolicy(mass_cap=mass_cap, arm_cap=arm_cap))
    expected = [
        ParticleType(a, (s - 2) * m + 2 - a, m)
        for m in range(1, mass_cap + 1)
        for a in range((s - 2) * m + 3)
        if a <= arm_cap and (s - 2) * m + 2 - a <= arm_cap
    ]
    assert fast.types == expected
    assert all(type(p) is ParticleType and all(type(v) is int for v in p) for p in fast.types)


def test_next_fast_len_is_the_smallest_5_smooth_integer_at_least_n():
    """The fast length ``_fast_lens`` gives each n is the smallest 5-smooth
    integer >= n."""
    ns = list(range(1, 4097))
    assert kinetics._fast_lens(ns).tolist() == [_next_smooth(n) for n in ns]


def test_fast_lens_equal_next_fast_len_on_any_order():
    """Unsorted and repeated inputs, and n = 1 alone, get the fast length of
    each n on its own."""
    ns = [1, 7, 7, 8, 9, 31, 33, 12, 13, 11, 100, 97, 101, 128, 1, 2, 4096, 4095, 1]
    assert kinetics._fast_lens(ns).tolist() == [_next_smooth(n) for n in ns]
    assert kinetics._fast_lens([1]).tolist() == [1]


def test_integrator_counts_rhs_calls_of_bisected_steps(three_arm_state):
    """A rejected step hands its k1 to its first half-step.  A step of 0.2
    from t = 0 is bisected by the dynamics, on either engine."""
    for system in (
        TruncatedSystem(three_arm_state.support(), TruncationPolicy(mass_cap=40, arm_cap=42)),
        make_system(three_arm_state, TruncationPolicy(mass_cap=160, arm_cap=162)),
    ):
        calls = []
        rhs = system.rhs

        def counted(c, t, form):
            calls.append(t)
            return rhs(c, t, form)

        system.rhs = counted
        stepper = _Integrator(system, SolverSettings(dt=0.2))
        y = np.concatenate([system.concentration_vector(three_arm_state), np.zeros(len(_LOST))])
        stepper.advance(y, 0.0, 0.2)
        assert stepper.rejected > 0
        assert len(calls) == 4 * stepper.accepted + 3 * stepper.rejected


def test_fft_trajectory_takes_the_pair_engine_steps(three_arm_state):
    """FFT rounding noise neither bisects a step the pair engine takes whole
    nor leaves a species the pair engine cannot reach."""
    pol = TruncationPolicy(mass_cap=80, arm_cap=82)
    runs = []
    for system in (
        TruncatedSystem(three_arm_state.support(), pol),
        UniformArmSystem(three_arm_state.support(), pol),
    ):
        stepper = _Integrator(system, SolverSettings(dt=0.05))
        y = np.concatenate([system.concentration_vector(three_arm_state), np.zeros(len(_LOST))])
        for k in range(15):  # to t = 0.75
            y = stepper.advance(y, 0.05 * k, 0.05)
        counts = (stepper.accepted, stepper.rejected)
        runs.append((system, counts, _observe(system, y, 0.75), _snapshot(system, y, 0.75)))
    (pair, pair_counts, pair_obs, _), (fft, fft_counts, fft_obs, fft_ck) = runs
    assert fft_counts == pair_counts
    for f in fields(Observables):
        assert abs(getattr(fft_obs, f.name) - getattr(pair_obs, f.name)) <= 1e-10, f.name
    assert {fft.types[i] for i in fft_ck.rows.tolist()} <= set(pair.types)


def test_gelling_fft_runs_take_pinned_steps(three_arm_state, monkeypatch):
    """The three runs of a cap-160 truncation estimate of the three-arm
    state (caps 40/80/160, arm cap 162, dt 0.05, to t = 0.75) take 15 / 0,
    15 / 0 and 16 / 1 accepted / rejected steps: 187 RHS calls.  A
    transform window that wrapped products onto read cells, or added noise,
    would add bisections."""
    steppers = []

    class Counted(_Integrator):
        def __init__(self, *args):
            super().__init__(*args)
            steppers.append(self)

    monkeypatch.setattr(kinetics, "_Integrator", Counted)
    truncation_error_estimate(
        three_arm_state, 0.75, TruncationPolicy(mass_cap=160, arm_cap=162),
        SolverSettings(dt=0.05), [0.25, 0.5, 0.75],
    )
    counts = [(st.accepted, st.rejected) for st in steppers]
    assert counts == [(15, 0), (15, 0), (16, 1)]
    assert sum(4 * a + 3 * r for a, r in counts) == 187


_TRACED_ENGINES = textwrap.dedent(
    """
    import json, sys
    sys.path[:0] = sys.argv[1:]
    import numpy as np
    import tracing
    from coaglab.kinetics import TruncatedSystem, TruncationPolicy, UniformArmSystem

    tracer = tracing.install()
    tracer.recording = True
    seeds, policy = [(3, 0, 1), (0, 3, 1)], TruncationPolicy(mass_cap=8, arm_cap=10)
    for engine in (TruncatedSystem(seeds, policy), UniformArmSystem(seeds, policy)):
        engine.rhs(np.full(engine.size, 0.1), 0.0, "full")
    tracer.recording = False
    print(json.dumps({name: agg[0] for name, agg in tracer.totals().items()}))
    """
)


def test_benchmark_tracer_wraps_each_engine_once():
    """The benchmark wraps each engine's ``rhs`` and ``__init__`` by class
    attribute; an engine that inherits from the other would be traced twice.
    Runs in a fresh interpreter, so this session's classes stay unwrapped."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_ENGINES, str(root / "perfbench"), str(root / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    assert (spans["kinetics.pair_rhs"], spans["kinetics.fft_rhs"]) == (1, 1)
    assert spans["kinetics.build"] == 2


_THREE_ARM_TWO_STEPS = textwrap.dedent(
    """
    import sys
    sys.path[:0] = sys.argv[1:]
    from dataclasses import astuple
    from fractions import Fraction
    from coaglab import ConcentrationState, SolverSettings, TruncationPolicy, integrate

    c0 = ConcentrationState({(3, 0, 1): Fraction(1, 3), (0, 3, 1): Fraction(1, 3)})
    run = integrate(c0, 0.75, TruncationPolicy(mass_cap=160, arm_cap=162), SolverSettings(dt=0.375))
    for obs in run.observables:
        print([float.hex(float(v)) for v in astuple(obs)])
    for ck in run.checkpoints:
        print(ck.time, ck.rows.tolist(), [float.hex(v) for v in ck.values.tolist()])
    """
)


def test_trajectory_bits_do_not_depend_on_the_blas_thread_count():
    """At cap 160 the three-arm table has 13 360 species, past the length at
    which OpenBLAS runs one dot product on several threads; every species dot
    product is summed in fixed blocks, so one and two threads give one result."""
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _THREE_ARM_TWO_STEPS, str(root / "src")],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 4  # observables and checkpoint at t = 0 and 0.75
    assert outputs[0] == outputs[1]


def test_snapshot_names_first_negative_species(pq_state):
    system = TruncatedSystem(pq_state.support(), TruncationPolicy(mass_cap=6, arm_cap=4))
    y = np.zeros(system.size + 3)
    y[: system.size] = 0.5
    y[3] = -1e-9  # below the clamp floor -1e-12 * max(1, 0.5)
    y[5] = -1e-6
    with pytest.raises(IntegrationError, match=re.escape(f"for {tuple(system.types[3])} at")):
        _snapshot(system, y, 0.5)
    y[3] = -1e-13  # within the floor: clamped away
    y[5] = 0.0
    ck = _snapshot(system, y, 0.5)
    assert ck.time == 0.5
    assert ck.rows.tolist() == [i for i in range(system.size) if i not in (3, 5)]
    assert ck.values.tolist() == [0.5] * (system.size - 2)


# One run per engine: the three-arm state runs the uniform-arm engine, pq the pair engine.
_ENGINE_RUNS = {
    "fft": ("three_arm_state", TruncationPolicy(mass_cap=40, arm_cap=42), UniformArmSystem),
    "pair": ("pq_state", TruncationPolicy(mass_cap=10, arm_cap=4), TruncatedSystem),
}


@pytest.mark.parametrize("engine", sorted(_ENGINE_RUNS))
def test_trajectory_states_equal_states_built_from_the_types(request, monkeypatch, engine):
    """A state read from a trajectory is the state ``zip(system.types, c)``
    gives at its checkpoint: the same keys, in the same order, and the same
    bits."""
    fixture, pol, cls = _ENGINE_RUNS[engine]
    c0 = request.getfixturevalue(fixture)
    seen = []
    snapshot = kinetics._snapshot

    def recording(system, y, t):
        seen.append((system, y[: system.size].copy(), t))
        return snapshot(system, y, t)

    monkeypatch.setattr(kinetics, "_snapshot", recording)
    traj = integrate(c0, 0.6, pol, SolverSettings(dt=0.05), [0.25, 0.6])
    assert traj.times == [t for _, _, t in seen] == [0.0, 0.25, 0.6]
    assert len(traj.states) == len(seen)
    for state, (system, c, t) in zip(traj.states, seen):
        assert type(system) is cls
        expected = [(p, v) for p, v in zip(system.types, c.tolist()) if v > 0.0]
        assert state.time == t
        assert [(p, v.hex()) for p, v in state.items()] == [(p, v.hex()) for p, v in expected]
        assert all(type(p) is ParticleType for p in state.entries)
    assert len(traj.states[1]) > len(c0)


@pytest.mark.parametrize("engine", sorted(_ENGINE_RUNS))
def test_concentration_rows_equal_rows_built_from_states(request, engine):
    """The rows written straight from the table arrays are the rows the
    states give through ``support()``: the same values, types and order."""
    fixture, pol, _ = _ENGINE_RUNS[engine]
    c0 = request.getfixturevalue(fixture)
    traj = integrate(c0, 0.6, pol, SolverSettings(dt=0.05), [0.25, 0.6])
    header, rows = traj.concentration_rows()
    expected = [(s.time, p.a, p.b, p.m, float(s.entries[p])) for s in traj.states for p in s.support()]

    def exact(rows):
        return [[(type(v), v.hex() if isinstance(v, float) else v) for v in row] for row in rows]

    assert header == ["t", "a", "b", "m", "concentration"]
    assert len(rows) > len(traj.times) and exact(rows) == exact(expected)


@pytest.mark.parametrize("engine", sorted(_ENGINE_RUNS))
def test_rhs_equals_the_unbuffered_expression(request, engine):
    """``rhs`` builds its loss term in buffers with the bits of the plain
    expression, full and reduced, and returns a fresh array each call."""
    fixture, pol, cls = _ENGINE_RUNS[engine]
    system = cls(request.getfixturevalue(fixture).support(), pol)
    rng = np.random.default_rng(13)
    a, b, m = system.a, system.b, system.m
    outs = []
    for form, t in (("full", 0.3), ("reduced", 0.3), ("full", 0.7), ("reduced", 1.9)):
        c = rng.random(system.size)
        gain = system._gain(c).copy()
        if form == "reduced":
            x = 1.0 / (1.0 + t)
            loss = c * (a * x + b * x)
        else:
            am = float(a @ c)
            bm = float(b @ c)
            loss = c * (a * bm + b * am)
        events = 0.5 * float(loss.sum())
        fluxes = [
            float(m @ loss) - float(m @ gain),
            float(a @ loss) - events - float(a @ gain),
            float(b @ loss) - events - float(b @ gain),
        ]
        out = system.rhs(c, t, form)
        assert out.tobytes() == np.concatenate([gain - loss, fluxes]).tobytes()
        outs.append(out)
    assert not any(np.shares_memory(x, y) for i, x in enumerate(outs) for y in outs[i + 1 :])

def test_integrate_builds_particle_types_only_when_states_are_read(
    monkeypatch, three_arm_state, pq_state
):
    built = []

    def counting(*fields):
        built.append(fields)
        return ParticleType(*fields)

    monkeypatch.setattr(kinetics, "ParticleType", counting)
    for c0, pol in ((three_arm_state, _ENGINE_RUNS["fft"][1]), (pq_state, _ENGINE_RUNS["pair"][1])):
        system = make_system(c0, pol)
        system.rhs(system.concentration_vector(c0), 0.0, "full")
        traj = integrate(c0, 0.6, pol, SolverSettings(dt=0.05), [0.25, 0.6])
        assert (traj.times, len(traj.observables)) == ([0.0, 0.25, 0.6], 3)
        traj.concentration_rows()
        traj.observable_rows()
        assert built == []
        states = traj.states
        assert len(built) == system.size  # one list for the whole table, built once
        assert traj.states is states and len(built) == system.size
        # every state keys its entries by the objects of that one list
        first = {p: p for s in states for p in s.entries}
        assert all(first[p] is p for s in states for p in s.entries)
        built.clear()


@pytest.mark.parametrize("engine", sorted(_ENGINE_RUNS))
def test_integrate_refuses_a_negative_checkpoint(request, monkeypatch, engine):
    """A checkpoint entry below the clamp floor aborts ``integrate`` at that
    checkpoint, naming the species, before any state is read."""
    fixture, pol, _ = _ENGINE_RUNS[engine]
    c0 = request.getfixturevalue(fixture)
    row = 5
    species = make_system(c0, pol).types[row]
    advance = kinetics._Integrator.advance

    def spoiled(self, y, t, h, depth=0, k1=None):
        y = advance(self, y, t, h, depth, k1)
        if depth == 0:  # a whole step, after any bisection
            y[row] = -1e-6
        return y

    monkeypatch.setattr(kinetics._Integrator, "advance", spoiled)
    message = f"negative concentration -1.000e-06 for {tuple(species)} at t = 0.25"
    with pytest.raises(IntegrationError, match=re.escape(message)):
        integrate(c0, 0.5, pol, SolverSettings(dt=0.25), [0.25, 0.5])


def test_checkpoint_interval_takes_no_step_on_float_jitter(monkeypatch):
    """On the ``mixed_pairs`` grid, 200 steps of 0.0025 from 0.5 stop short of
    1 by float jitter; that gap is not a step."""
    t = 0.5
    for _ in range(200):
        t += 0.0025
    assert 0 < 1.0 - t < 1e-13
    steppers = []
    init = kinetics._Integrator.__init__

    def recording(self, *args):
        init(self, *args)
        steppers.append(self)

    monkeypatch.setattr(kinetics._Integrator, "__init__", recording)
    traj = integrate(
        ConcentrationState({(1, 1, 1): 1.0}),
        1.0,
        TruncationPolicy(mass_cap=8, arm_cap=4),
        SolverSettings(dt=0.0025),
        [0.25, 0.5, 1.0],
    )
    (stepper,) = steppers
    assert (stepper.accepted, stepper.rejected) == (400, 0)
    assert traj.times == [0.0, 0.25, 0.5, 1.0]


def test_integrate_one_female_family():
    c0 = ConcentrationState({(1, 1, 1): 1.0})
    traj = integrate(
        c0, 1.0, TruncationPolicy(mass_cap=64, arm_cap=4), SolverSettings(dt=1e-3)
    )
    s = traj.state_at(1.0)
    for m in range(1, 21):
        assert abs(s[(1, 1, m)] - 1.0 / 2 ** (m + 1)) <= 1e-8


def test_integrate_pair_annihilation():
    c0 = ConcentrationState({(1, 0, 1): 1.0, (0, 1, 1): 1.0})
    traj = integrate(c0, 3.0, TruncationPolicy(mass_cap=4, arm_cap=2), SolverSettings(dt=1e-3))
    assert abs(traj.state_at(3.0)[(0, 0, 2)] - 0.75) <= 1e-10



def test_state_at_returns_the_nearest_checkpoint():
    """Grid times closer than ``_TIME_TOL`` are distinct checkpoints, and
    each is found at its own time."""
    t1, t2 = 0.5, 0.5000000001
    traj = integrate(
        ConcentrationState({(1, 1, 1): 1.0}),
        t2,
        TruncationPolicy(mass_cap=8, arm_cap=4),
        SolverSettings(dt=1e-3),
        [t1, t2],
    )
    assert traj.times == [0.0, t1, t2]
    assert traj.states[1][(1, 1, 1)] != traj.states[2][(1, 1, 1)]
    assert traj.state_at(t1) is traj.states[1]
    assert traj.state_at(t2) is traj.states[2]
    assert traj.state_at(t2 + 0.9 * kinetics._TIME_TOL) is traj.states[2]
    with pytest.raises(KeyError, match="no checkpoint at t"):
        traj.state_at(t2 + 1.1 * kinetics._TIME_TOL)

def test_integrate_t_end_zero():
    c0 = ConcentrationState({(1, 1, 1): 1.0})
    traj = integrate(c0, 0.0, TruncationPolicy(mass_cap=4, arm_cap=2))
    assert traj.times == [0.0]
    assert dict(traj.states[0].items()) == {ParticleType(1, 1, 1): 1.0}


def test_conservation_and_arm_identity(three_arm_state):
    pol = TruncationPolicy(mass_cap=64, arm_cap=66)
    cks = [0.1, 0.3, 0.5]
    traj = integrate(three_arm_state, 0.5, pol, SolverSettings(dt=2e-3), cks)
    m0 = traj.observables[0].mass
    for o in traj.observables:
        assert abs(o.mass + o.lost_mass - m0) <= 1e-12
        assert abs(o.mean_a - 1 / (1 + o.time)) <= 2e-5
        assert abs(o.mean_b - 1 / (1 + o.time)) <= 2e-5
        assert abs(o.total_conc - (2 / 3 - o.time / (1 + o.time))) <= 2e-5


def test_checkpoint_states_nonnegative(pq_state):
    traj = integrate(
        pq_state, 2.0, TruncationPolicy(mass_cap=16, arm_cap=4), SolverSettings(dt=2e-3), [1.0, 2.0]
    )
    for s in traj.states:
        assert all(v >= 0 for _, v in s.items())


def test_full_vs_reduced_trajectories():
    c0 = ConcentrationState({(1, 1, 1): 1.0})
    pol = TruncationPolicy(mass_cap=32, arm_cap=4)
    cks = [0.5, 1.0]
    full = integrate(c0, 1.0, pol, SolverSettings(rhs="full", dt=1e-3), cks)
    red = integrate(c0, 1.0, pol, SolverSettings(rhs="reduced", dt=1e-3), cks)
    for sf, sr in zip(full.states, red.states):
        tracked = {ParticleType(1, 1, m) for m in range(1, 13)}
        assert max(abs(sf[p] - sr[p]) for p in tracked) <= 1e-9


def test_reduced_form_past_the_critical_time(three_arm_state):
    """``reduced`` sets both arm densities to 1/(1+t) at every time, so the
    mass-1 species, which no merge feeds, decay as (1/3)(1+t)^-3 before and
    after T_c = 1; only the RK4 step error is left.  At dt 0.01 that error
    was at most 4.0e-10, at t = 0.5, so 1e-9 leaves a factor 2.5.  The
    ``full`` form, whose measured densities leave 1/(1+t) past T_c, is
    3.7e-3 off at t = 1.5."""
    pol = TruncationPolicy(mass_cap=40, arm_cap=42)
    cks = [0.5, 1.5, 2.0]
    traj = integrate(three_arm_state, 2.0, pol, SolverSettings(rhs="reduced", dt=0.01), cks)
    for t in cks:
        state = traj.state_at(t)
        for p in ((3, 0, 1), (0, 3, 1)):
            assert abs(state[p] - (1 + t) ** -3 / 3) <= 1e-9, (p, t)


def test_truncation_error_estimate_bounds_real_error(three_arm_state):
    # Reference: closed-form second moment 2/((1-t)(1+3t)); the cap-128 run
    # is truncation-limited at t = 0.5, and the estimate must cover the gap.
    pol = TruncationPolicy(mass_cap=128, arm_cap=130)
    t = 0.5
    eps = truncation_error_estimate(three_arm_state, t, pol, SolverSettings(dt=2e-3), [t])
    traj = integrate(three_arm_state, t, pol, SolverSettings(dt=2e-3), [t])
    true_err = abs(traj.observables[-1].second_a - 2 / ((1 - t) * (1 + 3 * t)))
    assert eps["second_a"][-1] >= true_err
    assert eps["second_a"][-1] <= 1e-3  # and it is not a uselessly loose bound


def test_truncation_error_estimate_caps_admit_the_heaviest_seed():
    """At mass cap 8 the quarter cap would be 2, below the mass-3 seed."""
    c0 = ConcentrationState({(1, 1, 1): 0.5, (1, 1, 3): 0.5})
    pol = TruncationPolicy(mass_cap=8, arm_cap=6)
    eps, runs = truncation_error_estimate(c0, 0.5, pol, SolverSettings(dt=0.05), [0.5], return_runs=True)
    assert [int(run.table[2].max()) for run in runs] == [3, 4, 8]
    moments = ["total_conc", "mean_a", "mean_b", "mass", "second_a", "second_b", "cross_ab"]
    assert list(eps) == moments
    assert all(len(v) == 2 and all(map(math.isfinite, v)) for v in eps.values())
    with pytest.raises(ValueError, match=r"\(1, 1, 9\) exceeds truncation caps .*mass_cap=8"):
        truncation_error_estimate(ConcentrationState({(1, 1, 9): 1.0}), 0.5, pol)


def test_csv_exports(tmp_path):
    c0 = ConcentrationState({(1, 0, 1): 1.0, (0, 1, 1): 1.0})
    traj = integrate(c0, 1.0, TruncationPolicy(mass_cap=4, arm_cap=2), SolverSettings(dt=1e-2))
    p1 = tmp_path / "conc.csv"
    p2 = tmp_path / "obs.csv"
    write_csv(p1, *traj.concentration_rows())
    write_csv(p2, *traj.observable_rows())
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,a,b,m,concentration"
    assert any(line.startswith("1,0,0,2,") for line in lines)
    header = p2.read_text().splitlines()[0]
    assert header.startswith("t,total_conc,mean_a,mean_b,mass,second_a")


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(rhs="implicit")
    with pytest.raises(ValueError):
        SolverSettings(dt=0)
    with pytest.raises(ValueError):
        TruncationPolicy(mass_cap=0)
