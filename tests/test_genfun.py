import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coaglab import ConcentrationState, InitialGF, genfun
from coaglab.genfun import ConvergenceError


@pytest.fixture(scope="module")
def gf_d11():
    return InitialGF({(1, 1, 1): Fraction(1)})


@pytest.fixture(scope="module")
def gf_pair():
    return InitialGF({(1, 0, 1): Fraction(1), (0, 1, 1): Fraction(1)})


@pytest.fixture(scope="module")
def gf_three(three_arm_state):
    return InitialGF(three_arm_state)


def test_critical_data_examples(gf_d11, gf_three):
    d = gf_d11.critical_data()
    assert (d.alpha, d.beta, d.gamma) == (1, 0, 0)
    assert d.big_m == 1 and d.t_crit == math.inf

    d = gf_three.critical_data()
    assert (d.alpha, d.beta, d.gamma) == (0, 2, 2)
    assert d.big_m == Fraction(2) and d.t_crit == Fraction(1)

    d = InitialGF({(2, 0, 1): Fraction(1, 2), (0, 2, 1): Fraction(1, 2)}).critical_data()
    assert d.big_m == 1 and d.t_crit == math.inf


def test_requires_unit_arm_moments():
    with pytest.raises(ValueError, match="unit arm moments"):
        InitialGF({(2, 1, 1): 1.0})


def test_phi_examples(gf_d11, gf_pair):
    x, y, z = 0.37, 0.81, 0.55
    assert gf_d11.phi(0.0, x, y, z) == (x, y)
    for t in (0.5, 2.0):
        u, v = gf_d11.phi(t, x, y, z)
        assert u == pytest.approx(x * (1 + t - t * z), abs=1e-15)
        assert v == pytest.approx(y * (1 + t - t * z), abs=1e-15)
        u, v = gf_pair.phi(t, x, y, z)
        assert u == pytest.approx((1 + t) * x - t * z, abs=1e-15)
        assert v == pytest.approx((1 + t) * y - t * z, abs=1e-15)


def test_invert_phi_examples(gf_d11, gf_pair):
    assert gf_d11.invert_phi(0.0, 0.3, 0.4, 0.9) == (0.3, 0.4)
    hx, hy = gf_d11.invert_phi(1.0, 0.5, 0.5, 0.5)
    assert hx == pytest.approx(1 / 3, abs=1e-11)
    assert hy == pytest.approx(1 / 3, abs=1e-11)
    t, z, u, v = 0.7, 0.25, 0.6, 0.2
    hx, hy = gf_pair.invert_phi(t, u, v, z)
    assert hx == pytest.approx((u + t * z) / (1 + t), abs=1e-11)
    assert hy == pytest.approx((v + t * z) / (1 + t), abs=1e-11)


def test_invert_phi_rejects_supercritical(gf_three):
    with pytest.raises(ValueError, match="critical time"):
        gf_three.invert_phi(1.0, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="critical time"):
        gf_three.second_moments(2.0)


def test_eval_g_examples(gf_d11):
    x, y, z = 0.4, 0.9, 0.8
    assert gf_d11.eval_g(0.0, x, y, z) == gf_d11.value(x, y, z)
    # closed form x*y*z / ((1+t)(1+t-t z)); the series oracle
    # sum_m z^m t^(m-1) / (1+t)^(m+1) gives the same number.
    t, z = 1.0, 0.5
    series = sum(z**m * t ** (m - 1) / (1 + t) ** (m + 1) for m in range(1, 200))
    got = gf_d11.eval_g(t, 1.0, 1.0, z)
    assert got == pytest.approx(series, abs=1e-12)
    assert got == pytest.approx(1 / 6, abs=1e-12)


def test_second_moments_examples(gf_d11, gf_three):
    for t in (0.0, 0.5, 3.0):
        assert gf_d11.second_moments(t) == (0, 0)
    sa, sb = gf_three.second_moments(Fraction(1, 2))
    assert sa == Fraction(8, 5) and sb == Fraction(8, 5)
    assert gf_three.second_moments(0) == (2, 2)


def test_second_moments_match_reduction(gf_three):
    # gamma / D with alpha=0, beta=gamma=2 simplifies to 2/((1-t)(1+3t))
    for t in (0.1, 0.3, 0.6, 0.85):
        sa, _ = gf_three.second_moments(t)
        assert sa == pytest.approx(2 / ((1 - t) * (1 + 3 * t)), rel=1e-14)


def test_second_moments_blowup(gf_three):
    # The denominator (1-t)(1+3t) peaks at t = 1/3, so the moment dips from 2
    # to 1.5 before diverging; monotonicity holds from that point onward.
    ts = np.linspace(1 / 3, 0.9, 40)
    vals = [gf_three.second_moments(float(t))[0] for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert min(vals) == pytest.approx(1.5, abs=1e-9)
    assert gf_three.second_moments(1 - 1e-4)[0] > 1e3


def test_round_trip_grid(gf_d11, gf_pair, gf_three, pq_state):
    gfs = [gf_d11, gf_pair, gf_three, InitialGF(pq_state)]
    grid = np.linspace(0.05, 0.95, 4)
    for gf in gfs:
        t_c = min(float(gf.critical_data().t_crit), 10.0)
        for frac in (0.1, 0.5, 0.9):
            t = frac * t_c
            for u in grid:
                for v in grid:
                    for z in grid:
                        hx, hy = gf.invert_phi(t, u, v, z)
                        pu, pv = gf.phi(t, hx, hy, z)
                        assert abs(pu - u) <= 1e-10 and abs(pv - v) <= 1e-10


def test_arm_derivative_identity(gf_d11, gf_pair, pq_state):
    # dg_t/dx(phi_t(x, y, z), z) = dg0/dx(x, y, z) / (1 + t), checked by
    # centered finite differences of eval_g around image points that land in
    # the interior of the unit square.
    h = 1e-4
    probes = [
        (x, y, z, t)
        for x in (0.2, 0.4, 0.6)
        for y in (0.2, 0.4, 0.6)
        for z in (0.3, 0.7)
        for t in (0.5, 1.5)
    ]
    for gf in (gf_d11, gf_pair, InitialGF(pq_state)):
        checked = 0
        for x, y, z, t in probes:
            u, v = gf.phi(t, x, y, z)
            if not (h < u < 1 - h and h < v < 1 - h):
                continue
            fd = (gf.eval_g(t, u + h, v, z) - gf.eval_g(t, u - h, v, z)) / (2 * h)
            assert fd == pytest.approx(gf.dx(x, y, z) / (1 + t), abs=1e-5)
            checked += 1
        assert checked >= 5


def test_contraction_is_geometric(gf_three):
    t = 0.5
    d = gf_three.critical_data()
    bound = t / (1 + t) * float(d.alpha + math.sqrt(d.beta * d.gamma)) + 0.05
    history = []
    gf_three.invert_phi(t, 0.4, 0.6, 0.7, history=history)
    ratios = [b / a for a, b in zip(history, history[1:]) if a > 1e-14]
    assert ratios and max(ratios) <= bound


def test_invert_phi_reports_nonconvergence(gf_three, monkeypatch):
    monkeypatch.setattr(genfun, "_FIXED_POINT_MAX_ITER", 5)
    with pytest.raises(ConvergenceError, match="in 5 iterations"):
        gf_three.invert_phi(0.9, 0.5, 0.5, 0.5)


# --- float twins: float arguments read float copies of the weights ---

TWIN_STATES = {
    "pq": {(1, 0, 1): Fraction(1, 2), (0, 1, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)},
    "three_arm": {(3, 0, 1): Fraction(1, 3), (0, 3, 1): Fraction(1, 3)},
    # denominators 3, 7, 9 and 126, masses 1 to 3, an armless species
    "sevenths": {(1, 0, 1): Fraction(3, 7), (0, 1, 2): Fraction(4, 9), (2, 1, 3): Fraction(2, 7),
                 (0, 2, 1): Fraction(17, 126), (0, 0, 2): Fraction(1, 3)},
}
_GFS = {name: InitialGF(c0) for name, c0 in TWIN_STATES.items()}


def _on_weights(gf):
    """A copy of ``gf`` whose twins are its exact term lists, so that every
    evaluation multiplies the Fraction weights by its arguments."""
    ref = copy.copy(gf)
    ref._terms_float, ref._dx_float, ref._dy_float, ref._dz_float = gf._terms, gf._dx, gf._dy, gf._dz
    return ref


def _bits(values):
    return [v.hex() for v in values]


_unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(TWIN_STATES)), _unit, _unit, _unit, st.sampled_from([0.1, 0.5, 0.9]))
def test_float_twins_equal_fraction_weights_bit_for_bit(name, x, y, z, frac):
    gf = _GFS[name]
    ref = _on_weights(gf)
    for f in ("value", "dx", "dy", "dz"):
        got, want = getattr(gf, f)(x, y, z), getattr(ref, f)(x, y, z)
        assert type(got) is float and got.hex() == want.hex(), f
    t = frac * min(float(gf.critical_data().t_crit), 10.0)
    u, v = 0.05 + 0.9 * x, 0.05 + 0.9 * y
    got_history, want_history = [], []
    got = gf.invert_phi(t, u, v, z, history=got_history)
    want = ref.invert_phi(t, u, v, z, history=want_history)
    assert _bits(got) == _bits(want) and _bits(got_history) == _bits(want_history)


@pytest.mark.parametrize("name", sorted(TWIN_STATES))
def test_exact_arguments_return_fractions(name):
    gf = _GFS[name]
    x, y, z = Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)
    for f, terms in (("value", gf._terms), ("dx", gf._dx), ("dy", gf._dy), ("dz", gf._dz)):
        got = getattr(gf, f)(x, y, z)
        assert type(got) is Fraction
        assert got == sum(w * x**a * y**b * z**m for a, b, m, w in terms)


_unit_fraction = st.builds(Fraction, st.integers(min_value=0, max_value=30), st.sampled_from([3, 7, 10, 30]))
_float_or_fraction = st.one_of(_unit, _unit_fraction.filter(lambda q: q <= 1))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(TWIN_STATES)), _float_or_fraction, _float_or_fraction, _float_or_fraction)
@example("pq", 0.3, Fraction(1, 3), Fraction(1, 2))  # pq's dx has only x**0: the float enters as a unit factor
def test_mixed_arguments_multiply_the_exact_weights(name, x, y, z):
    """Any Fraction argument keeps the exact weights: ``w * x**a`` stays exact
    until a float enters the product, and a float ``x**0`` enters it too."""
    assume(not (isinstance(x, float) and isinstance(y, float) and isinstance(z, float)))
    gf = _GFS[name]
    for f, terms in (("value", gf._terms), ("dx", gf._dx), ("dy", gf._dy), ("dz", gf._dz)):
        got, want = getattr(gf, f)(x, y, z), sum(w * x**a * y**b * z**m for a, b, m, w in terms)
        assert type(got) is type(want)
        assert got.hex() == want.hex() if isinstance(want, float) else got == want


def test_critical_data_is_computed_once():
    gf = InitialGF(TWIN_STATES["sevenths"])
    assert gf.critical_data() is gf.critical_data()
    assert gf.critical_data() == InitialGF(TWIN_STATES["sevenths"]).critical_data()


def test_weight_beyond_float_range_fails_only_when_evaluated_at_floats():
    huge = {**TWIN_STATES["pq"], (0, 0, 1): Fraction(10**400)}  # an armless species
    gf = InitialGF(huge)
    assert gf.critical_data() == InitialGF(TWIN_STATES["pq"]).critical_data()
    assert gf.dx(0.5, 0.5, 0.5) == _GFS["pq"].dx(0.5, 0.5, 0.5)  # the armless term is not in dx
    assert gf.value(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)) > 10**399
    with pytest.raises(OverflowError):
        gf.value(0.5, 0.5, 0.5)


# --- the float loop leaves out unit factors ---

UNIT_FACTOR_STATES = {
    "three_arm": TWIN_STATES["three_arm"],
    "pq": TWIN_STATES["pq"],
    "mixed_pairs": {p: Fraction(1, 4) for p in [(2, 1, 1), (1, 2, 1), (1, 0, 1), (0, 1, 1)]},
}
_UNIT_GFS = {name: InitialGF(c0) for name, c0 in UNIT_FACTOR_STATES.items()}


def _every_factor(terms, x, y, z):
    """``InitialGF._eval``'s loop as it reads at exact arguments: every factor
    multiplied, ``x**0`` and ``x**1`` included."""
    acc = 0
    for a, b, m, w in terms:
        acc = acc + w * (x**a) * (y**b) * (z**m)
    return acc


_point = st.one_of(st.sampled_from([0.0, 1.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(UNIT_FACTOR_STATES)), _point, _point, _point)
def test_float_loop_without_unit_factors_keeps_the_bits(name, x, y, z):
    """Leaving out the factors ``x**0`` and writing ``x`` for ``x**1`` gives
    the bits of the loop that multiplies every factor, at random points and
    corners.  The states' terms carry the exponents below, so all of 0, 1
    and at least 2 occur."""
    gf = _UNIT_GFS[name]
    exponents = {e for terms in (gf._terms, gf._dx, gf._dy, gf._dz) for t in terms for e in t[:3]}
    assert max(exponents) + 1 == len(exponents) == {"pq": 2, "mixed_pairs": 3, "three_arm": 4}[name]
    pairs = (("value", gf._terms_float), ("dx", gf._dx_float), ("dy", gf._dy_float), ("dz", gf._dz_float))
    for f, twin in pairs:
        got, want = getattr(gf, f)(x, y, z), _every_factor(twin, x, y, z)
        assert type(got) is float and got.hex() == want.hex(), (f, x, y, z)


def test_term_of_exponents_zero_refuses_a_weight_beyond_float_range():
    """``dz`` of an armless mass-1 species is a term with no factor left; its
    weight past the float range still raises at floats."""
    gf = InitialGF({**TWIN_STATES["pq"], (0, 0, 1): Fraction(10**400)})
    assert (0, 0, 0, Fraction(10**400)) in gf._dz_float
    with pytest.raises(OverflowError):
        gf.dz(0.5, 0.5, 0.5)
