import bisect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from coaglab import (
    ConcentrationState,
    GWConfig,
    InitialGF,
    ParticleType,
    SolverSettings,
    TruncationPolicy,
    degeneracy_reasons,
    gw_progeny_pmf_series,
    gw_sample_total_progeny,
    h_infinity,
    initial_arm_measure,
    integrate,
    limiting_concentrations,
    moment,
)
from coaglab import limits
from coaglab.limits import _online_fixed_point
from coaglab.measures import Measure2D, TruncatedSeries, _over_common_denominator, _sum, size_biased_laws
from coaglab.particles import _block_stream


@pytest.fixture(scope="module")
def pq_laws(pq_state):
    return size_biased_laws(initial_arm_measure(pq_state))


def test_h_infinity_examples(pq_state):
    pair = InitialGF({(1, 0, 1): Fraction(1), (0, 1, 1): Fraction(1)})
    for z in (0.0, 0.3, 0.8):
        assert h_infinity(pair, z) == pytest.approx((z, z), abs=1e-11)

    d11 = InitialGF({(1, 1, 1): Fraction(1)})
    assert h_infinity(d11, 0.7) == pytest.approx((0.0, 0.0), abs=1e-11)

    p = q = 0.5
    z = 0.6
    expected = z * p / (1 - z * q)
    assert h_infinity(InitialGF(pq_state), z) == pytest.approx((expected, expected), abs=1e-10)


def test_h_infinity_preconditions(three_arm_state):
    with pytest.raises(ValueError, match="infinite critical time"):
        h_infinity(InitialGF(three_arm_state), 0.5)
    with pytest.raises(ValueError, match="z must lie"):
        h_infinity(InitialGF({(1, 1, 1): 1.0}), 1.0)


def test_limiting_concentrations_pair_annihilation():
    c0 = ConcentrationState({(1, 0, 1): Fraction(1), (0, 1, 1): Fraction(1)})
    ls = limiting_concentrations(c0, 8)
    assert ls.c_inf[2] == 1
    assert all(ls.c_inf[m] == 0 for m in ls.c_inf if m != 2)
    assert ls.g.coeffs[2] == 1
    assert ls.total_concentration == 1  # C_0 - 1 with C_0 = 2
    assert ls.total_mass == 2


def test_limiting_concentrations_degenerate_alternating():
    ls = limiting_concentrations({(1, 1, 1): Fraction(1)}, 10)
    assert all(v == 0 for v in ls.c_inf.values())
    assert ls.total_mass == 0  # all mass escapes to infinity


def test_limiting_concentrations_pq(pq_state):
    ls = limiting_concentrations(pq_state, 12)
    p = q = Fraction(1, 2)
    for m in range(2, 13):
        assert ls.c_inf[m] == p * p * q ** (m - 2)
    assert ls.c_inf[1] == 0


def test_gw_pmf_series_examples(pq_laws):
    childless = Measure2D.delta(0, 0)
    pmf = gw_progeny_pmf_series(childless, childless, 6)
    assert pmf[2] == 1 and sum(pmf) == 1

    nu_m, nu_f = pq_laws
    pmf = gw_progeny_pmf_series(nu_m, nu_f, 12)
    assert pmf[2] == Fraction(1, 4)
    p = q = Fraction(1, 2)
    for m in range(2, 13):
        assert pmf[m] == (m - 1) * p * p * q ** (m - 2)


def test_gw_pmf_series_at_the_smallest_orders(pq_laws):
    # P(T = 1) = 0, so the series is defined from max_total = 1 on
    assert gw_progeny_pmf_series(*pq_laws, 1) == [0, 0]
    with pytest.raises(ValueError, match="max_total must be >= 1, got 0"):
        gw_progeny_pmf_series(*pq_laws, 0)


def test_gw_pmf_matches_limit_concentrations(pq_state, pq_laws):
    nu_m, nu_f = pq_laws
    pmf = gw_progeny_pmf_series(nu_m, nu_f, 12)
    ls = limiting_concentrations(pq_state, 12)
    for m in range(2, 13):
        assert pmf[m] == (m - 1) * ls.c_inf[m]


def _generating_value(mu, x, y):
    """``sum w(a,b) x^a y^b`` of a ``Measure2D``, for truncated series x, y."""
    acc = 0
    for (a, b), w in mu.weights:
        acc = acc + w * (x**a) * (y**b)
    return acc


def _series_sweeps(update, order):
    """The fixed point by ``order + 1`` full sweeps from zero: each sweep makes
    one more coefficient exact.  A slow reference for the online helper."""
    x = y = TruncatedSeries.constant(0, order)
    for _ in range(order + 1):
        x, y = update(x, y)
    return x, y


def _swept_limit(c0, order):
    gf = InitialGF(c0)
    z = TruncatedSeries.identity(order)
    h1, h2 = _series_sweeps(lambda h1, h2: (gf.dy(h1, h2, z), gf.dx(h1, h2, z)), order)
    return h1, h2, gf.dz(h1, h2, z).antiderivative()


def _swept_pmf(nu_m, nu_f, order):
    r = TruncatedSeries.identity(order)
    gm, gf_ = _series_sweeps(
        lambda gm, gf_: (r * _generating_value(nu_m, gm, gf_), r * _generating_value(nu_f, gm, gf_)),
        order,
    )
    return list((gm * gf_).coeffs)


# T_c = inf and quadratic terms, so the pq linear case hides nothing
QUADRATIC = {(2, 0, 1): Fraction(1, 4), (0, 2, 1): Fraction(1, 4),
             (1, 0, 1): Fraction(1, 2), (0, 1, 1): Fraction(1, 2)}
# x^2 in dg0/dy and x y in dg0/dx, with weights that are not powers of 2
MIXED = {(2, 1, 1): Fraction(1, 7), (1, 0, 1): Fraction(5, 7), (0, 1, 1): Fraction(6, 7)}


PQ = {(1, 0, 1): Fraction(1, 2), (0, 1, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)}


@pytest.mark.parametrize("c0", [QUADRATIC, MIXED, PQ], ids=["quadratic", "mixed", "pq"])
def test_online_fixed_point_equals_sweeps(c0):
    order = 40
    floats = {p: float(w) for p, w in c0.items()}
    for state, exact in ((c0, True), (floats, False)):
        ls = limiting_concentrations(state, order)
        h1, h2, g = _swept_limit(state, order)
        for got, want in ((ls.h1, h1), (ls.h2, h2), (ls.g, g)):
            if exact:
                assert got.coeffs == want.coeffs
            else:  # the online powers may associate a product differently
                assert got.coeffs == pytest.approx(want.coeffs, rel=1e-14, abs=1e-300)
    nu_m, nu_f = size_biased_laws(initial_arm_measure(ConcentrationState(c0)))
    pmf = gw_progeny_pmf_series(nu_m, nu_f, order)
    assert pmf == _swept_pmf(nu_m, nu_f, order)
    ls = limiting_concentrations(c0, order)
    for m in range(2, order + 1):
        assert pmf[m] == (m - 1) * ls.c_inf[m]


# M = 5/9, denominators 3 and 9, and a mass-2 species: a term with z^2
# carries its weight's numerator times D, where pq's carry D^0
THIRDS = {(1, 0, 1): Fraction(4, 9), (0, 1, 1): Fraction(4, 9), (1, 1, 1): Fraction(1, 3),
          (2, 0, 2): Fraction(1, 9), (0, 2, 1): Fraction(1, 9), (0, 0, 1): Fraction(1, 3)}


@pytest.mark.parametrize("c0", [PQ, MIXED, THIRDS], ids=["pq", "mixed", "thirds"])
def test_online_fixed_point_on_integers_keeps_values_and_types(c0):
    order = 44
    ls = limiting_concentrations(c0, order)
    h1, h2, g = _swept_limit(c0, order)
    assert (ls.h1.coeffs, ls.h2.coeffs, ls.g.coeffs) == (h1.coeffs, h2.coeffs, g.coeffs)
    for series in (ls.h1, ls.h2):
        # positive weights: a coefficient that received a term is a positive
        # Fraction, one that received none (as coefficient 0) stays int 0
        assert series[0] == 0
        assert all(type(c) is Fraction and c > 0 if c else type(c) is int for c in series.coeffs)
    # int weights stay on ints
    x, y = _online_fixed_point([(0, 0, 1, 1), (0, 1, 1, 1)], [(1, 0, 2, 2)], 12)  # x = z(1 + y), y = 2z^2 x
    assert all(type(c) is int for c in x.coeffs + y.coeffs)
    assert x.coeffs[:8] == (0, 1, 0, 0, 2, 0, 0, 4) and y.coeffs[:8] == (0, 0, 0, 2, 0, 0, 4, 0)
    # a Fraction next to an int weight keeps the generic loop, with the same values
    xm, ym = _online_fixed_point([(0, 0, 1, Fraction(1)), (0, 1, 1, 1)], [(1, 0, 2, 2)], 12)
    assert (xm.coeffs, ym.coeffs) == (x.coeffs, y.coeffs)
    assert type(xm[1]) is Fraction and type(ym[3]) is Fraction
    # x = z^2/3 - z y with y = z/3: x[2] receives two terms that cancel and
    # stays a Fraction; later coefficients receive none and stay int 0
    third = Fraction(1, 3)
    for minus_one in (Fraction(-1), -1):  # on integers, and the generic loop
        x, _ = _online_fixed_point([(0, 0, 2, third), (0, 1, 1, minus_one)], [(0, 0, 1, third)], 5)
        assert [type(c) for c in x.coeffs] == [int, int, Fraction, int, int, int]
        assert x.coeffs == (0,) * 6


def test_online_fixed_point_sums_float_products_with_fsum():
    # y = z and x = 1e100 y z^2 + z^3 - 1e100 y z^2: x[3] receives 1e100, 1.0
    # and -1e100, which a left-to-right sum rounds to 0.0
    x, _ = _online_fixed_point([(0, 1, 2, 1e100), (0, 0, 3, 1.0), (0, 1, 2, -1e100)], [(0, 0, 1, 1.0)], 4)
    assert x[3] == 1.0


@pytest.mark.parametrize("c0", [PQ, QUADRATIC, MIXED, THIRDS], ids=["pq", "quadratic", "mixed", "thirds"])
def test_float_limit_holds_only_floats_and_int_zeros(c0):
    ls = limiting_concentrations({p: float(w) for p, w in c0.items()}, 6)
    cells = [*ls.h1.coeffs, *ls.h2.coeffs, *ls.g.coeffs, *ls.c_inf.values(), ls.total_concentration, ls.total_mass]
    assert all(type(c) is float or (type(c) is int and c == 0) for c in cells)
    json.dumps(ls.c_inf)


# int weights: x = z^2, y = z, and an armless mass-3 species in dg0/dz
INTS = {(1, 0, 1): 1, (0, 1, 2): 1, (0, 0, 3): 2}
READOUT_STATES = {"quadratic": QUADRATIC, "mixed": MIXED, "thirds": THIRDS, "ints": INTS}


def _types(cells):
    return [type(c) for c in cells]


@pytest.mark.parametrize("name", sorted(READOUT_STATES))
def test_readouts_equal_sweeps_in_value_and_type(name):
    """THIRDS holds an armless mass-1 species: a z^0 readout weight whose
    denominator 3 is not that of any x or y weight."""
    c0 = READOUT_STATES[name]
    order = 30
    ls = limiting_concentrations(c0, order)
    _, _, g = _swept_limit(c0, order)
    assert ls.g.coeffs == g.coeffs and _types(ls.g.coeffs) == _types(g.coeffs)
    assert type(ls.g[0]) is int and ls.g[0] == 0  # no product reaches z^0 of g
    if all(p[2] == 1 for p in c0):
        laws = size_biased_laws(initial_arm_measure(ConcentrationState(c0)))
        pmf, want = gw_progeny_pmf_series(*laws, order), _swept_pmf(*laws, order)
        assert pmf == want and _types(pmf) == _types(want)


def test_int_laws_give_int_progeny_cells():
    nu_m, nu_f = Measure2D.delta(0, 1), Measure2D.delta(0, 0)  # every tree is a male, a female and her child
    pmf = gw_progeny_pmf_series(nu_m, nu_f, 6)
    assert pmf == _swept_pmf(nu_m, nu_f, 6) == [0, 0, 0, 1, 0, 0, 0]
    assert _types(pmf) == [int] * 7


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("name", ["quadratic", "mixed", "thirds"])
def test_float_readouts_within_two_ulps_of_sweeps(name):
    c0 = {p: float(w) for p, w in READOUT_STATES[name].items()}
    order = 30
    ls = limiting_concentrations(c0, order)
    _, _, g = _swept_limit(c0, order)
    assert _types(ls.g.coeffs) == _types(g.coeffs)
    assert max(_ulps(a, b) for a, b in zip(ls.g.coeffs, g.coeffs) if a or b) <= 2
    if name != "thirds":
        laws = size_biased_laws(initial_arm_measure(ConcentrationState(c0)))
        pmf, want = gw_progeny_pmf_series(*laws, order), _swept_pmf(*laws, order)
        assert _types(pmf) == _types(want)
        assert max(_ulps(a, b) for a, b in zip(pmf, want) if a or b) <= 2


def test_readout_weight_typed_unlike_the_laws_leaves_the_integer_pass(pq_laws, monkeypatch):
    """An int 1 beside Fraction laws has no common denominator with them, so
    the pass falls to the generic sum (about ten times slower at order 96),
    with the same values.  ``gw_progeny_pmf_series`` types its weight 1
    like the laws and stays on integers."""
    sums = []
    monkeypatch.setattr(limits, "_sum", lambda values: sums.append(1) or _sum(values))
    nu_m, nu_f = pq_laws
    pmf = gw_progeny_pmf_series(nu_m, nu_f, 20)
    assert not sums
    laws = [[(a, b, 1, w) for (a, b), w in nu.weights] for nu in (nu_m, nu_f)]
    assert _over_common_denominator([w for _, w in nu_m.weights + nu_f.weights] + [1]) is None
    _, _, progeny = _online_fixed_point(*laws, 20, [[(1, 1, 0, 1)]])
    assert sums and list(progeny.coeffs) == pmf and _types(progeny.coeffs) == _types(pmf)


def test_online_pmf_equals_sweeps_on_quadratic_laws():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    nu = Measure2D.from_dict({(0, 0): half, (2, 0): quarter, (0, 2): quarter})
    assert gw_progeny_pmf_series(nu, nu, 40) == _swept_pmf(nu, nu, 40)
    nu = Measure2D.from_dict({(0, 0): 0.5, (2, 0): 0.25, (0, 2): 0.25})
    assert gw_progeny_pmf_series(nu, nu, 40) == pytest.approx(_swept_pmf(nu, nu, 40), rel=1e-14)


def test_series_products_do_not_grow_with_order(pq_state, pq_laws, monkeypatch):
    calls = []
    mul = TruncatedSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", counted)
    counts = []
    for n in (10, 80):
        calls.clear()
        limiting_concentrations(pq_state, n)
        gw_progeny_pmf_series(*pq_laws, n)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_gw_sampling_childless():
    childless = Measure2D.delta(0, 0)
    s = gw_sample_total_progeny(GWConfig(childless, childless, replicates=500, seed=1))
    assert s.counts == {2: 500}
    assert s.censored == 0
    assert s.nodes == 2 * 500


def test_gw_sampling_pq(pq_laws):
    nu_m, nu_f = pq_laws
    reps = 40_000
    s = gw_sample_total_progeny(GWConfig(nu_m, nu_f, replicates=reps, seed=11))
    assert s.censored == 0
    p_hat = s.pmf(2)
    sigma = math.sqrt(0.25 * 0.75 / reps)
    assert abs(p_hat - 0.25) <= 3 * sigma


def test_gw_sampling_immortal_chain():
    nu_m, nu_f = size_biased_laws(Measure2D.delta(1, 1))
    s = gw_sample_total_progeny(GWConfig(nu_m, nu_f, population_cap=300, replicates=40, seed=3))
    assert s.censored_fraction == 1.0
    assert s.nodes == 301 * 40  # each tree grows one node at a time past the cap


def _one_tree(draw_m, draw_f, cap, uniform):
    """Total and censoring of one tree, expanded breadth-first: the reference
    for the single loop of ``gw_sample_total_progeny``."""
    pending_m, pending_f = 1, 1
    total = 2
    while pending_m or pending_f:
        if total > cap:
            return total, True
        if pending_m:
            pending_m -= 1
            a, b = draw_m(uniform())
        else:
            pending_f -= 1
            a, b = draw_f(uniform())
        pending_m += a
        pending_f += b
        total += a + b
    return total, False


def _inverse_cdf_draw(nu):
    atoms = [ab for ab, _ in nu.weights]
    cum = np.cumsum([float(w) for _, w in nu.weights])
    cum[-1] = 1.0
    cum = cum.tolist()
    return lambda u: atoms[bisect.bisect_right(cum, u)]


@pytest.mark.parametrize("seed", [5, 6])
def test_gw_loop_matches_per_tree_reference(pq_laws, seed):
    # At population cap 8 a few percent of the pq trees are censored.
    cfg = GWConfig(*pq_laws, population_cap=8, replicates=2000, seed=seed)
    draw_m, draw_f = _inverse_cdf_draw(cfg.nu_m), _inverse_cdf_draw(cfg.nu_f)
    uniform = _block_stream(np.random.default_rng(seed).random).__next__
    counts, censored, nodes = {}, 0, 0
    for _ in range(cfg.replicates):
        size, was_censored = _one_tree(draw_m, draw_f, cfg.population_cap, uniform)
        nodes += size
        if was_censored:
            censored += 1
        else:
            counts[size] = counts.get(size, 0) + 1
    assert 0 < censored < cfg.replicates // 10
    s = gw_sample_total_progeny(cfg)
    assert (s.counts, s.censored, s.nodes) == (counts, censored, nodes)


def test_degeneracy_list():
    assert degeneracy_reasons(Measure2D.delta(1, 1))
    half = Measure2D.from_dict({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    assert degeneracy_reasons(half)
    male_line = Measure2D.from_dict({(1, 0): Fraction(1, 2), (1, 2): Fraction(1, 4)})
    assert degeneracy_reasons(male_line)
    female_line = Measure2D.from_dict({(0, 1): Fraction(1, 2), (2, 1): Fraction(1, 4)})
    assert degeneracy_reasons(female_line)
    ok = Measure2D.from_dict({(1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.5})
    assert degeneracy_reasons(ok) == []


def test_mass_at_infinity(pq_state):
    # For nondegenerate data the limiting mass equals the initial mass.
    ls = limiting_concentrations(pq_state, 60)
    c0_mass = moment(pq_state, lambda p: p.m)
    assert abs(float(ls.total_mass - c0_mass)) <= 1e-12  # geometric tail, q = 1/2


def test_ode_consistency_at_large_time(pq_state):
    ls = limiting_concentrations(pq_state, 8)
    traj = integrate(
        pq_state, 50.0, TruncationPolicy(mass_cap=24, arm_cap=4), SolverSettings(dt=5e-3), [50.0]
    )
    s = traj.state_at(50.0)
    for m in range(2, 9):
        gap = abs(s[(0, 0, m)] - float(ls.c_inf[m]))
        assert gap <= 2 / 51


def test_initial_arm_measure_requires_monodisperse():
    with pytest.raises(ValueError, match="monodisperse"):
        initial_arm_measure(ConcentrationState({(1, 1, 2): 1.0}))


def test_gw_config_validation(pq_laws):
    nu_m, nu_f = pq_laws
    with pytest.raises(ValueError, match="probability"):
        GWConfig(Measure2D.from_dict({(0, 0): Fraction(1, 2)}), nu_f)
    with pytest.raises(ValueError):
        GWConfig(nu_m, nu_f, replicates=0)
