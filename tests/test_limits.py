import math
from fractions import Fraction

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
from coaglab.measures import Measure2D, size_biased_laws


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


def test_gw_pmf_matches_limit_concentrations(pq_state, pq_laws):
    nu_m, nu_f = pq_laws
    pmf = gw_progeny_pmf_series(nu_m, nu_f, 12)
    ls = limiting_concentrations(pq_state, 12)
    for m in range(2, 13):
        assert pmf[m] == (m - 1) * ls.c_inf[m]


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
        GWConfig(Measure2D.delta(0, 0, Fraction(1, 2)), nu_f)
    with pytest.raises(ValueError):
        GWConfig(nu_m, nu_f, replicates=0)
