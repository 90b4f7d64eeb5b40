import math
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coaglab import (
    ConcentrationState,
    InitialGF,
    exact,
    OneFemaleArm,
    RandomGender,
    TwoGender,
    concentration,
    initial_state,
    limiting_mass_concentration,
    live_types,
    moment,
    size_biased,
)
from coaglab.kinetics import TruncationPolicy, _merge_sweep
from coaglab.measures import Measure1D, convolution_power, diamond


def test_family_validation():
    with pytest.raises(ValueError, match="probability"):
        OneFemaleArm(Measure1D.from_dict({1: Fraction(1, 2)}))
    with pytest.raises(ValueError, match="unit mean"):
        OneFemaleArm(Measure1D.delta(2))
    with pytest.raises(ValueError, match="mean 2"):
        RandomGender(Measure1D.delta(1))
    with pytest.raises(ValueError, match="mu1\\(0\\) and mu2\\(0\\)"):
        TwoGender(Measure1D.delta(1), Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)}))


def test_one_female_examples(fam_one_female):
    assert concentration(fam_one_female, 1, 1, 1, 2) == Fraction(1, 8)
    assert concentration(fam_one_female, 0, 1, 1, 1) == 1
    assert concentration(fam_one_female, 1, 0, 0, 3) == 0  # b != 1 vanishes
    # mass conservation: partial sums of m * c_t(a, 1, m)
    total = sum(
        m * concentration(fam_one_female, 1.0, a, 1, m)
        for m in range(1, 41)
        for a, _ in live_types(fam_one_female, m)
    )
    assert abs(total - 1.0) <= 1e-8


def test_one_female_never_gels():
    for mu1 in (
        Measure1D.delta(1),
        Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)}),
        Measure1D.from_dict({0: Fraction(2, 3), 3: Fraction(1, 3)}),
    ):
        c0 = initial_state(OneFemaleArm(mu1))
        assert InitialGF(c0).critical_data().t_crit == math.inf


def test_random_gender_examples(fam_random_gender):
    assert concentration(fam_random_gender, 1, 1, 1, 2) == Fraction(1, 16)
    assert concentration(fam_random_gender, 1, 2, 0, 2) == Fraction(1, 32)
    for m in range(2, 10):
        assert concentration(fam_random_gender, 1, 0, 0, m) == 0


def test_random_gender_binomial_identity():
    # c_t(a, b, m) / binom(a+b, b) depends only on a + b.
    mu1 = Measure1D.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)})
    fam = RandomGender(mu1)
    t = Fraction(3, 4)
    for m in (1, 2, 3, 5):
        groups = {}
        for a, b in live_types(fam, m):
            if (a, b) == (0, 0):
                continue
            groups.setdefault(a + b, []).append(
                concentration(fam, t, a, b, m) / math.comb(a + b, b)
            )
        for vals in groups.values():
            assert all(v == vals[0] for v in vals)


def test_two_gender_examples(fam_two_gender):
    assert concentration(fam_two_gender, 2, 1, 0, 1) == Fraction(1, 3)
    assert concentration(fam_two_gender, 2, 0, 0, 2) == Fraction(2, 3)
    assert concentration(fam_two_gender, 2, 0, 0, 3) == 0


def test_two_gender_critical_time():
    # T_c = 1/(sqrt(M1 M2) - 1) with M_i the size-biased means.
    mu1 = Measure1D.from_dict({3: Fraction(1, 3)})
    mu2 = Measure1D.from_dict({3: Fraction(1, 3)})
    c0 = initial_state(TwoGender(mu1, mu2))
    data = InitialGF(c0).critical_data()
    m1 = size_biased(mu1).mean()
    m2 = size_biased(mu2).mean()
    assert data.big_m == Fraction(2)
    assert data.big_m**2 == m1 * m2
    assert data.t_crit == Fraction(1)

    mu1b = Measure1D.from_dict({4: Fraction(1, 4)})  # nu mean 3
    datab = InitialGF(initial_state(TwoGender(mu1b, mu2))).critical_data()
    assert float(datab.big_m) == pytest.approx(math.sqrt(6), rel=1e-14)
    assert float(datab.t_crit) == pytest.approx(1 / (math.sqrt(6) - 1), rel=1e-12)


def test_two_gender_limit_identity():
    # t -> infinity of the armless branch approaches diamond(m)/(m-1).
    mu = Measure1D.from_dict({1: Fraction(2, 3), 2: Fraction(1, 6)})
    fam = TwoGender(mu, mu)
    assert InitialGF(initial_state(fam)).critical_data().t_crit == math.inf
    for m in (2, 3, 4, 6):
        limit = limiting_mass_concentration(fam, m)
        at_large_t = concentration(fam, Fraction(10**6), 0, 0, m)
        assert abs(float(limit - at_large_t)) <= float(limit) * 2e-5 + 1e-30


def test_exact_and_float_paths_agree(fam_random_gender, fam_two_gender):
    # A float family equals, and hashes like, the exact one of the same values,
    # so nothing derived from one may be handed to the other.
    float_families = (
        RandomGender(Measure1D.from_dict({2: 1.0})),
        TwoGender(Measure1D.from_dict({1: 1.0}), Measure1D.from_dict({1: 1.0})),
    )
    for fam, fam_float in zip((fam_random_gender, fam_two_gender), float_families):
        assert fam_float == fam
        for m in range(1, 9):
            for a, b in live_types(fam, m):
                ex = concentration(fam, Fraction(1, 2), a, b, m)
                fl = concentration(fam, 0.5, a, b, m)
                assert fl == pytest.approx(float(ex), rel=1e-12, abs=1e-300)
                assert isinstance(ex, Fraction)
                assert isinstance(concentration(fam_float, Fraction(1, 2), a, b, m), float)


def test_initial_states_are_normalized(fam_one_female, fam_random_gender, fam_two_gender):
    for fam in (fam_one_female, fam_random_gender, fam_two_gender):
        c0 = initial_state(fam)
        assert moment(c0, lambda p: p.a) == 1
        assert moment(c0, lambda p: p.b) == 1
        assert all(p.m == 1 for p in c0.support())


def test_live_types_are_exhaustive(fam_random_gender):
    # Everything off the live list is exactly zero; everything on it at a
    # positive time is strictly positive.
    fam = fam_random_gender
    for m in (1, 2, 4):
        live = set(live_types(fam, m))
        for a in range(6):
            for b in range(6):
                v = concentration(fam, Fraction(1, 2), a, b, m)
                if (a, b) in live:
                    assert v > 0
                else:
                    assert v == 0


def test_three_arm_family_closed_form_matches_second_moment(three_arm_state):
    # Sum a(a-1) c_t(a, b, m) over the closed form reproduces gamma / D(t).
    mu = Measure1D.from_dict({3: Fraction(1, 3)})
    fam = TwoGender(mu, mu)
    assert dict(initial_state(fam).items()) == dict(three_arm_state.items())
    t = 0.4
    total = sum(
        a * (a - 1) * concentration(fam, t, a, b, m)
        for m in range(1, 131)
        for a, b in live_types(fam, m)
    )
    assert total == pytest.approx(2 / ((1 - t) * (1 + 3 * t)), abs=1e-9)


def test_negative_time_rejected(fam_one_female):
    with pytest.raises(ValueError):
        concentration(fam_one_female, -0.5, 1, 1, 1)


def test_time_sign_and_zero_for_every_time_type(fam_one_female):
    # exact times are read through as_integer_ratio, float times as they are
    for t in (-1, Fraction(-1, 3), -0.5, -1e-300):
        with pytest.raises(ValueError, match="nonnegative"):
            concentration(fam_one_female, t, 1, 1, 1)
    # the float branch would take log(inf) and return nan
    rg_1_3 = RandomGender(Measure1D.from_dict({1: 0.5, 3: 0.5}))
    for t in (math.inf, math.nan, -math.inf):
        for fam in (fam_one_female, rg_1_3):
            with pytest.raises(ValueError, match=f"time must be finite, got {t}"):
                concentration(fam, t, 1, 0, 1)
    for t in (0, Fraction(0), 0.0, -0.0):
        assert concentration(fam_one_female, t, 1, 1, 1) == 1
        assert concentration(fam_one_female, t, 1, 1, 2) == 0
    assert concentration(fam_one_female, Fraction(1, 3), 1, 1, 2) == Fraction(9, 64)  # K = 1, tau = 1/4, (1+t)^-2 = 9/16
    assert concentration(fam_one_female, 1e-300, 1, 1, 2) > 0


def _tau_recursion(family, max_mass):
    """K(a, b, m) with c_t = K tau^(m-1) (1+t)^-(a+b), from the merge sweep's pairs.

    With ``u = (1+t)^(a+b) c`` the reduced equation reads ``du/dtau = gain(u)``,
    so ``K(p) = sum coeff K(i) K(j) / (m - 1)`` over the pairs into p, and
    ``K = c_0`` at mass 1.  The arm cap is too large to bind below ``max_mass``.
    """
    c0 = initial_state(family)
    table, _, pair_i, pair_j, pair_coeff, pair_tgt = _merge_sweep(
        c0.support(), TruncationPolicy(max_mass, 3 * max_mass)
    )
    types = list(zip(*(x.tolist() for x in table)))  # (a, b, m) rows
    k = [Fraction(c0[p]) for p in types]  # c0 is 0 above mass 1
    pairs = zip(pair_i.tolist(), pair_j.tolist(), pair_coeff.tolist(), pair_tgt.tolist())
    for i, j, coeff, tgt in pairs:  # grouped by increasing target mass
        k[tgt] += Fraction(coeff) * k[i] * k[j] / (types[tgt][2] - 1)
    return dict(zip(types, k))


@pytest.mark.parametrize(
    "family",
    [
        "fam_one_female",
        "fam_random_gender",
        "fam_two_gender",
        RandomGender(Measure1D.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)})),
        OneFemaleArm(Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)})),
        TwoGender(
            Measure1D.from_dict({3: Fraction(1, 3)}), Measure1D.from_dict({3: Fraction(1, 3)})
        ),
    ],
    ids=[
        "one_female", "random_gender", "two_gender",
        "random_gender_1_3", "one_female_0_2", "three_arm",
    ],
)
def test_closed_forms_equal_tau_recursion(family, request):
    if isinstance(family, str):
        family = request.getfixturevalue(family)
    max_mass = 8
    k = _tau_recursion(family, max_mass)
    for m in range(1, max_mass + 1):
        species = {(a, b) for a, b, mm in k if mm == m}
        assert set(live_types(family, m)) == species
        for t in (Fraction(1, 4), Fraction(1), Fraction(3)):
            tau = t / (1 + t)
            for a, b in species:
                expected = k[(a, b, m)] * tau ** (m - 1) / (1 + t) ** (a + b)
                assert concentration(family, t, a, b, m) == expected, (t, a, b, m)
        if isinstance(family, TwoGender) and m >= 2:
            assert k.get((0, 0, m), 0) == limiting_mass_concentration(family, m)


def test_time_major_table_equals_tau_recursion():
    """The benchmark's law at its times, read time-major as its table reads
    them, so entries come from the memo of one time while it is current."""
    family = RandomGender(Measure1D.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}))
    k = _tau_recursion(family, 8)
    table = _table(family, 8, [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    assert {(a, b, m) for _, a, b, m in table} == set(k)
    for (t, a, b, m), got in table.items():
        assert got == k[(a, b, m)] * (t / (1 + t)) ** (m - 1) / (1 + t) ** (a + b), (t, a, b, m)


def test_factorial_table_equals_math_factorial_on_both_sides_of_its_bound():
    """``n!`` is kept below the bound and computed above it, so the table
    never grows past the bound, and a negative n is refused."""
    bound = exact._FACTORIAL_TABLE_SIZE
    ns = [0, 1, 2, 20, bound - 2, bound - 1, bound, bound + 1, 3 * bound]
    assert [exact._factorial(n) for n in ns] == [math.factorial(n) for n in ns]
    assert len(exact._FACTORIALS) == bound
    assert exact._FACTORIALS == [math.factorial(n) for n in range(bound)]
    with pytest.raises(ValueError):
        exact._factorial(-1)


def _reference_term(nums, dens, weights) -> tuple[int, int]:
    """One term as an unnormalised integer ratio, helper call by helper call."""
    num, den = math.prod(map(math.factorial, nums)), math.prod(map(math.factorial, dens))
    for w in weights:
        n, d = w.as_integer_ratio()
        num, den = num * n, den * d
    return num, den


def _reference_concentration(family, t, a, b, m):
    """The exact branch of ``concentration`` as it was first written: a term is
    kept when ``all(weights)`` holds, then evaluated by ``_reference_term``."""
    p, q = t.as_integer_ratio()
    if p == 0:
        return family._c0[(a, b, 1)] if m == 1 else 0
    terms = family._terms(a, b, m) if m > 1 else [((), (), (family._c0[(a, b, 1)],))]
    num, den = 0, 1
    for nums, dens, weights in terms:
        if all(weights):
            n, d = _reference_term(nums, dens, weights)
            num, den = num * d + n * den, den * d
    if not num:
        return 0
    return Fraction(num * p ** (m - 1) * q ** (a + b), den * (p + q) ** (m - 1 + a + b))


_weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@st.composite
def _law_of_mean(draw, mean):
    """A probability law on {0, ..., top} of the given mean, with rational
    weights: a random law, mixed with a point mass at 0 or at ``top`` to move
    its mean onto ``mean``."""
    top = draw(st.integers(mean + 1, mean + 3))
    law = {j: draw(_weight) for j in draw(st.sets(st.integers(0, top), min_size=1))}
    total = sum(law.values())
    law = {j: w / total for j, w in law.items()}
    mu = sum(j * w for j, w in law.items())
    end = 0 if mu > mean else top
    lam = (end - mean) / (end - mu) if mu != mean else Fraction(1)
    mixed = {j: lam * w for j, w in law.items()}
    mixed[end] = mixed.get(end, 0) + 1 - lam
    return Measure1D.from_dict(mixed)


@st.composite
def _unit_mean_measure(draw, at_zero):
    """A measure of mean 1 on {0, ..., 4}, with weight ``at_zero`` at 0."""
    arms = {j: draw(_weight) for j in draw(st.sets(st.integers(1, 4), min_size=1))}
    mean = sum(j * w for j, w in arms.items())
    return Measure1D.from_dict({0: at_zero, **{j: w / mean for j, w in arms.items()}})


@st.composite
def _exact_family(draw):
    kind = draw(st.sampled_from(["one_female", "random_gender", "two_gender"]))
    if kind == "one_female":
        return OneFemaleArm(draw(_law_of_mean(1)))
    if kind == "random_gender":
        return RandomGender(draw(_law_of_mean(2)))
    at_zero = draw(st.one_of(st.just(Fraction(0)), _weight))
    return TwoGender(draw(_unit_mean_measure(at_zero)), draw(_unit_mean_measure(at_zero)))


@settings(max_examples=60, deadline=None)
@given(
    _exact_family(),
    st.builds(Fraction, st.integers(1, 20), st.integers(1, 20)),
    st.integers(1, 12),
)
def test_exact_entries_equal_the_per_term_helper_evaluation(family, t_random, m):
    """Every exact entry, on ``live_types`` and off it, equals the evaluation
    by one helper call per term, in value and in type."""
    live = live_types(family, m)
    top = max((a + b for a, b in live), default=0)
    off = [(a, b) for a in range(3) for b in range(3)] + [(top + 1, 0), (0, top + 1)]
    for t in (Fraction(0), Fraction(1, 3), Fraction(2), t_random):
        for a, b in sorted(set(live) | set(off)):
            got = concentration(family, t, a, b, m)
            expected = _reference_concentration(family, t, a, b, m)
            assert got == expected, (family, t, a, b, m)
            assert type(got) is type(expected), (family, t, a, b, m)


class _ZeroTermBesideNonzero:
    """A family of one nonzero term and one zero-weight term whose factorial
    argument is -1; only ``concentration`` reads it."""

    _exact = True
    _c0 = ConcentrationState({(1, 1, 1): Fraction(1)})

    def _coefficient_key(self, a, b, m):
        return None

    def _terms(self, a, b, m):
        yield (-1,), (0,), (Fraction(0), Fraction(1, 2))
        yield (m + 1,), (m, a), (Fraction(1, 3),)


def test_zero_weight_term_reads_no_factorial():
    """A zero-weight term is dropped before its factorials are read: read at
    index -1, the table would give its largest entry, and ``math.factorial``
    refuses -1."""
    t, a, b, m = Fraction(1, 2), 2, 1, 5
    tau = t / (1 + t)
    alone = Fraction(math.factorial(m + 1), math.factorial(m) * math.factorial(a)) / 3
    got = concentration(_ZeroTermBesideNonzero(), t, a, b, m)
    assert got == alone * tau ** (m - 1) / (1 + t) ** (a + b)
    assert type(got) is Fraction


def _float_family(family):
    """The family of ``family``'s laws with float weights."""
    laws = [getattr(family, f.name) for f in fields(family)]
    return type(family)(*(Measure1D.from_dict({j: float(w) for j, w in mu.weights}) for mu in laws))


def _reference_live(family, m):
    """``live_types`` as a sorted set, built from the supports of the
    convolution powers as the families first built it."""
    if m == 1:
        return sorted((p.a, p.b) for p in family._c0.support())

    def support(nu, k):
        return [j for j, _ in convolution_power(nu, k).weights]

    if isinstance(family, OneFemaleArm):
        live = {(s - m + 1, 1) for s in support(family.mu1, m) if s >= m - 1}
    elif isinstance(family, RandomGender):
        nu_half = size_biased(family.mu1).scaled(Fraction(1, 2))
        ks = (s - m + 2 for s in support(nu_half, m))
        live = {(k - b, b) for k in ks if k >= 0 for b in range(k + 1)}
    else:
        nu1, nu2 = size_biased(family.mu1), size_biased(family.mu2)
        live = {
            (j1 - k + 1, j2 - m + k + 1)
            for k in range(m + 1)
            for j1 in support(nu1, m - k)
            if j1 >= k - 1
            for j2 in support(nu2, k)
            if j2 >= m - k - 1
        }
    return sorted(live)


@settings(max_examples=60, deadline=None)
@given(_exact_family(), st.integers(1, 12), st.booleans())
def test_live_types_equal_the_sorted_set_of_the_supports(family, m, as_floats):
    """Each family lists its live types in sorted order without building a
    set, exact laws and float laws alike."""
    if as_floats:
        family = _float_family(family)
    assert live_types(family, m) == _reference_live(family, m)


@pytest.mark.parametrize("mass", [0, -1])
def test_live_types_refuse_a_mass_below_one(fam_one_female, fam_random_gender, fam_two_gender, mass):
    rg_1_3 = RandomGender(Measure1D.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}))
    for fam in (fam_one_female, fam_random_gender, fam_two_gender, rg_1_3):
        with pytest.raises(ValueError, match="mass must be at least 1"):
            live_types(fam, mass)


def test_power_lookup_holds_each_power_read_once(monkeypatch):
    """Entries and live types read each convolution power once per family,
    and the lookup keeps the power's own weight dict, not a copy: one entry
    per (law, power) read, and no power above the masses asked."""
    real = exact.convolution_power
    reads = []
    monkeypatch.setattr(exact, "convolution_power", lambda nu, k: reads.append((id(nu), k)) or real(nu, k))
    mu = Measure1D.from_dict({0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)})
    families = [
        OneFemaleArm(Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)})),
        RandomGender(Measure1D.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)})),
        TwoGender(mu, Measure1D.from_dict({0: Fraction(1, 4), 1: Fraction(1, 4), 3: Fraction(1, 4)})),
    ]
    top = 7
    for fam in families:
        for m in range(1, top + 1):
            for t in (Fraction(1, 3), Fraction(2), 0.5):
                for a, b in live_types(fam, m) + [(0, 0), (1, 1), (9, 0)]:
                    concentration(fam, t, a, b, m)
    assert len(reads) == len(set(reads))
    for fam in families:
        index = fam._power_index
        assert {(id(fam._laws[i]), k) for i, k in index} <= set(reads)
        assert max(k for _, k in index) <= top
        for (i, k), weights in index.items():
            power = real(fam._laws[i], k)
            assert weights == power._index
            if k:  # the empty power is built afresh on each call
                assert weights is power._index
    assert len(reads) == sum(len(fam._power_index) for fam in families)


def _table(family, top, times):
    return {
        (t, a, b, m): concentration(family, t, a, b, m)
        for t in times
        for m in range(1, top + 1)
        for a, b in live_types(family, m)
    }


def test_random_gender_caches_one_coefficient_per_arm_total_and_mass():
    """The table of the benchmark's exact study, 4040 species at three times,
    leaves one memo entry per distinct (a + b, m) read at the last time, never
    one per species, and the family keeps no other per-instance dict but the
    per-law power lookup."""
    family = RandomGender(Measure1D.from_dict({1: Fraction(1, 2), 3: Fraction(1, 2)}))
    table = _table(family, 32, [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    species = {(a, b, m) for _, a, b, m in table}
    assert (len(table), len(species)) == (12120, 4040)
    # the time memo holds the last time only, and only the keys read there
    assert list(family._scaled) == [(1, 1)]
    assert set(family._scaled[1, 1]) == {(a + b, m) for a, b, m in species}
    assert len(family._scaled[1, 1]) == 320
    for a, b, m in [(1, 0, 3), (0, 1, 3), (2, 3, 7)]:
        concentration(family, Fraction(2, 3), a, b, m)
    assert list(family._scaled) == [(2, 3)]
    assert set(family._scaled[2, 3]) == {(1, 3), (5, 7)}
    dicts = {name for name, value in vars(family).items() if isinstance(value, dict)}
    assert dicts - {"_c0", "_exact", "_laws"} == {"_scaled", "_power_index"}


def test_one_female_and_two_gender_tables_cache_nothing():
    mu = Measure1D.from_dict({0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)})
    for family in (
        OneFemaleArm(Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)})),
        TwoGender(mu, mu),
    ):
        assert _table(family, 10, [Fraction(1, 3), Fraction(2)])
        assert family._scaled == {}


@pytest.mark.parametrize(
    "law",
    [
        pytest.param({1: Fraction(1, 2), 3: Fraction(1, 2)}, id="arms-1-or-3"),
        pytest.param({2: Fraction(1)}, id="two-arms-zero-at-no-free-arm"),
        pytest.param({0: Fraction(1, 8), 1: Fraction(1, 2), 4: Fraction(3, 8)}, id="arms-0-1-or-4"),
    ],
)
def test_cached_entries_equal_the_per_term_helper_evaluation(law, monkeypatch):
    """Once an arm total is in the memo at a mass and time, every other split
    of it is a hit on the memo, and equals the per-term evaluation in value
    and type, zero entries included."""
    real = exact._scaled_coefficient
    misses = []
    monkeypatch.setattr(exact, "_scaled_coefficient", lambda *args: misses.append(args) or real(*args))
    family = RandomGender(Measure1D.from_dict(law))
    for t in (Fraction(1, 3), Fraction(5, 2)):
        for m in range(1, 9):
            for k in range(m + 4):
                concentration(family, t, k, 0, m)
                count = len(misses)
                for a in range(k + 1):
                    got = concentration(family, t, a, k - a, m)
                    expected = _reference_concentration(family, t, a, k - a, m)
                    assert got == expected, (law, t, a, k - a, m)
                    assert type(got) is type(expected), (law, t, a, k - a, m)
                assert len(misses) == count
                assert (k, m) in family._scaled[t.as_integer_ratio()]
    # one miss per key and time read
    assert len(misses) == len({(p, q, a + b, m) for _, p, q, a, b, m in misses})


def _entries(family, top):
    """Species to read at each time: the live types through ``top``, and a
    few off them, whose entries are 0."""
    species = [(a, b, m) for m in range(1, top + 1) for a, b in live_types(family, m)]
    return species + [(0, 0, m) for m in range(2, top + 1)] + [(top + 2, 0, top), (0, 1, top + 1)]


@settings(max_examples=25, deadline=None)
@given(_law_of_mean(2), st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
def test_table_is_the_same_in_every_reading_order(law, t_random):
    """Time-major (the memo of one time serves every split of a key),
    time-inner (the memo is replaced at every entry) and one fresh family per
    entry give the same entries, in value and type, zero entries included."""
    times = [Fraction(1, 4), t_random, Fraction(3)]
    family = RandomGender(law)
    species = _entries(family, 7)
    time_major = {(t, *s): concentration(family, t, *s) for t in times for s in species}
    family = RandomGender(law)
    time_inner = {(t, *s): concentration(family, t, *s) for s in species for t in times}
    fresh = {(t, *s): concentration(RandomGender(law), t, *s) for t in times for s in species}
    assert time_major == time_inner == fresh
    for key, value in time_major.items():
        assert type(value) is type(time_inner[key]) is type(fresh[key]), key
    assert len(family._scaled) == 1


def test_live_types_returns_a_list_the_caller_owns(fam_random_gender, fam_two_gender):
    for fam in (fam_random_gender, fam_two_gender):
        for m in (1, 4):
            first = live_types(fam, m)
            expected = list(first)
            first.append((99, 99))
            first.sort(reverse=True)
            assert live_types(fam, m) == expected
            assert live_types(fam, m) is not live_types(fam, m)
