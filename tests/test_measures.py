from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coaglab.measures import (
    Measure1D,
    Measure2D,
    TruncatedSeries,
    convolution_power,
    convolve,
    diamond,
    size_biased_laws,
)

small_measures = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.fractions(min_value=0, max_value=2),
    min_size=1,
    max_size=4,
).map(Measure1D.from_dict)


def brute_power(nu: Measure1D, k: int) -> dict:
    """Independent oracle: repeated direct convolution of weight dicts."""
    acc = {0: Fraction(1)}
    for _ in range(k):
        nxt = {}
        for j1, w1 in acc.items():
            for j2, w2 in nu.weights:
                nxt[j1 + j2] = nxt.get(j1 + j2, 0) + w1 * w2
        acc = nxt
    return {j: w for j, w in acc.items() if w != 0}


def test_convolution_power_examples():
    d1 = Measure1D.delta(1)
    for m in range(1, 7):
        assert convolution_power(d1, m)(m) == 1
        assert convolution_power(d1, m)(m - 1) == 0
    nu = Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert convolution_power(nu, 2)(2) == Fraction(1, 2)
    assert convolution_power(nu, 0)(0) == 1
    assert convolution_power(nu, 0)(3) == 0
    with pytest.raises(ValueError):
        convolution_power(nu, -1)


def test_convolution_power_keeps_float_and_exact_apart():
    # A float measure equals, and hashes like, the exact one of the same
    # values; each must still get powers of its own weight type.
    weights = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    floats = convolution_power(Measure1D.from_dict({j: float(w) for j, w in weights.items()}), 5)
    exact = convolution_power(Measure1D.from_dict(weights), 5)
    assert all(isinstance(w, float) for _, w in floats.weights)
    assert exact.is_exact() and exact.as_dict() == brute_power(Measure1D.from_dict(weights), 5)


@settings(max_examples=40)
@given(small_measures, st.integers(min_value=0, max_value=6))
def test_convolution_power_matches_brute_force(nu, k):
    assert convolution_power(nu, k).as_dict() == brute_power(nu, k)


@settings(max_examples=40)
@given(small_measures, st.integers(min_value=0, max_value=6))
def test_convolution_power_total_mass(nu, k):
    assert convolution_power(nu, k).total() == nu.total() ** k


def test_diamond_examples():
    d0 = Measure1D.delta(0)
    assert diamond(d0, d0, 2) == 1
    nu = Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert diamond(nu, nu, 2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        diamond(nu, nu, 1)


@pytest.mark.parametrize("m", range(2, 13))
def test_diamond_two_ancestor_identity(m):
    nu = Measure1D.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)})
    assert diamond(nu, nu, m) == Fraction(2, m) * convolution_power(nu, m)(m - 2)


def test_size_biased_laws_examples():
    mu = Measure2D.from_dict({(1, 0): 1, (0, 1): 1})
    nm, nf = size_biased_laws(mu)
    assert nm.as_dict() == {(0, 0): 1}
    assert nf.as_dict() == {(0, 0): 1}

    p, q = Fraction(1, 3), Fraction(2, 3)
    mu = Measure2D.from_dict({(1, 0): p, (0, 1): p, (1, 1): q})
    nm, nf = size_biased_laws(mu)
    assert nm.as_dict() == {(0, 0): p, (1, 0): q}
    assert nf.as_dict() == {(0, 0): p, (0, 1): q}

    nm, nf = size_biased_laws(Measure2D.delta(1, 1))
    assert nm.as_dict() == {(1, 0): 1}
    assert nf.as_dict() == {(0, 1): 1}


def test_size_biased_laws_rejects_unnormalized():
    with pytest.raises(ValueError, match="unit arm means"):
        size_biased_laws(Measure2D.delta(2, 2))


def test_size_biased_laws_have_unit_mass():
    mu = Measure2D.from_dict(
        {(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 2), (0, 2): Fraction(1, 4)}
    )
    nm, nf = size_biased_laws(mu)
    assert nm.total() == 1
    assert nf.total() == 1


coeff_lists = st.lists(st.fractions(min_value=-2, max_value=2), min_size=1, max_size=6)


@settings(max_examples=40)
@given(coeff_lists, coeff_lists)
def test_series_multiplication_matches_direct_convolution(xs, ys):
    n = max(len(xs), len(ys)) - 1
    xs = xs + [Fraction(0)] * (n + 1 - len(xs))
    ys = ys + [Fraction(0)] * (n + 1 - len(ys))
    prod = TruncatedSeries(tuple(xs)) * TruncatedSeries(tuple(ys))
    for k in range(n + 1):
        assert prod[k] == sum(xs[i] * ys[k - i] for i in range(k + 1))


def test_series_basics():
    z = TruncatedSeries.identity(4)
    assert (z**3).coeffs == (0, 0, 0, 1, 0)
    assert (z**0).coeffs == (1, 0, 0, 0, 0)
    s = TruncatedSeries((1, 2, 3, 0, 0))
    assert s.antiderivative().coeffs == (0, 1, 1, 1, 0)
    assert (s + z)[1] == 3
    assert (2 * s)[2] == 6
    assert (s - s).coeffs == (0,) * 5
    assert s.evaluate(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)
    with pytest.raises(ValueError):
        s + TruncatedSeries.zero(2)


def test_series_antiderivative_is_exact_for_rationals():
    s = TruncatedSeries((Fraction(1), Fraction(1), Fraction(1), Fraction(1)))
    assert s.antiderivative().coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3))


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure1D.from_dict({-1: 1})
    with pytest.raises(ValueError):
        Measure1D.from_dict({1: -1})
    with pytest.raises(ValueError):
        Measure2D.from_dict({(0, -1): 1})
    nu = Measure1D.from_dict({3: 0})
    assert nu.weights == ()


def test_generating_value_scalar_and_series():
    mu = Measure2D.from_dict({(0, 0): Fraction(1, 2), (1, 2): Fraction(1, 2)})
    assert mu.generating_value(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 2) + Fraction(1, 16)
    z = TruncatedSeries.identity(3)
    val = mu.generating_value(z, z)
    assert val.coeffs == (Fraction(1, 2), 0, 0, Fraction(1, 2))
