import math
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coaglab.core import ConcentrationState, validate_and_normalize
from coaglab.exact import RandomGender, TwoGender, initial_state, limiting_mass_concentration
from coaglab.genfun import InitialGF
from coaglab.measures import (
    Measure1D,
    Measure2D,
    TruncatedSeries,
    _quotient,
    convolution_power,
    convolve,
    diamond,
    size_biased_laws,
)


def evaluate(series: TruncatedSeries, z):
    """``sum c_k z^k`` over the coefficients of ``series``."""
    acc, zp = 0, 1
    for c in series.coeffs:
        acc += c * zp
        zp *= z
    return acc


def generating_value(mu: Measure2D, x, y):
    """``sum w(a,b) x^a y^b``; works for scalars and truncated series."""
    acc = 0
    for (a, b), w in mu.weights:
        acc = acc + w * (x**a) * (y**b)
    return acc


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
    assert exact.is_exact() and dict(exact.weights) == brute_power(Measure1D.from_dict(weights), 5)


@settings(max_examples=40)
@given(small_measures, st.integers(min_value=0, max_value=6))
def test_convolution_power_matches_brute_force(nu, k):
    assert dict(convolution_power(nu, k).weights) == brute_power(nu, k)


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
    assert dict(nm.weights) == {(0, 0): 1}
    assert dict(nf.weights) == {(0, 0): 1}

    p, q = Fraction(1, 3), Fraction(2, 3)
    mu = Measure2D.from_dict({(1, 0): p, (0, 1): p, (1, 1): q})
    nm, nf = size_biased_laws(mu)
    assert dict(nm.weights) == {(0, 0): p, (1, 0): q}
    assert dict(nf.weights) == {(0, 0): p, (0, 1): q}

    nm, nf = size_biased_laws(Measure2D.delta(1, 1))
    assert dict(nm.weights) == {(1, 0): 1}
    assert dict(nf.weights) == {(0, 1): 1}


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
    assert evaluate(s, Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)
    with pytest.raises(ValueError):
        s + TruncatedSeries.constant(0, 2)


def test_series_antiderivative_is_exact_for_rationals():
    s = TruncatedSeries((Fraction(1), Fraction(1), Fraction(1), Fraction(1)))
    assert s.antiderivative().coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3))


def _same(x, y):
    """Equal value and equal type, so an exact result cannot pass as a float."""
    return type(x) is type(y) and x == y


def test_quotient_is_exact_only_for_exact_arguments():
    assert _same(_quotient(1, 3), Fraction(1, 3))
    assert _same(_quotient(Fraction(2, 3), 4), Fraction(1, 6))
    assert _same(_quotient(1.0, 3), 1.0 / 3)
    assert _same(_quotient(Fraction(1, 3), 0.5), Fraction(1, 3) / 0.5)


def test_quotient_sites_match_the_inline_branches():
    """Each site of ``_quotient`` against the branch it replaced: exact data
    give the same Fraction, float data the same float."""
    for third in (Fraction(1, 3), 1 / 3):
        exact = isinstance(third, Fraction)
        # core.validate_and_normalize: lam = 1 / <a, c0>
        am = 2 * third
        _, lam = validate_and_normalize(ConcentrationState({(2, 2, 1): third}))
        assert _same(lam, 1 / Fraction(am) if exact else 1.0 / am)
        # genfun.InitialGF.critical_data: T_c = 1 / (M - 1)
        gf = InitialGF({(3, 0, 1): third, (0, 3, 1): third})
        big_m = gf.critical_data().big_m
        assert big_m > 1
        want = 1 / (Fraction(big_m) - 1) if exact else 1.0 / (big_m - 1.0)
        assert _same(gf.critical_data().t_crit, want)
        # exact.initial_state: the random-gender weight C(k, b) 2^-k w
        mu = Measure1D.from_dict({1: third, 3: third, 2: 1 - 2 * third})
        c0 = initial_state(RandomGender(mu))
        for k, w in mu.weights:
            for b in range(k + 1):
                want = Fraction(math.comb(k, b), 2**k) * w if exact else math.comb(k, b) / 2**k * w
                assert _same(c0[(k - b, b, 1)], want)
        # measures.diamond and exact.limiting_mass_concentration
        law = Measure1D.from_dict({0: third, 1: third, 2: third})
        family = TwoGender(law, law)
        nu1, nu2 = family._laws
        for m in range(2, 8):
            terms = []
            for k in range(1, m):
                v1 = convolution_power(nu1, m - k)(k - 1)
                v2 = convolution_power(nu2, k)(m - k - 1)
                if v1 and v2:
                    terms.append(Fraction(v1) * v2 / (k * (m - k)) if exact else v1 * v2 / (k * (m - k)))
            dia = (m - 1) * (sum(terms) if exact else math.fsum(terms)) if terms else 0
            assert _same(diamond(nu1, nu2, m), dia)
            if dia:
                want = Fraction(dia, m - 1) if exact else dia / (m - 1)
                assert _same(limiting_mass_concentration(family, m), want)
    # TruncatedSeries.antiderivative
    for c in (3, Fraction(3, 7), 0.3):
        out = TruncatedSeries((c, c, c, c)).antiderivative().coeffs
        for k in range(3):
            assert _same(out[k + 1], Fraction(c, k + 1) if isinstance(c, int) else c / (k + 1))


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
    assert generating_value(mu, Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 2) + Fraction(1, 16)
    z = TruncatedSeries.identity(3)
    val = generating_value(mu, z, z)
    assert val.coeffs == (Fraction(1, 2), 0, 0, Fraction(1, 2))


# --- the common-denominator kernels against the generic loops they replace ---


def _reference_convolve(x, y):
    """``convolve`` as a generic loop: plain-Fraction products for exact
    weights, ``math.fsum`` as soon as a float is among them."""
    out = {}
    for j1, w1 in x.weights:
        for j2, w2 in y.weights:
            out.setdefault(j1 + j2, []).append(w1 * w2)
    cells = []
    for j, ws in sorted(out.items()):
        exact = all(isinstance(w, (int, Fraction)) for w in ws)
        cells.append((j, sum(ws) if exact else math.fsum(ws)))
    return tuple(cells)


def _reference_series_mul(xs, ys):
    """``TruncatedSeries.__mul__`` as a generic loop over nonzero coefficients:
    plain sums for exact cells, ``math.fsum`` as soon as a float is among a
    cell's products; a cell that received no product is int 0."""
    n = len(xs) - 1
    out = {}
    for i, x in enumerate(xs):
        if x == 0:
            continue
        for j, y in enumerate(ys):
            if y != 0 and i + j <= n:
                out.setdefault(i + j, []).append(x * y)
    cells = [0] * (n + 1)
    for k, ps in out.items():
        exact = all(isinstance(p, (int, Fraction)) for p in ps)
        cells[k] = sum(ps) if exact else math.fsum(ps)
    return tuple(cells)


def _identical(got, want):
    """Same cells, each of the same type; floats compared bit for bit.  The
    cells of a measure are its ``(j, weight)`` pairs."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert g[0] == w[0], (got, want)
            g, w = g[1], w[1]
        assert type(g) is type(w), (got, want)
        assert g.hex() == w.hex() if isinstance(w, float) else g == w, (got, want)


_ints = st.integers(min_value=-6, max_value=6)
# denominators 2^i 3^j 5^k 7^l: common denominators that are not powers of 2
_denominators = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4).map(
    lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3]
)
_fractions = st.builds(Fraction, st.integers(min_value=-40, max_value=40), _denominators)
_floats = st.floats(min_value=-4, max_value=4, allow_nan=False)
# all ints, all Fractions, or ints beside Fractions (the generic loop)
exact_values = st.one_of(
    st.lists(_ints, max_size=6),
    st.lists(_fractions, max_size=6),
    st.lists(st.one_of(_ints, _fractions), max_size=6),
)
float_values = st.lists(st.one_of(_floats, _fractions, _ints), min_size=1, max_size=6).filter(
    lambda vs: any(isinstance(v, float) for v in vs)
)


def _measures(values):
    """Measures with the given weights on distinct points; negative weights
    are allowed here, so that cells can cancel."""
    return values.flatmap(
        lambda vs: st.lists(
            st.integers(min_value=0, max_value=9), min_size=len(vs), max_size=len(vs), unique=True
        ).map(lambda js: Measure1D(tuple(sorted(zip(js, vs)))))
    )


def _series_pairs(values):
    """Two coefficient tuples of one length from ``values`` lists, zero-padded
    with int 0 as an untouched series cell is."""
    return st.tuples(values, values).map(
        lambda p: tuple(tuple(v) + (0,) * (max(map(len, p), default=0) + 1 - len(v)) for v in p)
    )


@settings(max_examples=150)
@given(_measures(exact_values), _measures(exact_values))
def test_convolve_exact_equals_plain_fraction_loop(x, y):
    _identical(convolve(x, y).weights, _reference_convolve(x, y))


@settings(max_examples=100)
@given(_measures(float_values), _measures(st.one_of(float_values, exact_values)))
def test_convolve_float_equals_generic_loop_bit_for_bit(x, y):
    _identical(convolve(x, y).weights, _reference_convolve(x, y))
    _identical(convolve(y, x).weights, _reference_convolve(y, x))


@settings(max_examples=150)
@given(_series_pairs(exact_values))
def test_series_mul_exact_equals_plain_fraction_loop(pair):
    xs, ys = pair
    _identical((TruncatedSeries(xs) * TruncatedSeries(ys)).coeffs, _reference_series_mul(xs, ys))


@settings(max_examples=100)
@given(_series_pairs(float_values), st.booleans())
def test_series_mul_float_equals_generic_loop_bit_for_bit(pair, swap):
    xs, ys = pair[::-1] if swap else pair
    _identical((TruncatedSeries(xs) * TruncatedSeries(ys)).coeffs, _reference_series_mul(xs, ys))


@settings(max_examples=150)
@given(
    _measures(st.one_of(exact_values, float_values)),
    _measures(st.one_of(exact_values, float_values)),
    st.integers(min_value=0, max_value=10),
)
def test_convolve_and_series_products_agree_cell_for_cell(x, y, spare):
    """Both run one kernel: on the same nonzero sparse data they give the same
    cells, of the same types, through the series order (which may cut the
    convolution short); a cell no product reached is int 0 in the series."""
    x, y = (Measure1D(tuple((j, w) for j, w in m.weights if w != 0)) for m in (x, y))
    n = max([m.weights[-1][0] for m in (x, y) if m.weights], default=0) + spare

    def series(m):
        coeffs = [0] * (n + 1)
        for j, w in m.weights:
            coeffs[j] = w
        return TruncatedSeries(tuple(coeffs))

    want = [0] * (n + 1)
    for k, w in convolve(x, y).weights:
        if k <= n:
            want[k] = w
    _identical((series(x) * series(y)).coeffs, tuple(want))


def test_kernels_keep_cancelled_and_untouched_cells_apart():
    third = Fraction(1, 3)
    # x * y cancels at 1 and 2 but not at 0 and 3; cell 4 receives no product
    x, y = (third, third, 0, 0, 0), (Fraction(1, 5), Fraction(-1, 5), Fraction(1, 5), 0, 0)
    prod = (TruncatedSeries(x) * TruncatedSeries(y)).coeffs
    _identical(prod, (Fraction(1, 15), Fraction(0), Fraction(0), Fraction(1, 15), 0))
    _identical(prod, _reference_series_mul(x, y))
    nu = Measure1D(((0, third), (1, third)))
    sigma = Measure1D(((0, Fraction(1, 7)), (1, Fraction(-1, 7))))
    _identical(convolve(nu, sigma).weights, ((0, Fraction(1, 21)), (1, Fraction(0)), (2, Fraction(-1, 21))))
    # the empty measure convolves to the empty measure, for every weight type
    for law in (nu, Measure1D(((0, 2), (3, 1))), Measure1D(((1, 0.5),))):
        assert convolve(law, Measure1D(())).weights == ()
        assert convolve(Measure1D(()), law).weights == ()
    # an int-only product stays int; beside one Fraction it is a Fraction
    _identical(convolve(Measure1D(((0, 2), (1, 3))), Measure1D(((1, 5),))).weights, ((1, 10), (2, 15)))
    _identical(
        convolve(Measure1D(((0, 2),)), Measure1D(((1, Fraction(5, 1)),))).weights, ((1, Fraction(10)),)
    )


def test_measure_lookup_leaves_equality_hash_and_repr():
    weights = {0: Fraction(1, 3), 2: Fraction(1, 2), 5: Fraction(1, 6)}
    nu = Measure1D.from_dict(weights)
    before = (repr(nu), hash(nu))
    assert [nu(j) for j in range(7)] == [weights.get(j, 0) for j in range(7)]
    assert (repr(nu), hash(nu)) == before
    assert nu == Measure1D.from_dict(weights)
    assert [f.name for f in fields(nu)] == ["weights", "_powers"]


def test_measure2d_lookups_read_one_cached_index():
    weights = {(0, 0): Fraction(1, 4), (1, 2): Fraction(1, 2), (3, 0): Fraction(1, 4)}
    mu = Measure2D.from_dict(weights)
    before = (repr(mu), hash(mu))
    cells = [(a, b) for a in range(5) for b in range(4)]
    assert [mu(a, b) for a, b in cells] == [weights.get(ab, 0) for ab in cells]
    index = vars(mu)["_index"]
    assert index == dict(mu.weights) == weights
    assert mu(1, 2) == Fraction(1, 2) and vars(mu)["_index"] is index
    vars(mu)["_index"] = {(9, 9): 7}  # a lookup reads the cache, not the weights
    assert mu(9, 9) == 7 and mu(1, 2) == 0
    assert (repr(mu), hash(mu)) == before
    assert mu == Measure2D.from_dict(weights)
    assert mu.is_probability() and not Measure2D.from_dict({(0, 1): 0.5}).is_probability()
