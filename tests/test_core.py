from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coaglab import (
    ConcentrationState,
    ParticleType,
    coagulation_rate,
    decompositions,
    merge,
    moment,
    validate_and_normalize,
)

types = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=8),
)


def test_rate_examples():
    assert coagulation_rate((1, 1, 1), (1, 1, 1)) == 2
    assert coagulation_rate((2, 0, 1), (0, 3, 5)) == 6
    assert coagulation_rate((0, 0, 3), (5, 5, 1)) == 0


def test_merge_examples():
    assert merge((1, 1, 1), (1, 1, 1)) == ParticleType(1, 1, 2)
    assert merge((2, 0, 1), (0, 3, 5)) == ParticleType(1, 2, 6)
    with pytest.raises(ValueError, match="rate is 0"):
        merge((1, 0, 1), (1, 0, 1))


def test_decompositions_examples():
    got = decompositions((0, 0, 2))
    assert got == [
        (ParticleType(0, 1, 1), ParticleType(1, 0, 1)),
        (ParticleType(1, 0, 1), ParticleType(0, 1, 1)),
    ]
    assert decompositions((4, 7, 1)) == []
    # 9 splittings, less (0, 0, 1) with (2, 2, 1) either way round, at rate 0
    assert len(decompositions((1, 1, 2))) == 7


@given(types, types)
def test_rate_symmetric(p, q):
    assert coagulation_rate(p, q) == coagulation_rate(q, p)


@given(types, types)
def test_merge_bookkeeping(p, q):
    if coagulation_rate(p, q) == 0:
        return
    r = merge(p, q)
    assert r.m == p[2] + q[2]
    assert r.a + r.b == p[0] + q[0] + p[1] + q[1] - 2
    assert r.a == p[0] + q[0] - 1


@given(types)
def test_decomposition_merge_duality(p):
    for q, r in decompositions(p):
        assert coagulation_rate(q, r) > 0
        assert merge(q, r) == ParticleType(*p)


def test_moment_examples():
    c = ConcentrationState({(1, 1, 1): 1.0})
    assert moment(c, lambda p: p.a * p.b) == 1.0
    c2 = ConcentrationState({(3, 0, 1): Fraction(1, 3), (0, 3, 1): Fraction(1, 3)})
    assert moment(c2, lambda p: p.a) == 1
    assert moment(ConcentrationState({}), lambda p: p.m**2) == 0


@given(
    st.dictionaries(types, st.fractions(min_value=0, max_value=3), max_size=5),
    st.fractions(min_value=-3, max_value=3),
)
def test_moment_linear_in_f(entries, scale):
    c = ConcentrationState(dict(entries))
    f = lambda p: p.a + 2 * p.m
    g = lambda p: p.b * p.m
    lhs = moment(c, lambda p: scale * f(p) + g(p))
    assert lhs == scale * moment(c, f) + moment(c, g)


def test_validate_and_normalize_examples():
    c0 = ConcentrationState({(1, 1, 1): 2.0})
    scaled, lam = validate_and_normalize(c0)
    assert lam == 0.5
    assert scaled[(1, 1, 1)] == 1.0

    c1 = ConcentrationState({(1, 0, 1): 1.0, (0, 1, 1): 1.0})
    scaled, lam = validate_and_normalize(c1)
    assert lam == 1.0
    assert dict(scaled.items()) == dict(c1.items())

    with pytest.raises(ValueError, match="positive"):
        validate_and_normalize(ConcentrationState({(2, 0, 1): 1.0}))
    with pytest.raises(ValueError, match="unbalanced"):
        validate_and_normalize(ConcentrationState({(2, 1, 1): 1.0}))


def test_validate_preserves_exact_arithmetic():
    c0 = ConcentrationState({(3, 0, 1): Fraction(1), (0, 3, 1): Fraction(1)})
    scaled, lam = validate_and_normalize(c0)
    assert lam == Fraction(1, 3)
    assert scaled[(3, 0, 1)] == Fraction(1, 3)


def test_state_validation():
    with pytest.raises(ValueError, match="negative concentration"):
        ConcentrationState({(1, 1, 1): -0.5})
    with pytest.raises(ValueError, match="mass"):
        ConcentrationState({(1, 1, 0): 0.5})
    # exact zeros are dropped, absent keys read as zero
    c = ConcentrationState({(1, 1, 1): 0.0, (2, 2, 2): 1.0})
    assert len(c) == 1
    assert c[(1, 1, 1)] == 0


def test_state_membership_and_iteration():
    c = ConcentrationState({(3, 0, 1): Fraction(1, 3), (1, 1, 2): 0.0, (0, 3, 1): Fraction(1, 3)})
    assert (3, 0, 1) in c and ParticleType(0, 3, 1) in c
    assert (1, 1, 2) not in c  # exact zeros are dropped
    assert (1, 1, 1) not in c
    assert list(c) == [ParticleType(3, 0, 1), ParticleType(0, 3, 1)]
    assert all(type(p) is ParticleType for p in c)
    with pytest.raises(ValueError, match="mass"):
        (1, 1, 0) in c
