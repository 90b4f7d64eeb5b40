"""Closed-form solutions for three monodisperse initial-condition families.

All particles have mass 1 at time 0, so the initial data is an arm-count
measure.  For all three families, Lagrange inversion of the characteristic
equations gives explicit concentrations of one shape:

    c_t(a, b, m) = K(a, b, m) * tau^(m-1) * (1+t)^-(a+b),    tau = t/(1+t).

Mass-1 species only lose, so ``K(a, b, 1) = c_0(a, b, 1)``.  For m >= 2 each
family gives the time-free coefficient K as a sum of factorial ratios times
convolution-power weights, with ``nu(j) = (j+1) mu(j+1)`` the size-biased law:

* :class:`OneFemaleArm` - every particle has exactly one female arm and a
  male-arm count drawn from a unit-mean probability law ``mu1``.  Then

      K(a, 1, m) = (m+a-1)! / (m! a!) * mu1^{*m}(m+a-1)

  and concentrations vanish off b = 1.  This family never gels.

* :class:`RandomGender` - the total arm count is drawn from ``mu1`` (a
  probability law with mean 2) and each arm is independently male or female
  with probability 1/2.  With k = a + b,

      K(a, b, m) = (m+k-2)! / (m! a! b!) * 2^(1-k) * (nu1/2)^{*m}(m+k-2),

  (0, 0) included; it is 0 whenever nu1(0) = 0: if no particle has exactly
  one arm, every cluster retains at least two free arms.

* :class:`TwoGender` - every particle carries arms of a single gender;
  male-armed counts follow ``mu1``, female-armed counts follow ``mu2`` (both
  unit-mean with ``mu1(0) = mu2(0)``).  Then

      K(a, b, m) = sum_{k=0}^{m} (m-k+b-1)! (k+a-1)! / ((m-k)! k! a! b!)
                   * nu1^{*(m-k)}(k+a-1) * nu2^{*k}(m-k-1+b).

  At (0, 0) only 0 < k < m contribute and the sum is
  ``(nu1 <> nu2)(m) / (m-1)``, with the diamond product from
  :mod:`coaglab.measures`.  As t -> infinity, tau -> 1, so all concentrations
  with arms vanish and c(0, 0, m) -> (nu1 <> nu2)(m) / (m - 1).

Each family finds the weights of a convolution power once per (law, power),
so once per mass, not once per entry: its lookup holds the power's own
weight dict, and entries and ``live_types`` read it by key.

Rational inputs (Fraction weights and times) are evaluated exactly, on plain
ints: each term's weights are read once as integer ratios, a term with a zero
weight is dropped before its factorials are read, the factorials are read by
index from a table, and the terms are summed as one unnormalised integer
ratio, so each entry builds one Fraction.  A family may name a key under
which that sum, times ``a! b!``, is kept as a reduced integer ratio S, so
that an entry at t = p/q is the one Fraction
``S * p^(m-1) q^(a+b) / (a! b! (p+q)^(m-1+a+b))``.  :class:`RandomGender`
keys S on ``(a + b, m)``, since each arm's gender is drawn alone: its cache
holds one entry per arm total and mass read, never one per species or per
time (320 for the table of ``mu1`` on {1, 3} through mass 32, which has 4040
species).  Every factor of such an entry but ``1/(a! b!)`` is then shared by
all the species of one key at one time, so the family also keeps a memo of
the last time read: per key, the integer pair ``X = S_num p^(m-1) q^(a+b)``,
``Y = S_den (p+q)^(m-1+a+b)``, reduced, and an entry is the one Fraction
``X / (Y a! b!)``.  A new time replaces the memo, so it holds at most one
pair per key.  It serves callers that read a table time-major, t in the
outer loop, as ``coaglab explicit`` does; a caller that alternates times
rebuilds one small dict per switch.  The other families cache nothing, and
keep no such memo.  Every family keeps the pairs ``live_types`` lists for
each mass read, so a table at several times lists each mass once.  Float
inputs sum the terms in log space (log-gamma factorials, log-sum-exp), so
large masses neither overflow nor lose the leading digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache

from .core import ConcentrationState
from .measures import _PROBABILITY_TOL, Measure1D, _is_exact, _quotient, convolution_power, diamond


# A family's ``_terms(a, b, m)``, m >= 2, gives the terms of K(a, b, m), as a
# tuple or a generator, each as ``(nums, dens, weights)``: the term is
# prod(n!) / prod(d!) * prod(weights).
# Terms with a zero weight are skipped unevaluated, so their factorial
# arguments may be negative.  ``_live(m)``, m >= 2, is the list of (a, b) with
# nonzero K, in sorted order, read off the supports of the convolution powers.
# Both read the powers of ``_laws[i]`` through ``_power_weights(i, k)``.


class _Family:
    """What a family derives from its arm laws, computed once per instance."""

    @cached_property
    def _c0(self) -> ConcentrationState:
        return initial_state(self)

    @cached_property
    def _exact(self) -> bool:
        # every field of a family is an arm law
        return all(getattr(self, f.name).is_exact() for f in fields(self))

    @cached_property
    def _power_index(self) -> dict:
        # (i, k) -> convolution_power(self._laws[i], k)._index, filled on first read
        return {}

    @cached_property
    def _coefficients(self) -> dict:
        # _coefficient_key(a, b, m) -> a! b! K(a, b, m), a reduced (num, den), filled on first read
        return {}

    @cached_property
    def _scaled(self) -> dict:
        # {(p, q): {_coefficient_key(a, b, m): _scaled_coefficient(...), reduced}},
        # holding only the time t = p/q last read
        return {}

    @cached_property
    def _live_types(self) -> dict:
        # m -> live_types(self, m) as a tuple, filled on first read; each pair
        # (a, b) is also a key, mapped to itself, so that every mass holds the
        # one tuple of a pair (630 for the 4040 live types of mu1 on {1, 3}
        # through mass 32)
        return {}

    def _coefficient_key(self, a, b, m):
        """The key under which ``concentration`` caches ``a! b! K(a, b, m)``,
        or None to cache nothing: that product, m and a + b must be the same
        for every species of one key."""
        return None

    def _power_weights(self, i: int, k: int) -> dict:
        """The weights of ``convolution_power(self._laws[i], k)``, keyed by
        arm count in increasing order.  This is the power's own ``_index``
        dict, not a copy, found once per (i, k) and then read by key."""
        try:
            return self._power_index[i, k]
        except KeyError:
            weights = self._power_index[i, k] = convolution_power(self._laws[i], k)._index
            return weights


@dataclass(frozen=True)
class OneFemaleArm(_Family):
    """Each particle has one female arm; male arms follow mu1 (probability, mean 1)."""

    mu1: Measure1D

    def __post_init__(self):
        if not self.mu1.is_probability():
            raise ValueError(f"mu1 must be a probability measure, total = {self.mu1.total()}")
        if abs(self.mu1.mean() - 1) > _PROBABILITY_TOL:
            raise ValueError(f"mu1 must have unit mean, got {self.mu1.mean()}")

    @cached_property
    def _laws(self) -> tuple[Measure1D]:
        return (self.mu1,)

    def _terms(self, a, b, m):
        if b != 1:
            return ()
        return (((m + a - 1,), (m, a), (self._power_weights(0, m).get(m + a - 1, 0),)),)

    def _live(self, m):
        return [(s - m + 1, 1) for s in self._power_weights(0, m) if s >= m - 1]


@dataclass(frozen=True)
class RandomGender(_Family):
    """Total arms follow mu1 (probability, mean 2); genders i.i.d. uniform."""

    mu1: Measure1D

    def __post_init__(self):
        if not self.mu1.is_probability():
            raise ValueError(f"mu1 must be a probability measure, total = {self.mu1.total()}")
        if abs(self.mu1.mean() - 2) > _PROBABILITY_TOL:
            raise ValueError(f"mu1 must have mean 2, got {self.mu1.mean()}")

    @cached_property
    def _laws(self) -> tuple[Measure1D]:
        return (size_biased(self.mu1).scaled(Fraction(1, 2)),)

    def _coefficient_key(self, a, b, m):
        # each arm's gender is drawn alone, so a! b! K(a, b, m) depends on a + b and m only
        return a + b, m

    def _terms(self, a, b, m):
        k = a + b
        conv = self._power_weights(0, m).get(m + k - 2, 0)
        return (((m + k - 2,), (m, a, b), (_two_to_one_minus(k), conv)),)

    def _live(self, m):
        # every (a, b) with a + b = k, for each arm total k of the support;
        # a pair fixes its k, so listing by a, then k, is sorted and distinct
        ks = [s - m + 2 for s in self._power_weights(0, m) if s >= m - 2]
        return [(a, k - a) for a in range(max(ks, default=-1) + 1) for k in ks if k >= a]


@dataclass(frozen=True)
class TwoGender(_Family):
    """Single-gender particles: male-side arm law mu1, female-side mu2 (mean 1 each)."""

    mu1: Measure1D
    mu2: Measure1D

    def __post_init__(self):
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if abs(mu.mean() - 1) > _PROBABILITY_TOL:
                raise ValueError(f"{name} must have unit mean, got {mu.mean()}")
        if self.mu1(0) != self.mu2(0):
            raise ValueError(
                f"mu1(0) and mu2(0) must agree, got {self.mu1(0)} and {self.mu2(0)}"
            )

    @cached_property
    def _laws(self) -> tuple[Measure1D, Measure1D]:
        return size_biased(self.mu1), size_biased(self.mu2)

    def _terms(self, a, b, m):
        power = self._power_weights
        for k in range(m + 1):
            v1 = power(0, m - k).get(k + a - 1, 0)
            if v1:  # skips the second convolution power of a zero term
                v2 = power(1, k).get(m - k - 1 + b, 0)
                yield (m - k + b - 1, k + a - 1), (m - k, k, a, b), (v1, v2)

    def _live(self, m):
        # several k can give one (a, b), so the pairs are deduplicated
        power = self._power_weights
        return sorted({
            (j1 - k + 1, j2 - m + k + 1)
            for k in range(m + 1)
            for j1 in power(0, m - k)
            if j1 >= k - 1
            for j2 in power(1, k)
            if j2 >= m - k - 1
        })


def size_biased(mu: Measure1D) -> Measure1D:
    """``nu(j) = (j + 1) mu(j + 1)``, the arm law seen across a bond."""
    return Measure1D.from_dict({j - 1: j * w for j, w in mu.weights if j >= 1})


def initial_state(family) -> ConcentrationState:
    """Monodisperse initial concentrations induced by a family spec."""
    if isinstance(family, OneFemaleArm):
        return ConcentrationState({(a, 1, 1): w for a, w in family.mu1.weights})
    if isinstance(family, RandomGender):
        entries = {}
        for k, w in family.mu1.weights:
            for b in range(k + 1):
                entries[(k - b, b, 1)] = _quotient(math.comb(k, b), 2**k) * w
        return ConcentrationState(entries)
    if isinstance(family, TwoGender):
        entries = {}
        for a, w in family.mu1.weights:
            if a >= 1:
                entries[(a, 0, 1)] = w
        for b, w in family.mu2.weights:
            if b >= 1:
                entries[(0, b, 1)] = w
        if family.mu1(0) != 0:
            entries[(0, 0, 1)] = family.mu1(0)
        return ConcentrationState(entries)
    raise TypeError(f"not a family spec: {family!r}")


@lru_cache(maxsize=256)
def _two_to_one_minus(k: int) -> Fraction:
    """``2^(1-k)``, the random-gender weight of k arms, built once per k."""
    return Fraction(2, 2**k)


_FACTORIAL_TABLE_SIZE = 1024  # n! is kept for n below this, about 0.5 MB of digits when full
_FACTORIALS = [1]  # n! at index n, grown on demand up to the bound


def _factorial(n: int) -> int:
    """``n!``, from the table below ``_FACTORIAL_TABLE_SIZE``, else computed
    (``math.factorial`` refuses a negative ``n``)."""
    if not 0 <= n < _FACTORIAL_TABLE_SIZE:
        return math.factorial(n)
    table = _FACTORIALS
    while len(table) <= n:
        table.append(table[-1] * len(table))
    return table[n]


def _log_term(nums, dens, weights) -> float:
    return math.fsum(
        [math.lgamma(n + 1) for n in nums]
        + [-math.lgamma(d + 1) for d in dens]
        + [math.log(float(w)) for w in weights]
    )


def _terms_of(family, a, b, m):
    """The terms of K(a, b, m), mass 1 included, whose K is c_0(a, b, 1)."""
    return family._terms(a, b, m) if m > 1 else [((), (), (family._c0[(a, b, 1)],))]


def _scaled_coefficient(family, key, p, q, a, b, m):
    """``(X, Y) = (S_num p^(m-1) q^(a+b), S_den (p+q)^(m-1+a+b))``, so that
    c_t(a, b, m) = X / (Y a! b!) at t = p/q (tau = p/(p+q), 1+t = (p+q)/q).
    S = a! b! K(a, b, m) = S_num/S_den is read from the family's cache under
    ``key``, or summed unnormalised over plain ints and, with a key, reduced
    and cached."""
    if key is not None and key in family._coefficients:
        num, den = family._coefficients[key]
    else:
        # Weights come first: a zero-weight term's factorial arguments may be
        # negative, and facts[-1] would read the largest one.
        num, den = 0, 1
        facts = _FACTORIALS
        for nums, dens, weights in _terms_of(family, a, b, m):
            n = d = 1
            for w in weights:
                wn, wd = w.as_integer_ratio()
                if not wn:
                    break
                n, d = n * wn, d * wd
            else:
                size = len(facts)
                for x in nums:
                    n *= facts[x] if 0 <= x < size else _factorial(x)
                for x in dens:
                    d *= facts[x] if 0 <= x < size else _factorial(x)
                num, den = num * d + n * den, den * d
        num *= _factorial(a) * _factorial(b)
        if key is not None:
            g = math.gcd(num, den)
            num, den = family._coefficients[key] = num // g, den // g
    return num * p ** (m - 1) * q ** (a + b), den * (p + q) ** (m - 1 + a + b)


def concentration(family, t, a: int, b: int, m: int):
    """Closed-form c_t(a, b, m) = K(a, b, m) tau^(m-1) (1+t)^-(a+b) of a family.

    A negative or non-finite time is refused: the float branch would take
    ``log(inf)`` and return NaN.
    """
    if a < 0 or b < 0 or m < 1:
        raise ValueError(f"invalid species ({a}, {b}, {m})")
    # t = p/q; the sign and zero of an exact t are read off p, with no Fraction compared
    exact_t = _is_exact(t)
    if not (exact_t or math.isfinite(t)):
        raise ValueError(f"time must be finite, got {t}")
    p, q = t.as_integer_ratio() if exact_t else (t, 1)
    if p < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if p == 0:
        return family._c0[(a, b, 1)] if m == 1 else 0
    if exact_t and family._exact:
        # X/Y = a! b! K times the time factors, shared by every species of
        # one key at one time; the entry is the one Fraction X / (Y a! b!).
        key = family._coefficient_key(a, b, m)
        if key is None:
            num, den = _scaled_coefficient(family, key, p, q, a, b, m)
        else:
            scaled = family._scaled
            try:
                at_t = scaled[p, q]
            except KeyError:  # a new time: drop the last one's entries
                scaled.clear()
                at_t = scaled[p, q] = {}
            try:
                num, den = at_t[key]
            except KeyError:  # kept reduced: the entries' gcds then run on shorter ints
                num, den = _scaled_coefficient(family, key, p, q, a, b, m)
                g = math.gcd(num, den)
                num, den = at_t[key] = num // g, den // g
        if not num:  # every term is positive, so no term was left
            return 0
        facts = _FACTORIALS
        size = len(facts)
        arms = (facts[a] if a < size else _factorial(a)) * (facts[b] if b < size else _factorial(b))
        return Fraction(num, den * arms)
    # log-sum-exp: single factorial ratios overflow long before the
    # time-weighted sum does.
    logs = [_log_term(*term) for term in _terms_of(family, a, b, m) if all(term[2])]
    if not logs:
        return 0
    shift = max(logs)
    t = float(t)
    return math.exp(
        shift
        + math.log(math.fsum(math.exp(lg - shift) for lg in logs))
        + (m - 1) * math.log(t)
        - (m - 1 + a + b) * math.log1p(t)
    )


def limiting_mass_concentration(family: TwoGender, m: int):
    """t -> infinity limit of c_t(0, 0, m) for the one-gender family (m >= 2)."""
    if m < 2:
        raise ValueError(f"needs m >= 2, got {m}")
    dia = diamond(*family._laws, m)
    if dia == 0:
        return 0
    return _quotient(dia, m - 1)


def live_types(family, m: int) -> list[tuple[int, int]]:
    """Arm pairs (a, b) with possibly nonzero concentration at mass ``m``.

    At mass 1 this is the initial support; above it, it is derived from the
    supports of the convolution powers in the family's coefficient, so the
    list is exact (types outside it have concentration identically 0).  The
    list is sorted; a mass below 1 is refused.  Each family instance keeps
    the pairs of each mass it listed, so a table at several times derives
    them once per mass; every call returns a fresh list.
    """
    if m < 1:
        raise ValueError(f"mass must be at least 1, got {m}")
    memo = family._live_types
    try:
        live = memo[m]
    except KeyError:
        live = [(p.a, p.b) for p in family._c0.support()] if m == 1 else family._live(m)
        live = memo[m] = tuple([memo.setdefault(pair, pair) for pair in live])
    return list(live)  # the caller's own list: the memo holds a tuple
