"""Finite measures on integers and truncated power series.

Everything here is finite-support numeric arithmetic: convolution powers of
1-D measures, the combinatorial diamond product, the size-biased reproduction
laws derived from a 2-D arm measure, and a fixed-order truncated power series
used by the limiting-state machinery.  Exact :class:`fractions.Fraction`
arithmetic is used whenever the inputs are exact; float inputs fall back to
floating point with correctly rounded (``math.fsum``) summation.  One
product kernel, ``_products``, serves both :func:`convolve` and
:class:`TruncatedSeries` products, and the online series pass
``limits._online_fixed_point`` sums each coefficient by its cell rule, so
the ``fsum`` rule covers all three.  ``_products`` writes exact inputs as
integers over one common denominator, multiplies and adds plain ints, and
builds one Fraction per output cell, so no gcd is taken per product or per
sum.  Outside this rule, ``core.moment`` and ``genfun.InitialGF``
evaluations sum floats left to right: ``moment`` normalises every float
state, so changing it would move the output of every float-config run.

Infinite-support laws (e.g. Poisson) must be supplied pre-truncated by the
caller; nothing here truncates silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

Scalar = "float | Fraction | int"
_PROBABILITY_TOL = 1e-9  # tolerance on a total or a mean that must equal 1


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _quotient(x, d):
    """``x / d``, a Fraction when both are exact, a float otherwise."""
    return Fraction(x) / d if _is_exact(x) and _is_exact(d) else x / d


def _sum(values):
    """Exact inputs are summed exactly; floats with ``math.fsum``, correctly rounded."""
    vals = list(values)
    return sum(vals) if all(_is_exact(v) for v in vals) else math.fsum(vals)


def _over_common_denominator(values):
    """Exact ``values`` as integers over one common denominator.

    Returns ``(numerators, d, fraction)`` with ``values[i] == numerators[i] / d``
    and ``d`` the least common denominator.  ``fraction`` tells whether the
    values are all Fractions or all ints (then ``d`` is 1), so that a kernel
    returns the type its generic loop would.  Returns None for any other mix,
    floats or ints beside Fractions, which keeps the generic loop.
    """
    if all(type(v) is int for v in values):
        return list(values), 1, False
    if not all(type(v) is Fraction for v in values):
        return None
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d, True


@dataclass(frozen=True)
class _Measure:
    """Finite measure stored as sorted (point, weight) pairs.  A subclass
    says what a point is: its ``_point`` validates and normalises one key."""

    weights: tuple[tuple[object, "Scalar"], ...]

    @classmethod
    def from_dict(cls, d: Mapping):
        items = []
        for key, w in d.items():
            key = cls._point(key)
            if w < 0:
                raise ValueError(f"weights must be nonnegative, got {w} at {key}")
            if w != 0:
                items.append((key, w))
        return cls(tuple(sorted(items)))

    @cached_property
    def _index(self) -> dict:
        # in the instance dict, not a field: ==, hash and repr do not see it
        return dict(self.weights)

    def total(self):
        return _sum(w for _, w in self.weights)

    def is_exact(self) -> bool:
        return all(_is_exact(w) for _, w in self.weights)

    def is_probability(self) -> bool:
        return abs(self.total() - 1) <= _PROBABILITY_TOL


@dataclass(frozen=True)
class Measure1D(_Measure):
    """Finite measure on nonnegative integers, stored as sorted (j, weight) pairs."""

    # Convolution powers k >= 2 of this measure, filled by convolution_power.
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def _point(j) -> int:
        j = int(j)
        if j < 0:
            raise ValueError(f"support must be nonnegative integers, got {j}")
        return j

    @staticmethod
    def delta(j: int) -> "Measure1D":
        return Measure1D.from_dict({j: 1})

    def __call__(self, j: int):
        return self._index.get(j, 0)

    def mean(self):
        return _sum(j * w for j, w in self.weights)

    def scaled(self, factor: "Scalar") -> "Measure1D":
        return Measure1D(tuple((j, factor * w) for j, w in self.weights))


def _products(xs, ys, n: int) -> dict:
    """Cells through ``z^n`` of the product of the sparse series ``xs`` and
    ``ys`` (lists of ``(power, weight)`` sorted by power), as ``{power: value}``
    over every power that received a product, cancelled ones included.

    Exact weights run on integers over one common denominator, with one
    Fraction built per cell when a Fraction is among them (ints stay ints).
    Any other mix is summed per cell with ``_sum``: exactly for exact
    products, with ``math.fsum`` as soon as a float is among them.
    """
    ex = _over_common_denominator([w for _, w in xs])
    ey = _over_common_denominator([w for _, w in ys])
    exact = ex is not None and ey is not None
    if exact:
        xs = [(i, c) for (i, _), c in zip(xs, ex[0])]
        ys = [(j, c) for (j, _), c in zip(ys, ey[0])]
    cells = [[] for _ in range(n + 1)]
    for i, x in xs:
        for j, y in ys:
            if j > n - i:
                break
            cells[i + j].append(x * y)
    if not exact:
        return {k: _sum(ps) for k, ps in enumerate(cells) if ps}
    if ex[2] or ey[2]:
        d = ex[1] * ey[1]
        return {k: Fraction(sum(ps), d) for k, ps in enumerate(cells) if ps}
    return {k: sum(ps) for k, ps in enumerate(cells) if ps}


def convolve(x: Measure1D, y: Measure1D) -> Measure1D:
    n = x.weights[-1][0] + y.weights[-1][0] if x.weights and y.weights else 0
    return Measure1D(tuple(_products(x.weights, y.weights, n).items()))


def _power(nu: Measure1D, k: int) -> Measure1D:
    if k < 2:
        return nu if k else Measure1D.delta(0)
    powers = nu._powers
    if k not in powers:
        half = _power(nu, k // 2)
        sq = convolve(half, half)
        powers[k] = convolve(sq, nu) if k % 2 else sq
    return powers[k]


def convolution_power(nu: Measure1D, k: int) -> Measure1D:
    """k-fold convolution ``nu^{*k}``; the empty convolution is a unit mass at 0."""
    if k < 0:
        raise ValueError(f"convolution power requires k >= 0, got {k}")
    return _power(nu, k)


def diamond(nu1: Measure1D, nu2: Measure1D, m: int):
    """Diamond product evaluated at integer ``m >= 2``:

        (m - 1) * sum_{k=1}^{m-1} (1/k) nu1^{*(m-k)}(k-1) * (1/(m-k)) nu2^{*k}(m-k-1)

    This is the limiting mass law of the one-gender-per-particle family (up to
    the ``1/(m-1)`` factor) and the total-progeny law of the associated
    two-type branching tree.
    """
    if m < 2:
        raise ValueError(f"diamond product is defined for m >= 2, got {m}")
    terms = []
    for k in range(1, m):
        v1 = convolution_power(nu1, m - k)(k - 1)
        if v1 == 0:
            continue
        v2 = convolution_power(nu2, k)(m - k - 1)
        if v2 == 0:
            continue
        terms.append(_quotient(v1 * v2, k * (m - k)))
    return (m - 1) * _sum(terms) if terms else 0


class Measure2D(_Measure):
    """Finite measure on pairs of nonnegative integers (arm-count measures),
    stored as sorted ((a, b), weight) pairs."""

    @staticmethod
    def _point(ab) -> tuple[int, int]:
        a, b = map(int, ab)
        if a < 0 or b < 0:
            raise ValueError(f"support must be nonnegative pairs, got ({a}, {b})")
        return a, b

    @staticmethod
    def delta(a: int, b: int) -> "Measure2D":
        return Measure2D.from_dict({(a, b): 1})

    def __call__(self, a: int, b: int):
        return self._index.get((a, b), 0)

    def mean_a(self):
        return _sum(ab[0] * w for ab, w in self.weights)

    def mean_b(self):
        return _sum(ab[1] * w for ab, w in self.weights)


def size_biased_laws(mu: Measure2D) -> tuple[Measure2D, Measure2D]:
    """Reproduction laws derived from an arm measure with unit arm means.

    ``nu_m(a, b) = (b + 1) mu(a, b + 1)`` (offspring law of a male individual)
    and ``nu_f(a, b) = (a + 1) mu(a + 1, b)``.  Under ``<a, mu> = <b, mu> = 1``
    both are probability measures.
    """
    ma, mb = mu.mean_a(), mu.mean_b()
    if abs(ma - 1) > _PROBABILITY_TOL or abs(mb - 1) > _PROBABILITY_TOL:
        raise ValueError(f"size-biased laws need unit arm means, got <a> = {ma}, <b> = {mb}")
    nu_m: dict[tuple[int, int], Scalar] = {}
    nu_f: dict[tuple[int, int], Scalar] = {}
    for (a, b), w in mu.weights:
        if b >= 1:
            nu_m[(a, b - 1)] = nu_m.get((a, b - 1), 0) + b * w
        if a >= 1:
            nu_f[(a - 1, b)] = nu_f.get((a - 1, b), 0) + a * w
    return Measure2D.from_dict(nu_m), Measure2D.from_dict(nu_f)


@dataclass(frozen=True)
class TruncatedSeries:
    """Univariate power series truncated at a fixed order.

    ``coeffs[k]`` is the coefficient of ``z^k``; all arithmetic is exact
    through the common order.  Binary operations require equal orders so that
    truncation is always explicit at construction time.
    """

    coeffs: tuple["Scalar", ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: "Scalar", order: int) -> "TruncatedSeries":
        return TruncatedSeries((value,) + (0,) * order)

    @staticmethod
    def identity(order: int) -> "TruncatedSeries":
        """The series ``z``."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return TruncatedSeries((0, 1) + (0,) * (order - 1))

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return TruncatedSeries(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))
        return TruncatedSeries((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(tuple(other * x for x in self.coeffs))
        self._check(other)
        n = self.order
        xs = [(i, x) for i, x in enumerate(self.coeffs) if x != 0]
        ys = [(j, y) for j, y in enumerate(other.coeffs) if y != 0]
        cells = _products(xs, ys, n)
        return TruncatedSeries(tuple(cells.get(k, 0) for k in range(n + 1)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = TruncatedSeries.constant(1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def antiderivative(self) -> "TruncatedSeries":
        """Antiderivative vanishing at 0, truncated back to the same order
        (the top input coefficient is discarded).  An int 0, a cell that
        received no product, stays int 0."""
        out = [0]
        for k, c in enumerate(self.coeffs[:-1]):
            out.append(0 if type(c) is int and c == 0 else _quotient(c, k + 1))
        return TruncatedSeries(tuple(out))
