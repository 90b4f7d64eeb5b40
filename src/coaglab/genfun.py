"""Generating-function machinery for the two-gender coagulation system.

For an initial state ``c0`` the trivariate generating polynomial is

    g0(x, y, z) = sum c0(a, b, m) x^a y^b z^m.

The solution's generating function is obtained by inverting the explicit map

    phi_t(x, y, z) = ((1+t) x - t dg0/dy, (1+t) y - t dg0/dx)

through a fixed-point iteration (the map is a contraction before the critical
time) and composing:

    g_t(x, y, z) = g0(h_t, z) - t/(1+t) * dg0/dx(h_t, z) * dg0/dy(h_t, z).

The critical (gelation) time is determined by the initial moments

    alpha = <ab, c0>,  beta = <b^2 - b, c0>,  gamma = <a^2 - a, c0>,
    M = alpha + sqrt(beta * gamma),   T_c = 1 / (M - 1)  (infinite if M <= 1),

and the second factorial arm moments admit the closed forms

    <a^2 - a, c_t> = gamma / D(t),  <b^2 - b, c_t> = beta / D(t),
    D(t) = (1 + t - t*alpha)^2 - t^2 * gamma * beta,

valid strictly before the critical time.

All derivative evaluations are exact term-wise sums over the finite support;
no finite differences are used anywhere.  All entry points accept floats or
Fractions and preserve exactness where possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import ConcentrationState, ParticleType, as_particle_type, moment
from .measures import _PROBABILITY_TOL, _quotient

_SUBCRITICAL_MARGIN = 1e-6  # relative distance below T_c that an evaluation time must keep
_FIXED_POINT_TOL = 1e-12  # max-norm step at which a fixed-point iteration has converged
_FIXED_POINT_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge (typically t too close to T_c)."""


def _sqrt_exact_or_float(x):
    """Square root, exact for perfect-square rationals, float otherwise."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if x < 0:
            raise ValueError("negative argument")
        rn = math.isqrt(x.numerator)
        rd = math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
    return math.sqrt(x)


def _float_twin(terms):
    """``terms`` with float weights.  ``Fraction * float`` computes
    ``float(w) * float``, so evaluating the twin at floats gives the same bits
    without converting each weight on each evaluation.  A weight too large
    for a float is kept, so evaluating it raises ``OverflowError`` as the
    exact weight does."""
    twin = []
    for a, b, m, w in terms:
        try:
            w = float(w)
        except OverflowError:
            pass
        twin.append((a, b, m, w))
    return twin


@dataclass(frozen=True)
class CriticalData:
    """Initial second-moment data and the induced critical time."""

    alpha: "float | Fraction"
    beta: "float | Fraction"
    gamma: "float | Fraction"
    big_m: "float | Fraction"
    t_crit: "float | Fraction"


class InitialGF:
    """Generating polynomial of a normalized initial state and its derivatives.

    The state must have unit male and female arm moments (the standing
    normalization of the model); this is what makes the inversion map a
    contraction before the critical time and keeps all first partials in
    [0, 1] on the unit cube.
    """

    def __init__(self, c0: "ConcentrationState | dict"):
        if not isinstance(c0, ConcentrationState):
            c0 = ConcentrationState(dict(c0))
        self.c0 = c0
        terms = sorted(((p.a, p.b, p.m, w) for p, w in c0.items()))
        self._terms = terms
        am = moment(c0, lambda p: p.a)
        bm = moment(c0, lambda p: p.b)
        if abs(am - 1) > _PROBABILITY_TOL or abs(bm - 1) > _PROBABILITY_TOL:
            raise ValueError(
                f"initial state must have unit arm moments, got <a> = {am}, <b> = {bm}"
            )
        self.alpha = moment(c0, lambda p: p.a * p.b)
        self.beta = moment(c0, lambda p: p.b * (p.b - 1))
        self.gamma = moment(c0, lambda p: p.a * (p.a - 1))
        # Term lists for the partial derivatives, precomputed once.
        self._dx = [(a - 1, b, m, a * w) for a, b, m, w in terms if a >= 1]
        self._dy = [(a, b - 1, m, b * w) for a, b, m, w in terms if b >= 1]
        self._dz = [(a, b, m - 1, m * w) for a, b, m, w in terms]
        # Float twins, read when x, y and z are all floats.
        self._terms_float, self._dx_float, self._dy_float, self._dz_float = map(
            _float_twin, (terms, self._dx, self._dy, self._dz)
        )
        big_m = self.alpha + _sqrt_exact_or_float(self.beta * self.gamma)
        t_crit = math.inf if big_m <= 1 else _quotient(1, big_m - 1)
        self._critical = CriticalData(self.alpha, self.beta, self.gamma, big_m, t_crit)

    @staticmethod
    def _eval(terms, twin, x, y, z):
        if isinstance(x, float) and isinstance(y, float) and isinstance(z, float):
            # The loop below with the unit factors left out: a float times
            # x**0 == 1.0 is itself, and x**1 == x, so multiplying the other
            # factors in the same order gives the same bits.
            acc = 0
            for a, b, m, w in twin:
                if a:
                    w = w * (x if a == 1 else x**a)
                if b:
                    w = w * (y if b == 1 else y**b)
                if m:
                    w = w * (z if m == 1 else z**m)
                acc = acc + w
            return acc
        acc = 0
        for a, b, m, w in terms:
            acc = acc + w * (x**a) * (y**b) * (z**m)
        return acc

    def value(self, x, y, z):
        return self._eval(self._terms, self._terms_float, x, y, z)

    def dx(self, x, y, z):
        return self._eval(self._dx, self._dx_float, x, y, z)

    def dy(self, x, y, z):
        return self._eval(self._dy, self._dy_float, x, y, z)

    def dz(self, x, y, z):
        return self._eval(self._dz, self._dz_float, x, y, z)

    def critical_data(self) -> CriticalData:
        return self._critical

    def _check_subcritical(self, t):
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        t_crit = self._critical.t_crit
        if t_crit != math.inf and t > t_crit * (1 - _SUBCRITICAL_MARGIN):
            raise ValueError(
                f"t = {t} is not strictly below the critical time T_c = {t_crit} "
                f"(margin {_SUBCRITICAL_MARGIN})"
            )

    def phi(self, t, x, y, z):
        """Characteristic map ((1+t)x - t dg0/dy, (1+t)y - t dg0/dx)."""
        return (
            (1 + t) * x - t * self.dy(x, y, z),
            (1 + t) * y - t * self.dx(x, y, z),
        )

    def _fixed_point(self, cu, cv, fac, start, z, history=None):
        """Iterate ``(x, y) <- (cu + fac dg0/dy, cv + fac dg0/dx)`` at ``z`` from
        ``start`` until the max-norm step is below ``_FIXED_POINT_TOL``; None if
        ``_FIXED_POINT_MAX_ITER`` steps do not get there.  Each step's max-norm
        is appended to ``history`` if that is a list."""
        x, y = start
        for _ in range(_FIXED_POINT_MAX_ITER):
            x1 = cu + fac * self.dy(x, y, z)
            y1 = cv + fac * self.dx(x, y, z)
            delta = max(abs(x1 - x), abs(y1 - y))
            if history is not None:
                history.append(delta)
            x, y = x1, y1
            if delta < _FIXED_POINT_TOL:
                return (x, y)
        return None

    def invert_phi(self, t, u, v, z, history: "list | None" = None):
        """Right inverse ``h_t(u, v, z)`` of the characteristic map.

        Solves ``phi_t(x, y, z) = (u, v)`` by iterating

            (x, y) <- (u/(1+t) + t/(1+t) dg0/dy(x, y, z),
                       v/(1+t) + t/(1+t) dg0/dx(x, y, z))

        from ``(u, v)``.  Before the critical time this self-map of the unit
        square is a contraction, so the iteration converges geometrically; the
        result is verified by a round trip through ``phi`` to within
        ``10 * _FIXED_POINT_TOL``.  If ``history`` is a list, the successive
        max-norm iterate differences are appended to it.
        """
        self._check_subcritical(t)
        if t == 0:
            return (u, v)
        cu, cv, fac = u / (1 + t), v / (1 + t), t / (1 + t)
        xy = self._fixed_point(cu, cv, fac, (u, v), z, history)
        if xy is None:
            raise ConvergenceError(
                f"fixed-point inversion did not converge in {_FIXED_POINT_MAX_ITER} "
                f"iterations at t = {t} (t may be too close to the critical time)"
            )
        x, y = xy
        pu, pv = self.phi(t, x, y, z)
        if max(abs(pu - u), abs(pv - v)) > 10 * _FIXED_POINT_TOL:
            raise ConvergenceError(
                f"round-trip check failed at t = {t}: residual "
                f"{max(abs(pu - u), abs(pv - v)):.3e} > {10 * _FIXED_POINT_TOL:.1e}"
            )
        return (x, y)

    def eval_g(self, t, x, y, z):
        """Scalar value of the solution's generating function at ``(x, y, z)``:

            g_t = g0(h_t, z) - t/(1+t) * dg0/dx(h_t, z) * dg0/dy(h_t, z).
        """
        if t == 0:
            return self.value(x, y, z)
        hx, hy = self.invert_phi(t, x, y, z)
        return self.value(hx, hy, z) - (t / (1 + t)) * self.dx(hx, hy, z) * self.dy(hx, hy, z)

    def second_moments(self, t):
        """Closed-form ``(<a^2 - a, c_t>, <b^2 - b, c_t>)``, valid for t < T_c."""
        self._check_subcritical(t)
        d = (1 + t - t * self.alpha) ** 2 - t * t * self.gamma * self.beta
        if d <= 0:
            raise ValueError(
                f"second-moment denominator is nonpositive at t = {t}; "
                "the subcritical precondition is numerically breached"
            )
        return (self.gamma / d, self.beta / d)
