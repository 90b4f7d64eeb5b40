"""Limiting state (t -> infinity) and the two-type branching-process picture.

When the critical time is infinite, all arms are eventually consumed and the
concentrations converge to armless limits ``c_inf(m)``.  The limit is encoded
by the fixed point

    h1(z) = dg0/dy(h1(z), h2(z), z),   h2(z) = dg0/dx(h1(z), h2(z), z),

and the limiting generating function is the antiderivative vanishing at 0 of
``dg0/dz(h1(z), h2(z), z)``; ``c_inf(m)`` is its m-th coefficient.

For monodisperse initial data with arm measure ``mu`` the same fixed point is
solved by the total-progeny generating functions of a two-type Galton-Watson
tree whose reproduction laws are the size-biased measures

    nu_m(a, b) = (b + 1) mu(a, b + 1),   nu_f(a, b) = (a + 1) mu(a + 1, b),

and, starting from one male plus one female ancestor,

    P(total progeny = m) = (m - 1) c_inf(m)   for m >= 2.

The total-progeny law is provided both as an exact series computation and as
a direct tree simulation (with censoring at a population cap, so supercritical
or degenerate inputs degrade gracefully rather than hanging).  Both series
fixed points, ``(h1, h2)`` and the progeny generating functions, are solved
by one online pass: every term carries a factor z (or r), so coefficient k
follows from the coefficients below k, and order n costs O(n^2) coefficient
products per power of the unknowns rather than a sweep per coefficient.
The same pass reads off the series that are wanted of the fixed point, as
readouts from the powers ``x^a y^b`` it builds: ``dg0/dz(h1, h2, z)``, whose
antiderivative is the limiting generating function, and the product
``g_m g_f`` of the progeny generating functions.  No series product is
taken after the pass.
Each coefficient follows the cell rule of ``measures._products``: the sum of
its products, exact while they are exact and ``math.fsum`` once a float is
among them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import inf

import numpy as np

from .core import ConcentrationState
from .genfun import ConvergenceError, InitialGF
from .measures import Measure2D, TruncatedSeries, _over_common_denominator, _sum, size_biased_laws
from .particles import _block_stream


@dataclass(frozen=True)
class LimitState:
    """Limiting concentrations and their generating data through ``max_mass``."""

    h1: TruncatedSeries
    h2: TruncatedSeries
    g: TruncatedSeries
    c_inf: dict[int, "float | Fraction"]
    total_concentration: "float | Fraction"  # sum of c_inf through max_mass
    total_mass: "float | Fraction"  # sum of m * c_inf through max_mass


@dataclass(frozen=True)
class GWConfig:
    nu_m: Measure2D
    nu_f: Measure2D
    population_cap: int = 10**6
    replicates: int = 10**5
    seed: int = 0

    def __post_init__(self):
        _require_probability_laws(self.nu_m, self.nu_f)
        if self.population_cap < 2 or self.replicates < 1:
            raise ValueError("population_cap must be >= 2 and replicates >= 1")


@dataclass(frozen=True)
class GWSample:
    """Empirical total-progeny distribution with censoring bookkeeping."""

    counts: dict[int, int]
    replicates: int
    censored: int
    nodes: int  # nodes of every tree, censored ones counted to where they stopped

    @property
    def censored_fraction(self) -> float:
        return self.censored / self.replicates

    def pmf(self, m: int) -> float:
        return self.counts.get(m, 0) / self.replicates


def initial_arm_measure(c0: ConcentrationState) -> Measure2D:
    """Arm-count measure of a monodisperse state (all mass-1 particles)."""
    weights = {}
    for p, w in c0.items():
        if p.m != 1:
            raise ValueError(f"state is not monodisperse: contains mass-{p.m} species")
        weights[(p.a, p.b)] = w
    return Measure2D.from_dict(weights)


def degeneracy_reasons(mu: Measure2D) -> list[str]:
    """Arm measures whose limiting branching tree is not almost-surely finite.

    The list: a unit atom at (1, 1); half atoms at (2, 0) and (0, 2); all
    support on a = 1; all support on b = 1.  Empty means nondegenerate.
    """
    support = {ab for ab, _ in mu.weights}
    reasons = []
    if support == {(1, 1)}:
        reasons.append("single atom at (1,1): alternating chains never terminate")
    if support == {(2, 0), (0, 2)}:
        reasons.append("atoms at (2,0) and (0,2): two-arm chains never terminate")
    if support and all(a == 1 for a, _ in support):
        reasons.append("all particles have exactly one male arm")
    if support and all(b == 1 for _, b in support):
        reasons.append("all particles have exactly one female arm")
    return reasons


def _require_no_gelation(gf: InitialGF) -> None:
    data = gf.critical_data()
    if data.t_crit != inf:
        raise ValueError(
            f"limiting state requires an infinite critical time, but T_c = {data.t_crit}"
        )


def h_infinity(gf: InitialGF, z: float):
    """Numeric fixed point (h1, h2) at a scalar z in [0, 1); needs T_c = inf.

    Solved by ``InitialGF._fixed_point`` from (0, 0): Newton steps, each
    replaced by the plain iteration ``(h1, h2) <- (dg0/dy, dg0/dx)`` when it
    does not shrink the residual."""
    _require_no_gelation(gf)
    if not (0 <= z < 1):
        raise ValueError(f"z must lie in [0, 1), got {z}")
    xy = gf._fixed_point(0.0, 0.0, 1.0, z)
    if xy is None:
        raise ConvergenceError(f"limit fixed point did not converge at z = {z}")
    return xy


def _require_probability_laws(nu_m: Measure2D, nu_f: Measure2D) -> None:
    for name, nu in (("nu_m", nu_m), ("nu_f", nu_f)):
        if not nu.is_probability():
            raise ValueError(f"{name} must be a probability measure, total = {nu.total()}")


def _online_fixed_point(x_terms, y_terms, order: int, readouts=()):
    """Series fixed point ``x = sum w x^a y^b z^m`` over ``x_terms`` and
    ``y = sum w x^a y^b z^m`` over ``y_terms`` (terms ``(a, b, m, w)``, all
    with m >= 1), truncated at ``order``, in one online pass.  Returns x, y
    and, for each term list in ``readouts`` (there m >= 0), the series
    ``sum w x^a y^b z^m`` over it.

    Because m >= 1, coefficient k of x and y reads the powers ``x^a y^b``
    only through coefficient k - 1.  So step k first extends every power by
    its coefficient k - 1, reads coefficient k - 1 of every readout off
    them, then sets x[k] and y[k]; nothing is recomputed.  Each power of
    degree 2 or more is the power before it in a chain times x or y, and
    costs one convolution; degrees 0 and 1 are 1, x and y themselves.  The
    pass costs O(P n^2) for P such powers, readouts included.

    Each coefficient is the sum of its list of products, exact while they
    are exact and ``math.fsum`` once a float is among them.  Exact weights
    over a common denominator D run the pass on integers: coefficient k of
    x, y and every power is scaled by D^k, an integer because a term of
    z-degree k holds at most k weights, so a term with z^m carries its
    weight's numerator times D^(m-1).  Coefficient k of a readout is scaled
    by D^(k+1), so a readout term with z^m carries its numerator times D^m,
    an integer for m = 0 too.  A coefficient that received products, even
    ones that cancel, is returned as a Fraction over that scale when a
    weight is a Fraction; one that received none stays int 0.  The
    denominator is common to every weight, readouts included, and weights
    of mixed types (an int beside Fractions) keep the generic sum.
    """
    n = order + 1
    weights = [w for terms in (x_terms, y_terms, *readouts) for *_, w in terms]
    exact = _over_common_denominator(weights)
    add, d, fraction = _sum, 1, False
    if exact is not None:
        nums, d, fraction = exact
        add = sum
        nums = iter(nums)
        x_terms = [(a, b, m, next(nums) * d ** (m - 1)) for a, b, m, _ in x_terms]
        y_terms = [(a, b, m, next(nums) * d ** (m - 1)) for a, b, m, _ in y_terms]
        readouts = [[(a, b, m, next(nums) * d**m) for a, b, m, _ in terms] for terms in readouts]
    x, y = [0] * n, [0] * n
    powers = {(0, 0): [1] + [0] * order, (1, 0): x, (0, 1): y}
    chain = []  # (power, previous power, x or y), each after its previous power

    def power(a, b):
        if (a, b) not in powers:
            prev, factor = ((a, b - 1), y) if b else ((a - 1, 0), x)
            power(*prev)
            powers[(a, b)] = [0] * n
            chain.append((powers[(a, b)], powers[prev], factor))
        return powers[(a, b)]

    def coefficient(terms, k):
        """Coefficient k of ``sum w p z^m`` over ``terms``, None if it received no product."""
        products = [w * p[k - m] for p, m, w in terms if m <= k and p[k - m]]
        return add(products) if products else None

    x_terms = [(power(a, b), m, w) for a, b, m, w in x_terms]
    y_terms = [(power(a, b), m, w) for a, b, m, w in y_terms]
    readouts = [[(power(a, b), m, w) for a, b, m, w in terms] for terms in readouts]
    cell = Fraction if fraction else lambda c, _: c  # a received coefficient, from its scaled value
    hx, hy = [0] * n, [0] * n
    read = [[0] * n for _ in readouts]
    for k in range(1, n + 1):
        for p, q, s in chain:
            p[k - 1] = add([q[i] * s[k - 1 - i] for i in range(k) if q[i] and s[k - 1 - i]])
        for r, terms in zip(read, readouts):
            c = coefficient(terms, k - 1)
            if c is not None:
                r[k - 1] = cell(c, d**k)
        if k == n:
            break
        for out, h, terms in ((x, hx, x_terms), (y, hy, y_terms)):
            c = coefficient(terms, k)
            if c is not None:
                out[k] = c
                h[k] = cell(c, d**k)
    return tuple(TruncatedSeries(tuple(c)) for c in (hx, hy, *read))


def limiting_concentrations(c0: "ConcentrationState | dict", max_mass: int) -> LimitState:
    """Limiting concentrations ``c_inf(m)`` for ``m <= max_mass`` (T_c = inf).

    Exact when the initial concentrations are rational.
    """
    gf = InitialGF(c0)
    _require_no_gelation(gf)
    if max_mass < 1:
        raise ValueError(f"max_mass must be >= 1, got {max_mass}")
    # every x and y term carries z^m, m >= 1; the readout is dg0/dz(h1, h2, z)
    h1, h2, dg = _online_fixed_point(gf._dy, gf._dx, max_mass, [gf._dz])
    g = dg.antiderivative()
    c_inf = {m: g[m] for m in range(1, max_mass + 1)}
    total_c = _sum(c_inf.values())
    total_m = _sum(m * v for m, v in c_inf.items())
    return LimitState(h1=h1, h2=h2, g=g, c_inf=c_inf, total_concentration=total_c, total_mass=total_m)


def gw_progeny_pmf_series(nu_m: Measure2D, nu_f: Measure2D, max_total: int) -> list:
    """Exact total-progeny law through ``max_total`` via generating functions.

    Solves ``g_m(r) = r phi_m(g_m, g_f)`` and ``g_f(r) = r phi_f(g_m, g_f)``
    as truncated series (``phi_m``, ``phi_f`` are the reproduction-law
    generating functions) and returns the coefficients of ``g_m * g_f``, read
    off the same pass, whose r^m coefficient is P(total progeny = m) from one
    male and one female ancestor.  Index k of the returned list is P(T = k);
    entries 0 and 1 are 0.
    """
    _require_probability_laws(nu_m, nu_f)
    if max_total < 1:
        raise ValueError(f"max_total must be >= 1, got {max_total}")
    # the readout's weight 1 takes the type of the laws' weights: an int 1
    # beside Fractions would send the pass to the generic sum
    one = type(nu_m.weights[0][1])(1)
    _, _, progeny = _online_fixed_point(
        [(a, b, 1, w) for (a, b), w in nu_m.weights],
        [(a, b, 1, w) for (a, b), w in nu_f.weights],
        max_total,
        [[(1, 1, 0, one)]],
    )
    return list(progeny.coeffs)


def _inverse_cdf(nu: Measure2D) -> tuple[list, list[float]]:
    """The atoms of a 2-D probability measure and its cumulative weights, the
    last set to exactly 1; atom ``bisect_right(cum, u)`` has law ``nu`` for u
    uniform in [0, 1)."""
    cum = np.cumsum([float(w) for _, w in nu.weights])
    cum[-1] = 1.0
    return [ab for ab, _ in nu.weights], cum.tolist()


def gw_sample_total_progeny(cfg: GWConfig) -> GWSample:
    """Simulate the two-type tree from one male plus one female ancestor.

    Breadth-order processing with population counters only (tree topology is
    never materialized): a pending male is expanded first, else a pending
    female, each by one uniform.  A tree is censored once its total passes
    ``population_cap`` with nodes still pending.  One generator seeded by
    ``cfg.seed`` serves uniforms in fixed-size blocks, and replicates consume
    them in order, so the result depends only on the seed (no execution
    schedule enters).
    """
    atoms_m, cum_m = _inverse_cdf(cfg.nu_m)
    atoms_f, cum_f = _inverse_cdf(cfg.nu_f)
    uniform = _block_stream(np.random.default_rng(cfg.seed).random).__next__
    bisect_right, cap = bisect.bisect_right, cfg.population_cap
    counts: dict[int, int] = {}
    censored = nodes = 0
    for _ in range(cfg.replicates):
        pending_m = pending_f = 1
        total = 2
        while (pending_m or pending_f) and total <= cap:
            if pending_m:
                pending_m -= 1
                a, b = atoms_m[bisect_right(cum_m, uniform())]
            else:
                pending_f -= 1
                a, b = atoms_f[bisect_right(cum_f, uniform())]
            pending_m += a
            pending_f += b
            total += a + b
        nodes += total
        if pending_m or pending_f:
            censored += 1
        else:
            counts[total] = counts.get(total, 0) + 1
    return GWSample(counts=counts, replicates=cfg.replicates, censored=censored, nodes=nodes)
