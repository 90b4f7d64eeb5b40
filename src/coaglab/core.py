"""Particle-type algebra for coagulation with two-gender arms.

A particle species is a triple ``(a, b, m)``: ``a`` male arms, ``b`` female
arms, and an integer mass ``m >= 1``.  A coagulation binds one male arm of one
particle to one female arm of another, so a pair of species interacts at rate
``a'b + ab'`` (the number of mixed arm pairings) and the product keeps all
remaining arms: ``(a + a' - 1, b + b' - 1, m + m')``.

Concentrations are finite-support maps from species to nonnegative numbers.
Weights may be floats or :class:`fractions.Fraction`; all operations here
preserve exact arithmetic when fed exact inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .measures import _quotient


class ParticleType(NamedTuple):
    """Species label: male arms, female arms, integer mass."""

    a: int
    b: int
    m: int


TypeLike = "ParticleType | tuple[int, int, int]"


def as_particle_type(p: TypeLike) -> ParticleType:
    """Coerce a 3-tuple to a validated :class:`ParticleType`."""
    a, b, m = p
    a, b, m = int(a), int(b), int(m)
    if a < 0 or b < 0:
        raise ValueError(f"arm counts must be nonnegative, got ({a}, {b})")
    if m < 1:
        raise ValueError(f"mass must be a positive integer, got {m}")
    return ParticleType(a, b, m)


def coagulation_rate(p: TypeLike, q: TypeLike):
    """Pairwise coagulation rate ``a'b + ab'``; symmetric, and 0 when no
    mixed (male, female) arm pairing exists."""
    return q[0] * p[1] + p[0] * q[1]


def merge(p: TypeLike, q: TypeLike) -> ParticleType:
    """Species produced by coagulating ``p`` with ``q``.

    One male and one female arm are consumed; mass is additive.  Pairs with
    zero rate cannot physically coagulate and are rejected.
    """
    if coagulation_rate(p, q) <= 0:
        raise ValueError(f"cannot merge {tuple(p)} with {tuple(q)}: coagulation rate is 0")
    return ParticleType(p[0] + q[0] - 1, p[1] + q[1] - 1, p[2] + q[2])


def decompositions(p: TypeLike) -> list[tuple[ParticleType, ParticleType]]:
    """All ordered splittings ``(q, r)`` of ``p`` with ``merge(q, r) == p``.

    Enumerates ``q = (a', b', m')`` over ``a' <= a + 1``, ``b' <= b + 1``,
    ``1 <= m' <= m - 1`` with complement ``r = (a + 1 - a', b + 1 - b',
    m - m')``.  Only splittings with ``coagulation_rate(q, r) > 0`` are
    returned, since the others contribute nothing to the gain term of the
    kinetic equations.  Mass-1 species admit no splitting.
    """
    a, b, m = as_particle_type(p)
    out: list[tuple[ParticleType, ParticleType]] = []
    for mq in range(1, m):
        for aq in range(a + 2):
            for bq in range(b + 2):
                q = ParticleType(aq, bq, mq)
                r = ParticleType(a + 1 - aq, b + 1 - bq, m - mq)
                if coagulation_rate(q, r) > 0:
                    out.append((q, r))
    return out


@dataclass
class ConcentrationState:
    """Finite-support concentration profile at one instant.

    ``entries`` maps species to nonnegative concentrations (particles per unit
    volume); absent species have concentration 0.  Exact zero weights are
    dropped on construction.
    """

    entries: dict[ParticleType, float | Fraction] = field(default_factory=dict)
    time: float = 0.0

    def __post_init__(self) -> None:
        clean: dict[ParticleType, float | Fraction] = {}
        for p, w in self.entries.items():
            if w < 0:
                raise ValueError(f"negative concentration {w} for species {tuple(p)}")
            if w == 0:
                continue
            clean[as_particle_type(p)] = w
        self.entries = clean
        if self.time < 0:
            raise ValueError(f"time must be nonnegative, got {self.time}")

    @classmethod
    def _trusted(cls, entries: dict, time: float) -> "ConcentrationState":
        """A state over ``ParticleType`` keys with positive weights, built
        without validating them again; for callers that made them valid."""
        state = cls.__new__(cls)
        state.entries, state.time = entries, time
        return state

    def __getitem__(self, p: TypeLike):
        return self.entries.get(as_particle_type(p), 0)

    def __contains__(self, p: TypeLike) -> bool:
        return as_particle_type(p) in self.entries

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return self.entries.items()

    def support(self) -> list[ParticleType]:
        return sorted(self.entries, key=lambda p: (p.m, p.a, p.b))


def moment(c: ConcentrationState, f: Callable[[ParticleType], float]):
    """Weighted sum ``sum_p c(p) f(p)`` over the finite support of ``c``.

    Linear in both arguments; returns 0 for an empty state.  Exactness is
    preserved when the weights and ``f`` values are rational.
    """
    total = 0
    for p, w in c.items():
        total += w * f(p)
    return total


_BALANCE_TOL = 1e-12  # relative gap allowed between the male and female arm moments


def validate_and_normalize(c0: ConcentrationState) -> tuple[ConcentrationState, float | Fraction]:
    """Rescale ``c0`` so both mean arm counts equal 1.

    Requires the male and female arm moments to be positive and finite and
    to agree to within ``_BALANCE_TOL`` (relative).  Returns
    ``(scaled_state, lam)`` with ``lam = 1 / <a, c0>``; the scaled state is
    ``lam * c0``.

    Rescaling concentrations reparametrizes time: if ``c_t`` solves the
    kinetic system from ``c0``, then ``lam * c_(lam * t)`` solves it from
    ``lam * c0`` (direct substitution into the bilinear gain and linear loss
    terms), so results for the normalized state at time ``t`` correspond to
    the original state at time ``t / lam``.
    """
    am = moment(c0, lambda p: p.a)
    bm = moment(c0, lambda p: p.b)
    if not (0 < am < math.inf and 0 < bm < math.inf):  # a float sum past the float range is inf
        raise ValueError(f"both arm moments must be positive and finite: <a> = {am}, <b> = {bm}")
    if abs(am - bm) > _BALANCE_TOL * max(am, bm):
        raise ValueError(
            f"unbalanced arms: male moment <a> = {am} differs from female moment <b> = {bm}"
        )
    lam = _quotient(1, am)
    scaled = ConcentrationState({p: lam * w for p, w in c0.items()}, c0.time)
    return scaled, lam
