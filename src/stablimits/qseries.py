"""Truncated q-series with rational exponents and the odd theta function.

The expansion engine is exact: q-exponents are Fractions, coefficients are
Characters, and a series carries the order below which its coefficients are
complete.  A theta factor expands by the Jacobi triple product, a sum over
n in Z times the partition numbers.  The q->0 behavior of a theta factor is
also available in closed form (valuation, sign, monomial, optional
binomial), which is what the limit law consumes; the series engine doubles
as an independent check.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .chars import (
    Character,
    ExponentError,
    Monomial,
    NumericContext,
    ONE,
    Rat,
    RationalExpr,
    one_minus_power,
    rat_from_str,
    rat_to_str,
)


class LimitUndefined(ArithmeticError):
    """The requested q->0 limit does not exist (pole or degenerate factor)."""


class NonConvergence(ArithmeticError):
    """Numeric theta evaluation outside the convergence disc."""


@dataclass(frozen=True)
class ThetaArgument:
    """The argument monomial * q**qshift of one theta factor."""

    monomial: Monomial
    qshift: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.qshift, Fraction):
            object.__setattr__(self, "qshift", Fraction(self.qshift))

    def shifted(self, weight: Mapping[str, Rat]) -> "ThetaArgument":
        """Shift equivariant parameters a -> a q^w: the q-shift grows by <exp, w>."""
        return ThetaArgument(self.monomial, self.qshift + self.monomial.pairing(weight))

    def to_json(self) -> dict:
        return {"exp": self.monomial.to_json(), "qshift": rat_to_str(self.qshift)}

    @classmethod
    def from_json(cls, data: Mapping) -> "ThetaArgument":
        return cls(Monomial.from_json(data["exp"]), rat_from_str(data.get("qshift", 0)))


class QSeries:
    """Sparse q-series: coefficients complete for exponents < order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Mapping[Fraction, Character], order: Rat):
        self.order = Fraction(order)
        self.coeffs: dict[Fraction, Character] = {
            Fraction(e): c for e, c in coeffs.items() if not c.is_zero and Fraction(e) < self.order
        }

    @classmethod
    def zero(cls, order: Rat) -> "QSeries":
        return cls({}, order)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> Fraction | None:
        """Smallest exponent with nonzero coefficient, None if zero so far."""
        return min(self.coeffs) if self.coeffs else None

    def leading(self) -> tuple[Fraction, Character]:
        if not self.coeffs:
            raise ValueError("zero series has no leading term")
        e = min(self.coeffs)
        return e, self.coeffs[e]

    def coefficient(self, e: Rat) -> Character:
        return self.coeffs.get(Fraction(e), Character.zero())

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # The product is complete below min over the two cross valuations.
        val_s = self.valuation()
        val_o = other.valuation()
        bound_s = other.order + (val_s if val_s is not None else Fraction(0))
        bound_o = self.order + (val_o if val_o is not None else Fraction(0))
        if self.is_zero and other.is_zero:
            order = self.order + other.order
        elif self.is_zero:
            order = bound_o
        elif other.is_zero:
            order = bound_s
        else:
            order = min(bound_s, bound_o)
        acc: dict[Fraction, Character] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < order:
                    acc[e] = acc.get(e, Character.zero()) + c1 * c2
        return QSeries(acc, order)

    def scale_monomial(self, m: Monomial) -> "QSeries":
        return QSeries({e: c.times_monomial(m) for e, c in self.coeffs.items()}, self.order)

    def shift_q(self, delta: Rat) -> "QSeries":
        d = Fraction(delta)
        return QSeries({e + d: c for e, c in self.coeffs.items()}, self.order + d)

    def agrees_with(self, other: "QSeries", order: Rat) -> bool:
        """Coefficient-exact equality for exponents < order."""
        order = Fraction(order)
        if self.order < order or other.order < order:
            raise ValueError("series not complete to the comparison order")
        exps = {e for e in self.coeffs if e < order} | {e for e in other.coeffs if e < order}
        return all(self.coefficient(e) == other.coefficient(e) for e in exps)

    def evaluate(self, ctx: NumericContext, q: complex) -> complex:
        out = 0j
        for e, c in self.coeffs.items():
            out += ctx.character(c) * _qpow(q, e)
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return f"0 + O(q^{rat_to_str(self.order)})"
        parts = [
            f"q^{rat_to_str(e)}*({self.coeffs[e].to_text()})" for e in sorted(self.coeffs)
        ]
        return " + ".join(parts) + f" + O(q^{rat_to_str(self.order)})"


def _qpow(q: complex, e: Fraction) -> complex:
    if q == 0:
        if e == 0:
            return 1.0
        if e > 0:
            return 0.0
        raise ZeroDivisionError("q**negative at q=0")
    return cmath.exp(complex(e) * cmath.log(q))


def theta_series(arg: ThetaArgument, order: Rat) -> QSeries:
    """Exact expansion of theta(m * q^s) for q-exponents below ``order``.

    theta(x) = (x^(1/2) - x^(-1/2)) * prod_{i>=1} (1 - x q^i)(1 - q^i / x)
             = sum_{n in Z} (-1)^(n+1) x^(n-1/2) q^(n(n-1)/2) / prod_{i>=1} (1 - q^i)
    by the Jacobi triple product, and 1 / prod_{i>=1} (1 - q^i) = sum_k p(k) q^k
    with p the partition numbers.
    """
    order = Fraction(order)
    m, s = arg.monomial, arg.qshift
    if m.is_trivial and s.denominator == 1:
        # theta vanishes identically on integral powers of q.
        return QSeries.zero(order)
    root = m.sqrt()

    def exponent(n: int) -> Fraction:  # of x^(n-1/2) q^(n(n-1)/2) at x = m q^s
        return (n * (n - 1) + s * (2 * n - 1)) / 2

    # exponent(n) is convex in n and smallest at n = -floor(s).
    lowest = -math.floor(s)
    # p(k) for every k with exponent(lowest) + k < order.
    partitions = [1] + [0] * (math.ceil(order - exponent(lowest)) - 1)
    for i in range(1, len(partitions)):
        for k in range(i, len(partitions)):
            partitions[k] += partitions[k - i]
    coeffs: dict[Fraction, dict[Monomial, int]] = {}
    for n, step in ((lowest, 1), (lowest - 1, -1)):
        while (e := exponent(n)) < order:
            mono = root ** (2 * n - 1)  # m^n m^(-1/2)
            sign = 1 if n % 2 else -1
            for k, p in enumerate(partitions):
                if e + k >= order:
                    break
                terms = coeffs.setdefault(e + k, {})
                terms[mono] = terms.get(mono, 0) + sign * p
            n += step
    return QSeries({e: Character(terms) for e, terms in coeffs.items()}, order)


def verify_oddness(order: Rat) -> bool:
    """Check theta(1/x) == -theta(x) coefficient-exactly below ``order``."""
    x = Monomial.variable("x")
    lhs = theta_series(ThetaArgument(x.inverse()), order)
    rhs = -theta_series(ThetaArgument(x), order)
    return lhs.agrees_with(rhs, order)


def verify_quasiperiod(order: Rat) -> bool:
    """Check theta(x q) == -(x sqrt(q))^(-1) theta(x) below ``order``."""
    order = Fraction(order)
    x = Monomial.variable("x")
    lhs = theta_series(ThetaArgument(x, Fraction(1)), order)
    base = theta_series(ThetaArgument(x), order + Fraction(1, 2))
    rhs = (-base).scale_monomial(x.inverse()).shift_q(Fraction(-1, 2))
    return lhs.agrees_with(rhs, order)


@dataclass(frozen=True)
class ThetaLeading:
    """Closed-form leading behavior of one theta factor as q -> 0.

    theta(m q^s) = sign * monomial * (1 - binomial_of) * q^valuation * (1 + O(q^{>0}))
    with the binomial present exactly when the shift s is an integer.
    """

    valuation: Fraction
    sign: int
    monomial: Monomial
    binomial_of: Monomial | None


def theta_leading(arg: ThetaArgument) -> ThetaLeading:
    """Closed-form lowest term of theta(m q^s): the lowest term or terms of the
    triple-product sum in ``theta_series``, n = -floor(s), plus n = 1 - s when
    s is integral, which gives the binomial."""
    m, s = arg.monomial, arg.qshift
    n, d = s.numerator, s.denominator
    if m.is_trivial and d == 1:
        raise LimitUndefined(f"theta(q^{rat_to_str(s)}) vanishes identically")
    k = n // d  # floor
    try:
        root = m.sqrt()
    except ExponentError as exc:
        raise LimitUndefined(
            f"theta argument {m.to_text() or '1'} has no half-integer square root"
        ) from exc
    sign = -1 if k % 2 == 0 else 1
    monomial = root ** (-2 * k - 1)  # m^(-k-1/2)
    if d == 1:
        # theta(m q^s) = (-1)^(s+1) m^(-s-1/2) (1 - m) q^(-s^2/2) (1 + ...)
        return ThetaLeading(Fraction(-n * n, 2), sign, monomial, m)
    # s = k + r/d with 0 < r < d:
    # theta(m q^s) = (-1)^(k+1) m^(-k-1/2) q^(-k(r/d) - k^2/2 - (r/d)/2) (1 + ...)
    r = n - k * d
    return ThetaLeading(Fraction(-2 * k * r - k * k * d - r, 2 * d), sign, monomial, None)


@dataclass(frozen=True)
class LimitResult:
    """q->0 limit of a theta ratio: prefactor monomial times a rational value."""

    prefactor: Monomial
    value: RationalExpr

    def combined(self) -> RationalExpr:
        return self.value.times_monomial(self.prefactor)


def theta_ratio_leading(
    numerator: Iterable[ThetaArgument], denominator: Iterable[ThetaArgument]
) -> tuple[Fraction, LimitResult]:
    """Leading term of prod theta(num) / prod theta(den) as q -> 0.

    Returns the q-valuation v and the coefficient of q^v, with the
    denominator binomials kept as (1 - m) factors.  Raises LimitUndefined if
    a factor is identically zero.
    """
    valuation = Fraction(0)
    sign = 1
    monomial = ONE
    num = Character.one()
    factors: dict[Monomial, int] = {}
    for args, side in ((numerator, 1), (denominator, -1)):
        # Equal arguments share one leading term, raised to their count k.
        for arg, k in Counter(args).items():
            lead = theta_leading(arg)
            valuation += side * k * lead.valuation
            sign *= lead.sign ** k
            monomial = monomial * lead.monomial ** (side * k)
            b = lead.binomial_of
            if b is not None and side > 0:  # (1 - b)^k by the binomial theorem
                num = num * one_minus_power(b, k)
            elif b is not None:
                factors[b] = factors.get(b, 0) + k
    return valuation, LimitResult(monomial, RationalExpr.factored(num * sign, factors))


def theta_ratio_limit(
    numerator: Iterable[ThetaArgument], denominator: Iterable[ThetaArgument]
) -> LimitResult:
    """Exact q->0 limit of prod theta(num) / prod theta(den).

    Raises LimitUndefined when the total q-valuation is negative (a pole) or a
    factor is identically zero.  A positive total valuation gives limit 0.
    """
    valuation, result = theta_ratio_leading(numerator, denominator)
    return result if leading_survives(valuation) else LimitResult(ONE, RationalExpr.zero())


def leading_survives(valuation: Fraction) -> bool:
    """Whether a leading term of this q-valuation survives q -> 0: a negative
    valuation is a pole and raises LimitUndefined, a positive one vanishes."""
    if valuation < 0:
        raise LimitUndefined(
            f"theta ratio has a q-pole of order {rat_to_str(-valuation)}"
        )
    return valuation == 0


def numeric_theta(x: complex, q: complex, tolerance: float = 1e-12) -> complex:
    """Floating-point theta via the defining product, principal branch for x^(1/2)."""
    if abs(q) >= 1:
        raise NonConvergence(f"|q| = {abs(q)} is not inside the unit disc")
    if x == 0:
        raise ZeroDivisionError("theta argument must be nonzero")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    root = cmath.sqrt(x)
    return _times_theta_product(root - 1 / root, x, q, tolerance)


def numeric_theta_argument(
    arg: ThetaArgument, q: complex, ctx: NumericContext, tolerance: float = 1e-12
) -> complex:
    """Numeric theta(m q^s) with the square-root branch taken from the context.

    Matches the exact engine's formal m^(1/2) choice, so series and product
    agree without branch ambiguity.
    """
    if abs(q) >= 1:
        raise NonConvergence(f"|q| = {abs(q)} is not inside the unit disc")
    m_val = ctx.monomial(arg.monomial)
    root = ctx.monomial_sqrt(arg.monomial)
    qs = _qpow(q, arg.qshift)
    qs_half = _qpow(q, arg.qshift / 2)
    x = m_val * qs
    return _times_theta_product(root * qs_half - 1 / (root * qs_half), x, q, tolerance)


def _times_theta_product(out: complex, x: complex, q: complex, tolerance: float) -> complex:
    """out * prod_{i >= 1} (1 - q^i x)(1 - q^i / x), up to the first i where both
    q^i x and q^i / x are below tolerance, which must come within 10 000 factors."""
    qi = q
    for _ in range(10_000):
        d1 = qi * x
        d2 = qi / x
        if abs(d1) < tolerance and abs(d2) < tolerance:
            return out
        out *= (1 - d1) * (1 - d2)
        qi *= q
    raise NonConvergence("theta product did not stabilize")
