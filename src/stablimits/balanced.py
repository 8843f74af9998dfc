"""Balanced sections: formal sums of theta-ratio terms and their double limit.

A term is a monomial prefactor times a product/ratio of theta factors.  The
two-stage limit (first q -> 0 after shifting the equivariant parameters,
then each Kahler parameter to 0 or infinity along a chamber) is computed in
exact arithmetic from the closed-form leading data of each theta factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping

from .chars import (
    Character,
    Monomial,
    NumericContext,
    ONE,
    Rat,
    RationalExpr,
    VariableSet,
    rat_to_str,
)
from .qseries import (
    LimitUndefined,
    ThetaArgument,
    numeric_theta_argument,
    qpow,
    theta_ratio_leading,
)


class InconsistentBundle(ValueError):
    """Terms of one expression disagree on their quasiperiod pairing."""


class NormalizationMismatch(ArithmeticError):
    """Terms demand incompatible monomial normalizations in the q-limit."""


class DivergentLimit(ArithmeticError):
    """A Kahler-parameter limit diverges (wrong correction exponent)."""


ToZero = "zero"
ToInfinity = "infinity"


@dataclass(frozen=True)
class KahlerChamber:
    """A coordinate cone: one limit direction per Kahler variable."""

    directions: Mapping[str, str]

    def __post_init__(self):
        if not self.directions:
            raise ValueError("Kahler chamber needs at least one variable")
        for v, d in self.directions.items():
            if d not in (ToZero, ToInfinity):
                raise ValueError(f"direction for {v} must be '{ToZero}' or '{ToInfinity}'")

    @classmethod
    def uniform(cls, variables: Iterable[str], direction: str) -> "KahlerChamber":
        return cls({v: direction for v in variables})


@dataclass(frozen=True)
class BalancedTerm:
    """prefactor * prod theta(numerator) / prod theta(denominator)."""

    prefactor: Monomial = ONE
    numerator: tuple[ThetaArgument, ...] = ()
    denominator: tuple[ThetaArgument, ...] = ()

    def shifted(self, weight: Mapping[str, Rat]) -> "BalancedTerm":
        return BalancedTerm(
            self.prefactor,
            tuple(a.shifted(weight) for a in self.numerator),
            tuple(a.shifted(weight) for a in self.denominator),
        )

    def to_json(self) -> dict:
        return {
            "prefactor": self.prefactor.to_json(),
            "num": [a.to_json() for a in self.numerator],
            "den": [a.to_json() for a in self.denominator],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "BalancedTerm":
        return cls(
            Monomial.from_json(data.get("prefactor", {})),
            tuple(ThetaArgument.from_json(a) for a in data.get("num", ())),
            tuple(ThetaArgument.from_json(a) for a in data.get("den", ())),
        )


@dataclass(frozen=True)
class BalancedExpression:
    """Formal sum of balanced terms; the empty sum is zero."""

    terms: tuple[BalancedTerm, ...] = ()

    @classmethod
    def zero(cls) -> "BalancedExpression":
        return cls(())

    @classmethod
    def one(cls) -> "BalancedExpression":
        return cls((BalancedTerm(),))

    @classmethod
    def single(
        cls,
        numerator: Iterable[ThetaArgument],
        denominator: Iterable[ThetaArgument] = (),
        prefactor: Monomial = ONE,
    ) -> "BalancedExpression":
        return cls((BalancedTerm(prefactor, tuple(numerator), tuple(denominator)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BalancedExpression") -> "BalancedExpression":
        return BalancedExpression(self.terms + other.terms)

    def shifted(self, weight: Mapping[str, Rat]) -> "BalancedExpression":
        """Shift equivariant parameters a -> a q^w in every theta argument.

        Prefactor monomials are untouched here; their q-shift is accounted
        inside q_limit, where it enters the term valuation.
        """
        return BalancedExpression(tuple(t.shifted(weight) for t in self.terms))

    def to_json(self) -> dict:
        return {"terms": [t.to_json() for t in self.terms]}

    @classmethod
    def from_json(cls, data: Mapping) -> "BalancedExpression":
        return cls(tuple(BalancedTerm.from_json(t) for t in data.get("terms", ())))


def theta(exponents: Mapping[str, Rat], qshift: Rat = 0) -> ThetaArgument:
    """Convenience constructor for a theta argument."""
    return ThetaArgument(Monomial(exponents), Fraction(qshift))


def is_balanced_in(expr: BalancedExpression, variables: Collection[str]) -> bool:
    """True iff in every term the nontrivial variable-restricted exponent
    vectors of the numerator factors match those of the denominator factors,
    as multisets.  Factors not involving the variables are unconstrained.
    """
    def profile(args: tuple[ThetaArgument, ...]) -> dict[tuple, int]:
        counts: dict[tuple, int] = {}  # by the restricted (variable, doubled exponent) pairs
        for a in args:
            key = tuple(p for p in a.monomial.doubled() if p[0] in variables)
            if key:
                counts[key] = counts.get(key, 0) + 1
        return counts

    for term in expr.terms:
        if profile(term.numerator) != profile(term.denominator):
            return False
    return True


def has_separated_poles(expr: BalancedExpression, variables: VariableSet) -> bool:
    """True iff every denominator factor involves only equivariant variables
    or only Kahler variables (hbar is allowed alongside either)."""
    for term in expr.terms:
        for a in term.denominator:
            names = a.monomial.variables()
            has_a = any(variables.is_equivariant(v) for v in names)
            has_z = any(variables.is_kahler(v) for v in names)
            if has_a and has_z:
                return False
    return True


def _pairing_sums(
    numerator: Iterable[ThetaArgument],
    denominator: Iterable[ThetaArgument],
    variables: VariableSet,
) -> dict[tuple[str, str], Rat]:
    """Nonzero signed sums of n*m over theta factors, per (equivariant, v)
    pair with v a Kahler variable or hbar.

    A fractional n*m on an (equivariant, Kahler) pair raises
    InconsistentBundle; on an (equivariant, hbar) pair it is kept exactly.
    """
    partners = (*variables.kahler, variables.hbar)
    acc: dict[tuple[str, str], Rat] = {}
    for args, sgn in ((numerator, 1), (denominator, -1)):
        for a in args:
            exps = dict(a.monomial.doubled())
            for av in variables.equivariant:
                ea = exps.get(av)
                if not ea:
                    continue
                for v in partners:
                    ev = exps.get(v)
                    if not ev:
                        continue
                    prod = ea * ev  # four times n*m
                    if prod % 4 == 0:
                        prod //= 4
                    elif v != variables.hbar:
                        raise InconsistentBundle(
                            f"fractional quasiperiod pairing {Fraction(prod, 4)} for ({av},{v})"
                        )
                    else:
                        prod = Fraction(prod, 4)
                    acc[(av, v)] = acc.get((av, v), 0) + sgn * prod
    return {k: s for k, s in acc.items() if s}


def quasiperiod_pairing(
    expr: BalancedExpression, variables: VariableSet
) -> dict[tuple[str, str], int]:
    """Signed sum S of n*m over theta factors, per (equivariant, Kahler) pair.

    Numerator factors count positively, denominator factors negatively.  All
    terms of a section of a single line bundle share one factor of
    automorphy under a -> a q, so they must agree on these sums and on the
    same sums per (equivariant, hbar) pair; otherwise InconsistentBundle is
    raised, naming the first differing pair (in sorted order) and both
    values.  The hbar sums are compared as exact rationals (half-integer
    hbar exponents are allowed, so a fractional n*m there is not an error);
    a fractional n*m on an (equivariant, Kahler) pair is.

    Only the (equivariant, Kahler) sums are returned.  The shift a -> a q^w
    picks up the Kahler monomial z^(-w*S) in the limit, so the finite
    corrected limit uses the correction z^(+w*S).
    """
    first: dict[tuple[str, str], Rat] | None = None
    for term in expr.terms:
        sums = _pairing_sums(term.numerator, term.denominator, variables)
        if first is None:
            first = sums
        elif sums != first:
            av, v = min(
                p for p in first.keys() | sums.keys() if first.get(p, 0) != sums.get(p, 0)
            )
            raise InconsistentBundle(
                f"terms carry different ({av}, {v}) quasiperiod pairings: "
                f"{rat_to_str(first.get((av, v), 0))} vs {rat_to_str(sums.get((av, v), 0))}"
            )
    if first is None:
        return {}
    return {
        (av, v): int(s) for (av, v), s in first.items() if v != variables.hbar
    }


def q_limit(
    expr: BalancedExpression, weight: Mapping[str, Rat], variables: VariableSet
) -> tuple[Monomial, RationalExpr]:
    """Exact q->0 limit of the expression with a -> a q^w.

    Returns (normalization, value): the Kahler-monomial normalization common
    to all terms (possibly with half-integer exponents) and the remaining
    rational function of the variables.  The limit of the section equals
    normalization * value.  Each theta factor's shift is read in integers
    by ``theta_leading``, so no shifted expression is built.
    """
    survivors: list[tuple[Monomial, RationalExpr]] = []
    for term in expr.terms:
        valuation, ratio = theta_ratio_leading(term.numerator, term.denominator, weight)
        valuation += term.prefactor.pairing(weight)
        if valuation < 0:
            raise LimitUndefined(
                f"term diverges as q^{rat_to_str(valuation)}; expression is not balanced"
            )
        if valuation > 0 or ratio.value.is_zero:
            continue
        survivors.append((term.prefactor * ratio.prefactor, ratio.value))
    if not survivors:
        return ONE, RationalExpr.zero()

    norm_exps: dict[str, Fraction] = {}
    for v in variables.kahler:
        exps = [m.exponent(v) for m, _ in survivors]
        if any((e - exps[0]).denominator != 1 for e in exps):
            raise NormalizationMismatch(
                f"terms disagree on the fractional part of the {v}-normalization"
            )
        norm_exps[v] = min(exps)
    normalization = Monomial(norm_exps)

    value = RationalExpr.zero()
    for m, val in survivors:
        value = value + val.times_monomial(m / normalization)
    return normalization, value


def z_limit(
    value: RationalExpr, chamber: KahlerChamber, correction: Monomial = ONE
) -> RationalExpr:
    """Multiply by the correction monomial, then send each chamber variable to
    its limit (0 or infinity).  DivergentLimit if the corrected valuation
    points the wrong way.

    Each variable keeps the extremal slice of the numerator and of the
    denominator; the denominator is sliced factor by factor, so a (1 - m)
    becomes 1 or -m and is never expanded.  The correction counts through
    its exponent in each chamber variable, and its other variables multiply
    the final numerator."""
    if value.is_zero:
        return RationalExpr.zero()
    num, rest, factors = value.num, value.rest, value.factors
    for var in sorted(chamber.directions):
        direction = chamber.directions[var]
        extremal = min if direction == ToZero else max

        def split(ch: Character) -> tuple[Fraction, Character]:
            graded = [(m.exponent(var), m, c) for m, c in ch.items()]
            e = extremal(g for g, _, _ in graded)
            return e, Character({m.drop((var,)): c for g, m, c in graded if g == e})

        e_num, num = split(num)
        e_num += correction.exponent(var)
        correction = correction.drop((var,))
        e_den, rest = split(rest)
        kept: dict[Monomial, int] = {}
        for m, k in factors.items():
            e = m.exponent(var)
            if not e:
                kept[m] = k
            elif (e < 0) == (direction == ToZero):
                e_den += k * e
                rest = rest.times_monomial(m.drop((var,)) ** k) * (-1) ** k
        factors = kept
        gap = e_num - e_den
        vanishing = gap > 0 if direction == ToZero else gap < 0
        if vanishing:
            return RationalExpr.zero()
        if gap != 0:
            raise DivergentLimit(
                f"{var} -> {direction}: corrected expression grows like {var}^{rat_to_str(gap if direction == ToInfinity else -gap)}"
            )
    if not correction.is_trivial:
        num = num.times_monomial(correction)
    return RationalExpr.factored(num, factors, rest)


def chamber_correction(
    pairing: Mapping[tuple[str, str], int],
    weight: Mapping[str, Rat],
    normalization: Monomial,
    chamber: KahlerChamber,
) -> Monomial:
    """Correction monomial z^(w.S + eta) for the Kahler limit.

    w.S is the quasiperiod-derived exponent; eta cancels any leftover
    fractional part of the normalization (fractional powers cannot appear in
    the limit class), pushed to the vanishing side of the chamber.
    """
    exps: dict[str, Fraction] = {}
    for zv, direction in chamber.directions.items():
        ws = Fraction(0)
        for (av, zv2), s in pairing.items():
            if zv2 == zv:
                ws += Fraction(weight.get(av, 0)) * s
        residue = (-(ws + normalization.exponent(zv))) % 1
        if residue:
            ws += residue if direction == ToZero else residue - 1
        exps[zv] = ws
    return Monomial(exps)


def double_limit(
    expr: BalancedExpression,
    weight: Mapping[str, Rat],
    chamber: KahlerChamber,
    variables: VariableSet,
    pairing: Mapping[tuple[str, str], int] | None = None,
) -> RationalExpr:
    """The full pipeline for one expression: q-limit with shift, quasiperiod
    correction, then the Kahler chamber limit.  ``pairing`` is the expression's
    ``quasiperiod_pairing``, if already computed (``validate_section`` does)."""
    if pairing is None:
        pairing = quasiperiod_pairing(expr, variables) if expr.terms else {}
    normalization, value = q_limit(expr, weight, variables)
    correction = chamber_correction(pairing, weight, normalization, chamber)
    return z_limit(value, chamber, correction * normalization)


def evaluate_numeric(
    expr: BalancedExpression, ctx: NumericContext, q: complex, tolerance: float = 1e-12
) -> complex:
    """Numeric value of the expression at explicit parameters; oracle helper.

    Each factor theta(m q^s) is first reduced to theta(m q^r), s = k + r with
    k = floor(s), by theta(x q^k) = (-1)^k x^(-k) q^(-k^2/2) theta(x).  The
    sign, monomial and q-exponent this collects per term stay exact, so only
    theta values of order 1 meet floating point, and a large shift cannot
    overflow a factor."""
    total = 0j
    for term in expr.terms:
        sign, monomial, qexp, val = 1, term.prefactor, Fraction(0), 1 + 0j
        for a, side in [*((a, 1) for a in term.numerator), *((a, -1) for a in term.denominator)]:
            k = math.floor(a.qshift)
            r = a.qshift - k
            sign *= (-1) ** k
            monomial = monomial * a.monomial ** (-side * k)
            qexp -= side * (k * r + Fraction(k * k, 2))
            val *= numeric_theta_argument(ThetaArgument(a.monomial, r), q, ctx, tolerance) ** side
        total += sign * ctx.monomial(monomial) * qpow(q, qexp) * val
    return total


# ---------------------------------------------------------------------------
# Random balanced expressions (seeded), used by property tests and spot checks.

_CANONICAL_RANGE = (-3, -2, -1, 1, 2, 3)


def random_balanced_expression(
    rng: random.Random,
    variables: VariableSet,
    max_terms: int = 4,
    max_factors: int = 6,
) -> BalancedExpression:
    """A random section that is balanced in the equivariant variables and
    whose terms share one quasiperiod pairing, per (equivariant, Kahler) and
    per (equivariant, hbar) pair, so that quasiperiod_pairing accepts it.
    It is built from canonical blocks:

    - triples theta(a^n z^m ...) / (theta(a^n ...) theta(z^m ...)),
    - equivariant ratios theta(a^n hbar^j) / theta(a^n),
    - Kahler ratios theta(z^m hbar^j) / theta(z^m) either way up,
    - hbar-monomial prefactors and an optional global monomial.

    One target pairing is drawn per (a, z) pair and one per equivariant
    variable a for (a, hbar).  The triples meet the (a, z) target; a final
    theta(a hbar^gap) / theta(a), balanced in a and free of z, closes each
    term's gap to the (a, hbar) target.
    """
    avars = variables.equivariant
    zvars = variables.kahler
    hbar = variables.hbar
    target = {
        (av, zv): rng.choice((-2, -1, 0, 1, 2)) for av in avars for zv in zvars
    }
    hbar_target = {av: rng.choice((-2, -1, 0, 1, 2)) for av in avars}

    def random_hbar(allow_half: bool = True) -> Fraction:
        base = Fraction(rng.randint(-2, 2))
        if allow_half and rng.random() < 0.3:
            base += Fraction(1, 2)
        return base

    def canonical_triple(av: str, zv: str, n: int, m: int) -> tuple:
        args_extra = {}
        if rng.random() < 0.4:
            args_extra[hbar] = random_hbar(allow_half=False)
        num = theta({av: n, zv: m, **args_extra})
        den1 = theta({av: n, hbar: random_hbar(False)} if rng.random() < 0.3 else {av: n})
        den2 = theta({zv: m, hbar: random_hbar(False)} if rng.random() < 0.3 else {zv: m})
        return (num,), (den1, den2)

    # A global monomial can only involve hbar freely and a fractional power of
    # each Kahler variable: an a-power would shift every q-valuation by a*w and
    # an integer z-power would force divergence in one chamber direction.
    global_prefactor = ONE
    if rng.random() < 0.5:
        exps: dict[str, Fraction] = {}
        for v in zvars:
            if rng.random() < 0.4:
                exps[v] = rng.choice((Fraction(1, 2), Fraction(-1, 2)))
        if rng.random() < 0.5:
            exps[hbar] = random_hbar()
        global_prefactor = Monomial(exps)

    terms = []
    for _ in range(rng.randint(1, max_terms)):
        num: list[ThetaArgument] = []
        den: list[ThetaArgument] = []
        budget = rng.randint(0, max_factors - 1)
        # Meet the target pairing with one triple per (a, z) pair, splitting
        # S = n*m into small factors where possible.
        for (av, zv), s in target.items():
            if s == 0:
                continue
            n = rng.choice([d for d in (1, -1, 2, -2) if s % d == 0])
            nn, dd = canonical_triple(av, zv, n, s // n)
            num.extend(nn)
            den.extend(dd)
        while budget > 0:
            kind = rng.random()
            if kind < 0.35 and avars:
                av = rng.choice(avars)
                n = rng.choice(_CANONICAL_RANGE)
                j = random_hbar(False)
                upstairs = theta({av: n, hbar: j})
                downstairs = theta({av: n})
                if rng.random() < 0.5:
                    upstairs, downstairs = downstairs, upstairs
                num.append(upstairs)
                den.append(downstairs)
            elif kind < 0.7 and zvars:
                zv = rng.choice(zvars)
                m = rng.choice(_CANONICAL_RANGE)
                j = random_hbar(False)
                upstairs = theta({zv: m, hbar: j})
                downstairs = theta({zv: m})
                if rng.random() < 0.5:
                    upstairs, downstairs = downstairs, upstairs
                num.append(upstairs)
                den.append(downstairs)
            elif avars:
                av = rng.choice(avars)
                n = rng.choice((1, -1, 2))
                j = random_hbar(False)
                num.append(theta({av: n, hbar: j}))
                den.append(theta({av: n}))
            budget -= 2
        sums = _pairing_sums(num, den, variables)
        for av, s in hbar_target.items():
            gap = s - sums.get((av, hbar), 0)
            if gap:
                num.append(theta({av: 1, hbar: gap}))
                den.append(theta({av: 1}))
        prefactor = global_prefactor * Monomial({hbar: random_hbar()})
        terms.append(BalancedTerm(prefactor, tuple(num), tuple(den)))
    return BalancedExpression(tuple(terms))
