"""Independent oracles for the exact engine.

Theta values at shifted arguments span hundreds of orders of magnitude before
their ratios cancel, so the numeric oracle runs on mpmath with a fixed working
precision and one quarter-root branch choice per variable, matching the
formal m^(1/2) of the exact engine.

The theta-ratio route at the end takes the shifted Euler-class ratio
Theta(N^-) / Theta(P) through ``theta_ratio_limit``, factor by factor; the
closed-form ``expected_diagonal`` of the library is checked against it.
"""

from fractions import Fraction
from typing import Mapping

import mpmath as mp

from stablimits.balanced import BalancedExpression
from stablimits.chars import Character, Monomial, Rat, RationalExpr
from stablimits.pipeline import _weight, normal_negative
from stablimits.qseries import ThetaArgument, theta_ratio_limit

DPS = 60


def quarter_roots(values: dict[str, complex], dps: int = DPS) -> dict[str, mp.mpc]:
    with mp.workdps(dps):
        return {v: mp.power(mp.mpc(x), mp.mpf(1) / 4) for v, x in values.items()}


def mp_monomial(m: Monomial, quarters) -> mp.mpc:
    out = mp.mpc(1)
    for v, e in m.exponents().items():
        out *= quarters[v] ** int(4 * e)
    return out


def mp_monomial_sqrt(m: Monomial, quarters) -> mp.mpc:
    out = mp.mpc(1)
    for v, e in m.exponents().items():
        out *= quarters[v] ** int(2 * e)
    return out


def mp_character(ch: Character, quarters) -> mp.mpc:
    return sum((c * mp_monomial(m, quarters) for m, c in ch.items()), mp.mpc(0))


def mp_rational(expr: RationalExpr, quarters) -> mp.mpc:
    return mp_character(expr.num, quarters) / mp_character(expr.den, quarters)


def mp_qpow(q, e: Fraction):
    return mp.power(q, mp.mpf(e.numerator) / e.denominator)


def mp_theta_argument(arg: ThetaArgument, q, quarters) -> mp.mpc:
    """theta(m q^s) with the context's square-root branch."""
    root = mp_monomial_sqrt(arg.monomial, quarters) * mp_qpow(q, arg.qshift / 2)
    x = mp_monomial(arg.monomial, quarters) * mp_qpow(q, arg.qshift)
    out = root - 1 / root
    i = 1
    eps = mp.mpf(10) ** (-mp.mp.dps + 5)
    while True:
        d1 = mp_qpow(q, Fraction(i)) * x
        d2 = mp_qpow(q, Fraction(i)) / x
        if abs(d1) < eps and abs(d2) < eps:
            return out
        out *= (1 - d1) * (1 - d2)
        i += 1
        if i > 100_000:
            raise RuntimeError("theta product did not stabilize")


def mp_evaluate(expr: BalancedExpression, q, quarters) -> mp.mpc:
    total = mp.mpc(0)
    for term in expr.terms:
        val = mp_monomial(term.prefactor, quarters)
        for a in term.numerator:
            val *= mp_theta_argument(a, q, quarters)
        for a in term.denominator:
            val /= mp_theta_argument(a, q, quarters)
        total += val
    return total


# --- the theta-ratio route -------------------------------------------------------


def euler_arguments(
    V: Character, weight: Mapping[str, Rat] | None = None
) -> tuple[list[ThetaArgument], list[ThetaArgument]]:
    """Theta arguments of the multiplicative Euler class of a character,
    optionally with equivariant parameters already shifted by q^w."""
    num: list[ThetaArgument] = []
    den: list[ThetaArgument] = []
    for m, mult in V.items():
        shift = m.pairing(weight) if weight else Fraction(0)
        arg = ThetaArgument(m, shift)
        (num if mult > 0 else den).extend([arg] * abs(mult))
    return num, den


def euler_ratio_limit(
    P: Character, N_minus: Character, weight: Rat | Mapping[str, Rat]
) -> RationalExpr:
    """Exact q->0 limit of Theta(N^-) / Theta(P) with a -> a q^w.

    The output is a monomial times a ratio of products of (1 - monomial)
    binomials; no q survives and no fractional equivariant exponents appear
    beyond the monomial prefactor.
    """
    weight = _weight(weight, ("a",))
    num_n, den_n = euler_arguments(N_minus, weight)
    num_p, den_p = euler_arguments(P, weight)
    result = theta_ratio_limit(num_n + den_p, den_n + num_p)
    return result.combined()


class ImpureNormalization(ArithmeticError):
    """The Euler-ratio limit is not a monomial multiple of its invariant part."""


def diagonal_exponent(
    P: Character,
    weight: Rat | Mapping[str, Rat],
    direction: Mapping[str, Rat],
    hbar: str = "hbar",
) -> tuple[int, Fraction]:
    """Sign and hbar-exponent of the monomial relating the exact limit of the
    shifted Euler-class ratio to its invariant-part value:

        lim_q [Theta(N^-)/Theta(P)]|shift == sign * hbar^E * s_hat(N^-_inv)/s_hat(P_inv)

    The equality is verified by cross-multiplication; the sign always equals
    (-1)^(rank of the moving part of the index), and E has the closed form
    given by the symmetrized floor pairing of the index.
    """
    weight = _weight(weight, tuple(direction))
    N_minus = normal_negative(P, direction, hbar)
    limit = euler_ratio_limit(P, N_minus, weight)
    invariant_value = (
        N_minus.invariant_part(weight).s_hat() / P.invariant_part(weight).s_hat()
    )
    span_l = limit.degree_span((hbar,))
    span_s = invariant_value.degree_span((hbar,))
    if span_l is None or span_s is None:
        raise ImpureNormalization("degenerate limit or invariant part")
    lo = span_l[0] - span_s[0]
    hi = span_l[1] - span_s[1]
    if lo != hi:
        raise ImpureNormalization(f"hbar content is not a pure power: span [{lo}, {hi}]")
    ind, _, _ = P.chamber_split(direction)
    sign = -1 if (ind.rank() - ind.invariant_part(weight).rank()) % 2 else 1
    candidate = invariant_value * RationalExpr.from_monomial(Monomial({hbar: lo}), sign)
    if not (limit == candidate):
        raise ImpureNormalization(
            "limit does not factor as a signed hbar power times the invariant value"
        )
    return sign, lo
