import cmath
import json
import math
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stablimits.chars import (
    Character,
    ExponentError,
    Monomial,
    NumericContext,
    ONE,
    RationalExpr,
    rat_to_str,
)
from stablimits.qseries import (
    LimitUndefined,
    NonConvergence,
    QSeries,
    ThetaArgument,
    numeric_theta,
    numeric_theta_argument,
    theta_leading,
    theta_ratio_limit,
    theta_series,
    verify_oddness,
    verify_quasiperiod,
)

A = Monomial.variable("a")
Z = Monomial.variable("z")


def ch(text):
    return Character.from_text(text)


half = Fraction(1, 2)


# --- series expansion --------------------------------------------------------


def test_theta_series_constant_term():
    s = theta_series(ThetaArgument(A), 2)
    assert s.coefficient(0) == ch("1*a^1/2 + -1*a^-1/2")


def test_theta_series_first_order_matches_product_expansion():
    # (a^(1/2) - a^(-1/2)) (1 - a q)(1 - q/a) = ... the q-coefficient is
    # -(a^(1/2) - a^(-1/2))(a + 1/a) = -(a^(3/2) - a^(-3/2)) + (a^(1/2) - a^(-1/2))
    s = theta_series(ThetaArgument(A), 2)
    expected = ch("-1*a^3/2 + 1*a^-3/2 + 1*a^1/2 + -1*a^-1/2")
    assert s.coefficient(1) == expected


def test_theta_series_first_order_agrees_with_numerics():
    # independent numeric check of the q^1 coefficient at a = 2
    a_val = 2.0
    ctx = NumericContext.from_values({"a": a_val})
    s = theta_series(ThetaArgument(A), 3)
    for q in (1e-3, 1e-4):
        exact = s.evaluate(ctx, q)
        approx = numeric_theta(a_val, q, tolerance=1e-16)
        assert abs(exact - approx) / abs(approx) < 10 * q ** 3


def test_theta_series_fractional_shift_leading_term():
    s = theta_series(ThetaArgument(A, half), 1)
    val, lead = s.leading()
    assert val == Fraction(-1, 4)
    assert lead == ch("-1*a^-1/2")


def test_theta_series_trivial_argument_vanishes():
    assert theta_series(ThetaArgument(ONE), 5).is_zero
    assert theta_series(ThetaArgument(ONE, Fraction(2)), 5).is_zero
    assert not theta_series(ThetaArgument(ONE, half), 2).is_zero


GOLDEN = pathlib.Path(__file__).parent / "data"


def _theta_series_cases() -> list[tuple[ThetaArgument, Fraction]]:
    """A seeded grid of (argument, order): monomials in a, z, hbar with
    exponents in [-2, 2] and the trivial monomial at fractional shifts; shifts
    p/r with r <= 6 of both signs and integral; orders at or below the
    valuation, exactly at a term exponent, integral and fractional."""
    rng = random.Random(20260)
    cases = []
    for i in range(80):
        if i % 10 == 9:
            mono, r = ONE, rng.randint(2, 6)
            shift = Fraction(rng.choice([p for p in range(-2 * r, 2 * r + 1) if p % r]), r)
        else:
            exps = {v: rng.randint(-2, 2) for v in ("a", "z", "hbar") if rng.random() < 0.6}
            mono = Monomial(exps) if any(exps.values()) else Monomial.variable("a", rng.choice([-1, 1]))
            r = rng.choice([1, 1, 2, 3, 4, 5, 6])
            shift = Fraction(rng.randint(-2 * r, 2 * r), r)
        arg = ThetaArgument(mono, shift)
        valuation = theta_leading(arg).valuation
        kind = i % 4
        if kind == 0:
            order = valuation - Fraction(rng.randint(0, 2), rng.randint(1, 3))
        elif kind == 1:
            terms = sorted(theta_series(arg, valuation + 4).coeffs)
            order = terms[rng.randint(1, len(terms) - 1)]
        elif kind == 2:
            order = math.floor(valuation) + rng.randint(1, 4)
        else:
            order = valuation + Fraction(rng.randint(1, 17), rng.randint(2, 6))
        cases.append((arg, order))
    return cases


def _theta_series_golden() -> str:
    lines = []
    for arg, order in _theta_series_cases():
        coeffs = theta_series(arg, order).coeffs
        lines.append(json.dumps({
            "arg": arg.to_json(),
            "order": rat_to_str(order),
            "coeffs": {rat_to_str(e): coeffs[e].to_text() for e in sorted(coeffs)},
        }) + "\n")
    return "".join(lines)


def test_theta_series_golden():
    """Every coefficient, and the truncation boundary, of a seeded grid stays
    byte-identical to the committed expansion (``tests/data/theta-series.jsonl``,
    the output of ``_theta_series_golden``)."""
    assert _theta_series_golden() == (GOLDEN / "theta-series.jsonl").read_text()
    with pytest.raises(ExponentError):
        theta_series(ThetaArgument(Monomial.variable("a", half)), 2)


def test_oddness():
    assert verify_oddness(5)
    assert verify_oddness(20)
    assert verify_oddness(half)


def test_quasiperiod():
    assert verify_quasiperiod(5)
    assert verify_quasiperiod(12)


def test_quasiperiod_iterated_twice():
    # theta(x q^2) = x^(-2) q^(-2) theta(x)
    x = Monomial.variable("x")
    order = Fraction(6)
    lhs = theta_series(ThetaArgument(x, Fraction(2)), order)
    rhs = (
        theta_series(ThetaArgument(x), order + 2)
        .scale_monomial(x.inverse() ** 2)
        .shift_q(-2)
    )
    assert lhs.agrees_with(rhs, order)


@given(st.integers(-6, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_valuation_recursion(p, r):
    """val(s + 1) = val(s) - s - 1/2, from the quasiperiod of the product."""
    s = Fraction(p, r)
    v1 = theta_leading(ThetaArgument(A, s)).valuation
    v2 = theta_leading(ThetaArgument(A, s + 1)).valuation
    assert v2 == v1 - s - half


@given(st.integers(-8, 8), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_closed_form_leading_matches_series(p, r):
    s = Fraction(p, r)
    lead = theta_leading(ThetaArgument(A, s))
    series = theta_series(ThetaArgument(A, s), lead.valuation + 1)
    val, coeff = series.leading()
    assert val == lead.valuation
    expected = Character.monomial(lead.monomial, lead.sign)
    if lead.binomial_of is not None:
        expected = expected * Character({ONE: 1, lead.binomial_of: -1})
    assert coeff == expected


# --- ratio limits ------------------------------------------------------------


def closed_form_ratio(w: Fraction) -> RationalExpr:
    """Independent oracle: the two-branch closed form for theta(zaq^w)/theta(aq^w)."""
    if w.denominator == 1:
        num = Character({ONE: 1, Z * A: -1})
        den = Character({ONE: 1, A: -1})
        return RationalExpr(num, den).times_monomial(
            Monomial.variable("z", -w - half)
        )
    floor_w = w.numerator // w.denominator
    return RationalExpr.from_monomial(Monomial.variable("z", -floor_w - half))


def test_ratio_limit_paper_branches():
    for w, expected in [
        (half, RationalExpr.from_monomial(Monomial.variable("z", -half))),
        (
            Fraction(0),
            RationalExpr(ch("1 + -1*a*z"), ch("1 + -1*a")).times_monomial(
                Monomial.variable("z", -half)
            ),
        ),
        (Fraction(-3, 2), RationalExpr.from_monomial(Monomial.variable("z", Fraction(3, 2)))),
    ]:
        got = theta_ratio_limit([ThetaArgument(Z * A, w)], [ThetaArgument(A, w)])
        assert got.combined() == expected


def test_ratio_limit_whole_grid():
    ws = {Fraction(p, r) for r in range(1, 7) for p in range(-3 * r, 3 * r + 1)}
    for w in sorted(ws):
        got = theta_ratio_limit([ThetaArgument(Z * A, w)], [ThetaArgument(A, w)])
        assert got.combined() == closed_form_ratio(w), f"w = {w}"


def test_ratio_limit_empty_product():
    result = theta_ratio_limit([], [])
    assert result.prefactor == ONE and result.value == RationalExpr.one()


def test_ratio_limit_pole_raises():
    # theta(a q) / theta(a): valuation -1/2 upstairs only
    with pytest.raises(LimitUndefined):
        theta_ratio_limit([ThetaArgument(A, Fraction(1))], [ThetaArgument(A)])


def test_ratio_limit_vanishing():
    # theta(a) / theta(a q) has positive net valuation: the limit is zero
    result = theta_ratio_limit([ThetaArgument(A)], [ThetaArgument(A, Fraction(1))])
    assert result.value.is_zero


def test_trivial_integral_argument_raises():
    with pytest.raises(LimitUndefined):
        theta_ratio_limit([ThetaArgument(ONE, Fraction(2))], [ThetaArgument(A)])


# --- numerics ----------------------------------------------------------------


def test_numeric_theta_at_q_zero():
    assert abs(numeric_theta(2.0, 0.0) - (2 ** 0.5 - 2 ** -0.5)) < 1e-14


def test_numeric_theta_odd_at_one():
    assert numeric_theta(1.0, 0.3) == 0


def test_numeric_theta_matches_series():
    ctx = NumericContext.from_values({"a": 2.0})
    s = theta_series(ThetaArgument(A), 4)
    got = numeric_theta(2.0, 1e-4)
    exact = s.evaluate(ctx, 1e-4)
    assert abs(got - exact) / abs(exact) < 1e-3


def test_numeric_theta_rejects_big_q():
    with pytest.raises(NonConvergence):
        numeric_theta(2.0, 1.5)


def test_numeric_theta_gives_up_after_ten_thousand_factors():
    """At q = 0.999 the product needs about 2.8e4 factors to reach 1e-12."""
    ctx = NumericContext.from_values({"a": 2.0})
    with pytest.raises(NonConvergence):
        numeric_theta(2.0, 0.999)
    with pytest.raises(NonConvergence):
        numeric_theta_argument(ThetaArgument(A), 0.999, ctx)
    assert numeric_theta(2.0, 0.99) == pytest.approx(
        numeric_theta_argument(ThetaArgument(A), 0.99, ctx), rel=1e-9)


@given(st.integers(-4, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_numeric_argument_matches_series_for_shifts(p, r):
    s = Fraction(p, r)
    arg = ThetaArgument(A, s)
    ctx = NumericContext.from_values({"a": 1.37 + 0.22j})
    lead_val = theta_leading(arg).valuation
    series = theta_series(arg, lead_val + 3)
    q = 1e-3
    exact = series.evaluate(ctx, q)
    approx = numeric_theta_argument(arg, q, ctx, tolerance=1e-16)
    assert abs(exact - approx) / abs(approx) < 1e-6


def test_functional_equation_numerically():
    # theta(x q) = -theta(x) / (x sqrt(q)) at a random point
    x, q = 1.7 - 0.3j, 0.05
    lhs = numeric_theta(x * q, q, 1e-15)
    rhs = -numeric_theta(x, q, 1e-15) / (x * cmath.sqrt(q))
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


# --- series bookkeeping -------------------------------------------------------


def test_qseries_mul_tracks_validity():
    one = Character.one()
    s1 = QSeries({Fraction(0): one}, 2)  # 1 + O(q^2)
    s2 = QSeries({Fraction(1): one}, 5)  # q + O(q^5)
    prod = s1 * s2
    assert prod.order == 3  # q * O(q^2) ruins knowledge at q^3
    assert prod.coefficient(1) == one


def test_qseries_str_is_increasing():
    s = theta_series(ThetaArgument(A, half), Fraction(3, 2))
    text = str(s)
    assert text.index("q^-1/4") < text.index("O(q^3/2)")


# --- the shift read in integers ------------------------------------------------


@st.composite
def _arguments_and_weights(draw):
    exps = draw(st.dictionaries(st.sampled_from(("a", "z", "hbar")),
                                st.integers(-3, 3) | st.sampled_from((half, -3 * half)),
                                max_size=3))
    qshift = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 4)))
    weight = {v: Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
              for v in draw(st.sets(st.sampled_from(("a", "z")), min_size=1))}
    return ThetaArgument(Monomial(exps), qshift), weight


@given(_arguments_and_weights())
@example((ThetaArgument(A * Z, Fraction(1, 3)), {"a": half}))  # a fractional shift
@example((ThetaArgument(A ** 2, Fraction(-1, 2)), {"a": Fraction(3, 4)}))  # an integral one
@example((ThetaArgument(ONE, Fraction(2)), {"a": half}))  # theta(q^2) vanishes
@example((ThetaArgument(Monomial.variable("a", half), Fraction(1, 3)), {"a": 1}))  # no root
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_theta_leading_reads_the_shift_in_integers(case):
    """theta_leading(arg, w) is theta_leading(arg.shifted(w)), error messages
    included, and is the lowest term of the shifted argument's series."""
    arg, weight = case
    shifted = arg.shifted(weight)
    try:
        expected = theta_leading(shifted)
    except LimitUndefined as exc:
        with pytest.raises(LimitUndefined) as fused:
            theta_leading(arg, weight)
        assert str(fused.value) == str(exc)
        assert re.fullmatch(r"theta\(q\^-?\d+\) vanishes identically|"
                            r"theta argument \S+ has no half-integer square root", str(exc))
        return
    lead = theta_leading(arg, weight)
    assert lead == expected
    assert (lead.binomial_of is not None) == (shifted.qshift.denominator == 1)
    val, coeff = theta_series(shifted, lead.valuation + 1).leading()
    assert val == lead.valuation
    expected_coeff = Character.monomial(lead.monomial, lead.sign)
    if lead.binomial_of is not None:
        expected_coeff = expected_coeff * Character({ONE: 1, lead.binomial_of: -1})
    assert coeff == expected_coeff


def test_theta_leading_shift_error_messages():
    """A trivial monomial pairs to 0 with any weight, so only its own q-shift counts."""
    with pytest.raises(LimitUndefined, match=r"^theta\(q\^-3\) vanishes identically$"):
        theta_leading(ThetaArgument(ONE, Fraction(-3)), {"a": half})
    with pytest.raises(LimitUndefined, match=r"^theta argument a\^1/2 has no half-integer square root$"):
        theta_leading(ThetaArgument(Monomial.variable("a", half), Fraction(1, 3)), {"a": 1})
