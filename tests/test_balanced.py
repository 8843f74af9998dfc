import random
from fractions import Fraction

import pytest

from stablimits.balanced import (
    BalancedExpression,
    BalancedTerm,
    DivergentLimit,
    InconsistentBundle,
    KahlerChamber,
    NormalizationMismatch,
    chamber_correction,
    double_limit,
    evaluate_numeric,
    has_separated_poles,
    is_balanced_in,
    q_limit,
    quasiperiod_pairing,
    random_balanced_expression,
    theta,
    z_limit,
)
from stablimits.chars import (
    Character,
    Monomial,
    NumericContext,
    ONE,
    RationalExpr,
    VariableSet,
)
from stablimits.qseries import LimitUndefined

VARS = VariableSet(("a",), "hbar", ("z",))
half = Fraction(1, 2)


def ch(text):
    return Character.from_text(text)


def two_term_example() -> BalancedExpression:
    """theta(az)/(theta(a)theta(z)) + theta(a^2 z)theta(a)/(theta(a^2)theta(az))."""
    t1 = BalancedTerm(ONE, (theta({"a": 1, "z": 1}),), (theta({"a": 1}), theta({"z": 1})))
    t2 = BalancedTerm(
        ONE,
        (theta({"a": 2, "z": 1}), theta({"a": 1})),
        (theta({"a": 2}), theta({"a": 1, "z": 1})),
    )
    return BalancedExpression((t1, t2))


# --- predicates ---------------------------------------------------------------


def test_two_term_example_is_balanced_in_a_and_z_but_not_both():
    expr = two_term_example()
    assert is_balanced_in(expr, ("a",))
    assert is_balanced_in(expr, ("z",))
    assert not is_balanced_in(expr, ("a", "z"))


def test_one_is_balanced_in_anything():
    assert is_balanced_in(BalancedExpression.one(), ("a",))
    assert is_balanced_in(BalancedExpression.one(), ("a", "z"))


def test_separated_poles():
    mixed = BalancedExpression.single(
        (theta({"a": 1}),), (theta({"a": 1, "z": 1}),)
    )
    assert not has_separated_poles(mixed, VARS)
    # the paper-style example has theta(az) downstairs in the second term
    assert not has_separated_poles(two_term_example(), VARS)
    no_denominator = BalancedExpression.single((theta({"a": 1, "z": 1}),), ())
    assert has_separated_poles(no_denominator, VARS)
    hbar_ok = BalancedExpression.single(
        (theta({"a": 1}),), (theta({"a": 2, "hbar": 1}),)
    )
    assert has_separated_poles(hbar_ok, VARS)


def test_quasiperiod_pairing_examples():
    t1 = BalancedExpression.single(
        (theta({"a": 1, "z": 1}),), (theta({"a": 1}), theta({"z": 1}))
    )
    assert quasiperiod_pairing(t1, VARS) == {("a", "z"): 1}
    t2 = BalancedExpression.single(
        (theta({"a": 2, "z": 1}), theta({"a": 1})),
        (theta({"a": 2}), theta({"a": 1, "z": 1})),
    )
    assert quasiperiod_pairing(t2, VARS) == {("a", "z"): 1}
    # the full example agrees term by term, hence is a section of one bundle
    assert quasiperiod_pairing(two_term_example(), VARS) == {("a", "z"): 1}
    assert quasiperiod_pairing(BalancedExpression.one(), VARS) == {}


def test_quasiperiod_pairing_inconsistency_raises():
    t1 = BalancedExpression.single(
        (theta({"a": 1, "z": 1}),), (theta({"a": 1}), theta({"z": 1}))
    )
    t2 = BalancedExpression.single(
        (theta({"a": 1, "z": 2}),), (theta({"a": 1}), theta({"z": 2}))
    )
    with pytest.raises(InconsistentBundle):
        quasiperiod_pairing(t1 + t2, VARS)


def test_quasiperiod_pairing_checks_the_hbar_part():
    # both terms pair (a, z) to 1, but (a, hbar) to 1 and 1/2: sections of
    # two different line bundles
    whole = BalancedExpression.single(
        (theta({"a": 1, "z": 1}), theta({"a": 1, "hbar": 1})),
        (theta({"a": 1}), theta({"z": 1}), theta({"a": 1})),
    )
    halved = BalancedExpression.single(
        (theta({"a": 1, "z": 1, "hbar": half}),), (theta({"a": 1}), theta({"z": 1}))
    )
    with pytest.raises(InconsistentBundle, match=r"\(a, hbar\) .*: 1 vs 1/2"):
        quasiperiod_pairing(whole + halved, VARS)
    # a consistent section whose factors carry hbar, with a fractional
    # (a, hbar) sum, reports only its (a, z) pairing
    also_halved = BalancedExpression.single(
        (theta({"a": 1, "z": 1}), theta({"a": 1, "hbar": half})),
        (theta({"a": 1}), theta({"z": 1}), theta({"a": 1})),
    )
    assert quasiperiod_pairing(halved + also_halved, VARS) == {("a", "z"): 1}


# --- shifting ------------------------------------------------------------------


def test_shift_moves_qshifts_only():
    expr = BalancedExpression.single(
        (theta({"a": 1, "z": 1}),), (theta({"a": 1}),), Monomial({"hbar": 1})
    )
    shifted = expr.shifted({"a": half})
    term = shifted.terms[0]
    assert term.numerator[0].qshift == half
    assert term.denominator[0].qshift == half
    assert term.prefactor == Monomial({"hbar": 1})


def test_shift_is_additive():
    expr = two_term_example()
    once = expr.shifted({"a": half}).shifted({"a": Fraction(1, 3)})
    combined = expr.shifted({"a": half + Fraction(1, 3)})
    assert once == combined
    assert expr.shifted({"a": Fraction(0)}) == expr


# --- q-limit --------------------------------------------------------------------


def test_q_limit_of_empty_expression():
    norm, value = q_limit(BalancedExpression.zero(), {"a": half}, VARS)
    assert norm == ONE and value.is_zero


def test_q_limit_single_factor_normalization():
    expr = BalancedExpression.single(
        (theta({"a": 1, "z": 1}, half),), (theta({"a": 1}, half),)
    )
    norm, value = q_limit(expr, {"a": Fraction(0)}, VARS)
    assert norm == Monomial({"z": -half})
    assert value == RationalExpr.one()


def test_q_limit_two_term_example_at_w_zero():
    # hand computation: -(1-az)/((1-a)(1-z)) + (1-a^2 z)(1-a)/((1-a^2)(1-az))
    norm, value = q_limit(two_term_example(), {"a": Fraction(0)}, VARS)
    assert norm == ONE
    a, z = ch("1*a"), ch("1*z")
    one = Character.one()
    expected = RationalExpr(-(one - a * z), (one - a) * (one - z)) + RationalExpr(
        (one - a * a * z) * (one - a), (one - a * a) * (one - a * z)
    )
    assert value == expected


def test_q_limit_two_term_example_at_w_half():
    # term 1 -> -1/(1-z); term 2 -> z^(-1) (1-a^2 z)/(1-a^2)
    norm, value = q_limit(two_term_example(), {"a": half}, VARS)
    assert norm == Monomial({"z": -1})
    a, z = ch("1*a"), ch("1*z")
    one = Character.one()
    expected = RationalExpr(-(one * z), one - z) + RationalExpr(
        one - a * a * z, one - a * a
    )
    assert value == expected


def test_q_limit_unbalanced_raises():
    expr = BalancedExpression.single((theta({"a": 1}, Fraction(1)),), (theta({"a": 1}),))
    with pytest.raises(LimitUndefined):
        q_limit(expr, {"a": Fraction(0)}, VARS)


def test_q_limit_prefactor_shift_enters_valuation():
    # a^2 * theta(z a)/theta(a): under a -> a q^w the prefactor contributes q^(2w)
    expr = BalancedExpression.single(
        (theta({"a": 1, "z": 1}),), (theta({"a": 1}),), Monomial({"a": 2})
    )
    norm, value = q_limit(expr, {"a": half}, VARS)
    # positive valuation: the term vanishes
    assert value.is_zero
    with pytest.raises(LimitUndefined):
        q_limit(expr, {"a": -half}, VARS)


def test_q_limit_normalization_mismatch():
    t1 = BalancedTerm(ONE, (theta({"a": 1, "z": 1}),), (theta({"a": 1}), theta({"z": 1})))
    t2 = BalancedTerm(
        Monomial({"z": half}),
        (theta({"a": 1, "z": 1}),),
        (theta({"a": 1}), theta({"z": 1})),
    )
    with pytest.raises(NormalizationMismatch):
        q_limit(BalancedExpression((t1, t2)), {"a": Fraction(0)}, VARS)


# --- z-limit --------------------------------------------------------------------


def test_z_limit_examples():
    a, z = ch("1*a"), ch("1*z")
    hbar = ch("1*hbar")
    one = Character.one()
    # z^(1/2) (z - hbar)/(z - 1) with correction z^(-1/2) at infinity -> 1
    value = RationalExpr((z - hbar).times_monomial(Monomial({"z": half})), z - one)
    out = z_limit(value, KahlerChamber({"z": "infinity"}), Monomial({"z": -half}))
    assert out == RationalExpr.one()
    # z-independent values pass through
    value = RationalExpr(one - a, one + a)
    assert z_limit(value, KahlerChamber({"z": "zero"})) == value
    # (1 - a z)/(1 - a) z^(-1/2), correction z^(1/2), z -> 0 gives 1/(1-a)
    value = RationalExpr((one - a * z).times_monomial(Monomial({"z": -half})), one - a)
    out = z_limit(value, KahlerChamber({"z": "zero"}), Monomial({"z": half}))
    assert out == RationalExpr(one, one - a)


def test_z_limit_divergence():
    z = ch("1*z")
    one = Character.one()
    value = RationalExpr(one, z)  # 1/z blows up toward zero
    with pytest.raises(DivergentLimit):
        z_limit(value, KahlerChamber({"z": "zero"}))
    assert z_limit(value, KahlerChamber({"z": "infinity"})).is_zero


def test_chamber_correction_integer_case():
    pairing = {("a", "z"): 2}
    corr = chamber_correction(pairing, {"a": half}, ONE, KahlerChamber({"z": "zero"}))
    assert corr == Monomial({"z": 1})


def test_chamber_correction_cancels_fractional_normalization():
    pairing = {("a", "z"): 1}
    norm = Monomial({"z": -half})
    corr0 = chamber_correction(pairing, {"a": Fraction(0)}, norm, KahlerChamber({"z": "zero"}))
    assert corr0 == Monomial({"z": half})
    corr_inf = chamber_correction(
        pairing, {"a": Fraction(0)}, norm, KahlerChamber({"z": "infinity"})
    )
    assert corr_inf == Monomial({"z": -half})


def test_double_limit_two_term_example_both_chambers():
    # w = 0: sum -> -2a/(1-a^2) at z -> 0 and -2a^2/(1-a^2) at z -> infinity
    expr = two_term_example()
    a = ch("1*a")
    one = Character.one()
    out0 = double_limit(expr, {"a": Fraction(0)}, KahlerChamber({"z": "zero"}), VARS)
    assert out0 == RationalExpr(-2 * a, one - a * a)
    out_inf = double_limit(expr, {"a": Fraction(0)}, KahlerChamber({"z": "infinity"}), VARS)
    assert out_inf == RationalExpr(-2 * a * a, one - a * a)


def test_two_term_example_at_half_shift_with_rounded_corrections():
    # the shifted limit is z^(-1)(1 - 2z + a^2 z^2)/((1-a^2)(1-z)); w*S = 1/2
    # is fractional, so a single correction exponent cannot serve both
    # directions (toward 0 needs >= 1, toward infinity needs <= 0); the
    # chamber-adapted rounding picks the integer branch on the vanishing
    # side and both limits exist
    expr = two_term_example()
    w = {"a": half}
    pairing = quasiperiod_pairing(expr, VARS)
    norm, value = q_limit(expr, w, VARS)
    a = ch("1*a")
    one = Character.one()
    zero = KahlerChamber({"z": "zero"})
    corr = chamber_correction(pairing, w, norm, zero)
    assert (corr * norm).exponent("z") == 0  # rounded up to z^1 against z^-1
    assert z_limit(value, zero, corr * norm) == RationalExpr(one, one - a * a)
    inf = KahlerChamber({"z": "infinity"})
    corr = chamber_correction(pairing, w, norm, inf)
    assert (corr * norm).exponent("z") == -1  # rounded down to z^0
    assert z_limit(value, inf, corr * norm) == RationalExpr(-a * a, one - a * a)


# --- random balanced expressions and the numeric oracle -------------------------


def test_random_expressions_have_consistent_structure():
    rng = random.Random(7)
    for _ in range(50):
        expr = random_balanced_expression(rng, VARS)
        assert is_balanced_in(expr, ("a",))
        quasiperiod_pairing(expr, VARS)  # must not raise


def test_random_expression_limits_exist_and_match_numerics():
    import mpmath as mp
    from oracles import mp_evaluate, mp_monomial, mp_rational, quarter_roots

    rng = random.Random(11)
    values = {"a": 1.23 + 0.31j, "z": 0.67 - 0.45j, "hbar": 1.41 + 0.18j}
    checked = 0
    with mp.workdps(60):
        quarters = quarter_roots(values)
        for _ in range(25):
            expr = random_balanced_expression(rng, VARS)
            r = rng.randint(1, 6)
            w = Fraction(rng.randint(-3 * r, 3 * r), r)
            weight = {"a": w}
            pairing = quasiperiod_pairing(expr, VARS)
            norm, value = q_limit(expr, weight, VARS)
            for direction in ("zero", "infinity"):
                chamber = KahlerChamber({"z": direction})
                corr = chamber_correction(pairing, weight, norm, chamber)
                z_limit(value, chamber, corr * norm)  # must not raise
            # numeric convergence to the limit at the expected rate
            target = mp_monomial(norm, quarters) * mp_rational(value, quarters)
            shifted = expr.shifted(weight)
            errs = [
                abs(mp_evaluate(shifted, mp.mpf(q), quarters) - target)
                for q in (1e-3, 1e-5)
            ]
            scale = max(abs(target), mp.mpf("1e-9"))
            assert errs[1] / scale < 0.25 or errs[1] < errs[0] * 0.5
            checked += 1
    assert checked == 25


def test_integer_shift_changes_limit_by_monomial():
    """q-limits at w and w + 1 differ by a signed monomial in z and hbar
    only (the quasiperiod of each theta factor), never in a."""
    rng = random.Random(23)
    checked = 0
    while checked < 15:
        expr = random_balanced_expression(rng, VARS)
        r = rng.randint(1, 4)
        w = Fraction(rng.randint(-2 * r, 2 * r), r)
        n1, v1 = q_limit(expr, {"a": w}, VARS)
        n2, v2 = q_limit(expr, {"a": w + 1}, VARS)
        if v1.is_zero or v2.is_zero:
            continue
        ratio = (v1 / v2).times_monomial(n1 / n2)
        # derive the candidate monomial from degree spans, then verify exactly
        exps = {}
        for var in ("a", "z", "hbar"):
            lo, hi = ratio.degree_span((var,))
            assert lo == hi, f"ratio not monomial in {var}"
            exps[var] = lo
        assert exps["a"] == 0, "integer shift leaked an a-power"
        candidate = Monomial({k: v for k, v in exps.items() if v})
        assert ratio == RationalExpr.from_monomial(candidate) or ratio == RationalExpr.from_monomial(candidate, -1)
        checked += 1


def test_json_round_trip():
    expr = two_term_example()
    blob = expr.to_json()
    assert BalancedExpression.from_json(blob) == expr
    assert BalancedExpression.from_json(blob).to_json() == blob


def test_evaluate_numeric_matches_the_mpmath_oracle_at_large_shifts():
    """evaluate_numeric reduces each shift by the quasi-period rule, so it
    agrees with the arbitrary-precision oracle on the shifts w = p/r with
    |w| <= 3 of every denominator r <= 4, as theta-verify draws them, one
    section each.  At w = -3 (r = 1 and r = 2) a theta factor alone exceeds
    1e150, and an unreduced float product overflows to nan."""
    import mpmath as mp
    from oracles import mp_evaluate, quarter_roots

    values = {"a": 1.31 + 0.27j, "z": 0.78 - 0.42j, "hbar": 1.12 + 0.51j}
    ctx = NumericContext.from_values(values)
    rng = random.Random(5)
    shifts = [Fraction(p, r) for r in range(1, 5) for p in range(-3 * r, 3 * r + 1)]
    with mp.workdps(60):
        quarters = quarter_roots(values)
        for w in shifts:
            shifted = random_balanced_expression(rng, VARS).shifted({"a": w})
            got = evaluate_numeric(shifted, ctx, 1e-4)
            want = mp_evaluate(shifted, mp.mpf("1e-4"), quarters)
            assert abs(got - complex(want)) < 1e-9 * abs(want), f"w = {w}"
