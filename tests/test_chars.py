import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from stablimits.chars import (
    Chamber,
    Character,
    ExponentError,
    Monomial,
    NumericContext,
    ONE,
    RationalExpr,
    VariableSet,
    ZeroFactorError,
    _divide_one_minus,
    rat_from_str,
)


def ch(text: str) -> Character:
    return Character.from_text(text)


def var(name, e=1):
    return Monomial.variable(name, e)


# --- strategies ------------------------------------------------------------

exponents = st.fractions(min_value=-4, max_value=4).map(
    lambda f: Fraction(round(f * 2), 2)
)
monomials = st.dictionaries(
    st.sampled_from(("a", "b", "hbar", "z")), exponents, max_size=3
).map(Monomial)
characters = st.dictionaries(monomials, st.integers(-3, 3).filter(bool), max_size=6).map(
    Character
)
integer_monomials = st.dictionaries(
    st.sampled_from(("a", "b", "hbar")), st.integers(-4, 4), max_size=3
).map(Monomial)
integer_characters = st.dictionaries(
    integer_monomials, st.integers(-3, 3).filter(bool), max_size=8
).map(Character)


# --- monomials ---------------------------------------------------------------


def test_monomial_drops_zero_exponents():
    assert Monomial({"a": 0, "b": 1}) == Monomial({"b": 1})
    assert Monomial({"a": Fraction(0)}).is_trivial


def test_monomial_rejects_thirds():
    with pytest.raises(ExponentError):
        Monomial({"a": Fraction(1, 3)})


def test_monomial_arithmetic():
    m = var("a", Fraction(1, 2)) * var("a", 1) * var("b", -2)
    assert m.exponent("a") == Fraction(3, 2)
    assert (m * m.inverse()).is_trivial
    assert (m ** 2).exponent("b") == -4


def test_monomial_sqrt():
    assert var("a", 3).sqrt() == var("a", Fraction(3, 2))
    with pytest.raises(ExponentError):
        var("a", Fraction(1, 2)).sqrt()


def test_monomial_pairing_only_sees_named_variables():
    m = Monomial({"a": 2, "hbar": 5, "z": -1})
    assert m.pairing({"a": Fraction(1, 2)}) == 1


# A monomial against a plain dict-of-Fraction model rebuilt through Monomial(dict).

_VARS = ("a", "b", "hbar", "z")
exponent_maps = st.dictionaries(st.sampled_from(_VARS), exponents, max_size=4)
weights = st.dictionaries(
    st.sampled_from(_VARS),
    st.integers(-5, 5) | st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12)),
    max_size=4,
)


def _assert_canonical(got: Monomial, model: dict):
    expected = Monomial(model)
    assert got == expected and hash(got) == hash(expected)
    names = [v for v, _ in got.doubled()]
    assert all(v < w for v, w in zip(names, names[1:]))
    assert all(type(e2) is int and e2 for _, e2 in got.doubled())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exponent_maps, exponent_maps, st.integers(-3, 3), st.sets(st.sampled_from(_VARS)), weights)
def test_monomial_operations_keep_the_canonical_form(x, y, n, names, weight):
    mx, my = Monomial(x), Monomial(y)
    _assert_canonical(mx, x)
    _assert_canonical(mx * my, {v: x.get(v, 0) + y.get(v, 0) for v in x | y})
    _assert_canonical(mx / my, {v: x.get(v, 0) - y.get(v, 0) for v in x | y})
    _assert_canonical(mx ** n, {v: e * n for v, e in x.items()})
    _assert_canonical(mx.inverse(), {v: -e for v, e in x.items()})
    _assert_canonical(mx.restrict(names), {v: e for v, e in x.items() if v in names})
    _assert_canonical(mx.drop(names), {v: e for v, e in x.items() if v not in names})
    if all(e.denominator == 1 for e in x.values()):
        _assert_canonical(mx.sqrt(), {v: e / 2 for v, e in x.items()})
    else:
        with pytest.raises(ExponentError):
            mx.sqrt()
    paired = mx.pairing(weight)
    assert type(paired) is Fraction
    assert paired == sum((e * weight[v] for v, e in x.items() if v in weight), Fraction(0))


# --- characters --------------------------------------------------------------


def test_text_round_trip():
    c = ch("1*a + 1*a^2")
    assert c == Character({var("a"): 1, var("a", 2): 1})
    assert Character.from_text(c.to_text()) == c


def test_json_round_trip_is_bit_exact():
    c = Character({var("a", Fraction(3, 2)) * var("hbar", -1): -2, ONE: 7})
    blob = c.to_json()
    assert Character.from_json(blob) == c
    # serializing twice gives the identical structure
    assert Character.from_json(blob).to_json() == blob


def test_conjugate_examples():
    assert ch("1*a + 1*a^2").conjugate() == ch("1*a^-1 + 1*a^-2")
    assert ch("1*hbar*a^-2").conjugate() == ch("1*hbar^-1*a^2")
    assert Character.zero().conjugate() == Character.zero()


@given(characters)
def test_conjugate_is_an_involution(c):
    assert c.conjugate().conjugate() == c


@given(characters, characters)
def test_conjugate_is_a_ring_homomorphism(u, v):
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()
    assert (u + v).conjugate() == u.conjugate() + v.conjugate()


def test_rank_examples():
    assert ch("1*a + 1*a^2").rank() == 2
    assert ch("2*a + 1*a^2 + -1*a^-1").rank() == 2
    assert Character.zero().rank() == 0


def test_determinant_examples():
    assert ch("1*a + 1*a^2").determinant() == var("a", 3)
    assert ch("2*a + 1*a^2 + -1*a^-1").determinant() == var("a", 5)
    assert Character.zero().determinant() == ONE


def test_chamber_split_examples():
    c = ch("2*a + 1*a^2 + -1*a^-1")
    pos, zero, neg = c.chamber_split({"a": Fraction(-1)})
    assert pos == ch("-1*a^-1")
    assert zero.is_zero
    assert neg == ch("2*a + 1*a^2")

    pos, zero, neg = ch("1*a + 1*a^2").chamber_split({"a": Fraction(1)})
    assert pos == ch("1*a + 1*a^2") and zero.is_zero and neg.is_zero

    pos, zero, neg = Character({ONE: 3}).chamber_split({"a": Fraction(1)})
    assert zero == Character({ONE: 3}) and pos.is_zero and neg.is_zero


@given(characters)
def test_chamber_split_recombines_and_flips(c):
    direction = {"a": Fraction(2), "b": Fraction(-1)}
    pos, zero, neg = c.chamber_split(direction)
    assert pos + zero + neg == c
    opp = Chamber(direction).opposite()
    pos2, zero2, neg2 = c.chamber_split(opp.direction)
    assert pos2 == neg and neg2 == pos and zero2 == zero


def test_chamber_scaling_gives_same_split():
    c = ch("2*a + 1*a^2 + -1*a^-1")
    assert c.chamber_split({"a": Fraction(1)}) == c.chamber_split({"a": Fraction(2)})


def test_floor_pairing_examples():
    assert ch("1*a + 1*a^2").floor_pairing({"a": Fraction(1, 2)}) == 1
    assert ch("-1*a^-1").floor_pairing({"a": Fraction(1, 2)}) == 1
    assert Character.zero().floor_pairing({"a": Fraction(7, 3)}) == 0


@given(characters, characters)
def test_floor_pairing_is_additive(u, v):
    w = {"a": Fraction(1, 2), "b": Fraction(-2, 3)}
    assert (u + v).floor_pairing(w) == u.floor_pairing(w) + v.floor_pairing(w)


def test_invariant_part_examples():
    w = {"a": Fraction(1, 2)}
    assert ch("1*a + 1*a^2").invariant_part(w) == ch("1*a^2")
    assert ch("1*hbar*a^-1 + 1*hbar*a^-2").invariant_part(w) == ch("1*hbar*a^-2")
    c = ch("1*a + 1*a^2 + -3*hbar")
    assert c.invariant_part({"a": Fraction(0)}) == c


@given(characters, characters)
def test_invariant_part_is_multiplicative_on_invariants(u, v):
    w = {"a": Fraction(1, 2), "b": Fraction(1, 3)}
    ui, vi = u.invariant_part(w), v.invariant_part(w)
    # the product of invariant parts is contained in the invariant part of the product
    prod_inv = (u * v).invariant_part(w)
    assert (ui * vi).invariant_part(w) == ui * vi
    # term-set containment check on the fully invariant product
    assert (ui * vi + prod_inv).invariant_part(w) == ui * vi + prod_inv


def test_s_hat_examples():
    assert ch("1*a").s_hat() == RationalExpr(ch("1*a^1/2 + -1*a^-1/2"))
    assert ch("1*hbar*a^-2").s_hat() == RationalExpr(
        ch("1*hbar^1/2*a^-1 + -1*hbar^-1/2*a")
    )
    assert (ch("1*a") - ch("1*a")).s_hat() == RationalExpr.one()


def test_s_hat_zero_flags():
    assert Character({ONE: 1}).s_hat().is_zero
    with pytest.raises(ZeroFactorError):
        Character({ONE: -1}).s_hat()


def test_exterior_euler_examples():
    assert ch("1*a^-2").exterior_euler() == RationalExpr(ch("1 + -1*a^-2"))
    assert ch("1*hbar^-1*a^2").exterior_euler() == RationalExpr(ch("1 + -1*hbar^-1*a^2"))
    expected = RationalExpr(ch("1 + -1*a") * ch("1 + -1*b"))
    assert (ch("1*a") + ch("1*b")).exterior_euler() == expected


@given(integer_characters)
def test_s_hat_bridge_identity(c):
    """s_hat(V) == (-1)^rank det(V)^(-1/2) Euler(V), cross-multiplied."""
    assume(c.multiplicity(ONE) >= 0)  # s_hat(1) = 0 may not sit in a denominator
    lhs = c.s_hat()
    try:
        det_half_inv = c.determinant().sqrt().inverse()
    except ExponentError:
        return  # determinant with odd exponent sum: outside the half lattice
    rhs = c.exterior_euler().times_monomial(det_half_inv)
    if c.rank() % 2:
        rhs = -rhs
    assert lhs == rhs


def test_rational_expr_equality_by_cross_multiplication():
    a = ch("1*a")
    one = Character.one()
    e1 = RationalExpr(a * a - one, a - one)  # (a^2-1)/(a-1)
    e2 = RationalExpr(a + one)  # a+1
    assert e1 == e2
    assert RationalExpr(a, a) == RationalExpr.one()


def test_rational_expr_arithmetic():
    a = ch("1*a")
    x = RationalExpr(Character.one(), Character.one() - a)  # 1/(1-a)
    y = RationalExpr(a, Character.one() - a)  # a/(1-a)
    assert x + y == RationalExpr(Character.one() + a, Character.one() - a)
    assert (x * y).den == (Character.one() - a) * (Character.one() - a)
    assert x - x == RationalExpr.zero()
    assert x / x == RationalExpr.one()


def test_degree_span():
    a = ch("1*a")
    expr = RationalExpr(a * a + a, Character.one() - a)  # (a^2+a)/(1-a)
    assert expr.degree_span(("a",)) == (Fraction(1), Fraction(1))


def test_variable_set_validation():
    with pytest.raises(ValueError):
        VariableSet(("a", "a"))
    vs = VariableSet(("a1", "a2"), "hbar", ("z",))
    assert vs.is_equivariant("a1") and vs.is_kahler("z")
    assert not vs.is_equivariant("z")


def test_numeric_context_consistency():
    ctx = NumericContext.from_values({"a": 2.0})
    m = var("a", Fraction(3, 2))
    assert math.isclose(abs(ctx.monomial(m)), 2 ** 1.5)
    assert math.isclose(abs(ctx.monomial_sqrt(m) ** 2 - ctx.monomial(m)), 0, abs_tol=1e-12)


def test_exponent_is_an_int_when_integral():
    m = Monomial({"a": 2, "hbar": Fraction(-3, 2), "z": Fraction(4, 2)})
    assert type(m.exponent("a")) is int and m.exponent("a") == 2
    assert type(m.exponent("z")) is int and m.exponent("z") == 2
    assert m.exponent("hbar") == Fraction(-3, 2)
    assert type(m.exponent("b")) is int and m.exponent("b") == 0
    assert m == Monomial({"a": Fraction(2), "hbar": -1.5, "z": 2})
    with pytest.raises(ExponentError):
        Monomial({"a": Fraction(1, 3)})


def test_divide_one_minus():
    a = var("a")
    assert _divide_one_minus(ch("1 + -1*a^2"), a) == ch("1 + 1*a")
    assert _divide_one_minus(ch("1 + -1*a"), a.inverse()) == ch("-1*a")
    assert _divide_one_minus(ch("1 + -1*a"), var("a", Fraction(1, 2))) == ch("1 + 1*a^1/2")
    assert _divide_one_minus(
        ch("1 + 1*b + -1*a*hbar^-1 + -1*a*b*hbar^-1"), Monomial({"a": 1, "hbar": -1})
    ) == ch("1 + 1*b")
    assert _divide_one_minus(Character.zero(), a).is_zero
    # not exact: a nonzero rank, and a zero rank that still leaves a remainder
    assert _divide_one_minus(ch("1 + 1*a"), a) is None
    assert _divide_one_minus(ch("1 + -1*a^3"), a ** 2) is None
    assert _divide_one_minus(ch("1 + -1*a^1/2"), a) is None


@settings(max_examples=50)
@given(characters, monomials)
def test_divide_one_minus_undoes_the_product(q, m):
    assume(not m.is_trivial)
    product = q * Character({ONE: 1, m: -1})
    assert _divide_one_minus(product, m) == q
    assert _divide_one_minus(product + Character.monomial(m ** 3), m) is None


def test_equality_leaves_operands_unchanged():
    a, b = var("a"), var("b")
    x = RationalExpr.factored(ch("1 + 1*b"), {a: 2, b.inverse(): 1}, ch("2 + 1*b"))
    whole = RationalExpr(x.num, x.den)

    def state(e):
        return e.num, e.rest, e.num.to_text(), e.rest.to_text(), dict(e.factors)

    before = [state(e) for e in (x, whole)]
    assert x == whole and whole == x
    assert not (whole == x.times_monomial(a))
    after = [state(e) for e in (x, whole)]
    assert all(s0[0] is s1[0] and s0[1] is s1[1] for s0, s1 in zip(before, after))
    assert after == before


# Integer floors of the pairings against floors of exact Fraction pairings.

def _fraction_pairings(c: Character, weight: dict):
    for m, mult in c.items():
        p = sum((e * Fraction(weight[v]) for v, e in m.exponents().items() if v in weight),
                Fraction(0))
        yield mult, p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(characters | st.just(Character.zero()), weights)
def test_integer_floor_pairings_match_fraction_floors(c, weight):
    floor = sum(mult * math.floor(p) for mult, p in _fraction_pairings(c, weight))
    symmetric = sum((mult * Fraction(math.floor(p) + math.ceil(p), 2)
                     for mult, p in _fraction_pairings(c, weight)), Fraction(0))
    got = c.floor_pairing(weight)
    assert got == floor and type(got) is int
    got = c.symmetric_floor_pairing(weight)
    assert got == symmetric and type(got) is Fraction


# --- rat_from_str and hashing --------------------------------------------------


def _parse_outcome(parse, text):
    try:
        value = parse(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


_RAT_TEXTS = ["0", "-0", "7", "-12", "007", "+3", "-", "", "--3", "+-3", " 5", "5 ", "1_000",
              "1__0", "_1", "٣", "-٣", "²", "3/2", "-3/2", "1.5", "1e3", "0x10", "abc"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_RAT_TEXTS) | st.text(alphabet="0123456789-+_/ .e٣²x", max_size=6))
def test_rat_from_str_accepts_and_rejects_as_fraction_does(text):
    """The integer fast path of rat_from_str gives the value Fraction's own
    parse gives, and every string Fraction rejects is still rejected alike."""
    assert _parse_outcome(rat_from_str, text) == _parse_outcome(Fraction, text)


def test_rational_expr_is_unhashable():
    """No canonical form exists, so equal values could not hash alike."""
    with pytest.raises(TypeError):
        hash(RationalExpr.one())
    assert RationalExpr(ch("1 + -1*a"), ch("1 + -1*a^2")) == RationalExpr(ch("1"), ch("1 + 1*a"))
