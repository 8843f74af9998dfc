"""Differential check of the factored RationalExpr against sympy.

Random expressions carry (1 - m) and (1 - 1/m) factors side by side and a
denominator part that is not a binomial.  The oracle is sympy's field of
rational functions in a, z, hbar over the integers, which keeps every
element cancelled (numerator and denominator coprime, via sympy's cancel),
so equality there is equality of rational functions.  Sums, products,
quotients and equality are compared with it, and z_limit in both chambers
with the leading coefficient in z of the sympy value.
"""

import random

import pytest

from stablimits.balanced import DivergentLimit, KahlerChamber, z_limit
from stablimits.chars import Character, Monomial, RationalExpr, _divide_one_minus

sympy = pytest.importorskip("sympy")

NAMES = ("a", "z", "hbar")
FIELD, *GENERATORS = sympy.field(",".join(NAMES), sympy.ZZ)
SYM = dict(zip(NAMES, GENERATORS))
Z_INDEX = NAMES.index("z")


def to_sympy_monomial(m: Monomial):
    out = FIELD.one
    for v, e in m.exponents().items():
        out *= SYM[v] ** int(e)
    return out


def to_sympy_character(ch: Character):
    return sum((c * to_sympy_monomial(m) for m, c in ch.items()), FIELD.zero)


def to_sympy(expr: RationalExpr):
    return to_sympy_character(expr.num) / to_sympy_character(expr.den)


def random_monomial(rng: random.Random, names=NAMES) -> Monomial:
    while True:
        m = Monomial({v: rng.randint(-2, 2) for v in names if rng.random() < 0.6})
        if not m.is_trivial:
            return m


def random_character(rng: random.Random, terms: int) -> Character:
    return Character.from_terms(
        (random_monomial(rng), rng.choice((-2, -1, 1, 2))) for _ in range(terms)
    )


def random_expr(rng: random.Random, pool: list[Monomial]):
    """A factored expression and its sympy value, built independently."""
    factors: dict[Monomial, int] = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(pool)
        if rng.random() < 0.5:
            m = m.inverse()
        factors[m] = factors.get(m, 0) + 1
    num = Character.zero()
    while num.is_zero:
        num = random_character(rng, rng.randint(1, 3))
    rest = Character.one()
    if rng.random() < 0.5:
        rest = Character.from_terms([(Monomial(), 2), (random_monomial(rng), 1)])
        rest = rest + random_character(rng, 1).times_monomial(Monomial({"hbar": 3}))
    value = to_sympy_character(num) / to_sympy_character(rest)
    for m, k in factors.items():
        value /= (1 - to_sympy_monomial(m)) ** k
    return RationalExpr.factored(num, factors, rest), value


def same(x, y) -> bool:
    return x - y == FIELD.zero


def cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        pool = [random_monomial(rng) for _ in range(3)]
        yield random_expr(rng, pool), random_expr(rng, pool)


def test_sum_product_quotient_match_sympy():
    for (x, sx), (y, sy) in cases(11, 100):
        assert same(to_sympy(x), sx)
        assert same(to_sympy(x + y), sx + sy)
        assert same(to_sympy(x - y), sx - sy)
        assert same(to_sympy(x * y), sx * sy)
        if not y.is_zero:
            assert same(to_sympy(x / y), sx / sy)


def test_equality_matches_sympy():
    rng = random.Random(12)
    for (x, sx), (y, sy) in cases(13, 200):
        assert (x == y) == same(sx, sy)
        # the same value with one (1 - m) turned into -m (1 - 1/m)
        m = next(iter(x.factors))
        factors = dict(x.factors)
        factors[m] -= 1
        factors[m.inverse()] = factors.get(m.inverse(), 0) + 1
        flipped = RationalExpr.factored(
            -x.num.times_monomial(m.inverse()), factors, x.rest
        )
        assert flipped == x and x == flipped
        assert same(to_sympy(flipped), sx)
        # and an unequal neighbour
        other = flipped + RationalExpr.from_monomial(random_monomial(rng))
        assert not (other == x)


def whole(x: RationalExpr) -> RationalExpr:
    """x with its denominator expanded into one character, as read from JSON."""
    return RationalExpr(x.num, x.den)


def flipped_whole(x: RationalExpr) -> RationalExpr:
    """x over its factors turned to (1 - 1/m), each with -1/m in the numerator,
    denominator expanded."""
    num, factors = x.num, {}
    for m, k in x.factors.items():
        num = num.times_monomial(m.inverse() ** k) * (-1) ** k
        factors[m.inverse()] = factors.get(m.inverse(), 0) + k
    return whole(RationalExpr.factored(num, factors, x.rest))


def test_equality_with_whole_denominators_matches_sympy():
    rng = random.Random(15)
    q = Monomial({"hbar": 5})  # (1 - hbar^5) divides no denominator drawn here
    for (x, sx), (y, sy) in cases(16, 200):
        for w in (whole(x), flipped_whole(x)):
            assert same(to_sympy(w), sx)
            assert w == x and x == w
            assert (w == y) == same(sx, sy) and (y == w) == same(sx, sy)
            other = RationalExpr(w.num + random_character(rng, 1), w.rest)
            assert not (other == x) and not (x == other)
        # a factor of x that does not divide the other side's whole denominator
        padded = RationalExpr.factored(
            x.num * Character({Monomial(): 1, q: -1}), {**x.factors, q: 1}, x.rest
        )
        assert _divide_one_minus(whole(x).rest, q) is None
        assert padded == whole(x) and whole(x) == padded
        assert (padded == whole(y)) == same(sx, sy)


def sympy_leading(value, direction: str):
    """(exponent, coefficient) of the leading term of value in z."""
    pick = min if direction == "zero" else max

    def extremal(poly):
        e = pick(exps[Z_INDEX] for exps in poly.monoms())
        part = FIELD.zero
        for exps, c in poly.terms():
            if exps[Z_INDEX] == e:
                part += c * to_sympy_monomial(Monomial(dict(zip(NAMES, exps))).drop(("z",)))
        return e, part

    en, cn = extremal(value.numer)
    ed, cd = extremal(value.denom)
    return en - ed, cn / cd


@pytest.mark.parametrize("direction", ["zero", "infinity"])
def test_z_limit_matches_sympy_leading_term(direction):
    chamber = KahlerChamber({"z": direction})
    for (x, sx), _ in cases(14, 100):
        e, coefficient = sympy_leading(sx, direction)
        correction = Monomial({"z": -e, "hbar": 1})
        assert same(to_sympy(z_limit(x, chamber, correction)), coefficient * SYM["hbar"])
        # one power of z off the finite correction: vanishes or diverges
        past = Monomial({"z": -e + (1 if direction == "zero" else -1)})
        assert z_limit(x, chamber, past).is_zero
        with pytest.raises(DivergentLimit):
            z_limit(x, chamber, Monomial({"z": -e + (-1 if direction == "zero" else 1)}))
