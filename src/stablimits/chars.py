"""Exact algebra of equivariant characters.

Characters are finite integer-multiplicity sums of monomials in named
variables with half-integer exponents.  Everything here is immutable and
exact: exponents are stored as doubled integers and coefficients are plain
ints.  A monomial is a name-sorted, zero-free tuple of (variable, doubled
exponent) pairs: only one built from a mapping sorts, a product merges two
sorted tuples, powers, inverses, square roots and restrictions keep their
order, and a pairing with a rational weight is integer arithmetic with one
Fraction result.  A rational function of characters is a numerator over a
general character times a multiset of (1 - m) factors, the shape of every
denominator the limit engine creates.  Sums, quotients and equality take the
least common multiple of the two multisets, and only then cross-multiply;
where (1 - m) on the left meets (1 - 1/m) on the right, the right one is
rewritten as (1 - 1/m) == -(1/m)(1 - m).  Equality first moves each factor
that exactly divides the other side's remainder (as read whole from JSON) into
that side's multiset, by long division.  Equality is exact.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Mapping

Rat = int | Fraction


class ExponentError(ValueError):
    """An exponent fell outside the half-integer lattice."""


class ZeroFactorError(ZeroDivisionError):
    """A multiplicative functional hit the zero factor (trivial monomial)."""


def _as_doubled(e: Rat) -> int:
    if isinstance(e, int):
        return 2 * e
    f = e if isinstance(e, Fraction) else Fraction(e)
    if f.denominator not in (1, 2):
        raise ExponentError(f"exponent {f} is not a half-integer")
    return f.numerator * (2 // f.denominator)


def rat_to_str(r: Rat) -> str:
    """Serialize a rational as 'p' or 'p/q'."""
    f = Fraction(r)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rat_from_str(s: str | int | float) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        if not s.is_integer():
            raise ExponentError(f"non-integral float {s!r} in rational position")
        return Fraction(int(s))
    if isinstance(s, str) and s.removeprefix("-").isdigit() and s.isascii():
        return Fraction(int(s))  # a decimal integer, such as every q-shift "0", skips the regex
    return Fraction(s)


def one_minus_power(m: "Monomial", k: int) -> "Character":
    """(1 - m)^k for k >= 0, by the binomial theorem."""
    return Character({m ** j: (-1) ** j * math.comb(k, j) for j in range(k + 1)})


class Monomial:
    """A product of named variables raised to half-integer powers.

    Absent variables carry exponent zero; two monomials are equal iff their
    exponent maps are equal.  ``_exp2`` holds the (variable, doubled
    exponent) pairs, sorted by name, none zero.  Only a mapping is sorted;
    ``*`` merges two sorted tuples, and ``**``, ``inverse``, ``sqrt``,
    ``restrict`` and ``drop`` keep their input's order.  ``pairing`` is
    exact integer arithmetic with one Fraction result.
    """

    __slots__ = ("_exp2", "_hash")

    def __init__(self, exponents: Mapping[str, Rat] | None = None):
        items = []
        if exponents:
            for var, e in exponents.items():
                e2 = _as_doubled(e)
                if e2:
                    items.append((var, e2))
        items.sort()
        self._exp2: tuple[tuple[str, int], ...] = tuple(items)
        self._hash = hash(self._exp2)

    @classmethod
    def _sorted(cls, items: Iterable[tuple[str, int]]) -> "Monomial":
        """From name-sorted (variable, doubled exponent) pairs; drops zeros, does not sort."""
        m = object.__new__(cls)
        m._exp2 = tuple(p for p in items if p[1])
        m._hash = hash(m._exp2)
        return m

    @classmethod
    def variable(cls, name: str, exponent: Rat = 1) -> "Monomial":
        return cls._sorted(((name, _as_doubled(exponent)),))

    def exponent(self, var: str) -> Rat:
        """The exponent of var: an int when integral, else a half-integer Fraction."""
        for v, e2 in self._exp2:
            if v == var:
                return Fraction(e2, 2) if e2 % 2 else e2 // 2
        return 0

    def exponents(self) -> dict[str, Fraction]:
        return {v: Fraction(e2, 2) for v, e2 in self._exp2}

    def doubled(self) -> tuple[tuple[str, int], ...]:
        """The name-sorted (variable, 2 * exponent) pairs with nonzero exponent."""
        return self._exp2

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self._exp2)

    @property
    def is_trivial(self) -> bool:
        return not self._exp2

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self._exp2, other._exp2
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (va, ea), (vb, eb) = a[i], b[j]
            if va == vb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif va < vb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return Monomial._sorted((*out, *a[i:], *b[j:]))

    def __pow__(self, n: int) -> "Monomial":
        if n == 1:
            return self
        return Monomial._sorted((v, e2 * n) for v, e2 in self._exp2)

    def inverse(self) -> "Monomial":
        return Monomial._sorted((v, -e2) for v, e2 in self._exp2)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inverse()

    def sqrt(self, n: int = 1) -> "Monomial":
        """The n-th power of the square root, in one step; requires every exponent to be integral."""
        if any(e2 % 2 for _, e2 in self._exp2):
            raise ExponentError(f"square root of {self} leaves the half-integer lattice")
        return Monomial._sorted([(v, e2 // 2 * n) for v, e2 in self._exp2])

    def restrict(self, variables: Collection[str]) -> "Monomial":
        return Monomial._sorted((v, e2) for v, e2 in self._exp2 if v in variables)

    def drop(self, variables: Collection[str]) -> "Monomial":
        return Monomial._sorted((v, e2) for v, e2 in self._exp2 if v not in variables)

    def pairing_ratio(self, weight: Mapping[str, Rat]) -> tuple[int, int]:
        """Sum of exponent(v) * weight[v] over the weight's variables, as the
        unreduced integers (num, 2 den), den a multiple of every weight denominator seen."""
        num, den = 0, 1
        for v, e2 in self._exp2:
            w = weight.get(v)
            if w is not None:
                d = w.denominator
                if den % d:
                    num *= d
                    den *= d
                num += e2 * w.numerator * (den // d)
        return num, 2 * den

    def pairing(self, weight: Mapping[str, Rat]) -> Fraction:
        """The pairing ratio as one Fraction."""
        return Fraction(*self.pairing_ratio(weight))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._exp2 == other._exp2

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self, variable_order: tuple[str, ...] | None = None) -> tuple:
        if variable_order is None:
            variable_order = self.variables()
        known = {v: i for i, v in enumerate(variable_order)}
        vec = [0] * len(variable_order)
        extra = []
        for v, e2 in self._exp2:
            if v in known:
                vec[known[v]] = e2
            else:
                extra.append((v, e2))
        return (tuple(vec), tuple(extra))

    def __repr__(self) -> str:
        return f"Monomial({self.to_text() or '1'})"

    def to_text(self) -> str:
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.to_json().items())

    def to_json(self) -> dict[str, str | int]:
        return {v: f"{e2}/2" if e2 % 2 else e2 // 2 for v, e2 in self._exp2}

    @classmethod
    def from_json(cls, data: Mapping[str, str | int | float]) -> "Monomial":
        return cls._sorted(sorted((v, 2 * e if isinstance(e, int) else _as_doubled(rat_from_str(e)))
                                  for v, e in data.items()))


ONE = Monomial()


_TERM_RE = re.compile(r"^(?P<coef>[+-]?\d+)(?P<rest>(\*[A-Za-z_][A-Za-z_0-9]*(\^-?\d+(/\d+)?)?)*)$")


class Character:
    """Finite sum of monomials with nonzero integer multiplicities."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        if terms:
            self._terms: dict[Monomial, int] = {m: c for m, c in terms.items() if c}
        else:
            self._terms = {}

    @classmethod
    def zero(cls) -> "Character":
        return cls()

    @classmethod
    def one(cls) -> "Character":
        return cls({ONE: 1})

    @classmethod
    def monomial(cls, m: Monomial, mult: int = 1) -> "Character":
        return cls({m: mult})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Monomial, int]]) -> "Character":
        acc: dict[Monomial, int] = {}
        for m, c in terms:
            acc[m] = acc.get(m, 0) + c
        return cls(acc)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def multiplicity(self, m: Monomial) -> int:
        return self._terms.get(m, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Character") -> "Character":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) + c
        return Character(acc)

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __neg__(self) -> "Character":
        return Character({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Character | int") -> "Character":
        if isinstance(other, int):
            return Character({m: c * other for m, c in self._terms.items()})
        acc: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                acc[m] = acc.get(m, 0) + c1 * c2
        return Character(acc)

    __rmul__ = __mul__

    def times_monomial(self, m: Monomial) -> "Character":
        return Character({t * m: c for t, c in self._terms.items()})

    def conjugate(self) -> "Character":
        """Negate every exponent of every variable (an involution)."""
        return Character({m.inverse(): c for m, c in self._terms.items()})

    def rank(self) -> int:
        """Signed sum of multiplicities."""
        return sum(self._terms.values())

    def determinant(self) -> Monomial:
        """Product over terms of monomial**multiplicity."""
        acc: dict[str, int] = {}
        for m, c in self._terms.items():
            for v, e2 in m._exp2:
                acc[v] = acc.get(v, 0) + e2 * c
        return Monomial._sorted(sorted(acc.items()))

    def chamber_split(self, direction: Mapping[str, Rat]) -> tuple["Character", "Character", "Character"]:
        """Partition terms by the sign of the pairing with a chamber direction.

        Only variables named in ``direction`` grade the sign; all others
        (hbar, Kahler parameters) are invisible to the chamber.
        """
        pos: dict[Monomial, int] = {}
        zer: dict[Monomial, int] = {}
        neg: dict[Monomial, int] = {}
        for m, c in self._terms.items():
            p, _ = m.pairing_ratio(direction)  # the sign of the numerator is the sign
            (pos if p > 0 else neg if p < 0 else zer)[m] = c
        return Character(pos), Character(zer), Character(neg)

    def _floors(self, weight: Mapping[str, Rat]) -> Iterator[tuple[int, int, int]]:
        """(mult, floor, ceil) of each term's pairing, from its integer ratio."""
        for m, c in self._terms.items():
            n, d = m.pairing_ratio(weight)
            yield c, n // d, -(-n // d)

    def floor_pairing(self, weight: Mapping[str, Rat]) -> int:
        """Sum of mult * floor(<exponent, weight>), extended linearly, in integers."""
        return sum(c * f for c, f, _ in self._floors(weight))

    def symmetric_floor_pairing(self, weight: Mapping[str, Rat]) -> Fraction:
        """Sum of mult * (floor + ceil)/2 of the pairings, in integers halved by one Fraction.

        Unlike the plain floor, the symmetrized floor is odd under negation,
        so this extension to virtual characters is canonical: conjugating the
        character flips the sign exactly.
        """
        return Fraction(sum(c * (f + g) for c, f, g in self._floors(weight)), 2)

    def invariant_part(self, weight: Mapping[str, Rat]) -> "Character":
        """Terms whose exponents pair integrally with the weight vector."""
        return Character({m: c for m, c in self._terms.items()
                          if (r := m.pairing_ratio(weight))[0] % r[1] == 0})

    def s_hat(self) -> "RationalExpr":
        """Product over terms of (m^(1/2) - m^(-1/2))**mult, each numerator
        power expanded by the binomial theorem.

        A denominator factor is kept as -m^(-1/2) (1 - m).
        """
        num = Character.one()
        rest = Character.one()
        factors: dict[Monomial, int] = {}
        for m, c in self._terms.items():
            if m.is_trivial:
                if c < 0:
                    raise ZeroFactorError("s_hat of the trivial monomial vanishes in a denominator")
                if c > 0:
                    return RationalExpr(Character.zero(), Character.one())
                continue
            root = m.sqrt()
            if c > 0:  # (m^(1/2) - m^(-1/2))^c == m^(c/2) (1 - 1/m)^c
                num = num * one_minus_power(m.inverse(), c).times_monomial(root ** c)
            else:
                rest = rest.times_monomial(root.inverse() ** -c) * (-1) ** -c
                factors[m] = -c
        return RationalExpr.factored(num, factors, rest)

    def exterior_euler(self) -> "RationalExpr":
        """Product over terms of (1 - m)**mult, each numerator power expanded
        by the binomial theorem."""
        num = Character.one()
        factors: dict[Monomial, int] = {}
        for m, c in self._terms.items():
            if m.is_trivial:
                if c < 0:
                    raise ZeroFactorError("(1 - 1) appears in a denominator")
                if c > 0:
                    return RationalExpr(Character.zero(), Character.one())
                continue
            if c > 0:
                num = num * one_minus_power(m, c)
            else:
                factors[m] = -c
        return RationalExpr.factored(num, factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Character) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self, variable_order: tuple[str, ...] | None = None) -> list[tuple[Monomial, int]]:
        if variable_order is None:
            seen: list[str] = []
            for m in self._terms:
                for v in m.variables():
                    if v not in seen:
                        seen.append(v)
            variable_order = tuple(sorted(seen))
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key(variable_order))

    def __repr__(self) -> str:
        return f"Character({self.to_text()})"

    def to_text(self, variable_order: tuple[str, ...] | None = None) -> str:
        """Canonical text form: terms like ``-2*a^3/2*hbar^-1`` joined by ' + '."""
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.sorted_terms(variable_order):
            txt = m.to_text()
            parts.append(f"{c}*{txt}" if txt else str(c))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "Character":
        text = text.strip()
        if text == "0":
            return cls.zero()
        acc: dict[Monomial, int] = {}
        for chunk in text.split(" + "):
            chunk = chunk.strip()
            match = _TERM_RE.match(chunk)
            if match is None:
                if re.fullmatch(r"[+-]?\d+", chunk):
                    coef, rest = int(chunk), ""
                else:
                    raise ValueError(f"cannot parse character term {chunk!r}")
            else:
                coef = int(match.group("coef"))
                rest = match.group("rest")
            exps: dict[str, Fraction] = {}
            for factor in filter(None, rest.split("*")):
                if "^" in factor:
                    var, _, e = factor.partition("^")
                    exps[var] = exps.get(var, Fraction(0)) + Fraction(e)
                else:
                    exps[factor] = exps.get(factor, Fraction(0)) + 1
            m = Monomial(exps)
            acc[m] = acc.get(m, 0) + coef
        return cls(acc)

    def to_json(self) -> dict:
        terms = [
            {"exp": m.to_json(), "mult": c}
            for m, c in self.sorted_terms(None)
        ]
        return {"terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> "Character":
        acc: dict[Monomial, int] = {}
        for t in data["terms"]:
            m = Monomial.from_json(t["exp"])
            acc[m] = acc.get(m, 0) + int(t["mult"])
        return cls(acc)


@dataclass(frozen=True)
class VariableSet:
    """Session-wide variable names: equivariant, hbar, and Kahler symbols."""

    equivariant: tuple[str, ...]
    hbar: str = "hbar"
    kahler: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.all_names
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct, got {names}")

    @property
    def all_names(self) -> tuple[str, ...]:
        return self.equivariant + (self.hbar,) + self.kahler

    def is_equivariant(self, name: str) -> bool:
        return name in self.equivariant

    def is_kahler(self, name: str) -> bool:
        return name in self.kahler


@dataclass(frozen=True)
class Chamber:
    """A cone direction in the equivariant weight space, one rational per variable."""

    direction: Mapping[str, Fraction]

    def __post_init__(self):
        if not any(Fraction(v) for v in self.direction.values()):
            raise ValueError("chamber direction must be nonzero")

    def opposite(self) -> "Chamber":
        return Chamber({v: -Fraction(d) for v, d in self.direction.items()})


def _times_one_minus(ch: Character, m: Monomial) -> Character:
    """ch * (1 - m), one monomial product per term."""
    acc = dict(ch._terms)
    for t, c in ch._terms.items():
        tm = t * m
        acc[tm] = acc.get(tm, 0) - c
    return Character(acc)


def _expand(ch: Character, factors: Mapping[Monomial, int]) -> Character:
    """ch * prod (1 - m)^k."""
    # Not ch * one_minus_power(m, k): nearly every k is 1, where that extra
    # character and full product cost the sections benchmark ~8% of ops_per_s.
    for m, k in factors.items():
        for _ in range(k):
            ch = _times_one_minus(ch, m)
    return ch


def _divide_one_minus(ch: Character, m: Monomial) -> Character | None:
    """ch / (1 - m) if the division is exact, else None.

    Long division from the lowest term, graded by m's doubled exponents: the
    lowest remainder term t enters the quotient and moves up to t * m.  A nonzero
    rank, or a t * m past the top grade of ch, means the division is not exact.
    """
    if ch.rank():
        return None
    direction = dict(m._exp2)
    step = sum(e2 * e2 for e2 in direction.values())
    order = itertools.count()  # ties of grade never compare monomials
    heap = [(sum(e2 * direction.get(v, 0) for v, e2 in t._exp2), next(order), t) for t in ch._terms]
    top = max((g for g, _, _ in heap), default=0)
    heapq.heapify(heap)
    rem, quotient = dict(ch._terms), {}
    while heap:
        g, _, t = heapq.heappop(heap)
        c = rem.pop(t, 0)
        if not c:
            continue
        if g + step > top:
            return None
        quotient[t] = c
        tm = t * m
        if tm not in rem:
            heapq.heappush(heap, (g + step, next(order), tm))
        rem[tm] = rem.get(tm, 0) + c
    return Character(quotient)


# How one side reaches a common multiset L: 1/prod F == sign * mono * prod M / prod L.
_Lift = tuple[int, Monomial, dict[Monomial, int]]


def _lcm(f1: Mapping[Monomial, int], f2: Mapping[Monomial, int]) -> tuple[dict[Monomial, int], _Lift, _Lift]:
    """Least common multiple L of two factor multisets, and the lift of each side.

    (1 - m) and (1 - 1/m) are associates, (1 - m) == -m (1 - 1/m), so they
    count together.  L takes each pair in the orientation met first, the
    left side's before the right's; a factor (1 - 1/m) of the other
    orientation is rewritten as 1/(1 - 1/m) == -m/(1 - m).
    """
    if f1 == f2:
        return dict(f1), (1, ONE, {}), (1, ONE, {})
    lcm: dict[Monomial, int] = {}
    lifts = ([1, ONE, {}], [1, ONE, {}])
    seen: set[Monomial] = set()
    for m in (*f1, *f2):
        if m in seen:
            continue
        inv = m.inverse()
        seen.update((m, inv))
        counts = [f.get(m, 0) + f.get(inv, 0) for f in (f1, f2)]
        lcm[m] = max(counts)
        for lift, f, count in zip(lifts, (f1, f2), counts):
            flipped = f.get(inv, 0)
            if flipped:
                lift[0] *= (-1) ** flipped
                lift[1] = lift[1] * m ** flipped
            if lcm[m] > count:
                lift[2][m] = lcm[m] - count
    return lcm, tuple(lifts[0]), tuple(lifts[1])


def _lifted(ch: Character, lift: _Lift) -> Character:
    sign, mono, factors = lift
    if not mono.is_trivial:
        ch = ch.times_monomial(mono)
    if sign < 0:
        ch = -ch
    return _expand(ch, factors)


class RationalExpr:
    """Exact rational function num / (rest * prod (1 - m)^k).

    The denominator is kept factored: a multiset ``factors`` of monomials m,
    each standing for a (1 - m) factor of multiplicity k, times a general
    character ``rest``.  Every denominator the limit engine creates is of
    this shape; a denominator given to the constructor (or read from JSON)
    is kept whole in ``rest``.  ``den`` expands the product.

    Products add the multisets.  Sums, quotients and equality first bring
    both sides to the least common multiple of their multisets, which
    cancels shared factors before any cross-multiplication.  Since
    (1 - m) == -m (1 - 1/m), a (1 - 1/m) on the right operand that meets a
    (1 - m) on the left is rewritten in the left's orientation, as
    1/(1 - 1/m) == -m/(1 - m), and only there, at merge time.  Equality
    first divides copies of each ``rest`` by the other side's (1 - m) factors,
    one at a time, and moves each exact divisor into the copy's multiset.
    Equality stays exact.
    """

    __slots__ = ("num", "rest", "factors")

    def __init__(self, num: Character, den: Character | None = None):
        if den is None:
            den = Character.one()
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in RationalExpr")
        self.num = num
        self.rest = den
        self.factors: dict[Monomial, int] = {}

    @classmethod
    def factored(
        cls,
        num: Character,
        factors: Mapping[Monomial, int],
        rest: Character | None = None,
    ) -> "RationalExpr":
        """num / (rest * prod over factors of (1 - m)^k)."""
        if any(m.is_trivial for m, k in factors.items() if k):
            raise ZeroFactorError("(1 - 1) appears in a denominator")
        out = cls(num, rest)
        out.factors = {m: k for m, k in factors.items() if k}
        return out

    @classmethod
    def zero(cls) -> "RationalExpr":
        return cls(Character.zero())

    @classmethod
    def one(cls) -> "RationalExpr":
        return cls(Character.one())

    @classmethod
    def from_monomial(cls, m: Monomial, sign: int = 1) -> "RationalExpr":
        return cls(Character.monomial(m, sign))

    @property
    def den(self) -> Character:
        """The expanded denominator rest * prod (1 - m)^k."""
        return _expand(self.rest, self.factors)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __mul__(self, other: "RationalExpr | Character | int") -> "RationalExpr":
        if isinstance(other, RationalExpr):
            factors = dict(self.factors)
            for m, k in other.factors.items():
                factors[m] = factors.get(m, 0) + k
            return RationalExpr.factored(self.num * other.num, factors, self.rest * other.rest)
        return RationalExpr.factored(self.num * other, self.factors, self.rest)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalExpr") -> "RationalExpr":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero expression")
        # n1 / (r1 F1) over n2 / (r2 F2) == n1 r2 (L/F1) / (r1 n2 (L/F2))
        _, lift1, (sign2, mono2, factors2) = _lcm(self.factors, other.factors)
        rest = (self.rest * other.num).times_monomial(mono2) * sign2
        return RationalExpr.factored(_lifted(self.num * other.rest, lift1), factors2, rest)

    def _over_common(self, other: "RationalExpr") -> tuple[Character, Character, dict[Monomial, int]]:
        """Numerators of both sides over their common denominator, and its multiset."""
        lcm, lift1, lift2 = _lcm(self.factors, other.factors)
        if self.rest == other.rest:
            n1, n2 = self.num, other.num
        else:
            n1, n2 = self.num * other.rest, other.num * self.rest
        return _lifted(n1, lift1), _lifted(n2, lift2), lcm

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        n1, n2, lcm = self._over_common(other)
        rest = self.rest if self.rest == other.rest else self.rest * other.rest
        return RationalExpr.factored(n1 + n2, lcm, rest)

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return self + (-other)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr.factored(-self.num, self.factors, self.rest)

    def times_monomial(self, m: Monomial) -> "RationalExpr":
        return RationalExpr.factored(self.num.times_monomial(m), self.factors, self.rest)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalExpr):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        n1, n2, _ = self._absorb(other.factors)._over_common(other._absorb(self.factors))
        return n1 == n2

    def _absorb(self, factors: Mapping[Monomial, int]) -> "RationalExpr":
        """The same value with each (1 - m) of factors that divides rest moved into the multiset."""
        rest, own = self.rest, dict(self.factors)
        for m, k in factors.items():
            for _ in range(k - own.get(m, 0) - own.get(m.inverse(), 0)):
                quotient = _divide_one_minus(rest, m)
                if quotient is None:
                    break
                rest, own[m] = quotient, own.get(m, 0) + 1
        return self if rest is self.rest else RationalExpr.factored(self.num, own, rest)

    __hash__ = None  # equal values have many forms, and none is canonical

    def degree_span(self, variables: Collection[str]) -> tuple[Fraction, Fraction] | None:
        """[min, max] exponent span in the given variables, num minus den endpoint-wise.
        Laurent polynomials have no zero divisors, so den's span is read unexpanded:
        that of rest plus k times that of each (1 - m)^k."""
        if self.is_zero:
            return None

        def degree(m: Monomial) -> int:  # doubled
            return sum(e2 for v, e2 in m._exp2 if v in variables)

        num = [degree(m) for m in self.num._terms]
        rest = [degree(m) for m in self.rest._terms]
        lo = min(rest) + sum(k * min(degree(m), 0) for m, k in self.factors.items())
        hi = max(rest) + sum(k * max(degree(m), 0) for m, k in self.factors.items())
        return Fraction(min(num) - lo, 2), Fraction(max(num) - hi, 2)

    def __repr__(self) -> str:
        return f"RationalExpr(({self.num.to_text()}) / ({self.den.to_text()}))"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: Mapping) -> "RationalExpr":
        return cls(Character.from_json(data["num"]), Character.from_json(data["den"]))


class NumericContext:
    """Consistent numeric specialization of monomials with half-integer exponents.

    Stores a fourth root per variable so that both m and sqrt(m) evaluate with
    one fixed branch choice everywhere.
    """

    def __init__(self, quarter_roots: Mapping[str, complex]):
        self._q = dict(quarter_roots)

    @classmethod
    def from_values(cls, values: Mapping[str, complex]) -> "NumericContext":
        return cls({v: complex(x) ** 0.25 for v, x in values.items()})

    def monomial(self, m: Monomial) -> complex:
        out = 1.0 + 0.0j
        for v, e2 in m._exp2:
            out *= self._q[v] ** (2 * e2)
        return out

    def monomial_sqrt(self, m: Monomial) -> complex:
        out = 1.0 + 0.0j
        for v, e2 in m._exp2:
            out *= self._q[v] ** e2
        return out

    def character(self, ch: Character) -> complex:
        return sum((c * self.monomial(m) for m, c in ch.items()), 0.0 + 0.0j)

    def rational(self, expr: RationalExpr) -> complex:
        return self.character(expr.num) / self.character(expr.den)
