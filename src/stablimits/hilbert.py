"""Young-diagram combinatorics for Hilbert-scheme fixed points.

Contents, hooks, polarization characters, index data, the residue
classification of fixed components under a cyclic subgroup, the m-exponents
entering the diagonal conjugation matrices, and the convention calibration
scan that pins down the content/chamber sign pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .chars import Character, Monomial, Rat, rat_to_str


class ComponentMismatch(ValueError):
    """Diagrams fed to a single-component operation disagree on their component."""


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """A partition: weakly decreasing positive row lengths."""

    rows: tuple[int, ...]

    def __post_init__(self):
        if any(r <= 0 for r in self.rows):
            raise ValueError(f"rows must be positive: {self.rows}")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise ValueError(f"rows must be weakly decreasing: {self.rows}")

    @property
    def size(self) -> int:
        return sum(self.rows)

    def boxes(self) -> Iterator[tuple[int, int]]:
        """1-based (row, column) coordinates in row-major order."""
        for i, length in enumerate(self.rows, start=1):
            for j in range(1, length + 1):
                yield i, j

    def column_lengths(self) -> tuple[int, ...]:
        if not self.rows:
            return ()
        return tuple(
            sum(1 for r in self.rows if r >= j) for j in range(1, self.rows[0] + 1)
        )

    def conjugate(self) -> "YoungDiagram":
        return YoungDiagram(self.column_lengths())

    def __str__(self) -> str:
        return ",".join(map(str, self.rows))

    @classmethod
    def from_string(cls, text: str) -> "YoungDiagram":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(p) for p in text.split(",")))


def partitions(n: int) -> list[YoungDiagram]:
    """All partitions of n in descending lexicographic order of rows."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return [YoungDiagram(rows) for rows in gen(n, n)]


CONTENT_SIGNS = ("i-j", "j-i")
ATTRACT_SIGNS = ("pos", "neg")


@dataclass(frozen=True)
class ConventionSet:
    """Content sign (i-j or j-i) and chamber attraction sign (pos or neg)."""

    content: str = "i-j"
    attract: str = "neg"

    def __post_init__(self):
        if self.content not in CONTENT_SIGNS:
            raise ValueError(f"content must be one of {CONTENT_SIGNS}")
        if self.attract not in ATTRACT_SIGNS:
            raise ValueError(f"attract must be one of {ATTRACT_SIGNS}")

    def chamber_direction(self, var: str = "a") -> dict[str, Fraction]:
        return {var: Fraction(1 if self.attract == "pos" else -1)}

    def __str__(self) -> str:
        return f"({self.content}, {self.attract})"


DEFAULT_CONVENTION = ConventionSet()


def contents(diagram: YoungDiagram, conv: ConventionSet = DEFAULT_CONVENTION) -> list[int]:
    if conv.content == "i-j":
        return [i - j for i, j in diagram.boxes()]
    return [j - i for i, j in diagram.boxes()]


def hooks(diagram: YoungDiagram) -> list[int]:
    cols = diagram.column_lengths()
    return [
        (diagram.rows[i - 1] - j) + (cols[j - 1] - i) + 1 for i, j in diagram.boxes()
    ]


def d_lambda(diagram: YoungDiagram, conv: ConventionSet = DEFAULT_CONVENTION) -> int:
    return sum(contents(diagram, conv))


def polarization(
    diagram: YoungDiagram, conv: ConventionSet = DEFAULT_CONVENTION, var: str = "a"
) -> Character:
    """Sum over ordered content pairs of a^(c_i - c_j + 1) - a^(c_i - c_j),
    plus sum over boxes of a^(c_i).  Multiplicities are summed on the integer
    exponents, and one monomial is built per distinct exponent."""
    cs = contents(diagram, conv)
    acc: dict[int, int] = {}
    for ci in cs:
        for cj in cs:
            e = ci - cj
            acc[e + 1] = acc.get(e + 1, 0) + 1
            acc[e] = acc.get(e, 0) - 1
        acc[ci] = acc.get(ci, 0) + 1
    return Character({Monomial.variable(var, e): c for e, c in acc.items()})


def sigma(diagram: YoungDiagram, conv: ConventionSet = DEFAULT_CONVENTION) -> int:
    """Degree of the determinant of the polarization: d + n^2."""
    return d_lambda(diagram, conv) + diagram.size ** 2


def index_character(
    diagram: YoungDiagram, conv: ConventionSet = DEFAULT_CONVENTION, var: str = "a"
) -> Character:
    """Chamber-positive part of the polarization (a virtual character)."""
    pos, _, _ = polarization(diagram, conv, var).chamber_split(conv.chamber_direction(var))
    return pos


def floor_index_pairing(
    diagram: YoungDiagram, w: Rat, conv: ConventionSet = DEFAULT_CONVENTION
) -> int:
    """Signed floor sum of the index paired with the shift w."""
    return index_character(diagram, conv).floor_pairing({"a": Fraction(w)})


def index_exponent(
    diagram: YoungDiagram, w: Rat, conv: ConventionSet = DEFAULT_CONVENTION
) -> Fraction:
    """Symmetrized floor sum of the index paired with w.

    This is the exact hbar-exponent of the monomial normalization of the
    shifted Euler-class ratio at the fixed point (the engine cross-checks it
    term by term), and the quantity whose differences match the m-exponent
    differences.  The plain floor sum agrees with twice this only when every
    index pairing is integral or the index is an honest character.
    """
    return index_character(diagram, conv).symmetric_floor_pairing({"a": Fraction(w)})


def negative_normal_characters(
    diagram: YoungDiagram, conv: ConventionSet = DEFAULT_CONVENTION
) -> list[int]:
    """Equivariant exponents of the repelling half of the tangent space:
    +hook under the 'neg' chamber, -hook under 'pos'."""
    sign = 1 if conv.attract == "neg" else -1
    return [sign * h for h in hooks(diagram)]


def m_hilbert(diagram: YoungDiagram, w: Rat, conv: ConventionSet = DEFAULT_CONVENTION) -> Fraction:
    """w*d - sum over boxes of floor(hook * w), in integers over w's denominator."""
    return _m_exponent(d_lambda(diagram, conv), hooks(diagram), w)


def m_general(diagram: YoungDiagram, w: Rat, conv: ConventionSet = DEFAULT_CONVENTION) -> Fraction:
    """<sigma, w> - sum over repelling tangent characters of floor(<c, w>), in integers."""
    return _m_exponent(sigma(diagram, conv), negative_normal_characters(diagram, conv), w)


def _m_exponent(degree: int, exponents: Iterable[int], w: Rat) -> Fraction:
    """w*degree - sum of floor(e * w) over exponents, in integers over w's denominator."""
    p, r = w.numerator, w.denominator
    return Fraction(p * degree - r * sum(e * p // r for e in exponents), r)


def nu_component(
    diagram: YoungDiagram, b: int, conv: ConventionSet = DEFAULT_CONVENTION
) -> tuple[int, ...]:
    """Counts of box contents by residue mod b."""
    if b < 1:
        raise ValueError("b must be a positive integer")
    counts = [0] * b
    for c in contents(diagram, conv):
        counts[c % b] += 1
    return tuple(counts)


def enumerate_components(
    n: int, b: int, conv: ConventionSet = DEFAULT_CONVENTION
) -> dict[tuple[int, ...], list[YoungDiagram]]:
    """Partition the diagrams of size n by their residue-count component."""
    out: dict[tuple[int, ...], list[YoungDiagram]] = {}
    for d in partitions(n):
        out.setdefault(nu_component(d, b, conv), []).append(d)
    return out


def is_nontrivial_shift(w: Rat, n: int) -> bool:
    """Whether the reduced denominator of w is at most n (shift can act
    nontrivially on the fixed-point data of size-n diagrams)."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(w).denominator <= n


def nontrivial_shifts(n: int, max_numerator: int) -> list[Fraction]:
    """Reduced fractions a/b with 1 <= b <= n and 1 <= a <= max_numerator."""
    out = set()
    for b in range(1, n + 1):
        for a in range(1, max_numerator + 1):
            if math.gcd(a, b) == 1:
                out.add(Fraction(a, b))
    return sorted(out)


@dataclass(frozen=True)
class FixedPointData:
    """Per-diagram report record."""

    diagram: YoungDiagram
    contents: tuple[int, ...]
    hooks: tuple[int, ...]
    d: int
    sigma: int
    polarization: Character
    component: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "diagram": str(self.diagram),
            "contents": list(self.contents),
            "hooks": list(self.hooks),
            "d": self.d,
            "sigma": self.sigma,
            "polarization": self.polarization.to_text(("a",)),
        }
        if self.component is not None:
            out["component"] = list(self.component)
        return out


def fixed_point_data(
    diagram: YoungDiagram, conv: ConventionSet = DEFAULT_CONVENTION, b: int | None = None
) -> FixedPointData:
    return FixedPointData(
        diagram=diagram,
        contents=tuple(contents(diagram, conv)),
        hooks=tuple(hooks(diagram)),
        d=d_lambda(diagram, conv),
        sigma=sigma(diagram, conv),
        polarization=polarization(diagram, conv),
        component=nu_component(diagram, b, conv) if b else None,
    )


@dataclass(frozen=True)
class DiagonalMatrices:
    """The two diagonal conjugation matrices attached to one component.

    Z has entries z^(w*d).  H has entries sign * hbar^m with the Hilbert-form
    m-exponent; limit_exponents carries the exact normalization exponents of
    the shifted Euler-class ratios, which differ from m/2 by a constant per
    component.  Individual exponents can have denominator b; only their
    differences (integral within a component) are observable after
    conjugation, so either choice of H conjugates identically.
    """

    labels: tuple[YoungDiagram, ...]
    z_exponents: tuple[Fraction, ...]
    h_signs: tuple[int, ...]
    h_exponents: tuple[Fraction, ...]
    limit_exponents: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "labels": [str(d) for d in self.labels],
            "z_exponents": [rat_to_str(e) for e in self.z_exponents],
            "h_signs": list(self.h_signs),
            "h_exponents": [rat_to_str(e) for e in self.h_exponents],
            "limit_exponents": [rat_to_str(e) for e in self.limit_exponents],
        }


def conjugation_matrices(
    component: list[YoungDiagram], w: Rat, conv: ConventionSet = DEFAULT_CONVENTION
) -> DiagonalMatrices:
    """Z and H diagonals for diagrams of one component at shift w."""
    w = Fraction(w)
    b = w.denominator
    if component:
        ref = nu_component(component[0], b, conv)
        for d in component[1:]:
            if nu_component(d, b, conv) != ref:
                raise ComponentMismatch(
                    f"{d} lies in component {nu_component(d, b, conv)}, expected {ref}"
                )
    weight = {"a": w}
    z_exps = []
    signs = []
    h_exps = []
    limit_exps = []
    for d in component:
        z_exps.append(w * d_lambda(d, conv))
        ind = index_character(d, conv)
        rank_moving = ind.rank() - ind.invariant_part(weight).rank()
        signs.append(-1 if rank_moving % 2 else 1)
        h_exps.append(m_hilbert(d, w, conv))
        limit_exps.append(ind.symmetric_floor_pairing(weight))
    return DiagonalMatrices(
        tuple(component), tuple(z_exps), tuple(signs), tuple(h_exps), tuple(limit_exps)
    )


@dataclass(frozen=True)
class CalibrationResult:
    passing: tuple[ConventionSet, ...]
    failing: tuple[ConventionSet, ...]
    default: ConventionSet | None
    counterexamples: Mapping[ConventionSet, tuple]

    @property
    def ok(self) -> bool:
        return self.default is not None


def difference_scan(
    conv: ConventionSet,
    n_max: int,
    b_values: tuple[int, ...] = (2, 3, 4),
    numerator_factor: int = 4,
    form: str = "exponent",
    stop_early: bool = True,
) -> list[tuple]:
    """Counterexamples to the index/m difference identity under a convention.

    For every n <= n_max, b in b_values, coprime numerator a < numerator_factor*b
    and pair of diagrams in one residue component, with w = a/b:

    - form="exponent" (default): the normalization-exponent identity

          index_exponent(lam, w) - index_exponent(mu, w)
              == (m(lam, w) - m(mu, w)) / 2,

      which is what the exact limits of the Euler-class ratios obey;

    - form="floor": the plain floor-sum variant

          floor_index(lam, w) - floor_index(mu, w) == m(lam, w) - m(mu, w),

      which holds only while every index is an honest character with small
      pairings (it breaks once virtual index terms pair past the first
      integer; kept for documentation and as a recorded discrepancy).

    The index, d and the hooks do not depend on w, so they are built once
    per diagram of each size and used with every w.
    """
    if form not in ("exponent", "floor"):
        raise ValueError("form must be 'exponent' or 'floor'")
    violations = []
    for n in range(1, n_max + 1):
        diagrams = partitions(n)
        index = {d: index_character(d, conv) for d in diagrams}
        degree_hooks = {d: (d_lambda(d, conv), hooks(d)) for d in diagrams}
        for b in b_values:
            groups: dict[tuple[int, ...], list[YoungDiagram]] = {}
            for d in diagrams:
                groups.setdefault(nu_component(d, b, conv), []).append(d)
            for a in range(1, numerator_factor * b):
                if math.gcd(a, b) != 1:
                    continue
                w = Fraction(a, b)
                weight = {"a": w}
                for group in groups.values():
                    if len(group) < 2:
                        continue
                    m = {d: _m_exponent(*degree_hooks[d], w) for d in group}
                    data = [
                        (d, index[d].symmetric_floor_pairing(weight), m[d] / 2)
                        if form == "exponent"
                        else (d, Fraction(index[d].floor_pairing(weight)), m[d])
                        for d in group
                    ]
                    for (d1, f1, m1), (d2, f2, m2) in combinations(data, 2):
                        if f1 - f2 != m1 - m2:
                            violations.append((d1, d2, w, f1 - f2, m1 - m2))
                            if stop_early:
                                return violations
    return violations


def calibrate(
    n_max: int = 6,
    b_values: tuple[int, ...] = (2, 3, 4),
    numerator_factor: int = 4,
) -> CalibrationResult:
    """Scan all four convention combinations against the difference identity
    and pin the default to a passing one (preferring (i-j, neg)).

    The scan runs the exponent form, the one the exact limits satisfy; the
    attract='pos' combinations fail it (the documented negative control),
    both attract='neg' combinations pass, and the content signs are tied, so
    the default resolves to (i-j, neg).
    """
    passing = []
    failing = []
    counterexamples = {}
    for content in CONTENT_SIGNS:
        for attract in ATTRACT_SIGNS:
            conv = ConventionSet(content, attract)
            bad = difference_scan(conv, n_max, b_values, numerator_factor)
            if bad:
                failing.append(conv)
                counterexamples[conv] = bad[0]
            else:
                passing.append(conv)
    default = None
    for preferred in (DEFAULT_CONVENTION, *passing):
        if preferred in passing:
            default = preferred
            break
    return CalibrationResult(tuple(passing), tuple(failing), default, counterexamples)
