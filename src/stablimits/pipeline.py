"""Restriction-matrix pipeline: validation, the shifted double limit, and
the structural checks on the resulting matrix.

A restriction matrix holds one balanced expression per (row, column) pair of
fixed-point labels, normalized so the diagonal is 1 and triangular with
respect to a declared order.  The pipeline shifts equivariant parameters by
q^w, takes the exact q->0 limit entrywise, applies the quasiperiod-derived
Kahler correction, and sends the Kahler parameters to their chamber limits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .balanced import (
    BalancedExpression,
    DivergentLimit,
    InconsistentBundle,
    KahlerChamber,
    NormalizationMismatch,
    double_limit,
    has_separated_poles,
    is_balanced_in,
    quasiperiod_pairing,
)
from .chars import (
    Character,
    Monomial,
    Rat,
    RationalExpr,
    VariableSet,
    rat_from_str,
    rat_to_str,
)
from .hilbert import (
    ComponentMismatch,
    ConventionSet,
    DiagonalMatrices,
    YoungDiagram,
    conjugation_matrices,
    d_lambda,
)
from .qseries import LimitUndefined, ThetaArgument, leading_product, leading_survives


class MalformedInput(ValueError):
    """The matrix JSON or metadata cannot be interpreted."""


def _names(value, what: str) -> tuple[str, ...]:
    """A JSON list of strings; a bare string is not split into characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MalformedInput(f"{what} must be a list of strings")
    return tuple(value)


def _weight(w: Rat | Mapping[str, Rat], names: Sequence[str]) -> dict[str, Fraction]:
    """The shift as a mapping; a scalar shifts the single variable in ``names``."""
    if not isinstance(w, (int, Fraction)):
        return {k: Fraction(v) for k, v in w.items()}
    if len(names) != 1:
        raise MalformedInput("scalar w needs exactly one equivariant variable")
    return {names[0]: Fraction(w)}


class EntryLimitError(RuntimeError):
    """A limit failed for one entry; carries the (row, col) address."""

    def __init__(self, row: str, col: str, cause: Exception):
        super().__init__(f"entry ({row}, {col}): {cause}")
        self.row = row
        self.col = col
        self.cause = cause


@dataclass
class CheckRecord:
    """One line of a report: passed is None when the check was skipped."""

    name: str
    subject: str
    passed: bool | None
    detail: str = ""

    @property
    def status(self) -> str:
        return "skipped" if self.passed is None else ("pass" if self.passed else "fail")

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "subject": self.subject,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class Report:
    records: list[CheckRecord] = field(default_factory=list)
    pairings: dict[tuple[str, str], dict] = field(default_factory=dict)  # see validate_section

    def add(self, name: str, subject: str, passed: bool | None, detail: str = ""):
        self.records.append(CheckRecord(name, subject, passed, detail))

    @property
    def ok(self) -> bool:
        return all(r.passed is not False for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.passed is False]


@dataclass
class MatrixMetadata:
    """Declared context for a restriction matrix.

    Optional fields unlock optional checks; everything exact.  The declared
    order lists labels from the bottom of the attraction order upward: a
    nonzero entry (row, col) requires col to appear no later than row.
    """

    variables: VariableSet
    convention: ConventionSet | None = None
    order: tuple[str, ...] | None = None
    polarizations: dict[str, Character] | None = None
    d_values: dict[str, int] | None = None
    slopes: dict[str, Fraction] | None = None
    unnormalized_diagonal: dict[str, RationalExpr] | None = None

    def to_json(self) -> dict:
        out: dict = {
            "variables": {
                "equivariant": list(self.variables.equivariant),
                "hbar": self.variables.hbar,
                "kahler": list(self.variables.kahler),
            }
        }
        if self.convention is not None:
            out["convention"] = {"content": self.convention.content, "attract": self.convention.attract}
        if self.order is not None:
            out["order"] = list(self.order)
        if self.polarizations is not None:
            out["polarizations"] = {k: v.to_json() for k, v in self.polarizations.items()}
        if self.d_values is not None:
            out["d_values"] = dict(self.d_values)
        if self.slopes is not None:
            out["slopes"] = {k: rat_to_str(v) for k, v in self.slopes.items()}
        if self.unnormalized_diagonal is not None:
            out["unnormalized_diagonal"] = {
                k: v.to_json() for k, v in self.unnormalized_diagonal.items()
            }
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "MatrixMetadata":
        try:
            v = data["variables"]
            variables = VariableSet(_names(v["equivariant"], "equivariant variables"),
                                    v.get("hbar", "hbar"), _names(v.get("kahler", []), "Kahler variables"))
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad variables block: {exc}") from exc
        convention = None
        if "convention" in data:
            c = data["convention"]
            convention = ConventionSet(c.get("content", "i-j"), c.get("attract", "neg"))
        polarizations = None
        if "polarizations" in data:
            polarizations = {
                k: Character.from_json(v) for k, v in data["polarizations"].items()
            }
            # A tangent weight is a nontrivial character with integer exponents.
            bad = [m for P in polarizations.values() for m, _ in P.items()
                   if m.is_trivial or any(e2 % 2 for _, e2 in m.doubled())]
            if bad:
                raise MalformedInput(f"polarization weight {bad[0].to_text() or '1'} is trivial or fractional")
        slopes = None
        if "slopes" in data:
            slopes = {k: rat_from_str(v) for k, v in data["slopes"].items()}
        diag = None
        if "unnormalized_diagonal" in data:
            diag = {
                k: RationalExpr.from_json(v)
                for k, v in data["unnormalized_diagonal"].items()
            }
        return cls(
            variables=variables,
            convention=convention,
            order=_names(data["order"], "order") if "order" in data else None,
            polarizations=polarizations,
            d_values={k: int(v) for k, v in data["d_values"].items()} if "d_values" in data else None,
            slopes=slopes,
            unnormalized_diagonal=diag,
        )


@dataclass
class RestrictionMatrix:
    """Labels, one balanced expression per ordered label pair, metadata.

    Absent entries are zero; the diagonal must be the constant expression 1.
    """

    labels: tuple[str, ...]
    entries: dict[tuple[str, str], BalancedExpression]
    metadata: MatrixMetadata

    @classmethod
    def identity(cls, labels: Iterable[str], metadata: MatrixMetadata) -> "RestrictionMatrix":
        labels = tuple(labels)
        return cls(
            labels,
            {(l, l): BalancedExpression.one() for l in labels},
            metadata,
        )

    def entry(self, row: str, col: str) -> BalancedExpression:
        return self.entries.get((row, col), BalancedExpression.zero())

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "entries": [
                {"row": r, "col": c, "expr": e.to_json()}
                for (r, c), e in sorted(self.entries.items())
            ],
            "metadata": self.metadata.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "RestrictionMatrix":
        try:
            labels = _names(data["labels"], "labels")
            metadata = MatrixMetadata.from_json(data.get("metadata", {}))
            entries = {}
            for rec in data.get("entries", ()):
                row, col = str(rec["row"]), str(rec["col"])
                if row not in labels or col not in labels:
                    raise MalformedInput(f"entry ({row}, {col}) uses unknown labels")
                if not isinstance(rec["expr"], Mapping):
                    raise MalformedInput(f"entry ({row}, {col}): expr is not a JSON object")
                entries[(row, col)] = BalancedExpression.from_json(rec["expr"])
        except MalformedInput:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad restriction matrix JSON: {exc}") from exc
        return cls(labels, entries, metadata)

    @classmethod
    def load(cls, path) -> "RestrictionMatrix":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedInput(f"cannot read matrix JSON: {exc}") from exc
        return cls.from_json(data)


def _diagram_labels(matrix: RestrictionMatrix) -> dict[str, YoungDiagram] | None:
    try:
        return {l: YoungDiagram.from_string(l) for l in matrix.labels}
    except ValueError:
        return None


def validate_section(matrix: RestrictionMatrix) -> Report:
    """Per-entry section checks: balance in the equivariant and Kahler
    variables, pole separation, quasiperiod consistency, unit diagonal, and
    (for diagram labels with declared d-values or a convention) the pairing
    cross-check against the label degrees.  The quasiperiod pairing of each
    consistent entry is kept in the report's ``pairings``, where
    ``apply_limit_theorem`` hands it to ``double_limit``."""
    report = Report()
    variables = matrix.metadata.variables
    avars = variables.equivariant
    zvars = variables.kahler

    diagrams = _diagram_labels(matrix)
    d_of: dict[str, int] | None = None
    if matrix.metadata.d_values is not None:
        d_of = dict(matrix.metadata.d_values)
    elif diagrams is not None and matrix.metadata.convention is not None:
        d_of = {l: d_lambda(d, matrix.metadata.convention) for l, d in diagrams.items()}

    for label in matrix.labels:
        is_unit = matrix.entry(label, label) == BalancedExpression.one()
        report.add(
            "unit-diagonal", label, is_unit, "" if is_unit else "diagonal entry is not 1"
        )

    for (row, col), expr in sorted(matrix.entries.items()):
        if row == col or expr.is_zero:
            continue
        subject = f"({row}, {col})"
        report.add("balanced-equivariant", subject, is_balanced_in(expr, avars))
        report.add("balanced-kahler", subject, is_balanced_in(expr, zvars))
        report.add("separated-poles", subject, has_separated_poles(expr, variables))
        try:
            pairing = quasiperiod_pairing(expr, variables)
        except InconsistentBundle as exc:
            report.add("quasiperiod-consistency", subject, False, str(exc))
            continue
        report.add("quasiperiod-consistency", subject, True)
        report.pairings[(row, col)] = pairing
        if d_of is not None and row in d_of and col in d_of and len(avars) == 1 and len(zvars) == 1:
            expected = d_of[col] - d_of[row]
            got = pairing.get((avars[0], zvars[0]), 0)
            report.add(
                "pairing-vs-degrees",
                subject,
                got == expected,
                f"pairing {got}, degree difference {expected}",
            )
    return report


@dataclass
class KMatrixCandidate:
    """Entrywise limit of a normalized restriction matrix: rational functions
    of the equivariant variables and hbar, diagonal 1."""

    labels: tuple[str, ...]
    entries: dict[tuple[str, str], RationalExpr]

    def entry(self, row: str, col: str) -> RationalExpr:
        if row == col:
            return RationalExpr.one()
        return self.entries.get((row, col), RationalExpr.zero())

    def is_identity(self) -> bool:
        return all(
            self.entry(r, c).is_zero
            for r in self.labels
            for c in self.labels
            if r != c
        )

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "entries": [
                {"row": r, "col": c, "value": e.to_json()}
                for (r, c), e in sorted(self.entries.items())
                if not e.is_zero or r == c
            ],
        }


@dataclass
class LimitOutcome:
    matrix: KMatrixCandidate
    conjugation: DiagonalMatrices | None  # present for diagram labels


def apply_limit_theorem(
    matrix: RestrictionMatrix,
    w: Rat | Mapping[str, Rat],
    chamber: KahlerChamber | str,
    validation: Report | None = None,
) -> LimitOutcome:
    """Shift, q-limit, correct, and Kahler-limit every entry.

    ``w`` may be a single rational (one equivariant variable) or a mapping
    from equivariant names to rationals.  ``chamber`` may be a KahlerChamber
    or the uniform direction 'zero' / 'infinity'.  ``validation`` is the
    report of ``validate_section`` on this matrix, if already computed; each
    entry's quasiperiod pairing is taken from it, not computed again.
    """
    variables = matrix.metadata.variables
    weight = _weight(w, variables.equivariant)
    if isinstance(chamber, str):
        try:
            chamber = KahlerChamber.uniform(variables.kahler, chamber)
        except ValueError as exc:
            raise MalformedInput(f"bad Kahler chamber: {exc}") from exc

    # Kahler-side diagnostics (balance in z, pole separation, degree pairing)
    # stay report-level: synthetic sections may fail them and still have
    # perfectly good corrected limits.  Equivariant balance, bundle
    # consistency and the unit diagonal are non-negotiable.
    if validation is None:
        validation = validate_section(matrix)
    # Exit-code rule: limit-apply reports these failures as `fail` records
    # (exit 1); without a report to write, this call raises MalformedInput.
    hard = ("balanced-equivariant", "quasiperiod-consistency", "unit-diagonal")
    blocking = [r for r in validation.failures() if r.name in hard]
    if blocking:
        failed = ", ".join(f"{r.name}{r.subject}" for r in blocking)
        raise MalformedInput(f"section validation failed: {failed}")

    diagrams = _diagram_labels(matrix)
    conj = None
    if diagrams is not None and matrix.metadata.convention is not None and len(weight) == 1:
        wval = next(iter(weight.values()))
        try:
            conj = conjugation_matrices(
                [diagrams[l] for l in matrix.labels], Fraction(wval), matrix.metadata.convention
            )
        except ComponentMismatch as exc:
            raise MalformedInput(f"labels span more than one residue component: {exc}") from exc

    entries: dict[tuple[str, str], RationalExpr] = {}
    for (row, col), expr in sorted(matrix.entries.items()):
        if row == col or expr.is_zero:
            continue
        try:
            limit = double_limit(expr, weight, chamber, variables, validation.pairings[(row, col)])
        except (LimitUndefined, DivergentLimit, NormalizationMismatch) as exc:
            raise EntryLimitError(row, col, exc) from exc
        if not limit.is_zero:
            entries[(row, col)] = limit
    candidate = KMatrixCandidate(matrix.labels, entries)
    return LimitOutcome(candidate, conj)


def normal_negative(P: Character, direction: Mapping[str, Rat], hbar: str = "hbar") -> Character:
    """Repelling half of the tangent character: P_neg + hbar * conj(P_pos)."""
    pos, _, neg = P.chamber_split(direction)
    return neg + pos.conjugate().times_monomial(Monomial.variable(hbar))


def expected_diagonal(
    P: Character,
    weight: Rat | Mapping[str, Rat],
    direction: Mapping[str, Rat],
    hbar: str = "hbar",
) -> RationalExpr:
    """Forward-computed unnormalized diagonal of the limit class:

        Euler(conj(P^inv)) * lim_q [Theta(N^-)/Theta(P)]|shift * det(P_0)^(1/2)

    built entirely from the polarization restriction, the chamber, and w, in
    closed form.  Write V = N^- - P, a virtual character, and V^inv for its
    terms that pair integrally with w.  Each weight m of V, with multiplicity
    c, contributes theta(m q^<m,w>)^c, whose leading term (``theta_leading``)
    is (sign_m * M_m * q^(v_m))^c, times (1 - m)^c when m is in V^inv.  A
    negative total valuation sum c v_m is a pole (LimitUndefined), a
    positive one gives zero, and at valuation zero

        lim_q [Theta(N^-)/Theta(P)] = prod sign_m^c * prod M_m^c * Euler(V^inv).

    By (1 - 1/m)^c == (-1)^c m^(-c) (1 - m)^c,
    Euler(conj(P^inv)) == (-1)^rank(P^inv) det(P^inv)^(-1) Euler(P^inv), and
    Euler(V^inv) Euler(P^inv) == Euler(N^-_inv), so

        diagonal = (-1)^rank(P^inv) prod sign_m^c * prod M_m^c
                   * det(P^inv)^(-1) det(P_0)^(1/2) * Euler(N^-_inv).

    The repelling part P_neg sits in both N^- and P and drops out of V, so
    P is split by the chamber once and V = hbar conj(P_pos) - P_pos - P_0.
    Signs are taken by parity: c may be negative.
    """
    weight = _weight(weight, tuple(direction))
    pos, zero_part, neg = P.chamber_split(direction)
    hbar_dual_pos = pos.conjugate().times_monomial(Monomial.variable(hbar))
    V = hbar_dual_pos - pos - zero_part
    valuation, sign, monomial, _ = leading_product(((ThetaArgument(m), c) for m, c in V.items()), weight)
    if not leading_survives(valuation):
        return RationalExpr.zero()
    invariant = P.invariant_part(weight)
    monomial = monomial * invariant.determinant().inverse() * zero_part.determinant().sqrt()
    sign = -sign if invariant.rank() % 2 else sign
    N_minus_inv = (neg + hbar_dual_pos).invariant_part(weight)
    return (N_minus_inv.exterior_euler() * sign).times_monomial(monomial)


def check_stab_axioms(
    candidate: KMatrixCandidate,
    metadata: MatrixMetadata,
    w: Rat | Mapping[str, Rat] | None = None,
) -> Report:
    """Structural checks on a limit candidate.

    (i)  support: triangularity with respect to the declared order;
    (ii) normalization: supplied unnormalized diagonals match the forward
         computation from the polarization data (skipped without data);
    (iii) degree window: equivariant degree spans sit inside the diagonal
         span shifted by slope-degree differences (skipped without slopes).
    """
    report = Report()
    order = metadata.order or candidate.labels
    position = {label: i for i, label in enumerate(order)}

    for (row, col), entry in sorted(candidate.entries.items()):
        if entry.is_zero:
            continue
        ok = position.get(col, -1) <= position.get(row, -1)
        report.add(
            "support-triangularity",
            f"({row}, {col})",
            ok,
            "" if ok else f"nonzero entry above the declared order ({col} after {row})",
        )

    variables = metadata.variables
    direction = (
        metadata.convention.chamber_direction(variables.equivariant[0])
        if metadata.convention is not None and len(variables.equivariant) == 1
        else None
    )
    can_forward = (
        metadata.polarizations is not None and direction is not None and w is not None
    )
    expected: dict[str, RationalExpr] = {}  # forward diagonal per label, for both checks
    for label in candidate.labels:
        if not can_forward:
            report.add("diagonal-normalization", label, None, "needs polarizations, convention, w")
            continue
        P = metadata.polarizations.get(label)
        if P is None:
            report.add("diagonal-normalization", label, None, "no polarization supplied")
            continue
        expected[label] = expected_diagonal(P, w, direction, variables.hbar)
        supplied = (metadata.unnormalized_diagonal or {}).get(label)
        if supplied is None:
            report.add("diagonal-normalization", label, None, "no unnormalized diagonal supplied")
            continue
        same = supplied == expected[label]
        detail = "" if same else (
            f"supplied {supplied!r}, expected {expected[label]!r}"
        )
        report.add("diagonal-normalization", label, same, detail)

    slopes = metadata.slopes
    for (row, col), entry in sorted(candidate.entries.items()):
        subject = f"({row}, {col})"
        if entry.is_zero:
            continue
        if slopes is None or row not in slopes or col not in slopes:
            report.add("degree-window", subject, None, "no slope data")
            continue
        if col not in expected:
            report.add("degree-window", subject, None, "needs diagonal span data")
            continue
        span = entry.degree_span(variables.equivariant)
        base = expected[col].degree_span(variables.equivariant)
        shift = slopes[row] - slopes[col]
        lo, hi = base[0] + shift, base[1] + shift
        ok = lo <= span[0] and span[1] <= hi
        report.add(
            "degree-window",
            subject,
            ok,
            f"span [{rat_to_str(span[0])}, {rat_to_str(span[1])}] vs window "
            f"[{rat_to_str(lo)}, {rat_to_str(hi)}]",
        )
    return report
