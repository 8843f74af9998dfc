"""Command-line driver: reproducible verification suites and pipelines.

Every command writes deterministic JSON-lines records followed by one
machine-parsable summary line, and exits 0 (all checks pass), 1 (some
verification failed), or 2 (malformed input).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .balanced import (
    KahlerChamber,
    chamber_correction,
    evaluate_numeric,
    q_limit,
    quasiperiod_pairing,
    random_balanced_expression,
    z_limit,
)
from .chars import (
    Character,
    Monomial,
    NumericContext,
    RationalExpr,
    VariableSet,
    rat_to_str,
)
from .framing import FramingPoint, QuiverFrame, framing_report
from .hilbert import (
    ConventionSet,
    calibrate,
    conjugation_matrices,
    difference_scan,
    enumerate_components,
    fixed_point_data,
    m_general,
    m_hilbert,
    partitions,
)
from .pipeline import (
    EntryLimitError,
    MalformedInput,
    RestrictionMatrix,
    apply_limit_theorem,
    check_stab_axioms,
    validate_section,
)
from .qseries import (
    ThetaArgument,
    theta_ratio_limit,
    verify_oddness,
    verify_quasiperiod,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MALFORMED = 2


class _Output:
    """JSON-lines sink; a file is created only when its first line is written,
    and ``discard`` removes it again, so a command that rejects its input
    (exit 2) leaves no file behind."""

    def __init__(self, path: str | None):
        self._path = path
        self._fh = None if path else sys.stdout
        self.checks = 0
        self.passed = 0
        self.failed = 0
        self.skipped = 0

    def record(self, payload: dict, status: str | None = None):
        if status is not None:
            payload = {**payload, "status": status}
            if status == "pass":
                self.checks += 1
                self.passed += 1
            elif status == "fail":
                self.checks += 1
                self.failed += 1
            elif status == "skipped":
                self.skipped += 1
        self._write(payload)

    def _write(self, payload: dict):
        if self._fh is None:
            self._fh = open(self._path, "w")
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")

    def discard(self):
        """Close and remove a partly written file; stdout is left as it is."""
        if self._path and self._fh is not None:
            self._fh.close()
            os.remove(self._path)

    def finish(self, command: str) -> int:
        code = EXIT_OK if self.failed == 0 else EXIT_FAILED
        summary = {
            "summary": {
                "command": command,
                "checks": self.checks,
                "passed": self.passed,
                "failed": self.failed,
                "skipped": self.skipped,
                "exit": code,
            }
        }
        self._write(summary)
        if self._path:
            self._fh.close()
            print(json.dumps(summary, sort_keys=True))
        return code


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {text!r}: {exc}") from exc


def _parse_rational_list(text: str) -> list[Fraction]:
    return [_parse_rational(p) for p in text.split(",") if p]


def _convention(args) -> ConventionSet:
    return ConventionSet(args.content, args.attract)


def _cmd_theta_verify(args, out: _Output) -> int:
    if args.w_denoms < 1:
        raise MalformedInput("--w-denoms must be positive")
    order = _parse_rational(args.order)
    if order <= 0:
        raise MalformedInput("--order must be positive")
    out.record(
        {"check": "oddness", "order": rat_to_str(order)},
        "pass" if verify_oddness(order) else "fail",
    )
    out.record(
        {"check": "quasiperiod", "order": rat_to_str(order)},
        "pass" if verify_quasiperiod(order) else "fail",
    )

    # Limit law on theta(z a q^w) / theta(a q^w) against the closed form.
    ws = sorted(
        {
            Fraction(p, r)
            for r in range(1, args.w_denoms + 1)
            for p in range(-3 * r, 3 * r + 1)
        }
    )
    a = Monomial.variable("a")
    z = Monomial.variable("z")
    for w in ws:
        result = theta_ratio_limit(
            [ThetaArgument(z * a, w)], [ThetaArgument(a, w)]
        ).combined()
        if w.denominator == 1:
            binom_num = Character({Monomial(): 1, z * a: -1})
            binom_den = Character({Monomial(): 1, a: -1})
            expected = RationalExpr(binom_num, binom_den).times_monomial(
                Monomial.variable("z", -w - Fraction(1, 2))
            )
        else:
            floor_w = w.numerator // w.denominator
            expected = RationalExpr.from_monomial(
                Monomial.variable("z", -floor_w - Fraction(1, 2))
            )
        out.record(
            {"check": "limit-law", "w": rat_to_str(w)},
            "pass" if result == expected else "fail",
        )

    if args.balanced_samples:
        rng = random.Random(args.seed)
        variables = VariableSet(("a",), "hbar", ("z",))
        ctx = NumericContext.from_values(
            {"a": 1.31 + 0.27j, "z": 0.78 - 0.42j, "hbar": 1.12 + 0.51j}
        )
        denoms = list(range(1, args.w_denoms + 1))
        for i in range(args.balanced_samples):
            expr = random_balanced_expression(rng, variables)
            r = rng.choice(denoms)
            w = Fraction(rng.randint(-3 * r, 3 * r), r)
            weight = {"a": w}
            try:
                # Not double_limit: one q-limit serves both chambers and the rate check.
                pairing = quasiperiod_pairing(expr, variables)
                norm, value = q_limit(expr, weight, variables)
                for direction in ("zero", "infinity"):
                    chamber = KahlerChamber.uniform(("z",), direction)
                    corr = chamber_correction(pairing, weight, norm, chamber)
                    z_limit(value, chamber, corr * norm)
                rel = _series_vs_numeric(expr, weight, ctx, 1e-4)
                converges = _rate_consistent(expr, weight, norm, value, ctx)
                ok = rel < args.tolerance and converges
                out.record(
                    {"check": "balanced-limit", "sample": i, "w": rat_to_str(w), "rel": rel},
                    "pass" if ok else "fail",
                )
            except Exception as exc:  # noqa: BLE001 - report, do not crash the scan
                out.record(
                    {"check": "balanced-limit", "sample": i, "w": rat_to_str(w), "error": str(exc)},
                    "fail",
                )
    return out.finish("theta-verify")


def _series_vs_numeric(expr, weight, ctx, q: float) -> float:
    """Worst relative gap between the exact factor series and the numeric
    theta product at the same q; validates the expansion engine."""
    from .qseries import numeric_theta_argument, theta_leading, theta_series

    worst = 0.0
    for term in expr.shifted(weight).terms:
        for arg in (*term.numerator, *term.denominator):
            val = theta_leading(arg).valuation
            series = theta_series(arg, val + Fraction(3, 2))
            exact = series.evaluate(ctx, q)
            approx = numeric_theta_argument(arg, q, ctx)
            worst = max(worst, abs(exact - approx) / max(abs(approx), 1e-30))
    return worst


def _rate_consistent(expr, weight, norm, value, ctx) -> bool:
    """The numeric section approaches the exact q->0 limit as q shrinks."""
    target = ctx.monomial(norm) * ctx.rational(value)
    shifted = expr.shifted(weight)
    errs = []
    for q in (1e-3, 1e-4, 1e-5):
        numeric = evaluate_numeric(shifted, ctx, q)
        errs.append(abs(numeric - target) / max(abs(target), 1e-30))
    return errs[2] < errs[0] * 0.75 or errs[2] < 1e-6


def _cmd_young_report(args, out: _Output) -> int:
    if args.b is not None and args.b < 1:
        raise MalformedInput("--b must be positive")
    conv = _convention(args)
    ws = _parse_rational_list(args.w) if args.w else []
    for n in range(0, args.n_max + 1):
        for d in partitions(n):
            data = fixed_point_data(d, conv, args.b)
            rec = data.to_json()
            rec["n"] = n
            if ws:
                rec["m_hilbert"] = {rat_to_str(w): rat_to_str(m_hilbert(d, w, conv)) for w in ws}
                rec["m_general"] = {rat_to_str(w): rat_to_str(m_general(d, w, conv)) for w in ws}
            out.record(rec)
    return out.finish("young-report")


def _cmd_diflem_scan(args, out: _Output) -> int:
    conv = _convention(args)
    b_values = tuple(range(2, args.b_max + 1))
    violations = difference_scan(
        conv, args.n_max, b_values, numerator_factor=4, form="exponent", stop_early=False
    )
    out.record(
        {
            "check": "exponent-difference-identity",
            "convention": str(conv),
            "n_max": args.n_max,
            "b_values": list(b_values),
            "violations": len(violations),
        },
        "pass" if not violations else "fail",
    )
    for d1, d2, w, lhs, rhs in violations[:20]:
        out.record(
            {
                "violation": {
                    "pair": [str(d1), str(d2)],
                    "w": rat_to_str(w),
                    "exponent_difference": rat_to_str(lhs),
                    "half_m_difference": rat_to_str(rhs),
                }
            }
        )
    # The plain floor-sum variant is reported for documentation: it agrees
    # with the exponent form only while the index stays an honest character.
    floor_violations = difference_scan(
        conv, args.n_max, b_values, numerator_factor=4, form="floor", stop_early=False
    )
    out.record(
        {
            "check": "floor-form-discrepancies",
            "convention": str(conv),
            "count": len(floor_violations),
            "note": "informational; the floor form is not invariant under virtual indices",
        },
        "skipped",
    )
    return out.finish("diflem-scan")


def _cmd_component_enum(args, out: _Output) -> int:
    if args.n < 0 or args.b < 1:
        raise MalformedInput("--n must be nonnegative and --b positive")
    w = _parse_rational(args.w) if args.w is not None else None
    conv = _convention(args)
    components = enumerate_components(args.n, args.b, conv)
    for key in sorted(components):
        diagrams = components[key]
        rec = {
            "component": list(key),
            "count": len(diagrams),
            "diagrams": [str(d) for d in diagrams],
        }
        if w is not None and w.denominator == args.b:
            conj = conjugation_matrices(diagrams, w, conv)
            rec["conjugation"] = conj.to_json()
        out.record(rec)
    out.record(
        {"check": "component-sizes", "n": args.n, "b": args.b,
         "total": sum(len(v) for v in components.values()),
         "expected": len(partitions(args.n))},
        "pass" if sum(len(v) for v in components.values()) == len(partitions(args.n)) else "fail",
    )
    return out.finish("component-enum")


def _cmd_calibrate(args, out: _Output) -> int:
    if args.n_max < 2 or args.b_max < 2:
        raise MalformedInput("--n-max and --b-max must be at least 2, or no pair is scanned")
    b_values = tuple(range(2, args.b_max + 1))
    result = calibrate(args.n_max, b_values)
    for conv in result.passing:
        out.record({"check": "convention", "convention": str(conv)}, "pass")
    for conv in result.failing:
        d1, d2, w, lhs, rhs = result.counterexamples[conv]
        out.record(
            {
                "check": "convention",
                "convention": str(conv),
                "counterexample": {
                    "pair": [str(d1), str(d2)],
                    "w": rat_to_str(w),
                    "floor_difference": rat_to_str(lhs),
                    "m_difference": rat_to_str(rhs),
                },
            },
            "skipped",  # an expected negative control, not a suite failure
        )
    out.record(
        {"check": "calibration-default", "default": str(result.default) if result.default else None},
        "pass" if result.ok else "fail",
    )
    return out.finish("calibrate")


def _cmd_limit_apply(args, out: _Output) -> int:
    if not args.input:
        raise MalformedInput("--input is required for limit-apply")
    w = _parse_rational(args.w) if args.w else Fraction(0)
    matrix = RestrictionMatrix.load(args.input)
    report = validate_section(matrix)
    for rec in report.records:
        out.record(rec.to_json() | {"phase": "validate"}, rec.status)
    if not report.ok:
        return out.finish("limit-apply")
    try:
        outcome = apply_limit_theorem(matrix, w, args.chamber, report)
    except EntryLimitError as exc:
        out.record({"phase": "limit", "entry": [exc.row, exc.col], "error": str(exc.cause)}, "fail")
        return out.finish("limit-apply")
    axioms = check_stab_axioms(outcome.matrix, matrix.metadata, w)
    for rec in axioms.records:
        out.record(rec.to_json() | {"phase": "axioms"}, rec.status)
    result = outcome.matrix.to_json()
    if outcome.conjugation is not None:
        result["conjugation"] = outcome.conjugation.to_json()
    out.record({"phase": "result", "k_matrix": result})
    return out.finish("limit-apply")


def _cmd_framing_blocks(args, out: _Output) -> int:
    if not args.w:
        raise MalformedInput("--w is required for framing-blocks")
    point = FramingPoint(tuple(_parse_rational_list(args.w)))
    frame = None
    if args.frame_r or args.frame_n:
        if not (args.frame_r and args.frame_n):
            raise MalformedInput("--frame-r and --frame-n must come together")
        try:
            frame = QuiverFrame(tuple(int(x) for x in args.frame_r.split(",")),
                                tuple(int(x) for x in args.frame_n.split(",")))
        except ValueError as exc:
            raise MalformedInput(f"bad --frame-r/--frame-n: {exc}") from exc
        if frame.total_framing != len(point):
            raise MalformedInput(
                f"framing point has {len(point)} coordinates but |r| = {frame.total_framing}"
            )
    out.record(framing_report(frame, point))
    return out.finish("framing-blocks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablimits",
        description="Verification suites and limit pipelines for theta-function sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--output", help="write JSON-lines here instead of stdout")

    def convention_flags(p: argparse.ArgumentParser):
        p.add_argument("--content", choices=("i-j", "j-i"), default="i-j",
                       help="content sign convention (default i-j)")
        p.add_argument("--attract", choices=("pos", "neg"), default="neg",
                       help="chamber attraction sign (default neg)")

    p = sub.add_parser("theta-verify", help="theta functional equations and the limit law")
    p.add_argument("--order", default="10", help="series truncation order (rational, default 10)")
    p.add_argument("--w-denoms", type=int, default=6, help="max denominator in the w grid (default 6)")
    p.add_argument("--balanced-samples", type=int, default=0,
                   help="additionally spot-check this many random balanced sections (default 0)")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized spot checks")
    p.add_argument("--tolerance", type=float, default=1e-3,
                   help="relative tolerance of the numeric oracle at q=1e-4 (default 1e-3)")
    common(p)

    p = sub.add_parser("young-report", help="per-diagram fixed-point data")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--b", type=int, default=None, help="also classify components mod b")
    p.add_argument("--w", help="comma-separated shifts for m-value columns")
    convention_flags(p)
    common(p)

    p = sub.add_parser("diflem-scan", help="exponent-difference identity scan")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--b-max", type=int, default=4)
    convention_flags(p)
    common(p)

    p = sub.add_parser("component-enum", help="residue components of diagrams of size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--w", help="optional shift (denominator b) for conjugation diagonals")
    convention_flags(p)
    common(p)

    p = sub.add_parser("calibrate", help="scan the four convention combinations")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--b-max", type=int, default=4)
    common(p)

    p = sub.add_parser("limit-apply", help="run the limit pipeline on a restriction matrix")
    p.add_argument("--input", required=True, help="restriction-matrix JSON file")
    p.add_argument("--w", default="0", help="equivariant shift (rational, default 0)")
    p.add_argument("--chamber", choices=("zero", "infinity"), default="zero")
    common(p)

    p = sub.add_parser("framing-blocks", help="hyperplane-arrangement data for a framing point")
    p.add_argument("--w", required=True, help="comma-separated rational coordinates")
    p.add_argument("--frame-r", help="framing dimensions per vertex, comma-separated")
    p.add_argument("--frame-n", help="dimension vector per vertex, comma-separated")
    common(p)

    return parser


_COMMANDS = {
    "theta-verify": _cmd_theta_verify,
    "young-report": _cmd_young_report,
    "diflem-scan": _cmd_diflem_scan,
    "component-enum": _cmd_component_enum,
    "calibrate": _cmd_calibrate,
    "limit-apply": _cmd_limit_apply,
    "framing-blocks": _cmd_framing_blocks,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args.output)
    try:
        return _COMMANDS[args.command](args, out)
    except MalformedInput as exc:
        out.discard()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
