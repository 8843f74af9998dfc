"""Seeded inputs, operations and exact result fingerprints for the four workloads.

Every workload draws its inputs from a pool of specs committed in
``reference.json``.  A spec is plain data (a seed, a label list, an argv);
``prepare`` turns the specs a run selected into operations using the
``stablimits`` modules handed to it, so that a fresh import per set-up
repetition builds its own inputs.  An operation returns its raw output;
``Op.check`` turns that output into a fingerprint that survives a change of
representation and is compared with the committed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# ---------------------------------------------------------------------------
# Exact evaluation at a fixed point.
#
# a = 9/4, z = 25/16, hbar = 49/36 have the rational square roots 3/2, 5/4 and
# 7/6, so half-integer exponents stay rational, and the three roots are
# multiplicatively independent (the primes 3, 5, 7 each sit in one root), so
# no factor (1 - m) with m != 1 vanishes there.  A value is written as
# 2^x 3^y 5^u 7^v with one integer vector per unit of doubled exponent.
_ROOT_PRIMES = {"a": (-1, 1, 0, 0), "z": (-2, 0, 1, 0), "hbar": (-1, -1, 0, 1)}
_PRIMES = (2, 3, 5, 7)
POINT = {"a": "9/4", "z": "25/16", "hbar": "49/36"}


def _doubled(e) -> int:
    if type(e) is int:
        return 2 * e
    f = Fraction(e)
    if f.denominator not in (1, 2):
        raise ValueError(f"exponent {f} is not a half-integer")
    return int(2 * f)


def character_value(data: dict) -> Fraction:
    """Exact value at POINT of a character in its JSON form."""
    vectors = []
    for term in data["terms"]:
        vec = [0, 0, 0, 0]
        for var, e in term["exp"].items():
            e2 = _doubled(e)
            for i, k in enumerate(_ROOT_PRIMES[var]):
                vec[i] += k * e2
        vectors.append((vec, int(term["mult"])))
    if not vectors:
        return Fraction(0)
    low = [min(v[i] for v, _ in vectors) for i in range(4)]
    total = 0
    for vec, mult in vectors:
        part = mult
        for p, e, lo in zip(_PRIMES, vec, low):
            part *= p ** (e - lo)
        total += part
    value = Fraction(total)
    for p, lo in zip(_PRIMES, low):
        value *= Fraction(p) ** lo
    return value


def rational_value(data: dict) -> str:
    """Exact value at POINT of a rational expression in its JSON form, as 'p/q'."""
    den = character_value(data["den"])
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the evaluation point")
    value = character_value(data["num"]) / den
    return f"{value.numerator}/{value.denominator}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Operations.


class OpFailed(Exception):
    """An operation exited non-zero or produced an unusable output."""


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    item: int  # index of the pool entry in reference.json
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    entries: int = 0  # sections taken through the limit chain by one run


def run_cli(cli, argv: list[str]) -> str:
    """One in-process CLI command with stdout captured; exit 0 required."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# sections: multi-term balanced sections through the limit chain.

_RANGE = (-3, -2, -1, 1, 2, 3)


def make_section(sl, rng: random.Random):
    """A seeded balanced section in a, hbar, z.

    Built from the canonical blocks theta(a^n z^m)/(theta(a^n) theta(z^m)),
    theta(a^n hbar^j)/theta(a^n) and theta(z^m hbar^j)/theta(z^m), like the
    library's own generator, which this module never calls.  Every term is
    then given one (a, z) and one (a, hbar) quasiperiod pairing: a final
    theta(a hbar^d)/theta(a) moves the term's (a, hbar) pairing to the target.
    """
    theta, Monomial = sl.theta, sl.Monomial
    s_az = rng.choice((-2, -1, 0, 1, 2))
    s_ah = rng.choice((-2, -1, 0, 1, 2))

    def hbar_exp(allow_half: bool) -> Fraction:
        e = Fraction(rng.randint(-2, 2))
        if allow_half and rng.random() < 0.3:
            e += Fraction(1, 2)
        return e

    # A global monomial may carry hbar freely and only a half-integer power of
    # z: an a-power would move every q-valuation, an integer z-power would make
    # one chamber diverge.
    global_exps: dict[str, Fraction] = {}
    if rng.random() < 0.5:
        if rng.random() < 0.4:
            global_exps["z"] = rng.choice((Fraction(1, 2), Fraction(-1, 2)))
        if rng.random() < 0.5:
            global_exps["hbar"] = hbar_exp(True)

    def maybe_hbar(exps: dict, p: float) -> dict:
        return {**exps, "hbar": hbar_exp(False)} if rng.random() < p else exps

    terms = []
    for _ in range(rng.randint(1, 4)):
        num: list = []
        den: list = []
        if s_az:
            n = rng.choice([d for d in (1, -1, 2, -2) if s_az % d == 0])
            m = s_az // n
            num.append(theta(maybe_hbar({"a": n, "z": m}, 0.4)))
            den.append(theta(maybe_hbar({"a": n}, 0.3)))
            den.append(theta(maybe_hbar({"z": m}, 0.3)))
        budget = rng.randint(0, 5)
        while budget > 0:
            kind = rng.random()
            if kind < 0.35:
                var, e = "a", rng.choice(_RANGE)
            elif kind < 0.7:
                var, e = "z", rng.choice(_RANGE)
            else:
                var, e = "a", rng.choice((1, -1, 2))
            up = theta({var: e, "hbar": hbar_exp(False)})
            down = theta({var: e})
            if kind < 0.7 and rng.random() < 0.5:
                up, down = down, up
            num.append(up)
            den.append(down)
            budget -= 2
        gap = s_ah - _pairing(num, den, "a", "hbar")
        if gap:
            num.append(theta({"a": 1, "hbar": gap}))
            den.append(theta({"a": 1}))
        prefactor = Monomial({**global_exps, "hbar": global_exps.get("hbar", 0) + hbar_exp(True)})
        terms.append(sl.BalancedTerm(prefactor, tuple(num), tuple(den)))
    for term in terms:
        for x, y, s in (("a", "z", s_az), ("a", "hbar", s_ah)):
            got = _pairing(term.numerator, term.denominator, x, y)
            if got != s:
                raise AssertionError(f"generated term has ({x}, {y}) pairing {got}, not {s}")
    return sl.BalancedExpression(tuple(terms))


def _pairing(num, den, x: str, y: str) -> Fraction:
    """Signed sum over theta factors of exponent(x) * exponent(y)."""
    total = Fraction(0)
    for args, sign in ((num, 1), (den, -1)):
        for arg in args:
            total += sign * arg.monomial.exponent(x) * arg.monomial.exponent(y)
    return total


def section_spec(rng: random.Random, key: int) -> dict:
    r = rng.randint(1, 6)
    return {"seed": key, "w": str(Fraction(rng.randint(-3 * r, 3 * r), r))}


def prepare_sections(sl, specs: list[tuple[int, dict]], workdir: str) -> list[Op]:
    variables = sl.VariableSet(("a",), "hbar", ("z",))
    ops = []
    for item, spec in specs:
        expr = make_section(sl, random.Random(f"sections/{spec['seed']}"))
        weight = {"a": Fraction(spec["w"])}

        def run(expr=expr, weight=weight):
            pairing = sl.quasiperiod_pairing(expr, variables)
            norm, value = sl.q_limit(expr, weight, variables)
            limits = []
            for direction in ("zero", "infinity"):
                chamber = sl.KahlerChamber({"z": direction})
                correction = sl.chamber_correction(pairing, weight, norm, chamber)
                limits.append(sl.z_limit(value, chamber, correction * norm))
            return pairing, norm, value, limits

        ops.append(Op(item, run, _check_section, entries=1))
    return ops


def _check_section(result) -> dict:
    pairing, norm, value, (zero, infinity) = result
    return {
        "pairing": sorted([list(k), v] for k, v in pairing.items()),
        "normalization": norm.to_json(),
        "q_limit": rational_value(value.to_json()),
        "zero": rational_value(zero.to_json()),
        "infinity": rational_value(infinity.to_json()),
    }


# ---------------------------------------------------------------------------
# matrix: limit-apply on a restriction matrix labelled by one residue component.


def make_entry(sl, rng: random.Random, s: int):
    """A single-term balanced entry whose (a, z) pairing is s."""
    theta = sl.theta
    num: list = []
    den: list = []
    if s:
        n = rng.choice([d for d in (1, -1, 2, -2, 3, -3) if s % d == 0])
        num.append(theta({"a": n, "z": s // n}))
        den.append(theta({"a": n}))
        den.append(theta({"z": s // n}))
    for _ in range(rng.randint(0, 2)):
        var = rng.choice(("a", "z"))
        e = rng.choice(_RANGE)
        up, down = theta({var: e, "hbar": rng.choice((-2, -1, 1, 2))}), theta({var: e})
        if var == "z" and rng.random() < 0.5:
            up, down = down, up
        num.append(up)
        den.append(down)
    prefactor = sl.Monomial({"hbar": Fraction(rng.randint(-2, 2))})
    return sl.BalancedExpression.single(num, den, prefactor)


def build_matrix(sl, spec: dict, with_slopes: bool):
    """The restriction matrix of a matrix spec, with full metadata."""
    conv = sl.ConventionSet("i-j", "neg")
    variables = sl.VariableSet(("a",), "hbar", ("z",))
    w = Fraction(spec["w"])
    labels = tuple(spec["labels"])
    diagrams = {l: sl.YoungDiagram.from_string(l) for l in labels}
    d = {l: sl.d_lambda(diagrams[l], conv) for l in labels}
    pol = {l: sl.polarization(diagrams[l], conv) for l in labels}
    direction = conv.chamber_direction("a")
    meta = sl.MatrixMetadata(
        variables=variables,
        convention=conv,
        order=labels,
        polarizations=pol,
        unnormalized_diagonal={l: sl.expected_diagonal(pol[l], w, direction) for l in labels},
        slopes={l: w * d[l] for l in labels} if with_slopes else None,
    )
    matrix = sl.RestrictionMatrix.identity(labels, meta)
    rng = random.Random(f"matrix/{spec['seed']}")
    for i, row in enumerate(labels):
        for col in labels[:i]:
            matrix.entries[(row, col)] = make_entry(sl, rng, d[col] - d[row])
    return matrix


def prepare_matrix(sl, specs: list[tuple[int, dict]], workdir: str) -> list[Op]:
    ops = []
    for item, spec in specs:
        path = os.path.join(workdir, f"matrix-{item}.json")
        with open(path, "w") as fh:
            json.dump(build_matrix(sl, spec, spec["slopes"]).to_json(), fh)
        argvs = [["limit-apply", "--input", path, "--w=" + spec["w"], "--chamber", chamber]
                 for chamber in ("zero", "infinity")]
        entries = len(spec["labels"]) * (len(spec["labels"]) - 1)  # off-diagonal, both chambers
        ops.append(Op(item, lambda argvs=argvs: "".join(run_cli(sl.cli, argv) for argv in argvs),
                      _check_limit_apply, entries))
    return ops


def _check_limit_apply(output: str) -> str:
    """Digest of the JSON lines with every k-matrix value replaced by its
    exact value at POINT; all other fields are kept byte for byte."""
    lines = []
    for line in output.splitlines():
        rec = json.loads(line)
        if "k_matrix" in rec:
            for entry in rec["k_matrix"]["entries"]:
                entry["value"] = rational_value(entry["value"])
            line = json.dumps(rec, sort_keys=True)
        lines.append(line)
    return digest("\n".join(lines))


# ---------------------------------------------------------------------------
# diagrams: the combinatorial CLI commands.


def diagrams_spec(rng: random.Random) -> dict:
    kind = rng.choice(("diflem-scan", "calibrate", "young-report", "component-enum", "framing-blocks"))
    if kind == "diflem-scan":
        content = rng.choice(("i-j", "j-i"))
        argv = [kind, "--n-max", str(rng.randint(3, 5)), "--b-max", str(rng.randint(2, 4)),
                "--content", content]
    elif kind == "calibrate":
        argv = [kind, "--n-max", str(rng.randint(3, 4)), "--b-max", str(rng.randint(2, 3))]
    elif kind == "young-report":
        b = rng.randint(2, 4)
        ws = sorted({Fraction(rng.randint(1, 2 * b), b) for _ in range(3)})
        argv = [kind, "--n-max", str(rng.randint(5, 8)), "--b", str(b),
                "--w", ",".join(str(w) for w in ws)]
    elif kind == "component-enum":
        b = rng.randint(2, 4)
        p = rng.choice([p for p in range(1, 2 * b) if Fraction(p, b).denominator == b])
        argv = [kind, "--n", str(rng.randint(5, 9)), "--b", str(b), "--w", str(Fraction(p, b))]
    else:
        k = rng.randint(3, 6)
        r = rng.randint(2, 4)
        coords = [str(Fraction(rng.randint(-2 * r, 2 * r), r)) for _ in range(k)]
        argv = [kind, "--w=" + ",".join(coords), "--frame-r", str(k),
                "--frame-n", str(rng.randint(3, 8))]
    return {"argv": argv}


def prepare_diagrams(sl, specs: list[tuple[int, dict]], workdir: str) -> list[Op]:
    return [
        Op(item, lambda argv=spec["argv"]: run_cli(sl.cli, argv), digest)
        for item, spec in specs
    ]


# ---------------------------------------------------------------------------
# series: exact theta expansions against the numeric theta product.

SERIES_Q = 0.01
SERIES_TOLERANCE = 1e-5
_SERIES_VALUES = {"a": 1.13 + 0.21j, "z": 0.84 - 0.37j, "hbar": 1.07 + 0.45j}


def series_spec(rng: random.Random) -> dict:
    if rng.random() < 0.125:
        return {"argv": ["theta-verify", "--order", str(rng.randint(4, 12)),
                         "--w-denoms", str(rng.randint(2, 4)), "--balanced-samples", "0"]}
    exps = {}
    while not exps:
        exps = {v: rng.randint(-2, 2) for v in ("a", "z", "hbar") if rng.random() < 0.6}
        exps = {v: e for v, e in exps.items() if e}
    r = rng.randint(1, 4)
    return {"exp": exps, "qshift": str(Fraction(rng.randint(-2 * r, 2 * r), r)),
            "order": rng.randint(4, 16)}


def prepare_series(sl, specs: list[tuple[int, dict]], workdir: str) -> list[Op]:
    ctx = sl.NumericContext.from_values(_SERIES_VALUES)
    ops = []
    for item, spec in specs:
        if "argv" in spec:
            ops.append(Op(item, lambda argv=spec["argv"]: run_cli(sl.cli, argv), digest))
            continue
        arg = sl.ThetaArgument(sl.Monomial(spec["exp"]), Fraction(spec["qshift"]))
        order = spec["order"]

        def run(arg=arg, order=order):
            val = sl.theta_leading(arg).valuation
            series = sl.theta_series(arg, val + order)
            exact = series.evaluate(ctx, SERIES_Q)
            approx = sl.qseries.numeric_theta_argument(arg, SERIES_Q, ctx)
            return series, abs(exact - approx) / abs(approx)

        ops.append(Op(item, run, _check_series))
    return ops


def _check_series(result) -> str:
    series, rel = result
    if not rel < SERIES_TOLERANCE:
        raise OpFailed(f"series and theta product differ by {rel:.3g} at q = {SERIES_Q}")
    coeffs = sorted(series.coeffs.items())
    return digest(";".join(f"{e}:{c.to_text()}" for e, c in coeffs))


PREPARE = {
    "sections": prepare_sections,
    "matrix": prepare_matrix,
    "diagrams": prepare_diagrams,
    "series": prepare_series,
}
