"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -s` to see the lines.

Tolerances are pinned here and nowhere else: exact means exact (structural
equality of exact objects); the single numeric check runs at q = 1e-4 with
relative tolerance 1e-3 against the exact series, plus a convergence-rate
check toward the exact limit.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from oracles import (
    diagonal_exponent,
    euler_ratio_limit,
    mp_evaluate,
    mp_monomial,
    mp_rational,
    mp_theta_argument,
    quarter_roots,
)
from stablimits.balanced import (
    BalancedExpression,
    KahlerChamber,
    chamber_correction,
    q_limit,
    quasiperiod_pairing,
    random_balanced_expression,
    theta,
    z_limit,
)
from stablimits.chars import (
    Character,
    Monomial,
    ONE,
    RationalExpr,
    VariableSet,
)
from stablimits.framing import (
    BlockPartition,
    QuiverFrame,
    component_count,
    enumerate_fixed_components,
    normal_character_crosses_blocks,
)
from stablimits.hilbert import (
    ConventionSet,
    YoungDiagram,
    calibrate,
    difference_scan,
    hooks,
    index_exponent,
    m_general,
    m_hilbert,
    partitions,
    polarization,
    sigma,
)
from stablimits.pipeline import (
    MatrixMetadata,
    RestrictionMatrix,
    apply_limit_theorem,
    check_stab_axioms,
    expected_diagonal,
    validate_section,
)
from stablimits.qseries import (
    ThetaArgument,
    theta_leading,
    theta_ratio_limit,
    theta_series,
    verify_oddness,
    verify_quasiperiod,
)

VARS = VariableSet(("a",), "hbar", ("z",))
half = Fraction(1, 2)


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"CRITERION {number}: PASS ({elapsed:.2f}s) {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def w_grid(b_values=(2, 3, 4), numerator_factor=4):
    out = []
    for b in b_values:
        for a in range(1, numerator_factor * b):
            if gcd(a, b) == 1:
                out.append(Fraction(a, b))
    return sorted(set(out))


def test_criterion_1_theta_functional_equations():
    with criterion(1, 5.0, "oddness and quasiperiod hold exactly to order 20"):
        assert verify_oddness(20)
        assert verify_quasiperiod(20)


def test_criterion_2_limit_law_grid():
    with criterion(2, 30.0, "limit law matches the closed form for all |w| <= 3, denom <= 6"):
        a = Monomial.variable("a")
        z = Monomial.variable("z")
        ws = sorted({Fraction(p, r) for r in range(1, 7) for p in range(-3 * r, 3 * r + 1)})
        assert any(w.denominator == 1 for w in ws) and any(w.denominator == 6 for w in ws)
        for w in ws:
            got = theta_ratio_limit([ThetaArgument(z * a, w)], [ThetaArgument(a, w)]).combined()
            if w.denominator == 1:
                expected = RationalExpr(
                    Character({ONE: 1, z * a: -1}), Character({ONE: 1, a: -1})
                ).times_monomial(Monomial.variable("z", -w - half))
            else:
                expected = RationalExpr.from_monomial(
                    Monomial.variable("z", -(w.numerator // w.denominator) - half)
                )
            assert got == expected, f"w = {w}"


def test_criterion_3_balanced_limits_with_numeric_oracle():
    with criterion(
        3,
        120.0,
        "500 seeded balanced sections: q-limit exists, corrected z-limits exist "
        "both ways, numerics agree (1e-3 at q=1e-4) and converge to the limit",
    ):
        rng = random.Random(20260810)
        values = {"a": 1.23 + 0.31j, "z": 0.67 - 0.45j, "hbar": 1.41 + 0.18j}
        with mp.workdps(60):
            quarters = quarter_roots(values)
            q_oracle = mp.mpf("1e-4")
            rate_samples = 0
            for i in range(500):
                expr = random_balanced_expression(rng, VARS)
                r = rng.randint(1, 6)
                w = Fraction(rng.randint(-3 * r, 3 * r), r)
                weight = {"a": w}
                pairing = quasiperiod_pairing(expr, VARS)
                norm, value = q_limit(expr, weight, VARS)  # must not raise
                for direction in ("zero", "infinity"):
                    chamber = KahlerChamber({"z": direction})
                    corr = chamber_correction(pairing, weight, norm, chamber)
                    z_limit(value, chamber, corr * norm)  # must not raise
                # numeric oracle at q = 1e-4: the exact factor series against
                # the theta product, relative tolerance 1e-3
                shifted = expr.shifted(weight)
                for term in shifted.terms[:1]:  # one term per sample keeps the budget
                    for arg in (*term.numerator, *term.denominator):
                        val = theta_leading(arg).valuation
                        series = theta_series(arg, val + Fraction(7, 6))
                        exact = mp.mpc(0)
                        for e, c in series.coeffs.items():
                            exact += mp_rational(RationalExpr(c), quarters) * mp.power(
                                q_oracle, mp.mpf(e.numerator) / e.denominator
                            )
                        approx = mp_theta_argument(arg, q_oracle, quarters)
                        rel = abs(exact - approx) / abs(approx)
                        assert rel < 1e-3, f"sample {i}: factor oracle off by {rel}"
                # convergence to the exact limit at the expected rate
                if i % 10 == 0:
                    target = mp_monomial(norm, quarters) * mp_rational(value, quarters)
                    errs = [
                        abs(mp_evaluate(shifted, mp.mpf(qq), quarters) - target)
                        for qq in ("1e-3", "1e-5")
                    ]
                    scale = max(abs(target), mp.mpf("1e-9"))
                    assert errs[1] / scale < 0.25 or errs[1] < errs[0] * 0.5, f"sample {i}"
                    rate_samples += 1
            assert rate_samples == 50


def test_criterion_4_hook_and_determinant_identities():
    with criterion(4, 60.0, "hook and determinant identities exact for all |diagram| <= 12"):
        count = 0
        for content in ("i-j", "j-i"):
            conv = ConventionSet(content, "neg")
            for n in range(1, 13):
                for dg in partitions(n):
                    P = polarization(dg, conv)
                    doubled = Character.from_terms(
                        (Monomial.variable("a", s * h), 1)
                        for h in hooks(dg)
                        for s in (1, -1)
                    )
                    assert P + P.conjugate() == doubled, dg
                    assert P.determinant() == Monomial.variable("a", sigma(dg, conv)), dg
                    count += 1
        assert count == 2 * 271  # all diagrams with 1 <= n <= 12, both signs


def test_criterion_5_difference_identity_and_calibration():
    with criterion(
        5,
        120.0,
        "normalization-difference identity exact on n <= 8, b in {2,3,4}, a < 4b "
        "under the calibrated convention; attract=pos fails (negative control); "
        "exponents cross-checked against exact Euler-ratio limits",
    ):
        result = calibrate(n_max=5)
        assert result.default == ConventionSet("i-j", "neg")
        conv = result.default
        # the identity, full grid, combinatorial form
        assert difference_scan(conv, 8, (2, 3, 4), numerator_factor=4) == []
        assert difference_scan(ConventionSet("j-i", "neg"), 8, (2, 3, 4), 4) == []
        # negative control: both attract=pos conventions fail the same scan
        for content in ("i-j", "j-i"):
            bad = difference_scan(ConventionSet(content, "pos"), 4, (2, 3, 4), 4)
            assert bad, f"({content}, pos) unexpectedly passed"
        # engine cross-check: the combinatorial exponent is the exact one
        for n in range(1, 6):
            for dg in partitions(n):
                P = polarization(dg, conv)
                for w in w_grid():
                    sign, exponent = diagonal_exponent(P, w, conv.chamber_direction())
                    assert exponent == index_exponent(dg, w, conv), (dg, w)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The plain floor-sum form of the difference identity only makes sense "
        "for honest Laurent indices; the chamber-negative indices here are "
        "virtual and the plain floor is not odd under negation, so this form "
        "fails once an index term pairs past the first integer (first at "
        "n=3, w=1/2).  The exact limits obey the symmetrized-floor form "
        "verified in criterion 5; see README 'The difference identity'."
    ),
)
def test_criterion_5_plain_floor_form_full_grid():
    assert difference_scan(ConventionSet("i-j", "neg"), 8, (2, 3, 4), 4, form="floor") == []


def test_criterion_6_m_identity():
    with criterion(6, 30.0, "m_general = m_hilbert + w n^2 exactly for |diagram| <= 10"):
        conv = ConventionSet("i-j", "neg")
        grid = w_grid()
        for n in range(1, 11):
            for dg in partitions(n):
                for w in grid:
                    assert m_general(dg, w, conv) == m_hilbert(dg, w, conv) + w * n * n


def test_criterion_7_s_hat_bridge():
    with criterion(7, 10.0, "s_hat = (-1)^rank det^(-1/2) Euler on 200 random characters"):
        rng = random.Random(7_2026)
        names = ("a", "b", "hbar")
        done = 0
        while done < 200:
            terms = {}
            for _ in range(rng.randint(1, 8)):
                m = Monomial({v: rng.randint(-4, 4) for v in names if rng.random() < 0.7})
                terms[m] = rng.choice((-3, -2, -1, 1, 2, 3))
            c = Character(terms)
            if c.multiplicity(ONE) < 0:
                continue  # s_hat(1) = 0 in a denominator: undefined on both sides
            lhs = c.s_hat()
            rhs = c.exterior_euler().times_monomial(c.determinant().sqrt().inverse())
            if c.rank() % 2:
                rhs = -rhs
            assert lhs == rhs
            done += 1


def test_criterion_8_executable_limit_fixture():
    with criterion(
        8, 5.0,
        "Euler-ratio limit on the two-box fixture is hbar^2(1-a^2/hbar)/(1-a^2), "
        "numerics converge at the q^(1/2) rate",
    ):
        P = Character.from_text("1*a + 1*a^2")
        N = Character.from_text("1*hbar*a^-1 + 1*hbar*a^-2")
        got = euler_ratio_limit(P, N, half)
        expected = RationalExpr(
            Character.from_text("1 + -1*a^2*hbar^-1").times_monomial(Monomial({"hbar": 2})),
            Character.from_text("1 + -1*a^2"),
        )
        assert got == expected
        # numeric oracle with the expected O(q^(1/2)) convergence
        values = {"a": 1.17 + 0.23j, "hbar": 0.81 - 0.34j}
        with mp.workdps(50):
            quarters = quarter_roots(values)
            target = mp_rational(got, quarters)
            errors = []
            for q in ("1e-3", "1e-4", "1e-5"):
                qv = mp.mpf(q)
                num = mp_theta_argument(ThetaArgument(Monomial({"hbar": 1, "a": -1}), -half), qv, quarters)
                num *= mp_theta_argument(ThetaArgument(Monomial({"hbar": 1, "a": -2}), -1), qv, quarters)
                den = mp_theta_argument(ThetaArgument(Monomial({"a": 1}), half), qv, quarters)
                den *= mp_theta_argument(ThetaArgument(Monomial({"a": 2}), 1), qv, quarters)
                errors.append(abs(num / den - target) / abs(target))
            for err, q in zip(errors, (1e-3, 1e-4, 1e-5)):
                assert err < 20 * mp.sqrt(q), f"error {err} too large at q={q}"
            assert errors[2] < errors[1] < errors[0]


def test_criterion_9_pipeline_sanity():
    with criterion(
        9, 30.0,
        "identity matrices map to identity for every w and both chambers; "
        "synthetic entries give the hand-derived values; triangularity and "
        "diagonal normalization pass",
    ):
        conv = ConventionSet("i-j", "neg")
        meta = MatrixMetadata(variables=VARS, order=("x", "y", "w3"))
        identity = RestrictionMatrix.identity(("x", "y", "w3"), meta)
        ws = sorted({Fraction(p, r) for r in (1, 2, 3, 4) for p in range(-2 * r, 2 * r + 1)})
        for w in ws:
            for chamber in ("zero", "infinity"):
                out = apply_limit_theorem(identity, w, chamber)
                assert out.matrix.is_identity()

        # synthetic 2x2: theta(za)/theta(a) fixture, both chambers
        meta2 = MatrixMetadata(variables=VARS, order=("x", "y"))
        m = RestrictionMatrix.identity(("x", "y"), meta2)
        m.entries[("y", "x")] = BalancedExpression.single(
            (theta({"a": 1, "z": 1}),), (theta({"a": 1}),)
        )
        one = Character.one()
        a = Character.from_text("1*a")
        out = apply_limit_theorem(m, 0, "zero")
        assert out.matrix.entry("y", "x") == RationalExpr(one, one - a)
        out = apply_limit_theorem(m, 0, "infinity")
        assert out.matrix.entry("y", "x") == RationalExpr(-a, one - a)
        report = check_stab_axioms(out.matrix, meta2, 0)
        assert report.ok

        # Hilbert-labeled matrix: validation, triangularity, diagonal
        # normalization in its self-consistent forward form
        P2 = polarization(YoungDiagram((2,)), conv)
        P11 = polarization(YoungDiagram((1, 1)), conv)
        direction = conv.chamber_direction()
        meta3 = MatrixMetadata(
            variables=VARS,
            convention=conv,
            order=("1,1", "2"),
            polarizations={"2": P2, "1,1": P11},
            unnormalized_diagonal={
                "2": expected_diagonal(P2, half, direction),
                "1,1": expected_diagonal(P11, half, direction),
            },
        )
        m3 = RestrictionMatrix.identity(("1,1", "2"), meta3)
        m3.entries[("2", "1,1")] = BalancedExpression.single(
            (theta({"a": 1, "z": 2}),), (theta({"a": 1}), theta({"z": 2})),
        )
        assert validate_section(m3).ok
        out3 = apply_limit_theorem(m3, half, "zero")
        assert out3.conjugation is not None
        assert out3.conjugation.z_exponents == (half, -half)
        report3 = check_stab_axioms(out3.matrix, meta3, half)
        assert report3.ok
        diag_checks = [r for r in report3.records if r.name == "diagonal-normalization"]
        assert all(r.passed for r in diag_checks)


def test_criterion_10_framing_enumeration():
    with criterion(
        10, 10.0,
        "component counts match composition products for |r| <= 4, dims <= 4; "
        "block relation matches character invariance on all pairs",
    ):
        import math as _math
        from itertools import product as _product

        def partitions_of_set(items):
            if not items:
                yield ()
                return
            first, rest = items[0], items[1:]
            for sub in partitions_of_set(rest):
                yield ((first,), *sub)
                for k in range(len(sub)):
                    merged = tuple(sorted((first, *sub[k])))
                    yield (*sub[:k], merged, *sub[k + 1:])

        frames = []
        for r in ((1,), (2,), (3,), (4,), (1, 1), (2, 1), (2, 2), (1, 1, 1)):
            for dims in _product(range(5), repeat=len(r)):
                if sum(dims) == 0:
                    continue
                frames.append(QuiverFrame(r, dims))
        assert len(frames) > 50
        for frame in frames[:120]:
            total = frame.total_framing
            for blocks in partitions_of_set(tuple(range(1, total + 1))):
                bp = BlockPartition(blocks)
                comps = enumerate_fixed_components(frame, bp)
                expected = 1
                mparts = len(bp.blocks)
                for n in frame.dims:
                    expected *= _math.comb(n + mparts - 1, mparts - 1)
                assert len(comps) == expected == component_count(frame, bp)
                if mparts == 1:
                    assert comps == [(frame.dims,)]

        # block/invariance consistency on all pairs for a grid of points
        from stablimits.framing import FramingPoint, index_blocks

        coords = [Fraction(0), Fraction(1), half, Fraction(1, 3), Fraction(4, 3), Fraction(-1, 2)]
        for k in (2, 3):
            for point_coords in _product(coords, repeat=k):
                point = FramingPoint(point_coords)
                blocks = index_blocks(point)
                names = tuple(f"a{i+1}" for i in range(k))
                weight = point.weight(names)
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        if i == j:
                            continue
                        ratio = Character.monomial(Monomial({names[i - 1]: 1, names[j - 1]: -1}))
                        invariant = not ratio.invariant_part(weight).is_zero
                        assert invariant == (not normal_character_crosses_blocks(i, j, blocks))
