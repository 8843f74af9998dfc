import json
import pathlib
import re
from collections import Counter
from fractions import Fraction

import pytest

from stablimits.balanced import BalancedExpression, theta
from stablimits.chars import Character, Monomial, RationalExpr, VariableSet
from stablimits.cli import main
from stablimits.hilbert import (
    ConventionSet,
    YoungDiagram,
    index_exponent,
    m_hilbert,
    partitions,
    nu_component,
    polarization,
)
from stablimits.pipeline import (
    EntryLimitError,
    MalformedInput,
    MatrixMetadata,
    RestrictionMatrix,
    apply_limit_theorem,
    check_stab_axioms,
    expected_diagonal,
    normal_negative,
    validate_section,
)
from stablimits.qseries import LimitUndefined
from oracles import diagonal_exponent, euler_ratio_limit

VARS = VariableSet(("a",), "hbar", ("z",))
CONV = ConventionSet("i-j", "neg")
half = Fraction(1, 2)


def ch(text):
    return Character.from_text(text)


def metadata(**kw):
    return MatrixMetadata(variables=VARS, **kw)


# --- euler_ratio_limit ------------------------------------------------------------


def test_euler_ratio_limit_fixture():
    """P = a + a^2, N^- = hbar (a^-1 + a^-2), w = 1/2 gives
    hbar^2 (1 - a^2/hbar) / (1 - a^2)."""
    P = ch("1*a + 1*a^2")
    N = ch("1*hbar*a^-1 + 1*hbar*a^-2")
    out = euler_ratio_limit(P, N, half)
    expected = RationalExpr(
        ch("1 + -1*a^2*hbar^-1").times_monomial(Monomial({"hbar": 2})),
        ch("1 + -1*a^2"),
    )
    assert out == expected


def test_euler_ratio_limit_no_shift_gives_s_hat_ratio():
    P = ch("1*a + 1*a^2")
    N = ch("1*hbar*a^-1 + 1*hbar*a^-2")
    out = euler_ratio_limit(P, N, 0)
    expected = N.s_hat() / P.s_hat()
    assert out == expected


def test_euler_ratio_limit_cancellation():
    P = ch("1*a + 1*a^2")
    assert euler_ratio_limit(P, P, Fraction(5, 3)) == RationalExpr.one()


def test_euler_ratio_limit_is_binomial_shaped():
    # result must be a monomial times ratios of (1 - monomial) factors:
    # integer a-exponents only, no q left behind (both guaranteed by types)
    P = polarization(YoungDiagram((2, 1)), CONV)
    N = normal_negative(P, CONV.chamber_direction())
    out = euler_ratio_limit(P, N, Fraction(1, 3))
    for mono, _ in (*out.num.items(), *out.den.items()):
        assert mono.exponent("a").denominator == 1


# --- diagonal exponents -------------------------------------------------------------


@pytest.mark.parametrize("rows,w", [
    ((2,), half), ((1, 1), half), ((2, 1), Fraction(2, 3)),
    ((3, 1), half), ((2, 2), Fraction(3, 2)), ((4,), Fraction(1, 3)),
])
def test_diagonal_exponent_matches_symmetrized_floor(rows, w):
    dg = YoungDiagram(rows)
    for conv in (CONV, ConventionSet("i-j", "pos")):
        P = polarization(dg, conv)
        sign, exponent = diagonal_exponent(P, w, conv.chamber_direction())
        assert exponent == index_exponent(dg, w, conv)


def test_diagonal_exponent_differences_halve_m():
    for n in (2, 3, 4):
        for w in (half, Fraction(1, 3), Fraction(4, 3)):
            groups = {}
            for dg in partitions(n):
                groups.setdefault(nu_component(dg, w.denominator, CONV), []).append(dg)
            for group in groups.values():
                if len(group) < 2:
                    continue
                data = [
                    (diagonal_exponent(polarization(dg, CONV), w, CONV.chamber_direction())[1],
                     m_hilbert(dg, w, CONV))
                    for dg in group
                ]
                (e0, m0) = data[0]
                for e, m in data[1:]:
                    assert e - e0 == (m - m0) / 2


def test_expected_diagonal_forward_form():
    # P = a + a^2 under the pos chamber reproduces the executable-limit fixture
    P = ch("1*a + 1*a^2")
    direction = {"a": Fraction(1)}
    out = expected_diagonal(P, half, direction)
    core = euler_ratio_limit(P, normal_negative(P, direction), half)
    euler = P.invariant_part({"a": half}).conjugate().exterior_euler()
    assert out == core * euler


def theta_ratio_diagonal(P, w, direction):
    """The theta-ratio route to the forward diagonal, the oracle of the closed form:
    lim_q [Theta(N^-)/Theta(P)] * Euler(conj P_inv) * det(P_0)^(1/2)."""
    weight = w if isinstance(w, dict) else {"a": Fraction(w)}
    core = euler_ratio_limit(P, normal_negative(P, direction), weight)
    euler = P.invariant_part(weight).conjugate().exterior_euler()
    _, zero_part, _ = P.chamber_split(direction)
    return (core * euler).times_monomial(zero_part.determinant().sqrt())


def assert_same_diagonal(got, want, context):
    assert got == want, context
    for variables in (("a",), ("hbar",)):
        assert got.degree_span(variables) == want.degree_span(variables), context


def test_expected_diagonal_closed_form_matches_theta_ratio_route():
    """Every diagram with n <= 5, all four conventions, w = p/r with r <= 4."""
    ws = sorted({Fraction(p, r) for r in range(1, 5) for p in range(-r, 2 * r + 1)})
    for content in ("i-j", "j-i"):
        for attract in ("pos", "neg"):
            conv = ConventionSet(content, attract)
            direction = conv.chamber_direction()
            for n in range(6):
                for dg in partitions(n):
                    P = polarization(dg, conv)
                    for w in ws:
                        want = theta_ratio_diagonal(P, w, direction)
                        assert_same_diagonal(expected_diagonal(P, w, direction), want, (dg, conv, w))


@pytest.mark.parametrize("text,weight,outcome", [
    ("1*a + 1*a^2 + -1*a^-1", {"a": half, "hbar": -half}, "pole"),
    ("1*a + 1*a^2 + -1*a^-1", {"a": half, "hbar": half}, "zero"),
    ("1*a + 1*a^2 + -1*a^-1", {"a": Fraction(1, 3), "hbar": Fraction(1)}, "value"),
    ("1*a + -1*a^2", {"a": half, "hbar": half}, "value"),
])
def test_expected_diagonal_closed_form_keeps_the_valuation_rules(text, weight, outcome):
    """Virtual characters with hbar shifted: a q-pole raises the theta-ratio
    route's LimitUndefined, a positive valuation gives zero."""
    P, direction = ch(text), {"a": Fraction(1)}
    if outcome == "pole":
        with pytest.raises(LimitUndefined) as want:
            theta_ratio_diagonal(P, weight, direction)
        with pytest.raises(LimitUndefined) as got:
            expected_diagonal(P, weight, direction)
        assert str(got.value) == str(want.value)
        return
    got, want = expected_diagonal(P, weight, direction), theta_ratio_diagonal(P, weight, direction)
    assert got.is_zero == want.is_zero == (outcome == "zero")
    if outcome == "value":
        assert_same_diagonal(got, want, text)


# --- restriction matrices -----------------------------------------------------------


def entry_for(S: int, qshift=0) -> BalancedExpression:
    """theta(a z^S) / (theta(a) theta(z^S)): pairing S, balanced both ways."""
    return BalancedExpression.single(
        (theta({"a": 1, "z": S}, qshift),),
        (theta({"a": 1}, qshift), theta({"z": S})),
    )


def two_by_two(entry: BalancedExpression, labels=("x", "y"), **meta) -> RestrictionMatrix:
    m = RestrictionMatrix.identity(labels, metadata(**meta))
    m.entries[(labels[1], labels[0])] = entry
    return m


def test_validate_identity_matrix():
    report = validate_section(RestrictionMatrix.identity(("x", "y"), metadata()))
    assert report.ok
    assert all(r.passed for r in report.records)


def test_validate_single_entry():
    report = validate_section(two_by_two(entry_for(1)))
    assert report.ok
    names = {r.name for r in report.records}
    assert {"balanced-equivariant", "balanced-kahler", "separated-poles",
            "quasiperiod-consistency", "unit-diagonal"} <= names


def test_validate_flags_mixed_pole():
    bad = BalancedExpression.single(
        (theta({"a": 1}),), (theta({"a": 1, "z": 1}),)
    )
    report = validate_section(two_by_two(bad))
    failures = {r.name for r in report.failures()}
    assert "separated-poles" in failures
    assert "balanced-kahler" in failures  # theta(z) is unmatched downstairs


def test_validate_pairing_against_degrees():
    # diagram labels "2" and "1,1" have d = -1 and +1; the (row="2", col="1,1")
    # entry must carry pairing d_col - d_row = 2
    m = RestrictionMatrix.identity(("1,1", "2"), metadata(convention=CONV))
    m.entries[("2", "1,1")] = entry_for(2)
    report = validate_section(m)
    assert report.ok
    m.entries[("2", "1,1")] = entry_for(1)
    report = validate_section(m)
    assert any(r.name == "pairing-vs-degrees" and r.passed is False for r in report.records)


def test_hbar_inconsistent_entry_is_rejected(tmp_path, capsys):
    # both terms pair (a, z) to 1; the second also pairs (a, hbar) to 1
    mixed = entry_for(1) + BalancedExpression.single(
        (theta({"a": 1, "z": 1}), theta({"a": 1, "hbar": 1})),
        (theta({"a": 1}), theta({"z": 1}), theta({"a": 1})),
    )
    m = two_by_two(mixed)
    [rec] = [r for r in validate_section(m).records if r.name == "quasiperiod-consistency"]
    assert rec.passed is False
    assert rec.detail == "terms carry different (a, hbar) quasiperiod pairings: 0 vs 1"
    with pytest.raises(MalformedInput, match=r"quasiperiod-consistency\(y, x\)"):
        apply_limit_theorem(m, 0, "zero")
    # the command line reports the failed check and computes no limit
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(m.to_json()))
    assert main(["limit-apply", "--input", str(path)]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    failed = [r for r in lines if r.get("status") == "fail"]
    assert [(r["check"], r["subject"]) for r in failed] == [("quasiperiod-consistency", "(y, x)")]
    assert not any(r.get("phase") == "result" for r in lines)


def test_matrix_json_round_trip(tmp_path):
    m = RestrictionMatrix.identity(("1,1", "2"), metadata(convention=CONV, order=("1,1", "2")))
    m.entries[("2", "1,1")] = entry_for(2)
    blob = m.to_json()
    again = RestrictionMatrix.from_json(blob)
    assert again.to_json() == blob
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(blob))
    assert RestrictionMatrix.load(path).to_json() == blob


def test_malformed_json():
    with pytest.raises(MalformedInput):
        RestrictionMatrix.from_json({"labels": ["x"], "entries": [{"row": "x", "col": "nope", "expr": {}}]})
    with pytest.raises(MalformedInput):
        RestrictionMatrix.from_json({"entries": []})


# --- the limit pipeline ---------------------------------------------------------------


def test_identity_maps_to_identity_for_any_shift_and_chamber():
    m = RestrictionMatrix.identity(("x", "y", "z3"), metadata())
    for w in (0, half, Fraction(-7, 3)):
        for chamber in ("zero", "infinity"):
            out = apply_limit_theorem(m, w, chamber)
            assert out.matrix.is_identity()


def test_synthetic_entry_toward_zero():
    # theta(za)/theta(a) at w = 0 -> z^(-1/2)(1-az)/(1-a); correction z^(1/2)
    # leaves 1/(1-a) at z -> 0
    m = two_by_two(BalancedExpression.single((theta({"a": 1, "z": 1}),), (theta({"a": 1}),)))
    out = apply_limit_theorem(m, 0, "zero")
    got = out.matrix.entry("y", "x")
    assert got == RationalExpr(Character.one(), ch("1 + -1*a"))


def test_synthetic_entry_toward_infinity():
    m = two_by_two(BalancedExpression.single((theta({"a": 1, "z": 1}),), (theta({"a": 1}),)))
    out = apply_limit_theorem(m, 0, "infinity")
    got = out.matrix.entry("y", "x")
    assert got == RationalExpr(ch("-1*a"), ch("1 + -1*a"))


def test_balanced_entry_both_chambers():
    # the fully balanced entry theta(az)/(theta(a)theta(z)) has S = 1;
    # at w = 0 the corrected limits are -1/(1-a) and -a/(1-a)
    m = two_by_two(entry_for(1))
    out0 = apply_limit_theorem(m, 0, "zero")
    assert out0.matrix.entry("y", "x") == RationalExpr(ch("-1"), ch("1 + -1*a"))
    out1 = apply_limit_theorem(m, 0, "infinity")
    assert out1.matrix.entry("y", "x") == RationalExpr(ch("-1*a"), ch("1 + -1*a"))


def test_hilbert_labeled_pipeline_with_conjugation_data():
    m = RestrictionMatrix.identity(("1,1", "2"), metadata(convention=CONV, order=("1,1", "2")))
    m.entries[("2", "1,1")] = entry_for(2)
    out = apply_limit_theorem(m, Fraction(1), "zero")
    assert out.conjugation is not None
    assert out.conjugation.z_exponents == (Fraction(1), Fraction(-1))
    entry = out.matrix.entry("2", "1,1")
    assert entry == RationalExpr(ch("-1"), ch("1 + -1*a"))


def test_pipeline_rejects_broken_diagonal():
    m = RestrictionMatrix.identity(("x", "y"), metadata())
    m.entries[("x", "x")] = entry_for(1)
    with pytest.raises(MalformedInput):
        apply_limit_theorem(m, 0, "zero")


def test_pipeline_wraps_entry_errors():
    # a q-pole inside one entry surfaces with its matrix address
    bad = BalancedExpression.single((theta({"a": 1}, Fraction(1)),), (theta({"a": 1}),))
    m = two_by_two(bad)
    with pytest.raises(EntryLimitError) as err:
        apply_limit_theorem(m, 0, "zero")
    assert err.value.row == "y" and err.value.col == "x"


def test_pipeline_wraps_divergent_entries():
    # an integral z-monomial prefactor forces genuine divergence toward
    # infinity after the quasiperiod correction
    expr = BalancedExpression.single(
        (theta({"a": 1, "z": 1}),),
        (theta({"a": 1}), theta({"z": 1})),
        prefactor=Monomial({"z": 1}),
    )
    m = two_by_two(expr)
    with pytest.raises(EntryLimitError):
        apply_limit_theorem(m, 0, "infinity")
    out = apply_limit_theorem(m, 0, "zero")  # the other chamber is fine
    assert out.matrix.entry("y", "x").is_zero


# --- axiom checks ----------------------------------------------------------------------


def test_axioms_identity_passes():
    m = RestrictionMatrix.identity(("x", "y"), metadata(order=("x", "y")))
    out = apply_limit_theorem(m, 0, "zero")
    report = check_stab_axioms(out.matrix, m.metadata, 0)
    assert report.ok


def test_axioms_triangularity():
    m = RestrictionMatrix.identity(("x", "y"), metadata(order=("y", "x")))
    m.entries[("y", "x")] = entry_for(1)
    out = apply_limit_theorem(m, 0, "zero")
    report = check_stab_axioms(out.matrix, m.metadata, 0)
    assert any(r.name == "support-triangularity" and r.passed is False for r in report.records)
    # with the declared order reversed the same entry is fine
    m2 = RestrictionMatrix.identity(("x", "y"), metadata(order=("x", "y")))
    m2.entries[("y", "x")] = entry_for(1)
    out2 = apply_limit_theorem(m2, 0, "zero")
    report2 = check_stab_axioms(out2.matrix, m2.metadata, 0)
    assert report2.ok


def test_axioms_diagonal_normalization_self_consistency():
    P2 = polarization(YoungDiagram((2,)), CONV)
    P11 = polarization(YoungDiagram((1, 1)), CONV)
    direction = CONV.chamber_direction()
    diag = {
        "2": expected_diagonal(P2, half, direction),
        "1,1": expected_diagonal(P11, half, direction),
    }
    meta = metadata(
        convention=CONV,
        order=("1,1", "2"),
        polarizations={"2": P2, "1,1": P11},
        unnormalized_diagonal=diag,
    )
    m = RestrictionMatrix.identity(("1,1", "2"), meta)
    out = apply_limit_theorem(m, half, "zero")
    report = check_stab_axioms(out.matrix, meta, half)
    assert report.ok
    checks = {r.subject: r.passed for r in report.records if r.name == "diagonal-normalization"}
    assert checks == {"1,1": True, "2": True}


def test_axioms_diagonal_mismatch_detected():
    P2 = polarization(YoungDiagram((2,)), CONV)
    meta = metadata(
        convention=CONV,
        polarizations={"2": P2},
        unnormalized_diagonal={"2": RationalExpr.one()},
    )
    m = RestrictionMatrix.identity(("2",), meta)
    report = check_stab_axioms(apply_limit_theorem(m, half, "zero").matrix, meta, half)
    rec = [r for r in report.records if r.name == "diagonal-normalization"][0]
    assert rec.passed is False
    assert "expected" in rec.detail


def test_axioms_skip_without_data():
    m = RestrictionMatrix.identity(("x",), metadata())
    report = check_stab_axioms(apply_limit_theorem(m, 0, "zero").matrix, m.metadata, 0)
    skipped = [r for r in report.records if r.passed is None]
    assert skipped  # diagonal data absent: downgraded, not failed
    assert report.ok


def test_degree_window_with_slopes():
    P2 = polarization(YoungDiagram((2,)), CONV)
    P11 = polarization(YoungDiagram((1, 1)), CONV)
    meta = metadata(
        convention=CONV,
        order=("1,1", "2"),
        polarizations={"2": P2, "1,1": P11},
        slopes={"2": Fraction(0), "1,1": Fraction(0)},
    )
    m = RestrictionMatrix.identity(("1,1", "2"), meta)
    m.entries[("2", "1,1")] = entry_for(2)
    out = apply_limit_theorem(m, Fraction(1), "zero")
    report = check_stab_axioms(out.matrix, meta, Fraction(1))
    window = [r for r in report.records if r.name == "degree-window"]
    assert window and all(r.passed is not None for r in window)


GOLDEN = pathlib.Path(__file__).parent / "data"


def test_limit_apply_reports_one_wrong_supplied_diagonal(tmp_path):
    """A wrong supplied diagonal fails its one diagonal-normalization check
    (exit 1), and the expected text reads back as expected_diagonal."""
    data = json.loads((GOLDEN / "restriction_matrix.json").read_text())
    data["metadata"]["unnormalized_diagonal"]["2,2"] = RationalExpr.one().to_json()
    path, out_path = tmp_path / "matrix.json", tmp_path / "out.jsonl"
    path.write_text(json.dumps(data))
    code = main(["limit-apply", "--input", str(path), "--w", "1", "--output", str(out_path)])
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    diagonal = {r["subject"]: r for r in records if r.get("check") == "diagonal-normalization"}
    fails = [r for r in diagonal.values() if r["status"] == "fail"]
    assert code == 1
    assert [r["subject"] for r in fails] == ["2,2"] and len(diagonal) == 4
    expected_text = fails[0]["detail"].split(", expected ")[1]
    num, den = re.fullmatch(r"RationalExpr\(\((.*)\) / \((.*)\)\)", expected_text).groups()
    meta = RestrictionMatrix.from_json(data).metadata
    want = expected_diagonal(meta.polarizations["2,2"], 1, meta.convention.chamber_direction())
    assert RationalExpr(Character.from_text(num), Character.from_text(den)) == want


# --- each fact once -------------------------------------------------------------


@pytest.mark.parametrize("chamber", ["zero", "infinity"])
def test_limit_apply_computes_each_pairing_once(monkeypatch, tmp_path, chamber):
    """validate_section hands each off-diagonal entry's quasiperiod pairing
    on to double_limit, which does not compute it again."""
    from stablimits import balanced, pipeline

    seen: Counter = Counter()
    original = balanced.quasiperiod_pairing

    def counting(expr, variables):
        seen[expr] += 1
        return original(expr, variables)

    monkeypatch.setattr(balanced, "quasiperiod_pairing", counting)
    monkeypatch.setattr(pipeline, "quasiperiod_pairing", counting)
    path = GOLDEN / "restriction_matrix.json"
    argv = ["limit-apply", "--input", str(path), "--w=1", "--chamber", chamber]
    main([*argv, "--output", str(tmp_path / "out.jsonl")])
    assert '"k_matrix"' in (tmp_path / "out.jsonl").read_text()  # the limit ran
    entries = RestrictionMatrix.load(path).entries
    assert seen == Counter(e for (row, col), e in entries.items() if row != col and not e.is_zero)


def test_expected_diagonal_splits_each_polarization_once(monkeypatch):
    split = []
    original = Character.chamber_split

    def counting(self, direction):
        split.append(self)
        return original(self, direction)

    monkeypatch.setattr(Character, "chamber_split", counting)
    meta = RestrictionMatrix.load(GOLDEN / "restriction_matrix.json").metadata
    for P in meta.polarizations.values():
        expected_diagonal(P, 1, meta.convention.chamber_direction())
    assert split == list(meta.polarizations.values())
