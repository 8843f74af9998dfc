import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stablimits.chars import Character, Monomial
import stablimits.hilbert as hilbert
from stablimits.hilbert import (
    ATTRACT_SIGNS,
    CONTENT_SIGNS,
    ComponentMismatch,
    ConventionSet,
    DEFAULT_CONVENTION,
    YoungDiagram,
    calibrate,
    conjugation_matrices,
    contents,
    d_lambda,
    difference_scan,
    enumerate_components,
    fixed_point_data,
    floor_index_pairing,
    hooks,
    index_character,
    index_exponent,
    is_nontrivial_shift,
    m_general,
    m_hilbert,
    negative_normal_characters,
    nontrivial_shifts,
    nu_component,
    partitions,
    polarization,
    sigma,
)

IJ_NEG = ConventionSet("i-j", "neg")
IJ_POS = ConventionSet("i-j", "pos")
half = Fraction(1, 2)


def ch(text):
    return Character.from_text(text)


def d(*rows):
    return YoungDiagram(rows)


# --- partitions ---------------------------------------------------------------


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert [len(partitions(n)) for n in range(13)] == expected


def test_partition_order_is_descending_lex():
    assert [p.rows for p in partitions(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    assert YoungDiagram(()).size == 0


def test_conjugate_diagram():
    assert d(3, 1).conjugate() == d(2, 1, 1)
    assert d(2, 2).conjugate() == d(2, 2)


def test_diagram_string_round_trip():
    assert YoungDiagram.from_string("3,1") == d(3, 1)
    assert str(d(3, 1)) == "3,1"


# --- contents, hooks, degrees ---------------------------------------------------


def test_contents_examples():
    assert Counter(contents(d(2), IJ_NEG)) == Counter({0: 1, -1: 1})
    assert Counter(contents(d(1, 1), IJ_NEG)) == Counter({0: 1, 1: 1})
    assert contents(YoungDiagram(()), IJ_NEG) == []
    assert Counter(contents(d(2), ConventionSet("j-i", "neg"))) == Counter({0: 1, 1: 1})


def test_hooks_examples():
    assert Counter(hooks(d(2))) == Counter({2: 1, 1: 1})
    assert Counter(hooks(d(2, 1))) == Counter({3: 1, 1: 2})
    assert hooks(d(1)) == [1]


def test_d_lambda_examples():
    assert d_lambda(d(2), IJ_NEG) == -1
    assert d_lambda(d(1, 1), IJ_NEG) == 1
    assert d_lambda(YoungDiagram(()), IJ_NEG) == 0


# --- polarization ----------------------------------------------------------------


def test_polarization_examples():
    assert polarization(d(2), IJ_NEG) == ch("1*a + 1*a^2")
    assert polarization(d(1, 1), IJ_NEG) == ch("2*a + 1*a^2 + -1*a^-1")
    assert polarization(d(1), IJ_NEG) == ch("1*a")


def test_polarization_rank_is_diagram_size():
    # single box: rank 1 (the spec's own worked example)
    for n in range(1, 7):
        for dg in partitions(n):
            assert polarization(dg, IJ_NEG).rank() == n


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.sampled_from(["i-j", "j-i"]))
def test_hook_identity(n, content):
    """P + conj(P) = sum over boxes of a^hook + a^(-hook)."""
    conv = ConventionSet(content, "neg")
    for dg in partitions(n):
        P = polarization(dg, conv)
        lhs = P + P.conjugate()
        rhs = Character.from_terms(
            (Monomial.variable("a", s * h), 1) for h in hooks(dg) for s in (1, -1)
        )
        assert lhs == rhs, dg


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.sampled_from(["i-j", "j-i"]))
def test_determinant_identity(n, content):
    """det(P) = a^(d + n^2)."""
    conv = ConventionSet(content, "neg")
    for dg in partitions(n):
        det = polarization(dg, conv).determinant()
        assert det == Monomial.variable("a", sigma(dg, conv)), dg
        assert sigma(dg, conv) == d_lambda(dg, conv) + n * n


# --- m exponents -----------------------------------------------------------------


def test_m_hilbert_examples():
    assert m_hilbert(d(2), half, IJ_NEG) == Fraction(-3, 2)
    assert m_hilbert(d(1, 1), half, IJ_NEG) == -half
    assert m_hilbert(d(3, 1), 0, IJ_NEG) == 0


def test_m_general_examples():
    assert m_general(d(2), half, IJ_NEG) == half
    assert m_general(d(1, 1), half, IJ_NEG) == Fraction(3, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(-16, 16),
    st.integers(1, 4),
)
def test_m_identity(n, p, r):
    """m_general = m_hilbert + w n^2 under the calibrated convention."""
    w = Fraction(p, r)
    for dg in partitions(n):
        assert m_general(dg, w, IJ_NEG) == m_hilbert(dg, w, IJ_NEG) + w * n * n


def test_index_character_under_both_chambers():
    assert index_character(d(2), IJ_POS) == ch("1*a + 1*a^2")
    assert index_character(d(2), IJ_NEG).is_zero
    assert index_character(d(1, 1), IJ_NEG) == ch("-1*a^-1")


def test_floor_index_pairing_examples():
    assert floor_index_pairing(d(2), half, IJ_POS) == 1
    assert floor_index_pairing(d(1, 1), half, IJ_NEG) == 1
    assert floor_index_pairing(d(2), half, IJ_NEG) == 0


# --- residue components -----------------------------------------------------------


def test_nu_component_examples():
    assert nu_component(d(2), 2, IJ_NEG) == (1, 1)
    assert nu_component(d(1, 1), 2, IJ_NEG) == (1, 1)
    assert nu_component(d(3, 1), 1, IJ_NEG) == (4,)


def test_enumerate_components_examples():
    assert enumerate_components(2, 2, IJ_NEG) == {(1, 1): [d(2), d(1, 1)]}
    assert enumerate_components(1, 3, IJ_NEG) == {(1, 0, 0): [d(1)]}
    comps = enumerate_components(3, 2, IJ_NEG)
    assert sum(len(v) for v in comps.values()) == 3
    assert comps[(1, 2)] == [d(2, 1)] or comps[(2, 1)] == [d(2, 1)]


@given(st.integers(1, 8), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_nu_component_sums_to_n(n, b):
    for dg in partitions(n):
        assert sum(nu_component(dg, b, IJ_NEG)) == n
    if b == 1:
        assert len(enumerate_components(n, 1, IJ_NEG)) == 1


# --- nontrivial shifts --------------------------------------------------------------


def test_nontrivial_shift_membership():
    assert is_nontrivial_shift(half, 3)
    assert not is_nontrivial_shift(Fraction(1, 4), 3)
    assert is_nontrivial_shift(Fraction(5), 1)


def test_nontrivial_shift_enumeration():
    shifts = nontrivial_shifts(2, 3)
    assert Fraction(1, 2) in shifts and Fraction(3, 2) in shifts
    assert all(s.denominator <= 2 for s in shifts)


def test_nontrivial_shift_predicate_matches_component_structure():
    # denominators b <= n are exactly the orders with a multi-diagram
    # component (so a shift of that order can act nontrivially)
    for n in range(2, 8):
        for b in range(1, 2 * n + 2):
            multi = any(
                len(group) > 1 for group in enumerate_components(n, b, IJ_NEG).values()
            )
            assert multi == is_nontrivial_shift(Fraction(1, b), n)


# --- difference identity and calibration ----------------------------------------


def test_exponent_difference_holds_under_calibrated_convention():
    assert difference_scan(IJ_NEG, 6) == []


def test_exponent_difference_negative_control():
    violations = difference_scan(IJ_POS, 4, stop_early=False)
    assert violations
    for d1, d2, w, lhs, rhs in violations:
        assert lhs != rhs


def test_floor_form_agrees_at_the_anchor_cell():
    # at n = 2, w = 1/2 the index is honest enough for the plain floor form:
    # it also separates the chamber conventions the same way
    assert difference_scan(IJ_NEG, 2, (2,), numerator_factor=1, form="floor") == []
    assert difference_scan(IJ_POS, 2, (2,), numerator_factor=1, form="floor") != []


def test_floor_form_breaks_once_indices_are_virtual():
    # the plain floor sum is not odd under negation, so virtual index terms
    # with pairings past the first integer desynchronize it from m; the
    # symmetrized (exponent) form is the one the exact limits obey
    bad = difference_scan(IJ_NEG, 3, (2,), numerator_factor=1, form="floor")
    assert bad
    d1, d2, w, lhs, rhs = bad[0]
    assert index_exponent(d1, w, IJ_NEG) - index_exponent(d2, w, IJ_NEG) == (
        m_hilbert(d1, w, IJ_NEG) - m_hilbert(d2, w, IJ_NEG)
    ) / 2


def test_symmetric_floor_is_odd_under_conjugation():
    c = Character.from_text("2*a + 1*a^2 + -1*a^-1")
    w = {"a": Fraction(2, 3)}
    assert c.symmetric_floor_pairing(w) == -c.conjugate().symmetric_floor_pairing(w)


def test_calibration_scan():
    result = calibrate(n_max=4)
    assert result.default == DEFAULT_CONVENTION == IJ_NEG
    assert IJ_POS in result.failing
    assert ConventionSet("j-i", "pos") in result.failing  # negative control
    assert IJ_NEG in result.passing
    assert ConventionSet("j-i", "neg") in result.passing


# --- conjugation matrices --------------------------------------------------------------


def test_conjugation_matrices_example():
    comp = [d(2), d(1, 1)]
    data = conjugation_matrices(comp, half, IJ_NEG)
    assert data.z_exponents == (-half, half)
    assert data.h_exponents == (Fraction(-3, 2), -half)
    # (2): index empty, sign +1; (1,1): index -a^-1 moves (pairing -1/2), rank -1
    assert data.h_signs == (1, -1)


def test_conjugation_matrices_integral_w():
    comp = partitions(2)
    data = conjugation_matrices(comp, Fraction(1), IJ_NEG)
    assert all(e.denominator == 1 for e in data.z_exponents)
    assert all(e.denominator == 1 for e in data.h_exponents)
    assert data.h_signs == (1, 1)  # b = 1: everything is invariant


def test_conjugation_matrices_component_mismatch():
    with pytest.raises(ComponentMismatch):
        conjugation_matrices([d(2), d(1, 1)], Fraction(1, 3), IJ_NEG)


def test_h_exponent_differences_are_integral_within_components():
    for n in range(2, 7):
        for b in (2, 3):
            for comp in enumerate_components(n, b, IJ_NEG).values():
                if len(comp) < 2:
                    continue
                w = Fraction(1, b)
                data = conjugation_matrices(comp, w, IJ_NEG)
                base_z = data.z_exponents[0]
                base_h = data.h_exponents[0]
                assert all((e - base_z).denominator == 1 for e in data.z_exponents)
                assert all((e - base_h).denominator == 1 for e in data.h_exponents)


# --- report record ------------------------------------------------------------------


def test_fixed_point_data_json():
    rec = fixed_point_data(d(2, 1), IJ_NEG, b=2).to_json()
    assert rec["diagram"] == "2,1"
    assert sorted(rec["hooks"]) == [1, 1, 3]
    assert sum(rec["component"]) == 3


# --- integer arithmetic against its definitions ------------------------------------

ALL_CONVENTIONS = [ConventionSet(c, a) for c in CONTENT_SIGNS for a in ATTRACT_SIGNS]


@pytest.mark.parametrize("n", range(9))
def test_polarization_is_its_double_sum(n):
    for dg in partitions(n):
        for content in CONTENT_SIGNS:
            conv = ConventionSet(content, "neg")
            cs = contents(dg, conv)
            for var in ("a", "t"):
                terms = []
                for ci in cs:
                    for cj in cs:
                        terms.append((Monomial.variable(var, ci - cj + 1), 1))
                        terms.append((Monomial.variable(var, ci - cj), -1))
                    terms.append((Monomial.variable(var, ci), 1))
                assert polarization(dg, conv, var) == Character.from_terms(terms), (dg, var)


@pytest.mark.parametrize("n", range(8))
def test_integer_m_exponents_match_fraction_floors(n):
    shifts = [Fraction(p, r) for r in range(1, 6) for p in range(-3 * r, 3 * r + 1)]
    for dg in partitions(n):
        for conv in ALL_CONVENTIONS:
            for w in shifts:
                expected = w * d_lambda(dg, conv) - sum(math.floor(h * w) for h in hooks(dg))
                assert m_hilbert(dg, w, conv) == expected, (dg, w)
                expected = w * sigma(dg, conv) - sum(
                    math.floor(c * w) for c in negative_normal_characters(dg, conv))
                assert m_general(dg, w, conv) == expected, (dg, w)


def _direct_violations(conv, form, n_max, b_values):
    """The difference scan's violations, recomputed pair by pair from the
    per-diagram functions."""
    out = []
    for n in range(1, n_max + 1):
        for b in b_values:
            groups = enumerate_components(n, b, conv).values()
            for a in range(1, 4 * b):
                if math.gcd(a, b) != 1:
                    continue
                w = Fraction(a, b)
                for group in groups:
                    for d1, d2 in combinations(group, 2):
                        m = m_hilbert(d1, w, conv) - m_hilbert(d2, w, conv)
                        if form == "exponent":
                            lhs = index_exponent(d1, w, conv) - index_exponent(d2, w, conv)
                            m /= 2
                        else:
                            lhs = floor_index_pairing(d1, w, conv) - floor_index_pairing(d2, w, conv)
                        if lhs != m:
                            out.append((d1, d2, w, lhs, m))
    return out


@pytest.mark.parametrize("form", ["exponent", "floor"])
@pytest.mark.parametrize("conv", ALL_CONVENTIONS, ids=str)
def test_scan_finds_the_directly_computed_violations(conv, form):
    got = difference_scan(conv, 5, (2, 3, 4), form=form, stop_early=False)
    assert got == _direct_violations(conv, form, 5, (2, 3, 4))


@pytest.mark.parametrize("form", ["exponent", "floor"])
def test_scan_builds_each_index_once(monkeypatch, form):
    built = Counter()
    original = hilbert.index_character

    def counting(diagram, *args, **kwargs):
        built[diagram] += 1
        return original(diagram, *args, **kwargs)

    monkeypatch.setattr(hilbert, "index_character", counting)
    difference_scan(IJ_POS, 5, (2, 3, 4), form=form, stop_early=False)
    assert built and max(built.values()) == 1
