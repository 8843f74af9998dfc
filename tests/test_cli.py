import contextlib
import gc
import io
import json
import pathlib
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from stablimits.balanced import BalancedExpression, BalancedTerm, theta
from stablimits import cli
from stablimits.cli import main
from stablimits.hilbert import ConventionSet
from stablimits.pipeline import MatrixMetadata, RestrictionMatrix
from stablimits.chars import VariableSet


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert "summary" in lines[-1]
    return code, lines


def summary(lines):
    return lines[-1]["summary"]


def test_theta_verify(capsys):
    code, lines = run(capsys, "theta-verify", "--order", "6", "--w-denoms", "3")
    assert code == 0
    s = summary(lines)
    assert s["failed"] == 0 and s["checks"] > 10
    checks = {rec["check"] for rec in lines[:-1]}
    assert checks == {"oddness", "quasiperiod", "limit-law"}


def test_theta_verify_balanced_samples(capsys):
    code, lines = run(
        capsys, "theta-verify", "--order", "4", "--w-denoms", "2",
        "--balanced-samples", "4", "--seed", "3",
    )
    assert code == 0
    assert any(rec.get("check") == "balanced-limit" for rec in lines[:-1])


@pytest.mark.parametrize(
    "terms, error",
    [
        (
            (BalancedTerm(numerator=(theta({"a": 1, "hbar": 1}),), denominator=(theta({"a": 1}),)),
             BalancedTerm()),
            "terms carry different (a, hbar) quasiperiod pairings: 1 vs 0",
        ),
        (
            (BalancedTerm(numerator=(theta({"hbar": 1}, -1),), denominator=(theta({"hbar": 1}),)),),
            "term diverges as q^-1/2; expression is not balanced",
        ),
    ],
    ids=["hbar-pairing-mismatch", "q-pole"],
)
def test_theta_verify_balanced_reports_limit_error(capsys, monkeypatch, terms, error):
    monkeypatch.setattr(
        "stablimits.cli.random_balanced_expression",
        lambda rng, variables: BalancedExpression(terms),
    )
    code, lines = run(
        capsys, "theta-verify", "--order", "4", "--w-denoms", "2",
        "--balanced-samples", "1", "--seed", "0",
    )
    assert code == 1
    [rec] = [r for r in lines[:-1] if r.get("check") == "balanced-limit"]
    assert rec["sample"] == 0 and rec["error"] == error and rec["status"] == "fail"
    assert "rel" not in rec
    assert summary(lines)["failed"] == 1


def test_parser_is_built_once_per_process(capsys):
    run(capsys, "framing-blocks", "--w", "0,1")
    run(capsys, "calibrate", "--n-max", "2", "--b-max", "2")
    assert cli._parser.cache_info().misses == 1


def test_young_report(capsys):
    code, lines = run(
        capsys, "young-report", "--n-max", "3", "--b", "2", "--w", "1/2,1",
    )
    assert code == 0
    recs = [r for r in lines[:-1] if "diagram" in r]
    assert len(recs) == 1 + 1 + 2 + 3  # n = 0..3
    assert all("m_hilbert" in r and "component" in r for r in recs)


def test_diflem_scan_passes_under_default(capsys):
    code, lines = run(capsys, "diflem-scan", "--n-max", "5", "--b-max", "3")
    assert code == 0
    s = summary(lines)
    assert s["failed"] == 0
    assert any(r.get("check") == "floor-form-discrepancies" for r in lines[:-1])


def test_diflem_scan_fails_under_pos(capsys):
    code, lines = run(
        capsys, "diflem-scan", "--n-max", "4", "--b-max", "3", "--attract", "pos",
    )
    assert code == 1
    assert summary(lines)["failed"] >= 1


def test_component_enum(capsys):
    code, lines = run(capsys, "component-enum", "--n", "2", "--b", "2")
    assert code == 0
    comps = [r for r in lines[:-1] if "component" in r]
    assert len(comps) == 1
    assert comps[0]["component"] == [1, 1]
    assert comps[0]["diagrams"] == ["2", "1,1"]


def test_component_enum_with_conjugation(capsys):
    code, lines = run(capsys, "component-enum", "--n", "2", "--b", "2", "--w", "1/2")
    assert code == 0
    comp = [r for r in lines[:-1] if "component" in r][0]
    assert comp["conjugation"]["z_exponents"] == ["-1/2", "1/2"]


def test_calibrate(capsys):
    code, lines = run(capsys, "calibrate", "--n-max", "4", "--b-max", "3")
    assert code == 0
    default = [r for r in lines[:-1] if r.get("check") == "calibration-default"][0]
    assert default["default"] == "(i-j, neg)"
    controls = [r for r in lines[:-1] if "counterexample" in r]
    assert controls  # at least one convention fails: documented
    assert {c["convention"] for c in controls} == {"(i-j, pos)", "(j-i, pos)"}


def test_limit_apply(tmp_path, capsys):
    meta = MatrixMetadata(
        variables=VariableSet(("a",), "hbar", ("z",)),
        convention=ConventionSet(),
        order=("1,1", "2"),
    )
    m = RestrictionMatrix.identity(("1,1", "2"), meta)
    m.entries[("2", "1,1")] = BalancedExpression.single(
        (theta({"a": 1, "z": 2}),), (theta({"a": 1}), theta({"z": 2})),
    )
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(m.to_json()))
    out_path = tmp_path / "out.jsonl"
    code = main([
        "limit-apply", "--input", str(path), "--w", "1", "--chamber", "zero",
        "--output", str(out_path),
    ])
    assert code == 0
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    result = [r for r in lines if r.get("phase") == "result"][0]
    assert result["k_matrix"]["labels"] == ["1,1", "2"]
    assert "conjugation" in result["k_matrix"]


def test_limit_apply_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["limit-apply", "--input", str(path)])
    assert code == 2


def test_limit_apply_validation_failure(tmp_path, capsys):
    meta = MatrixMetadata(variables=VariableSet(("a",), "hbar", ("z",)))
    m = RestrictionMatrix.identity(("x", "y"), meta)
    m.entries[("y", "x")] = BalancedExpression.single(
        (theta({"a": 2, "z": 1}),), (theta({"a": 1}), theta({"z": 1})),
    )
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(m.to_json()))
    code = main(["limit-apply", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "balanced-equivariant" in out


def test_framing_blocks(capsys):
    code, lines = run(
        capsys, "framing-blocks", "--w", "0,1,1/2",
        "--frame-r", "3", "--frame-n", "2",
    )
    assert code == 0
    rec = lines[0]
    assert rec["blocks"] == [[1, 2], [3]]
    assert rec["cyclic_order"] == 2
    assert rec["component_count"] == 3


def test_framing_blocks_dimension_mismatch(capsys):
    code = main(["framing-blocks", "--w", "0,1/2", "--frame-r", "3", "--frame-n", "1"])
    assert code == 2


def test_deterministic_output(capsys):
    _, first = run(capsys, "young-report", "--n-max", "4", "--b", "3")
    _, second = run(capsys, "young-report", "--n-max", "4", "--b", "3")
    assert first == second


GOLDEN = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("chamber", ["zero", "infinity"])
def test_limit_apply_golden_output(tmp_path, chamber):
    """Single-term entries: the JSON lines stay byte-identical to the
    committed output, k-matrix text included."""
    out_path = tmp_path / "out.jsonl"
    main([
        "limit-apply", "--input", str(GOLDEN / "restriction_matrix.json"), "--w", "1",
        "--chamber", chamber, "--output", str(out_path),
    ])
    expected = (GOLDEN / f"restriction_matrix.{chamber}.jsonl").read_bytes()
    assert out_path.read_bytes() == expected


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_limit_apply_two_residue_components_is_malformed(tmp_path, capsys):
    """At w = 1/2, 5 and 2,2,1 lie in different residue components."""
    meta = MatrixMetadata(
        variables=VariableSet(("a",), "hbar", ("z",)),
        convention=ConventionSet(),
        order=("5", "2,2,1", "2,1,1,1"),
    )
    m = RestrictionMatrix.identity(("5", "2,2,1", "2,1,1,1"), meta)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(m.to_json()))
    code = main(["limit-apply", "--input", str(path), "--w=1/2"])
    assert code == 2
    assert "residue component" in _one_line_error(capsys)


def test_late_malformed_input_leaves_no_partial_output_file(tmp_path, capsys):
    """limit-apply writes three validate records before it finds the two
    residue components; the exit 2 removes the file and closes its handle."""
    meta = MatrixMetadata(
        variables=VariableSet(("a",), "hbar", ("z",)),
        convention=ConventionSet("i-j", "neg"),
        order=("5", "2,2,1", "2,1,1,1"),
    )
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(RestrictionMatrix.identity(("5", "2,2,1", "2,1,1,1"), meta).to_json()))
    out_path = tmp_path / "out.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["limit-apply", "--input", str(path), "--w=1/2", "--output", str(out_path)])
        gc.collect()
    assert code == 2
    assert "residue component" in _one_line_error(capsys)
    assert not out_path.exists()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

def test_limit_apply_list_expression_is_malformed(tmp_path, capsys):
    meta = MatrixMetadata(variables=VariableSet(("a",), "hbar", ("z",)))
    data = RestrictionMatrix.identity(("x", "y"), meta).to_json()
    data["entries"].append({"row": "y", "col": "x", "expr": []})
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    code = main(["limit-apply", "--input", str(path)])
    assert code == 2
    assert "(y, x)" in _one_line_error(capsys)


GOLDEN_COMMANDS = {
    "diflem-scan": ["diflem-scan", "--n-max", "6"],
    "calibrate": ["calibrate", "--n-max", "5"],
    "young-report": ["young-report", "--n-max", "6", "--b", "3", "--w", "1/3,1/2"],
    "component-enum": ["component-enum", "--n", "6", "--b", "3", "--w", "1/3"],
    "framing-blocks": ["framing-blocks", "--w", "0,1,1/2", "--frame-r", "2,1", "--frame-n", "1,1"],
    "theta-verify": ["theta-verify", "--order", "6", "--w-denoms", "3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_command_golden_output(tmp_path, name):
    out_path = tmp_path / "out.jsonl"
    main([*GOLDEN_COMMANDS[name], "--output", str(out_path)])
    assert out_path.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()


def test_theta_verify_balanced_golden_output(tmp_path):
    """Every field but the float ``rel`` (numeric theta at q = 1e-4) is pinned."""
    out_path = tmp_path / "out.jsonl"
    main(["theta-verify", "--balanced-samples", "8", "--seed", "0", "--output", str(out_path)])

    def records(text):
        recs = [json.loads(line) for line in text.splitlines()]
        for rec in recs:
            rec.pop("rel", None)
        return recs

    expected = (GOLDEN / "theta-verify-balanced.jsonl").read_text()
    assert records(out_path.read_text()) == records(expected)


def _fixture() -> dict:
    return json.loads((GOLDEN / "restriction_matrix.json").read_text())


def _statuses(path, chamber):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["limit-apply", "--input", str(path), "--w=1", "--chamber", chamber])
    recs = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, [(r.get("phase"), r.get("check"), r.get("subject"), r.get("status")) for r in recs]


@pytest.mark.parametrize("chamber", ["zero", "infinity"])
def test_limit_apply_equivariant_variable_not_named_a(tmp_path, chamber):
    """A scalar --w shifts the matrix's own equivariant variable."""
    renamed = tmp_path / "renamed.json"
    renamed.write_text((GOLDEN / "restriction_matrix.json").read_text().replace('"a"', '"t"'))
    assert json.loads(renamed.read_text())["metadata"]["variables"]["equivariant"] == ["t"]
    assert _statuses(renamed, chamber) == _statuses(GOLDEN / "restriction_matrix.json", chamber)


def _set(path, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


MALFORMED_MATRICES = {  # case: (edit, a fragment of the error line)
    "no-kahler-variable": (_set(("metadata", "variables", "kahler"), []), "Kahler chamber"),
    "qshift-division-by-zero": (
        _set(("entries", 1, "expr", "terms", 0, "num", 0, "qshift"), "1/0"), "bad restriction"),
    "diagonal-with-zero-den": (
        _set(("metadata", "unnormalized_diagonal", "4", "den"), {"terms": []}), "bad restriction"),
    "equivariant-is-a-string": (
        _set(("metadata", "variables", "equivariant"), "ab"), "list of strings"),
    "labels-is-a-string": (_set(("labels",), "4"), "list of strings"),
    "trivial-polarization-weight": (
        _set(("metadata", "polarizations", "4", "terms", 0, "exp"), {}), "polarization"),
    "fractional-polarization-weight": (
        _set(("metadata", "polarizations", "4", "terms", 0, "exp"), {"a": "1/2"}), "polarization"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
def test_limit_apply_malformed_matrix_exits_2(tmp_path, capsys, case):
    edit, fragment = MALFORMED_MATRICES[case]
    data = _fixture()
    edit(data)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    assert main(["limit-apply", "--input", str(path), "--w=1"]) == 2
    assert fragment in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["framing-blocks", "--w", "0,1", "--frame-r", "x", "--frame-n", "1"],
    ["framing-blocks", "--w", "0,1", "--frame-r", "2", "--frame-n", "1,1"],
    ["component-enum", "--n", "2", "--b", "0"],
    ["component-enum", "--n", "-2", "--b", "2"],
    ["theta-verify", "--w-denoms", "0", "--balanced-samples", "1"],
    ["young-report", "--b", "-1"],
    ["calibrate", "--n-max", "0"],
    ["calibrate", "--n-max", "4", "--b-max", "1"],
])
def test_malformed_arguments_exit_2(capsys, argv):
    assert main(argv) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["theta-verify", "--order", "0"],
    ["limit-apply", "--input", "/nonexistent.json"],
    ["limit-apply", "--input", str(GOLDEN / "restriction_matrix.json"), "--w", "1/0"],
    ["component-enum", "--n", "3", "--b", "2", "--w", "1/0"],
    ["young-report", "--n-max", "2", "--w", "1/0"],
])
def test_rejected_arguments_leave_no_output_file(tmp_path, capsys, argv):
    out_path = tmp_path / "out.jsonl"
    assert main([*argv, "--output", str(out_path)]) == 2
    _one_line_error(capsys)
    assert not out_path.exists()


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats(width=32)
    | st.text("0123456789/-,.az", max_size=5)
    | st.sampled_from(["a", "z", "t", "hbar", "1/0", "1/2", "zero"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "z", "hbar", "exp", "qshift", "terms", "num", "den", "mult"]),
        inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(list(_paths(_fixture()))[1:]), value=_JSON_VALUES,
       chamber=st.sampled_from(["zero", "infinity"]))
def test_limit_apply_fuzzed_matrix_never_raises(path, value, chamber):
    """One leaf or subtree of the fixture replaced by random JSON: limit-apply
    reports, fails a check or rejects the input, but never raises."""
    data = _fixture()
    _set(path, value)(data)
    with tempfile.TemporaryDirectory() as tmp:
        matrix = pathlib.Path(tmp) / "matrix.json"
        matrix.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["limit-apply", "--input", str(matrix), "--w=1", "--chamber", chamber])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


_RATIONAL_LISTS = st.text("0123/-,.x", max_size=5) | st.sampled_from(["1/2", "1/0", "-1", "0", "2/3,1"])
_INTEGER_LISTS = st.text("0123,-x", max_size=4)
_CONVENTION_FLAGS = {"--content": st.sampled_from(["i-j", "j-i"]),
                     "--attract": st.sampled_from(["pos", "neg"])}
# command: (flags always given, flags sometimes given).  Values pass argparse's
# own type and choice checks, so each example reaches the command.  Sizes stay
# small, and --n-max is always given where its default scan takes a second.
ARGV_FLAGS = {
    "diflem-scan": ({"--n-max": st.integers(-1, 4)},
                    {"--b-max": st.integers(-1, 3), **_CONVENTION_FLAGS}),
    "calibrate": ({"--n-max": st.integers(-1, 4)}, {"--b-max": st.integers(-1, 3)}),
    "young-report": ({}, {"--n-max": st.integers(-1, 4), "--b": st.integers(-2, 4),
                          "--w": _RATIONAL_LISTS, **_CONVENTION_FLAGS}),
    "component-enum": ({"--n": st.integers(-2, 5), "--b": st.integers(-2, 4)},
                       {"--w": _RATIONAL_LISTS, **_CONVENTION_FLAGS}),
    "framing-blocks": ({"--w": _RATIONAL_LISTS},
                       {"--frame-r": _INTEGER_LISTS, "--frame-n": _INTEGER_LISTS}),
    "theta-verify": ({}, {
        "--order": st.text("012/-.x", max_size=2) | st.sampled_from(["1/0", "3/2", "4"]),
        "--w-denoms": st.integers(-1, 3), "--balanced-samples": st.integers(-1, 2),
        "--seed": st.integers(0, 9), "--tolerance": st.floats(allow_nan=True)}),
}


@pytest.mark.parametrize("command", sorted(ARGV_FLAGS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_arguments_never_raise(command, data):
    """Random values for a command's flags: it reports, fails a check or
    rejects the input with one error line, but never raises."""
    required, optional = ARGV_FLAGS[command]
    flags = data.draw(st.fixed_dictionaries(required, optional=optional))
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
