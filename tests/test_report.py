"""The one verdict rule, and the report writer against ``json.dumps``."""

import json
import math

import numpy as np
import pytest
from conftest import taylor_green_csv

from maflow import cli
from maflow.report import CheckResult, Report, dumps, error_envelope


@pytest.mark.parametrize("residual", [math.nan, math.inf, 1e-10], ids=["nan", "inf", "equal"])
def test_a_non_finite_residual_or_one_at_the_tolerance_fails(residual):
    assert CheckResult("c", residual, 1e-10).passed is False


def test_a_residual_just_below_the_tolerance_passes():
    assert CheckResult("c", math.nextafter(1e-10, 0.0), 1e-10).passed is True


def test_a_zero_residual_fails_a_zero_tolerance():
    assert CheckResult("c", 0.0, 0.0).passed is False


def test_a_check_that_does_not_hold_fails_whatever_its_residual():
    assert CheckResult("c", 0.0, 1e-10, holds=False).passed is False


@pytest.mark.parametrize("holds", [True, False])
def test_without_a_residual_the_verdict_is_holds(holds):
    assert CheckResult("c", holds=holds).passed is holds


def test_numpy_values_give_a_plain_bool():
    check = CheckResult("c", np.float64(0.5), 1.0, holds=np.bool_(True))
    assert check.passed is True
    assert json.dumps(check.to_dict())


def test_to_dict_emits_passed_and_the_report_needs_every_check():
    good = CheckResult("good", 0.0, 1e-12, {"k": 1})
    bad = CheckResult("bad", math.inf, 1e-12)
    assert good.to_dict() == {
        "name": "good", "passed": True, "residual": 0.0, "tolerance": 1e-12, "detail": {"k": 1}
    }
    assert bad.to_dict()["passed"] is False
    assert CheckResult("bare", holds=False).to_dict() == {"name": "bare", "passed": False}
    assert Report("x", checks=[good]).to_dict()["passed"] is True
    assert Report("x", checks=[good, bad]).to_dict()["passed"] is False


def stdlib(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def test_the_writer_gives_the_bytes_of_json_dumps_on_drawn_documents():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # str draws non-ASCII, quotes, backslashes and control characters;
    # float draws NaN, the infinities, -0.0 and subnormals
    floats = st.floats(allow_subnormal=True)
    leaves = (
        st.text() | floats | floats.map(np.float64) | st.integers() | st.booleans() | st.none()
    )
    documents = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=5)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(), inner, max_size=5),
        max_leaves=40,
    )

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(documents)
    def check(obj):
        assert dumps(obj) == stdlib(obj)

    check()


@pytest.mark.parametrize(
    "doc",
    [
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, np.float64(0.1)],
        {"nan": np.float64("nan"), "inf": np.float64("-inf"), "x": np.float64(2.5)},
        ["", "\"\\/", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"],
        [[], {}, ()],
        [0, -1, 2**80, True, False, None],
        # non-str keys of one type each: mixed key types do not sort
        {1.5: 0, 2.0: 1, math.inf: 2, -math.inf: 3},
        {True: 0, False: 1},
        {None: 0},
        {2**70: 0, -3: 1},
        "top",
        1.25,
        math.nan,
        None,
    ],
)
def test_the_writer_spells_edge_leaves_and_keys_as_json_dumps_does(doc):
    assert dumps(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "bad",
    [np.int64(1), {1, 2}, b"bytes", object(), [1, np.bool_(True)], {"k": complex(1, 2)},
     {(1, 2): 0}, {1: 0, "a": 1}],
    ids=["int64", "set", "bytes", "object", "bool_", "complex", "tuple-key", "mixed-keys"],
)
def test_the_writer_refuses_what_json_dumps_refuses(bad):
    with pytest.raises(TypeError) as ours:
        dumps(bad)
    with pytest.raises(TypeError) as theirs:
        stdlib(bad)
    assert str(ours.value) == str(theirs.value)


REPORT_COMMANDS = [
    ["selftest", "--inject-failure"],
    ["classify", "--a", "x1^2 - x2", "--grid=-1:1:9,-1:1:7"],
    ["classify", "--psi", "sin(x1)*x2", "--at", "0.5,0.25"],
    ["triple", "--a", "sin(x1)*exp(x2) + 3"],
    ["hitchin", "--structure", "burgers-cy", "--a", "1 + x1^2"],
    ["hitchin", "--structure", "euler-pair", "--a", "x1*x2 + 1"],
    ["reduce", "--action", "laplace3d"],
    ["reduce", "--action", "shear", "--a", "1e300*1e300", "--gamma", "1"],
    ["reduce", "--action", "burgers-split", "--a", "1 + x1^2"],
    ["burgers", "--gamma", "1", "--psi", "x1^2 + x2^2", "--dp", "2"],
    ["curvature", "--metric", "burgers-cy", "--a", "1 + x1^2"],
]


@pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_every_report_is_written_as_json_dumps_writes_it(argv):
    args = cli._build_parser().parse_args(argv + ["--samples", "30"])
    report = args.handler(args, cli._config(args))
    assert report.to_json() == stdlib(report.to_dict())


def test_the_grid_report_is_written_as_json_dumps_writes_it(tmp_path):
    args = cli._build_parser().parse_args(
        ["grid", "--input", taylor_green_csv(tmp_path / "tg.csv", n=12), "--full"]
    )
    report = args.handler(args, cli._config(args))
    assert report.to_json() == stdlib(report.to_dict())


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["triple", "--a", "x1^^2"], "parse"),
        (["classify", "--a", "x1", "--grid=1:0:3,0:1:2"], "input"),
        (["triple", "--a", "log(x1 - 10)"], "compute"),
    ],
)
def test_every_error_stage_prints_the_envelope_json_dumps_writes(capsys, argv, stage):
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    envelope = json.loads(out)
    assert envelope["error"]["stage"] == stage
    assert out == stdlib(envelope) + "\n"


def test_an_envelope_point_keeps_its_non_finite_and_float64_coordinates():
    point = (np.float64(0.1), math.nan, -math.inf)
    expected = {"error": {"stage": "compute", "message": "\u00e9", "offset": 3,
                          "point": [0.1, math.nan, -math.inf]}}
    assert error_envelope("compute", "\u00e9", 3, point) == stdlib(expected)
