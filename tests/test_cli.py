import dataclasses
import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcross.acceptance as acceptance
import lcross.walk as walk
from lcross.acceptance import CriterionResult
from lcross.cli import run
from lcross.dist import rademacher
from lcross.errors import TheoremViolation

README = Path(__file__).resolve().parents[1] / "README.md"


def csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_crossing_builtin_csv(capsys):
    assert run(["crossing", "--dist", "rademacher", "--horizon", "4"]) == 0
    header, rows = csv_rows(capsys.readouterr().out)
    assert header == [
        "n",
        "p_n",
        "sqrt_n_p_n",
        "P_Sn_eq_0",
        "lower_bound_ok",
        "chain_bound_ok",
        "domination_ok",
    ]
    assert [r[1] for r in rows] == ["1", "1/2", "1/2", "3/8"]
    assert rows[0][4:] == ["true", "true", "na"]
    assert rows[3][4:] == ["true", "true", "true"]


def test_crossing_json_and_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        [
            "crossing",
            "--dist",
            "lazy",
            "--horizon",
            "3",
            "--json",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["level"] == "0" and doc["horizon"] == 3
    assert [row["p_n"] for row in doc["rows"]] == ["1/2", "3/8", "5/16"]


def test_crossing_from_file_with_renormalization(tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(
        json.dumps({"atoms": [{"v": "-1", "w": "1"}, {"v": "1", "w": "3"}]})
    )
    assert run(["crossing", "--dist", str(path), "--horizon", "2"]) == 0
    captured = capsys.readouterr()
    assert "renormalized" in captured.err
    _, rows = csv_rows(captured.out)
    assert rows[0][1] == "1"


def test_crossing_prints_rationals_past_the_digit_limit(tmp_path, capsys):
    # p_2 = P(S_2 = 0) = (10^4000 - 1) / (5 * 10^7999): both halves are past the
    # 4,300 digits that str(int) converts by default.
    d = "1" + "0" * 4000
    path = tmp_path / "law.json"
    path.write_text(
        json.dumps({"atoms": [{"v": "-1", "w": f"1/{d}"}, {"v": "1", "w": f"{'9' * 4000}/{d}"}]})
    )
    want = "9" * 4000 + "/5" + "0" * 7999
    assert run(["crossing", "--dist", str(path), "--horizon", "2"]) == 0
    _, rows = csv_rows(capsys.readouterr().out)
    assert rows[1][1] == rows[1][3] == want
    assert run(["crossing", "--dist", str(path), "--horizon", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][1]["p_n"] == doc["rows"][1]["P_Sn_eq_0"] == want


def test_crossing_rejects_bad_inputs(tmp_path, capsys):
    assert run(["crossing", "--dist", "no_such_law"]) == 2
    assert "not a built-in" in capsys.readouterr().err
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"atoms": []}))
    assert run(["crossing", "--dist", str(empty)]) == 2
    assert "atoms" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"atoms": [{"v": "1"}]}))
    assert run(["crossing", "--dist", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "atom 0" in err and '"w"' in err
    assert run(["crossing", "--dist", "rademacher", "--level", "x/y"]) == 2
    capsys.readouterr()
    assert run(["crossing", "--dist", "rademacher", "--level", "1e999999999"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse rational" in err and len(err.strip().splitlines()) == 1
    assert run(["crossing", "--dist", "uniform{0..1000000000000}", "--horizon", "2"]) == 2
    err = capsys.readouterr().err
    assert "over the cap" in err and len(err.strip().splitlines()) == 1
    assert run(["crossing", "--dist", "rademacher", "--horizon", "100000000"]) == 2
    err = capsys.readouterr().err
    assert "n=1000000 exceeds the cap" in err and len(err.strip().splitlines()) == 1


def test_crossing_exits_1_and_prints_the_csv_when_a_bound_fails(monkeypatch, capsys):
    report = walk.crossing_table(walk.WalkSpec(step=rademacher(), horizon=3))
    assert report.all_bounds_hold()
    last = dataclasses.replace(report.rows[-1], chain_bound_ok=False)
    report = dataclasses.replace(report, rows=report.rows[:-1] + (last,))
    assert not report.all_bounds_hold()
    monkeypatch.setattr("lcross.cli.crossing_table", lambda spec: report)
    assert run(["crossing", "--dist", "rademacher", "--horizon", "3"]) == 1
    out = capsys.readouterr().out
    assert out == report.to_csv()
    assert csv_rows(out)[1][-1][4:] == ["true", "false", "true"]


def test_theorem_violation_exits_1_with_one_line(monkeypatch, capsys):
    def violated(d):
        raise TheoremViolation("ratio 2 >= 2 at c = 1")

    monkeypatch.setattr("lcross.cli.ratio_scan", violated)
    assert run(["ratio", "--dist", "lazy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: ratio 2 >= 2 at c = 1\n"


def _readme_command_block():
    """The lines of the sh block under the README's "## Command line" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # Every lcross line but `repro`, which test_repro_* and test_acceptance cover, exits 0;
    # an `echo '...' > file` line writes its file first.
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in _readme_command_block():
        words = shlex.split(line, comments=True)
        if words[:1] == ["echo"]:
            assert words[2] == ">" and len(words) == 4, line
            (tmp_path / words[3]).write_text(words[1] + "\n")
        elif words[:1] == ["lcross"] and words[1] != "repro":
            assert run(words[1:]) == 0, line
            ran.append(words[1])
        else:
            assert words in ([], ["lcross", "repro"]), line
    capsys.readouterr()
    assert sorted(set(ran)) == ["crossing", "dichotomy", "lemma1", "mc", "ratio"]


def test_uniform_horizon_refused_before_the_scan(monkeypatch, capsys):
    # uniform{0..999999} fits the default cap of 10^6 sites, but S_2 spans
    # 1999999 of them; the walk refuses the horizon before its first step.
    monkeypatch.setattr(walk, "_scan", lambda spec, last: pytest.fail("scan started"))
    assert run(["crossing", "--dist", "uniform{0..999999}", "--horizon", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: marginal support at n=2 exceeds the cap of 1000000 lattice sites\n"
    monkeypatch.setenv("LCROSS_MAX_SUPPORT", "1000")
    assert run(["crossing", "--dist", "uniform{-5..5}", "--horizon", "100"]) == 2
    assert "n=100 exceeds the cap of 1000 " in capsys.readouterr().err


def test_uniform_builtin(capsys):
    assert run(["crossing", "--dist", "uniform{-2..2}", "--horizon", "3"]) == 0
    _, rows = csv_rows(capsys.readouterr().out)
    assert rows[0][1] == "4/5"


def test_ratio_family_summary(capsys):
    assert run(["ratio", "--family-n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"gamma": "3/2", "argmax_c": "3/2"}


def test_ratio_family_over_the_cap(capsys):
    assert run(["ratio", "--family-n", "1000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: optimality family has 2000000000 atoms, over the cap of 1000000\n"
    )


def test_ratio_table_and_exclusivity(capsys):
    assert run(["ratio", "--dist", "rademacher", "--table"]) == 0
    header, rows = csv_rows(capsys.readouterr().out)
    assert header == ["c", "num", "den", "ratio"]
    assert rows[0] == ["0", "1/2", "1/2", "1"]
    assert run(["ratio", "--dist", "rademacher", "--family-n", "2"]) == 2
    capsys.readouterr()
    assert run(["ratio"]) == 2
    capsys.readouterr()


def test_dichotomy_positive_form(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"support": ["-1", "1"], "kernel": "sym2"}))
    assert run(["dichotomy", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "positive_form"
    assert doc["min_value"] == "1/2"
    assert doc["witness"] is None


def test_dichotomy_witness_and_errors(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"support": [0], "kernel": {"table": [["-1"]]}}))
    assert run(["dichotomy", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "first_alternative" and doc["witness"] == ["1"]

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["dichotomy", "--input", str(garbled)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"support": [0, 1]}))
    assert run(["dichotomy", "--input", str(missing)]) == 2
    assert '"kernel"' in capsys.readouterr().err

    assert run(["dichotomy", "--input", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_dichotomy_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"support": [0, 2, 4], "kernel": "123"}))
    assert run(["dichotomy", "--input", str(path), "--cap", "2"]) == 2
    assert "cap" in capsys.readouterr().err
    for cap in ("0", "-1"):
        assert run(["dichotomy", "--input", str(path), "--cap", cap]) == 2
        assert capsys.readouterr().err == f"error: cap must be a positive integer, got {cap}\n"

    def no_gram(*args):
        raise AssertionError("the Gram matrix was built before the cap check")

    monkeypatch.setattr("lcross.dichotomy.gram_matrix", no_gram)
    path.write_text(json.dumps({"support": list(range(100)), "kernel": "sym2"}))
    assert run(["dichotomy", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: matrix size 100 exceeds the subset-enumeration cap 15\n"
    )


# Table problems and the SHA-256 of `lcross dichotomy`'s stdout on each, recorded at
# bd156c3, when tables still went through a kernel spec and `gram_matrix`.
_TABLE_DIGESTS = [
    (
        {"support": ["-1", "0", "1/2"],
         "kernel": {"table": [["2", "-1", "1/3"], ["-1", "3", "0"], ["1/3", "0", "1"]]}},
        "208d3af77f62ca85f57b22fa8df365ff27ef41116d89de345bfa454aca00be26",
    ),
    (
        {"support": [0, 1, 2], "kernel": {"table": [[1, -2, 0], [-2, 1, 0], [0, 0, 1]]}},
        "e0c44ee254fcaca5108bf06fbfcf12e3bd827de3c9747491ba1761bc453d0cf9",
    ),
    (
        {"support": [-2, "-1/2", 1, 3, 7],
         "kernel": {"table": [[4, -1, "1/2", 0, -3], [-1, 2, 1, "-5/3", 0],
                              ["1/2", 1, 1, 2, "7/4"], [0, "-5/3", 2, 5, -1],
                              [-3, 0, "7/4", -1, 3]]}},
        "a545428e30e9b651e83183ce43efeca722160dd0cbab0069d49cdd3ae72b5582",
    ),
    (
        {"support": ["-1", "1"], "kernel": {"table": [[2, -1], [-1, 2]]}},
        "9865a31ba34f5c19b03a371751073ac914982d6b8a633504f87bc79192c068d1",
    ),
]


@pytest.mark.parametrize("doc, digest", _TABLE_DIGESTS)
def test_dichotomy_table_outputs_are_pinned(tmp_path, capsys, doc, digest):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    assert run(["dichotomy", "--input", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"support": [0, 1, 0], "kernel": {"table": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
         "support values must be distinct"),
        ({"support": [0, 1, 2], "kernel": {"table": [[1, 2], [2, 1]]}},
         "matrix shape does not match the support"),
        ({"support": [0, 1], "kernel": {"table": [[1, 2], [3, 1]]}},
         "kernel table not symmetric at (1,0)"),
        ({"support": [0, 1], "kernel": {"table": [[1, 2], [3]]}},
         "matrix shape does not match the support"),
        ({"support": [0, 1], "kernel": {"table": [1, 2]}}, '"table" must be a list of rows'),
        # A string row is not a row of characters.
        ({"support": [0, 1], "kernel": {"table": ["12", "21"]}}, '"table" must be a list of rows'),
        ({"support": [0, 1], "kernel": {"table": [[1, "x"], ["x", 1]]}}, 'bad "table" entry'),
        ({"support": [0, 1], "kernel": {"table": [[1, 0.5], [0.5, 1]]}}, 'bad "table" entry'),
    ],
)
def test_dichotomy_table_errors_exit_2_with_one_line(tmp_path, capsys, doc, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    assert run(["dichotomy", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


def test_lemma1(capsys):
    assert run(["lemma1", "--dist", "rademacher"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"witness": "-1", "p_x": "1/2", "p_neg_x": "1/2"}
    assert run(["lemma1", "--dist", "rademacher", "--window", "0"]) == 2
    capsys.readouterr()


def test_mc_crossing_defaults(capsys):
    code = run(
        ["mc", "--sampler", "rademacher", "--n", "3", "--samples", "1000"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimand"] == "crossing"
    assert doc["samples"] == 1000 and doc["seed"] == 0
    assert 0.0 <= doc["mean"] <= 1.0


def test_mc_other_estimands(capsys):
    code = run(
        [
            "mc",
            "--estimand",
            "sign-changes",
            "--sampler",
            "gaussian",
            "--n",
            "8",
            "--samples",
            "500",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["estimand"] == "sign_changes"
    code = run(
        [
            "mc",
            "--estimand",
            "top-two-tie",
            "--sampler",
            "factorial_heavy",
            "--trunc",
            "16",
            "--n",
            "8",
            "--samples",
            "500",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["estimand"] == "top_two_tie"
    code = run(
        [
            "mc",
            "--estimand",
            "top-two-tie",
            "--sampler",
            "gaussian",
            "--n",
            "2",
            "--samples",
            "500",
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_mc_usage_errors(capsys):
    assert run(["mc", "--sampler", "rademacher", "--n", "3", "--samples", "50"]) == 2
    capsys.readouterr()
    assert run(["mc", "--sampler", "rademacher"]) == 2
    capsys.readouterr()
    assert run(["mc", "--estimand", "nonsense", "--sampler", "rademacher", "--n", "2"]) == 2
    capsys.readouterr()


def test_mc_out_of_memory_is_an_input_error(capsys):
    # Each sample block needs petabytes, so its allocation fails at once.
    for argv in (
        ["mc", "--sampler", "rademacher", "--n", "3", "--samples", "1000000000000000"],
        [
            "mc",
            "--estimand",
            "sign-changes",
            "--sampler",
            "gaussian",
            "--n",
            "1000000000000000",
            "--samples",
            "100",
        ],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and len(err.splitlines()) == 1


_LAWS = st.sampled_from(["rademacher", "lazy", "uniform{-3..3}"])
_SAMPLERS = st.sampled_from(["rademacher", "lazy", "gaussian", "cauchy", "factorial_heavy"])
_ESTIMANDS = st.sampled_from(["crossing", "sign-changes", "top-two-tie"])
_HUGE = st.integers(10**15, 10**40)

# Arguments that must be refused before any work starts under a cap of 1000.
_OVERSIZED = st.one_of(
    st.builds(
        lambda d, h: ["crossing", "--dist", d, "--horizon", h], _LAWS, st.integers(1001, 10**40)
    ),
    st.builds(lambda n: ["ratio", "--family-n", n], st.integers(501, 10**40)),
    st.builds(
        lambda lo, k: ["crossing", "--dist", f"uniform{{{lo}..{lo + k}}}"],
        st.integers(-(10**12), 10**12),
        st.integers(1000, 10**40),
    ),
    st.builds(
        lambda e, s, n, m: ["mc", "--estimand", e, "--sampler", s, "--n", n, "--samples", m],
        _ESTIMANDS,
        _SAMPLERS,
        st.integers(2, 16),
        _HUGE,
    ),
    st.builds(
        lambda e, s, n: ["mc", "--estimand", e, "--sampler", s, "--n", n, "--samples", 100],
        _ESTIMANDS,
        _SAMPLERS,
        _HUGE,
    ),
)


# Malformed inputs, each an input error.  A dict stands for a JSON file holding it.
_MALFORMED = st.one_of(
    st.builds(
        lambda hi, k: ["crossing", "--dist", f"uniform{{{hi + k}..{hi}}}"],
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**12),
    ),
    st.builds(
        lambda level: ["crossing", "--dist", "rademacher", f"--level={level}"],
        st.sampled_from(["1/0", "-3/0", "nan", "inf", "-inf"]),
    ),
    st.builds(
        lambda w: ["crossing", "--dist", {"atoms": [{"v": "0", "w": "1"}, {"v": "1", "w": w}]}],
        st.sampled_from(["-1", "-1/3", "-1000000"]),
    ),
    st.builds(
        lambda doc: ["dichotomy", "--input", doc],
        st.sampled_from(
            [
                {"support": [0, 1], "kernel": "nope"},  # unknown kernel
                {"support": [0, 1, 0], "kernel": "sym2"},  # duplicate support points
                {"support": [0, 1], "kernel": {"table": [[1, 2], [3]]}},  # ragged table
                {"support": [], "kernel": "sym2"},
            ]
        ),
    ),
    st.builds(
        lambda cap: ["dichotomy", "--input", {"support": [0, 2], "kernel": "123"}, f"--cap={cap}"],
        st.integers(-(10**6), 0),
    ),
    st.builds(
        lambda w: ["lemma1", "--dist", "rademacher", f"--window={w}"], st.integers(-(10**6), 0)
    ),
    st.builds(lambda n: ["ratio", f"--family-n={n}"], st.integers(-(10**6), 0)),
    st.builds(
        lambda sampler, x: ["mc", "--sampler", sampler[0], f"--{sampler[1]}={x}", "--n", 4],
        st.sampled_from(
            [("gaussian", "mean"), ("gaussian", "sd"), ("cauchy", "location"), ("cauchy", "scale")]
        ),
        st.sampled_from(["nan", "inf", "-inf"]),
    ),
    st.builds(
        lambda n: ["mc", "--sampler", "rademacher", f"--n={n}", "--samples", 100],
        st.integers(-(10**6), 0),
    ),
    st.builds(
        lambda t: ["mc", "--sampler", "factorial_heavy", "--n", 3, f"--trunc={t}"],
        st.integers(-(10**6), 1),
    ),
)


def _assert_one_line_error(argv):
    """Run argv under a support cap of 1000: exit 2 and one `error: ` line on stderr."""
    argv = [str(a) for a in argv]
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"LCROSS_MAX_SUPPORT": "1000"}):
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = run(argv)
    assert code == 2, argv
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(_OVERSIZED)
def test_oversized_arguments_exit_2_with_one_line(argv):
    _assert_one_line_error(argv)


@settings(max_examples=60, deadline=None)
@given(_MALFORMED)
def test_malformed_inputs_exit_2_with_one_line(tmp_path_factory, argv):
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            argv[i] = tmp_path_factory.mktemp("malformed") / "input.json"
            argv[i].write_text(json.dumps(arg))
    _assert_one_line_error(argv)


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def _fake_results(all_pass):
    rows = [
        CriterionResult(i, f"check_{i}", True, "ok", 0.01, 10.0) for i in range(1, 10)
    ]
    rows.append(CriterionResult(10, "check_10", all_pass, "detail", 0.01, 10.0))
    return rows


def test_repro_without_mpmath_fails_before_the_first_check(monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(sys.modules, "mpmath", None)
    _, name, _, limit = acceptance._CRITERIA[0]
    first = (1, name, lambda: calls.append(1) or (True, "ran"), limit)
    monkeypatch.setattr(acceptance, "_CRITERIA", [first])
    assert run(["repro"]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lcross repro needs mpmath")


def test_repro_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "run_all", lambda: _fake_results(True))
    assert run(["repro"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "10/10" in out
    monkeypatch.setattr(acceptance, "run_all", lambda: _fake_results(False))
    assert run(["repro"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "9/10" in out
