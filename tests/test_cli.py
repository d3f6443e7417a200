"""CLI surface: parsing, reports, exit codes, determinism."""

import json

import pytest

from conftest import UPPER2X2, run_orelab as run_cli


@pytest.fixture
def upper2x2_file(tmp_path):
    path = tmp_path / "upper2x2.json"
    path.write_text(json.dumps(UPPER2X2))
    return str(path)


# --- words-analyze -------------------------------------------------------

def test_words_analyze_weight_and_validity():
    res = run_cli("words-analyze", "2,1", "--k", "1")
    assert res.returncode == 0
    assert "weight = 4" in res.stdout
    assert "k_valid = False" in res.stdout


def test_words_analyze_zero_word():
    res = run_cli("words-analyze", "0,0,0", "--k", "1")
    assert res.returncode == 0
    assert "weight = 0" in res.stdout
    assert "k_valid = True" in res.stdout


def test_words_analyze_decreasing():
    res = run_cli("words-analyze", "3,2,1", "--decreasing", "2")
    assert res.returncode == 0
    assert "decreasing.prefix = 3" in res.stdout
    assert "decreasing.block1 = 2" in res.stdout
    assert "decreasing.block2 = 1" in res.stdout


def test_words_analyze_increasing_word_has_no_decreasing():
    word = ",".join(map(str, range(200)))
    res = run_cli("words-analyze", word, "--decreasing", "3")
    assert res.returncode == 0
    assert "decreasing = none" in res.stdout


def test_words_analyze_parse_error_position():
    res = run_cli("words-analyze", "1,x,3")
    assert res.returncode == 2
    assert "item 2" in res.stderr


def test_words_analyze_json():
    res = run_cli("words-analyze", "2,1", "--k", "1", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["weight"] == 4 and doc["k_valid"] is False


# --- words-bounds --------------------------------------------------------

def test_words_bounds_base_case():
    res = run_cli("words-bounds", "--d", "0", "--k", "1", "--eps", "1", "--b", "1")
    assert res.returncode == 0
    assert "M = 1" in res.stdout and "N = 1" in res.stdout


def test_words_bounds_d1():
    res = run_cli("words-bounds", "--d", "1", "--k", "1", "--eps", "1", "--b", "1")
    assert res.returncode == 0
    assert "M = 9" in res.stdout and "N = 11" in res.stdout


def test_words_bounds_oracle_comparison():
    res = run_cli("words-bounds", "--d", "2", "--k", "1", "--eps", "1", "--b", "1",
                  "--oracle", "4", "3")
    assert res.returncode == 0
    assert "oracle.minimal_N = 1" in res.stdout
    assert "oracle.le_bound = True" in res.stdout


def test_words_bounds_oracle_prices_only_lengths_it_can_reach():
    # b_1 = 3 settles length 3 without enumeration, so the lengths after it
    # cost nothing
    res = run_cli("words-bounds", "--d", "2", "--k", "3", "--eps", "1", "--b", "2,3",
                  "--oracle", "12", "9")
    assert res.returncode == 0
    assert "oracle.minimal_N = 3" in res.stdout
    # b_1 = 7: lengths 1-6 price at 1,111,104 words, under the default
    # budget, and length 7 is settled without enumeration
    res = run_cli("words-bounds", "--d", "2", "--k", "3", "--eps", "1", "--b", "2,7",
                  "--oracle", "12", "9")
    assert res.returncode == 0
    assert "oracle.minimal_N = 7" in res.stdout


def test_words_bounds_insufficient_data():
    res = run_cli("words-bounds", "--d", "2", "--k", "1", "--eps", "1", "--b", "1",
                  "--no-tail")
    assert res.returncode == 2
    assert "b_" in res.stderr


def test_words_bounds_bad_eps():
    res = run_cli("words-bounds", "--d", "1", "--k", "1", "--eps", "3/2", "--b", "1")
    assert res.returncode == 2


def test_words_bounds_rejects_nonpositive_threads():
    from orelab import cli

    assert cli.main(["words-bounds", "--d", "1", "--k", "1", "--b", "2",
                     "--oracle", "3", "2", "--threads", "0"]) == 2


def test_words_bounds_budget_exceeded():
    # no length up to 12 is vacuous for b = (20, 30), so all 10^12 words of
    # length 12 are priced
    res = run_cli("words-bounds", "--d", "2", "--k", "3", "--eps", "1", "--b", "20,30",
                  "--oracle", "12", "9")
    assert res.returncode == 3


def test_repeated_main_calls_match_single_runs(capsys, monkeypatch):
    # one process shares one parser across calls; each call must still
    # print what a fresh process prints
    from orelab import cli

    # argparse wraps usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("words-analyze", "2,1", "--k", "1"),
        ("words-bounds", "--d", "1", "--k", "1", "--b", "1", "--json"),
        ("words-bounds", "--d", "1"),
        ("words-analyze", "3,2,1", "--decreasing", "2", "--json"),
        ("words-analyze", "2,1", "--k", "1"),
    ]
    for args in calls:
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        ref = run_cli(*args)
        assert (code, out, err) == (ref.returncode, ref.stdout, ref.stderr)


@pytest.mark.parametrize("args", [
    ("words-analyze", "2,1", "--k", "0"),
    ("words-analyze", "2,1", "--decreasing", "-1"),
    ("words-bounds", "--d", "-1", "--k", "1", "--b", "2,3"),
    ("words-bounds", "--d", "1", "--k", "1", "--b", "2,3", "--oracle", "0", "3"),
    ("ore-rewrite", "FILE", "--head", "e12", "--indices", "e23",
     "--exponents", "1,-1", "--k", "1"),
    ("ore-nilpotency", "FILE", "--set", "e12", "--cap", "-1"),
    ("words-bounds", "--d", "2", "--k", "1", "--b", "2,3,4", "--oracle", "5", "-1"),
])
def test_out_of_range_arguments_are_input_errors(args, tmp_path):
    if "FILE" in args:
        run_cli("examples", "upper3strict", "--dir", str(tmp_path))
    path = str(tmp_path / "upper3strict.json")
    res = run_cli(*[path if a == "FILE" else a for a in args])
    assert res.returncode == 2
    assert "input error:" in res.stderr
    assert "Traceback" not in res.stderr
    if "--cap" in args:
        assert "--cap" in res.stderr


# --- file-driven commands ---------------------------------------------------

def test_radical_check_trace_form(upper2x2_file):
    res = run_cli("radical-check", upper2x2_file, "--derivation", "inner_e11")
    assert res.returncode == 0
    assert "radical.basis0 = 1*e12" in res.stdout
    assert "stable = True" in res.stdout


def test_radical_check_without_unit(tmp_path):
    run_cli("examples", "upper3strict", "--dir", str(tmp_path))
    res = run_cli("radical-check", str(tmp_path / "upper3strict.json"),
                  "--derivation", "inner_e12")
    assert res.returncode == 0
    assert "radical.dim = 3" in res.stdout
    assert "radical.nilpotency_index = 3" in res.stdout
    assert "stable = True" in res.stdout


def test_radical_check_zero_derivation_default(upper2x2_file):
    res = run_cli("radical-check", upper2x2_file)
    assert res.returncode == 0
    assert "param.derivation = zero" in res.stdout
    assert "stable = True" in res.stdout


def test_radical_check_missing_file():
    res = run_cli("radical-check", "/nonexistent/file.json")
    assert res.returncode == 2


def test_radical_check_unknown_derivation(upper2x2_file):
    res = run_cli("radical-check", upper2x2_file, "--derivation", "nope")
    assert res.returncode == 2
    assert "nope" in res.stderr


def test_ore_nilpotency_with_bound(tmp_path):
    run_cli("examples", "upper3strict", "--dir", str(tmp_path))
    res = run_cli("ore-nilpotency", str(tmp_path / "upper3strict.json"),
                  "--set", "e12 + e23*x", "--bound", "vanish3",
                  "--derivation", "inner_e12", "--T", "e12,e13,e23")
    assert res.returncode == 0
    assert "minimal_N = 2" in res.stdout
    assert "minimal_le_bound = True" in res.stdout


def test_ore_nilpotency_bound_computes_b_sequence_once(tmp_path, monkeypatch, capsys):
    from orelab import algebra, cli, orepoly

    assert cli.main(["examples", "upper3strict", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    calls = []

    def counted(*args):
        calls.append(args)
        return algebra.b_sequence(*args)

    monkeypatch.setattr(cli, "b_sequence", counted)
    monkeypatch.setattr(orepoly, "b_sequence", counted)
    rc = cli.main(["ore-nilpotency", str(tmp_path / "upper3strict.json"),
                   "--set", "e12 + e23*x", "--bound", "vanish3",
                   "--derivation", "inner_e12"])
    out = capsys.readouterr().out
    assert rc == 0 and len(calls) == 1
    assert "b_sequence = " in out and "minimal_le_bound = True" in out


def test_ore_nilpotency_bound_reports_non_nilpotent_span_first(tmp_path, capsys):
    """When span(T) is not nilpotent and the identity fails too, the span
    is reported; with a nilpotent T the identity failure is."""
    from orelab import cli

    path = tmp_path / "upper2x2.json"
    path.write_text(json.dumps(dict(UPPER2X2, identities={"vanish2": {"degree": 2}})))
    args = ["ore-nilpotency", str(path), "--set", "e12 + e12*x", "--bound", "vanish2",
            "--derivation", "inner_e11"]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "span of T_0 is not nilpotent" in err
    assert cli.main(args + ["--T", "e12"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "multilinear identity fails on basis tuple (0, 0)" in err


def test_ore_nilpotency_bound_rejects_set_outside_hypothesis(tmp_path):
    run_cli("examples", "upper3strict", "--dir", str(tmp_path))
    path = str(tmp_path / "upper3strict.json")
    res = run_cli("ore-nilpotency", path, "--set", "e12*x^3 + e23*x^5",
                  "--T", "e13", "--k", "1", "--bound", "vanish3",
                  "--derivation", "inner_e12")
    assert res.returncode == 2
    assert "theorem_bound" not in res.stdout
    assert "set element 1" in res.stderr
    assert "x^3 coefficient 1*e12" in res.stderr
    assert "exceeds k=1" in res.stderr
    res = run_cli("ore-nilpotency", path, "--set", "e13*x; e12 + e13",
                  "--T", "e13", "--k", "1", "--bound", "vanish3")
    assert res.returncode == 2
    assert "set element 2" in res.stderr
    assert "x^0 coefficient 1*e12" in res.stderr
    assert "not in span(T)" in res.stderr


def test_ore_nilpotency_bound_identity_budget_exits_3(tmp_path, monkeypatch, capsys):
    from orelab import algebra, cli

    assert cli.main(["examples", "upper3strict", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # strictly upper 3x3 has four nonzero products of one or two units
    monkeypatch.setattr(algebra, "DEFAULT_IDENTITY_BUDGET", 3)
    rc = cli.main(["ore-nilpotency", str(tmp_path / "upper3strict.json"),
                   "--set", "e12 + e23*x", "--bound", "vanish3",
                   "--derivation", "inner_e12"])
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_ore_nilpotency_span_cap_exits_3(tmp_path, monkeypatch, capsys):
    from orelab import cli, orepoly

    assert cli.main(["examples", "upper3strict", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(orepoly, "DEFAULT_SPAN_CAP", 0)
    rc = cli.main(["ore-nilpotency", str(tmp_path / "upper3strict.json"),
                   "--set", "e12 + e23*x", "--derivation", "inner_e12"])
    assert rc == 3
    assert "budget exceeded: graded coordinate space" in capsys.readouterr().err


def test_ore_nilpotency_bound_below_minimal_is_a_verdict(tmp_path, monkeypatch, capsys):
    from orelab import cli

    assert cli.main(["examples", "upper3strict", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # the command computes the bound from its own b-sequence
    monkeypatch.setattr(cli, "_theorem_bound", lambda *args, **kwargs: 1)
    rc = cli.main(["ore-nilpotency", str(tmp_path / "upper3strict.json"),
                   "--set", "e12 + e23*x", "--bound", "vanish3",
                   "--derivation", "inner_e12"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "theorem_bound = 1" in out
    assert "minimal_le_bound = False" in out
    assert "verdict = MISMATCH" in out


def test_ore_nilpotency_bad_set(tmp_path):
    run_cli("examples", "squarezero", "--dir", str(tmp_path))
    res = run_cli("ore-nilpotency", str(tmp_path / "squarezero.json"),
                  "--set", "x + x^2")
    assert res.returncode == 2
    assert "coefficient" in res.stderr


def test_ore_rewrite(tmp_path):
    run_cli("examples", "upper3strict", "--dir", str(tmp_path))
    res = run_cli("ore-rewrite", str(tmp_path / "upper3strict.json"),
                  "--derivation", "inner_e12", "--head", "e12",
                  "--indices", "e23", "--exponents", "1,0", "--k", "1")
    assert res.returncode == 0
    assert "term0 = 1 | 0,2 | 0 | 1" in res.stdout
    assert "term1 = 1 | 0,2 | 1 | 0" in res.stdout


def test_ore_rewrite_budget_exits_3(tmp_path, monkeypatch, capsys):
    from orelab import cli, orepoly

    assert cli.main(["examples", "upper3strict", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # the expansion above visits three partial products: (), (0,) and (1,)
    monkeypatch.setattr(orepoly, "DEFAULT_REWRITE_BUDGET", 2)
    rc = cli.main(["ore-rewrite", str(tmp_path / "upper3strict.json"),
                   "--derivation", "inner_e12", "--head", "e12",
                   "--indices", "e23", "--exponents", "1,0", "--k", "1"])
    assert rc == 3
    assert "budget exceeded: rewriting" in capsys.readouterr().err


# --- bundled examples ---------------------------------------------------------

def test_examples_charp(tmp_path):
    res = run_cli("examples", "charp", "--p", "5", "--dir", str(tmp_path))
    assert res.returncode == 0
    assert "stable = False" in res.stdout
    assert "witness.element = 1*t" in res.stdout
    doc = json.loads((tmp_path / "charp_5.json").read_text())
    assert doc["coeff_ring"] == {"prime": 5}
    assert doc["rank"] == 5


def test_examples_upper3strict(tmp_path):
    res = run_cli("examples", "upper3strict", "--dir", str(tmp_path))
    assert res.returncode == 0
    assert "minimal_N = 2" in res.stdout


def test_examples_squarezero(tmp_path):
    res = run_cli("examples", "squarezero", "--dir", str(tmp_path))
    assert res.returncode == 0
    assert "minimal_N = 1" in res.stdout


def test_examples_unknown_name(tmp_path):
    res = run_cli("examples", "nosuch", "--dir", str(tmp_path))
    assert res.returncode == 2


# --- determinism ---------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("words-analyze", "4,1,3,0,2", "--k", "2", "--b", "2,3,4", "--decreasing", "2"),
    ("words-bounds", "--d", "2", "--k", "1", "--eps", "1/2", "--b", "2,3,4"),
    ("words-bounds", "--d", "1", "--k", "1", "--eps", "1", "--b", "1", "--json"),
])
def test_repeated_runs_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_examples_runs_identical(tmp_path):
    a = run_cli("examples", "charp", "--p", "3", "--dir", str(tmp_path / "a"))
    b = run_cli("examples", "charp", "--p", "3", "--dir", str(tmp_path / "b"))
    assert a.returncode == b.returncode == 0
    assert a.stdout.replace(str(tmp_path / "a"), "@") == \
        b.stdout.replace(str(tmp_path / "b"), "@")
    assert (tmp_path / "a" / "charp_3.json").read_bytes() == \
        (tmp_path / "b" / "charp_3.json").read_bytes()
