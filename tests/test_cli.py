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


@pytest.mark.parametrize("word, bad", [("1,\u00b2,3", "\u00b2"), ("1,\u0663,3", "\u0663")])
def test_words_analyze_refuses_non_ascii_digits(word, bad):
    # str.isdigit takes a superscript two, which int() then fails on, and an
    # Arabic-Indic three, which int() reads as 3
    res = run_cli("words-analyze", word)
    assert res.returncode == 2
    assert f"cannot parse word: item 2 ({bad!r}) is not a natural number" in res.stderr
    assert res.stdout == "" and "invalid literal" not in res.stderr


@pytest.mark.parametrize("args, message, ascii_code", [
    (("words-bounds", "--d", "1", "--k", "1", "--b", "2,\u0663"),
     "cannot parse bound prefix: item 2 ('\u0663')", 0),
    (("ore-rewrite", "FILE", "--head", "e12", "--indices", "e23",
      "--exponents", "0,\u00b9", "--k", "1"), "cannot parse exponents: item 2 ('\u00b9')", 0),
    # -3 parses, and is then refused as out of range
    (("ore-rewrite", "FILE", "--head", "e12", "--indices", "e23",
      "--exponents", "0,-\u0663", "--k", "1"), "cannot parse exponents: item 2 ('-\u0663')", 2),
    (("ore-rewrite", "FILE", "--head", "\u0661", "--indices", "e23",
      "--exponents", "0,1", "--k", "1"), "unknown basis element '\u0661'", 0),
    (("ore-nilpotency", "FILE", "--set", "x^\u0663*e12"), "unknown basis element 'x^\u0663'", 0),
    (("ore-nilpotency", "FILE", "--set", "x^\u00b2*e12"), "unknown basis element 'x^\u00b2'", 0),
    # a value or an option: int() took these as 3, 1 and 10
    (("ore-nilpotency", "FILE", "--set", "\u0663*e12"), "bad coefficient '\u0663'", 0),
    (("ore-nilpotency", "FILE", "--set", "1_0*e12"), "bad coefficient '1_0'", 0),
    (("ore-nilpotency", "FILE", "--set", "1/\u0661*e12"), "bad coefficient '1/\u0661'", 0),
    (("radical-check", "FILE", "--candidate", "0,\u0661,0"),
     "cannot parse exact value '\u0661'", 0),
    (("words-bounds", "--d", "1", "--k", "1", "--b", "2", "--eps", "\u0661/2"),
     "cannot parse rational '\u0661/2'", 0),
    (("words-bounds", "--d", "1", "--k", "1", "--b", "2", "--eps", "1/1_0"),
     "cannot parse rational '1/1_0'", 0),
    (("words-analyze", "2,1", "--k", "\u0661"), "argument --k: invalid int value: '\u0661'", 0),
    (("words-analyze", "2,1", "--decreasing", "1_0"),
     "argument --decreasing: invalid int value: '1_0'", 0),
    (("words-bounds", "--d", "\u0661", "--k", "1", "--b", "2"),
     "argument --d: invalid int value: '\u0661'", 0),
    (("words-bounds", "--d", "1", "--k", "1", "--b", "2,3", "--oracle", "\u0663", "1"),
     "argument --oracle: invalid int value: '\u0663'", 0),
    (("ore-rewrite", "FILE", "--head", "e12", "--indices", "e23",
      "--exponents", "0,1", "--k", "\u0661"), "argument --k: invalid int value: '\u0661'", 0),
    (("ore-nilpotency", "FILE", "--set", "e12", "--cap", "1_0"),
     "argument --cap: invalid int value: '1_0'", 0),
    (("examples", "charp", "--p", "\u0663", "--dir", "DIR"),
     "argument --p: invalid int value: '\u0663'", 0),
    # items strip ASCII whitespace only, not an EM SPACE
    (("words-analyze", "1,\u20032", "--b", "2,3"), "cannot parse word: item 2 ('\\u20032')", 0),
    (("words-analyze", "1,2", "--b", "2,\u20033"),
     "cannot parse bound prefix: item 2 ('\\u20033')", 0),
    (("ore-rewrite", "FILE", "--head", "e12", "--indices", "e23",
      "--exponents", "0,\u20031", "--k", "1"), "cannot parse exponents: item 2 ('\\u20031')", 0),
    (("radical-check", "FILE", "--candidate", "0,\u20031,0"),
     "cannot parse exact value '\\u20031'", 0),
    (("words-bounds", "--d", "1", "--k", "1", "--b", "2", "--eps", "\u20031/2"),
     "cannot parse rational '\\u20031/2'", 0),
])
def test_integer_fields_take_ascii_digits_only(args, message, ascii_code, tmp_path, capsys):
    from orelab import cli

    path = tmp_path / "upper3strict.json"
    assert cli.main(["examples", "upper3strict", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    swap = {"FILE": str(path), "DIR": str(tmp_path)}
    argv = [swap.get(a, a) for a in args]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
    # the same fields still take ASCII digits and ASCII whitespace
    ascii_argv = [a.replace("\u0663", "3").replace("\u00b9", "1").replace("\u00b2", "2")
                  .replace("\u0661", "1").replace("1_0", "10").replace("\u2003", " ")
                  for a in argv]
    assert cli.main(ascii_argv) == ascii_code
    assert message not in capsys.readouterr().err


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


def test_words_bounds_has_no_threads_option():
    from orelab import cli

    argv = ["words-bounds", "--d", "1", "--k", "1", "--b", "2", "--oracle", "3", "2"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--threads", "2"]) == 2


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


def test_examples_charp_failed_verification_is_a_precondition_error(tmp_path, monkeypatch, capsys):
    from orelab import cli, radical

    monkeypatch.setattr(radical, "nilpotency_index", lambda A, S: None)
    assert cli.main(["examples", "charp", "--p", "3", "--dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: stability check requires a verified nil ideal\n"


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
