import argparse
import json
import tracemalloc
from pathlib import Path

import pytest

import fqforms.cli
from fqforms.cli import main
from fqforms.ffpoly import poly_to_string, prime_field
from fqforms.picard import weil_interval
from fqforms.qform import form_from_string
from fqforms.repset import rep_numbers

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_reduce_example(capsys):
    code, out = run_cli(capsys, "reduce", "--q", "7", "--form", "(t, t, t^3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"] == "(t, 0, t^3+6*t)"
    assert payload["transformation"] == [["1", "6"], ["0", "1"]]


def test_classnumber_remark_form(capsys):
    code, out = run_cli(
        capsys, "classnumber", "--q", "13", "--form", "(t+8, 4, 12*t^2+8*t+2)"
    )
    assert code == 0
    assert out.strip() == "1"


def test_disc_and_minima(capsys):
    code, out = run_cli(capsys, "disc", "--q", "13", "--form", "(t+8, 4, 12*t^2+8*t+2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["disc"] == "t^3+12*t"
    assert payload["definite"] is True
    code, out = run_cli(
        capsys, "minima", "--q", "13", "--form", "(t+8, 4, 12*t^2+8*t+2)"
    )
    assert json.loads(out)["minima"] == [1, 2]


def test_repset_lines_and_counts(capsys):
    code, out = run_cli(
        capsys,
        "repset", "--q", "5", "--form", "(1, 0, 3)",
        "--max-degree", "0", "--format", "lines",
    )
    assert code == 0
    assert out.split() == ["0", "1", "2", "3", "4"]
    code, out = run_cli(
        capsys,
        "repset", "--q", "5", "--form", "(1, 0, 3)", "--max-degree", "0", "--counts",
    )
    payload = json.loads(out)
    assert payload["counts"]["0"] == 1


@pytest.mark.parametrize("fmt", ["json", "lines"])
def test_repset_counts_enumerate_once(capsys, monkeypatch, fmt):
    # --counts reads the representation numbers alone: their keys are the
    # set, so the set itself is never built
    def refuse(*args, **kwargs):
        raise AssertionError("repset_upto called")

    monkeypatch.setattr(fqforms.cli, "repset_upto", refuse)
    form = "(1,t,3*t+3;0,0,0)"
    code, out = run_cli(
        capsys,
        "repset", "--q", "5", "--form", form, "--max-degree", "2", "--counts",
        "--format", fmt,
    )
    assert code == 0
    F = prime_field(5)
    counts = rep_numbers(form_from_string(F, form), 2)
    want = {poly_to_string(f): n for f, n in counts.items()}
    if fmt == "json":
        assert json.loads(out) == {"k": 2, "counts": want}
    else:
        assert out.splitlines() == [f"{s}\t{n}" for s, n in want.items()]


def test_equal_and_proper_equal(capsys):
    code, out = run_cli(
        capsys, "equal", "--q", "5", "--form", "(1, 0, 3)", "--form", "(2, 0, 4)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    code, out = run_cli(
        capsys,
        "proper-equal", "--q", "5", "--form", "(1, 0, 3)", "--form", "(2, 0, 4)",
    )
    payload = json.loads(out)
    assert payload["equivalent"] is True and payload["det"] == 1


def test_genus_command(capsys):
    code, out = run_cli(
        capsys, "genus", "--q", "5", "--form", "(1, 0, 3)", "--form", "(2, 0, 4)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["same_genus"] is True
    assert len(payload["symbols"]) == 2


@pytest.mark.parametrize(
    "forms,calls",
    [(("(t, 0, t^3+1)", "(2*t, 0, 3*t^3+3)"), 1), (("(1, 0, 3)", "(t, 0, t^3+1)"), 2)],
)
def test_genus_factors_each_discriminant_once(capsys, monkeypatch, forms, calls):
    # both forms share D = 4 t^4 + 4 t in the first pair; `same_genus` and
    # the two payload symbols read one factorization of it
    from fqforms import localgenus
    from fqforms.ffpoly import prime_field
    from fqforms.qform import form_from_string

    factored = []
    original = localgenus.factor

    def counted(f):
        factored.append(f)
        return original(f)

    monkeypatch.setattr(localgenus, "factor", counted)
    code, out = run_cli(capsys, "genus", "--q", "5", "--form", forms[0], "--form", forms[1])
    assert code == 0
    assert len(factored) == calls
    q1, q2 = (form_from_string(prime_field(5), form) for form in forms)
    factored.clear()
    assert json.loads(out)["same_genus"] is localgenus.same_genus(q1, q2)
    assert len(factored) == (1 if calls == 1 else 0)


def test_budget_defaults_read_one_constant(monkeypatch):
    from fqforms import errors, verify

    assert verify.SweepConfig(q=3).budget == errors.DEFAULT_BUDGET
    monkeypatch.setattr(fqforms.cli, "DEFAULT_BUDGET", 12345)
    parser = fqforms.cli.build_parser()
    repset = ["repset", "--q", "5", "--form", "(1, 0, 3)", "--max-degree", "0"]
    assert parser.parse_args(repset).budget == 12345
    assert parser.parse_args(["verify", "comp", "--q", "3"]).budget == 12345


def test_symbol_inf(capsys):
    code, out = run_cli(capsys, "symbol", "--q", "5", "--f", "t", "--g", "2", "--place", "inf")
    assert code == 0
    assert json.loads(out)["symbol"] == -1


def test_classify_table(capsys):
    code, out = run_cli(
        capsys, "classify", "--q", "13", "--disc", "t^3+12*t", "--primitive"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["proper_classes"]) == 16
    assert len(payload["genera"]) == 8
    assert set(payload["proper_counts_per_genus"]) == {2}


@pytest.mark.parametrize("primitive", [False, True])
def test_classify_square_factor_disc(capsys, monkeypatch, primitive):
    # D = t (t + 1)^2 (t + 2)^2 over F_3: each class's genus symbol reads
    # the table's places, so D is never factored, and equals the symbol
    # with a Jordan diagonalization at every divisor of D
    from fqforms import ffpoly
    from fqforms.qform import form_from_string
    from tests.test_classify_oracles import jordan_genus_symbol

    def refuse(*args):
        raise AssertionError("classify factored the discriminant")

    for module in (ffpoly, fqforms.localgenus):
        monkeypatch.setattr(module, "factor", refuse)
    argv = ["classify", "--q", "3", "--disc", "t^5+t^3+t"]
    code, out = run_cli(capsys, *argv, *(["--primitive"] if primitive else []))
    monkeypatch.undo()
    assert code == 0
    payload = json.loads(out)
    F = ffpoly.prime_field(3)
    reps = [form_from_string(F, payload["forms"][cls[0]]) for cls in payload["classes"]]
    assert payload["genus_symbols"] == [
        fqforms.cli._symbol_payload(jordan_genus_symbol(rep)) for rep in reps
    ]
    assert len(reps) == (12 if primitive else 24)
    assert len(payload["genera"]) == (8 if primitive else 18)


def test_classify_computes_one_genus_symbol_per_class(capsys, monkeypatch):
    # the 20 non-primitive classes of D = t^3 (t + 1)^2 at q = 7 take their
    # symbol from the genus key, the 58 primitive ones have it computed
    # for the payload: 78 calls, not 98
    from fqforms import classify

    calls = []
    symbol = classify.genus_symbol

    def counted(*args):
        calls.append(args[0])
        return symbol(*args)

    monkeypatch.setattr(classify, "genus_symbol", counted)
    classify._class_table_cached.cache_clear()
    code, out = run_cli(capsys, "classify", "--q", "7", "--disc", "t^5+2*t^4+t^3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == len(payload["genus_symbols"]) == 78
    assert len(calls) == 78


@pytest.mark.parametrize("q", [3, 5])
def test_verify_ternary_report_matches_golden(capsys, q):
    # reports recorded from the sweep that built one V_6 per unit a
    code, out = run_cli(capsys, "verify", "ternary", "--q", str(q))
    assert code == 0
    assert out == (DATA / f"ternary-q{q}.json").read_text()


@pytest.mark.parametrize("q,samples", [(5, 10), (17, 40)])
def test_verify_cn1_report_matches_golden(capsys, q, samples):
    # reports recorded before the degree <= 2 and degree-3 passes of the
    # survey shared one loop
    argv = ["verify", "cn1", "--q", str(q), "--samples", str(samples)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / f"cn1-q{q}.json").read_text()


@pytest.mark.parametrize("command", ["equal", "proper-equal", "genus"])
def test_two_form_commands_refuse_one_form(capsys, command):
    code = main([command, "--q", "5", "--form", "(t, 1, t^2+2)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: exactly two --form literals are required\n"


def test_picard_conductor(capsys):
    code, out = run_cli(
        capsys, "picard", "--q", "5", "--d0", "t+1", "--conductor", "t"
    )
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_picard_conductor_genus_three(capsys):
    code, out = run_cli(
        capsys, "picard", "--q", "13", "--d0", "t^7+t+3", "--conductor", "1"
    )
    assert code == 0
    lo, hi = weil_interval(13, 3)
    assert lo <= json.loads(out)["order"] <= hi
    # the group structure stays at genus <= 2
    assert main(["picard", "--q", "13", "--d0", "t^7+t+3"]) == 2


@pytest.mark.parametrize(
    "d0,order,structure,generators",
    [
        ("t^3+12*t", 8, [2, 4], [("t+5", "6"), ("t+5", "7")]),
        ("t^5+t+3", 126, [3, 42], [("t", "4"), ("t", "9")]),
    ],
)
def test_picard_group_golden(capsys, d0, order, structure, generators):
    # the remark curve t^3 - t and a genus-2 curve, Pic = Z/2 x Z/4 and Z/3 x Z/42
    code, out = run_cli(capsys, "picard", "--q", "13", "--d0", d0)
    assert code == 0
    expected = {
        "d0": d0,
        "order": order,
        "structure": structure,
        "sample_generators": [{"u": u, "v": v} for u, v in generators],
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_options_only_where_read(capsys):
    # --budget and --format are offered by repset and verify alone, each
    # with the formats it prints
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--q", "5", "--disc", "t", "--budget", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "minima", "--q", "5", "--format", "lines"])
    assert exc.value.code == 2


def test_budget_errors_exit_two(capsys):
    # a literal of degree 1e8 would allocate 1e8 coefficients
    assert main(["picard", "--q", "5", "--d0", "t^100000000"]) == 2
    assert "budget" in capsys.readouterr().err
    # genus 10 would scan the 13^10 monic polynomials of degree 10
    code = main(["picard", "--q", "13", "--d0", "t^21+t+3", "--conductor", "1"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_verify_ternary_q7_within_default_budget(capsys):
    # the three distinct V_6 sets (a and 7 - a give one form) each sum the
    # 107,401 distinct keys of one shared 823,543-vector binary grid and
    # 172 tail values: 18.5M key pairs, within 1e8
    code, out = run_cli(capsys, "verify", "ternary", "--q", "7")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["instances_checked"] == 15 + 6 * 7**5
    # a budget that holds the binary grid but not the key pairs
    code = main(["verify", "ternary", "--q", "7", "--budget", "1000000"])
    assert code == 2
    assert "key pairs" in capsys.readouterr().err


def test_classify_large_q(capsys):
    # closed-form units: (u, 0, -t/u) splits by the square class of u
    code, out = run_cli(capsys, "classify", "--q", "101", "--disc", "t")
    assert code == 0
    table = json.loads(out)
    assert len(table["forms"]) == 100
    assert len(table["classes"]) == 2
    assert len(table["proper_classes"]) == 2


def test_verify_exit_codes_and_tsv(capsys):
    code, out = run_cli(
        capsys,
        "verify", "smooth", "--q", "5", "--samples", "50", "--seed", "2",
        "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theorem\t")
    assert lines[1].split("\t")[0] == "smooth"


def test_verify_json_deterministic(capsys):
    args = ["verify", "equiv", "--q", "5", "--max-degree", "1"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run_cli(capsys, *args, "--jobs", "4")
    a, b = json.loads(out1), json.loads(out3)
    a["config"].pop("jobs")
    b["config"].pop("jobs")
    assert a == b


def test_usage_errors(capsys):
    code = main(["disc", "--q", "4", "--form", "(1, 0, 3)"])
    assert code == 2
    code = main(["disc", "--q", "5", "--form", "(1, 0, 3"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


USAGE_CASES = json.loads((DATA / "cli-usage.json").read_text())


@pytest.mark.parametrize("case", USAGE_CASES, ids=[" ".join(c["argv"]) for c in USAGE_CASES])
def test_usage_matches_golden(capsys, monkeypatch, case):
    # help and usage errors, recorded while every subcommand was registered
    # on every run: the usage line names every subcommand also when only
    # the named one is built
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    expected = (case["exit"], case["stdout"], case["stderr"])
    assert (code, captured.out, captured.err) == expected


def test_main_builds_the_named_subcommand_alone(capsys, monkeypatch):
    # one parser per subcommand otherwise: 13 with the top-level one
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["disc", "--q", "5", "--form", "(1, 0, 3)"]) == 0
    assert built == ["fqforms", "fqforms disc"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert len(built) == 1 + len(fqforms.cli.COMMANDS) == 13


def test_verify_comp_budget_refuses_before_sieving(capsys):
    # the sieve holds one bool per canonical discriminant of the top degree
    assert main(["verify", "comp", "--q", "3", "--max-degree", "3", "--budget", "10"]) == 2
    assert "budget" in capsys.readouterr().err
    # 101^4 > 10^8 bools would be allocated before any batch
    tracemalloc.start()
    try:
        assert main(["verify", "comp", "--q", "101", "--max-degree", "4"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "budget" in capsys.readouterr().err
    assert peak < 10**6


def test_delta_override(capsys):
    code, out = run_cli(
        capsys, "disc", "--q", "5", "--delta", "3", "--form", "(1, 0, 2)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["disc"] == "3"


def test_verify_refuses_delta():
    # sweeps always use the default non-square, so the flag is not offered
    with pytest.raises(SystemExit) as exc:
        main(["verify", "minima", "--q", "5", "--delta", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("q,delta", [("5", "0"), ("5", "4"), ("5", "7"), ("9", None)])
def test_field_validation_exit_two(capsys, q, delta):
    # zero, a square, an out-of-range delta and a prime power are all refused
    argv = ["disc", "--q", q, "--form", "(1, 0, 2)"]
    if delta is not None:
        argv += ["--delta", delta]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command,det", [("equal", None), ("proper-equal", 1)])
def test_equal_commands_large_q(capsys, command, det):
    # the column search needs 2 q^2 vectors, not a q^4 table of GL_2(F_q)
    code, out = run_cli(
        capsys, command, "--q", "101", "--form", "(1, 0, 3)", "--form", "(3, 0, 1)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["transformation"]
    if det is not None:
        assert payload["det"] == det


@pytest.mark.parametrize("q,deg", [(3, 2), (7, 2), (3, 3), (11, 2), (5, 3)])
@pytest.mark.parametrize("check", ["minima", "disc", "equiv"])
def test_verify_report_matches_golden(capsys, check, q, deg):
    # reports recorded from the eager V_kmax sweep, before lazy refinement,
    # and (11, 2) and (5, 3) while the refinement still hashed each record's
    # keys by blake2b
    code, out = run_cli(capsys, "verify", check, "--q", str(q), "--max-degree", str(deg))
    assert code == 0
    assert out == (DATA / f"{check}-q{q}-d{deg}.json").read_text()


@pytest.mark.parametrize("q,deg", [(5, 3), (3, 4), (3, 5), (7, 3), (5, 4)])
def test_verify_comp_report_matches_golden(capsys, q, deg):
    # reports recorded while every class table still built a form per class,
    # (3, 5), the first at genus 2, while every square-factor disc still
    # built a table and every |Pic| came from `_jacobi`, and (7, 3), the
    # benchmark's sweep, and (5, 4), with torus and CRT roots at even
    # degree, while the bridge still read one class table per disc
    argv = ["verify", "comp", "--q", str(q), "--max-degree", str(deg)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / f"comp-q{q}-d{deg}.json").read_text()


def test_classify_square_factor_payload_matches_golden(capsys):
    # D = 2 t^2 (t + 1)^2 (t^2 + 1) at q = 3, every content: 19 of its 39
    # classes are not primitive and take genus symbols, 13 have
    # deg a = deg c; recorded while every table built a form per class
    from fqforms import classify

    classify._class_table_cached.cache_clear()
    argv = ["classify", "--q", "3", "--disc", "2*t^6+t^5+t^4+t^3+2*t^2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / "classify-q3-square-factor.json").read_text()


def test_internal_error_exit_code(capsys, monkeypatch):
    def crash(check, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(fqforms.cli, "run_check", crash)
    code = main(["verify", "equiv", "--q", "3", "--max-degree", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: boom" in captured.err
