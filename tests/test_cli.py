import argparse
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from picard3 import cli, report, verify
from picard3.cli import build_parser, main
from picard3.report import analyze_picard

ROOT = Path(__file__).resolve().parent.parent
# exit codes and stdout recorded before torsion-freeness was decided exactly
# and before the closed-form family signature and 3x3 determinant
GOLDEN = ROOT / "tests" / "golden" / "analyze_congruence.json"
# stdout of each script in demos/, recorded before the unused library
# surface (Gamma_0^+(l), the torsion-bound options, the JSON helpers) went
GOLDEN_DEMOS = ROOT / "tests" / "golden" / "demos.json"


def _env_with_src():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_wehler_text(capsys, monkeypatch):
    monkeypatch.setenv("PICARD3_NO_COLOR", "1")
    code, out, _ = run_cli(capsys, "analyze", "--n", "2")
    assert code == 0
    assert "C2 * C2 * C2" in out
    assert "M_2" in out


def test_analyze_g8_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--k", "8", "--l", "-8",
                           "--format", "json")
    assert code == 0
    j = json.loads(out)
    assert j["schema"] == "picard3-aut/1"
    assert j["congruence"]["index_in_Pi"] == 192
    assert j["congruence"]["free_rank"] == 17


def test_analyze_invalid_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "--k", "0", "--l", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["analyze", "congruence"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_n_below_1_is_refused(capsys, command, n):
    assert run_cli(capsys, command, "--n", n) == (1, "", "error: n must be positive\n")


def test_analyze_hypotheses_not_met_exits_2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--k", "5", "--l", "1")
    assert code == 2
    assert "HYPOTHESES NOT MET" in out


def test_analyze_text_and_json_agree(capsys):
    code, out_j, _ = run_cli(capsys, "analyze", "--n", "8", "--format", "json")
    j = json.loads(out_j)
    code2, out_t, _ = run_cli(capsys, "analyze", "--n", "8")
    assert code == code2 == 0
    c = j["congruence"]
    assert f"[Pi : G_8] = {c['index_in_Pi']}" in out_t
    assert f"delta = {c['delta_n']}" in out_t
    assert f"free rank (if torsion-free): {c['free_rank']}" in out_t


def test_analyze_defaults_match_the_library():
    params = inspect.signature(analyze_picard).parameters
    args = build_parser().parse_args(["analyze", "--n", "2"])
    assert args.search_bound == params["search_bound"].default == 20


def usage_prog(err):
    """The prog named by the usage line that starts ``err``."""
    assert err.startswith("usage: ")
    return err[len("usage: "):].split(" [-h]")[0]


@pytest.mark.parametrize("argv", [("analyze", "--n", "8", "--torsion-bound", "5"),
                                  ("congruence", "--n", "8", "--bound", "5"),
                                  ("verify", "--gram-bound", "5")])
def test_torsion_bound_options_are_gone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    # leftovers are reported by the top-level parser, as argparse does
    assert usage_prog(err) == "picard3"
    assert err.splitlines()[-1] == ("picard3: error: unrecognized arguments: "
                                    + " ".join(argv[-2:]))


COMMANDS = "'analyze', 'verify', 'salem', 'congruence'"
USAGE_ERRORS = [
    (("analyze",), "picard3 analyze", "one of the arguments --n --k is required"),
    (("analyze", "--n", "x"), "picard3 analyze", "argument --n: invalid int value: 'x'"),
    (("nonsense",), "picard3",
     f"argument command: invalid choice: 'nonsense' (choose from {COMMANDS})"),
    (("--format", "json", "analyze", "--n", "3"), "picard3",
     f"argument command: invalid choice: 'json' (choose from {COMMANDS})"),
    ((), "picard3", "the following arguments are required: command"),
    (("congruence", "--n", "8", "extra"), "picard3", "unrecognized arguments: extra"),
]


def test_usage_error_exits_1(capsys):
    for argv, prog, message in USAGE_ERRORS:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert usage_prog(err) == prog, argv
        assert err.splitlines()[-1] == f"{prog}: error: {message}", argv


@pytest.mark.parametrize("argv, prog", [(("-h",), "picard3"),
                                        (("analyze", "-h"), "picard3 analyze")])
def test_help_exits_0(capsys, argv, prog):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert usage_prog(out) == prog


@pytest.mark.parametrize("argv", [("analyze", "--n", "7", "--format", "json"),
                                  ("verify", "--suite", "clifford", "--trials", "1")])
def test_main_parses_argv_once(capsys, monkeypatch, argv):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "--n", "7"),
    ("analyze", "--k", "2", "--l", "-3", "--search-bound", "5", "--format", "json"),
    ("analyze", "--format", "text", "--n", "3"),
    ("verify",),
    ("verify", "--suite", "roundtrip", "--trials", "3", "--seed", "9", "--format", "text"),
    ("salem", "--matrix", "1,2,4,9", "--format", "json"),
    ("congruence", "--n", "8"),
])
def test_main_hands_its_handler_the_full_parse(capsys, monkeypatch, argv):
    seen = []

    def handler(args):
        seen.append(vars(args))
        return 0, {}, "header", lambda: "body"

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", handler)
    assert run_cli(capsys, *argv)[0] == 0
    assert seen == [vars(build_parser().parse_args(list(argv)))]
    assert seen[0]["command"] == argv[0]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_without_trials_is_a_usage_error(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--trials", trials)
    assert code == 1 and out == "" and "--trials must be positive" in err


def test_salem(capsys):
    code, out, _ = run_cli(capsys, "salem", "--matrix", "1,2,4,9")
    assert code == 0 and "A = 98" in out and "Salem" in out
    code, out, _ = run_cli(capsys, "salem", "--matrix", "1,0,0,1")
    assert code == 0 and "not Salem" in out
    code, _, err = run_cli(capsys, "salem", "--matrix", "1,2,2,9")
    assert code == 2 and "det" in err
    code, _, err = run_cli(capsys, "salem", "--matrix", "1,2,3")
    assert code == 1


def test_salem_json(capsys):
    code, out, _ = run_cli(capsys, "salem", "--matrix", "1,2,4,9",
                           "--format", "json")
    assert code == 0
    j = json.loads(out)
    assert j["A"] == 98 and j["is_salem"] and j["symplectic"]
    assert j["cubic"] == [1, -99, 99, -1]


def test_congruence(capsys):
    code, out, _ = run_cli(capsys, "congruence", "--n", "8",
                           "--format", "json")
    assert code == 0
    j = json.loads(out)
    assert j["subgroup"] == {"kind": "G_n", "n": 8}
    assert j["index_in_Pi"] == 192
    assert j["delta_n"] == 2
    assert j["free_rank"] == 17
    assert j["torsion_bounded_search"]["found_count"] == 0
    code, out, _ = run_cli(capsys, "congruence", "--n", "2")
    assert code == 0 and "not free" in out


def test_congruence_text_and_json_agree(capsys):
    _, out_j, _ = run_cli(capsys, "congruence", "--n", "8", "--format", "json")
    j = json.loads(out_j)
    _, out_t, _ = run_cli(capsys, "congruence", "--n", "8")
    assert f"[Pi : G_8] = {j['index_in_Pi']}" in out_t
    assert f"delta_8 = {j['delta_n']}" in out_t
    assert f"free rank (if torsion-free): {j['free_rank']}" in out_t
    assert f"entries <= {j['torsion_bounded_search']['bound']}" in out_t


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "clifford", "--trials", "3", "--seed", "7",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    j = json.loads(out1)
    assert j["ok"] and j["suites"][0]["failed"] == 0


def test_verify_suite_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exterior",
                           "--trials", "2", "--seed", "1")
    assert code == 0
    assert "suite exterior" in out
    assert "clifford" not in out


def test_verify_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "2", "--seed", "5")
    assert code == 0
    for name in ("clifford", "exterior", "roundtrip"):
        assert f"suite {name}" in out


def test_verify_counts_a_bad_p_alpha_as_one_failed_check(capsys, monkeypatch):
    argv = ("verify", "--suite", "roundtrip", "--trials", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    passed = json.loads(out)["suites"][0]["passed"]

    def bad_p_alpha(alpha, k, l):
        raise ValueError("g is not an isometry of L")

    monkeypatch.setattr(verify, "p_alpha_and_unit", bad_p_alpha)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    suite = json.loads(out)["suites"][0]
    # each matrix fails its isometry check and skips the comparison with phi
    assert suite["failed"] > 0
    assert suite["passed"] + 2 * suite["failed"] == passed
    assert all(f.startswith("P_alpha isometry: family") for f in suite["failures"])


def test_verify_counts_a_failed_lift_as_one_failed_check(capsys, monkeypatch):
    def bad_lift(h, params):
        raise AssertionError("lift does not reproduce g")

    monkeypatch.setattr(verify, "clifford_lift", bad_lift)
    code, out, err = run_cli(capsys, "verify", "--suite", "roundtrip", "--trials", "1",
                             "--format", "json")
    assert code == 2 and err == ""
    suite = json.loads(out)["suites"][0]
    # one seeded unit per family, each one failed check
    assert suite["failed"] == len(verify.FAMILIES)
    assert suite["failures"] == [f"unit maps: family ({k},{l}): lift does not reproduce g"
                                 for k, l in verify.FAMILIES]


@pytest.mark.parametrize("first_bad_call", [1, 2])
def test_verify_counts_a_failed_homomorphism_as_one_failed_check(capsys, monkeypatch,
                                                                  first_bad_call):
    # h_alpha fails for one family: on every call (so the unit maps fail
    # too), or from its second call on, which is the product's in the
    # homomorphism check when there is one unit per family
    bad_params = verify.GramParams.family(*verify.FAMILIES[0])
    calls = []
    h_alpha = verify.h_alpha

    def bad_h_alpha(unit, params):
        if params == bad_params:
            calls.append(unit)
            if len(calls) >= first_bad_call:
                raise AssertionError("h_alpha failed")
        return h_alpha(unit, params)

    argv = ("verify", "--suite", "roundtrip", "--trials", "1", "--format", "json")
    passed = json.loads(run_cli(capsys, *argv)[1])["suites"][0]["passed"]
    monkeypatch.setattr(verify, "h_alpha", bad_h_alpha)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and err == ""
    suite = json.loads(out)["suites"][0]
    tag = "family ({},{})".format(*verify.FAMILIES[0])
    unit_maps = [f"unit maps: {tag}: h_alpha failed"] if first_bad_call == 1 else []
    assert suite["failures"] == [*unit_maps, f"h homomorphism: {tag}"]
    # lost passes: the homomorphism check, plus the unit's five map checks
    # (l < 0) when its h_alpha fails; a unit without h_alpha has no product call
    assert suite["passed"] == passed - (6 if first_bad_call == 1 else 1)
    assert len(calls) == first_bad_call


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_invariant_failure_exits_3_with_one_line(capsys, monkeypatch, fmt):
    def bad_lift(h, params):
        raise AssertionError("lift does not reproduce g")

    monkeypatch.setattr(report, "clifford_lift", bad_lift)
    code, out, err = run_cli(capsys, "analyze", "--n", "2", "--format", fmt)
    assert (code, out, err) == (3, "", "error: invariant failed: lift does not reproduce g\n")


STYLED_RUNS = [("analyze", "--n", "2"), ("analyze", "--k", "5", "--l", "1"),
               ("verify", "--suite", "clifford", "--trials", "1"),
               ("salem", "--matrix", "1,2,4,9"), ("congruence", "--n", "8")]


@pytest.mark.parametrize("argv", STYLED_RUNS)
def test_header_is_bold_on_a_terminal(capsys, monkeypatch, argv):
    monkeypatch.setenv("PICARD3_NO_COLOR", "1")
    code, plain, _ = run_cli(capsys, *argv)
    header, body = plain.split("\n", 1)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    assert run_cli(capsys, *argv) == (code, plain, "")
    monkeypatch.delenv("PICARD3_NO_COLOR")
    assert run_cli(capsys, *argv) == (code, f"\033[1m{header}\033[0m\n{body}", "")


def test_repeated_main_matches_fresh_interpreter(capsys):
    # the parser is built once per process; later calls, with other
    # subcommands, must print what a fresh interpreter prints
    runs = [("congruence", "--n", "12"),
            ("salem", "--matrix", "1,2,4,9", "--format", "json"),
            ("analyze", "--n", "3", "--format", "json"),
            ("congruence", "--n", "12")]
    env = _env_with_src()
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "picard3.cli", *argv],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=60, env=env)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert build_parser() is build_parser()


def test_analyze_and_congruence_match_golden_outputs():
    golden = json.loads(GOLDEN.read_text())
    nonzero = [v for v in range(-6, 7) if v]
    keys = {f"{cmd} --n {n} --format {fmt}"
            for n in [*range(1, 41), 65003, 65537, 65536, 99991]
            for cmd in ("analyze", "congruence") for fmt in ("json", "text")}
    keys |= {f"analyze --k {k} --l {l} --format json"
             for k in nonzero for l in nonzero}
    assert set(golden) == keys
    for key, (code, out) in golden.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(key.split()) == code, key
        assert buf.getvalue() == out, key


def test_demos_match_golden_outputs():
    golden = json.loads(GOLDEN_DEMOS.read_text())
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert sorted(golden) == demos and len(demos) == 6
    for name in demos:
        res = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, env=_env_with_src())
        assert (res.returncode, res.stderr) == (0, ""), name
        assert res.stdout == golden[name], name
