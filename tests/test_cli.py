"""CLI: determinism, artifact formats, exit codes."""

import hashlib
import importlib.util
import json
import os
import random
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from holderlevels import cli
from holderlevels.bernoulli import sample_digits
from holderlevels.cli import main
from holderlevels.levelset import LevelSetTree
from holderlevels.paf import random_standard_paf
from helpers import full_level_set
from test_cantor import relative_stop_ratio


ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("readme_artifacts",
                                               ROOT / "tools" / "readme_artifacts.py")
readme_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(readme_artifacts)


def run_cli(args, tmp_path=None):
    return subprocess.run(
        [sys.executable, "-m", "holderlevels.cli", *args],
        capture_output=True, text=True,
    )


def test_bounds_csv_shape(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--grid", "1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    config = json.loads(lines[0][2:])
    assert config["command"] == "bounds"
    assert lines[1] == "alpha,lower,upper,trivial"
    alpha, lower, upper, trivial = lines[2].split(",")
    assert float(lower) == pytest.approx(0.08295, abs=5e-5)
    assert float(upper) == 0.5
    assert float(trivial) == pytest.approx(0.584962500721, abs=1e-11)


def test_bounds_empty_grid(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["bounds", "--grid", "", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # config + header only


def test_the_parser_built_once_still_writes_the_readme_bytes(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process; a parse error (exit 2) between
    # two calls leaves the later README commands writing their recorded bytes
    expected = dict(reversed(line.split(maxsplit=1)) for line in
                    (ROOT / "tests" / "readme_artifacts.sha256").read_text().splitlines())
    commands = [shlex.split(line)[1:] for line in readme_artifacts.readme_commands()]
    monkeypatch.chdir(tmp_path)
    assert main(commands[0]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["levelset", "--depth", "five"])
    assert exc.value.code == 2 and cli.make_parser() is cli.make_parser()
    assert "invalid int value" in capsys.readouterr().err
    for number, args in enumerate(commands, start=1):
        assert main(args) == 0, args
        stdout = capsys.readouterr().out.encode()
        name = f"{number:02d}-{args[0]}.stdout"
        assert hashlib.sha256(stdout).hexdigest() == expected[name], name
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == {name: digest for name, digest in expected.items()
                       if not name[:2].isdigit()}


def test_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["witness", "--alpha", "0.5", "--digits", "120",
                     "--trials", "4", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_levelset_command(tmp_path):
    out = tmp_path / "ls.csv"
    js = tmp_path / "ls.json"
    rc = main(["levelset", "--seed", "3", "--depth", "4", "--level", "3",
               "--r-count", "4", "--out", str(out), "--json-out", str(js)])
    assert rc == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) >= 1
    for row in rows:
        assert row.endswith(",1")  # every invariant check passed
        assert float(row.split(",")[2]) >= 1  # kappa sum at least 1
    payload = json.loads(js.read_text())
    assert payload["level_sets"], "expected serialized level sets"


def test_levelset_json_lists_the_tree_members(tmp_path):
    js = tmp_path / "ls.json"
    assert main(["levelset", "--l", "2", "--depth", "3", "--r-count", "2",
                 "--out", str(tmp_path / "ls.csv"), "--json-out", str(js)]) == 0
    level_sets = json.loads(js.read_text())["level_sets"]
    assert len(level_sets) == 2
    fn = random_standard_paf(42, 4, 0.5, 0.9, check=False)    # the command's defaults
    for level_set in level_sets:
        r = Fraction(level_set["r"])
        assert (level_set["n"], level_set["l"]) == (3, 2)
        listed = [m["address"] for m in level_set["members"]]
        assert listed == sorted(listed)
        assert {m["address"]: m["kappa_exp"] for m in level_set["members"]} \
            == full_level_set(fn, r, 3, 2)
        tree = LevelSetTree(fn, r, 2).fill_measure(3)
        assert {m["address"]: Fraction(m["mu"]) for m in level_set["members"]} \
            == {node.word: node.mu for node in tree.nodes_at(3)}


def test_conductivity_hist(tmp_path):
    out = tmp_path / "hist.csv"
    census = tmp_path / "census.csv"
    assert main(["conductivity-hist", "--seed", "3", "--depth", "4",
                 "--level", "3", "--d1", "1/2", "--out", str(out),
                 "--census-out", str(census)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "level,kappa_exp,count,mu_total"
    assert any(line.startswith("0,0,1,") for line in lines[2:])
    census_lines = census.read_text().splitlines()
    assert census_lines[1] == "n,count,binomial_bound,image_measure,passed"
    assert all(line.endswith(",1") for line in census_lines[2:])


def test_conductivity_hist_resamples_a_colliding_level(tmp_path):
    # seed 0 at level 1 first draws a k divisible by 3: a dyadic level,
    # which meets a vertex value on the way to depth 25
    out = tmp_path / "hist.csv"
    proc = run_cli(["conductivity-hist", "--seed", "0", "--level", "1",
                    "--depth", "25", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "resampled 1 colliding level values" in proc.stderr
    lines = out.read_text().splitlines()
    assert lines[1] == "level,kappa_exp,count,mu_total"
    assert any(line.startswith("25,") for line in lines[2:])


def test_witness_zero_trials(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["witness", "--alpha", "0.5", "--trials", "0",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2  # config + header


def test_witness_trace(tmp_path):
    out = tmp_path / "w.csv"
    trace = tmp_path / "trace.csv"
    assert main(["witness", "--alpha", "0.5", "--digits", "50", "--trials", "2",
                 "--out", str(out), "--trace-out", str(trace)]) == 0
    rows = [r.split(",") for r in trace.read_text().splitlines()[2:]]
    assert len(rows) == 50
    for n, count, log2count in rows:
        assert int(count) == 1 << int(log2count)


def test_witness_count_past_int_str_limit(tmp_path):
    """A 2**zeros count longer than str()'s default 4300 digits still prints."""
    out = tmp_path / "w.csv"
    res = run_cli(["witness", "--alpha", "0.5", "--digits", "60000", "--trials", "1",
                   "--seed", "42", "--out", str(out)])
    assert res.returncode == 0 and "Traceback" not in res.stderr
    n, count, _ = out.read_text().splitlines()[2].split(",")
    assert n == "60000" and len(count) > 4300
    zeros = sample_digits(random.Random(42 * 7919), 2.0 ** -0.5, 60000).count(0)
    value = 0
    for i in range(0, len(count), 1000):   # int() parses at most 4300 digits
        value = value * 10 ** len(count[i:i + 1000]) + int(count[i:i + 1000])
    assert value == 1 << zeros



def test_fractions_past_int_str_limit_print(tmp_path):
    """A Fraction whose denominator is longer than 4300 digits still prints."""
    out = tmp_path / "f.csv"
    den = 2**14501 - 1
    cli.write_csv(str(out), {}, ["x"], [[Fraction(1, den)]])
    num, text = out.read_text().splitlines()[2].split("/")
    # int() parses at most 4300 digits; Decimal parses any length
    assert num == "1" and len(text) > 4300 and int(Decimal(text)) == den


def test_cantor_command(tmp_path):
    out = tmp_path / "cantor.csv"
    cap = tmp_path / "capacity.csv"
    js = tmp_path / "intervals.json"
    assert main(["cantor", "--depth", "20", "--capacity-alphas", "0.75,0.4",
                 "--out", str(out), "--capacity-out", str(cap),
                 "--json-out", str(js), "--json-depth", "3"]) == 0
    rows = out.read_text().splitlines()[2:]
    final = rows[-1].split(",")
    assert abs(float(final[3]) - 0.5) < 1e-6
    cap_rows = [r.split(",") for r in cap.read_text().splitlines()[2:]]
    assert any(r[5] == "1" for r in cap_rows)  # the divergence flag fired
    payload = json.loads(js.read_text())
    assert len(payload["intervals"]) == 8
    assert payload["intervals"][0] == ["0/1", "1/15"]


def test_phase_report_carries_certificates(tmp_path):
    js = tmp_path / "phase.json"
    assert main(["phase", "--alpha", "0.6", "--out", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert payload["structure"]["certificates"]["levels"]
    assert payload["perturbation"]["large_change_exact"] is True


def test_phase_commands(tmp_path):
    feas = run_cli(["phase", "--alpha", "0.4"])
    assert feas.returncode == 0
    assert "feasible piecewise-constant approximation at k=" in feas.stdout
    infeas = run_cli(["phase", "--alpha", "0.6", "--out", "-"])
    assert infeas.returncode == 0
    assert "infeasible; perturbation certificate holds" in infeas.stdout
    boundary = run_cli(["phase", "--alpha", "0.5"])
    assert boundary.returncode == 0
    assert "boundary exponent" in boundary.stdout


def test_phase_reports_no_feasible_level_past_float_underflow(capsys):
    # nu**k and (rho**k)**alpha are both 0.0 from k = 1075 on
    assert main(["phase", "--alpha", "0.6", "--k-cap", "2000"]) == 0
    assert capsys.readouterr().out == "infeasible; perturbation certificate holds\n"


@pytest.mark.parametrize("alpha, k, exit_code", [(0.51, 200, 1), (0.52, 174, 0),
                                                 (0.55, 56, 0)])
def test_phase_certificate_is_decided_by_the_full_sum(tmp_path, capsys, alpha, k, exit_code):
    # just above alpha = 1/2 the capacity terms decay slowly, and the k
    # search decides by the direct sum plus its tail
    js = tmp_path / "phase.json"
    assert main(["phase", "--alpha", str(alpha), "--out", str(js)]) == exit_code
    state = "holds" if exit_code == 0 else "FAILS"
    assert capsys.readouterr().out == f"infeasible; perturbation certificate {state}\n"
    assert json.loads(js.read_text())["perturbation"]["k"] == k
    # the certificate's verdict is the one the full sum gives
    assert (relative_stop_ratio(k, alpha) < 0.2) == (exit_code == 0)


def test_selftest_passes():
    res = run_cli(["selftest"])
    assert res.returncode == 0
    assert "FAIL" not in res.stdout


def test_witness_rejects_alpha_one():
    res = run_cli(["witness", "--alpha", "1.0", "--digits", "10", "--trials", "1"])
    assert res.returncode != 0


def _assert_usage_error(res, command: str):
    """Exit 2 and a one-line message on stderr, no traceback."""
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"holderlevels {command}: error: ")
    assert "Traceback" not in res.stderr


def test_witness_rejects_zero_digits():
    res = run_cli(["witness", "--alpha", "0.5", "--digits", "0"])
    _assert_usage_error(res, "witness")
    assert "--digits" in res.stderr


def test_witness_trace_refuses_digits_past_its_cap(tmp_path, monkeypatch, capsys):
    # refused before any digit is drawn; without --trace-out the same
    # digits run, since only the trace grows with their square
    digits = str(cli._MAX_TRACE_DIGITS + 1)
    out, trace = tmp_path / "w.csv", tmp_path / "trace.csv"
    draw = cli.sample_digits

    def unreachable(*args, **kwargs):
        raise AssertionError("drew digits before checking --digits")

    monkeypatch.setattr(cli, "sample_digits", unreachable)
    assert main(["witness", "--alpha", "0.5", "--digits", digits, "--trials", "1",
                 "--out", str(out), "--trace-out", str(trace)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [
        f"holderlevels witness: error: --digits must be at most {cli._MAX_TRACE_DIGITS} "
        "with --trace-out: the trace grows with its square"]
    assert not out.exists() and not trace.exists()
    monkeypatch.setattr(cli, "sample_digits", draw)
    assert main(["witness", "--alpha", "0.5", "--digits", digits, "--trials", "1",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2].startswith(f"{digits},")


def test_bounds_rejects_alpha_outside_unit_interval():
    res = run_cli(["bounds", "--grid", "0,0.5"])
    _assert_usage_error(res, "bounds")
    assert "(0, 1]" in res.stderr
    _assert_usage_error(run_cli(["bounds", "--grid", "0.1:x:3"]), "bounds")


@pytest.mark.parametrize("argv, option", [
    (["levelset", "--r-count", "-3"], "--r-count"),
    (["witness", "--alpha", "0.5", "--trials", "-1"], "--trials"),
])
def test_negative_counts_rejected(tmp_path, argv, option):
    out = tmp_path / "out.csv"
    res = run_cli([*argv, "--out", str(out)])
    _assert_usage_error(res, argv[0])
    assert option in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["witness", "--alpha", "0.5", "--digits", "200", "--trials", "2", "--trace-out", "-"],
    ["bounds", "--grid", "0.5", "--out", "-"],
    ["phase", "--alpha", "0.4"],
    ["selftest"],
])
def test_closed_stdout_pipe_is_a_usage_error(argv):
    # the read end is closed before the CLI starts, so its first flush fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "holderlevels.cli", *argv],
                             stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith(f"holderlevels {argv[0]}: error: cannot write stdout: ")
    assert "Broken pipe" in lines[0]


def test_levelset_rejects_level_zero(tmp_path):
    out = tmp_path / "ls.csv"
    res = run_cli(["levelset", "--level", "0", "--out", str(out)])
    _assert_usage_error(res, "levelset")
    assert "--level" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["levelset", "--level", "3", "--l", "3", "--depth", "1", "--c", "inf"],
    ["conductivity-hist", "--c", "inf"],
])
def test_function_commands_reject_infinite_c(tmp_path, argv):
    out = tmp_path / "out.csv"
    res = run_cli([*argv, "--out", str(out)])
    _assert_usage_error(res, argv[0])
    assert "--c" in res.stderr
    assert not out.exists()


def test_phase_rejects_alpha_above_one():
    _assert_usage_error(run_cli(["phase", "--alpha", "1.5"]), "phase")


@pytest.mark.parametrize("argv, option", [
    (["cantor", "--depth", "-1"], "--depth"),
    (["cantor", "--json-depth", "-2"], "--json-depth"),
    (["phase", "--alpha", "0.6", "--perturb-k", "0"], "--perturb-k"),
    (["phase", "--alpha", "0.6", "--grid-level", "-1"], "--grid-level"),
    (["phase", "--alpha", "0.6", "--grid-level", "23"], "--grid-level"),
    (["phase", "--alpha", "0.4", "--c", "1.5"], "--c"),
    (["phase", "--alpha", "0.6", "--c", "0"], "--c"),
    (["phase", "--alpha", "0.6", "--delta", "0.9"], "--delta"),
    (["phase", "--alpha", "0.6", "--delta", "0"], "--delta"),
    (["phase", "--alpha", "0.6", "--M", "-1"], "--M"),
    (["phase", "--alpha", "0.6", "--k-cap", "-1"], "--k-cap"),
    (["phase", "--alpha", "0.4", "--M", "inf"], "--M"),
    (["phase", "--alpha", "0.4", "--M", "nan"], "--M"),
    (["phase", "--alpha", "0.6", "--perturb-k", "201"], "--perturb-k"),
    (["phase", "--alpha", "0.6", "--perturb-k", "1030"], "--perturb-k"),
    (["cantor", "--depth", "1030", "--capacity-alphas", "0.6"], "--depth 1030: k = 851"),
])
def test_cantor_and_phase_reject_bad_input(argv, option):
    res = run_cli(argv)
    _assert_usage_error(res, argv[0])
    assert option in res.stderr


def test_phase_rejects_grid_level_above_cap(monkeypatch, capsys):
    # rejected before any work: neither the structure nor the grid is built
    def unreachable(*args, **kwargs):
        raise AssertionError("phase did work before checking --grid-level")

    monkeypatch.setattr(cli.ct, "product_separated_structure", unreachable)
    monkeypatch.setattr(cli.ct, "cantor_grid", unreachable)
    assert main(["phase", "--alpha", "0.6", "--grid-level", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "holderlevels phase: error: --grid-level must lie in 0..7: "
        "each level costs about 4x the last"]


def test_phase_c_message_prints_the_value_as_given():
    # 0.999999999 rounds to c = 1 in the configuration; the message names the input
    res = run_cli(["phase", "--alpha", "0.6", "--c", "0.999999999"])
    _assert_usage_error(res, "phase")
    assert "--c 0.999999999 " in res.stderr


@pytest.mark.parametrize("c, rounded", [("0.9999999", "1"), ("4e-7", "0")])
def test_phase_refuses_a_c_that_rounds_out_of_the_open_interval(tmp_path, c, rounded):
    # the perturbation takes c to denominators up to 10**6; the refusal
    # names the rounded value and comes before anything is written
    out = tmp_path / "phase.json"
    res = run_cli(["phase", "--alpha", "0.6", "--c", c, "--out", str(out)])
    _assert_usage_error(res, "phase")
    assert f"rounds to {rounded} " in res.stderr
    assert not out.exists()
    # the feasible branch takes no perturbation, so it does not round c
    assert run_cli(["phase", "--alpha", "0.3", "--c", "1e-300"]).returncode == 0


@pytest.mark.parametrize("argv", [
    ["levelset", "--depth", "2", "--l", "30", "--r-count", "1"],
    ["conductivity-hist", "--depth", "3", "--l", "25"],
    ["levelset", "--l", "17"],
])
def test_function_commands_reject_l_above_cap(monkeypatch, capsys, argv):
    # rejected before any work: the boundary family is never built
    def unreachable(*args, **kwargs):
        raise AssertionError("built the boundary family before checking --l")

    monkeypatch.setattr(cli.ls, "boundary_family", unreachable)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"holderlevels {argv[0]}: error: --l must lie in 1..16: "
        "each l + 1 doubles the boundary words"]


@pytest.mark.parametrize("argv", [
    ["levelset", "--level", "12", "--depth", "1", "--r-count", "1"],
    ["conductivity-hist", "--level", "20", "--depth", "1"],
    ["levelset", "--level", "13"],
])
def test_function_commands_reject_level_above_cap(monkeypatch, capsys, argv):
    # rejected before any work: the function is never generated
    def unreachable(*args, **kwargs):
        raise AssertionError("generated the function before checking --level")

    monkeypatch.setattr(cli, "random_standard_paf", unreachable)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"holderlevels {argv[0]}: error: --level must lie in 1..11: "
        "each level costs about 3x the last"]


@pytest.mark.parametrize("argv", [
    ["levelset", "--depth", "40", "--json-out", "x.json"],
    ["conductivity-hist", "--depth", "201"],
    # one step past the listing cap: about 2 s and 500 MB if the guard failed
    ["levelset", "--depth", "29", "--r-count", "1", "--json-out", "x.json"],
    ["conductivity-hist", "--l", "2", "--depth", "201"],
    # the command _MAX_L was first measured with; it is measured at depth 1 now
    ["levelset", "--l", "16", "--depth", "2", "--r-count", "1", "--json-out", "x.json"],
    # one step past the histogram cap: over a second if the guard failed
    ["levelset", "--depth", "201", "--r-count", "20"],
])
def test_function_commands_reject_word_length_above_cap(tmp_path, monkeypatch, capsys, argv):
    # rejected before any work: the function is never generated.  Only the
    # --json-out node listing is held to the word length; the histograms
    # that the other reads take are held to the depth
    def unreachable(*args, **kwargs):
        raise AssertionError("generated the function before checking --depth")

    monkeypatch.setattr(cli, "random_standard_paf", unreachable)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if "--json-out" in argv:
        message = ("--l times --depth must be at most 28 with --json-out: "
                   "memory doubles about every two steps of word length")
    else:
        message = "--depth must lie in 0..200: each doubling costs about 3.5x"
    assert err.splitlines() == [f"holderlevels {argv[0]}: error: {message}"]
    assert not (tmp_path / "x.json").exists()


def test_histogram_commands_read_past_the_listing_cap(tmp_path):
    # without --json-out the word length is free: the histograms of a
    # depth-100 tree take tens of milliseconds
    out = tmp_path / "ls.csv"
    assert main(["levelset", "--depth", "100", "--r-count", "2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 2
    assert main(["conductivity-hist", "--l", "3", "--depth", "40",
                 "--out", str(tmp_path / "h.csv")]) == 0


@pytest.mark.parametrize("argv", [
    ["--depth", "-1"],
    ["--json-depth", "-2"],
    ["--depth", "23", "--json-depth", "23"],  # past the materialization limit
])
def test_cantor_interval_list_rejects_bad_level(tmp_path, argv):
    js = tmp_path / "x.json"
    res = run_cli(["cantor", *argv, "--json-out", str(js)])
    _assert_usage_error(res, "cantor")
    assert not js.exists()


@pytest.mark.parametrize("argv, message", [
    (["phase", "--alpha", "0.6", "--k-cap", "10001"], "--k-cap must lie in 1..10000"),
    (["cantor", "--depth", "4097"],
     "--depth must lie in 0..4096: each doubling costs about 5x"),
    (["cantor", "--depth", "17", "--json-depth", "17", "--json-out", "x.json"],
     "--json-out lists level min(--depth, --json-depth) = 17, past 16: "
     "each level doubles the intervals"),
    (["cantor", "--depth", "40", "--json-depth", "30", "--json-out", "x.json"],
     "--json-out lists level min(--depth, --json-depth) = 30, past 16: "
     "each level doubles the intervals"),
])
def test_cantor_and_phase_reject_sizes_above_cap(tmp_path, monkeypatch, capsys, argv, message):
    # rejected before any work: no Cantor level, capacity sum or structure is built
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{argv[0]} did work before checking its size options")

    for name in ("cantor_level", "capacity_gap", "product_separated_structure"):
        monkeypatch.setattr(cli.ct, name, unreachable)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"holderlevels {argv[0]}: error: {message}"]
    assert not (tmp_path / "x.json").exists()


def test_cantor_json_depth_is_capped_only_on_the_listed_level(tmp_path):
    # the list is written at min(--depth, --json-depth), and not at all without --json-out
    js = tmp_path / "x.json"
    assert main(["cantor", "--depth", "4", "--json-depth", "30", "--json-out", str(js)]) == 0
    assert json.loads(js.read_text())["config"]["intervals_level"] == 4
    assert main(["cantor", "--depth", "17", "--json-depth", "17",
                 "--out", str(tmp_path / "c.csv")]) == 0


def test_readme_artifacts_fails_on_a_failed_command(tmp_path, monkeypatch, capsys):
    # the byte-identity check compares two runs; a failed command must fail the run
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "readme_artifacts.py"
    spec = importlib.util.spec_from_file_location("readme_artifacts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    good = "holderlevels phase --alpha 0.4"
    monkeypatch.setattr(tool, "readme_commands", lambda: [good])
    assert tool.main([str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(tool, "readme_commands", lambda: [good, "holderlevels phase --alpha 2"])
    assert tool.main([str(tmp_path / "bad")]) == 1
    assert (tmp_path / "bad" / "02-phase.exit").read_text() != "0\n"
    assert "1 README command(s) exited non-zero" in capsys.readouterr().err
