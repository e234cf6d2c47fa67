import json
import os
import re
import subprocess
import sys

import pytest

from k3bps.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_pretty_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "table", "--hmax", "4")
    assert code == 0
    assert "25650" in out
    assert "-8550" in out


def test_table_csv_layout(capsys):
    code, out, _ = run_cli(capsys, "table", "--hmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["g\\h", "0", "1", "2"]
    assert lines[1].split(",") == ["0", "1", "24", "324"]
    assert lines[2].split(",") == ["1", "0", "-2", "-54"]


def test_table_rejects_negative_bound(capsys):
    code, _, err = run_cli(capsys, "table", "--hmax", "-1")
    assert code == 2
    assert "hmax" in err


def test_single_state_gw_json(capsys):
    code, out, _ = run_cli(
        capsys, "gw", "--h", "0", "--dmax", "3", "--single-state", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    genus_zero = {e["d"]: e["value"] for e in payload["entries"] if e["g"] == 0}
    assert genus_zero == {1: "1", 2: "1/8", 3: "1/27"}


def test_gw_from_kkv_primitive(capsys):
    code, out, _ = run_cli(capsys, "gw", "--h", "0", "--dmax", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {"g": 0, "d": 1, "value": "1"} in payload["entries"]


def test_pairs_footnote(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--h", "0", "--d", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["function"] == {"numerator": ["0", "1"], "denominator": ["1", "2", "1"]}
    assert payload["expansion"]["coefficients"][:4] == ["1", "-2", "3", "-4"]


def test_pairs_symmetry_is_checked_without_a_flag(capsys, monkeypatch):
    import k3bps.pairs as pairs
    from k3bps.rational import RationalFunction

    assert run_cli(capsys, "pairs", "--check-symmetry")[0] == 2
    real = pairs.primitive_pairs_ratfn
    monkeypatch.setattr(
        pairs, "primitive_pairs_ratfn", lambda h, grid: real(h, grid) + RationalFunction.monomial(1)
    )
    code, out, err = run_cli(capsys, "pairs", "--d", "1", "--h", "1")
    assert code == 1
    assert out == ""
    assert err == (
        "internal check failed: primitive series at h=1 is not invariant under q <-> 1/q: "
        "arithmetic bug\n"
    )


def test_pairs_imprimitive(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--h", "1", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2 and payload["h"] == 1


def test_mnop_check_passes(capsys):
    code, out, _ = run_cli(capsys, "mnop-check", "--d", "2", "--h", "1", "--umax", "10")
    assert code == 0
    assert "equal: True" in out


def test_mnop_check_json_reports_the_work_order(capsys):
    code, out, _ = run_cli(
        capsys, "mnop-check", "--d", "2", "--h", "1", "--umax", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    # a double pole and no zero at q = -1: 10 + 2*2 + 0 + 2
    assert payload["work_order"] == 16
    assert payload["u_order"] == 10 and payload["equal"] is True


def test_mnop_check_rejects_odd_or_zero_umax(capsys):
    assert run_cli(capsys, "mnop-check", "--umax", "0")[0] == 2
    assert run_cli(capsys, "mnop-check", "--umax", "7")[0] == 2


@pytest.mark.parametrize(
    "command",
    [
        ["gw", "--single-state"],
        ["mnop-check", "--d", "1", "--h", "1"],
        ["nl-demo"],
        ["check", "--quick"],
    ],
)
def test_umax_above_limit_is_refused_up_front(capsys, monkeypatch, command):
    monkeypatch.setattr("k3bps.cli.bps_grid_from_kkv", _no_grid)
    monkeypatch.setattr("k3bps.checks.bps_grid_from_kkv", _no_grid)
    for umax in ("404", "1000"):
        code, out, err = run_cli(capsys, *command, "--umax", umax)
        assert code == 2
        assert out == ""
        assert err == "error: --umax must be an even integer from 2 to 402\n"


def test_umax_at_limit_is_allowed(capsys):
    code, out, _ = run_cli(capsys, "gw", "--single-state", "--dmax", "1", "--umax", "402")
    assert code == 0
    assert out.startswith("Gromov-Witten potential, u-truncation 402:")


def test_unknown_arguments_exit_2(capsys):
    assert main(["table", "--bogus"]) == 2
    assert main(["no-such-command"]) == 2


def test_yau_zaslow_csv(capsys):
    code, out, _ = run_cli(capsys, "yau-zaslow", "--hmax", "3", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["degree", "coefficient"]
    assert rows[1:] == [["0", "1"], ["1", "24"], ["2", "324"], ["3", "3200"]]


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "grid.json"
    code, out, _ = run_cli(
        capsys, "table", "--hmax", "1", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["values"][0] == ["1", "24"]


def test_out_unwritable_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "table", "--hmax", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["mnop-check", "nl-demo", "check"])
def test_csv_refused_where_unsupported(capsys, command):
    code, out, err = run_cli(capsys, command, "--format", "csv")
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {command} supports --format json or pretty, not csv"


def _no_grid(h_max):
    raise AssertionError(f"asked to build the KKV grid to column {h_max}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pairs", "--d", "12", "--h", "3"], "(d=12, h=3) needs KKV grid column 289"),
        (["table", "--hmax", "201"], "--hmax 201 needs KKV grid column 201"),
        (["mnop-check", "--d", "12", "--h", "3"], "(d=12, h=3) needs KKV grid column 289"),
        (["gw", "--dmax", "12", "--h", "3"], "(d=12, h=3) needs KKV grid column 289"),
        (["nl-demo", "--mmax", "12", "--hmax", "3"], "(m=12, h=3) needs KKV grid column 289"),
        (
            ["check", "--dmax", "12", "--hmax", "3"],
            "the MNOP sweep to (d=12, h=3) needs KKV grid column 289",
        ),
    ],
)
def test_grid_column_above_limit_is_refused_up_front(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("k3bps.cli.bps_grid_from_kkv", _no_grid)
    monkeypatch.setattr("k3bps.checks.bps_grid_from_kkv", _no_grid)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}; the limit is 200\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gw", "--dmax", "201", "--h", "1", "--umax", "402"], "--dmax"),
        (["gw", "--dmax", "201", "--single-state"], "--dmax"),
        (["gw", "--dmax", "0"], "--dmax"),
        (["pairs", "--d", "5040", "--h", "1"], "--d"),
        (["pairs", "--d", "201", "--h", "0"], "--d"),
        (["mnop-check", "--d", "201", "--h", "1"], "--d"),
        (["mnop-check", "--d", "0"], "--d"),
        (["check", "--dmax", "201", "--hmax", "1"], "--dmax"),
        (["check", "--dmax", "0"], "--dmax"),
        (["nl-demo", "--mmax", "21", "--hmax", "1"], "--mmax"),
    ],
)
def test_divisibility_above_limit_is_refused_up_front(capsys, monkeypatch, argv, flag):
    # h <= 1 and --single-state keep the grid column at 0 or 1, so only the
    # divisibility bound stops these before the multiple covers run
    monkeypatch.setattr("k3bps.cli.bps_grid_from_kkv", _no_grid)
    monkeypatch.setattr("k3bps.cli.gw_from_bps", _no_grid)
    code, out, err = run_cli(capsys, *argv)
    limit = 20 if flag == "--mmax" else 200
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be an integer from 1 to {limit}, the divisibility bound\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "--dmax", "200", "--h", "1"],
        ["pairs", "--d", "200", "--h", "1"],
        ["mnop-check", "--d", "200", "--h", "1"],
    ],
)
def test_divisibility_at_limit_is_allowed(monkeypatch, argv):
    monkeypatch.setattr("k3bps.cli.bps_grid_from_kkv", _no_grid)
    with pytest.raises(AssertionError, match="to column 1$"):
        main(argv)


def test_grid_column_at_limit_is_allowed(monkeypatch):
    monkeypatch.setattr("k3bps.cli.bps_grid_from_kkv", _no_grid)
    with pytest.raises(AssertionError, match="to column 200$"):
        main(["table", "--hmax", "200"])


def _no_series(h_max):
    raise AssertionError(f"asked to expand the Yau-Zaslow series to q^{h_max}")


def test_yau_zaslow_order_above_limit_is_refused_up_front(capsys, monkeypatch):
    monkeypatch.setattr("k3bps.cli.yau_zaslow_series", _no_series)
    for hmax in ("5001", "100000", "-1"):
        code, out, err = run_cli(capsys, "yau-zaslow", "--hmax", hmax)
        assert code == 2
        assert out == ""
        assert err == "error: --hmax must be an integer from 0 to 5000\n"


def test_yau_zaslow_order_at_limit_is_allowed(monkeypatch):
    monkeypatch.setattr("k3bps.cli.yau_zaslow_series", _no_series)
    with pytest.raises(AssertionError, match="to q\\^5000$"):
        main(["yau-zaslow", "--hmax", "5000"])


def _no_expansion(fn, order):
    raise AssertionError(f"asked to expand to q^{order}")


def _no_checks(**bounds):
    raise AssertionError(f"asked to run the checks with {bounds['cases']} cases")


@pytest.mark.parametrize(
    "argv, values, message",
    [
        (
            ["pairs", "--d", "14", "--h", "2", "--qmax"],
            ("8001", "100000", "-1"),
            "--qmax must be an integer from 0 to 8000",
        ),
        (
            ["table", "--hmax", "1", "--gmax"],
            ("201", "100000", "-1"),
            "--gmax must be an integer from 0 to 200",
        ),
        (
            ["check", "--cases"],
            ("1001", "100000", "0"),
            "--cases must be an integer from 1 to 1000",
        ),
    ],
)
def test_work_bound_above_limit_is_refused_up_front(capsys, monkeypatch, argv, values, message):
    monkeypatch.setattr("k3bps.cli.bps_grid_from_kkv", _no_grid)
    monkeypatch.setattr("k3bps.cli.checks.run_all", _no_checks)
    for value in values:
        code, out, err = run_cli(capsys, *argv, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


def test_work_bound_at_limit_is_allowed(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "table", "--hmax", "1", "--gmax", "200", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "200,0,0"
    monkeypatch.setattr("k3bps.cli.ratfn_expand", _no_expansion)
    with pytest.raises(AssertionError, match="to q\\^8000$"):
        main(["pairs", "--d", "14", "--h", "2", "--qmax", "8000"])
    monkeypatch.setattr("k3bps.cli.checks.run_all", _no_checks)
    with pytest.raises(AssertionError, match="with 1000 cases$"):
        main(["check", "--cases", "1000"])


@pytest.mark.parametrize(
    "constant, argv, lowest",
    [
        ("MAX_Q_ORDER", ["pairs", "--d", "2", "--h", "1", "--qmax"], 0),
        ("MAX_GRID_COLUMN", ["table", "--hmax", "2", "--gmax"], 0),
        ("MAX_CHECK_CASES", ["check", "--quick", "--cases"], 1),
        ("MAX_GRID_COLUMN", ["gw", "--single-state", "--dmax"], 1),
    ],
)
def test_work_bound_follows_its_constant(capsys, monkeypatch, constant, argv, lowest):
    monkeypatch.setattr(f"k3bps.cli.{constant}", 3)
    note = ", the divisibility bound" if argv[-1] == "--dmax" else ""
    assert run_cli(capsys, *argv, "3")[0] == 0
    code, out, err = run_cli(capsys, *argv, "4")
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[-1]} must be an integer from {lowest} to 3{note}\n"


def test_nl_demo_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "nl-demo", "--seed", "9", "--format", "json")
    code2, out2, _ = run_cli(capsys, "nl-demo", "--seed", "9", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["transfer_ok"] is True


def test_nl_demo_triangular(capsys):
    code, out, _ = run_cli(capsys, "nl-demo", "--seed", "1", "--triangular")
    assert code == 0
    assert "consistent" in out


def test_check_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--quick", "--seed", "5")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_check_json_reports_seconds_per_check(capsys):
    code, out, _ = run_cli(capsys, "check", "--quick", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 13
    for check in checks:
        assert set(check) == {"name", "ok", "detail", "seconds"}
        assert isinstance(check["seconds"], float) and check["seconds"] >= 0


def test_check_json_reports_sine_bracket_cache(capsys, monkeypatch):
    import k3bps.bps as bps

    sine_bracket = bps.sine_bracket
    sine_bracket.cache_clear()
    # the counts stay readable when the name is rebound to a plain wrapper
    monkeypatch.setattr(bps, "sine_bracket", lambda *args: sine_bracket(*args))
    # the second run, in the same process, reads the brackets the first one built
    for _ in range(2):
        code, out, _ = run_cli(capsys, "check", "--quick", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"ok", "checks", "caches"}
        counts = payload["caches"]["sine_bracket"]
        assert set(counts) == {"hits", "misses"}
        info = sine_bracket.cache_info()
        assert (counts["hits"], counts["misses"]) == (info.hits, info.misses)
        assert counts["misses"] > 0
    assert counts["hits"] > 0


def test_check_reports_every_check_when_a_guard_raises(capsys, monkeypatch):
    import k3bps.pairs as pairs
    from k3bps.rational import RationalFunction

    real = pairs.primitive_pairs_ratfn

    def corrupt(h, grid):
        fn = real(h, grid)
        return fn + RationalFunction.monomial(1) if h == 1 else fn

    monkeypatch.setattr(pairs, "primitive_pairs_ratfn", corrupt)
    code, out, _ = run_cli(capsys, "check", "--quick")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 14
    failed = {line.split(":")[0].split()[1] for line in lines[:13] if line.startswith("FAIL")}
    # every check that reads the h = 1 primitive through a PairsLedger
    assert failed == {"mnop-grid", "pairs-symmetry", "nl-transfer"}
    assert (
        "FAIL pairs-symmetry: primitive series at h=1 is not invariant under q <-> 1/q"
        in out
    )
    assert lines[13] == "10/13 checks passed; first failure: mnop-grid"


@pytest.mark.parametrize(
    "slot, detail",
    [
        # the last digit of column 3 is n_{3,3} = -4
        (3, re.escape("diagonal entry n_{3,3} = -3 violates (-1)^h*(h+1)")),
        # a digit past the last slot is a coefficient above the diagonal
        (4, r"a lambda-coefficient does not fit its \d+-bit slot"),
    ],
    ids=["diagonal", "slot-overflow"],
)
def test_check_reports_a_broken_grid_per_check(capsys, monkeypatch, slot, detail):
    import k3bps.kkv as kkv

    real = kkv._unpack

    def unpack(packed, slots, width):
        # add 1 to digit `slot` of column 3, the column with four slots
        return real(packed + (1 << (slot * width) if slots == 4 else 0), slots, width)

    monkeypatch.setattr(kkv, "_unpack", unpack)
    code, out, _ = run_cli(capsys, "check", "--quick")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 14
    assert lines[13] == "8/13 checks passed; first failure: kkv-table"
    failed = dict(line[len("FAIL ") :].split(": ", 1) for line in lines if line.startswith("FAIL"))
    # every check that builds the KKV grid through column 3
    assert set(failed) == {"kkv-table", "grid-laws", "mnop-grid", "pairs-symmetry", "nl-transfer"}
    assert all(re.fullmatch(detail, text) for text in failed.values())


def test_check_quick_inject_fault_fails_with_location(capsys):
    code, out, _ = run_cli(capsys, "check", "--quick", "--inject-fault")
    assert code == 1
    assert "FAIL nl-transfer" in out
    assert "injected fault" in out


def test_check_quick_inject_fault_names_the_first_failing_k3_label(capsys):
    code, out, _ = run_cli(capsys, "check", "--quick", "--inject-fault", "--format", "json")
    assert code == 1
    (nl,) = [c for c in json.loads(out)["checks"] if c["name"] == "nl-transfer"]
    assert nl["detail"] == (
        "injected fault; first failure at "
        "(ClassLabel(m=1, h=0), 0, Fraction(1, 12), Fraction(83, 132))"
    )


@pytest.mark.parametrize("level, logged", [(None, False), ("debug", True)])
def test_grid_timing_logged_only_under_kkv_log_debug(level, logged):
    env = {k: v for k, v in os.environ.items() if k != "KKV_LOG"}
    if level:
        env["KKV_LOG"] = level
    result = subprocess.run(
        [sys.executable, "-m", "k3bps.cli", "table", "--hmax", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert ("DEBUG k3bps: bps_grid_from_kkv h_max=2 in " in result.stderr) is logged
    if not logged:
        assert result.stderr == ""


@pytest.mark.parametrize("level, logged", [(None, False), ("debug", True)])
def test_substitution_logged_only_under_kkv_log_debug(level, logged):
    env = {k: v for k, v in os.environ.items() if k != "KKV_LOG"}
    if level:
        env["KKV_LOG"] = level
    result = subprocess.run(
        [sys.executable, "-m", "k3bps.cli", "mnop-check", "--d", "1", "--h", "1", "--umax", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    line = "DEBUG k3bps: substitute_q_minus_exp pole=2 zero=0 work=10 in "
    assert (line in result.stderr) is logged
    if not logged:
        assert result.stderr == ""


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "k3bps.cli", "table", "--hmax", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "1" in result.stdout
