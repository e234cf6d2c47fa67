import json
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
    code, out, _ = run_cli(
        capsys, "pairs", "--h", "0", "--d", "1", "--check-symmetry", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["function"] == {"numerator": ["0", "1"], "denominator": ["1", "2", "1"]}
    assert payload["symmetric"] is True
    assert payload["expansion"]["coefficients"][:4] == ["1", "-2", "3", "-4"]


def test_pairs_imprimitive(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--h", "1", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2 and payload["h"] == 1


def test_mnop_check_passes(capsys):
    code, out, _ = run_cli(capsys, "mnop-check", "--d", "2", "--h", "1", "--umax", "10")
    assert code == 0
    assert "equal: True" in out


def test_mnop_check_rejects_odd_or_zero_umax(capsys):
    assert run_cli(capsys, "mnop-check", "--umax", "0")[0] == 2
    assert run_cli(capsys, "mnop-check", "--umax", "7")[0] == 2


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


def test_check_quick_inject_fault_fails_with_location(capsys):
    code, out, _ = run_cli(capsys, "check", "--quick", "--inject-fault")
    assert code == 1
    assert "FAIL nl-transfer" in out
    assert "injected fault" in out


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "k3bps.cli", "table", "--hmax", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "1" in result.stdout
