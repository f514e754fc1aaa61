"""CLI tests."""

import pytest

from repro.cli import main


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out and "Table III" in out


def test_litmus_pass(capsys):
    assert main(["litmus", "MP", "--runs", "15"]) == 0
    out = capsys.readouterr().out
    assert "MP: ok" in out


def test_litmus_unknown(capsys):
    assert main(["litmus", "NOPE"]) == 2
    assert "unknown litmus test" in capsys.readouterr().err


def test_litmus_no_sync_control(capsys):
    assert main(["litmus", "SB", "--mcms", "TSO,TSO", "--runs", "15",
                 "--no-sync"]) == 0


def test_workload(capsys):
    assert main(["workload", "fft", "--scale", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out and "miss cycles" in out


def test_workload_unknown(capsys):
    assert main(["workload", "nope"]) == 2


def test_workload_combo_and_mcms(capsys):
    assert main(["workload", "vips", "--combo", "MESI-MESI-MESI",
                 "--mcms", "TSO,WEAK", "--scale", "0.2"]) == 0
    assert "MESI-MESI-MESI" in capsys.readouterr().out


def test_slicc_dump(capsys):
    assert main(["slicc", "MOESI", "CXL"]) == 0
    assert "machine(MachineType:C3" in capsys.readouterr().out


def test_slicc_table(capsys):
    assert main(["slicc", "MESI", "CXL", "--table"]) == 0
    assert "X-Acc" in capsys.readouterr().out


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "histogram" in out and "IRIW" in out


def test_lint_all_pairs_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "MESI-CXL: clean" in out and "RCC-GMESI: clean" in out


def test_lint_strict_self_test(capsys):
    assert main(["lint", "--strict", "--self-test"]) == 0
    assert "16/16 rules fire" in capsys.readouterr().out


def test_lint_single_pair_json(capsys):
    import json

    assert main(["lint", "--pair", "mesi:cxl", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["reports"][0]["pair"] == "MESI-CXL"


def test_lint_unknown_pair_is_clean_error(capsys):
    assert main(["lint", "--pair", "MOSI:CXL"]) == 2
    err = capsys.readouterr().err
    assert "MOSI" in err and "available" in err and "Traceback" not in err


def test_lint_malformed_pair_argument(capsys):
    assert main(["lint", "--pair", "MESI-CXL"]) == 2
    assert "--pair must look like" in capsys.readouterr().err


def test_lint_rules_catalogue(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("C001", "R001", "F001", "P001", "N001"):
        assert rule_id in out


def test_slicc_lowercase_names(capsys):
    assert main(["slicc", "moesi", "cxl"]) == 0
    assert "machine(MachineType:C3" in capsys.readouterr().out


def test_slicc_unknown_name_is_clean_error(capsys):
    assert main(["slicc", "mosi", "CXL"]) == 2
    err = capsys.readouterr().err
    assert "available" in err


def test_bad_combo_rejected():
    with pytest.raises(SystemExit):
        main(["workload", "fft", "--combo", "MESI-CXL"])


def test_colon_combo_accepted(capsys):
    assert main(["workload", "vips", "--combo", "MESI:MESI:MESI",
                 "--scale", "0.2"]) == 0
    assert "MESI-MESI-MESI" in capsys.readouterr().out


def test_workload_obs_flag_prints_summary(capsys):
    assert main(["workload", "fft", "--scale", "0.3", "--obs"]) == 0
    out = capsys.readouterr().out
    assert "observability summary" in out
    assert "rule-II audit: clean" in out
    assert "latency attribution" in out


def test_workload_exporters_write_valid_exports(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(["workload", "fft", "--combo", "MESI:CXL:MESI",
                 "--scale", "0.3", "--addr", "0x0",
                 "--chrome-trace", str(trace_path),
                 "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "observability summary" in out
    assert "wrote" in out
    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    assert trace["traceEvents"]
    metrics = json.loads(metrics_path.read_text())
    assert metrics["rule2"]["violations"] == 0
    assert any(path.startswith("system.cluster0.l1_0")
               for path in metrics["metrics"])


def test_workload_exporters_unknown_workload(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["workload", "nope", "--chrome-trace", str(trace_path)]) == 2
    assert "unknown workload" in capsys.readouterr().err
    assert not trace_path.exists()


def test_workload_addr_alone_turns_observability_on(capsys):
    assert main(["workload", "fft", "--scale", "0.3", "--addr", "0x103"]) \
        == 0
    assert "rule-II audit: clean" in capsys.readouterr().out


def test_trace_command_is_gone(capsys):
    """``repro workload`` with its exporter flags replaced ``trace``."""
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "fft"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'trace'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table4"], ["fig9"], ["fig10"], ["fig11"],
    ["scenario", "run", "x.toml"], ["scenario", "fuzz"],
], ids=["table4", "fig9", "fig10", "fig11", "scenario-run",
        "scenario-fuzz"])
@pytest.mark.parametrize("backend", ["serial", "local"])
def test_backend_flag_is_gone(argv, backend, capsys):
    """``--jobs`` alone picks the serial loop or the pool."""
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--backend", backend])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["check", "--litmus", "CoRR1", "--max-states", "0"], 0),
    (["check", "--litmus", "CoRR1", "--max-states", "0", "--json"], 0),
    (["check", "--litmus", "MP", "--depth", "5"], 1),
    (["slicc", "mesi", "cxl"], 0),
], ids=["check", "check-json", "check-inconclusive", "slicc"])
@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_verdict(argv, code, unbuffered):
    """A reader that closes the pipe at once costs no traceback and
    leaves the command's own exit code, whether the first failed write
    is a print (unbuffered) or the final flush (buffered)."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == code


def test_fig10_progress_and_obs_rollups(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.2")
    assert main(["fig10", "--workloads", "vips", "--jobs", "1",
                 "--progress", "--obs"]) == 0
    captured = capsys.readouterr()
    assert "[sweep] cell 1/" in captured.err
    assert "done (" in captured.err
    assert "[obs]" in captured.out
    assert "rule2=clean" in captured.out


def test_litmus_from_file(tmp_path, capsys):
    path = tmp_path / "mp.litmus"
    path.write_text(
        "litmus MP-file\n"
        "thread P0:\n    W x 1\n    sync st-st\n    W y 1\n"
        "thread P1:\n    R y r0\n    sync ld-ld\n    R x r1\n"
        "forbidden: r0=1 r1=0\n"
    )
    assert main(["litmus", "--file", str(path), "--runs", "15"]) == 0
    assert "MP-file: ok" in capsys.readouterr().out


def test_litmus_requires_name_or_file(capsys):
    assert main(["litmus"]) == 2
