import json

import pytest

from qedq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_table1_row(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "mms",
                           "--lambda", "7.29844", "--servers", "10")
    assert code == 0
    assert "0.270303" in out
    assert "0.275403" in out or "0.275400" in out
    assert "0.269366" in out or "0.269370" in out


def test_analyze_erlang_a(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "mmsm",
                           "--lambda", "1", "--servers", "2", "--theta", "1")
    assert code == 0
    assert "0.264241" in out


def test_analyze_bulk(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "bulk",
                           "--lambda", "4", "--servers", "5")
    assert code == 0
    assert "0.615565" in out


def test_analyze_domain_error_exit_code(capsys):
    for argv in (("analyze", "--model", "mms", "--lambda", "5", "--servers", "4"),
                 ("staff", "--lambda", "inf", "--epsilon", "0.3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", "nosuch", "--lambda", "1", "--servers", "2"])
    assert exc.value.code == 2


def test_conflicting_staff_targets(capsys):
    code, _, err = run_cli(capsys, "staff", "--lambda", "10",
                           "--epsilon", "0.2", "--cost-ratio", "1")
    assert code == 2
    assert "usage" in err


def test_numerical_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "bulk",
                           "--lambda", "4.999999", "--servers", "5")
    assert code == 4
    assert "numerical" in err


def test_staff_qed(capsys):
    import qedq
    eps = "%.12f" % qedq.qed_delay_prob(1.0)
    code, out, _ = run_cli(capsys, "staff", "--lambda", "100",
                           "--epsilon", eps, "--rule", "qed")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("qed")][0]
    assert line.split()[1] == "110"


def test_staff_exact(capsys):
    code, out, _ = run_cli(capsys, "staff", "--lambda", "1",
                           "--epsilon", "0.4", "--rule", "exact")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("exact")][0]
    assert line.split()[1] == "2"
    assert "0.333333" in line


def test_staff_uncertain(capsys):
    code, out, _ = run_cli(capsys, "staff", "--lambda", "100", "--sigma", "10",
                           "--epsilon", "0.158655253931")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("uncertain")][0]
    assert line.split()[1] == "115"


def test_staff_cost_all(capsys):
    code, out, _ = run_cli(capsys, "staff", "--lambda", "100",
                           "--cost-ratio", "1", "--rule", "all")
    assert code == 0
    assert any(l.startswith("exact") for l in out.splitlines())
    assert any(l.startswith("refined") for l in out.splitlines())


def test_staff_cost_all_expensive_capacity(capsys):
    code, out, _ = run_cli(capsys, "staff", "--lambda", "100",
                           "--cost-ratio", "2e4", "--rule", "all")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [l.split()[0] for l in rows] == ["exact", "qed", "refined"]
    assert all(l.split()[1] == "101" for l in rows)


def test_table1_reproduction(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert "90.48751" in out   # lam recomputed exactly, 5 decimals
    assert "0.23769" in out    # exact Erlang C at s=100
    assert "0.38197" in out    # s=1 row
    # relative gap column strictly decreasing
    gaps = [float(line.split()[6]) for line in out.splitlines()[1:]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_table1_csv_stable(capsys):
    code1, out1, _ = run_cli(capsys, "table1", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "table1", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--model", "mms", "--lambda", "3.2", "--servers", "4",
            "--seed", "7", "--arrivals", "2e4", "--reps", "4",
            "--metric", "delay_prob", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("metric,point,stderr,lo,hi")


def test_simulate_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "hw", "--beta", "1",
                           "--horizon", "200", "--reps", "4", "--seed", "3",
                           "--format", "json", "--metric", "frac_above_zero")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["seed"] == 3
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
    assert 0.0 < payload["estimates"]["frac_above_zero"]["point"] < 1.0


def test_simulate_mt_profile(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "mt",
                           "--rate", "sinusoid:30,20,24", "--mu", "0.5",
                           "--schedule", "mol", "--epsilon", "0.3",
                           "--reps", "20", "--seed", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "time,delay_prob,arrivals,epsilon"
    assert len(lines) > 20


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "table1", "--format", "csv",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("s,lam,alpha")


def test_analyze_mmsn(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "mmsn",
                           "--lambda", "10", "--servers", "12",
                           "--buffer", "16")
    assert code == 0
    assert "block_prob" in out


def test_simulate_mmsm(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "mmsm",
                           "--lambda", "1", "--servers", "2", "--theta", "1",
                           "--horizon", "300", "--reps", "4", "--seed", "2",
                           "--metric", "abandon_prob", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("abandon_prob")


@pytest.mark.parametrize("argv", [
    ("--model", "mt", "--rate", "constant:10", "--schedule", "psa", "--epsilon", "0.2",
     "--grid-step", "0"),
    ("--model", "bulk", "--lambda", "1", "--servers", "2", "--periods", "1", "--reps", "4"),
    ("--model", "hw", "--beta", "1", "--horizon", "0.001", "--reps", "2"),
    ("--model", "mt", "--rate", "constant:10", "--schedule", "psa", "--epsilon", "0.2",
     "--horizon", "1", "--warmup", "0.9", "--reps", "2"),
])
def test_simulate_empty_setup_is_usage_error(capsys, argv):
    # a zero grid step, or a run with no bulk period, diffusion step or
    # delay-profile bin after warm-up (a quarter period per replication; half
    # an Euler step; the only bin's midpoint 0.5 is inside a 0.9 warm-up), exits 2
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == 2
    assert out == ""
    assert "error" in err

