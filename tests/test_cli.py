import json
from dataclasses import replace

import pytest

from rackrepair.cli import (
    CSV_HEADER,
    ExperimentConfig,
    emit_report,
    main,
    params_from_config,
    run_sweep,
    summarize,
)


def c1_config(**kw):
    base = dict(mode="C1", q=3, u=2, nbar=3, rbar=2, trials=3, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_params_from_config_dispatch():
    p = params_from_config(c1_config())
    assert p.mode == "C1" and p.l == 8
    p = params_from_config(ExperimentConfig(mode="C2", q=3, u=2, nbar=6, primes=(2, 2)))
    assert p.mode == "C2" and p.l == 64
    p = params_from_config(ExperimentConfig(mode="Cor7", q=3, u=2, nbar=6, rbar=5))
    assert p.rbar_eff == 4
    p = params_from_config(ExperimentConfig(mode="homogeneous", q=3, u=1, nbar=3, rbar=2))
    assert p.u == 1
    with pytest.raises(ValueError):
        params_from_config(c1_config(rbar=None))
    with pytest.raises(ValueError):
        params_from_config(ExperimentConfig(mode="C2", q=3, u=2, nbar=6))
    with pytest.raises(ValueError):
        params_from_config(ExperimentConfig(mode="homogeneous", q=3, u=2, nbar=3, rbar=2))


def test_run_sweep_c1():
    rows = run_sweep(c1_config())
    assert len(rows) == 6
    assert all(r.repair_ok == "true" and r.rank_ok for r in rows)
    assert all(r.bounds.b_min <= r.b < r.bounds.upper for r in rows)
    # rows ordered by (rack, node)
    assert [r.node for r in rows] == list(range(1, 7))
    assert [r.rack for r in rows] == [1, 1, 2, 2, 3, 3]


def test_run_sweep_trials_zero():
    rows = run_sweep(c1_config(trials=0))
    assert all(r.repair_ok == "skipped" for r in rows)
    assert all(r.rank_ok for r in rows)
    assert all(r.b >= r.bounds.b_min for r in rows)  # rank-based b still reported


def test_sweep_deterministic():
    rows_a = run_sweep(c1_config(seed=42))
    rows_b = run_sweep(c1_config(seed=42))
    assert rows_a == rows_b
    assert emit_report(rows_a, "csv") == emit_report(rows_b, "csv")


def test_emit_report_csv_shape():
    rows = run_sweep(c1_config(trials=1))
    text = emit_report(rows, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == (
        "mode,q,u,nbar,rbar,rbar_eff,l,rack,node,b,b_min,upper,case,ratio,"
        "repair_ok,rank_ok"
    )
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 6
    first = data[0].split(",")
    assert first[:9] == ["C1", "3", "2", "3", "2", "2", "8", "1", "1"]
    assert first[14] == "true"
    summary = [l for l in lines if l.startswith("# summary")]
    assert len(summary) == 1
    assert "bound_violations=0" in summary[0]


def test_emit_report_single_row():
    rows = run_sweep(c1_config(trials=1))[:1]
    text = emit_report(rows, "csv")
    data = [l for l in text.strip().split("\n") if not l.startswith("#")]
    assert len(data) == 2  # header plus one data line
    assert data[0] == CSV_HEADER


def test_emit_report_json():
    rows = run_sweep(c1_config(trials=1))
    doc = json.loads(emit_report(rows, "json"))
    assert len(doc["rows"]) == 6
    assert doc["summary"]["bound_violations"] == 0
    assert doc["rows"][0]["mode"] == "C1"
    assert doc["rows"][0]["ratio"].count(".") == 1


def test_emit_report_empty_errors():
    with pytest.raises(ValueError):
        emit_report([], "csv")


def test_emit_report_unknown_format():
    rows = run_sweep(c1_config(trials=1))
    with pytest.raises(ValueError):
        emit_report(rows, "yaml")


def test_summarize_counts():
    rows = run_sweep(c1_config(trials=2))
    s = summarize(rows)
    assert s["bound_violations"] == 0 and s["audit_failures"] == 0
    assert s["max_ratio"] == "1.500000"
    assert s["min_ratio"] == "1.375000"


def test_summarize_counts_rows_with_broken_bounds():
    # every C1 row has b_min = 8 and upper = 16; a row counts once whatever
    # it breaks, and an unenforced upper bound counts for nothing
    rows = run_sweep(c1_config(trials=1))
    edited = [replace(row, b=b) for row, b in zip(rows, (7, 8, 15, 16, 16, 7))]
    edited[4] = replace(edited[4], bounds=replace(edited[4].bounds, enforced=False))
    assert summarize(edited)["bound_violations"] == 3
    assert sum(1 for r in edited if r.bounds.violations(r.b)) == 3


def test_ratio_rendering_six_places():
    rows = run_sweep(c1_config(trials=1))
    text = emit_report(rows, "csv")
    for line in text.strip().split("\n")[1:]:
        if line.startswith("#"):
            continue
        ratio = line.split(",")[13]
        assert len(ratio.split(".")[1]) == 6


def test_main_sweep_exit_code_and_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "sweep", "--mode", "C1", "--nbar", "3", "--rbar", "2",
        "--trials", "1", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith(CSV_HEADER)


def test_main_byte_identical_reruns(tmp_path):
    args = ["sweep", "--mode", "C1", "--nbar", "3", "--rbar", "2",
            "--trials", "2", "--seed", "9"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_main_invalid_parameters_exit_2(capsys):
    code = main(["sweep", "--mode", "C1", "--nbar", "3", "--rbar", "3"])
    assert code == 2
    assert "invalid parameters" in capsys.readouterr().err


INVALID = [
    (["sweep", "--mode", "C2", "--nbar", "6", "--primes", "2,x"], "--primes"),
    (["sweep", "--mode", "C2", "--nbar", "6"], "--primes"),
    (["sweep", "--q", "4", "--rbar", "2"], "q = 4"),
    (["repair", "--rbar", "2", "--node", "99"], "node 99"),
    (["nbar-sweep", "--nbar", "4"], "--rbar"),
    (["sweep", "--rbar", "2", "--trials", "-1"], "--trials"),
    (["repair", "--rbar", "2", "--trials", "-1"], "--trials"),
    (["sweep", "--mode", "homogeneous", "--u", "1", "--rbar", "2", "--out", "missing_dir/x"],
     "--out"),
    (["nbar-sweep", "--rbar", "2", "--nbar", "2"], "--nbar"),
    (["nbar-sweep", "--rbar", "3", "--nbar", "3"], "--nbar"),
    (["nbar-sweep", "--mode", "C2", "--primes", "2,2", "--rbar", "2", "--nbar", "3",
      "--trials", "0"], "--mode"),
    (["build", "--mode", "homogeneous", "--u", "1", "--q", "2147483659", "--nbar", "3",
      "--rbar", "2"], "q = "),
    # a flag the mode would ignore is rejected, not dropped
    (["build", "--mode", "C2", "--primes", "2,2", "--nbar", "6", "--rbar", "5"], "--rbar"),
    (["sweep", "--mode", "C1", "--rbar", "2", "--nbar", "3", "--primes", "2,2"], "--primes"),
    # --format belongs to sweep and nbar-sweep
    (["build", "--rbar", "2", "--format", "json"], "--format"),
    (["repair", "--mode", "C2", "--nbar", "6", "--primes", "2,2", "--node", "5", "--format", "csv"],
     "--format"),
]


@pytest.mark.parametrize("argv, names", INVALID, ids=[f"argv{i}" for i in range(len(INVALID))])
def test_main_invalid_parameters_no_traceback(argv, names, capsys):
    # each of these raises ValueError inside main, including the --primes
    # parsing, and must be reported as one line with status 2 that names
    # the bad parameter
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid parameters: ") and err.count("\n") == 1
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--rbar", "2", "--trials", "-1"],
    ["sweep", "--rbar", "2", "--out", "missing_dir/x"],
])
def test_main_rejects_before_field_work(argv, monkeypatch):
    def no_build(params):
        raise AssertionError("field construction ran for invalid parameters")

    monkeypatch.setattr("rackrepair.cli.build", no_build)
    assert main(argv) == 2


def test_rank_failure_row(monkeypatch, capsys):
    # a node whose rank check fails is reported with the rank-sum b of its
    # helper racks, counted as an audit failure, and makes sweep exit 1;
    # `repair` at that node exits 1 with one line on stderr and no output
    from rackrepair.constructions import (
        RankCheck,
        build,
        c1_params,
        repair_family,
        verify_rank_condition,
    )
    from rackrepair.repair import RepairSession

    def failing_at_node_3(instance, node):
        check = verify_rank_condition(instance, node)
        if node != 3:
            return check
        return RankCheck(ok=False, rank=check.rank - 1, scheme=repair_family(instance, node))

    monkeypatch.setattr("rackrepair.cli.verify_rank_condition", failing_at_node_3)
    rows = run_sweep(c1_config())
    bad = rows[2]
    assert bad.node == 3 and bad.repair_ok == "false" and not bad.rank_ok
    assert all(r.repair_ok == "true" and r.rank_ok for r in rows if r.node != 3)
    inst = build(c1_params(3, 2, 3, 2))
    assert bad.b == RepairSession(inst, verify_rank_condition(inst, 3).scheme).b
    assert summarize(rows)["audit_failures"] == 1
    assert main(["sweep", "--mode", "C1", "--nbar", "3", "--rbar", "2"]) == 1
    assert "false,false" in capsys.readouterr().out
    assert main(["repair", "--mode", "C1", "--nbar", "3", "--rbar", "2", "--node", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "rank condition failed at node 3:" in err


def test_audit_failure_exit_1(monkeypatch, capsys):
    # a failed audit stops sweep and repair alike: exit 1, no report, and
    # the finding followed by the offending transcript on stderr
    from rackrepair.repair import AuditResult

    monkeypatch.setattr(
        "rackrepair.cli.audit", lambda transcript, report: AuditResult(ok=False, findings=("forced",))
    )
    for command in ("sweep", "repair"):
        assert main([command, "--mode", "C1", "--nbar", "3", "--rbar", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("audit failed for node 1: forced\n")
        assert "transcript: node=1 " in err


def test_main_repair_error_exit_1(monkeypatch, capsys):
    from rackrepair.repair import RepairError

    def failing_sweep(config):
        raise RepairError("payload count disagrees with the rank sum")

    monkeypatch.setattr("rackrepair.cli.run_sweep", failing_sweep)
    code = main(["sweep", "--mode", "C1", "--nbar", "3", "--rbar", "2"])
    assert code == 1
    assert "payload count disagrees with the rank sum" in capsys.readouterr().err


def test_main_build_output(capsys):
    assert main(["build", "--mode", "C1", "--nbar", "3", "--rbar", "2"]) == 0
    out = capsys.readouterr().out
    assert "mode: C1" in out
    assert "alpha: 2" in out
    assert "rack 3: zeta_exp=4" in out
    assert out.count("node") == 6


def test_main_repair_output(capsys):
    assert main(["repair", "--mode", "C1", "--nbar", "3", "--rbar", "2",
                 "--node", "3", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "transcript: node=3 host_rack=2" in out
    assert "payload:" in out
    assert "b=" in out
    # the codeword prints as n rows of l base-q digits
    body = out.split("codeword:\n")[1]
    rows = body.split("\n")[:6]
    assert all(len(r.split(",")) == 8 for r in rows)


def test_describe_codeword():
    from rackrepair.cli import describe_codeword
    from rackrepair.constructions import build, c1_params
    from rackrepair.rs import encode

    inst = build(c1_params(3, 2, 3, 2))
    word = encode([inst.field.one, inst.field.one], inst.code)
    text = describe_codeword(word)
    lines = text.strip().split("\n")
    assert len(lines) == 6
    assert all(len(line.split(",")) == 8 for line in lines)
    assert all(set(line.split(",")) <= {"0", "1", "2"} for line in lines)


def test_main_json_format(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["sweep", "--mode", "C2", "--nbar", "6", "--primes", "2,2",
                 "--trials", "1", "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["bound_violations"] == 0
    assert len(doc["rows"]) == 12


def test_main_nbar_sweep_trend(tmp_path):
    out = tmp_path / "trend.csv"
    assert main(["nbar-sweep", "--rbar", "2", "--nbar", "4", "--trials", "1",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "# trend:" in text
    assert "non-increasing: true" in text
    # rows for nbar = 3 and nbar = 4
    data = [l for l in text.strip().split("\n")[1:] if not l.startswith("#")]
    assert len(data) == 6 + 8


def test_main_nbar_sweep_starts_at_rbar_plus_one(capsys):
    # the range starts at nbar = rbar + 1, so rbar = 3 sweeps from nbar = 4
    assert main(["nbar-sweep", "--rbar", "3", "--nbar", "4", "--trials", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 8
    assert all(l.split(",")[3] == "4" for l in data)
    trend = [l for l in lines if l.startswith("# trend: ")]
    assert len(trend) == 1
    assert trend[0].startswith("# trend: nbar=4 ") and ";" not in trend[0]
