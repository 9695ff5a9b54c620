import io
import json
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
import dataclasses
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackrepair import cli, numbertheory
from rackrepair.cli import (
    CSV_HEADER,
    ExperimentConfig,
    emit_report,
    main,
    params_from_config,
    rows_for_instance,
    run_sweep,
    summarize,
)
from rackrepair.constructions import (
    build,
    c1_params,
    c2_params,
    cor7_params,
    homogeneous_params,
    verify_rank_condition,
)
from rackrepair.gf import GF, FieldElement


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
    assert all(r.repair_ok == "true" and r.check.ok for r in rows)
    assert all(r.check.bounds.b_min <= r.check.b < r.check.bounds.upper for r in rows)
    # rows ordered by (rack, node)
    assert [r.check.scheme.node for r in rows] == list(range(1, 7))
    assert [r.check.scheme.rack for r in rows] == [1, 1, 2, 2, 3, 3]


def test_run_sweep_trials_zero():
    rows = run_sweep(c1_config(trials=0))
    assert all(r.repair_ok == "skipped" for r in rows)
    assert all(r.check.ok for r in rows)
    assert all(r.check.b >= r.check.bounds.b_min for r in rows)  # rank-based b still reported


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
    edited = [replace(row, check=replace(row.check, b=b))
              for row, b in zip(rows, (7, 8, 15, 16, 16, 7))]
    unenforced = replace(edited[4].check.bounds, enforced=False)
    edited[4] = replace(edited[4], check=replace(edited[4].check, bounds=unenforced))
    assert summarize(edited)["bound_violations"] == 3
    assert sum(1 for r in edited if r.check.bounds.violations(r.check.b)) == 3


def _leaves(obj):
    """Every non-container value reachable from obj through dataclass
    fields, tuples and lists."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _leaves(x)
    else:
        yield obj


@pytest.mark.parametrize("params", [
    c1_params(3, 2, 3, 2),
    c2_params(3, 2, 6, (2, 2)),
    c2_params(3, 2, 5, (2, 2)),
    cor7_params(3, 2, 6, 5),
    homogeneous_params(3, 3, 2),
    c2_params(13, 3, 6, (2, 2)),
], ids=["C1", "C2", "C2-remainder", "Cor7", "homogeneous", "C2-q13"])
def test_rows_hold_their_nodes_check(params):
    # every row holds its node's rank check without the plan (no basis
    # element and no array anywhere in the row), and its CSV line shows
    # that check's b, bounds, case and ratio
    inst = build(params)
    rows = rows_for_instance(inst, 1, random.Random(7))
    lines = emit_report(rows, "csv").splitlines()[1:params.n + 1]
    assert len(rows) == params.n
    for node, row, line in zip(range(1, params.n + 1), rows, lines):
        check = verify_rank_condition(inst, node)
        assert row.check == check and row.check.per_rack == check.per_rack
        plan = {type(x) for x in _leaves(check)} & {FieldElement, np.ndarray}
        assert plan == {FieldElement, np.ndarray}  # the full check holds both
        assert not any(isinstance(x, (FieldElement, np.ndarray)) for x in _leaves(row))
        values = dict(zip(CSV_HEADER.split(","), line.split(","), strict=True))
        assert (values["rack"], values["node"]) == (str(check.scheme.rack), str(node))
        assert int(values["b"]) == check.b
        assert Fraction(values["b_min"]) == check.bounds.b_min
        assert values["upper"] == ("" if check.bounds.upper is None else str(check.bounds.upper))
        assert values["case"] == check.bounds.case
        assert values["ratio"] == cli._ratio_str(check.ratio)


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
    (["build", "--mode", "C1", "--rbar", "2", "--out", "."], "--out"),
    # field sizes are bounded before anything is allocated: l = 2^24, and a
    # q whose counting-order search would tabulate 10^9 residues
    (["build", "--rbar", "2", "--nbar", "24"], "l = 16777216"),
    (["build", "--q", "1000000007", "--u", "2", "--nbar", "3", "--rbar", "2"], "q = 1000000007"),
    # an l too long to print is refused by its size, before the radix system
    (["build", "--rbar", "2", "--nbar", "16000"], "l >= 2^16000"),
    # rack 7's digit window (radices 2, 2) is not one period of (2, 3)
    (["build", "--mode", "C2", "--primes", "2,3", "--nbar", "7", "--u", "1"], "digit window"),
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


@pytest.mark.parametrize("argv, shown", [
    (["build", "--rbar", "3", "--nbar", "10000000"], "l >= 2^10000000"),
    (["build", "--rbar", "3", "--nbar", "100000000"], "l >= 2^100000000"),
    (["build", "--rbar", "3", "--nbar", "10000000000"], "l >= 2^10000000000"),
    (["build", "--q", str(2**4423 - 1), "--u", "2", "--rbar", "2", "--nbar", "3"], "q >= 2^4422"),
    (["build", "--mode", "C2", "--primes", f"2,{2**4423 - 1}", "--nbar", "3"],
     "need nbar - rbar >= 1"),
    (["build", "--mode", "Cor7", "--rbar", str(2**4423 - 1), "--nbar", "3"],
     "need nbar - rbar >= 1"),
], ids=["nbar1e7", "nbar1e8", "nbar1e10", "q-M4423", "C2-prime-M4423", "Cor7-rbar-M4423"])
def test_oversized_fields_are_refused_before_any_work(argv, shown, capsys):
    # l = 3^nbar is refused by its floor 2^nbar without being formed, the
    # prime q = 2^4423 - 1 by its size before Miller-Rabin runs, and so are
    # a listed prime and a Cor7 rbar of that size, by nbar - rbar
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters: ") and err.count("\n") == 1
    assert shown in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--rbar", "2", "--trials", "-1"],
    ["sweep", "--rbar", "2", "--out", "missing_dir/x"],
    ["sweep", "--rbar", "2", "--out", "."],
    ["sweep", "--mode", "C2", "--primes", "2,3", "--nbar", "7", "--u", "1"],
    # l = 2^13 is beyond the field limits: the whole range is refused up front
    ["nbar-sweep", "--rbar", "2", "--nbar", "13", "--trials", "0"],
])
def test_main_rejects_before_field_work(argv, monkeypatch):
    def no_build(params):
        raise AssertionError("field construction ran for invalid parameters")

    monkeypatch.setattr("rackrepair.cli.build", no_build)
    assert main(argv) == 2


def test_main_factoring_budget_exit_2(monkeypatch, capsys):
    # a field order that rho cannot split within its step budget is refused
    # with status 2 and one line naming the cofactor, never a hang: here
    # Phi_32(13), the piece of 13^64 - 1 that needs 254 steps
    monkeypatch.setattr(numbertheory, "_RHO_BUDGET", 40)
    GF.cache_clear()
    code = main(["build", "--mode", "C2", "--q", "13", "--u", "3", "--nbar", "6",
                 "--primes", "2,2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("invalid parameters: Pollard rho found no factor of "
                   f"{441281 * 283763713} within its budget of 40 steps\n")


def test_main_modulus_search_budget_exit_2(capsys):
    # l = 1296 is within the field limits, but the modulus search cannot
    # certify an irreducible of that degree within its budget: status 2 and
    # one line naming l, before any candidate is tried
    code = main(["build", "--mode", "Cor7", "--q", "3", "--u", "2", "--rbar", "7", "--nbar", "8"])
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid parameters: no irreducible polynomial of degree l = 1296 over GF(3) "
        "within the search budget of 4294967296 coefficient products\n")


def test_main_report_write_error_exit_2(tmp_path, monkeypatch, capsys):
    # an OSError while the report is written is one line, not a traceback
    def unwritable(path, mode="r"):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", unwritable, raising=False)
    out = tmp_path / "report.csv"
    assert main(["build", "--rbar", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters: ") and err.count("\n") == 1
    assert "--out" in err and "Permission denied" in err
    assert not out.exists()


# flags that may override a valid draw; each makes it invalid or keeps l <= 32
OVERRIDES = [("--rbar", "1"), ("--rbar", "3"), ("--rbar", "5"), ("--rbar", "7"),
             ("--primes", "2,2"), ("--primes", "2,3"), ("--primes", "2"), ("--primes", "4,2"),
             ("--primes", "2,x"), ("--primes", ""), ("--q", "2"), ("--q", "4"), ("--u", "3"),
             ("--nbar", "1"), ("--trials", "-1"), ("--format", "json"), ("--node", "0"),
             ("--node", "99")]


@st.composite
def cli_argvs(draw):
    """argv lists over every sub-command and mode: a valid draw for the
    mode, then up to two `OVERRIDES`.  Any field they name has l <= 32
    (nbar <= 5, and nbar <= 3 where rbar = 3).  The --out kind is drawn
    apart, since its path is made per example."""
    command = draw(st.sampled_from(["build", "repair", "sweep", "nbar-sweep"]))
    mode = draw(st.sampled_from(["C1", "C2", "Cor7", "homogeneous"]))
    q = draw(st.sampled_from([3, 2, 5, 7]))
    divisors = [d for d in (1, 2, 3) if (q - 1) % d == 0]
    u = 1 if mode == "homogeneous" else draw(st.sampled_from(divisors))
    flags = {"--mode": mode, "--q": str(q), "--u": str(u), "--nbar": str(draw(st.integers(3, 5))),
             "--trials": str(draw(st.sampled_from([1, 0])))}
    flags |= {"--primes": "2,2"} if mode == "C2" else {"--rbar": "5" if mode == "Cor7" else "2"}
    if command == "repair":
        flags["--node"] = str(draw(st.sampled_from([1, 3, 99])))
    elif command != "build":
        flags["--format"] = draw(st.sampled_from(["csv", "json"]))
    flags |= dict(draw(st.lists(st.sampled_from(OVERRIDES), max_size=2)))
    if flags.get("--rbar") == "3":
        flags["--nbar"] = str(min(int(flags["--nbar"]), 3))
    argv = [command] + [x for flag in flags.items() for x in flag]
    return argv, draw(st.sampled_from(["none", "new file", "directory", "missing directory"]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(drawn=cli_argvs())
def test_main_exit_status_property(drawn):
    # every drawn argv exits 0, 1 or 2 (argparse's SystemExit(2) included)
    # with no traceback, and a 2 from main comes with exactly one
    # `invalid parameters:` line
    argv, out_kind = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = {"none": None, "new file": Path(tmp) / "report.txt", "directory": Path(tmp),
               "missing directory": Path(tmp) / "missing" / "report.txt"}[out_kind]
        if out is not None:
            argv = argv + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                assert exc.code == 2
                code = None
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code is None:
        assert "error:" in err
        return
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("invalid parameters: ") and err.count("\n") == 1


def test_rank_failure_row(monkeypatch, capsys):
    # a node whose rank check fails is reported with the rank-sum b of its
    # helper racks, counted as an audit failure, and makes sweep exit 1;
    # `repair` at that node exits 1 with one line on stderr and no output
    from family_oracle import FamilyEvaluator

    from rackrepair.constructions import repair_family
    from rackrepair.gf import rank_over_base

    def failing_at_node_3(instance, node):
        check = verify_rank_condition(instance, node)
        if node != 3:
            return check
        return replace(check, ok=False, rank=check.rank - 1)

    monkeypatch.setattr("rackrepair.cli.verify_rank_condition", failing_at_node_3)
    rows = run_sweep(c1_config())
    bad = rows[2]
    assert bad.check.scheme.node == 3 and bad.repair_ok == "false" and not bad.check.ok
    assert all(r.repair_ok == "true" and r.check.ok for r in rows if r.check.scheme.node != 3)
    inst = build(c1_params(3, 2, 3, 2))
    family = FamilyEvaluator(inst, repair_family(inst, 3))
    assert bad.check.b == sum(rank_over_base(family.at(e)).rank for e in (1, 3))
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
