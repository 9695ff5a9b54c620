import json
import subprocess
import sys

import pytest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import attempted_medians, git_sha, main, src_sha256, summarize  # noqa: E402


def _runs(values):
    return [{"correct": True, "attempted": 1000, "failed": 0,
             "metrics": {"repair_p50_ms": v, "ok_frac": 1.0}} for v in values]


def _claim(base, change, better):
    return summarize({"base": base, "change": change}, better)["repair_p50_ms"]["claim_rule_holds"]


def test_summarize_wins_and_claim_rule():
    better = {"repair_p50_ms": "lower", "ok_frac": "higher", "sweep_s": "lower"}
    base = [0.40, 0.41, 0.42, 0.41, 0.40, 0.43, 0.41, 0.42, 0.40, 0.41]
    change = [0.11, 0.12, 0.11, 0.10, 0.11, 0.11, 0.45, 0.12, 0.11, 0.11]
    out = summarize({"base": _runs(base), "change": _runs(change)}, better)
    assert "sweep_s" not in out  # no run reported it
    r = out["repair_p50_ms"]
    assert (r["change_wins"], r["change_losses"]) == (9, 1)
    assert r["base"]["median"] == 0.41 and r["change"]["median"] == 0.11
    assert r["claim_rule_holds"]
    ok = out["ok_frac"]
    assert (ok["change_wins"], ok["change_losses"]) == (0, 0)  # ties count for neither
    assert not ok["claim_rule_holds"]

    # a gain does not count when the change fails a larger share of the
    # operations it attempts or a run is not correct
    failing = _runs(change)
    failing[3]["failed"] = 1
    assert not _claim(_runs(base), failing, better)
    base_failing = _runs(base)
    base_failing[0]["failed"] = 1
    assert _claim(base_failing, failing, better)
    # the same failure count over a tenth of the attempts is a larger share
    for run in failing:
        run["attempted"] = 100
    assert not _claim(base_failing, failing, better)
    for run in base_failing:
        run["attempted"] = 100
    assert _claim(base_failing, failing, better)
    wrong = _runs(change)
    wrong[5]["correct"] = False
    assert not _claim(_runs(base), wrong, better)

    # seven wins of ten are not enough, however large the gap
    change[0] = change[1] = 0.5
    assert not _claim(_runs(base), _runs(change), better)


def test_within_bound():
    # within_bound: the change's median is worse than the base's by at most
    # bound times the base's median, in the metric's own direction
    better = {"repair_p50_ms": "lower", "ok_frac": "higher", "peak_rss_mb": "lower"}
    bounds = {"repair_p50_ms": 0.25, "ok_frac": 0.01, "peak_rss_mb": 0.05}

    def runs(p50, ok, rss):
        return [{"correct": True, "attempted": 1000, "failed": 0,
                 "metrics": {"repair_p50_ms": p50, "ok_frac": ok, "peak_rss_mb": rss}}] * 3

    out = summarize({"base": runs(0.40, 1.0, 40.0), "change": runs(0.49, 0.985, 42.1)},
                    better, bounds)
    assert out["repair_p50_ms"]["within_bound"]  # 22.5% slower, bound 25%
    assert not out["ok_frac"]["within_bound"]  # 1.5% lower, bound 1%
    assert not out["peak_rss_mb"]["within_bound"]  # 5.25% more, bound 5%
    gains = summarize({"base": runs(0.40, 0.9, 40.0), "change": runs(0.10, 1.0, 30.0)},
                      better, bounds)
    assert all(m["within_bound"] for m in gains.values())
    assert "within_bound" not in summarize({"base": runs(0.4, 1.0, 40.0),
                                            "change": runs(0.4, 1.0, 40.0)}, better)["ok_frac"]


def test_unresolved():
    # unresolved: the base's own IQR is wider than bound times its median,
    # unless every change run beats every base run
    better, bounds = {"setup_s": "lower"}, {"setup_s": 0.25}

    def runs(values):
        return [{"correct": True, "attempted": 1000, "failed": 0, "metrics": {"setup_s": v}}
                for v in values]

    def summary(base, change):
        return summarize({"base": runs(base), "change": runs(change)}, better, bounds)["setup_s"]

    wide = [0.6, 1.0, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2]  # IQR 0.5 > 0.25
    narrow = [0.98, 1.0, 1.02, 0.99, 1.01, 1.0, 0.97, 1.03]  # IQR 0.03
    assert summary(wide, narrow)["unresolved"]
    assert summary(wide, narrow)["within_bound"]
    assert not summary(narrow, [1.1] * 8)["unresolved"]
    assert summary(narrow, [1.1] * 8)["within_bound"]
    dominated = summary(wide, [0.5, 0.55, 0.45, 0.5, 0.52, 0.48, 0.5, 0.5])
    assert not dominated["unresolved"] and dominated["within_bound"]


def test_attempted_medians():
    # each side's median operations per run, to read a metric such as
    # peak_rss_mb that grows with the work a run completes
    runs = {"base": [{"attempted": a} for a in (29000, 31000, 30000, 28000)],
            "change": [{"attempted": a} for a in (55000, 54000, 56000)]}
    assert attempted_medians(runs) == {"base": 29500, "change": 55000}


FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == 2:
    sys.stderr.write("setting up\\nboom: the run broke\\n")
    sys.exit(3)
print(json.dumps({"env": {}}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.1 * seed}}}))
"""


def test_failed_run_keeps_finished_pairs(tmp_path, capsys):
    # a checkout whose run fails at seed 2 with exit code 3: the file keeps
    # the pair of seed 1 and names the failed run, and the tool exits 1
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    out = tmp_path / "BENCH.json"
    assert main(["--base", str(checkout), "--change", str(checkout), "--workload", "w",
                 "--seeds", "1,2,3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "change run failed: workload w, seed 2, exit code 3" in err
    assert "boom: the run broke" in err
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert [[r["seed"] for r in entry["runs"][side]] for side in ("base", "change")] == [[1], [1]]
    assert entry["summary"]["setup_s"]["base"]["median"] == 0.1
    assert entry["failed_run"] == {"side": "change", "pair": 1, "seed": 2, "returncode": 3,
                                   "stderr_tail": "setting up\nboom: the run broke"}



MALFORMED_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == 2:
    print({stdout})
    sys.exit(0)
print(json.dumps({{"env": {{}}}}))
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {{"setup_s": {{"value": 0.1 * seed}}}}}}))
"""


def _stub_checkout(path, script):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(script)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    return path


@pytest.mark.parametrize("stdout,tail", [('"{}\\nTraceback: not JSON"', "{}\nTraceback: not JSON"),
                                         ('end=""', "")], ids=["last-line", "empty"])
def test_malformed_output_keeps_finished_pairs(tmp_path, capsys, stdout, tail):
    # the change's run exits 0 at seed 2 with a last stdout line that is not
    # JSON, or with no stdout at all: like a non-zero exit, the file keeps
    # the pair of seed 1 and names the run with the tail of its stdout
    base = _stub_checkout(tmp_path / "base", MALFORMED_RUN.format(stdout='""'))
    change = _stub_checkout(tmp_path / "change", MALFORMED_RUN.format(stdout=stdout))
    out = tmp_path / "BENCH.json"
    assert main(["--base", str(base), "--change", str(change), "--workload", "w",
                 "--seeds", "1,2,3", "--out", str(out)]) == 1
    assert ("change run failed: workload w, seed 2, exit code 0, malformed output; "
            f"its stdout ends:\n{tail}") in capsys.readouterr().err
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert [[r["seed"] for r in entry["runs"][side]] for side in ("base", "change")] == [[1], [1]]
    assert entry["summary"]["setup_s"]["change"]["median"] == 0.1
    assert entry["failed_run"] == {"side": "change", "pair": 1, "seed": 2, "returncode": 0,
                                   "stdout_tail": tail}


def test_timed_out_run_keeps_finished_pairs(tmp_path, capsys, monkeypatch):
    # each run is bounded at ten times run_seconds; the change's run at seed
    # 2 outlives it, is killed and is recorded like any failed run: the file
    # keeps the pair of seed 1 and names the run with the tail of its stderr
    base = _stub_checkout(tmp_path / "base", "")
    change = _stub_checkout(tmp_path / "change", "")
    timeouts = []

    def fake_run(cmd, cwd, timeout=None, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 1, "", "")
        timeouts.append(timeout)
        seed = int(cmd[cmd.index("--seed") + 1])
        if seed == 2 and Path(cwd) == change:
            raise subprocess.TimeoutExpired(cmd, timeout, output=b"", stderr=b"setting up\nstuck")
        result = {"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.1 * seed}}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps({"env": {}}) + "\n"
                                           + json.dumps(result) + "\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert main(["--base", str(base), "--change", str(change), "--workload", "w",
                 "--seeds", "1,2,3", "--out", str(out)]) == 1
    assert timeouts == [10, 10, 10]
    assert ("change run failed: workload w, seed 2, timed out after 10 s; "
            "its stderr ends:\nsetting up\nstuck") in capsys.readouterr().err
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert [[r["seed"] for r in entry["runs"][side]] for side in ("base", "change")] == [[1], [1]]
    assert entry["failed_run"] == {"side": "change", "pair": 1, "seed": 2, "returncode": None,
                                   "stderr_tail": "setting up\nstuck"}


def test_src_sha256_names_the_source(tmp_path):
    # two exported copies (no git, so git_sha is "unknown") are told apart
    # by the SHA-256 of their src/ trees; equal sources read the same, and
    # bytecode caches do not count
    base = _stub_checkout(tmp_path / "base", MALFORMED_RUN.format(stdout='""'))
    change = _stub_checkout(tmp_path / "change", MALFORMED_RUN.format(stdout='""'))
    for side, body in ((base, "x = 1\n"), (change, "x = 2\n")):
        (side / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (side / "src" / "pkg" / "mod.py").write_text(body)
    (change / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"cached")
    out = tmp_path / "BENCH.json"
    assert main(["--base", str(base), "--change", str(change), "--workload", "w",
                 "--seeds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["git_sha"] == {"base": "unknown", "change": "unknown"}
    shas = doc["src_sha256"]
    assert shas == {"base": src_sha256(base), "change": src_sha256(change)}
    assert len(shas["base"]) == 64 and shas["base"] != shas["change"]
    (change / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    assert src_sha256(change) == shas["base"]
    (change / "src" / "pkg" / "mod.py").rename(change / "src" / "pkg" / "other.py")
    assert src_sha256(change) != shas["base"]  # a path counts, not only bytes


def test_git_sha_marks_an_uncommitted_src(tmp_path):
    # a checkout whose src/ differs from HEAD is named <sha>+dirty, so an
    # uncommitted change is not recorded under its parent's sha; a change
    # outside src/ does not count
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args], cwd=tmp_path,
                              capture_output=True, text=True, check=True).stdout.strip()

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "notes.md").write_text("a\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    sha = git("rev-parse", "HEAD")
    assert len(sha) == 40 and git_sha(tmp_path) == sha
    (tmp_path / "notes.md").write_text("b\n")
    assert git_sha(tmp_path) == sha
    (tmp_path / "src" / "mod.py").write_text("x = 2\n")
    assert git_sha(tmp_path) == sha + "+dirty"
