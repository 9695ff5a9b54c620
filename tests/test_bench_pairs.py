import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import attempted_medians, summarize  # noqa: E402


def _runs(values):
    return [{"correct": True, "failed": 0, "metrics": {"repair_p50_ms": v, "ok_frac": 1.0}}
            for v in values]


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

    # a gain does not count when the change fails more operations or a run
    # is not correct
    failing = _runs(change)
    failing[3]["failed"] = 1
    assert not _claim(_runs(base), failing, better)
    base_failing = _runs(base)
    base_failing[0]["failed"] = 1
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
        return [{"correct": True, "failed": 0,
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


def test_attempted_medians():
    # each side's median operations per run, to read a metric such as
    # peak_rss_mb that grows with the work a run completes
    runs = {"base": [{"attempted": a} for a in (29000, 31000, 30000, 28000)],
            "change": [{"attempted": a} for a in (55000, 54000, 56000)]}
    assert attempted_medians(runs) == {"base": 29500, "change": 55000}
