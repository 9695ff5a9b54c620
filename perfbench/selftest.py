"""Self-test of the benchmark on the tiny l = 8 code (C1, q=3, u=2, nbar=3, rbar=2).

    python3 perfbench/selftest.py

Checks that `BENCHMARK.json` names exactly the workloads and metrics that
`run.py` emits, with the same units; runs every workload's code path,
untraced and traced, on the tiny code and checks that every metric is
emitted and nothing fails; then makes the repair return a wrong symbol and
checks that each such repair is counted as a failure.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run as bench

TINY = ("--mode", "C1", "--q", "3", "--u", "2", "--nbar", "3", "--rbar", "2")
# The tiny code's per-node b is 11, 11, 12, 12, 11, 11 over b_min = 8.
TINY_B_TOTAL, TINY_RATIO = 68, 1.5


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def declared() -> dict:
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": {w["name"] for w in doc["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def tiny(workload: bench.Workload) -> bench.Workload:
    return dataclasses.replace(workload, instance=TINY, min_stripes=24)


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = declared()
    check(spec["workloads"] == set(bench.WORKLOADS), "BENCHMARK.json lists the workloads of run.py")
    check(spec["end_to_end"] == bench.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(spec["per_layer"] == bench.PER_LAYER, "BENCHMARK.json per_layer matches run.py")

    lib = bench.load_rackrepair()
    for name, workload in bench.WORKLOADS.items():
        wl = tiny(workload)
        result, b, _ = bench.run(lib, wl, seed=7, seconds=0.2, trace=False)
        check(result["correct"] and result["failed"] == 0, f"{name} path: untraced run is correct")
        check(not b.speed._restore, f"{name} path: host speed probes removed")
        check(units(result) == spec["end_to_end"], f"{name} path: every end-to-end metric, with its unit")
        values = {k: m["value"] for k, m in result["metrics"].items()}
        check(values["b_total"] == TINY_B_TOTAL and values["bw_ratio_max"] == TINY_RATIO,
              f"{name} path: b_total = {TINY_B_TOTAL}, bw_ratio_max = {TINY_RATIO}")
        check(all(v > 0 for v in values.values()), f"{name} path: no end-to-end metric is 0")

        result, _, traced = bench.run(lib, wl, seed=7, seconds=0.2, trace=True)
        check(result["correct"] and result["failed"] == 0, f"{name} path: traced run is correct")
        check(units(result) == spec["per_layer"], f"{name} path: every per-layer metric, with its unit")
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{name} path: every layer runs and is measured")
        check(all(not t._restore for _, t in traced), f"{name} path: tracing wrappers removed")

    # A repair that returns a wrong symbol must be counted, not skipped.
    session_cls = lib.repair.RepairSession
    honest_run = session_cls.run

    def wrong_run(self, codeword):
        transcript, report = honest_run(self, codeword)
        field = transcript.recovered.field
        return dataclasses.replace(transcript, recovered=transcript.recovered + field.one), report

    session_cls.run = wrong_run
    try:
        result, b, _ = bench.run(lib, tiny(bench.WORKLOADS["repair-c2"]), seed=7, seconds=0.2, trace=False)
    finally:
        session_cls.run = honest_run
    ok_frac = result["metrics"]["ok_frac"]["value"]
    check(not result["correct"], "wrong recovered symbol: run is marked incorrect")
    check(b.rec.failed["repair"] == b.rec.attempted["repair"] > 0, "wrong recovered symbol: every repair counted failed")
    check(b.rec.failed["sweep"] == b.rec.attempted["sweep"] > 0, "wrong recovered symbol: every sweep counted failed")
    check(ok_frac == 1 - result["failed"] / result["attempted"] and ok_frac < 1,
          f"wrong recovered symbol: ok_frac = {ok_frac:.4f} = 1 - failed_frac")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
