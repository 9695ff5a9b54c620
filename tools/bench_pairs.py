"""Paired benchmark runs of two checkouts, recorded as one JSON file.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload repair-c2 --seeds 1,2,3,4,5,6,7,8,9,10 --out BENCH.json

There is one pair per seed.  Each pair runs `perfbench/run.py --trace 0` once
in each checkout, one run at a time, with the same workload, seed and the
run length `run_seconds` of the base checkout's BENCHMARK.json; which side
runs first alternates from pair to pair.  The file records every run's
end-to-end metrics, each side's median and quartiles per metric, how many
pairs the change won per metric (ties count for neither side), and whether
the claim rule holds: the change fails no larger a share of the operations
it attempts than the base (failed over attempted, summed over each side's
runs) and every change run is correct, it wins at least nine tenths of the pairs, and
the medians differ by more than the base's interquartile range.  It also
records whether each metric is within its bound: the change's median is
worse than the base's by no more than `bound` times the base's median; and
whether it is unresolved: the base's own interquartile range is wider than
that bound, so a shift within it cannot be told from noise, and the change
does not settle it by beating every base run with every one of its own.
Directions ("better") and bounds also come from the base's BENCHMARK.json.
Each workload also records each side's median number of operations
attempted per run, so a metric that grows with the work a run completes,
such as `peak_rss_mb`, can be read against it.
`--workload` may be given more than once.  Next to each side's `git_sha`
(`unknown` outside a git checkout, as in an exported copy, and
`<sha>+dirty` when `git status --porcelain -- src` lists a change, so an
uncommitted change is not read as its parent), the file records
`src_sha256`, a SHA-256 of the side's `src/` tree, so the source each side
ran is named either way.

A run that exits non-zero, exits 0 with a first or last stdout line that
is not the expected JSON, or is still running after ten times `run_seconds`
(it is then killed) stops the whole comparison: the file is written with the
pairs finished so far and the failed run (side, seed, exit code, null for a
killed run, and the tail of its stderr, or of its stdout when the output is
malformed), the same is printed, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero, printed malformed output or timed out;
    carries its exit code (None when it was killed), the tail of the stream
    that shows why ("stderr" or "stdout") and the reason."""

    def __init__(self, returncode: int | None, stream: str, tail: str, reason: str):
        super().__init__(reason)
        self.returncode, self.stream, self.tail = returncode, stream, tail


def _tail(text: str) -> str:
    return "\n".join(text.splitlines()[-20:])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    timeout = 10 * seconds
    try:
        got = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # its streams arrive undecoded
        stderr = (exc.stderr or b"").decode(errors="replace")
        raise RunFailed(None, "stderr", _tail(stderr), f"timed out after {timeout} s") from None
    if got.returncode != 0:
        raise RunFailed(got.returncode, "stderr", _tail(got.stderr), f"exit code {got.returncode}")
    lines = got.stdout.splitlines()
    try:
        head, result = json.loads(lines[0]), json.loads(lines[-1])
        return {"seed": seed, "env": head["env"], "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
    except (ValueError, IndexError, KeyError, TypeError):  # not the JSON lines run.py prints
        raise RunFailed(got.returncode, "stdout", _tail(got.stdout),
                        f"exit code {got.returncode}, malformed output") from None


def git_sha(checkout: Path) -> str:
    got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if got.returncode != 0:
        return "unknown"
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                            capture_output=True, text=True)
    return got.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def src_sha256(checkout: Path) -> str:
    """SHA-256 over the files of the checkout's `src/` tree, in path order:
    each file's path relative to `src/` and the SHA-256 of its bytes.
    `__pycache__` directories are skipped, so running the code does not
    change it."""
    src, digest = checkout / "src", hashlib.sha256()
    for path in sorted(src.rglob("*")):
        rel = path.relative_to(src)
        if path.is_file() and "__pycache__" not in rel.parts:
            digest.update(rel.as_posix().encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def attempted_medians(runs: dict[str, list[dict]]) -> dict[str, float]:
    """Each side's median number of operations attempted per run."""
    return {side: statistics.median(r["attempted"] for r in rs) for side, rs in runs.items()}


def summarize(runs: dict[str, list[dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    out = {}
    pairs = len(runs["base"])
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
    # failed / attempted per side, compared by cross-multiplying (exact, and
    # a side that attempted nothing failed nothing)
    sound = (failed["change"] * attempted["base"] <= failed["base"] * attempted["change"]
             and all(r["correct"] for r in runs["change"]))
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in rs if name in r["metrics"]]
                  for side, rs in runs.items()}
        if len(values["base"]) != pairs or len(values["change"]) != pairs:
            continue
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(values["base"], values["change"]))
        losses = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
        stats = {}
        for side, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        gap = sign * (stats["base"]["median"] - stats["change"]["median"])
        out[name] = stats | {
            "better": direction, "change_wins": wins, "change_losses": losses,
            "claim_rule_holds": sound and wins >= 0.9 * pairs
            and gap > stats["base"]["q3"] - stats["base"]["q1"],
        }
        if bounds and name in bounds:
            tolerance = bounds[name] * abs(stats["base"]["median"])
            dominates = all(sign * (b - c) > 0 for b in values["base"] for c in values["change"])
            out[name]["within_bound"] = -gap <= tolerance
            out[name]["unresolved"] = (stats["base"]["q3"] - stats["base"]["q1"] > tolerance
                                       and not dominates)
    return out


def record(runs: dict[str, list[dict]], better: dict[str, str],
           bounds: dict[str, float]) -> dict:
    """One workload's entry: its runs and, once a pair has finished, their summary."""
    if not runs["base"]:
        return {"runs": runs}
    return {"runs": runs, "attempted_median": attempted_medians(runs),
            "summary": summarize(runs, better, bounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated benchmark seeds, one per pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    seconds = spec["run_seconds"]

    doc = {"pairs": len(seeds), "seconds": seconds, "seeds": seeds,
           "git_sha": {side: git_sha(path) for side, path in sides.items()},
           "src_sha256": {side: src_sha256(path) for side, path in sides.items()}, "workloads": {}}
    for workload in args.workload:
        runs = {"base": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                try:
                    run = run_once(sides[side], workload, seed, seconds)
                except RunFailed as exc:  # keep the finished pairs, drop this one
                    finished = {s: [r for r in rs if r["pair"] < i] for s, rs in runs.items()}
                    failed = {"side": side, "pair": i, "seed": seed,
                              "returncode": exc.returncode, f"{exc.stream}_tail": exc.tail}
                    doc["workloads"][workload] = record(finished, better, bounds) | {
                        "failed_run": failed}
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
                    print(f"{side} run failed: workload {workload}, seed {seed}, {exc}; "
                          f"its {exc.stream} ends:\n{exc.tail}",
                          file=sys.stderr, flush=True)
                    return 1
                runs[side].append(run | {"pair": i, "first": side == order[0]})
                print(f"{workload} pair {i} {side}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items()), file=sys.stderr, flush=True)
        doc["workloads"][workload] = record(runs, better, bounds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
