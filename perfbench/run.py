"""rackrepair benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload repair-c2 --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, taken from
spans that `layertrace.py` records around the package's public functions, and
the spans are written to `perfbench/out/`.  See `perfbench/README.md`.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is first imported.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import layertrace as tracing
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    """One seeded, closed-loop input mix.

    `instance` holds the `rackrepair sweep` options that fix the code.
    Set-up plans `plan_nodes` (every node when None); each stripe is encoded,
    one planned node is repaired (`erase` is "round-robin" or "random"), and
    every `decode_every`-th stripe is also read back by erasure decoding.
    """

    name: str
    instance: tuple[str, ...]
    plan_nodes: tuple[int, ...] | None
    erase: str
    decode_every: int
    rounds: int  # an untraced run is this many rounds of (set-up, stripes, sweep, stripes)
    min_stripes: int  # untraced runs repair at least this many stripes
    trace_stripes: int  # stripes in one traced unit of work


WORKLOADS = {
    w.name: w for w in (
        Workload("repair-c2", ("--mode", "C2", "--q", "3", "--u", "2", "--nbar", "6",
                               "--primes", "2,2"),
                 plan_nodes=None, erase="round-robin", decode_every=8,
                 rounds=12, min_stripes=200, trace_stripes=24),
        Workload("sweep-l128", ("--mode", "C1", "--q", "3", "--u", "2", "--nbar", "7",
                                "--rbar", "2"),
                 plan_nodes=(1, 6), erase="round-robin", decode_every=2,
                 rounds=3, min_stripes=100, trace_stripes=4),
        Workload("mixed-q13", ("--mode", "C2", "--q", "13", "--u", "3", "--nbar", "6",
                               "--primes", "2,2"),
                 plan_nodes=None, erase="random", decode_every=1,
                 rounds=7, min_stripes=140, trace_stripes=18),
    )
}

END_TO_END = {
    "setup_s": "s", "sweep_s": "s",
    "repair_p50_ms": "ms", "encode_p50_ms": "ms", "decode_p50_ms": "ms",
    "b_total": "symbols", "bw_ratio_max": "ratio",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}
# The samples each timing metric is taken from.
SAMPLES_OF = {"setup_s": "setup", "sweep_s": "sweep", "repair_p50_ms": "repair",
              "encode_p50_ms": "encode", "decode_p50_ms": "decode"}

TIMED = sorted(tracing.LIBRARY_SPANS)  # self time of each span
CALLED = ("numbertheory.factorize", "gf.rank_over_base", "rs.encode", "rs.erasure_decode")
COUNTED = ("gf.mul", "gf.inverse")  # counted, not timed
PER_LAYER = (
    {f"{name}.s": "s" for name in TIMED}
    | {f"{name}.calls": "count" for name in CALLED + COUNTED}
    | {"constructions.rank_ok_frac": "ratio", "repair.run.p50_ms": "ms", "repair.run.p90_ms": "ms",
       "repair.payload_symbols": "count", "trace.uncovered_s": "s", "trace.overhead": "ratio"}
)


def load_rackrepair() -> SimpleNamespace:
    """Import the package from this checkout's `src/`, and nowhere else."""
    if not (SRC / "rackrepair" / "__init__.py").is_file():
        raise SystemExit(f"rackrepair sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"rackrepair.{m}")
            for m in ("cli", "constructions", "gf", "repair", "rs")}
    if Path(mods["gf"].__file__).resolve().parent != SRC / "rackrepair":
        raise SystemExit(f"imported rackrepair from {mods['gf'].__file__}, not {SRC}")
    lib = SimpleNamespace(**mods)
    # Keep the cache handles of the unwrapped functions: tracing rebinds the names.
    lib.clear_caches = (mods["gf"].GF.cache_clear, mods["rs"].dual_weights.cache_clear)
    return lib


def instance_params(lib, options: tuple[str, ...]):
    opts = dict(zip(options[::2], options[1::2]))
    return lib.cli.params_from_config(lib.cli.ExperimentConfig(
        mode=opts["--mode"], q=int(opts["--q"]), u=int(opts["--u"]), nbar=int(opts["--nbar"]),
        rbar=int(opts["--rbar"]) if "--rbar" in opts else None,
        primes=tuple(int(p) for p in opts["--primes"].split(",")) if "--primes" in opts else None,
    ))


class Recorder:
    """Attempts, failures and the (start, end) times of the successful
    operations, per operation kind."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        # start, end, start, end, ...: flat arrays keep the benchmark's own
        # memory small, so that peak_rss_mb does not grow with the number of
        # operations a run gets through.
        self.times: dict[str, array] = defaultdict(lambda: array("d"))
        self.findings: list[str] = []

    def count(self, kind: str) -> int:
        return len(self.times[kind]) // 2

    def intervals(self, kind: str):
        times = self.times[kind]
        return zip(times[::2], times[1::2])

    def attempt(self, kind, fn, check):
        """Time fn(); a raise or a non-empty check(result) counts as a failure."""
        self.attempted[kind] += 1
        t0 = time.perf_counter()
        try:
            out = fn()
            dt = time.perf_counter() - t0
            problem = check(out)
        except Exception as exc:  # every failure is counted, and the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed[kind] += 1
            if len(self.findings) < 20:
                self.findings.append(f"{kind}: {problem}")
            return None
        self.times[kind].extend((t0, t0 + dt))
        return out


class Bench:
    """Runs one workload's phases (cold set-up, cold sweep, stripes)."""

    def __init__(self, lib, workload: Workload, seed: int):
        self.lib = lib
        self.wl = workload
        self.params = instance_params(lib, workload.instance)
        seeds = random.Random(f"{workload.name}/{seed}")
        self.sweep_seed = seeds.randrange(2**31)
        self.stripe_seed = seeds.randrange(2**31)
        self.rec = Recorder()
        self.plan = None  # (instance, {node: RepairSession}) of the last set-up
        self.report = None  # first sweep report; later ones must match it byte for byte
        self.rows = None  # parsed rows of that report
        self.speed = None  # a HostSpeed sampled around every operation, in untraced runs

    @staticmethod
    def _cold(lib):
        for clear in lib.clear_caches:
            clear()
        gc.collect()

    # -- set-up: field, build, dual weights, one repair plan per node --------------

    def _setup(self):
        lib = self.lib
        instance = lib.constructions.build(self.params)
        lib.rs.dual_weights(instance.code)
        sessions = {}
        for node in self.wl.plan_nodes or range(1, self.params.n + 1):
            check = lib.constructions.verify_rank_condition(instance, node)
            if not check.ok:
                raise RuntimeError(f"rank condition fails at node {node}: rank {check.rank}")
            sessions[node] = lib.repair.RepairSession(instance, check.scheme)
        return instance, sessions

    def _sample_speed(self, repeat: int = 1, force: bool = False):
        if self.speed is not None:
            self.speed.sample(repeat, force)

    def setup_once(self):
        self._cold(self.lib)
        self._sample_speed(3, force=True)
        plan = self.rec.attempt("setup", self._setup, lambda plan: None)
        self._sample_speed(3, force=True)
        if plan is not None:
            self.plan = plan

    # -- the user command: rackrepair sweep --trials 1 --------------------------------

    def _sweep(self):
        argv = ["sweep", *self.wl.instance, "--trials", "1", "--seed", str(self.sweep_seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.lib.cli.main(argv)
        return status, buf.getvalue()

    def _check_sweep(self, out):
        status, text = out
        if status != 0:
            return f"sweep exited with status {status}"
        if self.report is not None:
            return None if text == self.report else "sweep report differs from the first repetition"
        lines = text.splitlines()
        if not lines or lines[0] != self.lib.cli.CSV_HEADER:
            return "sweep report has no CSV header"
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:] if not line.startswith("#")]
        if len(rows) != self.params.n:
            return f"sweep reported {len(rows)} rows for n = {self.params.n}"
        bad = [r["node"] for r in rows if r["repair_ok"] != "true" or r["rank_ok"] != "true"]
        if bad:
            return f"sweep rows not ok for nodes {bad}"
        if not any(line.startswith("# summary:") and line.endswith("bound_violations=0 audit_failures=0")
                   for line in lines):
            return "sweep summary reports violations or failures"
        if self.plan is not None:
            _, sessions = self.plan
            wrong = [n for n, s in sessions.items() if s.b != int(rows[n - 1]["b"])]
            if wrong:
                return f"library plan b differs from the sweep report at nodes {wrong}"
        self.report, self.rows = text, rows
        return None

    def sweep_once(self):
        self._cold(self.lib)
        self._sample_speed(3, force=True)
        self.rec.attempt("sweep", self._sweep, self._check_sweep)
        self._sample_speed(3, force=True)

    # -- stripes: encode, repair one node, sometimes decode ----------------------------

    def restart_stripes(self):
        """Start the seeded stripe stream again from its first stripe."""
        self._rng = random.Random(self.stripe_seed)
        self._offset = self._rng.randrange(2**16)
        self._next = 0

    def stripes(self, count: int | None = None, until: float | None = None, at_least: int = 0):
        """Closed loop over the next stripes of the stream: `count` of them,
        or at least `at_least` and then until the perf_counter deadline `until`."""
        if self.plan is None:
            return
        lib, rec, wl, rng = self.lib, self.rec, self.wl, self._rng
        instance, sessions = self.plan
        field, code = instance.field, instance.code
        n, k = self.params.n, self.params.k
        nodes = sorted(sessions)
        done = 0
        while (done < count) if count is not None else (
                done < at_least or time.perf_counter() < until):
            i = self._next
            self._next += 1
            done += 1
            message = tuple(field.random_element(rng) for _ in range(k))
            if wl.erase == "random":
                node = rng.choice(nodes)
            else:
                node = nodes[(self._offset + i) % len(nodes)]
            codeword = rec.attempt(
                "encode", lambda: lib.rs.encode(message, code),
                lambda cw: None if len(cw) == n else f"encode returned {len(cw)} symbols")
            if codeword is None:
                continue
            session = sessions[node]
            rec.attempt("repair", lambda: session.run(codeword),
                        lambda out: self._check_repair(out, codeword[node - 1], session.b))
            if i % wl.decode_every == 0:
                survivors = sorted(rng.sample([p for p in range(1, n + 1) if p != node], k))
                partial = [(p, codeword[p - 1]) for p in survivors]
                rec.attempt("decode", lambda: lib.rs.erasure_decode(partial, code),
                            lambda got: None if tuple(got) == message else "decoded message differs")
            self._sample_speed()

    def _check_repair(self, out, erased, b):
        transcript, report = out
        if transcript.recovered != erased:
            return f"node {transcript.node}: recovered symbol differs from the erased one"
        if report.b != b:
            return f"node {transcript.node}: reported b {report.b}, plan b {b}"
        result = self.lib.repair.audit(transcript, report)
        return "; ".join(result.findings) if not result.ok else None

    # -- bandwidth, from the sweep report --------------------------------------------

    def bandwidth(self) -> tuple[int, Fraction]:
        b = [int(r["b"]) for r in self.rows]
        ratio = max(Fraction(int(r["b"])) / Fraction(r["b_min"]) for r in self.rows)
        return sum(b), ratio


# -- untraced run: end-to-end metrics -----------------------------------------------------

def scaled_samples(bench: Bench) -> dict[str, list[float]]:
    """Every timed operation of the run, scaled to the reference host speed
    (see hostspeed.py): on a shared host the same operation runs up to 1.8
    times slower in spells of seconds, and raw times follow those spells."""
    rec, speed = bench.rec, bench.speed
    return defaultdict(list, {kind: [speed.scaled(t0, t1) for t0, t1 in rec.intervals(kind)]
                              for kind in rec.times})


def run_untraced(bench: Bench, seconds: float) -> dict:
    """Rounds of (cold set-up, stripes, cold sweep, stripes), slice j of the
    2R stripe slices running until j/(2R) of `seconds` have passed, so that
    every kind of operation is sampled across the whole run."""
    start = time.perf_counter()
    slices = 2 * bench.wl.rounds
    at_least = -(-bench.wl.min_stripes // slices)
    bench.speed = HostSpeed()
    bench.restart_stripes()
    try:
        bench.speed.install()
        for r in range(bench.wl.rounds):
            bench.setup_once()
            bench.stripes(until=start + seconds * (2 * r + 1) / slices, at_least=at_least)
            bench.sweep_once()
            bench.stripes(until=start + seconds * (2 * r + 2) / slices, at_least=at_least)
    finally:
        bench.speed.uninstall()

    s = scaled_samples(bench)
    metrics = {}
    if s["setup"]:
        metrics["setup_s"] = statistics.median(s["setup"])
    if s["sweep"]:
        metrics["sweep_s"] = statistics.median(s["sweep"])
    for kind in ("repair", "encode", "decode"):
        if s[kind]:
            metrics[f"{kind}_p50_ms"] = statistics.median(s[kind]) * 1e3
    if bench.rows is not None:
        b_total, ratio = bench.bandwidth()
        metrics["b_total"] = b_total
        metrics["bw_ratio_max"] = float(ratio)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(bench.rec.attempted.values())
    metrics["ok_frac"] = 1 - sum(bench.rec.failed.values()) / max(attempted, 1)
    return metrics


# -- traced run: per-layer metrics ---------------------------------------------------------

def _unit(bench: Bench, tracer=None):
    """A fixed unit of work: one cold set-up, one cold sweep, trace_stripes stripes."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter()
    with span("bench.setup"):
        bench.setup_once()
    with span("bench.sweep"):
        bench.sweep_once()
    with span("bench.stripes"):
        bench.restart_stripes()
        bench.stripes(count=bench.wl.trace_stripes)
    return time.perf_counter() - t0


def _traced_unit(bench: Bench):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wall = _unit(bench, tracer)
    finally:
        tracer.uninstall()
    return wall, tracer


def run_traced(bench: Bench, seconds: float) -> tuple[dict, list]:
    """Pairs of one untraced and one traced unit, which of the two goes first
    alternating, until the next pair would overrun `seconds`."""
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        if len(traced) % 2:
            traced.append(_traced_unit(bench))
            plain.append(_unit(bench))
        else:
            plain.append(_unit(bench))
            traced.append(_traced_unit(bench))
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            break

    first = traced[0][1]
    calls = tracing.call_counts(first.spans)
    self_s = [tracing.self_times(t.spans) for _, t in traced]
    metrics = {f"{name}.s": statistics.median(st.get(name, 0.0) for st in self_s)
               for name in TIMED}
    metrics |= {f"{name}.calls": calls[name] for name in CALLED}
    metrics |= {f"{name}.calls": first.counts[name] for name in COUNTED}
    checks = first.counts["constructions.rank_checks"]
    metrics["constructions.rank_ok_frac"] = first.counts["constructions.rank_ok"] / max(checks, 1)
    metrics["repair.payload_symbols"] = first.counts["repair.payload_symbols"]
    runs = [d for _, t in traced for d in tracing.durations(t.spans, "repair.run")]
    metrics["repair.run.p50_ms"] = statistics.median(runs) * 1e3 if runs else 0.0
    metrics["repair.run.p90_ms"] = statistics.quantiles(runs, n=10)[8] * 1e3 if len(runs) >= 2 else 0.0
    metrics["trace.uncovered_s"] = statistics.median(w - tracing.covered_time(t.spans) for w, t in traced)
    metrics["trace.overhead"] = statistics.median(w for w, _ in traced) / statistics.median(plain)
    return metrics, traced


def write_spans(traced, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {"fields": ["name", "start", "end", "parent"],
           "units": [{"wall_s": wall, "spans": t.spans} for wall, t in traced]}
    path.write_text(json.dumps(doc))
    return path


# -- entry point ------------------------------------------------------------------------------

def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": importlib.import_module("numpy").__version__,
            "git_sha": sha, "nproc": os.cpu_count(), "blas_threads": THREADS}


WARM_UP = Workload("warm-up", ("--mode", "C1", "--q", "3", "--u", "2", "--nbar", "3", "--rbar", "2"),
                   plan_nodes=(1,), erase="round-robin", decode_every=1,
                   rounds=1, min_stripes=2, trace_stripes=2)


def run(lib, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Bench, list]:
    # One unit on the tiny l = 8 code first, so that the first measured
    # repetition does not also pay for first calls into numpy and the package.
    _unit(Bench(lib, WARM_UP, seed))
    bench = Bench(lib, workload, seed)
    if trace:
        metrics, traced = run_traced(bench, seconds)
    else:
        metrics, traced = run_untraced(bench, seconds), []
    expected = PER_LAYER if trace else END_TO_END
    attempted = sum(bench.rec.attempted.values())
    failed = sum(bench.rec.failed.values())
    result = {
        "correct": failed == 0 and set(metrics) == set(expected),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in expected.items() if name in metrics},
    }
    return result, bench, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_rackrepair()
    result, bench, traced = run(lib, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    rec = bench.rec
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(),
                      "attempted": dict(rec.attempted), "failed": dict(rec.failed),
                      "samples": {k: rec.count(k) for k in rec.times}}))
    for finding in rec.findings:
        print(f"FAIL {finding}")
    if traced:
        print(f"spans: {write_spans(traced, args.workload, args.seed).relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        n = f"  (n={rec.count(SAMPLES_OF[name])})" if name in SAMPLES_OF else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{n}")
    print(f"{'failed_frac':40s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
