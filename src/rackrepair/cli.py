"""Batch verification harness: builds instances, sweeps repairs over every
node, and reports measured bandwidths against their bounds as CSV or JSON.

Sub-commands: build (print one instance), repair (one node), sweep (all
nodes), nbar-sweep (basic-mode trend over a range of rack counts).  Runs
are deterministic for a fixed seed; the exit status is 0 exactly when no
audit failure and no bound violation occurred, 1 when a check or repair
failed, and 2 when the parameters are invalid (one `invalid parameters:`
line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from .constructions import (
    CodeInstance,
    RankCheck,
    SchemeParams,
    build,
    c1_params,
    c2_params,
    cor7_params,
    homogeneous_params,
    verify_rank_condition,
)
from .repair import RepairError, RepairSession, RepairTranscript, audit
from .rs import encode

CSV_HEADER = "mode,q,u,nbar,rbar,rbar_eff,l,rack,node,b,b_min,upper,case,ratio,repair_ok,rank_ok"


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    q: int
    u: int
    nbar: int
    rbar: int | None = None
    primes: tuple[int, ...] | None = None
    v: int = 0
    trials: int = 3
    seed: int = 0


@dataclass(frozen=True)
class ReportRow:
    """One node's report line: its rank check (`RankCheck.without_plan`),
    which holds its rack, node, b, bounds, ratio and rank verdict, and
    whether its repairs ran ("true"), were skipped (no trials) or could not
    run ("false": the rank check failed)."""

    params: SchemeParams
    check: RankCheck
    repair_ok: str


def params_from_config(config: ExperimentConfig) -> SchemeParams:
    mode = config.mode
    if mode == "C2" and config.rbar is not None:
        raise ValueError("mode C2 takes --primes, not --rbar")
    if mode != "C2" and config.primes is not None:
        raise ValueError(f"--primes applies to mode C2 only, got --mode {mode}")
    if not (config.primes if mode == "C2" else config.rbar is not None):
        raise ValueError(f"mode {mode} needs {'--primes' if mode == 'C2' else '--rbar'}")
    if mode == "C1":
        return c1_params(config.q, config.u, config.nbar, config.rbar, config.v)
    if mode == "homogeneous":
        if config.u != 1:
            raise ValueError("homogeneous mode means u = 1")
        return homogeneous_params(config.q, config.nbar, config.rbar, config.v)
    if mode == "C2":
        return c2_params(config.q, config.u, config.nbar, config.primes, config.v)
    if mode == "Cor7":
        return cor7_params(config.q, config.u, config.nbar, config.rbar, config.v)
    raise ValueError(f"unknown mode {mode!r}")


def random_codeword(instance: CodeInstance, rng: random.Random):
    message = [instance.field.random_element(rng) for _ in range(instance.params.k)]
    return encode(message, instance.code)


def audited_repairs(instance: CodeInstance, node: int, trials: int, rng: random.Random):
    """The node's rank check, and a generator of `trials` audited
    (codeword, transcript) repairs of seeded random codewords (none when the
    check fails).  The generator raises RepairError on the first audit
    failure."""
    check = verify_rank_condition(instance, node)
    if not check.ok:
        return check, iter(())
    session = RepairSession(instance, check.scheme)

    def runs():
        for _ in range(trials):
            codeword = random_codeword(instance, rng)
            transcript, report = session.run(codeword)
            result = audit(transcript, report)
            if not result.ok:
                raise RepairError(f"audit failed for node {node}: "
                                  + "; ".join(result.findings), transcript)
            yield codeword, transcript

    return check, runs()


def rows_for_instance(
    instance: CodeInstance, trials: int, rng: random.Random
) -> list[ReportRow]:
    """One row per node: rank check, `trials` random-codeword repairs, audit."""
    rows = []
    for node in range(1, instance.params.n + 1):
        check, runs = audited_repairs(instance, node, trials, rng)
        ran = sum(1 for _ in runs)
        rows.append(ReportRow(instance.params, check.without_plan(),
                              "false" if not check.ok else "true" if ran else "skipped"))
    return rows


def run_sweep(config: ExperimentConfig) -> list[ReportRow]:
    params = params_from_config(config)  # full validation before any field work
    return rows_for_instance(build(params), config.trials, random.Random(config.seed))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _frac_str(x: Fraction | None) -> str:
    if x is None:
        return ""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _ratio_str(x: Fraction) -> str:
    scaled = round(x * 10**6)
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


def _row_values(row: ReportRow) -> list[str]:
    p, check = row.params, row.check
    return [
        p.mode, str(p.q), str(p.u), str(p.nbar), str(p.rbar), str(p.rbar_eff), str(p.l),
        str(check.scheme.rack), str(check.scheme.node), str(check.b),
        _frac_str(check.bounds.b_min), _frac_str(check.bounds.upper), check.bounds.case,
        _ratio_str(check.ratio), row.repair_ok, "true" if check.ok else "false",
    ]


def summarize(rows: list[ReportRow]) -> dict:
    checks = [row.check for row in rows]
    return {
        "max_ratio": _ratio_str(max(c.ratio for c in checks)),
        "min_ratio": _ratio_str(min(c.ratio for c in checks)),
        "bound_violations": sum(1 for c in checks if c.bounds.violations(c.b)),
        "audit_failures": sum(1 for row in rows if row.repair_ok == "false" or not row.check.ok),
    }


def emit_report(
    rows: list[ReportRow], fmt: str = "csv", trend: Sequence[tuple[int, Fraction]] = ()
) -> str:
    """Render rows plus a summary block; CSV uses the fixed header and '#'
    prefixed summary lines, JSON nests rows and summary.  A non-empty
    `trend`, the (nbar, max ratio) pairs of an nbar-sweep, follows with
    whether the ratio never rises."""
    if not rows:
        raise ValueError("no rows to report")
    summary = summarize(rows)
    notes = _interpretation_notes(rows)
    mono = all(b <= a for (_, a), (_, b) in zip(trend, trend[1:]))
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines += [",".join(_row_values(row)) for row in rows]
        lines.append(
            "# summary: max_ratio={max_ratio} min_ratio={min_ratio} "
            "bound_violations={bound_violations} audit_failures={audit_failures}".format(**summary)
        )
        lines += [f"# note: {n}" for n in notes]
        if trend:
            lines.append("# trend: " + "; ".join(
                f"nbar={n} max_ratio={_ratio_str(r)}" for n, r in trend))
            lines.append(f"# trend max_ratio non-increasing: {'true' if mono else 'false'}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "rows": [dict(zip(CSV_HEADER.split(","), _row_values(row))) for row in rows],
            "summary": summary | ({"notes": notes} if notes else {}),
        }
        if trend:
            payload["trend"] = {
                "max_ratio_by_nbar": [
                    {"nbar": n, "max_ratio": _ratio_str(r)} for n, r in trend
                ],
                "non_increasing": mono,
            }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _interpretation_notes(rows: list[ReportRow]) -> list[str]:
    notes = []
    if any(row.params.mode in ("C2", "Cor7") and row.check.bounds.case == "i"
           and row.check.scheme.rack == 1 for row in rows):
        notes.append("case (i) bound applied down to w=0 (reading of the case split)")
    if any(row.params.mode == "C2-remainder" for row in rows):
        notes.append(
            "remainder layout: index sets wrap over the transformed digit "
            "positions; upper bounds reported informationally only"
        )
    if any(row.params.mode == "Cor7" for row in rows):
        notes.append("prime rbar: repair runs the rbar-1 system; b_min uses the true rbar")
    return notes


# ---------------------------------------------------------------------------
# serializations for build/repair output
# ---------------------------------------------------------------------------

def describe_instance(instance: CodeInstance) -> str:
    params = instance.params
    fd = instance.field.describe()
    lines = [
        f"mode: {params.mode}",
        f"q={params.q} u={params.u} nbar={params.nbar} rbar={params.rbar} "
        f"rbar_eff={params.rbar_eff} v={params.v}",
        f"l={params.l} n={params.n} k={params.k}"
        + (f" kprime={params.kprime}" if params.kprime is not None else ""),
        f"field: modulus={','.join(map(str, fd['modulus']))} zeta={','.join(map(str, fd['zeta']))}",
        f"alpha: {instance.code.alpha}",
    ]
    for e, exponent in enumerate(instance.radix.weights, 1):
        lines.append(f"rack {e}: zeta_exp={exponent}")
        for j in range(1, params.u + 1):
            node = instance.code.node_index(e, j)
            lines.append(f"  node {node} (j={j}): {instance.code.eval_points[node - 1]}")
    return "\n".join(lines) + "\n"


def describe_codeword(codeword) -> str:
    """n rows of l base-q digits, lowest-degree coefficient first."""
    return "\n".join(str(sym) for sym in codeword) + "\n"


def describe_transcript(transcript: RepairTranscript) -> str:
    lines = [f"transcript: node={transcript.node} host_rack={transcript.host_rack}"]
    for msg in transcript.messages:
        lines.append(f"rack {msg.rack}: b_e={len(msg.payload)}")
        for be in msg.basis_elems:
            lines.append(f"  basis: {be}")
        lines.append(f"  payload: {','.join(map(str, msg.payload))}")
    for node, sym in transcript.host_symbols:
        lines.append(f"host symbol node {node}: {sym}")
    lines.append(f"recovered: {transcript.recovered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--mode", default="C1", choices=["C1", "C2", "Cor7", "homogeneous"])
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--u", type=int, default=2)
    parser.add_argument("--nbar", type=int, default=3)
    parser.add_argument("--rbar", type=int, default=None)
    parser.add_argument("--primes", type=str, default=None,
                        help="comma separated, e.g. 2,2 (mode C2)")
    parser.add_argument("--v", type=int, default=0)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", dest="fmt", default=None, choices=["csv", "json"])
    parser.add_argument("--out", type=str, default=None)


def _config_from_args(args) -> ExperimentConfig:
    try:
        primes = tuple(int(p) for p in args.primes.split(",")) if args.primes else None
    except ValueError:
        raise ValueError(
            f"--primes must be comma separated integers, got {args.primes!r}"
        ) from None
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.fmt is not None and args.command in ("build", "repair"):
        raise ValueError(f"--format applies to sweep and nbar-sweep only, not {args.command}")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out directory does not exist: {args.out!r}")
    if args.out and os.path.isdir(args.out):
        raise ValueError(f"--out names a directory, not a file: {args.out!r}")
    return ExperimentConfig(
        mode=args.mode, q=args.q, u=args.u, nbar=args.nbar, rbar=args.rbar,
        primes=primes, v=args.v, trials=args.trials, seed=args.seed,
    )


def _write(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rackrepair",
        description="rack-aware Reed-Solomon repair: build, repair, sweep, and report",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "repair", "sweep", "nbar-sweep"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "repair":
            p.add_argument("--node", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        config = _config_from_args(args)

        if args.command == "build":
            _write(describe_instance(build(params_from_config(config))), args.out)
            return 0

        if args.command == "repair":
            instance = build(params_from_config(config))
            check, runs = audited_repairs(instance, args.node, max(config.trials, 1),
                                          random.Random(config.seed))
            if not check.ok:
                sys.stderr.write(f"rank condition failed at node {args.node}: {check.rank}\n")
                return 1
            (codeword, transcript), *_ = runs
            _write("codeword:\n" + describe_codeword(codeword) + describe_transcript(transcript)
                   + f"b={check.b} b_min={_frac_str(check.bounds.b_min)} "
                   f"upper={_frac_str(check.bounds.upper)} case={check.bounds.case} "
                   f"ratio={_ratio_str(check.ratio)}\n", args.out)
            return 0

        # sweep runs one instance; nbar-sweep runs the basic mode over
        # nbar = rbar + 1 .. config.nbar at fixed rbar and adds the trend
        nbars = [config.nbar]
        if args.command == "nbar-sweep":
            if config.mode != "C1":
                raise ValueError(f"nbar-sweep runs mode C1 only, got --mode {config.mode}")
            if config.rbar is None:
                raise ValueError("nbar-sweep needs --rbar")
            first = config.rbar + 1
            if config.nbar < first:
                raise ValueError(f"nbar-sweep needs --nbar >= rbar + 1 = {first}, got {config.nbar}")
            nbars = range(first, config.nbar + 1)
        for nbar in nbars:  # refuse the whole range before the first field is built
            params_from_config(replace(config, nbar=nbar))
        runs = [(nbar, run_sweep(replace(config, nbar=nbar))) for nbar in nbars]
        rows = [row for _, run in runs for row in run]
        trend = [(nbar, max(r.check.ratio for r in run)) for nbar, run in runs]
        _write(emit_report(rows, args.fmt or "csv", trend if args.command == "nbar-sweep" else ()),
               args.out)
        summary = summarize(rows)
        return 0 if summary["bound_violations"] == 0 and summary["audit_failures"] == 0 else 1

    except RepairError as exc:
        sys.stderr.write(f"{exc}\n")
        if exc.transcript is not None:
            sys.stderr.write(describe_transcript(exc.transcript))
        return 1
    except ValueError as exc:
        sys.stderr.write(f"invalid parameters: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
