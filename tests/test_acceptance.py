"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run pytest with -s to see them inline).

All arithmetic checks are exact (tolerance zero); bound checks are strict
integer/rational comparisons at the stated small parameters.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

from dual_oracle import dual_codeword

from rackrepair.cli import ExperimentConfig, run_sweep
from rackrepair.constructions import (
    bounds,
    build,
    c1_params,
    c2_params,
    cor7_params,
    homogeneous_params,
    rack_wy,
    verify_rank_condition,
)
from rackrepair.gf import GF, rank_over_base
from rackrepair.radix import RadixSystem
from rackrepair.repair import RepairSession, audit
from rackrepair.rs import encode, erasure_decode

GF.cache_clear()  # criterion timings include field construction


def _criterion(label, target_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < target_seconds if target_seconds else True
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {target_seconds}s target"


@functools.lru_cache(maxsize=None)
def _instance(tag):
    return build({
        "c1": lambda: c1_params(3, 2, 3, 2),
        "c2": lambda: c2_params(3, 2, 6, (2, 2)),
        "c2rem": lambda: c2_params(3, 2, 5, (2, 2)),
        "cor7": lambda: cor7_params(3, 2, 6, 5),
        "hom": lambda: homogeneous_params(3, 3, 2),
    }[tag]())


def _random_codeword(inst, rng):
    msg = [inst.field.random_element(rng) for _ in range(inst.params.k)]
    return encode(msg, inst.code)


def _sweep_instance(inst, trials, seed):
    """Rank-check, repair `trials` random codewords, and audit every node.

    Returns {node: (rank, b, bounds)}.  Asserts exact recovery, audit
    success, payload count == rank sum, and data independence of b.
    """
    rng = random.Random(seed)
    out = {}
    for node in range(1, inst.params.n + 1):
        check = verify_rank_condition(inst, node)
        assert check.ok, f"rank condition failed at node {node}: {check.rank}"
        session = RepairSession(inst, check.scheme)
        bs = set()
        for _ in range(trials):
            word = _random_codeword(inst, rng)
            transcript, report = session.run(word)
            assert transcript.recovered == word[node - 1]
            result = audit(transcript, report)
            assert result.ok, result.findings
            assert sum(len(m.payload) for m in transcript.messages) == report.b
            bs.add(report.b)
        assert len(bs) == 1  # bandwidth is a rank, not a function of the data
        out[node] = (check.rank, bs.pop(), report.bounds)
    return out


# --------------------------------------------------------------------------
# criterion 1: basic construction, small instance
# --------------------------------------------------------------------------

def test_criterion_1_basic_small_instance():
    def body():
        inst = _instance("c1")
        p = inst.params
        assert (p.l, p.n, p.k) == (8, 6, 2)
        assert (inst.field.q, inst.field.l) == (3, 8)
        results = _sweep_instance(inst, trials=10, seed=101)
        for node, (rank, b, bset) in results.items():
            assert rank == 8
            assert bset.b_min == 8 == Fraction(2 * 8, 2)
            assert bset.upper == 16 == Fraction(4 * 8, 2)
            assert 8 <= b < 16

    _criterion("criterion 1 (basic n=6 instance over GF(3^8))", 10, body)


# --------------------------------------------------------------------------
# criterion 2: multi-base construction, divisible case
# --------------------------------------------------------------------------

def test_criterion_2_multibase_divisible():
    def body():
        inst = _instance("c2")
        p = inst.params
        assert (p.rbar, p.m, p.nprime, p.l, p.n, p.k) == (4, 2, 3, 64, 12, 4)
        assert (inst.field.q, inst.field.l) == (3, 64)
        case_bounds = {0: Fraction(384), 1: Fraction(464), 2: Fraction(304)}
        results = _sweep_instance(inst, trials=10, seed=102)
        for node, (rank, b, bset) in results.items():
            assert rank == 64
            w, _ = rack_wy(p, (node - 1) // p.u + 1)
            assert bset.upper == case_bounds[w]
            assert b < bset.upper
            assert b >= 96  # stated floor; the cut-set bound itself is 80
            assert b >= bset.b_min == 80

    _criterion("criterion 2 (multi-base n=12 instance over GF(3^64))", 60, body)


# --------------------------------------------------------------------------
# criterion 3: multi-base construction, remainder case
# --------------------------------------------------------------------------

def test_criterion_3_multibase_remainder():
    def body():
        inst = _instance("c2rem")
        p = inst.params
        assert (p.h, p.l, p.n, p.k) == (1, 32, 10, 2)
        results = _sweep_instance(inst, trials=10, seed=103)
        for node, (rank, b, bset) in results.items():
            assert rank == 32
            assert b >= bset.b_min == 32
            assert not bset.enforced  # case values informational only

    _criterion("criterion 3 (remainder n=10 instance over GF(3^32))", 20, body)


# --------------------------------------------------------------------------
# criterion 4: prime rbar via the rbar - 1 system
# --------------------------------------------------------------------------

def test_criterion_4_prime_rbar_repair():
    def body():
        inst = _instance("cor7")
        p = inst.params
        assert (p.rbar, p.rbar_eff, p.l, p.n, p.k, p.kprime) == (5, 4, 64, 12, 2, 4)
        assert p.u * p.rbar_eff - p.u == 6 <= p.n - p.kprime - 1 == 7
        results = _sweep_instance(inst, trials=10, seed=104)
        for node, (rank, b, bset) in results.items():
            assert rank == 64
            assert b >= bset.b_min == 64  # cut-set bound with the true rbar
            scheme_check = verify_rank_condition(inst, node)
            assert {s for _, s in scheme_check.scheme.descriptors} == set(range(4))
            assert len(scheme_check.scheme.index_set) * 4 == 64

    _criterion("criterion 4 (prime rbar=5 repair via the rbar'=4 system)", 60, body)


def test_criterion_4_ratio_target():
    # Stated target: every node's b / b_min below 2 at this scale.  The
    # measured bandwidth of this construction exceeds it (each of the 5
    # helper racks contributes rank >= l/rbar' = 16, and the cross-rack
    # spill pushes the total to 143..165 against b_min = 64), so this
    # assertion documents the miss rather than hiding it.
    def body():
        inst = _instance("cor7")
        results = _sweep_instance(inst, trials=1, seed=105)
        ratios = {node: Fraction(b) / bset.b_min for node, (_, b, bset) in results.items()}
        assert max(ratios.values()) < 2, (
            f"measured ratios span [{float(min(ratios.values())):.6f}, "
            f"{float(max(ratios.values())):.6f}]"
        )

    _criterion("criterion 4 ratio target (b/b_min < 2)", None, body)


# --------------------------------------------------------------------------
# criterion 5: homogeneous degeneration (u = 1)
# --------------------------------------------------------------------------

def test_criterion_5_homogeneous():
    def body():
        inst = _instance("hom")
        p = inst.params
        assert (p.u, p.nbar, p.n, p.rbar, p.l, p.k) == (1, 3, 3, 2, 8, 1)
        results = _sweep_instance(inst, trials=10, seed=106)
        for node, (rank, b, bset) in results.items():
            assert rank == 8
            assert bset.b_min == 8 and bset.upper == 16
            assert 8 <= b < 16

    _criterion("criterion 5 (homogeneous u=1 degeneration)", 10, body)


# --------------------------------------------------------------------------
# criterion 6: oracle equivalences
# --------------------------------------------------------------------------

def _brute_force_span(elems):
    field = elems[0].field
    span = set()
    for coeffs in itertools.product(range(field.q), repeat=len(elems)):
        acc = field.zero
        for c, e in zip(coeffs, elems):
            acc = acc + c * e
        span.add(acc)
    return len(span)


def test_criterion_6_oracle_equivalences():
    def body():
        # rank vs brute-force span enumeration on every field with q^l <= 81
        rng = random.Random(601)
        for l in (1, 2, 3, 4):
            field = GF(3, l)
            for _ in range(10):
                elems = [field.random_element(rng) for _ in range(rng.randrange(1, 5))]
                assert 3 ** rank_over_base(elems).rank == _brute_force_span(elems)

        # mixed-radix bijectivity, exhaustive for capacities up to 10^4
        for radices in ((2,) * 3, (2,) * 13, (4,) * 6, (2, 2, 2, 2, 2),
                        (2, 3, 2, 3, 2, 3), (5, 5, 5, 5), (7, 11, 13)):
            sys = RadixSystem(radices)
            assert sys.capacity <= 10**4
            seen = set()
            for a in range(sys.capacity):
                d = sys.encode(a)
                assert sys.decode(d) == a
                seen.add(d)
            assert len(seen) == sys.capacity

        # MDS round trips and duality inner products, 100 random pairs per instance
        for tag in ("c1", "c2", "c2rem", "cor7", "hom"):
            inst = _instance(tag)
            code = inst.code
            rng = random.Random(hash(tag) % 10**6)
            for _ in range(100):
                msg = [inst.field.random_element(rng) for _ in range(code.k)]
                word = encode(msg, code)
                subset = rng.sample(range(1, code.n + 1), code.k)
                decoded = erasure_decode([(pos, word[pos - 1]) for pos in subset], code)
                assert encode(decoded, code) == word
            for _ in range(100):
                f = [inst.field.random_element(rng) for _ in range(code.k)]
                g = [inst.field.random_element(rng) for _ in range(code.r)]
                word = encode(f, code)
                dual = dual_codeword(g, code)
                acc = inst.field.zero
                for a, b in zip(word, dual):
                    acc = acc + a * b
                assert acc.is_zero()

    _criterion("criterion 6 (oracle equivalences)", None, body)


# --------------------------------------------------------------------------
# criterion 7: accounting consistency
# --------------------------------------------------------------------------

def test_criterion_7_accounting_consistency():
    def body():
        for tag in ("c1", "hom"):
            inst = _instance(tag)
            rng = random.Random(701)
            for node in range(1, inst.params.n + 1):
                check = verify_rank_condition(inst, node)
                session = RepairSession(inst, check.scheme)
                bs = set()
                for _ in range(10):
                    word = _random_codeword(inst, rng)
                    transcript, report = session.run(word)
                    payload_count = sum(len(m.payload) for m in transcript.messages)
                    rank_sum = sum(be for _, be in report.per_rack)
                    assert payload_count == rank_sum == report.b
                    bs.add(report.b)
                assert len(bs) == 1

    _criterion("criterion 7 (payload count == rank sum; b data independent)", None, body)


# --------------------------------------------------------------------------
# criterion 8: trend report
# --------------------------------------------------------------------------

def test_criterion_8_trend_report():
    def body():
        max_ratios = []
        for nbar in (3, 4, 5):
            rows = run_sweep(ExperimentConfig(
                mode="C1", q=3, u=2, nbar=nbar, rbar=2, trials=1, seed=800 + nbar,
            ))
            assert all(r.check.ok and r.repair_ok == "true" for r in rows)
            max_ratios.append(max(r.check.ratio for r in rows))
        assert max_ratios == [Fraction(3, 2), Fraction(17, 12), Fraction(11, 8)]
        assert all(b <= a for a, b in zip(max_ratios, max_ratios[1:]))

    _criterion("criterion 8 (nbar-sweep max ratio non-increasing)", None, body)
