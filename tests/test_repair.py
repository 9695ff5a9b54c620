import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from family_oracle import FamilyEvaluator
from repair_oracle import reference_repair

from rackrepair.constructions import (
    bounds,
    build,
    c1_params,
    c2_params,
    cor7_params,
    homogeneous_params,
    repair_family,
    verify_rank_condition,
)
from rackrepair.gf import GF, ExtensionField, rank_over_base
from rackrepair.repair import RepairError, RepairSession, audit
from rackrepair import gf, rs
from rackrepair.cli import rows_for_instance
from rackrepair.rs import encode


def build_verified(params, node):
    inst = build(params)
    check = verify_rank_condition(inst, node)
    assert check.ok
    return inst, check.scheme


def random_codeword(inst, rng):
    msg = [inst.field.random_element(rng) for _ in range(inst.params.k)]
    return encode(msg, inst.code)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_c1():
    params = c1_params(3, 2, 3, 2)
    bs = bounds(params, 1)
    assert bs.b_min == 8 and bs.upper == 16
    assert bs.case == "thm8" and bs.enforced


def test_bounds_c2_cases():
    params = c2_params(3, 2, 6, (2, 2))
    by_rack = {}
    for node in (1, 5, 9):  # racks 1, 3, 5 -> w = 0, 1, 2
        bs = bounds(params, node)
        by_rack[(node - 1) // 2 + 1] = bs
        assert bs.b_min == Fraction(5 * 64, 4) == 80
        assert bs.enforced
    assert by_rack[1].case == "i" and by_rack[1].upper == (5 + 3 * 4 + 3 * 2 + 1) * 16 == 384
    assert by_rack[3].case == "ii" and by_rack[3].upper == (5 + 5 * 4 + 4) * 16 == 464
    assert by_rack[5].case == "iii" and by_rack[5].upper == (5 + 3 * 4 + 2) * 16 == 304


def test_bounds_remainder_informational():
    params = c2_params(3, 2, 5, (2, 2))
    for node in range(1, 9):
        bs = bounds(params, node)
        assert not bs.enforced  # case values reported informationally only
        assert bs.b_min == 32
    tail = bounds(params, 9)  # rack 5 sits beyond the full blocks
    assert tail.upper is None and tail.case == "n/a" and not tail.enforced


def test_bounds_cor7():
    params = cor7_params(3, 2, 6, 5)
    bs = bounds(params, 1)
    assert bs.b_min == Fraction(5 * 64, 5) == 64  # true rbar in the cut-set bound
    assert bs.upper == 384  # case (i) computed with rbar' = 4
    assert bs.enforced


def test_bounds_homogeneous():
    params = homogeneous_params(3, 3, 2)
    bs = bounds(params, 2)
    assert bs.b_min == 8 and bs.upper == 16 and bs.case == "thm8"


def test_bounds_cor7_with_remainder_unenforced():
    # nbar = 7 with rbar' = 4 leaves h = 1: case values are informational
    params = cor7_params(3, 2, 7, 5)
    assert params.h == 1
    for node in (1, params.n):
        assert not bounds(params, node).enforced


@pytest.mark.parametrize("enforced", [True, False])
def test_bound_violations_at_edges(enforced):
    # b_min = 80 and upper = 384 (case i of the C2 instance): b below b_min
    # always breaks the cut-set bound, b at upper breaks only an enforced
    # upper bound, and b_min <= b < upper breaks nothing
    bs = replace(bounds(c2_params(3, 2, 6, (2, 2)), 1), enforced=enforced)
    assert (bs.b_min, bs.upper, bs.case) == (80, 384, "i")
    assert bs.violations(79) == ("cut-set bound violated: b = 79 < 80",)
    assert bs.violations(80) == ()
    assert bs.violations(383) == ()
    upper = ("upper bound violated: b = 384 >= 384 (case i)",)
    assert bs.violations(384) == (upper if enforced else ())
    # no upper bound at all: only the cut-set bound can break
    open_bs = replace(bs, upper=None)
    assert open_bs.violations(79) == ("cut-set bound violated: b = 79 < 80",)
    assert open_bs.violations(10**6) == ()


def test_bound_violations_fractional_b_min():
    bs = bounds(cor7_params(3, 2, 7, 5), 1)  # b_min = 6 * 128 / 5
    assert bs.b_min == Fraction(768, 5)
    assert bs.violations(153) == ("cut-set bound violated: b = 153 < 768/5",)
    assert bs.violations(154) == ()


# ---------------------------------------------------------------------------
# per-rack bandwidth
# ---------------------------------------------------------------------------

def test_per_rack_excludes_host():
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 1)
    _, report = RepairSession(inst, scheme).run(random_codeword(inst, random.Random(3)))
    assert scheme.rack not in dict(report.per_rack)
    assert sorted(dict(report.per_rack)) == [2, 3]


def test_per_rack_c1_frozen_values():
    # failed rack 1: helper rack 2 evaluates to rank 5, within the
    # case bound l/rbar + (rbar-1) * l / rbar^(nbar-e+2) = 4 + 1 = 5
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 1)
    _, report = RepairSession(inst, scheme).run(random_codeword(inst, random.Random(3)))
    per_rack = dict(report.per_rack)
    b2 = per_rack[2]
    assert 4 <= b2 <= 5
    assert b2 == 5
    b3 = per_rack[3]
    assert 4 <= b3 <= 6  # 4 + 8 / 2^(3-3+2) = 6
    assert b3 == 6
    assert b2 <= inst.params.l and b3 <= inst.params.l


# ---------------------------------------------------------------------------
# repair execution
# ---------------------------------------------------------------------------

def test_repair_zero_codeword():
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 1)
    zero_word = tuple(inst.field.zero for _ in range(6))
    transcript, report = RepairSession(inst, scheme).run(zero_word)
    assert transcript.recovered.is_zero()
    for msg in transcript.messages:
        assert all(p == 0 for p in msg.payload)
    assert audit(transcript, report).ok


def test_repair_exact_all_nodes_c1():
    inst = build(c1_params(3, 2, 3, 2))
    rng = random.Random(7)
    for node in range(1, 7):
        check = verify_rank_condition(inst, node)
        session = RepairSession(inst, check.scheme)
        for _ in range(5):
            word = random_codeword(inst, rng)
            transcript, report = session.run(word)
            assert transcript.recovered == word[node - 1]
            assert audit(transcript, report).ok


def test_repair_exact_homogeneous():
    inst = build(homogeneous_params(3, 3, 2))
    rng = random.Random(11)
    for node in (1, 2, 3):
        check = verify_rank_condition(inst, node)
        session = RepairSession(inst, check.scheme)
        for _ in range(5):
            word = random_codeword(inst, rng)
            transcript, report = session.run(word)
            assert transcript.recovered == word[node - 1]
            assert transcript.host_symbols == ()  # u = 1: no local survivors
            assert audit(transcript, report).ok


@pytest.mark.parametrize("params,words", [
    (c1_params(3, 2, 3, 2), 3),
    (c2_params(3, 2, 6, (2, 2)), 3),
    (c2_params(3, 2, 5, (2, 2)), 3),
    (cor7_params(3, 2, 6, 5), 3),
    (homogeneous_params(3, 3, 2), 3),
    (c1_params(5, 4, 3, 2, v=2), 3),
    (c2_params(13, 3, 6, (2, 2)), 3),
    (c1_params(3, 2, 7, 2), 1),
], ids=["C1", "C2", "C2-remainder", "Cor7", "homogeneous", "C1-q5-v2", "C2-q13", "l128"])
def test_run_matches_reference_repair(params, words):
    # every payload, its rack order and the recovered symbol equal the
    # field-arithmetic reference on every node; at l = 128 the batched
    # products are the widest (6 helpers, b = 447 at node 1)
    inst = build(params)
    rng = random.Random(37)
    for node in range(1, params.n + 1):
        check = verify_rank_condition(inst, node)
        assert check.ok
        session = RepairSession(inst, check.scheme)
        for _ in range(words):
            word = random_codeword(inst, rng)
            transcript, _ = session.run(word)
            messages, recovered = reference_repair(inst, check.scheme, word)
            assert tuple((m.rack, m.payload) for m in transcript.messages) == messages
            assert transcript.recovered == recovered == word[node - 1]


@pytest.mark.parametrize("params", [c2_params(3, 2, 6, (2, 2)), c2_params(13, 3, 6, (2, 2))],
                         ids=["c2", "q13"])
def test_one_plan_per_rack(params, monkeypatch):
    # planning every node in order takes one dual basis per rack, in its
    # rank check, and none in the sessions; the memo keeps the last rack's
    # check, the rack's nodes share its bases, stacked payload map, the
    # map's read index and decoder, and each applies its own B-scalar w_j^-1
    inst = build(params)
    calls = []
    dual_basis = ExtensionField.dual_basis

    def counted(field, basis):
        calls.append(len(basis))
        return dual_basis(field, basis)

    monkeypatch.setattr(ExtensionField, "dual_basis", counted)
    sessions = [RepairSession(inst, verify_rank_condition(inst, node).scheme)
                for node in range(1, params.n + 1)]
    assert calls == [params.l] * params.nbar and params.nbar == 6
    assert list(inst.rack_memo) == [params.nbar]  # only the rack checked last is kept
    last = inst.rack_memo[params.nbar]
    assert last.ok and last.decoder is sessions[-1].decoder
    assert last.payload_map is sessions[-1].check.payload_map and last.bases is sessions[-1].check.bases
    q, u = params.q, params.u
    w = inst.code.weight_scalars.astype(np.int64)
    assert w.shape == (u,) and (w != 1).any()
    for node, session in enumerate(sessions, 1):
        first = sessions[(node - 1) // u * u]
        assert session.decoder is first.decoder
        assert len(session.check.per_rack) == params.nbar - 1
        assert session.check.per_rack == first.check.per_rack
        assert session.check.bases is first.check.bases
        assert session.check.payload_map is first.check.payload_map
        assert session.w_inv == pow(int(w[(node - 1) % u]), -1, q)
        # the read index is the plan's: every real P_e row is nonzero (its
        # basis element is, and the trace form is nonsingular), the padding
        # is zero
        check = session.check
        assert check.payload_at is first.check.payload_at
        if check.scheme.rack == params.nbar:
            assert check.payload_at is last.payload_at
        rows = check.payload_map.reshape(-1, params.l)
        assert np.array_equal(check.payload_at, np.flatnonzero(rows.any(axis=1)))
        assert check.payload_at.size == check.b


@pytest.mark.parametrize("params", [
    c2_params(3, 2, 6, (2, 2)),
    c2_params(3, 2, 5, (2, 2)),
    c1_params(3, 2, 7, 2),
], ids=["c2", "C2-remainder", "l128"])
def test_run_is_four_stages_over_one_stacked_plan(params, monkeypatch):
    # a run reduces four times whatever nbar is (6, 5 and 7 here): the
    # B-combination, the sigma_e, the payloads and the decoder; each
    # helper's P_e is a view of its rack's one stacked payload map, which
    # the rack's sessions and the memo share, equals its basis rows times
    # the trace form and has only zeros below it
    from rackrepair import repair

    inst = build(params)
    q, u = params.q, params.u
    sessions = [RepairSession(inst, verify_rank_condition(inst, node).scheme)
                for node in range(1, params.n + 1)]
    memo = inst.rack_memo[params.nbar]
    trace_form = inst.field._trace_form.astype(np.int64)
    for node, session in enumerate(sessions, 1):
        check, first = session.check, sessions[(node - 1) // u * u].check
        stack, sizes = check.payload_map, [b_e for _, b_e in check.per_rack]
        assert stack is first.payload_map
        assert stack.shape == (params.nbar - 1, max(sizes), params.l) and sum(sizes) == check.b
        if check.scheme.rack == params.nbar:
            assert stack is memo.payload_map
        for i, (b_e, basis) in enumerate(zip(sizes, check.bases)):
            p_e = stack[i, :b_e]
            assert np.shares_memory(p_e, stack) and np.shares_memory(p_e, first.payload_map)
            rows = np.stack([z.vec for z in basis]).astype(np.int64)
            assert (p_e.astype(np.int64) == rows @ trace_form % q).all()
            assert not stack[i, b_e:].any()

    calls = []
    reduce = repair.reduce_residues

    def counted(a, modulus):
        calls.append(a.shape)
        return reduce(a, modulus)

    monkeypatch.setattr(repair, "reduce_residues", counted)
    word = random_codeword(inst, random.Random(59))
    for node in (1, params.n):
        calls.clear()
        transcript, report = sessions[node - 1].run(word)
        assert len(calls) == 4 and audit(transcript, report).ok


@pytest.mark.parametrize("params,rrefs", [
    (c2_params(3, 2, 6, (2, 2)), 36),
    (c1_params(3, 2, 7, 2), 49),
    (c2_params(13, 3, 6, (2, 2)), 36),
], ids=["c2", "l128", "q13"])
def test_all_node_setup_rref_calls(params, rrefs, monkeypatch):
    # an all-node set-up in node order row-reduces once per rack for its
    # rank check, whose dual basis the plan reuses, and once per helper rack
    # of its plan: nbar^2 calls, the u nodes of a rack sharing all of them
    inst = build(params)
    rs.dual_weights(inst.code)
    calls = []
    rref = gf._rref

    def counted(mat, q):
        calls.append(mat.shape)
        return rref(mat, q)

    monkeypatch.setattr(gf, "_rref", counted)
    for node in range(1, params.n + 1):
        RepairSession(inst, verify_rank_condition(inst, node).scheme)
    assert len(calls) == rrefs == params.nbar ** 2


@pytest.mark.parametrize("params", [c2_params(3, 2, 6, (2, 2)), cor7_params(3, 2, 6, 5),
                                    c2_params(3, 2, 5, (2, 2))], ids=["c2", "Cor7", "C2-remainder"])
def test_rank_check_reuses_the_last_rack(params):
    # in any node order, each check equals a fresh family of its own node
    # with rank l; the memo holds only the rack checked last, whose check
    # every node of the rack shares, with b the sum of its helper ranks
    inst = build(params)
    order = list(range(1, params.n + 1)) * 2
    random.Random(71).shuffle(order)
    checks = {}
    for node in order:
        checks[node] = check = verify_rank_condition(inst, node)
        fresh = repair_family(inst, node)
        assert check.ok and check.rank == params.l
        assert check.scheme == fresh
        assert list(inst.rack_memo) == [fresh.rack]
        entry = inst.rack_memo[fresh.rack]
        assert entry.ok and entry.rank == params.l and entry.scheme.rack == fresh.rack
        assert entry.decoder is check.decoder and entry.payload_map is check.payload_map
        ev = FamilyEvaluator(inst, fresh)
        assert check.b == sum(rank_over_base(ev.at(e)).rank
                              for e in range(1, params.nbar + 1) if e != fresh.rack)
        assert check.decoder.shape == (params.l, params.l + check.b)
    # a node whose rack has left the memo is checked again when planned,
    # and still equals the reference repair
    node = next(n for n in order if inst.code.rack_of(n)[0] != inst.code.rack_of(order[-1])[0])
    session = RepairSession(inst, checks[node].scheme)
    assert list(inst.rack_memo) == [inst.code.rack_of(node)[0]]
    word = random_codeword(inst, random.Random(53))
    transcript, _ = session.run(word)
    messages, recovered = reference_repair(inst, checks[node].scheme, word)
    assert tuple((m.rack, m.payload) for m in transcript.messages) == messages
    assert transcript.recovered == recovered == word[node - 1]


@pytest.mark.parametrize("dtype", [np.int64])
def test_wide_plan_matches_float32(monkeypatch, dtype):
    # c2 runs in float32; the int64 plan, taken when max(u, nbar) l (q-1)^2
    # >= 2^24, must give the same transcripts
    params = c2_params(3, 2, 6, (2, 2))
    rng = random.Random(43)
    inst = build(params)
    words = [random_codeword(inst, rng) for _ in range(2)]

    def transcripts():
        inst = build(params)
        dtype = inst.code.weight_matrices.dtype
        out = []
        for node in range(1, params.n + 1):
            session = RepairSession(inst, verify_rank_condition(inst, node).scheme)
            out += [session.run(word)[0] for word in words]
        return dtype, out

    dtype32, float32_runs = transcripts()
    monkeypatch.setattr(rs, "residue_dtype", lambda *_: dtype)
    wide_dtype, wide_runs = transcripts()
    assert (dtype32, wide_dtype) == (np.float32, dtype)
    assert wide_runs == float32_runs


def test_residue_dtype_bound():
    # the bound is max(u, nbar) l (q-1)^2, not n l (q-1)^2
    assert rs.residue_dtype(3, 64, 2, 6) == np.float32  # c2
    assert rs.residue_dtype(13, 64, 3, 6) == np.float32  # C2 q=13
    assert rs.residue_dtype(2, 2**12, 2**12 - 1, 3) == np.float32
    assert rs.residue_dtype(2, 2**12, 2**12, 3) == np.int64  # 2^24
    assert rs.residue_dtype(2, 2**12, 3, 2**12) == np.int64
    assert rs.residue_dtype(2, 2**31, 2**32 - 1, 1) == np.int64
    with pytest.raises(ValueError, match="int64"):
        rs.residue_dtype(2, 2**31, 2**32, 1)  # 2^63
    # nbar=3, u=1, l=8 over a q that the field limits now refuse
    q = 1_000_000_007
    assert 8 * (q - 1) ** 2 < 2**63
    with pytest.raises(ValueError, match="int64"):
        rs.residue_dtype(q, 8, 1, 3)
    # the largest bound a built code can reach: u <= q - 1 <= 2^16, nbar <= 12
    assert rs.residue_dtype(gf.MAX_Q, gf.MAX_L, gf.MAX_Q - 1, 12) == np.int64


def test_symbols_from_another_field_are_rejected():
    # a GF(13^64) symbol fits the c2 stack's shape but not its field
    inst = build(c2_params(3, 2, 6, (2, 2)))
    session = RepairSession(inst, verify_rank_condition(inst, 1).scheme)
    rng = random.Random(47)
    word = list(random_codeword(inst, rng))
    for bad in (GF(13, inst.params.l).random_element(rng), 1):
        word[1] = bad
        with pytest.raises(ValueError, match="does not belong"):
            session.run(tuple(word))


def test_failed_symbol_is_not_read():
    inst = build(c2_params(3, 2, 6, (2, 2)))
    rng = random.Random(41)
    for node in range(1, inst.params.n + 1):
        session = RepairSession(inst, verify_rank_condition(inst, node).scheme)
        word = list(random_codeword(inst, rng))
        orig = word[node - 1]
        word[node - 1] = orig + 1
        with pytest.raises(RepairError) as err:
            session.run(tuple(word))
        assert err.value.transcript.recovered == orig


def test_repair_requires_verified_scheme():
    # a scheme that was never checked is verified by the session itself
    inst = build(c1_params(3, 2, 3, 2))
    scheme = repair_family(inst, 1)
    assert not inst.rack_memo
    session = RepairSession(inst, scheme)
    assert list(inst.rack_memo) == [1] and inst.rack_memo[1].ok
    word = random_codeword(inst, random.Random(29))
    transcript, _ = session.run(word)
    messages, recovered = reference_repair(inst, scheme, word)
    assert tuple((m.rack, m.payload) for m in transcript.messages) == messages
    assert transcript.recovered == recovered == word[0]


def rank_deficient_instance():
    # the C1 code with its power table patched so that the host's second
    # exponent gives the first's element: node 1's descriptors stay valid
    # and the coset assertion passes, but the host row of rack 1 repeats an
    # element and has rank 7
    inst = build(c1_params(3, 2, 3, 2))
    scheme = repair_family(inst, 1)
    x = inst.radix.weights[scheme.rack - 1]
    (t0, s0), (t1, s1) = scheme.descriptors[:2]
    powers = list(inst.beta_powers)
    powers[t1 + s1 * x] = powers[t0 + s0 * x]
    inst.__dict__["beta_powers"] = tuple(powers)
    return inst


def test_repair_reads_the_memo_rank_not_the_scheme_flag():
    # a repeated element gives the host row of rack 1 rank 7; the session
    # refuses that check's own scheme, from the memo's rank
    inst = rank_deficient_instance()
    check = verify_rank_condition(inst, 1)
    assert not check.ok and check.rank == 7
    with pytest.raises(ValueError, match="rank condition not verified"):
        RepairSession(inst, check.scheme)


def test_rank_deficient_check_is_its_nodes_report():
    # the rank-deficient check of the set-up above still reports its
    # node's bandwidth: bounds, ratio and per-rack ranks, as its CLI row does
    inst = rank_deficient_instance()
    params = inst.params
    check = verify_rank_condition(inst, 1)
    assert not check.ok and check.rank == 7
    assert check.bounds == bounds(params, 1)
    assert check.ratio == Fraction(check.b) / check.bounds.b_min
    assert tuple(b for _, b in check.per_rack) == tuple(len(basis) for basis in check.bases)
    assert [e for e, _ in check.per_rack] == [2, 3] and sum(b for _, b in check.per_rack) == check.b
    row = rows_for_instance(inst, 1, random.Random(5))[0]
    assert row.check.scheme.node == 1 and not row.check.ok
    assert (row.check.b, row.check.bounds, row.check.ratio) == (check.b, check.bounds, check.ratio)


@pytest.mark.parametrize("params", [
    c1_params(3, 2, 3, 2),
    c2_params(3, 2, 6, (2, 2)),
    c2_params(3, 2, 5, (2, 2)),
    cor7_params(3, 2, 6, 5),
    homogeneous_params(3, 3, 2),
    c2_params(13, 3, 6, (2, 2)),
], ids=["C1", "C2", "C2-remainder", "Cor7", "homogeneous", "C2-q13"])
def test_rank_check_is_the_bandwidth_report(params):
    # every node's rank check carries its bounds, its ratio b / b_min and
    # its per-rack ranks, and a repair run returns that check as its report
    inst = build(params)
    word = random_codeword(inst, random.Random(41))
    for node in range(1, params.n + 1):
        check = verify_rank_condition(inst, node)
        assert check.bounds == bounds(params, node)
        assert check.ratio == Fraction(check.b) / check.bounds.b_min
        assert tuple(b for _, b in check.per_rack) == tuple(len(basis) for basis in check.bases)
        session = RepairSession(inst, check.scheme)
        transcript, report = session.run(word)
        assert report is session.check and report == check and report.payload_map is check.payload_map
        assert (report.b, report.bounds, report.ratio) == (check.b, check.bounds, check.ratio)
        assert report.per_rack == tuple((m.rack, len(m.payload)) for m in transcript.messages)


def test_payload_count_equals_rank_sum():
    inst, scheme = build_verified(c2_params(3, 2, 6, (2, 2)), 3)
    rng = random.Random(13)
    session = RepairSession(inst, scheme)
    transcript, report = session.run(random_codeword(inst, rng))
    payloads = sum(len(m.payload) for m in transcript.messages)
    ev = FamilyEvaluator(inst, scheme)
    ranks = sum(rank_over_base(ev.at(e)).rank for e in range(1, 7) if e != scheme.rack)
    assert payloads == ranks == report.b


def test_bandwidth_is_data_independent():
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 4)
    session = RepairSession(inst, scheme)
    rng = random.Random(17)
    bs = set()
    for _ in range(10):
        _, report = session.run(random_codeword(inst, rng))
        bs.add(report.b)
    assert len(bs) == 1


def test_transcript_structure():
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 3)
    rng = random.Random(19)
    word = random_codeword(inst, rng)
    transcript, report = RepairSession(inst, scheme).run(word)
    assert transcript.host_rack == 2
    assert [m.rack for m in transcript.messages] == [1, 3]
    assert [n for n, _ in transcript.host_symbols] == [4]
    assert report.per_rack == ((1, len(transcript.messages[0].payload)),
                               (3, len(transcript.messages[1].payload)))


def test_repair_wrong_length_codeword():
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 1)
    with pytest.raises(ValueError):
        RepairSession(inst, scheme).run(tuple(inst.field.zero for _ in range(5)))


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _one_run(params=None, node=3):
    inst, scheme = build_verified(params or c1_params(3, 2, 3, 2), node)
    word = random_codeword(inst, random.Random(23))
    return RepairSession(inst, scheme).run(word)


def test_audit_accepts_untampered():
    transcript, report = _one_run()
    result = audit(transcript, report)
    assert result.ok and result.findings == ()


def test_audit_flags_missing_payload_symbol():
    transcript, report = _one_run()
    msg = transcript.messages[0]
    tampered = replace(transcript, messages=(replace(msg, payload=msg.payload[1:]),)
                       + transcript.messages[1:])
    result = audit(tampered, report)
    assert not result.ok
    assert any("payload" in f for f in result.findings)


def test_audit_flags_perturbed_recovery():
    transcript, report = _one_run()
    tampered = replace(transcript, recovered=transcript.recovered + 1)
    result = audit(tampered, report)
    assert not result.ok
    assert any("recovered" in f for f in result.findings)


def test_audit_flags_host_rack_message():
    transcript, report = _one_run()
    bogus = replace(transcript.messages[0], rack=transcript.host_rack)
    tampered = replace(transcript, messages=(bogus,) + transcript.messages[1:])
    assert not audit(tampered, report).ok


def test_recovery_identity_against_dual_codeword():
    # the engine's core identity: for every scheme polynomial g, the dual
    # codeword (lambda_i g(alpha_i)) is orthogonal to the codeword, so the
    # missing term equals minus the sum of the others
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 1)
    rng = random.Random(29)
    word = random_codeword(inst, rng)
    from rackrepair.rs import dual_weights

    lam = dual_weights(inst.code)
    ev = FamilyEvaluator(inst, scheme)
    for idx in (0, len(scheme.descriptors) - 1):
        total = inst.field.zero
        for node in range(1, 7):
            e, _ = inst.code.rack_of(node)
            g_val = ev.at(e)[idx]
            total = total + lam[node - 1] * g_val * word[node - 1]
        assert total.is_zero()


def test_repair_error_carries_transcript():
    inst, scheme = build_verified(c1_params(3, 2, 3, 2), 1)
    word = list(random_codeword(inst, random.Random(31)))
    word[2] = word[2] + 1  # corrupt a helper symbol: recovery must fail hard
    with pytest.raises(RepairError) as err:
        RepairSession(inst, scheme).run(tuple(word))
    assert err.value.transcript is not None
    assert err.value.transcript.recovered != err.value.transcript.expected
