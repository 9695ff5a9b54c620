"""Property test over q in {2, 5, 7, 13}: every construction either rejects
its parameters with ValueError or builds a code in which every node passes
the rank check, a compiled repair of a drawn node equals the
field-arithmetic reference and passes the audit, and a drawn k-subset of
the codeword erasure-decodes back to it.

Sub-packetization is capped at l = 64 so that each field builds in about a
second; the example count is capped and derandomized, so the run is the
same every time.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from repair_oracle import reference_repair

from rackrepair.cli import ExperimentConfig, params_from_config, random_codeword
from rackrepair.constructions import build, verify_rank_condition
from rackrepair.repair import RepairSession, audit
from rackrepair.rs import encode, erasure_decode

MAX_L = 64


@st.composite
def configs(draw):
    """Small codes of every mode with l <= 64.  A quarter of the draws take
    nbar one below its first valid value, Cor7 also draws rbar = 3, and
    homogeneous draws u like the others: those must raise ValueError."""
    q = draw(st.sampled_from((2, 5, 7, 13)))
    u = draw(st.sampled_from([d for d in range(1, 5) if (q - 1) % d == 0]))
    mode = draw(st.sampled_from(("C1", "C2", "Cor7", "homogeneous")))
    rbar = primes = None
    if mode == "C2":
        primes, nbar = (2, 2), draw(st.integers(5, 6))
    elif mode == "Cor7":
        rbar, nbar = draw(st.sampled_from((5, 3))), 6
    else:
        rbar, nbar = 2, draw(st.integers(3, 6))
    nbar -= draw(st.sampled_from((0, 0, 0, 1)))
    return ExperimentConfig(mode=mode, q=q, u=u, nbar=nbar, rbar=rbar, primes=primes,
                            v=draw(st.integers(0, u - 1)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(config=configs(), data=st.data())
def test_every_construction_repairs_exactly(config, data):
    try:
        params = params_from_config(config)
    except ValueError:
        return
    assert params.l <= MAX_L
    inst = build(params)
    checks = [verify_rank_condition(inst, node) for node in range(1, params.n + 1)]
    assert [c.rank for c in checks] == [params.l] * params.n
    node = data.draw(st.integers(1, params.n), label="node")
    scheme = checks[node - 1].scheme
    word = random_codeword(inst, random.Random(data.draw(st.integers(0, 2**16), label="seed")))
    transcript, report = RepairSession(inst, scheme).run(word)
    messages, recovered = reference_repair(inst, scheme, word)
    assert tuple((m.rack, m.payload) for m in transcript.messages) == messages
    assert transcript.recovered == recovered == word[node - 1]
    assert audit(transcript, report).ok
    subset = data.draw(st.permutations(range(1, params.n + 1)), label="subset")[: params.k]
    decoded = erasure_decode([(p, word[p - 1]) for p in subset], inst.code)
    assert encode(decoded, inst.code) == word
