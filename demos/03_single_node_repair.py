#!/usr/bin/env python3
# End-to-end single-node repair on the small basic instance: 6 nodes in 3
# racks over GF(3^8).  Shows what each helper rack actually transmits and
# how the bandwidth accounting squares with the bounds.

import random

from rackrepair import (
    RepairSession,
    audit,
    build,
    c1_params,
    encode,
    verify_rank_condition,
)

params = c1_params(q=3, u=2, nbar=3, rbar=2)
inst = build(params)
print(f"n={params.n} k={params.k} l={params.l} racks={params.nbar}x{params.u}")
# node j of rack e sits at zeta^(weight e) * alpha^j
print("rack exponents:", inst.radix.weights, "alpha:", inst.alpha)

# pick a node, check the rank condition, then erase and repair it
node = 3
check = verify_rank_condition(inst, node)
print(f"node {node}: rank over B of the evaluated family = {check.rank} (need {params.l})")

rng = random.Random(7)
message = [inst.field.random_element(rng) for _ in range(params.k)]
codeword = encode(message, inst.code)

session = RepairSession(inst, check.scheme)
transcript, report = session.run(codeword)

print(f"host rack {transcript.host_rack}; local survivors send full symbols (free):")
for nid, sym in transcript.host_symbols:
    print(f"  node {nid}: {sym}")
print("cross-rack messages (these are the bandwidth):")
for msg in transcript.messages:
    print(f"  rack {msg.rack}: b_e={len(msg.payload)} residues  payload={msg.payload}")

print(f"recovered == erased: {transcript.recovered == codeword[node - 1]}")
print(f"b={report.b}  cut-set b_min={report.bounds.b_min}  "
      f"upper={report.bounds.upper} ({report.bounds.case})  "
      f"ratio={float(report.ratio):.4f}")
print("audit:", audit(transcript, report))
