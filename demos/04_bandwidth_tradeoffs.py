#!/usr/bin/env python3
# The point of the multi-base construction: the same rack profile with far
# smaller sub-packetization, at the cost of a constant-factor bandwidth gap
# that closes as the system grows.

from fractions import Fraction

from rackrepair import c1_params, c2_params, cor7_params
from rackrepair.cli import ExperimentConfig, run_sweep

# sub-packetization at nbar = 6 racks, rbar = 4: basic vs multi-base
basic = c1_params(3, 2, 6, 4)
multi = c2_params(3, 2, 6, (2, 2))
print(f"nbar=6 rbar=4: basic l = {basic.l}  multi-base l = {multi.l}")

# prime rbar = 5 runs the 4 = 2*2 machinery on the same 64-dimensional field
prime = cor7_params(3, 2, 6, 5)
print(f"prime rbar=5: l = {prime.l} (true k = {prime.k}, scheme built for k' = {prime.kprime})")

# measured bandwidth versus the cut-set bound for the multi-base instance
rows = run_sweep(ExperimentConfig(mode="C2", q=3, u=2, nbar=6, primes=(2, 2),
                                  trials=2, seed=1))
print("\nmulti-base instance, one line per node:")
print("node  rack  b    b_min  upper  case  ratio")
for c in (r.check for r in rows):
    print(f"{c.scheme.node:>4}  {c.scheme.rack:>4}  {c.b:>3}  {c.bounds.b_min!s:>5}"
          f"  {c.bounds.upper!s:>5}  {c.bounds.case:>4}  {float(c.ratio):.4f}")

# the basic construction's ratio trend: b/b_min sinks toward 1 as nbar grows
print("\nbasic construction trend at rbar = 2:")
for nbar in (3, 4, 5):
    rows = run_sweep(ExperimentConfig(mode="C1", q=3, u=2, nbar=nbar, rbar=2,
                                      trials=1, seed=2))
    worst = max(r.check.ratio for r in rows)
    print(f"  nbar={nbar}  l={rows[0].params.l:>3}  max b/b_min = {worst} = {float(worst):.4f}")

# at fixed rbar the upper bound (nbar+1)/(nbar-1) * b_min forces the limit
print("\nbound ratio (nbar+1)/(nbar-1):",
      [f"{Fraction(n + 1, n - 1)}" for n in (3, 4, 5, 10, 100)])
