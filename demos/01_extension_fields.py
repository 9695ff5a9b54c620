#!/usr/bin/env python3
# A tour of the exact field layer: build GF(3^8), look at its certified
# primitive element, and reconstruct an element from nothing but traces.

import random

import numpy as np

from rackrepair import GF, rank_over_base

field = GF(3, 8)
print("field:", field.describe())
print("order q^l - 1 =", field.order, "factors", field.order_factorization)

# zeta is certified primitive: zeta^((q^l-1)/p) != 1 for every prime factor p
zeta = field.zeta
print("zeta =", zeta, "order =", field.order)

# the trace maps F onto B and is B-linear; it is the only thing a helper
# node ever has to send
a = field.element([1, 0, 2, 0, 0, 1, 0, 2])
print("tr(a) =", field.trace(a))

# powers of zeta form a basis; its dual basis (row j holds mu_j's
# coefficients) turns trace profiles back into field elements
basis = [zeta**i for i in range(field.l)]
print("rank of the power basis:", rank_over_base(basis).rank)
mu = field.dual_basis(basis)

rng = random.Random(0)
secret = field.random_element(rng)
profile = [field.trace(z * secret) for z in basis]
print("trace profile:", profile)
rebuilt = field.element(np.array(profile) @ mu % field.q)  # sum_j profile[j] mu_j
print("reconstruction exact:", rebuilt == secret)
