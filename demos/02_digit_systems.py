#!/usr/bin/env python3
# Mixed-radix digit systems: how one integer t in [0, l-1] becomes the digit
# vector that decides which repair polynomials exist, and how the multi-base
# weights shrink the sub-packetization.

from rackrepair import RadixSystem, index_set

# the rbar-ary system behind the basic construction: rbar=2, nbar=3 -> l=8
binary = RadixSystem.uniform(2, 3)
for t in range(8):
    print(f"t={t} digits={binary.encode(t)}")  # position 1 first
print("decode((1, 0, 1)) =", binary.decode((1, 0, 1)))

# rack i keeps the polynomials whose i-th digit vanishes: a window of width 1
print("T_2 =", index_set(binary, 2, 1))  # {t : t_2 = 0}

# the multi-base system: rbar = 4 = 2*2 over nbar = 6 racks needs only
# l = 4^3 = 64 instead of 4^6 = 4096
mb = RadixSystem.multi_base((2, 2), 6)
print("multi-base radices:", mb.radices, "capacity:", mb.capacity)

# rack (w, y) sits at flat position w*m + y and carries that position's weight
for w in range(3):
    for y in (1, 2):
        print(f"rack (w={w}, y={y}) -> weight {mb.weights[w * 2 + y - 1]}")

# its index sets zero out m consecutive digits, wrapping on the last block
print("T_{0,1} =", index_set(mb, 1, 2))
print("T_{2,2} =", index_set(mb, 6, 2))  # wrapped window

# the coset identity behind the rank condition: {t + s*d} tiles [0, l-1]
d = mb.weights[0]
ts = index_set(mb, 1, 2)
sums = sorted(t + s * d for t in ts for s in range(4))
print("coset tiling exact:", sums == list(range(64)))
