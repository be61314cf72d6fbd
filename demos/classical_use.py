#!/usr/bin/env python3
"""Classical bits through a quantum channel: three routes to one answer.

A biased classical bit (probability 1 - q of "one") is sent through the
depolarizing channel.  Three independent computations of the mutual
information agree: the closed form built from the joint distribution, the
Kholevo quantity of the two-state output ensemble, and an exact simulation
that purifies the classical record with an ancilla and reads the answer off
a 32-dimensional state.  The mutual information and the classical loss
always add up to the source entropy H2(q).
"""

from vncap.depolarizing import (
    DepolParams,
    build_dilation,
    classical_use_channel_simulation,
    classical_use_ensemble,
    classical_use_transcript,
    kholevo_chi,
)
from vncap.entropy import binary_entropy

print("p     q     closed     kholevo    simulated  mutual+loss  H2(q)")
for p in (0.0, 0.15, 0.3, 0.6):
    for q in (0.2, 0.5):
        params = DepolParams(p, q)
        mutual, loss = classical_use_transcript(params)
        chi = kholevo_chi(*classical_use_ensemble(params))
        sim_mutual, sim_loss = classical_use_channel_simulation(
            build_dilation(params)[0], params.q
        )
        print(
            f"{p:.2f}  {q:.1f}  {mutual:9.6f}  {chi:9.6f}  {sim_mutual:9.6f}"
            f"  {mutual + loss:11.6f}  {binary_entropy(q):.6f}"
        )

print()
print("at q = 1/2 the mutual information is the classical capacity")
print("1 - H2(2p/3): the channel acts on the diagonal exactly like a")
print("symmetric bit flip with probability 2p/3.")
