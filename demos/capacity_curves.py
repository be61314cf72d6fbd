#!/usr/bin/env python3
"""Capacity of the depolarizing channel for quantum and classical use.

For each error rate p the input bias q is optimized by a grid pass plus
golden-section refinement.  The optimizer lands on q = 1/2 (the symmetric
point) everywhere, and the values match the closed forms
2 - H2(p) - p log2(3) and 1 - H2(2p/3).
"""

import numpy as np

from vncap.analysis import maximize_scalar_on_unit_interval
from vncap.depolarizing import (
    DepolParams,
    analytic_transcript,
    classical_capacity,
    classical_use_transcript,
    quantum_capacity,
)

print("p      quantum   closed    classical closed    argmax_q")
for p in np.arange(0.0, 0.7501, 0.125):
    quantum = maximize_scalar_on_unit_interval(
        lambda q: analytic_transcript(DepolParams(p, q)).mutual_entanglement
    )
    classical = maximize_scalar_on_unit_interval(
        lambda q: classical_use_transcript(DepolParams(p, q))[0]
    )
    print(
        f"{p:.3f}  {quantum.value:8.5f}  {quantum_capacity(p):8.5f}  "
        f"{classical.value:8.5f}  {classical_capacity(p):8.5f}  {quantum.argmax_q:.6f}"
    )

print()
print("the quantum curve starts at 2 bits (noiseless, entangled use),")
print("the classical curve at 1 bit, and both vanish at p = 3/4.")

# Where does the quantum capacity drop below one bit?  That is the point
# beyond which superdense coding loses to sending the bit directly.
from vncap.depolarizing import superdense_threshold

print()
print(f"quantum capacity crosses 1 bit at p = {superdense_threshold():.6f}")
