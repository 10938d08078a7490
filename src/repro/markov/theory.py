"""Closed-form reference results from the input-queueing literature.

The paper leans on Karol, Hluchyj & Morgan (GLOBECOM '86): with FIFO
input queues, head-of-line blocking caps an ``n×n`` switch's throughput
well below 1.  These constants give the library an analytic anchor — the
test suite checks that the exact FIFO chains converge to the n = 2 limit
as buffers grow, and that the DAMQ (which has no head-of-line blocking)
exceeds it.

``HOL_SATURATION`` lists the saturation throughputs of saturated FIFO
input queues per switch size (Karol et al., Table I); the sequence
falls towards the ``2 - sqrt(2) ≈ 0.586`` limit of large switches.
"""

from __future__ import annotations

__all__ = ["HOL_SATURATION"]

#: Saturation throughput of an n×n switch with saturated FIFO input
#: queues (Karol/Hluchyj/Morgan 1986, Table I).
HOL_SATURATION: dict[int, float] = {
    1: 1.0000,
    2: 0.7500,
    3: 0.6825,
    4: 0.6553,
    5: 0.6399,
    6: 0.6302,
    7: 0.6234,
    8: 0.6184,
}

