"""Deterministic RNG plumbing.

One master seed drives the whole pipeline; realization r uses the substream
``master_seed + r``, so serial and parallel executions consume identical
draws.  Within a realization, ``scenario.draw_scenario`` gives placement,
fading and codes each their own spawned child stream, which keeps draws for
K users a strict prefix of the draws for K+1 users (common random numbers
across load sweeps).  The harness relies on this prefix property: it draws
each realization once, at the largest K of a run, and runs and hashes every
K on the first K users of that draw (``scenario.scenario_checksum(draw, K)``).
"""


def realization_seed(master_seed: int, realization: int) -> int:
    return master_seed + realization
