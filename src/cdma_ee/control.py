"""Verhulst power allocation with outage removal and the max-power baseline.

Three schemes share one inner loop:

* ``alg1`` removes, round by round, the worst-gain user whose achieved SINR
  stays below its EE-optimal target;
* ``alg2`` removes such a user only if it also misses its minimum rate;
* ``baseline`` never removes anyone, so users that cannot reach their target
  sit at the maximum transmit power.

Each round starts from ``power = noise_power`` for the surviving users, runs
the synchronous update

    p <- clamp((1 + a) p - a (sinr/target) p, [0, max_power])

and re-solves the EE-optimal target from the current effective interference
as it goes (every iteration under the matched filter, where interference moves
with the powers; once per round under the decorrelator, whose SINR does not
depend on the other powers).  Its results equal those of the configured number
of iterations: a realization whose loop state repeats exactly is periodic from
there on, so it runs on only to the step at the last iteration's phase of the
cycle and leaves there.

The loop is written over batches of same-sized realizations.  All maths is
element-wise or per-row (the one sum over users, the matched-filter MAI, runs
at ``mf_width``), so each realization's trajectory, and the iteration at
which it stops, is bit-identical no matter how realizations are grouped into
batches or split across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .channel import check_gain_power
from .errors import ConfigurationError, ReceiverUnavailableError
from .metrics import EEParams, rate
from .optimize import solve_optimal_sinr_batch
from .scenario import RECEIVERS
from .spreading import _mf_sinr, dec_eff_interference, mf_mai_weights

ALGORITHMS = ("alg1", "alg2", "baseline")

# Inner loops stop after a fixed iteration count, so targets are never met
# exactly; 1% separates cap-limited users from nearly-converged ones.
REMOVAL_SINR_REL_TOL = 1e-2
POWER_STABLE_REL_TOL = 1e-6
SINR_STABLE_REL_TOL = 1e-6
# A round checks each row's loop state against an anchor saved every this many
# iterations, so a cycle of period up to this length is found within two
# windows of its start; the row then runs at most one more period.
REPEAT_WINDOW = 16
# Matrix entries per stacked decorrelator inverse; bounds the stack and its temporaries.
DEC_BLOCK_VALUES = 1 << 15
# Matched-filter MAI sums run over a multiple of this many users (see mf_width).
MF_WIDTH_STEP = 8


@dataclass
class BatchControlResult:
    """Stacked outcome arrays for a batch of same-sized realizations."""

    power: np.ndarray
    sinr: np.ndarray
    target_sinr: np.ndarray
    eff_interference: np.ndarray
    active: np.ndarray
    removed: list[list[int]]
    rounds: np.ndarray
    converged: np.ndarray
    stabilized_iteration: np.ndarray  # -1 where SINRs never settled
    target_flagged: np.ndarray
    failed: np.ndarray
    iterations_run: np.ndarray  # Verhulst iterations each row ran, over all rounds
    failure_reasons: dict[int, str] = field(default_factory=dict)

    def part(self, rows: slice, users: int) -> BatchControlResult:
        """The outcome of ``rows`` (a slice with a start and a stop) over their first ``users``."""
        values = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "failure_reasons":
                value = {b - rows.start: why for b, why in value.items() if rows.start <= b < rows.stop}
            else:
                value = value[rows]
                if isinstance(value, np.ndarray) and value.ndim == 2:
                    value = value[:, :users]
            values[f.name] = value
        return BatchControlResult(**values)


def mf_width(users: int) -> int:
    """Users a matched-filter batch of ``users`` sums its MAI over, with zero
    weights past its users: NumPy's sum over a row of K users has the same
    bytes at every zero-padded width from ``8 * ceil(K / 8)`` up, so a row
    gives the same values in a batch of K users and in one of more."""
    return -(-users // MF_WIDTH_STEP) * MF_WIDTH_STEP


def verhulst_step(power, sinr, target_sinr, alpha, max_power):
    """One synchronous Verhulst update toward per-user SINR targets.

    Users with a zero target are switched off; everyone else is clamped to
    [0, max_power].  The update has its fixed point at sinr == target, and a
    user at p = 0 with a positive target stays there, which is why the loops
    initialize powers at the (positive) noise floor.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    power, sinr, target_sinr = np.broadcast_arrays(power, sinr, target_sinr)
    return _verhulst(power, sinr, *_switches(target_sinr), alpha, max_power)


def _switches(target_sinr):
    """The update's SINR divisor, 1 where a target is not positive, and its off users or None."""
    off = ~(target_sinr > 0.0)
    return np.where(off, 1.0, target_sinr), (off if off.any() else None)


def _verhulst(power, sinr, divisor, off, alpha, max_power):
    """``verhulst_step`` of same-shape operands, given ``_switches``, in its own temporaries."""
    drop = sinr / divisor
    drop *= alpha
    drop *= power  # alpha * (sinr / target) * power, rounded as written out
    updated = np.multiply(power, 1.0 + alpha, out=np.empty(power.shape))
    updated -= drop
    np.clip(updated, 0.0, max_power, out=updated)
    if off is not None:
        updated[off] = 0.0
    return updated


def _settled(sinr, prev_sinr):
    """Rows whose SINRs all moved by less than ``SINR_STABLE_REL_TOL``."""
    shift = sinr - prev_sinr  # in place below: this runs on every iteration
    np.divide(np.abs(shift, out=shift), np.maximum(prev_sinr, 1e-300), out=shift)  # SINRs >= 0
    return (shift < SINR_STABLE_REL_TOL).all(axis=1)  # a NaN shift is unsettled


def _batch_round(
    gain_power,
    weights,
    dec_itf,
    active,
    params: EEParams,
    iterations,
    alpha,
    initial_power,
    trajectory=None,
):
    """One Verhulst round of ``iterations`` steps over a sub-batch; no removals here.

    Under the matched filter ``weights`` holds the MAI weights; under the
    decorrelator it is None and ``dec_itf`` holds the fixed effective
    interference (1.0 for inactive users, whose powers stay +0.0).

    A row's loop state is its powers alone: its targets are fixed for the
    round or re-solved from the effective interference, a function of the
    powers.  Every ``REPEAT_WINDOW`` iterations the powers are saved as an
    anchor.  A row whose powers at step s repeat its anchor's bytes after P
    steps is periodic from the anchor on, so it runs on to the first step
    after s that lies a whole number of periods before ``iterations``: there
    its powers, targets and last movement equal those of the last iteration,
    and it leaves.  Its settling iteration moves on by the skipped periods if
    the settled run began inside the last period.  ``trajectory`` turns the
    check off, so every row runs every iteration, and collects the powers
    after each.  Returns the final state with the iterations each row ran.
    """
    batch, users = gain_power.shape
    noise = params.noise_power
    padded = None if weights is None else np.zeros((batch, weights.shape[-1]))

    def observe(power, inputs):
        gain, mai_weights, itf, _ = inputs
        if mai_weights is None:
            return power / itf, itf
        return _mf_sinr(power, gain, mai_weights, noise, padded[: len(power)])  # see mf_width

    def take(arrays, rows):
        return tuple(None if a is None else a[rows] for a in arrays)

    power = np.where(active, initial_power, 0.0)
    targets = np.zeros((batch, users))
    flagged = np.zeros(batch, dtype=bool)
    final_power, final_targets = (np.empty((batch, users)) for _ in range(2))
    stabilized, ran = (np.empty(batch, dtype=int) for _ in range(2))
    last_change = np.empty(batch)

    # Live rows (indices into the sub-batch) and their compacted inputs and state.
    live = np.arange(batch)
    everyone = inputs = (gain_power, weights, dec_itf, active)
    active_row = np.nonzero(active)[0]  # the live row of each active user, in mask order
    stab = np.full(batch, -1, dtype=int)
    stop = np.full(batch, iterations)  # the step after which each row leaves
    period = np.zeros(batch, dtype=int)  # 0 until the row repeats its anchor
    prev_sinr = anchor = None

    for it in range(iterations):
        sinr, eff_itf = observe(power, inputs)
        if it == 0 or weights is not None:
            act = inputs[3]  # only active users are solved
            targets[act], no_interior = solve_optimal_sinr_batch(eff_itf[act], params)
            flagged[live[active_row[no_interior]]] = True
            divisor, off = _switches(targets)  # fixed for a decorrelator round

        updated = _verhulst(power, sinr, divisor, off, alpha, params.max_power)
        if prev_sinr is not None:
            settled = _settled(sinr, prev_sinr)
            stab = np.where(settled, np.where(stab < 0, it, stab), -1)
        step = it + 1  # the state after this iteration is state `step`
        if trajectory is not None:
            trajectory.append(updated)

        leaving = stop == step
        if leaving.any():
            left = live[leaving]
            final_power[left] = updated[leaving]
            final_targets[left] = targets[leaving]
            was = power[leaving]  # each row's largest movement, relative to a noise floor
            last_change[left] = (np.abs(updated[leaving] - was) / np.maximum(was, noise)).max(1)
            settled_from = stab[leaving]
            late = settled_from > step - period[leaving]
            stabilized[left] = np.where(late, settled_from + iterations - step, settled_from)
            ran[left] = step
            keep = ~leaving
            live = live[keep]
            if live.size == 0:
                break
            inputs = take(inputs, keep)
            active_row = np.nonzero(inputs[3])[0]
            updated, targets, sinr, stab, stop, period, anchor, divisor, off = take(
                (updated, targets, sinr, stab, stop, period, anchor, divisor, off), keep
            )
        prev_sinr = sinr
        power = updated
        if trajectory is not None or not REPEAT_WINDOW <= step < iterations:
            continue

        slot = step % REPEAT_WINDOW
        if step > REPEAT_WINDOW:
            same = (power.view(np.int64) == anchor.view(np.int64)).all(axis=1)  # same bytes
            cycle = slot or REPEAT_WINDOW
            period[same] = cycle
            stop[same] = step + (iterations - step - 1) % cycle + 1
        if slot == 0:
            anchor = power

    sinr, eff_itf = observe(final_power, everyone)
    return final_power, sinr, final_targets, eff_itf, stabilized, last_change, flagged, ran


def _removal_candidates(algorithm, sinr, targets, active, rates, min_rate):
    below = active & (targets > 0.0) & (sinr < targets * (1.0 - REMOVAL_SINR_REL_TOL))
    if algorithm == "alg2":
        below &= rates < min_rate
    return below & (algorithm != "baseline")


def run_control_batch(
    gain_power: np.ndarray,
    correlation: np.ndarray,
    receiver: str,
    algorithm: str,
    params: EEParams,
    iterations: int = 500,
    alpha: float = 0.5,
    initial_power: np.ndarray | None = None,
    resolve_each_iteration: bool = True,
    trajectory: list | None = None,
    active: np.ndarray | None = None,
) -> BatchControlResult:
    """Run one scheme over a batch of same-sized realizations.

    ``gain_power`` is (B, K) and ``correlation`` (B, K, K).  ``active`` (B, K)
    marks the users each row starts with (default: all); the others count as
    removed from the start, though not in ``removed``.  Realizations whose
    decorrelator cannot be built are marked in ``failed`` instead of aborting
    the batch.  Each row's outputs are those of its last round, the first with
    no removal; a refused row, and a row that lost every user, keeps zero
    powers, SINRs, targets and interference and a settling iteration of -1.
    ``trajectory`` (for checks) makes every row run every iteration and
    collects the power array after each iteration of every round.
    ``iterations_run`` counts the iterations each row ran; the results equal
    those of ``iterations`` per round.  Matched-filter targets are always
    re-solved every iteration: ``resolve_each_iteration=False`` is refused.
    """
    if not resolve_each_iteration:
        raise ConfigurationError("matched-filter targets are re-solved every iteration")
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
    if receiver not in RECEIVERS:
        raise ConfigurationError(f"receiver must be one of {RECEIVERS}")
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")

    gain_power = np.asarray(gain_power, dtype=float)
    check_gain_power(gain_power, params.noise_power)
    batch, users = gain_power.shape
    correlation = np.asarray(correlation, dtype=float)
    if correlation.shape != (batch, users, users):
        raise ConfigurationError("correlation must have shape (batch, users, users)")
    # A copy of the caller's mask: removals clear its entries.
    active = np.ones((batch, users), dtype=bool) if active is None else np.array(active, dtype=bool)
    if active.shape != (batch, users):
        raise ConfigurationError("active must have shape (batch, users)")
    weights = None
    if receiver == "mf":
        weights = np.zeros((batch, users, mf_width(users)))
        weights[..., :users] = mf_mai_weights(correlation)
    if not params.noise_power > 0.0:
        raise ConfigurationError("noise_power must be positive")
    start = params.noise_power if initial_power is None else initial_power
    base_power = np.broadcast_to(np.asarray(start, dtype=float), (batch, users))
    if not np.all((base_power >= 0.0) & (base_power < np.inf)):
        raise ConfigurationError("initial_power must be non-negative and finite")

    removed: list[list[int]] = [[] for _ in range(batch)]
    rounds = np.zeros(batch, dtype=int)
    iterations_run = np.zeros(batch, dtype=int)
    failed = np.zeros(batch, dtype=bool)
    failure_reasons: dict[int, str] = {}
    target_flagged = np.zeros(batch, dtype=bool)
    out_power, out_sinr, out_targets, out_itf = (np.zeros((batch, users)) for _ in range(4))
    out_stab, out_change = np.full(batch, -1, dtype=int), np.zeros(batch)

    rows = np.flatnonzero(active.any(axis=1))  # the rows still in play
    while True:
        rounds[rows] += 1
        dec_itf = None
        if receiver == "dec":
            # One stacked inverse per block of rows with the same active count.
            dec_itf = np.ones((batch, users))
            blocks, counts = [], active[rows].sum(axis=1)
            for k in np.unique(counts):
                group, step = rows[counts == k], max(1, DEC_BLOCK_VALUES // (k * k))
                blocks += np.split(group, range(step, group.size, step))
            while blocks:
                block = blocks.pop()
                try:
                    itf = dec_eff_interference(
                        gain_power[block], correlation[block], active[block], params.noise_power
                    )
                except ReceiverUnavailableError as exc:
                    if block.size > 1:  # retried row by row: each refusal keeps its reason
                        blocks += np.split(block, block.size)
                    else:
                        failed[block], failure_reasons[int(block[0])] = True, str(exc)
                    continue
                dec_itf[block[:, None], np.nonzero(active[block])[1].reshape(itf.shape)] = itf
            rows = rows[~failed[rows]]
            dec_itf = dec_itf[rows]
        if rows.size == 0:
            break

        power, sinr, targets, eff_itf, stab, change, flagged, ran = _batch_round(
            gain_power[rows],
            weights[rows] if weights is not None else None,
            dec_itf,
            active[rows],
            params,
            iterations,
            alpha,
            base_power[rows],
            trajectory=trajectory,
        )
        iterations_run[rows] += ran
        target_flagged[rows] |= flagged
        rates = rate(sinr, params.gap(), params.bandwidth)
        below = _removal_candidates(algorithm, sinr, targets, active[rows], rates, params.min_rate)

        last = ~below.any(axis=1)  # no removal candidate: the row's outputs are final
        finish = rows[last]
        out_power[finish], out_sinr[finish] = power[last], sinr[last]
        out_targets[finish], out_itf[finish] = targets[last], eff_itf[last]
        out_stab[finish], out_change[finish] = stab[last], change[last]

        rows, below = rows[~last], below[~last]
        worst = np.argmin(np.where(below, gain_power[rows], np.inf), axis=1)  # lowest index on ties
        active[rows, worst] = False
        for b, w in zip(rows, worst):
            removed[b].append(int(w))
        # A row that lost every user leaves as a valid, flagged empty network.
        rows = rows[active[rows].any(axis=1)]

    converged = ((out_change < POWER_STABLE_REL_TOL) | ~active.any(axis=1)) & ~failed
    return BatchControlResult(
        power=out_power,
        sinr=out_sinr,
        target_sinr=out_targets,
        eff_interference=out_itf,
        active=active,
        removed=removed,
        rounds=rounds,
        converged=converged,
        stabilized_iteration=out_stab,
        target_flagged=target_flagged,
        failed=failed,
        iterations_run=iterations_run,
        failure_reasons=failure_reasons,
    )
