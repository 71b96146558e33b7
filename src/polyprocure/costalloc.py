"""Allocate a procurement cost across the consumers behind the signal.

Each participant contributes a trajectory d_i; the aggregate e = sum d_i
drives procurement.  Shares are proportional to the projection of d_i onto
e, so aligned consumers pay and counteracting consumers are paid.
"""

from dataclasses import dataclass

import numpy as np

ZERO_ALIGNMENT_TOL = 1e-12
AXIOM_TOL = 1e-9


@dataclass(frozen=True)
class CostShares:
    shares: np.ndarray
    total: float
    axioms: dict


def allocate_cost(participants, e, jss):
    """Shares (d_i . e / ||e||^2) * jss, with an axiom audit attached.

    Participants whose trajectory is orthogonal to the aggregate (within
    ZERO_ALIGNMENT_TOL) get share exactly 0.
    """
    d = np.atleast_2d(np.asarray(participants, dtype=float))
    e = np.asarray(e, dtype=float)
    if d.shape[1] != e.size:
        raise ValueError("participant length differs from the aggregate signal")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("inputs must be finite")
    if not np.isfinite(jss):
        raise ValueError(f"jss must be finite, got {jss}")
    norm_sq = float(e @ e)
    if norm_sq <= 0.0:
        raise ValueError("aggregate signal is zero; shares are undefined")
    align = d @ e
    shares = align / norm_sq * jss
    shares[np.abs(align) <= ZERO_ALIGNMENT_TOL] = 0.0
    axioms = audit_axioms(d, e, shares, jss)
    return CostShares(shares, float(jss), axioms)


def audit_axioms(participants, e, shares, total):
    """Check the four cost-causation axioms for any share vector.

    equity: identical trajectories get identical shares.
    budget_balance: shares sum to the total (checked when sum d_i = e,
    vacuously true otherwise).
    penalty_for_causation / reward_for_mitigation: shares signed like
    d_i . e, with |d_i . e| <= ZERO_ALIGNMENT_TOL exempt.
    """
    d = np.atleast_2d(np.asarray(participants, dtype=float))
    e = np.asarray(e, dtype=float)
    shares = np.asarray(shares, dtype=float)
    align = d @ e

    equity = True
    for i in range(d.shape[0] - 1):
        same = np.all(np.abs(d[i + 1:] - d[i]) <= AXIOM_TOL, axis=1)
        equity &= bool(np.all(np.abs(shares[i + 1:][same] - shares[i]) <= AXIOM_TOL))

    if np.allclose(d.sum(axis=0), e, atol=AXIOM_TOL, rtol=0.0):
        budget = abs(shares.sum() - total) <= AXIOM_TOL
    else:
        budget = True

    causers = align > ZERO_ALIGNMENT_TOL
    mitigators = align < -ZERO_ALIGNMENT_TOL
    penalty = bool(np.all(shares[causers] > -AXIOM_TOL))
    reward = bool(np.all(shares[mitigators] < AXIOM_TOL))

    return {
        "equity": bool(equity),
        "budget_balance": bool(budget),
        "penalty_for_causation": penalty,
        "reward_for_mitigation": reward,
    }
