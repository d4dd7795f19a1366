"""Hot inner loop of the likelihood-maximizing reconstruction.

The iteration is the diluted R rho R fixed point (Rehacek, Hradil, Knill &
Lvovsky, PRA 75, 042108, 2007): it sandwiches the state between reweighting
operators built from observed frequencies (R rho R, renormalized), falling
back to a diluted step (I + eps R) rho (I + eps R) whenever the full step
would lower the likelihood; only improving steps are ever accepted.

The (K, n, n) stack of Hermitian outcome projectors is read as a real
(K, 2 n^2) matrix A over the interleaved real and imaginary parts of each
entry.  Since P is Hermitian, Re Tr(P rho) = sum_ab Re(conj(P_ab) rho_ab),
so the K model probabilities are one matrix-vector product ``A @ rho`` and
the reweighting operator sum_k w_k P_k is another, ``A.T @ w``.
"""

from __future__ import annotations

import numpy as np

# Model probabilities are floored here before dividing or taking logs.
P_FLOOR = 1e-12
# Dilution retreats by halving eps from 0.5 down to this before giving up.
EPS_MIN = 1e-8
# Steps whose likelihood change is within this many ulps of the current
# log-likelihood count as non-decreasing: near convergence the true (always
# non-negative) gain of a full step drops below what float64 can resolve,
# and rejecting such steps would freeze the state short of the optimum.
_ULP_SLACK = 16.0 * 2.220446049250313e-16


def _real_rows(projs: np.ndarray) -> np.ndarray:
    """(K, n, n) complex projector stack as the real (K, 2 n^2) matrix A."""
    projs = np.ascontiguousarray(projs, dtype=np.complex128)
    return projs.reshape(projs.shape[0], -1).view(np.float64)


def _probabilities(rows: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Model probabilities Re Tr(P_k rho), floored at ``P_FLOOR``."""
    p = rows @ rho.reshape(-1).view(np.float64)
    return np.maximum(p, P_FLOOR, out=p)


def _log_likelihood(counts: np.ndarray, p: np.ndarray) -> float:
    """sum_k counts_k log p_k; p is floored, so zero counts add exactly 0."""
    return float(counts @ np.log(p))


def log_likelihood(projs: np.ndarray, counts: np.ndarray, rho: np.ndarray) -> float:
    """Log-likelihood of ``rho`` for ``counts``, as ``mle_loop`` computes it."""
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    counts = np.asarray(counts, dtype=np.float64)
    return _log_likelihood(counts, _probabilities(_real_rows(projs), rho))


def mle_loop(projs, counts, freqs, rho0, max_iter: int, tol: float):
    """Run the fixed-point iteration from ``rho0``.

    projs:  (K, n, n) stacked Hermitian outcome projectors.
    counts: (K,) observed counts (log-likelihood weights).
    freqs:  (K,) per-setting outcome frequencies (reweighting numerators).
    rho0:   (n, n) starting state.
    Returns (rho, iterations, log_likelihood, converged).
    """
    rows = _real_rows(projs)
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    n = rho0.shape[0]
    eye = np.eye(n, dtype=np.complex128)

    def sandwich(op, rho):
        # (c + c^H) / Tr(c + c^H): the Hermitian part of c at unit trace.
        cand = op @ rho @ op
        cand += cand.conj().T
        cand /= cand.trace().real
        return cand

    rho = np.array(rho0, dtype=np.complex128)
    p = _probabilities(rows, rho)
    ll = _log_likelihood(counts, p)
    iterations = 0
    converged = False
    for iterations in range(1, int(max_iter) + 1):
        slack = _ULP_SLACK * (1.0 + abs(ll))
        reweight = (rows.T @ (freqs / p)).view(np.complex128).reshape(n, n)
        cand = sandwich(reweight, rho)
        p_cand = _probabilities(rows, cand)
        ll_cand = _log_likelihood(counts, p_cand)
        if ll_cand < ll - slack:
            eps = 0.5
            improved = False
            while eps >= EPS_MIN:
                cand = sandwich(eye + eps * reweight, rho)
                p_cand = _probabilities(rows, cand)
                ll_cand = _log_likelihood(counts, p_cand)
                if ll_cand >= ll - slack:
                    improved = True
                    break
                eps *= 0.5
            if not improved:
                converged = True  # no admissible step improves: gain is below tol
                break
        gain = max(ll_cand - ll, 0.0)
        rho, p, ll = cand, p_cand, ll_cand
        if gain < tol:
            converged = True
            break
    return rho, iterations, ll, converged
