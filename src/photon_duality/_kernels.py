"""Hot inner loop of the likelihood-maximizing reconstruction.

The iteration is the R rho R fixed point (Rehacek, Hradil, Knill & Lvovsky,
PRA 75, 042108, 2007), run on a factor t of the state,
rho = t t^H / Tr(t t^H).  The reweighting operator R, built from observed
frequencies, is Hermitian, so the plain step t -> R t gives R rho R, and rho
is positive semidefinite by construction.  No step is required to raise the
likelihood: what the loop vouches for is the certificate below, not a
monotone path.

The fixed point converges slowly toward the rank-deficient optima of nearly
pure states, so the loop runs SQUAREM cycles (Varadhan & Roland, Scand. J.
Stat. 35, 335, 2008): two plain steps t -> t1 -> t2, an extrapolation
x = t - 2 a r + a^2 v with r = t1 - t, v = t2 - 2 t1 + t and
a = min(-|r| / |v|, -1), and one plain step from x, kept only when its
likelihood is not below that of t2.  R rho R shrinks the vanishing
eigenvalues of such optima only geometrically, so a cycle with four map
applications left opens with one projected-gradient step (Shang, Zhang & Ng,
PRA 95, 062336, 2017): rho + eta R / Tr(R rho) with its eigenvalues projected
onto the unit simplex (Duchi et al., ICML 2008), which zeroes the small ones.
No other step brings a zeroed direction back, so the step is kept only when
it raises the likelihood and R at its state favours no zeroed direction;
eta starts at 1, doubles on a kept step and halves otherwise.

The log-likelihood ll(rho) = sum_k n_k log p_k is concave, so every iterate
carries the bound ll* - ll <= lambda_max(G) - Tr(G rho), where
G = sum_k (n_k / p_k) P_k is its gradient (Glancy, Knill & Girard, New J.
Phys. 14, 095017, 2012).  The R the iteration builds is G over the mean
shots per setting, so lambda_max(R) / Tr(R rho) - 1 is that bound per count
(Tr(G rho) = N, the total count).  That bound is loose near rank-deficient
optima, so below ``DUAL_GATE`` times the stop the loop also tries weak
Lagrange duality: log x <= x - 1 gives ll* <= lambda_max(sum_k w_k P_k) +
sum_{n_k > 0} n_k log(n_k / w_k) - N for any w >= 0 positive wherever n_k
is, the gradient bound at w = n / p.  It takes w = n / p + delta, the least
(p^2 / n)-weighted delta that moves to N each eigenvalue of G above N or in
rho's support (one solve in ``design``'s Hermitian coordinates).  The lower
bound per count, ``gap``, is the loop's one stop rule: it stops at
``gap < tol`` for the per-count ``tol`` it is given, and ``gap`` times N is
a certified shortfall in nats.
``tomography.mle_reconstruct`` takes a total shortfall in nats (default
0.015) and hands the loop that over N: 1e-8 at 1e5 shots per setting (and
so for exact records), 2.5e-7 at 4000.  A stop below ``_ULP_SLACK`` is
finer than the certificate resolves: the loop stops there all the same but
never reports ``converged``.

The (K, n, n) stack of Hermitian outcome projectors is read as a real
(K, 2 n^2) matrix A over the interleaved real and imaginary parts of each
entry.  Since P is Hermitian, Re Tr(P rho) = sum_ab Re(conj(P_ab) rho_ab),
so the K model probabilities are one matrix-vector product ``A @ rho`` and
the reweighting operator sum_k w_k P_k is another, ``A.T @ w``.  The loop
starts, at no map application's cost, from the projected linear-inversion
state (Smolin, Gambetta & Smith, PRL 108, 070502, 2012): rho = A^+ f, A^+
built once per stack, its eigenvalues projected onto the unit simplex and
mixed with ``START_MIX`` of I / n.
"""

from __future__ import annotations

import math

import numpy as np

# Model probabilities are floored here before dividing or taking logs.
P_FLOOR = 1e-12
# Weight of I / n mixed into the projected linear-inversion start, so that
# no direction starts at zero, where only a projected step could revive it
# (map applications on the 14 `sweep` inputs: 280 at 0, 256 at 1e-4).
START_MIX = 1e-4
# Cap on the projected step's eta (at most 512 on shipped inputs; uncapped
# it passed 2^53 on some, where the simplex shift loses the 1 to rounding).
ETA_MAX = 2.0**20
# The dual bound is tried while stop <= gradient bound < DUAL_GATE stop (14
# `sweep` inputs: 136 map applications, 12 tries; at 1e4, 120 and 32).
DUAL_GATE = 1e3
# An eigenvector of G carrying more of rho than this is in rho's support.
SUPPORT = 1e-4
# An extrapolated step whose likelihood is within this many ulps of the plain
# step's counts as no worse: near convergence the true difference drops below
# what float64 can resolve.  A per-count stop below it is finer than the
# certificate resolves.
_ULP_SLACK = 16.0 * 2.220446049250313e-16


def design(projs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(A, A^+, C, j), read-only; build once per stack.  A is the (K, n, n)
    complex projector stack as the real (K, 2 n^2) matrix, A^+ its
    pseudo-inverse and C = A[:, j] its (K, n^2) coordinates on n x n
    Hermitian matrices X, read as Re X_ab (a <= b) and Im X_ab (a < b)."""
    projs = np.ascontiguousarray(projs, dtype=np.complex128)
    rows = projs.reshape(projs.shape[0], -1).view(np.float64)
    upper = np.triu(np.ones(projs.shape[1:]))  # Re at a <= b, Im at a < b
    index = np.flatnonzero(np.stack([upper, np.triu(upper, 1)], axis=-1))
    model = (rows, np.linalg.pinv(rows), rows[:, index], index)
    for x in model:
        x.setflags(write=False)
    return model


def _simplex_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of Hermitian ``a`` and its eigenvalues projected onto the
    unit simplex (sort-based, Duchi et al., ICML 2008), ascending."""
    w, vecs = np.linalg.eigh(a)
    # The last j with u_j j > sum(u[:j]) - 1, u descending (j = 1 always).
    total = 0.0
    for j, u in enumerate(w.tolist()[::-1], 1):
        total += u
        if j == 1 or u * j > total - 1.0:
            shift = (total - 1.0) / j
    return np.maximum(w - shift, 0.0), vecs


def _probabilities(rows: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Model probabilities Re Tr(P_k rho), floored at ``P_FLOOR``."""
    p = rows @ rho.reshape(-1).view(np.float64)
    return np.maximum(p, P_FLOOR, out=p)


def _log_likelihood(counts: np.ndarray, p: np.ndarray) -> float:
    """sum_k counts_k log p_k; p is floored, so zero counts add exactly 0."""
    return float(counts @ np.log(p))


def mle_loop(model, counts, freqs, max_iter: int, tol: float):
    """Run the accelerated fixed-point iteration from the projected
    linear-inversion state.

    model:  ``design`` of the (K, n, n) stacked Hermitian outcome projectors.
    counts: (K,) observed counts (log-likelihood weights).
    freqs:  (K,) counts over the mean shots per setting (reweighting
            numerators, so that R is the likelihood's gradient up to scale).
    Returns (rho, iterations, log_likelihood, gap, converged).

    ``iterations`` counts applications of the map t -> R t, the extrapolated
    and projected ones included.  A cycle needs three, plus one for its
    projected step, so with fewer than three left in the budget the loop
    takes plain steps only (``max_iter <= 2`` is the plain iteration),
    ``max_iter = 3`` is one cycle without the projected step and
    ``max_iter = 0`` returns the start.  Each cycle builds R at its
    starting state once, for the projected step, the first plain step and
    the certificate ``gap = max(lambda_max(R) / Tr(R rho) - 1, 0)`` (one
    n x n ``eigvalsh``), and again after a projected step that raises the
    likelihood, to test its zeroed directions.  While ``tol <= gap <
    DUAL_GATE * tol`` the lower dual bound replaces it (an ``eigh``, a
    16 x 16 solve and an ``eigvalsh`` at n = 4); the loop stops when
    ``gap < tol``.  ``gap`` is returned for the returned state and
    ``converged``, a bool, is ``gap < tol`` with ``tol >= _ULP_SLACK``;
    ``tol = 0.0`` runs the whole budget.
    """
    rows, inverse, coords, index = model
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    n = math.isqrt(rows.shape[1] // 2)
    total = freqs.sum()  # Tr(R rho) where no p is floored
    seen = freqs > 0.0

    def unit(t):
        return t * (1.0 / math.sqrt(np.vdot(t, t).real))

    def point(t):
        # (t, rho, p, ll) for the factor t, scaled to unit Frobenius norm.
        t = unit(t)
        rho = t @ t.conj().T
        p = _probabilities(rows, rho)
        return t, rho, p, _log_likelihood(counts, p)

    def reweighting(p):
        # R = sum_k (freqs_k / p_k) P_k.
        return ((freqs / p) @ rows).view(np.complex128).reshape(n, n)

    def certificate(r, cur, rt):
        # lambda_max(R) / Tr(R rho) - 1 at rho = t t^H, floored at 0; while
        # the gate is open, the dual bound at w = f / p + delta (module
        # docstring) in its place where lower and valid (w_k > 0 where f_k > 0).
        t, _, p, _ = cur
        gap = max(float(np.linalg.eigvalsh(r)[-1] / np.vdot(t, rt).real) - 1.0, 0.0)
        if not tol <= gap < DUAL_GATE * tol:
            return gap
        g, vecs = np.linalg.eigh(r)
        carried = np.square(np.abs(vecs.conj().T @ t)).sum(axis=1)
        shift = (vecs * np.where((g > total) | (carried > SUPPORT), total - g, 0.0)) @ vecs.conj().T
        weight = freqs / (p * p)
        e = shift.reshape(-1).view(np.float64)[index]
        try:  # delta = weight y: least in the (p^2 / f)-norm with sum_k delta_k P_k = shift
            y = coords @ np.linalg.solve((coords.T * weight) @ coords, e)
        except np.linalg.LinAlgError:
            return gap
        x = y[seen] / p[seen]  # w_k = (f_k / p_k) (1 + x_k); delta_k = 0 where f_k = 0
        if not x.min() > -1.0:
            return gap
        w = freqs / p + weight * y
        lam = np.linalg.eigvalsh((w @ rows).view(np.complex128).reshape(n, n))[-1]
        return max(min(gap, float(lam - freqs[seen] @ np.log1p(x)) / total - 1.0), 0.0)

    def extrapolated(t, t1, t2):
        # One plain step from the SQUAREM point of the plain path t -> t1 -> t2.
        r = t1 - t
        v = t2 - t1 - r
        norm_v = math.sqrt(np.vdot(v, v).real)
        alpha = min(-math.sqrt(np.vdot(r, r).real) / norm_v, -1.0) if norm_v > 0.0 else -1.0
        x = unit(t - 2.0 * alpha * r + alpha * alpha * v)
        return point(reweighting(_probabilities(rows, x @ x.conj().T)) @ x)

    def projected(rho, r, eta):
        # The projected-gradient step's point and the eigenvectors whose
        # lambda it sets to 0.
        lam, vecs = _simplex_eigh(rho + (eta / total) * r)
        return point(vecs * np.sqrt(lam)), vecs[:, lam == 0.0]

    # The least-squares rho of the frequencies, its Hermitian part projected
    # onto the states and mixed with START_MIX of I / n: no map application.
    ls = (inverse @ freqs).view(np.complex128).reshape(n, n)
    lam, vecs = _simplex_eigh(0.5 * (ls + ls.conj().T))
    cur = point(vecs * np.sqrt((1.0 - START_MIX) * lam + START_MIX / n))
    iterations = 0
    eta = 1.0
    while True:
        r = reweighting(cur[2])
        rt = r @ cur[0]
        gap = certificate(r, cur, rt)
        if gap < tol or iterations >= max_iter:
            break
        if max_iter - iterations >= 4:
            cand, zeroed = projected(cur[1], r, eta)
            iterations += 1
            eta *= 0.5  # and 4x back if kept: eta doubles on a kept step
            if cand[3] > cur[3]:  # kept if v^H R v <= Tr(R rho) for zeroed v
                r1 = reweighting(cand[2])
                rt1 = r1 @ cand[0]
                nul = zeroed.conj().T @ r1 @ zeroed
                if not nul.size or np.linalg.eigvalsh(nul)[-1] <= np.vdot(cand[0], rt1).real:
                    cur, r, rt, eta = cand, r1, rt1, min(4.0 * eta, ETA_MAX)
        full_cycle = max_iter - iterations >= 3
        t1 = point(rt)
        iterations += 1
        if not full_cycle:
            cur = t1
            continue
        t2 = point(reweighting(t1[2]) @ t1[0])
        iterations += 1
        cand = extrapolated(cur[0], t1[0], t2[0])
        iterations += 1
        cur = cand if cand[3] >= t2[3] - _ULP_SLACK * (1.0 + abs(t2[3])) else t2
    return cur[1], iterations, cur[3], gap, bool(_ULP_SLACK <= tol and gap < tol)
