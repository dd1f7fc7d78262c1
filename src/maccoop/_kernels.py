"""Hot numeric kernels: log-det rates, waterfilling, per-antenna dual Newton,
successive-cancellation sweeps, and Gauss-Seidel iterative waterfilling
on the single-user-decoding potential (Yu, Rhee, Boyd & Cioffi, "Iterative
water-filling for Gaussian vector multiple-access channels", IEEE T-IT 2004).

The game kernels take one channel, one budget or cap vector and one
start covariance per block, in the caller's block order.  The SUD sweep
returns one covariance per block in the same order; the cancellation
kernel returns one per decoding suffix it is asked to solve.  A number is
a pooled trace budget (waterfilling); an array holds per-antenna caps
(:func:`pa_maximize`).

Kernels never raise domain errors; they return status flags and the
wrappers in :mod:`maccoop.capacity` / :mod:`maccoop.equilibrium` turn
those into exceptions.  All inputs are float64 and are not mutated.
"""

from __future__ import annotations

import numpy as np

#: The numeric backend; plain numpy is the only one.
BACKEND = "numpy"


def sym(a):
    """Symmetrize (the last two axes); eigen / cholesky routines want exact symmetry."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def logdet_ratio(n0, h, q, j):
    """log det(N0 I + H Q H^T + J) - log det(N0 I + J), natural log.

    Assumes q and j are PSD and n0 > 0; tiny negative results are
    rounded up to zero (the exact value is nonnegative).
    """
    m = h.shape[0]
    base = n0 * np.eye(m) + j
    sig = h @ q @ h.T
    _, ld1 = np.linalg.slogdet(sym(base + sig))
    _, ld0 = np.linalg.slogdet(sym(base))
    return max(ld1 - ld0, 0.0)


def waterfill(h, noise_cov, p_total):
    """Rate-optimal covariance under a trace budget.

    Maximizes log det(noise_cov + H Q H^T) - log det(noise_cov) over
    Q >= 0 with tr(Q) <= p_total by waterfilling across the eigenmodes
    of the noise-whitened channel.  noise_cov must be positive definite.

    Returns (q, rate) with q of shape (w, w).
    """
    w = h.shape[1]
    if p_total <= 0.0:
        return np.zeros((w, w)), 0.0
    ell = np.linalg.cholesky(sym(noise_cov))
    white = np.linalg.solve(ell, h)
    _, s, vt = np.linalg.svd(white, full_matrices=False)
    gains = s * s
    if gains[0] <= 0.0:
        return np.zeros((w, w)), 0.0
    # water level: largest active set k with mu_k above the weakest
    # included mode's inverse gain (gains sorted descending by svd); none
    # when the budget is below rounding
    inv = 1.0 / gains[gains > 1e-15 * gains[0]]
    mu_try = (p_total + inv.cumsum()) / np.arange(1, inv.size + 1)
    active = np.flatnonzero(mu_try > inv)
    if active.size == 0:
        return np.zeros((w, w)), 0.0
    k = active[-1] + 1
    mu = mu_try[k - 1]
    modes = vt[:k]
    q = (modes.T * (mu - inv[:k])) @ modes
    return sym(q), np.log(gains[:k] * mu).sum()  # = sum log(1 + gains*power)


def waterfill_stack(h, noise_cov, p_total):
    """:func:`waterfill` over a stack of problems of one shape.

    ``h`` is (B, m, w), ``noise_cov`` (B, m, m) and ``p_total`` (B,).
    Row i equals ``waterfill(h[i], noise_cov[i], p_total[i])`` bitwise:
    the factorizations are batched, the water level is the scalar one
    with masked modes, and each active-mode count gets its own products.

    Returns (q, rate) of shapes (B, w, w) and (B,).
    """
    b, _, w = h.shape
    ell = np.linalg.cholesky(sym(noise_cov))
    white = np.linalg.solve(ell, h)
    _, s, vt = np.linalg.svd(white, full_matrices=False)
    gains = s * s
    r = gains.shape[1]
    # the scalar form keeps a prefix of the modes (svd sorts descending);
    # a dropped mode's inverse gain is +inf, and inf > inf is false
    keep = gains > 1e-15 * gains[:, :1]
    inv = np.divide(1.0, gains, out=np.full_like(gains, np.inf), where=keep)
    mu_try = (p_total[:, None] + inv.cumsum(axis=1)) / np.arange(1, r + 1)
    active = mu_try > inv
    count = np.where(active.any(axis=1), r - np.argmax(active[:, ::-1], axis=1), 0)
    count[p_total <= 0.0] = 0
    q = np.zeros((b, w, w))
    rate = np.zeros(b)
    for k in range(1, r + 1):
        rows = np.flatnonzero(count == k)
        if rows.size == 0:
            continue
        mu = mu_try[rows, k - 1]
        modes = vt[rows, :k]
        power = mu[:, None] - inv[rows, :k]
        q[rows] = sym((modes.swapaxes(1, 2) * power[:, None, :]) @ modes)
        rate[rows] = np.log(gains[rows, :k] * mu[:, None]).sum(axis=1)
    return q, rate


def project_capped_psd(q, caps):
    """PSD ``q`` scaled into diag(Q) <= caps.

    Row and column j shrink by sqrt(caps_j / q_jj) where q_jj exceeds
    caps_j, and that diagonal entry is set to caps_j.  D q D stays PSD,
    so the result is feasible.
    """
    d = np.diag(q)
    over = d > caps
    scale = np.ones_like(d)
    scale[over] = np.sqrt(caps[over] / d[over])
    out = q * scale[:, None] * scale[None, :]
    out[np.diag_indices_from(out)] = np.where(over, caps, d)
    return out


def pa_maximize(h, noise_cov, caps, q0, tol, max_iter):
    """Rate maximization under per-antenna power caps.

    Maximizes f(Q) = log det(noise_cov + H Q H^T) - log det(noise_cov)
    over Q >= 0, diag(Q) <= caps by Newton on the Lagrange dual (Yu & Lan,
    IEEE TSP 2007).  For antenna prices lam > 0, g(lam) = max_Q f(Q) -
    tr(diag(lam) Q) + lam . caps bounds the optimum from above; its
    maximizer Q(lam) is a unit-level waterfill on the modes of the
    whitened channel times diag(lam)^-1/2, and its gradient is caps -
    diag Q(lam).  Damped Newton in x = log lam, with a forward-difference
    Hessian, starts from the diagonal of the rate gradient at ``q0``; each
    accepted iterate takes the best uniform scale of its prices (a scalar
    waterfill).  Q(lam) scaled into the caps (:func:`project_capped_psd`)
    is feasible, so the solve stops once the duality gap is at most
    ``tol``.  Antennas with a zero cap or channel column get no power.

    For a single receive antenna the optimum is sign-matched rank-one
    beamforming at full caps and is returned in closed form.

    Returns (q, rate, gap, iterations, converged).
    """
    if h.shape[0] == 1:
        root = np.sqrt(caps)
        s = np.where(h[0] < 0.0, -root, root)
        amp = np.sum(np.abs(h[0]) * root)
        rate = np.log(1.0 + amp * amp / noise_cov[0, 0])
        return np.outer(s, s), rate, 0.0, 0, True

    w = h.shape[1]
    on = (caps > 0.0) & np.any(h != 0.0, axis=0)
    q = np.zeros((w, w))
    if not on.any():
        return q, 0.0, 0.0, 0, True
    white = np.linalg.solve(np.linalg.cholesky(sym(noise_cov)), h[:, on])
    p = caps[on]
    eye = np.eye(white.shape[0])

    def dual(x, rescale):
        """(x, g, dg/dx, modes, powers, f(Q(lam))) at log prices x, optionally rescaled."""
        lam = np.exp(x)
        _, s, vt = np.linalg.svd(white / np.sqrt(lam), full_matrices=False)
        gains = s * s
        if rescale:  # argmin over c of g(c lam): k modes on at c = k / (lam . p + sum 1/gain)
            inv = 1.0 / gains[gains > 0.0]
            c = np.arange(1, inv.size + 1) / (lam @ p + inv.cumsum())
            c = c[np.flatnonzero(c * inv < 1.0)[-1]]
            x, lam, gains = x + np.log(c), lam * c, gains / c
        act = gains > 1.0
        power = 1.0 - 1.0 / gains[act]
        logs = np.log(gains[act]).sum()
        modes = vt[act]
        grad = lam * p - (modes * modes).T @ power
        return x, logs - power.sum() + lam @ p, grad, modes, power, logs

    cov = sym(noise_cov + h @ q0 @ h.T)
    x, g, grad, modes, power, logs = dual(np.log(np.diag(h.T @ np.linalg.solve(cov, h))[on]),
                                          True)
    fd = 2.0 ** -24  # forward-difference step in log price
    for it in range(max_iter + 1):
        root = np.exp(-0.5 * x)
        qlam = sym((modes.T * power) @ modes * root[:, None] * root)
        qa = project_capped_psd(qlam, p)
        # f(qa) = f(qlam) + a well-scaled log det ratio, accurate at high SNR too
        ratio = np.linalg.solve(eye + white @ qlam @ white.T, white @ (qa - qlam) @ white.T)
        rate = max(logs + np.linalg.slogdet(eye + ratio)[1], 0.0)
        gap = max(g - rate, 0.0)
        if gap <= tol or it == max_iter:
            break
        hess = (np.stack([dual(x + fd * e, False)[2] for e in np.eye(x.size)], axis=1)
                - grad[:, None]) / fd
        evals, evecs = np.linalg.eigh(sym(hess))
        step = -(evecs / np.maximum(evals, 1e-10 * np.abs(evals).max())) @ (evecs.T @ grad)
        step *= 4.0 / max(np.abs(step).max(), 4.0)  # prices move by at most e^4 a step
        slope = grad @ step
        # Armijo with a few ulps of slack; once the predicted decrease is
        # below tol, rounding in the singular values can outweigh it
        slack = tol if -slope <= tol else 8.0 * np.finfo(float).eps * max(abs(g), 1.0)
        t = 1.0
        cand = dual(x + step, True)
        while cand[1] > g + 1e-4 * t * slope + slack:
            t *= 0.5
            if t < 1e-12:
                break
            cand = dual(x + t * step, True)
        if t < 1e-12:  # no descent along the step: stalled
            break
        x, g, grad, modes, power, logs = cand
    q[np.ix_(on, on)] = qa
    return q, rate, gap, it, gap <= tol


def block_response(h, noise, limit, q0, pa_tol, pa_iter):
    """One coalition's rate-optimal covariance against a noise covariance.

    ``limit`` is a trace budget (a number) or an array of antenna caps.
    """
    if not isinstance(limit, np.ndarray):
        q, rate = waterfill(h, noise, limit)
        return q, rate, True
    q, rate, _, _, conv = pa_maximize(h, noise, limit, q0, pa_tol, pa_iter)
    return q, rate, conv


def sic_backward(n0, hs, limits, q0s, heads, tails, pa_tol, pa_iter):
    """Exact equilibria of the fixed-order cancellation game, one per decoding suffix.

    A decoding suffix is a block followed by the blocks decoded after it.
    Suffix i decodes block ``heads[i]`` (an index into the per-block
    channels ``hs``, budgets or caps ``limits`` and starts ``q0s``) just
    before suffix ``tails[i]`` < i, or last when ``tails[i]`` is -1.  A
    block's rate depends only on the blocks decoded after it, so each
    head best responds to noise plus its tail's interference J(tail), and
    J(i) = J(tail) + H Q H^T: one backward sweep per decoding order,
    shared by every order that ends alike.  Pooled-budget heads of one
    width and one suffix length share a :func:`waterfill_stack`.

    Returns (qs, rates, ok): per suffix, the head's covariance (a list),
    its rate (an array) and whether its solve converged (a list).
    """
    n = len(heads)
    m = hs[0].shape[0]
    noise = n0 * np.eye(m)
    # entry n stays zero: tail -1 reads it, the interference a last-decoded head sees
    jmat = [None] * n + [np.zeros((m, m))]
    qs = [None] * n
    rates = [0.0] * n
    ok = [True] * n

    def solve_one(i):
        b, t = heads[i], tails[i]
        h = hs[b]
        qs[i], rates[i], ok[i] = block_response(h, noise + jmat[t], limits[b], q0s[b],
                                                pa_tol, pa_iter)
        jmat[i] = sym(jmat[t] + h @ qs[i] @ h.T)

    if isinstance(limits[0], np.ndarray):  # antenna caps: one dual solve per suffix
        for i in range(n):
            solve_one(i)
        return qs, np.array(rates), ok

    # group suffixes by (length, head width), shortest first
    depth = [0] * n
    groups = {}
    for i, (b, t) in enumerate(zip(heads, tails)):
        if t >= 0:
            depth[i] = depth[t] + 1
        groups.setdefault((depth[i], hs[b].shape[1]), []).append(i)
    for key in sorted(groups):
        idx = groups[key]
        if len(idx) == 1:  # a stack of one costs more than the scalar call
            solve_one(idx[0])
            continue
        h = np.stack([hs[heads[i]] for i in idx])
        budgets = np.array([limits[heads[i]] for i in idx], dtype=np.float64)
        j_tail = np.stack([jmat[tails[i]] for i in idx])
        q, rate = waterfill_stack(h, noise + j_tail, budgets)
        j_new = sym(j_tail + h @ q @ h.swapaxes(-1, -2))
        for i, qi, ri, ji in zip(idx, q, rate.tolist(), j_new):
            qs[i], rates[i], jmat[i] = qi, ri, ji
    return qs, np.array(rates), ok


#: Two successive sweep-step ratios must agree to this relative
#: tolerance before :func:`sud_fixed_point` extrapolates.
SUD_RATIO_AGREE = 0.01
#: Largest step ratio it extrapolates from (a jump of ratio / (1 - ratio) steps).
SUD_RATIO_MAX = 0.98


def _extrapolate(qs, steps, ratio):
    """Covariances moved to the limit of steps that shrink by ``ratio`` per sweep.

    q + ratio / (1 - ratio) * step sums the remaining geometric steps.
    Negative eigenvalues (a mode whose power was decaying to zero) are
    clipped and the trace of q restored, so each result stays feasible.
    """
    out = []
    for q, step in zip(qs, steps):
        lam, vec = np.linalg.eigh(q + ratio / (1.0 - ratio) * step)
        lam = np.maximum(lam, 0.0)
        kept = lam.sum()
        if kept > 0.0:
            lam *= np.trace(q) / kept
        out.append(sym((vec * lam) @ vec.T))
    return out


def sud_fixed_point(n0, hs, limits, q0s, tol, max_rounds, pa_tol, pa_iter):
    """Gauss-Seidel iterative waterfilling for the full-interference game.

    Each sweep lets every block in turn best respond to the running total
    N0 I + sum_j H_j Q_j H_j^T minus its own term.  That total's log det
    is an exact potential of the game, so every step raises it and the
    sweeps converge.  Convergence is declared when the largest per-block
    utility change in a sweep falls below ``tol``.

    Near the fixed point the sweeps converge linearly: each sweep's step
    is a near-constant fraction of the last.  Under pooled budgets, once
    two successive step ratios agree to ``SUD_RATIO_AGREE``, the profile
    jumps to the limit of that geometric series (:func:`_extrapolate`) if
    the jump does not lower the potential; sweeps then go on from there,
    so the returned profile is still one of best responses.  A slowly
    converging game then takes about as many sweeps as a fast one.

    Returns (qs, utilities, rounds, converged, last_delta).
    """
    qs = list(q0s)
    grams = [sym(h @ q @ h.T) for h, q in zip(hs, qs)]
    eye = n0 * np.eye(hs[0].shape[0])
    total = eye + sum(grams)
    utils = np.zeros(len(hs))
    prev = np.full(len(hs), -1.0)
    delta = np.inf
    converged = False
    rounds = 0
    pooled = not isinstance(limits[0], np.ndarray)
    last_size = last_ratio = 0.0
    for rounds in range(1, max_rounds + 1):
        ok_all = True
        before = list(qs)
        for i, (h, limit) in enumerate(zip(hs, limits)):
            q, _, conv = block_response(h, total - grams[i], limit, qs[i], pa_tol, pa_iter)
            ok_all = ok_all and conv
            gram = sym(h @ q @ h.T)
            total = total - grams[i] + gram
            qs[i], grams[i] = q, gram
        _, ld1 = np.linalg.slogdet(total)
        _, ld0 = np.linalg.slogdet(total - np.stack(grams))
        utils = np.maximum(ld1 - ld0, 0.0)
        delta = np.abs(utils - prev).max()
        prev = utils
        if rounds > 1 and delta < tol and ok_all:
            converged = True
            break
        if not pooled:
            continue
        steps = [q - b for q, b in zip(qs, before)]
        size = np.sqrt(sum(float(np.vdot(s, s)) for s in steps))
        ratio = size / last_size if last_size > 0.0 else 0.0
        last_size = size
        if (0.0 < ratio < SUD_RATIO_MAX and last_ratio > 0.0
                and abs(ratio - last_ratio) < SUD_RATIO_AGREE * ratio):
            jumped = _extrapolate(qs, steps, ratio)
            jumped_grams = [sym(h @ q @ h.T) for h, q in zip(hs, jumped)]
            jumped_total = eye + sum(jumped_grams)
            if np.linalg.slogdet(jumped_total)[1] >= ld1:
                qs, grams, total = jumped, jumped_grams, jumped_total
            # the next jump needs two fresh ratios
            last_size = ratio = 0.0
        last_ratio = ratio
    return qs, utils, rounds, converged, delta


def _block_powers(rgs_mat, gain2, p_sum, amp, mode):
    """One-hot block labels (rows, user, label) and each label's received power.

    A block's received power is (sum of member gains^2)(sum of member
    budgets) under a trace budget (mode 0) or (sum of member |h| sqrt(cap)
    amplitudes)^2 under antenna caps (mode 1).
    """
    k = rgs_mat.shape[1]
    onehot = rgs_mat[:, :, None] == np.arange(k)[None, None, :]
    if mode == 0:
        return onehot, (np.einsum("buj,u->bj", onehot, gain2)
                        * np.einsum("buj,u->bj", onehot, p_sum))
    a = np.einsum("buj,u->bj", onehot, amp)
    return onehot, a * a


def single_rx_table_numpy(rgs_mat, slot, gain2, p_sum, amp, mode, n0):
    """Closed-form cancellation utilities for every partition, one receive antenna.

    ``rgs_mat`` holds one restricted growth string per row; ``slot[u]``
    is user u's base decoding position.  Blocks decode at their latest
    member's slot and each utility is the log ratio of cumulative
    undecoded power.

    Returns a (rows, K) array; column j is block j's utility (canonical
    block labels), NaN where partition b has fewer than j+1 blocks.
    """
    onehot, power = _block_powers(rgs_mat, gain2, p_sum, amp, mode)
    exists = onehot.any(axis=1)
    pos = np.where(onehot, slot[None, :, None], -np.inf).max(axis=1)
    pos = np.where(exists, pos, np.inf)  # empty labels sort last, power 0
    order = np.argsort(pos, axis=1)
    power_sorted = np.take_along_axis(power, order, axis=1)
    after = np.cumsum(power_sorted[:, ::-1], axis=1)[:, ::-1] - power_sorted
    vals = np.log((n0 + after + power_sorted) / (n0 + after))
    out = np.empty_like(vals)
    np.put_along_axis(out, order, vals, axis=1)
    return np.where(exists, out, np.nan)


def single_rx_sud_table(rgs_mat, gain2, p_sum, amp, mode, n0):
    """Closed-form single-user-decoding utilities, one receive antenna.

    Each block decodes against noise plus every other block's power;
    layout as in :func:`single_rx_table_numpy`.
    """
    onehot, power = _block_powers(rgs_mat, gain2, p_sum, amp, mode)
    total = power.sum(axis=1, keepdims=True)
    vals = np.log((n0 + total) / (n0 + total - power))
    return np.where(onehot.any(axis=1), vals, np.nan)
