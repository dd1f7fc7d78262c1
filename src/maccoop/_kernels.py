"""Hot numeric kernels: log-det rates, waterfilling, per-antenna dual Newton,
successive-cancellation sweeps, and Gauss-Seidel iterative waterfilling
on the single-user-decoding potential (Yu, Rhee, Boyd & Cioffi, "Iterative
water-filling for Gaussian vector multiple-access channels", IEEE T-IT 2004).

The game kernels take one channel, one budget or cap vector and one
start covariance per block, in the caller's block order.  The SUD sweep
takes many partitions at once as rows of indices into those blocks and
returns one covariance per row entry; the cancellation kernel returns
one per decoding suffix it is asked to solve.  A number is a pooled
trace budget (waterfilling); an array holds per-antenna caps
(:func:`pa_maximize`).  Under a trace budget a block's rate and the
interference it causes depend on its channel H only through H H^T, so
a pooled block enters as its m x m equivalent channel
(:func:`equivalent_channels`) with covariances in that channel's
coordinates: every pooled block of a game has one shape, and the blocks
at one sweep position or of one suffix length share one
:func:`waterfill_stack`.  A block under antenna caps keeps its own H,
since the caps belong to its physical antennas.

The one-receive-antenna closed form solves nothing: a block's received
power and decoding slot are 2^K tables indexed by coalition mask
(:func:`mask_table`), read at each partition's block masks.

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


def equivalent_channels(h):
    """m x m equivalent channels of a stack of channels of one width.

    ``h`` is (B, m, w).  A reduced QR of each H^T gives H = E Omega^T with
    E (B, m, m) lower triangular and Omega (B, w, m) orthonormal columns;
    when w < m both are zero-padded to m columns.  Under a trace budget a
    block's rate and the interference it causes depend on H only through
    H H^T = E E^T, so Q_E = Omega^T Q Omega solves E's problem exactly
    when Q solves H's, with the same trace, and Q = Omega Q_E Omega^T maps
    back.  An equivalent channel is its own: E's QR is (E, I) bit for bit.

    Returns (e, omega).
    """
    b, m, w = h.shape
    omega, r = np.linalg.qr(h.swapaxes(1, 2))
    if w >= m:
        return r.swapaxes(1, 2), omega
    e = np.zeros((b, m, m))
    e[:, :, :w] = r.swapaxes(1, 2)
    pad = np.zeros((b, w, m))
    pad[:, :, :w] = omega
    return e, pad


def waterfill(h, noise_cov, p_total):
    """Rate-optimal covariance under a trace budget.

    Maximizes log det(noise_cov + H Q H^T) - log det(noise_cov) over
    Q >= 0 with tr(Q) <= p_total: the one-problem :func:`waterfill_stack`
    on H's equivalent channel (:func:`equivalent_channels`), mapped back.
    noise_cov must be positive definite.

    Returns (q, rate) with q of shape (w, w).
    """
    e, omega = equivalent_channels(h[None])
    q, rate = waterfill_stack(e, noise_cov[None], np.array([p_total], dtype=np.float64))
    return sym(omega[0] @ q[0] @ omega[0].T), rate[0]


def waterfill_stack(h, noise_cov, p_total):
    """Rate-optimal covariances of a stack of trace-budget problems of one shape.

    ``h`` is (B, m, w), ``noise_cov`` (B, m, m) and ``p_total`` (B,).
    Each problem waterfills across the eigenmodes of its noise-whitened
    channel: the modes whose inverse gain lies below the water level,
    which is the largest active set k whose level mu_k lies above the
    weakest included mode's inverse gain (none when the budget is at most
    zero or below rounding).  Every step is a batched factorization or an
    elementwise or per-problem reduction, so each row is bitwise its
    one-problem call, whatever else the stack holds.

    Returns (q, rate) of shapes (B, w, w) and (B,).
    """
    b = h.shape[0]
    ell = np.linalg.cholesky(sym(noise_cov))
    white = np.linalg.solve(ell, h)
    _, s, vt = np.linalg.svd(white, full_matrices=False)
    gains = s * s
    r = gains.shape[1]
    # svd sorts gains descending, so the active modes are a prefix; a
    # dropped mode's inverse gain is +inf, and inf > inf is false
    keep = gains > 1e-15 * gains[:, :1]
    inv = np.divide(1.0, gains, out=np.full_like(gains, np.inf), where=keep)
    mu_try = (p_total[:, None] + inv.cumsum(axis=1)) / np.arange(1, r + 1)
    active = mu_try > inv
    count = np.where(active.any(axis=1) & (p_total > 0.0),
                     r - np.argmax(active[:, ::-1], axis=1), 0)
    on = np.arange(r) < count[:, None]
    mu = mu_try[np.arange(b), np.maximum(count - 1, 0), None]
    power = np.subtract(mu, inv, out=np.zeros_like(inv), where=on)
    q = sym((vt.swapaxes(1, 2) * power[:, None, :]) @ vt)
    q[count == 0] = 0.0
    # = sum log(1 + gains * power) over the active modes
    rate = np.log(np.multiply(gains, mu, out=np.ones_like(gains), where=on)).sum(axis=1)
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
    shared by every order that ends alike.  Under pooled budgets every
    channel is m x m (an equivalent channel, :func:`equivalent_channels`)
    and the heads of one suffix length, shortest first, share one
    :func:`waterfill_stack`.  Under antenna caps each head has its own
    :func:`pa_maximize`, in suffix order (a tail precedes its heads).

    Returns (qs, rates, ok): per suffix, the head's covariance, its rate
    (an array) and whether its solve converged (a list).
    """
    n = len(heads)
    m = hs[0].shape[0]
    noise = n0 * np.eye(m)
    # entry n stays zero: tail -1 reads it, the interference a last-decoded head sees
    jmat = np.zeros((n + 1, m, m))
    rates = np.zeros(n)
    ok = [True] * n
    if isinstance(limits[0], np.ndarray):
        qs = [None] * n
        for i, (b, t) in enumerate(zip(heads, tails)):
            h = hs[b]
            qs[i], rates[i], ok[i] = block_response(h, noise + jmat[t], limits[b], q0s[b],
                                                    pa_tol, pa_iter)
            jmat[i] = sym(jmat[t] + h @ qs[i] @ h.T)
        return qs, rates, ok
    # a tail is shorter than its head, so it is solved before every suffix that reads it
    depth = [0] * n
    for i, t in enumerate(tails):
        if t >= 0:
            depth[i] = depth[t] + 1
    chan = np.asarray(hs)[heads]
    budget = np.asarray(limits, dtype=np.float64)[heads]
    tails = np.asarray(tails, dtype=np.int64)
    qs = np.empty((n, m, m))
    by_length = np.argsort(depth, kind="stable")
    for idx in np.split(by_length, np.cumsum(np.bincount(depth))[:-1]):
        h, j_tail = chan[idx], jmat[tails[idx]]
        q, rates[idx] = waterfill_stack(h, noise + j_tail, budget[idx])
        qs[idx] = q
        jmat[idx] = sym(j_tail + h @ q @ h.swapaxes(1, 2))
    return qs, rates, ok


#: Two successive sweep-step ratios must agree to this relative
#: tolerance before :func:`sud_lockstep` extrapolates.
SUD_RATIO_AGREE = 0.01
#: Largest step ratio it extrapolates from (a jump of ratio / (1 - ratio) steps).
SUD_RATIO_MAX = 0.98


def _extrapolate(qs, steps, ratio):
    """Covariances moved to the limit of steps that shrink by ``ratio`` per sweep.

    q + ratio / (1 - ratio) * step sums the remaining geometric steps,
    for a stack of covariances, their steps and ratios broadcast to them.
    Negative eigenvalues (a mode whose power was decaying to zero) are
    clipped and the trace of q restored, so each result stays feasible.
    """
    lam, vec = np.linalg.eigh(qs + ratio / (1.0 - ratio) * steps)
    lam = np.maximum(lam, 0.0)
    kept = lam.sum(axis=-1, keepdims=True)
    lam *= np.divide(np.trace(qs, axis1=-2, axis2=-1)[..., None], kept,
                     out=np.ones_like(kept), where=kept > 0.0)
    return sym((vec * lam[..., None, :]) @ vec.swapaxes(-1, -2))


def _exclusive_sums(grams):
    """Running sums of (rows, positions, m, m) grams along each row, left to right.

    Returns (inclusive, before, after): at each position, the sum up to and
    including it, the sum of the positions before it, and the sum of the
    positions after it (added from the last one).  No term is ever
    subtracted, so a weak block beside a strong one is not lost.
    """
    inclusive = np.cumsum(grams, axis=1)
    before = np.zeros_like(grams)
    before[:, 1:] = inclusive[:, :-1]
    after = np.zeros_like(grams)
    after[:, :-1] = np.cumsum(grams[:, :0:-1], axis=1)[:, ::-1]
    return inclusive, before, after


def sud_fixed_point(n0, hs, limits, q0s, tol, max_rounds, pa_tol, pa_iter):
    """Gauss-Seidel iterative waterfilling for one partition: :func:`sud_lockstep`
    of one row whose blocks are ``hs``, ``limits`` and ``q0s`` in that order
    (under pooled budgets, equivalent channels and their covariances).

    Returns (qs, utilities, rounds, converged, last_delta).
    """
    n = len(hs)
    qs, utils, rounds, converged, delta = sud_lockstep(
        n0, hs, limits, q0s, np.arange(n), [n], tol, max_rounds, pa_tol, pa_iter
    )
    return qs, utils, int(rounds[0]), bool(converged[0]), delta[0]


def sud_lockstep(n0, hs, limits, q0s, blocks, counts, tol, max_rounds, pa_tol, pa_iter):
    """Gauss-Seidel iterative waterfilling for the full-interference game, many
    partitions at once.

    Row r is the partition whose blocks are the next ``counts[r]`` entries
    of ``blocks``, indices into the per-block channels ``hs``, budgets or
    caps ``limits`` and starts ``q0s``, in sweep order.  Each sweep lets
    every block in turn best respond to N0 I plus the other blocks' terms
    H_j Q_j H_j^T of its row: the sum of the terms before it, updated
    this sweep, plus the sum of those after it, each added up without
    ever subtracting a term (:func:`_exclusive_sums`).  The log det of
    N0 I + sum_j H_j Q_j H_j^T is an exact potential of the game, so
    every step raises it and the sweeps converge.  A block's utility is
    that log det less the log det of N0 I plus the others' terms.  A row
    converges when the largest utility change of its blocks in a sweep
    falls below ``tol``, and then stops sweeping.

    Near the fixed point the sweeps converge linearly: each sweep's step
    is a near-constant fraction of the last.  Under pooled budgets, once
    two successive step ratios of a row agree to ``SUD_RATIO_AGREE``, its
    profile jumps to the limit of that geometric series
    (:func:`_extrapolate`) if the jump does not lower its potential;
    sweeps then go on from there, so the returned profile is still one of
    best responses.  A slowly converging game then takes about as many
    sweeps as a fast one.

    Rows advance in lockstep, one block position at a time.  Under pooled
    budgets every channel is m x m (an equivalent channel,
    :func:`equivalent_channels`), so the best responses of every sweeping
    row's block at one position go through one :func:`waterfill_stack`;
    under antenna caps each block has its own :func:`pa_maximize`.  Rows
    never mix, and every step is stacked per row, so each row's iterates
    are bitwise those it has when solved alone.

    Returns (qs, utilities, rounds, converged, last_delta): per entry of
    ``blocks`` its covariance and utility (an array), and per row its
    sweep count, whether it converged and its last utility change.
    """
    counts = np.asarray(counts, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    n_rows, width = len(counts), int(counts.max(initial=0))
    row_of = np.repeat(np.arange(n_rows), counts)
    starts = np.cumsum(counts) - counts
    # entry j sits at (row, block position) at[j]; unused positions hold zeros
    at = (row_of, np.arange(len(blocks)) - starts[row_of])
    valid = np.arange(width) < counts[:, None]
    pooled = not isinstance(limits[0], np.ndarray)
    m = hs[0].shape[0]
    eye = n0 * np.eye(m)
    grams = np.zeros((n_rows, width, m, m))
    grams[at] = np.stack([sym(h @ q @ h.T) for h, q in zip(hs, q0s)])[blocks]
    if pooled:
        chan = np.zeros_like(grams)
        chan[at] = np.asarray(hs)[blocks]
        budget = np.zeros((n_rows, width))
        budget[at] = np.asarray(limits, dtype=np.float64)[blocks]
        cov = np.zeros_like(grams)
        cov[at] = np.asarray(q0s)[blocks]
    else:
        qs = [q0s[b] for b in blocks.tolist()]
    suffix = _exclusive_sums(grams)[2]
    prefix = np.zeros((n_rows, m, m))
    utils = np.zeros(len(blocks))
    prev = np.full(len(blocks), -1.0)
    delta = np.full(n_rows, np.inf)
    rounds = np.zeros(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    last_size = np.zeros(n_rows)
    last_ratio = np.zeros(n_rows)
    sweeping = np.ones(n_rows, dtype=bool)
    for sweep in range(1, max_rounds + 1):
        live = np.flatnonzero(sweeping)
        if live.size == 0:
            break
        rounds[live] = sweep
        ok = np.ones(n_rows, dtype=bool)
        prefix[live] = 0.0
        if pooled:
            before = cov[live]
        for p in range(width):
            rows = np.flatnonzero(sweeping & valid[:, p])
            if rows.size == 0:
                break
            noise = eye + (prefix[rows] + suffix[rows, p])
            if pooled:
                h = chan[rows, p]
                q = waterfill_stack(h, noise, budget[rows, p])[0]
                cov[rows, p] = q
                gram = sym(h @ q @ h.swapaxes(1, 2))
            else:
                gram = np.empty_like(noise)
                for i, (r, j) in enumerate(zip(rows.tolist(), (starts[rows] + p).tolist())):
                    h = hs[blocks[j]]
                    qs[j], _, conv = block_response(h, noise[i], limits[blocks[j]], qs[j],
                                                    pa_tol, pa_iter)
                    ok[r] &= conv
                    gram[i] = sym(h @ qs[j] @ h.T)
            grams[rows, p] = gram
            prefix[rows] += gram
        inclusive, others, suffix[live] = _exclusive_sums(grams[live])
        others += suffix[live]
        sign1, ld1 = np.linalg.slogdet(eye + inclusive[:, -1])
        sign0, ld0 = np.linalg.slogdet(eye + others[valid[live]])
        if not (np.all(sign1 > 0.0) and np.all(sign0 > 0.0)):
            # N0 I plus the received terms rounded to a singular matrix
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        # the blocks of the sweeping rows, row by row
        ent = np.flatnonzero(sweeping[row_of])
        u = np.maximum(np.repeat(ld1, counts[live]) - ld0, 0.0)
        delta[live] = np.maximum.reduceat(np.abs(u - prev[ent]), np.cumsum(counts[live])
                                          - counts[live])
        prev[ent] = utils[ent] = u
        done = (delta[live] < tol) & ok[live] if sweep > 1 else np.zeros(live.size, bool)
        converged[live[done]] = True
        sweeping[live[done]] = False
        rest = live[~done]
        if not pooled or rest.size == 0:
            continue
        step = cov[rest] - before[~done]
        size = np.sqrt(np.cumsum((step * step).reshape(rest.size, -1), axis=1)[:, -1])
        last = last_size[rest]
        ratio = np.divide(size, last, out=np.zeros_like(size), where=last > 0.0)
        last_size[rest] = size
        prior = last_ratio[rest]
        jump = ((0.0 < ratio) & (ratio < SUD_RATIO_MAX) & (prior > 0.0)
                & (np.abs(ratio - prior) < SUD_RATIO_AGREE * ratio))
        if jump.any():
            rows = rest[jump]
            jumped = _extrapolate(cov[rows], step[jump], ratio[jump, None, None, None])
            h = chan[rows]
            jumped_grams = sym(h @ jumped @ h.swapaxes(-1, -2))
            jumped_total = eye + np.cumsum(jumped_grams, axis=1)[:, -1]
            better = np.linalg.slogdet(jumped_total)[1] >= ld1[~done][jump]
            take = rows[better]
            cov[take], grams[take] = jumped[better], jumped_grams[better]
            suffix[take] = _exclusive_sums(jumped_grams[better])[2]
            # the next jump needs two fresh ratios
            last_size[rows] = 0.0
            ratio[jump] = 0.0
        last_ratio[rest] = ratio
    return (cov[at] if pooled else qs), utils, rounds, converged, delta


def mask_table(ufunc, values, empty):
    """A per-coalition quantity as a 2^K table indexed by coalition mask.

    Entry m folds ``values`` over m's bits with ``ufunc``, lowest bit
    first, starting from ``empty``.  Masks with highest bit b are the
    masks below 2^b, each folded with ``values[b]``: one slice op per
    bit.  With ``np.add`` and 0.0 members are added in user order, as a
    per-user ``+=`` adds them.  ``values`` is an array of any dtype (int8
    decoding slots, say), and the table has that dtype.
    """
    out = np.empty(1 << len(values), dtype=values.dtype)
    out[0] = empty
    for b, v in enumerate(values):
        ufunc(out[:1 << b], v, out=out[1 << b:2 << b])
    return out


def single_rx_layout(masks, power_of, slot_of, out=None):
    """The noise-free part of the one-receive-antenna closed forms, one partition per row.

    ``masks`` holds each row's block masks in label order, 0 past its
    last block.  ``power_of`` and ``slot_of`` are :func:`mask_table`
    tables: each coalition's received power and decoding slot.  The
    blocks, the nonzero masks row by row, are gathered once, and each
    block's power is spread into a zeroed (K, rows) array at its column:
    its decoding slot, or its label.  Both receivers hear the columns
    after a block, summed one column at a time from the last column
    down; single-user decoding (``slot_of`` None) also hears the label
    columns before it, summed first label first.  With fixed-order
    cancellation the columns are decoding slots, so each block hears the
    blocks decoded after it, added last decoded first as
    :func:`maccoop.capacity.single_antenna_utilities` adds them (empty
    slots add exact zeros).  No heard power is a total less the block's
    own power, so a weak block beside a strong one is never rounded
    away.  Heard power holds no noise, so a block alone in its
    row hears exactly 0.

    Returns (blocks, power, heard), one entry per block, row by row in
    label order: its mask, its received power and the power it hears,
    written into the three arrays of ``out`` when given.
    :func:`single_rx_values` turns the last two into utilities.
    """
    rows, k = masks.shape
    blocks, power, heard = (None, None, None) if out is None else out
    at = np.flatnonzero(masks != 0)  # row * k + label
    # indices are in range, and mode "clip" lets take write into ``out`` unbuffered
    blocks = masks.reshape(-1).take(at, out=blocks, mode="clip")
    power = power_of.take(blocks, out=power, mode="clip")
    row = at // k
    if slot_of is None:
        np.remainder(at, k, out=at)  # the label
    else:
        slot_of.astype(np.intp).take(blocks, out=at)
    cell = at  # row + rows * column, the block's place in (K, rows)
    cell *= rows
    cell += row
    spread = np.zeros((k, rows))
    spread.reshape(-1)[cell] = power
    sums = np.zeros((k, rows))
    if slot_of is None:
        for j in range(1, k):  # the labels before j, first label first
            np.add(sums[j - 1], spread[j - 1], out=sums[j])
    after = spread[k - 1].copy()
    for j in range(k - 2, -1, -1):  # the columns after j, last column first
        sums[j] += after
        after += spread[j]
    return blocks, power, sums.reshape(-1).take(cell, out=heard, mode="clip")


#: perfbench's tracer wraps the layout kernel, and counts its rows, under
#: this older name; the alias goes once the tracer targets ``single_rx_layout``.
single_rx_table_numpy = single_rx_layout


def single_rx_values(power, heard, n0, out=None):
    """Utilities at noise level ``n0``, elementwise, for either receiver: the log
    ratio of noise plus heard power with and without the block's own (into ``out``
    when given)."""
    base = n0 + heard
    out = np.add(base, power, out=out)
    np.divide(out, base, out=out)
    return np.log(out, out=out)
