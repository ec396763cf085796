"""Independent reference implementations used as test oracles.

Everything here is written as plainly as possible (scalar loops, no shared
code with the package) so the implementations under test are checked against
a genuinely separate route.  There are two exceptions.
``adv_d_loss_whole_grid`` checks a route through the package against another
one: it records the discriminator loss over the whole grid with the merge in
the graph.  ``jacobi_eigh`` is a vectorized cyclic Jacobi eigensolver (the
package's PCA solver before ``pca_project_3`` moved to ``numpy.linalg.eigh``),
kept as a route to the eigenpairs that does not go through LAPACK.
"""

import math

import numpy as np


def gelu_scalar(x: float) -> float:
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def clam_per_pixel(labels, p):
    """The ``clam`` merge one pixel at a time: per label, the pixel's values
    (zeros where the label is absent) through its projection and stack, each
    layer an affine map and a scalar GeLU, then the mean over the labels."""
    gelu = lambda v: np.array([gelu_scalar(float(t)) for t in v])
    out = np.zeros((labels.height, labels.width, p.d))
    for i in range(labels.height):
        for j in range(labels.width):
            for lab in labels:
                x = lab.values[i, j].astype(np.float64) if lab.mask[i, j] else np.zeros(lab.channels)
                proj = p.projections[lab.name]
                v = gelu(proj.A @ x + proj.b)
                for layer in p.clam_stacks[lab.name]:
                    v = gelu(layer.A @ v + layer.b)
                out[i, j] += v
            out[i, j] /= len(labels)
    return out


def tlam_per_pixel(labels, p):
    """The ``tlam`` merge one pixel at a time, as the model defines it: per
    label, the pixel's values (zeros where absent) through its projection and
    a scalar GeLU plus its encoding; then per block, pre-norm attention and a
    pre-norm MLP with residuals, each layer norm applying its own gain and
    shift and MLP-down run on every token; then the mean over the labels."""
    gelu = lambda v: np.array([gelu_scalar(float(t)) for t in v])
    out = np.zeros((labels.height, labels.width, p.d))
    for i in range(labels.height):
        for j in range(labels.width):
            tokens = []
            for lab in labels:
                x = lab.values[i, j].astype(np.float64) if lab.mask[i, j] else np.zeros(lab.channels)
                proj = p.projections[lab.name]
                tokens.append(gelu(proj.A @ x + proj.b) + p.encodings[lab.name])
            z = np.array(tokens)
            for bp in p.blocks:
                y = layer_norm_rows(z, bp.ln1_gamma, bp.ln1_beta, 1e-5)
                z = z + attention_bruteforce(y, bp.attn.wq, bp.attn.wk, bp.attn.wv, bp.attn.wo, bp.attn.bo)
                y = layer_norm_rows(z, bp.ln2_gamma, bp.ln2_beta, 1e-5)
                z = z + np.array([gelu(row @ bp.w1 + bp.b1) @ bp.w2 + bp.b2 for row in y])
            out[i, j] = z.sum(axis=0) / len(tokens)
    return out


def softmax_list(scores):
    m = max(scores)
    e = [math.exp(s - m) for s in scores]
    total = sum(e)
    return [x / total for x in e]


def attention_bruteforce(Z, wq, wk, wv, wo, bo):
    """Loop-based multi-head attention over one token matrix (N, d)."""
    heads, d, dh = wq.shape
    n = Z.shape[0]
    per_head = []
    for j in range(heads):
        q = Z @ wq[j]
        k = Z @ wk[j]
        v = Z @ wv[j]
        out = np.zeros((n, dh))
        for a in range(n):
            scores = [float(q[a] @ k[b]) / math.sqrt(dh) for b in range(n)]
            weights = softmax_list(scores)
            for b in range(n):
                out[a] += weights[b] * v[b]
        per_head.append(out)
    merged = np.concatenate(per_head, axis=1)
    return merged @ wo + bo


def layer_norm_rows(x, gamma, beta, eps):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = gamma * (row - mu) / math.sqrt(var + eps) + beta
    return out


def seg_counting_oracle(pred, gt, num_classes):
    """Pixel-by-pixel mIoU and accuracy by explicit counting."""
    h, w = gt.shape
    inter = [0] * num_classes
    union = [0] * num_classes
    agree = 0
    for i in range(h):
        for j in range(w):
            p, g = int(pred[i, j]), int(gt[i, j])
            if p == g:
                agree += 1
                inter[p] += 1
                union[p] += 1
            else:
                union[p] += 1
                union[g] += 1
    ious = [inter[c] / union[c] for c in range(num_classes) if union[c] > 0]
    miou = sum(ious) / len(ious)
    return miou, agree / (h * w)


def adam_recurrence(theta, grads, lr, beta1, beta2, eps):
    """Hand-iterated Adam over a scalar parameter and a list of gradients."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def splitmix64_reference(seed, n):
    """The published splitmix64 recurrence, written out independently."""
    mask = (1 << 64) - 1
    s = seed & mask
    out = []
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & mask
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def adv_d_loss_whole_grid(masked, target, merger, heads):
    """The adversarial discriminator hinge loss as one graph over the whole
    grid: recorded merge, generator, then the per-pixel hinges of the real
    and fake discriminator scores.  Its ``disc.*`` gradients are those of
    the D step."""
    from labelfuse.fusion import merge_step
    from labelfuse.tape import Var
    from labelfuse.train_harness import discriminator_graph, generate_graph, hinge_d_loss

    z = merge_step(merger, masked)(0, masked.height * masked.width)
    fake = generate_graph(z, heads)
    real = Var(np.asarray(target, dtype=np.float64).reshape(-1, 3))
    return hinge_d_loss(discriminator_graph(z, real, heads), discriminator_graph(z, fake, heads))


JACOBI_REL_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(sym: np.ndarray):
    """Eigendecomposition of a symmetric matrix by Jacobi rotations in
    round-robin order (Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985).

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (see ``round_robin``); the rotations of one round commute, so a
    round is one similarity transform.  A, and V^T as rows, are held in the
    round's paired layout (rows 2i and 2i + 1 are the round's pair i), so
    each side of a round is one batched 2x2 ``np.matmul`` over all pairs.
    The column side uses A = A^T, so A' = R^T A R = R^T (R^T A)^T, and moves
    A into the next round's layout on the way.  A sweep ends in the layout
    it began in, which is undone once before returning.  Odd d is padded
    with a zero row and column, whose rotations are the identity.
    Sweeps stop once the off-diagonal Frobenius norm drops to
    ``JACOBI_REL_TOL`` times the trace of the input (its total variance when
    it is a covariance), or times its Frobenius norm if the trace is not
    positive.  Returns (eigenvalues, eigenvectors-as-columns),
    unsorted.  Raises RuntimeError if that is not reached in
    ``JACOBI_MAX_SWEEPS`` sweeps, and at once if the norm or the trace is NaN.
    """
    a = np.array(sym, dtype=np.float64)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    trace = float(np.trace(a))
    if trace > 0.0:
        threshold = JACOBI_REL_TOL * trace
    else:
        threshold = JACOBI_REL_TOL * float(np.linalg.norm(a))
        if threshold == 0.0:  # the zero matrix: already diagonal
            return np.diag(a).copy(), np.eye(d)
    layouts, moves = round_robin(d)
    n = layouts.shape[1]
    m = n // 2
    first = layouts[0]
    a = np.pad(a, (0, n - d))[np.ix_(first, first)]
    vt = np.eye(n, d)[first]  # V^T, one row per index, in the layout
    stride = 2 * n + 2  # from one pair's 2x2 diagonal block to the next
    off = _off_norm(a)
    for _ in range(JACOBI_MAX_SWEEPS):
        if not off > threshold:  # converged, or NaN
            break
        for move in moves:
            flat = a.ravel()
            apq = flat[1::stride]
            with np.errstate(divide="ignore", invalid="ignore"):  # where apq == 0
                theta = (flat[n + 1::stride] - flat[::stride]) / (2.0 * apq)
            t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
            t[apq == 0.0] = 0.0  # c = 1, s = 0: the identity
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            g = np.array([c, -s, s, c]).T.reshape(m, 2, 2)  # R^T, one 2x2 per pair
            b = np.matmul(g, a.reshape(m, 2, n)).reshape(n, n)  # R^T A
            bt = b.take(move, axis=0).T.copy().reshape(m, 2, n)  # (R^T A)^T, cols moved
            a = np.matmul(g, bt).reshape(n, n).take(move, axis=0)
            vt = np.matmul(g, vt.reshape(m, 2, d)).reshape(n, d).take(move, axis=0)
        off = _off_norm(a)
    if not off <= threshold:
        raise RuntimeError("Jacobi sweeps did not converge")
    back = np.argsort(first)[:d]
    return np.diag(a)[back], vt[back].T


def round_robin(d: int) -> tuple[np.ndarray, np.ndarray]:
    """One sweep's paired layouts and the moves between them.

    With n = d rounded up to even, the circle method gives n - 1 rounds of
    n/2 disjoint pairs that together hold every pair once: index 0 stays put
    and the others rotate one place per round.  Row r of ``layouts`` lists
    round r's pairs as (p, q), p < q, at positions (2i, 2i + 1); for odd d
    the padding index d is one of them.  ``layouts[r][moves[r]]`` is the
    next round's layout, and the last move leads back to ``layouts[0]``.
    """
    n = d + d % 2
    ring = np.zeros((n - 1, n), dtype=np.intp)
    ring[:, 1:] = 1 + (np.arange(n - 1) - np.arange(n - 1)[:, None]) % (n - 1)
    x, y = ring[:, : n // 2], ring[:, : n // 2 - 1 : -1]
    layouts = np.stack([np.minimum(x, y), np.maximum(x, y)], axis=2).reshape(n - 1, n)
    inverse = np.argsort(layouts, axis=1)
    moves = np.take_along_axis(inverse, np.roll(layouts, -1, axis=0), axis=1)
    return layouts, moves


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part."""
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))
