"""Independent reference implementations used as test oracles.

Everything here is written as plainly as possible (scalar loops, no shared
code with the package) so the implementations under test are checked against
a genuinely separate route.  The one exception, ``adv_d_loss_whole_grid``,
checks a route through the package against another one: it records the
discriminator loss over the whole grid with the merge in the graph.
"""

import math

import numpy as np


def gelu_scalar(x: float) -> float:
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


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
    from labelfuse.fusion import masked_pixels, tlam_graph
    from labelfuse.tape import Var
    from labelfuse.train_harness import discriminator_graph, generate_graph, hinge_d_loss

    xs = masked_pixels(masked, 0, masked.height * masked.width)
    z = tlam_graph(xs, [lab.name for lab in masked], merger)
    fake = generate_graph(z, heads)
    real = Var(np.asarray(target, dtype=np.float64).reshape(-1, 3))
    return hinge_d_loss(discriminator_graph(z, real, heads), discriminator_graph(z, fake, heads))
