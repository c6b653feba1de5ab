"""Independent reference computations used to pin down expected values.

These are deliberately written against plain python/math or elementwise
numpy loops, not the library's vectorized paths, so the two sides of
each comparison share no code.
"""

from __future__ import annotations

import math

import numpy as np

from soupkit import tinynet


def checkpoints_equal(a, b, check_meta=True):
    """Bitwise equality: same names in order, shapes, payload bytes and (optionally) meta."""
    if a.layout != b.layout or a.vector.tobytes() != b.vector.tobytes():
        return False
    return a.meta == b.meta if check_meta else True


def fd_gradient(params, X, targets, inv_temperature=1.0, h=1e-3):
    """Central-difference gradient of the mean loss, coordinate by coordinate.

    The loss is the mean over rows of -sum_c targets[c] * log softmax(beta *
    logits)[c], each row's log-sum-exp taken with plain math as in
    :func:`per_example_eval`.
    """

    def loss_at(p):
        total = 0.0
        for row, target in zip(tinynet.forward(p, X), targets):
            row = [inv_temperature * float(v) for v in row]
            m = max(row)
            lse = m + math.log(sum(math.exp(v - m) for v in row))
            total += sum(float(t) * (lse - v) for t, v in zip(target, row))
        return total / len(targets)

    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value, dtype=np.float64)
        flat_v = value.ravel()
        flat_g = g.ravel()
        for j in range(flat_v.size):
            for sign in (+1.0, -1.0):
                probe = {k: v.copy() for k, v in params.items()}
                probe[name].ravel()[j] = flat_v[j] + sign * h
                flat_g[j] += sign * loss_at(probe)
            flat_g[j] /= 2.0 * h
        grads[name] = g
    return grads


def relu_states_afresh(arrays0, arrays1, X, num_nodes):
    """Each hidden layer's ``gain * (x @ W + b) > 0`` at every node of the segment.

    One list per tau of ``np.linspace(0, 1, num_nodes)``, holding one bool
    array per hidden layer.  Each tensor of the point is ``a0 + tau * (a1 -
    a0)`` in float64, and the layers are written out as plain expressions.
    """
    hidden = sum(name.endswith(".gain") for name in arrays0)
    nodes = []
    for tau in np.linspace(0.0, 1.0, num_nodes):
        point = {}
        for name, a0 in arrays0.items():
            a0 = np.asarray(a0, dtype=np.float64)
            point[name] = a0 + float(tau) * (np.asarray(arrays1[name], dtype=np.float64) - a0)
        x = np.asarray(X, dtype=np.float64)
        states = []
        for i in range(hidden):
            u = point[f"layer{i}.gain"] * (x @ point[f"layer{i}.weight"] + point[f"layer{i}.bias"])
            states.append(u > 0.0)
            x = np.where(u > 0.0, u, 0.0)
        nodes.append(states)
    return nodes


def per_example_eval(logits, labels):
    """Loss, error via plain math loops (stable logsumexp per row)."""
    losses, wrong = [], 0
    for row, y in zip(logits, labels):
        row = [float(v) for v in row]
        m = max(row)
        lse = m + math.log(sum(math.exp(v - m) for v in row))
        losses.append(lse - row[int(y)])
        best, best_idx = -math.inf, -1
        for idx, v in enumerate(row):
            if v > best:  # strict: ties keep the earliest index
                best, best_idx = v, idx
        if best_idx != int(y):
            wrong += 1
    return sum(losses) / len(losses), wrong / len(losses)


def explicit_hessian_quadratic_form(logit_row, v):
    """v' (diag(p) - p p') v with the full matrix materialized."""
    row = np.asarray(logit_row, dtype=np.float64)
    e = np.exp(row - row.max())
    p = e / e.sum()
    H = np.diag(p) - np.outer(p, p)
    return float(np.asarray(v, dtype=np.float64) @ H @ np.asarray(v, dtype=np.float64))


def simpson_integral(values, grid):
    """Composite Simpson over an odd, evenly spaced grid (scalar oracle)."""
    n = len(grid)
    assert n % 2 == 1 and n >= 3
    h = (grid[-1] - grid[0]) / (n - 1)
    total = values[0] + values[-1]
    for i in range(1, n - 1):
        total += values[i] * (4.0 if i % 2 == 1 else 2.0)
    return total * h / 3.0


def ece_equal_mass_oracle(confidences, correct, num_bins):
    """Equal-mass ECE via plain-python stable sort and explicit chunking.

    First (n mod num_bins) bins take the extra element, matching
    contiguous chunks whose sizes differ by at most one.
    """
    n = len(confidences)
    order = sorted(range(n), key=lambda i: confidences[i])  # timsort: stable
    base, extra = divmod(n, num_bins)
    total, start = 0.0, 0
    for b in range(num_bins):
        size = base + (1 if b < extra else 0)
        if size == 0:
            continue
        chunk = order[start : start + size]
        start += size
        acc = sum(float(correct[i]) for i in chunk) / size
        conf = sum(float(confidences[i]) for i in chunk) / size
        total += (size / n) * abs(acc - conf)
    return total


def greedy_pool_oracle(subset_score, individual_scores):
    """Transliteration of greedy grow-if-not-worse selection.

    Candidates are visited by descending individual score, ties in
    index order.  ``subset_score`` maps a list of indices (in visit
    order) to the pooled score.  Returns the accepted indices in
    acceptance order.
    """
    order = sorted(range(len(individual_scores)), key=lambda i: -individual_scores[i])
    pool, best = [], -math.inf
    for i in order:
        candidate = pool + [i]
        score = subset_score(candidate)
        if score >= best:
            pool, best = candidate, score
    return pool


def combine_reference(coeffs, ckpts):
    """sum_i coeffs[i] * ckpts[i], element by element in python floats.

    Starts each element at coeffs[0] * x0 (not at 0.0, which would turn
    a -0.0 into +0.0), adds the other terms left to right, and rounds
    once to float32.  Returns name -> float32 array in checkpoint order.
    """
    out = {}
    for name, tensor in ckpts[0].items():
        columns = [[float(v) for v in c[name].ravel()] for c in ckpts]
        flat = []
        for j in range(tensor.size):
            acc = float(coeffs[0]) * columns[0][j]
            for c, column in zip(coeffs[1:], columns[1:]):
                acc += float(c) * column[j]
            flat.append(np.float32(acc))
        out[name] = np.array(flat, dtype=np.float32).reshape(tensor.shape)
    return out


def pair_angle_reference(theta0, theta1, theta2, excluded=(".gain", ".bias")):
    """Degrees between theta1 - theta0 and theta2 - theta0 in python floats.

    Each delta element is the float64 difference of two stored float32
    values (never rounded back to float32); tensors whose names end in
    ``excluded`` are skipped; sums are exactly rounded (``math.fsum``).
    """
    d1, d2 = [], []
    for name in theta0:
        if name.endswith(excluded):
            continue
        rows = zip(*(t[name].ravel().tolist() for t in (theta0, theta1, theta2)))
        for x0, x1, x2 in rows:
            d1.append(x1 - x0)
            d2.append(x2 - x0)
    n1 = math.sqrt(math.fsum(v * v for v in d1))
    n2 = math.sqrt(math.fsum(v * v for v in d2))
    cosine = math.fsum(a * b for a, b in zip(d1, d2)) / (n1 * n2)
    return math.degrees(math.acos(max(-1.0, min(1.0, cosine))))


# The class-axis formulas as first written: np.max on the C-order array and
# the one-hot cross-entropy as a sum of targets times log-probabilities.
# tinynet computes the same bits with a column-major max and a gather.


def class_max_c_order(g):
    """np.max over the last axis of the array as given, keepdims."""
    return np.max(g, axis=-1, keepdims=True)


def softmax_c_order(logits):
    g = np.asarray(logits, dtype=np.float64)
    g = g - class_max_c_order(g)
    e = np.exp(g)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax_c_order(logits):
    g = np.asarray(logits, dtype=np.float64)
    m = class_max_c_order(g)
    return g - m - np.log(np.sum(np.exp(g - m), axis=-1, keepdims=True))


def cross_entropy_product_sum(logits, labels, smoothing=0.0, inv_temperature=1.0):
    """-mean(sum(targets * log_softmax(beta * logits))) with (1 - s) * onehot + s / C targets."""
    g = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    rows, classes = g.shape
    targets = np.full((rows, classes), smoothing / classes, dtype=np.float64)
    targets[np.arange(rows), labels] += 1.0 - smoothing
    ls = log_softmax_c_order(inv_temperature * g)
    return float(-np.mean(np.sum(targets * ls, axis=1)))


def approx_records_afresh(pairs, alphas, splits, beta_mode):
    """The loss-gap report's records with every curvature probe forwarded afresh.

    One ``ApproxRecord`` per (pair, split, alpha), in that order. Each alpha
    forwards its soup and every point of its second difference anew, the
    difference written out as central, or one-sided from alpha where a
    central probe would leave [0, 1]; nothing is shared between alphas.
    """
    from soupkit import analysis, ensembles
    from soupkit.tensorstore import as_params, axpy

    h = analysis.ALPHA_FD_STEP
    records = []
    for pair in pairs:
        p0, p1 = as_params(pair.theta0), as_params(pair.theta1)
        delta = axpy(p1, p0, -1.0)
        for split, (X, y) in splits.items():
            f0, f1 = tinynet.forward(p0, X), tinynet.forward(p1, X)
            for alpha in alphas:
                f_soup = tinynet.forward(axpy(p0, delta, alpha), X)
                f_ens = (1.0 - alpha) * f0 + alpha * f1
                fitted = beta_mode != "fixed-1"
                beta = ensembles.fit_temperature(f_soup, y).beta if fitted else 1.0

                def loss(a):
                    return tinynet.loss_ce(tinynet.forward(axpy(p0, delta, a), X), y, 0.0, beta)

                if alpha - h < 0.0:
                    d2 = loss(alpha) - 2.0 * loss(alpha + h) + loss(alpha + 2.0 * h)
                elif alpha + h > 1.0:
                    d2 = loss(alpha) - 2.0 * loss(alpha - h) + loss(alpha - 2.0 * h)
                else:
                    d2 = loss(alpha - h) - 2.0 * loss(alpha) + loss(alpha + h)
                d2 /= h * h
                variance = float(np.mean(tinynet.hessian_quadratic_form(beta * f_soup, f1 - f0)))
                records.append(
                    analysis.ApproxRecord(
                        pair_id=pair.pair_id,
                        split=split,
                        alpha=float(alpha),
                        beta=beta,
                        approx_value=alpha * (1.0 - alpha) / 2.0 * (-d2 + beta**2 * variance),
                        true_loss_diff=tinynet.loss_ce(f_soup, y, 0.0, beta)
                        - tinynet.loss_ce(f_ens, y, 0.0, beta),
                        true_err_diff=tinynet.top1_error(f_soup, y) - tinynet.top1_error(f_ens, y),
                        second_derivative_term=d2,
                        variance_term=variance,
                    )
                )
    return records
