"""Independent reference implementations used as test oracles.

Everything here is written directly from the stated rules (brute force,
enumeration, finite differences, textbook series) and deliberately shares no
code with the package under test.
"""

from __future__ import annotations

import itertools
import math
import unicodedata

import numpy as np


# -- tokenizer ---------------------------------------------------------------

def reference_tokenize(text: str) -> list[str]:
    """Second implementation of the tokenizer rule: lowercase, split on
    Unicode whitespace, strip leading/trailing punctuation, drop empties."""
    out = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        token = raw[start:end]
        if token:
            out.append(token)
    return out


# -- per-page TF-IDF ---------------------------------------------------------

def tfidf_vector(text: str, model) -> np.ndarray:
    """Per-page reference TF-IDF: tf x idf entries over the vocabulary,
    L2-normalized unless all-zero; out-of-vocabulary tokens are ignored."""
    ids = {tok: i for i, tok in enumerate(model.vocabulary.tokens)}
    vec = np.zeros(len(model.vocabulary.tokens), dtype=np.float64)
    for tok in reference_tokenize(text):
        if tok in ids:
            vec[ids[tok]] += 1.0
    vec *= model.idf
    norm = math.sqrt(float(vec @ vec))
    if norm > 0.0:
        vec /= norm
    return vec


# -- per-page input augmentation ---------------------------------------------

def augment_input(context, text: str, codec, max_len: int):
    """Per-page reference of the model input: [CLS] + context tokens + text
    tokens, PAD-padded to ``max_len``.  Returns (ids, length).

    ``context`` is ``recurrence.FIRST_PAGE``, a non-empty set of class
    indices, or None.  Context tokens (the first-page marker, or the class
    special tokens in ascending class order) are never truncated; text is
    truncated from the right.
    """
    from pageseq.encoder import CLS_ID, FIRST_ID, PAD_ID
    from pageseq.recurrence import FIRST_PAGE

    head = [CLS_ID]
    if context is FIRST_PAGE:
        head.append(FIRST_ID)
    elif context is not None:
        if not context:
            raise ValueError("previous-page context must be non-empty")
        head.extend(codec.class_token_id(c) for c in sorted(context))
    if len(head) > max_len:
        raise ValueError("max_len too small for CLS plus context tokens")
    text_ids = [codec.text_token_id(tok) for tok in reference_tokenize(text)]
    body = text_ids[: max_len - len(head)]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[: len(head) + len(body)] = head + body
    return ids, len(head) + len(body)


def reference_batch(examples, label_mode: str, n_classes: int):
    """(ids, targets) of a training batch from per-page examples
    ((ids, length), gold label set): the rows cut to the longest length, and
    gold class indices (multiclass) or a 0/1 matrix (multilabel)."""
    width = max(length for (_, length), _ in examples)
    ids = np.stack([row[:width] for (row, _), _ in examples])
    golds = [gold for _, gold in examples]
    if label_mode == "multiclass":
        return ids, np.array([next(iter(gold)) for gold in golds])
    targets = np.zeros((len(golds), n_classes))
    for i, gold in enumerate(golds):
        targets[i, sorted(gold)] = 1.0
    return ids, targets


# -- label-run scanning ------------------------------------------------------

def scan_runs(label_seqs: list[list[int]]) -> dict[int, list[int]]:
    """Naive O(pages) enumeration of maximal same-label runs per class."""
    runs: dict[int, list[int]] = {}
    for labels in label_seqs:
        i = 0
        while i < len(labels):
            j = i
            while j < len(labels) and labels[j] == labels[i]:
                j += 1
            runs.setdefault(labels[i], []).append(j - i)
            i = j
    return runs


def count_self_transitions(label_seqs: list[list[int]]) -> dict[int, tuple[int, int]]:
    """Per class: (# successors equal, # pages with a successor)."""
    counts: dict[int, tuple[int, int]] = {}
    for labels in label_seqs:
        for t in range(len(labels) - 1):
            c = labels[t]
            same, total = counts.get(c, (0, 0))
            counts[c] = (same + (1 if labels[t + 1] == c else 0), total + 1)
    return counts


# -- finite differences ------------------------------------------------------

def finite_diff_grads(loss_fn, params: dict[str, np.ndarray], h: float = 1e-4
                      ) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar loss over a dict of arrays."""
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value, dtype=np.float64)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def assert_grads_close(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray],
                       rel_tol: float = 1e-4) -> None:
    """Relative-error check, coordinatewise, with an absolute floor for
    coordinates where both gradients are tiny."""
    for name in numeric:
        a = np.asarray(analytic[name], dtype=np.float64)
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        rel = np.abs(a - n) / denom
        assert rel.max() <= rel_tol, (
            f"gradient mismatch for {name}: max rel err {rel.max():.3e}"
        )


# -- full-sequence tiny transformer ------------------------------------------

def reference_transformer_scores(params: dict[str, np.ndarray], ids: np.ndarray,
                                 n_layers: int, n_heads: int) -> np.ndarray:
    """Class scores of the pre-LN tiny transformer, one example at a time,
    with every row computed in every layer and read out at row 0 (CLS).

    ``ids`` is a (B, L) matrix padded with id 0; padded keys get no
    attention.  Layernorm eps 1e-5; GELU is the tanh approximation.
    """
    def layernorm(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + 1e-5) + b

    def gelu(x):
        return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                        * (x + 0.044715 * x ** 3)))

    out = []
    for row in ids:
        length = int(np.count_nonzero(row))
        x = params["emb"][row] + params["pos"][:len(row)]
        for layer in range(n_layers):
            p = f"layer{layer}/"
            a = layernorm(x, params[p + "ln1_g"], params[p + "ln1_b"])
            q = a @ params[p + "wq"] + params[p + "qb"]
            k = a @ params[p + "wk"] + params[p + "kb"]
            v = a @ params[p + "wv"] + params[p + "vb"]
            dh = q.shape[1] // n_heads
            heads = []
            for h in range(n_heads):
                cols = slice(h * dh, (h + 1) * dh)
                logits = q[:, cols] @ k[:length, cols].T / math.sqrt(dh)
                w = np.exp(logits - logits.max(axis=1, keepdims=True))
                w /= w.sum(axis=1, keepdims=True)
                heads.append(w @ v[:length, cols])
            x = x + np.concatenate(heads, axis=1) @ params[p + "wo"] + params[p + "ob"]
            f = layernorm(x, params[p + "ln2_g"], params[p + "ln2_b"])
            hidden = gelu(f @ params[p + "w1"] + params[p + "b1"])
            x = x + hidden @ params[p + "w2"] + params[p + "b2"]
        final = layernorm(x, params["lnf_g"], params["lnf_b"])
        out.append(final[0] @ params["head_w"] + params["head_b"])
    return np.array(out)


# -- brute-force linear-chain CRF --------------------------------------------

def crf_enumerate(transition: np.ndarray, start: np.ndarray,
                  emissions: np.ndarray, scale: float = 1.0):
    """Explicit enumeration over all n^l paths.

    Returns (logZ, best_path, best_score, unary_marginals, pair_marginals)
    with ties in the best path broken toward the lexicographically smallest
    label sequence.
    """
    length, n = emissions.shape
    scores = []
    paths = list(itertools.product(range(n), repeat=length))
    for path in paths:
        s = start[path[0]] + scale * emissions[0, path[0]]
        for t in range(1, length):
            s += transition[path[t - 1], path[t]] + scale * emissions[t, path[t]]
        scores.append(s)
    scores = np.asarray(scores)
    m = scores.max()
    log_z = m + math.log(np.sum(np.exp(scores - m)))
    best = max(range(len(paths)), key=lambda i: (scores[i], [-x for x in paths[i]]))
    probs = np.exp(scores - log_z)
    unary = np.zeros((length, n))
    pair = np.zeros((length - 1, n, n)) if length > 1 else np.zeros((0, n, n))
    for path, p in zip(paths, probs):
        for t, y in enumerate(path):
            unary[t, y] += p
        for t in range(length - 1):
            pair[t, path[t], path[t + 1]] += p
    return log_z, list(paths[best]), float(scores[best]), unary, pair


# -- dense Jacobi eigensolver ------------------------------------------------

def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns eigenvalues sorted descending and the matching eigenvectors as
    columns.  Exhaustive (all eigenpairs), independent of any iterative SVD.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-30:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(a.diagonal())[::-1]
    return a.diagonal()[order], v[:, order]


# -- regularized incomplete gamma / chi-square tail ---------------------------

def _gamma_series(a: float, x: float, eps: float = 1e-16) -> float:
    """Lower regularized incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    k = a
    for _ in range(10_000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * eps:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_cont_fraction(a: float, x: float, eps: float = 1e-16) -> float:
    """Upper regularized incomplete gamma Q(a, x) by Lentz's continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))

def reference_gammaincc(a: float, x: float) -> float:
    """Q(a, x): series for x < a+1, continued fraction otherwise."""
    if x < 0 or a <= 0:
        raise ValueError("domain error")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cont_fraction(a, x)

def reference_chi2_sf(stat: float, dof: int) -> float:
    """Upper-tail chi-square probability via the incomplete gamma above."""
    return reference_gammaincc(dof / 2.0, stat / 2.0)


# -- confusion-matrix scoring -------------------------------------------------

def naive_prf(preds: list[int], golds: list[int], n: int):
    """Independent per-class precision/recall/F1 by direct counting."""
    precision, recall, f1, support = [], [], [], []
    for c in range(n):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        pred_c = sum(1 for p in preds if p == c)
        gold_c = sum(1 for g in golds if g == c)
        p = tp / pred_c if pred_c else 0.0
        r = tp / gold_c if gold_c else 0.0
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(gold_c)
    return precision, recall, f1, support
