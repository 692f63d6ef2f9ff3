"""Frozen reference arithmetic for the benchmark's correctness gate.

This module restates, in plain numpy/scipy and without importing
``tailgraph``, the arithmetic that the package performed when the benchmark
was defined: noise sampling, the transformed-linear construction, the rank
transform, the pairwise TPDM, the per-pair residual t test, the Bonferroni
critical value and DOT rendering.  The softplus
preimage is computed once per sample instead of once per pair, which changes
no value.  The gate compares the program's outputs on the run's own seeded
inputs with these values; ``golden.json`` pins both to the recorded outputs.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import linalg, stats

_BRANCH = 30.0


def softplus(y):
    out = np.empty_like(y)
    hi = y > _BRANCH
    lo = y < -_BRANCH
    mid = ~(hi | lo)
    out[hi] = y[hi] + np.exp(-y[hi])
    out[lo] = np.exp(y[lo])
    out[mid] = np.log1p(np.exp(y[mid]))
    return out


def softplus_inv(x):
    out = np.empty_like(x)
    hi = x > _BRANCH
    out[hi] = x[hi] + np.log1p(-np.exp(-x[hi]))
    out[~hi] = np.log(np.expm1(x[~hi]))
    return out


def ar1_matrix(phi, p):
    lag = np.arange(p)[:, None] - np.arange(p)[None, :]
    return np.where(lag >= 0, float(phi) ** np.maximum(lag, 0), 0.0)


def noise(q, n, seed, delta):
    """Shifted-Pareto noise, one spawned substream per column."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.column_stack([1.0 / np.sqrt(1.0 - np.random.default_rng(c).random(n)) - delta
                            for c in root.spawn(q)])


def construct(A, Z):
    return softplus(softplus_inv(Z) @ np.asarray(A, dtype=float).T)


def marginal_transform(raw, delta):
    n = raw.shape[0]
    out = np.empty_like(raw)
    for j in range(raw.shape[1]):
        fhat = stats.rankdata(raw[:, j], method="average") / (n + 1)
        out[:, j] = 1.0 / np.sqrt(1.0 - fhat) - delta
    return out


def tpdm_pairwise(X, q):
    """Pairwise-radius TPDM with total mass 2 per pair."""
    p = X.shape[1]
    S = np.zeros((p, p))
    for i in range(p):
        for j in range(i, p):
            a, b = X[:, i], X[:, j]
            r = np.hypot(a, b)
            mask = r > np.quantile(r, q)
            k = int(mask.sum())
            S[i, j] = S[j, i] = 2.0 / k * float(np.sum((a[mask] / r[mask]) * (b[mask] / r[mask])))
    return S


def _blocks(G, target, comp):
    t, c = list(target), list(comp)
    return G[np.ix_(t, t)], G[np.ix_(t, c)], G[np.ix_(c, c)]


def _cho_solve(G22, rhs):
    return linalg.cho_solve(linalg.cho_factor((G22 + G22.T) / 2.0, lower=True), rhs)


def pair_stats(Y, G, target, q_pred, q_res):
    """Residual test for one pair; ``Y`` is the softplus preimage of the sample.

    Returns ``(sigma_u, tau2, k, t)``.
    """
    p = G.shape[0]
    comp = [c for c in range(p) if c not in target]
    G11, G12, G22 = _blocks(G, target, comp)
    b = _cho_solve(G22, G12.T)
    C = G11 - G12 @ _cho_solve(G22, G12.T)
    C = (C + C.T) / 2.0
    m = float(np.trace(C))
    U = Y[:, list(target)] - Y[:, comp] @ b
    r = np.sqrt(np.sum(U ** 2, axis=1))
    keep = r > float(np.quantile(r, q_pred))
    rk, uk = r[keep], U[keep]
    sel = np.ones(rk.size, dtype=bool)
    if q_res is not None:
        k_target = int(np.floor((1.0 - q_res) * r.size + 1e-9))
        if k_target < rk.size:
            cut = rk.size - k_target - 1
            sel = rk > np.partition(rk, cut)[cut]
    k = int(sel.sum())
    w = uk / rk[:, None]
    prod = w[sel, 0] * w[sel, 1]
    sigma_u = m / k * float(prod.sum())
    e1 = prod.sum() / (k - 1)
    e2 = (prod ** 2).sum() / (k - 1)
    tau2 = float(m ** 2 * (e2 - e1 ** 2))
    return sigma_u, tau2, k, float(sigma_u / np.sqrt(tau2 / k))


def all_pairs(X, q_radial, q_pred, q_res, alpha=0.05):
    """Bonferroni all-pairs test; returns ``(records, critical_value)``.

    Each record is ``(i, j, t, k, reject)``.
    """
    G = tpdm_pairwise(X, q_radial)
    Y = softplus_inv(X)
    pairs = list(combinations(range(X.shape[1]), 2))
    stats_ = [pair_stats(Y, G, pair, q_pred, q_res) for pair in pairs]
    df = min(s[2] for s in stats_) - 1
    cv = float(stats.t.ppf(1.0 - alpha / (2.0 * len(pairs)), df))
    records = [(i, j, s[3], s[2], bool(abs(s[3]) > cv)) for (i, j), s in zip(pairs, stats_)]
    return records, cv


def dot(columns, records, cv, width_scale=4.0):
    """DOT text of the extremal graph: one edge per rejected pair."""
    edges = [(i, j, abs(t)) for i, j, t, _, _ in records if abs(t) > cv]
    lines = ["graph extremal {", f"  // critical value: {cv:g}", "  node [shape=circle];"]
    lines += [f'  "{name}";' for name in columns]
    max_w = max((w for _, _, w in edges), default=0.0)
    for i, j, w in sorted(edges):
        lines.append(f'  "{columns[i]}" -- "{columns[j]}"'
                     f' [penwidth={width_scale * w / max_w:.4f}, label="{w:.2f}"];')
    return "\n".join(lines + ["}"]) + "\n"
