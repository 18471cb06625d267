"""Output checks of the benchmark, written as pure functions of arrays and numbers.

Each check returns a list of failure messages; an empty list is a pass. The
references are computed here with numpy from the raw inputs (edge lists,
features, weights), or are properties the method must have; none is a stored
copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.2


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _leaky(z):
    return np.where(z >= 0, z, LEAKY_SLOPE * z)


# ---------------------------------------------------------------- graphs


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return a


def sym_normalized(a: np.ndarray) -> np.ndarray:
    inv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * np.outer(inv, inv)


def laplacian(a: np.ndarray) -> np.ndarray:
    return np.eye(len(a)) - sym_normalized(a)


# ---------------------------------------------------------------- fitting


def check_fit_gates(best: dict, diverged: dict, lmgc_max=1e-6, baseline_min=1e-2) -> list:
    """The criterion-4 gates: lmgc fits to lmgc_max, every baseline stalls above baseline_min."""
    fails = [f"{m} diverged" for m, d in diverged.items() if d]
    for method, loss in best.items():
        if method == "lmgc":
            if not loss <= lmgc_max:
                fails.append(f"lmgc best loss {loss:.3e} > {lmgc_max:g}")
        elif not loss >= baseline_min:
            fails.append(f"{method} best loss {loss:.3e} < {baseline_min:g}")
    return fails


def check_fit_progress(best: dict, initial: dict, diverged: dict) -> list:
    """Every method ends below its step-0 loss and none diverges."""
    fails = [f"{m} diverged" for m, d in diverged.items() if d]
    for method, loss in best.items():
        if not loss < initial[method]:
            fails.append(f"{method} best loss {loss:.6e} not below step-0 loss {initial[method]:.6e}")
    return fails


def check_equivariance(method: str, out, out_relabeled, perm, tol=1e-12) -> list:
    """out_relabeled[perm[i]] must equal out[i]: relabeling nodes permutes output rows."""
    gap = float(np.max(np.abs(np.asarray(out_relabeled)[perm] - out)))
    return [] if gap <= tol else [f"{method}: relabeled forward differs by {gap:.3e}"]


def check_gradient(method: str, analytic: float, central: float, scale: float, tol=1e-5) -> list:
    """Directional derivative from backward vs a central difference of the loss.

    The gap is taken relative to |grad| |direction|, the largest the
    derivative can be: with hundreds of thousands of leaky-ReLU inputs the
    derivative itself can be small, and a difference step that crosses a kink
    moves it by one unit's share, well below this tolerance.
    """
    gap = abs(analytic - central) / max(scale, 1e-300)
    return [] if gap <= tol else [
        f"{method}: gradient {analytic:.9e} vs central difference {central:.9e} (gap {gap:.2e} of |g||r|)"
    ]


def check_mse(method: str, pred, target, loss: float, tol=1e-12) -> list:
    diff = np.asarray(pred) - target
    ref = float(np.mean(diff * diff))
    gap = abs(ref - loss) / max(abs(ref), 1e-300)
    return [] if gap <= tol else [f"{method}: mse {loss!r} vs numpy {ref!r}"]


# ---------------------------------------------------------------- multisets


def check_trials(reports) -> list:
    """Every trial reports zero violations and a finite, positive minimum separation."""
    fails = []
    for label, violations, min_sep in reports:
        if violations != 0:
            fails.append(f"{label}: {violations} violations")
        if not (np.isfinite(min_sep) and min_sep > 0.0):
            fails.append(f"{label}: minimum separation {min_sep!r}")
    return fails


def check_counterexamples(outputs: dict, collide_tol=1e-12, separate_rtol=1e-9) -> list:
    """Softmax attention collides on {{x}} vs {{x, x}}; tanh-gated schemes separate it."""
    fails = []
    for variant, (a, b) in outputs.items():
        gap = float(np.max(np.abs(a - b)))
        if variant == "gatv2_softmax":
            if gap > collide_tol:
                fails.append(f"{variant} counterexample does not collide ({gap:.3e})")
        elif not np.linalg.norm(a - b) > separate_rtol * max(np.linalg.norm(a), np.linalg.norm(b)):
            fails.append(f"{variant} counterexample collides ({gap:.3e})")
    return fails


def check_parallel(fa, fb, tol=1e-9) -> list:
    s = np.linalg.svd(np.stack([fa, fb]), compute_uv=False)
    ratio = s[1] / max(s[0], 1e-300)
    return [] if ratio < tol else [f"scaling control not parallel (ratio {ratio:.3e})"]


def tanh_alpha(kind: str, head: int, xi, xj, gate, w=None) -> float:
    """The gated coefficient of the fagcn_tanh and lmgc_eq14 sources, from its formula."""
    if kind == "fagcn_tanh":
        return float(np.tanh(gate[head] @ np.concatenate([xi, xj])))
    zi = np.concatenate([xi @ wk for wk in w])
    zj = np.concatenate([xj @ wk for wk in w])
    return float(np.tanh(gate[head] @ _leaky(np.concatenate([zi, zj]))))


def aggregate_reference(features, alphas, weights) -> np.ndarray:
    """sum_k sum_j alphas[k][j] x_j W_k."""
    out = np.zeros(weights.shape[2])
    for k, wk in enumerate(weights):
        for a, xj in zip(alphas[k], features):
            out += a * (xj @ wk)
    return out


def check_aggregate(label: str, got, ref, tol=1e-12) -> list:
    gap = _rel(got, ref)
    return [] if gap <= tol else [f"{label}: aggregate differs from the direct sum (rel {gap:.2e})"]


# ---------------------------------------------------------------- spectra


def check_eigen(label: str, lap, eigenvalues, eigenvectors, tol=1e-10) -> list:
    """Eigenvalues against eigvalsh, both residuals, the [0, 2] range and one zero."""
    fails = []
    ref = np.linalg.eigvalsh(lap)
    lam = np.asarray(eigenvalues)
    u = np.asarray(eigenvectors)
    gap = float(np.max(np.abs(lam - ref)))
    if not gap <= tol:
        fails.append(f"{label}: eigenvalues differ from eigvalsh by {gap:.3e}")
    resid = float(np.linalg.norm(lap @ u - u * lam))
    if not resid <= tol:
        fails.append(f"{label}: |LU - U Lambda| = {resid:.3e}")
    orth = float(np.linalg.norm(u.T @ u - np.eye(len(lam))))
    if not orth <= tol:
        fails.append(f"{label}: |U^T U - I| = {orth:.3e}")
    if not (lam.min() >= -tol and lam.max() <= 2.0 + tol):
        fails.append(f"{label}: eigenvalue outside [0, 2]")
    zeros = int(np.sum(np.abs(lam) <= 1e-8))
    if zeros != 1:
        fails.append(f"{label}: {zeros} eigenvalues near 0, expected 1")
    return fails


def check_routes(label: str, routes: dict, tol=1e-9) -> list:
    """Every MIMO route agrees with mimo_gc."""
    ref = routes["mimo_gc"]
    fails = []
    for name, out in routes.items():
        gap = float(np.max(np.abs(out - ref)))
        if not gap <= tol:
            fails.append(f"{label}: {name} differs from mimo_gc by {gap:.3e}")
    return fails


def check_close(label: str, got, ref, tol) -> list:
    gap = _rel(got, ref)
    return [] if gap <= tol else [f"{label}: relative error {gap:.3e} > {tol:g}"]


def mimo_apply(theta, x, u) -> np.ndarray:
    """Exact MIMO convolution sum_k u_k (u_k^T X) (U^T theta)_k^T for theta of shape (n, c, d)."""
    hat = np.einsum("ik,icd->kcd", u, theta)
    return u @ np.einsum("kd,kcd->kc", u.T @ x, hat)


def polynomial_reference(a_sym, x, v_list) -> np.ndarray:
    out = np.zeros((x.shape[0], v_list[0].shape[1]))
    power = x
    for v in v_list:
        out += power @ v
        power = a_sym @ power
    return out


def lmgc_reference(variant: str, a, x, weights, vectors) -> np.ndarray:
    """sum_k C_k X W_k with each scheme's coefficient matrix C_k built from its formula."""
    mask = a > 0
    a_sym = sym_normalized(a)
    xw = [x @ w for w in weights]
    if variant == "gcn_norm":
        coeffs = [a_sym]
    elif variant == "acm_fixed":
        coeffs = [a_sym, np.eye(len(a)) - a_sym]
    elif variant == "fagcn_tanh":
        v = vectors[0]
        d = x.shape[1]
        gate = np.tanh((x @ v[:d])[:, None] + (x @ v[d:])[None, :])
        coeffs = [gate * a_sym]
    elif variant == "gatv2_softmax":
        coeffs = []
        for h, v in zip(xw, vectors):
            scores = _leaky(h[:, None, :] + h[None, :, :]) @ v
            scores = np.where(mask, scores, -np.inf)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            coeffs.append(e / e.sum(axis=1, keepdims=True))
    elif variant == "lmgc_eq14":
        z = np.concatenate(xw, axis=1)
        kc = z.shape[1]
        pair = _leaky(np.concatenate(
            [np.broadcast_to(z[:, None, :], (len(z), len(z), kc)),
             np.broadcast_to(z[None, :, :], (len(z), len(z), kc))], axis=2))
        coeffs = [np.tanh(pair @ v) * mask for v in vectors]
    else:
        raise ValueError(f"no reference formula for {variant}")
    return sum(c @ h for c, h in zip(coeffs, xw))


def check_coefficients(label: str, variant: str, mats, a, tol=1e-12) -> list:
    """Coefficients vanish off the edges; softmax rows sum to one."""
    fails = []
    off = ~(a > 0)
    if np.any(np.asarray(mats)[:, off] != 0.0):
        fails.append(f"{label}: {variant} coefficients outside the edges")
    if variant == "gatv2_softmax":
        gap = float(np.max(np.abs(np.asarray(mats).sum(axis=2) - 1.0)))
        if not gap <= tol:
            fails.append(f"{label}: softmax rows sum to 1 +- {gap:.3e}")
    return fails


def check_spectrum_csv(label: str, text: str, lap, tol=1e-11) -> list:
    """spectrum.csv rows are (index, eigenvalue) matching eigvalsh to the printed digits."""
    lines = text.strip().splitlines()
    ref = np.linalg.eigvalsh(lap)
    if lines[0] != "index,eigenvalue" or len(lines) != len(ref) + 1:
        return [f"{label}: spectrum.csv has an unexpected layout"]
    vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
    gap = float(np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))))
    return [] if gap <= tol else [f"{label}: spectrum.csv differs from eigvalsh by {gap:.3e}"]
