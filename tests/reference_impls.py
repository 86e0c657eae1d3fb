"""Slow, independent reference implementations used only by the tests.

Everything here is written the dumbest defensible way (nested loops, double
sums, exhaustive search) precisely so it shares no structure with the
library code it checks.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
from scipy import ndimage
from scipy.signal import fftconvolve

from snapspec import (FidelityProblem, NoiseModel, apply_forward_frequency, fidelity_solve,
                      gdm_fidelity_step)
from snapspec.errors import DivergenceError
from snapspec.optics import embed_kernel, empty_cube


def direct_circular_encode(cube: np.ndarray, psfs: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Nested-loop coded-image forward model with wrapped indices.

    out[x, y, c] = sum_i sum_s kernel_ci[s] * cube[(x - (s0 - c0)) % H, ...]
    with kernel_ci = response[c, i] * psfs[i] and c0 the center index.
    """
    height, width, bands = cube.shape
    k = psfs.shape[1]
    center = k // 2
    out = np.zeros((height, width, 3))
    for c in range(3):
        for i in range(bands):
            kernel = response[c, i] * psfs[i]
            for x in range(height):
                for y in range(width):
                    acc = 0.0
                    for sx in range(k):
                        for sy in range(k):
                            acc += kernel[sx, sy] * cube[
                                (x - (sx - center)) % height,
                                (y - (sy - center)) % width,
                                i,
                            ]
                    out[x, y, c] += acc
    return out


def direct_dft2(a: np.ndarray) -> np.ndarray:
    """O(n^2) double-sum 2-D DFT with the unnormalized-forward convention."""
    height, width = a.shape
    out = np.zeros((height, width), dtype=np.complex128)
    for u in range(height):
        for v in range(width):
            acc = 0.0 + 0.0j
            for x in range(height):
                for y in range(width):
                    acc += a[x, y] * np.exp(-2j * np.pi * (u * x / height + v * y / width))
            out[u, v] = acc
    return out


def adjugate_inverse_3x3(m: np.ndarray) -> np.ndarray:
    """Cofactor-expansion inverse of a single 3 x 3 matrix."""
    m = np.asarray(m)
    cof = np.empty((3, 3), dtype=m.dtype)
    for r in range(3):
        for c in range(3):
            minor = np.delete(np.delete(m, r, axis=0), c, axis=1)
            cof[r, c] = (-1) ** (r + c) * (
                minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            )
    det = m[0, 0] * cof[0, 0] + m[0, 1] * cof[0, 1] + m[0, 2] * cof[0, 2]
    return cof.T / det


def tv_prox_1d(signal: np.ndarray, lam: float, levels: int = 6, grid: int = 81) -> np.ndarray:
    """Exhaustive dynamic-programming solver for the 1-D TV proximal problem.

    minimize_y  1/2 sum (y_i - x_i)^2 + lam * sum |y_{i+1} - y_i|

    Values are discretized onto per-position grids and the chain is solved
    exactly on the grid by forward Viterbi + backtracking; each refinement
    level re-centers the grids on the previous solution and shrinks the
    spacing, so the final answer is accurate to roughly span/40**levels.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    lo, hi = float(x.min()), float(x.max())
    half_span = max((hi - lo) / 2.0, 1e-6)
    centers = np.full(n, (hi + lo) / 2.0)
    offsets = np.linspace(-1.0, 1.0, grid)

    solution = centers.copy()
    for _ in range(levels):
        grids = centers[:, None] + half_span * offsets[None, :]
        cost = 0.5 * (grids[0] - x[0]) ** 2
        back = np.zeros((n, grid), dtype=np.intp)
        for i in range(1, n):
            jump = lam * np.abs(grids[i][None, :] - grids[i - 1][:, None])
            total = cost[:, None] + jump
            back[i] = np.argmin(total, axis=0)
            cost = total[back[i], np.arange(grid)] + 0.5 * (grids[i] - x[i]) ** 2
        idx = int(np.argmin(cost))
        path = np.empty(n, dtype=np.intp)
        path[-1] = idx
        for i in range(n - 1, 0, -1):
            path[i - 1] = back[i, path[i]]
        solution = grids[np.arange(n), path]
        centers = solution
        # next level zooms into one grid cell around the current path
        half_span *= 2.0 / (grid - 1) * 1.5
    return solution


def _tv_adjoint_grad(qh: np.ndarray, qv: np.ndarray) -> np.ndarray:
    # adjoint of the forward-difference gradient with Neumann boundary
    out = np.zeros_like(qh)
    out[:, 0] = -qh[:, 0]
    out[:, 1:] = qh[:, :-1] - qh[:, 1:]
    out[0, :] -= qv[0, :]
    out[1:, :] += qv[:-1, :] - qv[1:, :]
    return out


def tv_dual_reference(cube: np.ndarray, weight: float, iters: int) -> np.ndarray:
    """Whole-array projected-gradient dual for the anisotropic TV prox.

    Each iteration forms the full primal ``cube - D^T q`` and then updates
    both duals from it, with step 1/8, allocating fresh arrays throughout.
    The arithmetic per element is the library's, so a strip sweep of the
    same iteration must match it bit for bit.
    """
    cube = np.asarray(cube, dtype=np.float64)
    tau = 0.125
    qh = np.zeros_like(cube)
    qv = np.zeros_like(cube)
    for _ in range(iters):
        z = cube - _tv_adjoint_grad(qh, qv)
        qh[:, :-1] = np.clip(qh[:, :-1] + tau * (z[:, 1:] - z[:, :-1]), -weight, weight)
        qv[:-1, :] = np.clip(qv[:-1, :] + tau * (z[1:, :] - z[:-1, :]), -weight, weight)
    return cube - _tv_adjoint_grad(qh, qv)


def hqs_reference(coded, op, schedule, denoiser, initializer) -> np.ndarray:
    """The multiplier-free stage loop, written out: from the initializer's
    cube, each stage solves the fidelity subproblem anchored at the iterate
    and denoises the result.  No multipliers, anchor buffer or trace.

    It calls the library's fidelity_solve on purpose: the solve has its own
    dense-oracle checks, and this reference checks only the loop around it.
    """
    prob = FidelityProblem.from_coded_image(op, coded, gamma=schedule.gamma[0])
    z = initializer.initialize(coded, op, np.empty((op.height, op.width, op.n_bands)))
    for k in range(schedule.n_stages - 1):
        z = denoiser.denoise(fidelity_solve(prob.with_gamma(schedule.gamma[k]), z),
                             schedule.sigma_tilde[k])
    return z


def stage_loop_reference(coded, op, schedule, denoiser, initializer, trace=False,
                         gdm_iters=0):
    """The ADMM stage loop with whole-cube multiplier passes, written out.

    Each stage writes the anchor z - beta over the whole cube, solves (or
    takes ``gdm_iters`` gradient steps) and denoises i + beta; then
    beta += zeta * (i - z) runs as three whole-cube passes through the
    anchor buffer.  Returns the final iterate and the trace as tuples
    (stage, data fidelity, delta, gamma, primal residual).  An overflow or
    invalid value raises DivergenceError with the library's message.

    It calls the library's fidelity_solve, gdm_fidelity_step and denoisers,
    whose own tests check them, and keeps the library's layouts: pixel-major
    iterate and multipliers, a band-major padded anchor for the solve to
    work in.  The trace norms sum in memory order, so the layouts decide
    their last bits.
    """
    prob = FidelityProblem.from_coded_image(op, coded, gamma=schedule.gamma[0])
    z = initializer.initialize(prob.coded, op, np.empty((op.height, op.width, op.n_bands)))
    beta = np.zeros_like(z)
    anchor = empty_cube(op)
    records = []

    def record(stage, z_next, z_prev=None, gamma=np.nan, i_next=None):
        with np.errstate(over="ignore", invalid="ignore"):
            resid = apply_forward_frequency(op, z_next) - prob.coded
            fidelity = 0.5 * float(np.sum(resid**2))
            delta = np.nan if z_prev is None else float(np.linalg.norm(z_next - z_prev))
            primal = np.nan if i_next is None else float(np.linalg.norm(i_next - z_next))
        records.append((stage, np.inf if np.isnan(fidelity) else fidelity, delta,
                        float(gamma), primal))

    if trace:
        record(1, z)
    n = schedule.n_stages
    for k in range(n - 1):
        gamma = schedule.gamma[k]
        prob_k = prob.with_gamma(gamma)
        try:
            with np.errstate(over="raise", invalid="raise"):
                np.subtract(z, beta, out=anchor)
                if gdm_iters:
                    i_next = gdm_fidelity_step(prob_k, anchor, z, gdm_iters)
                else:
                    i_next = fidelity_solve(prob_k, anchor, out=anchor)
                x = np.add(i_next, beta, out=np.empty_like(z))
                x = denoiser.denoise(x, schedule.sigma_tilde[k], out=x)
                if trace:
                    record(k + 2, x, z, gamma, i_next)
                z = x
                np.subtract(i_next, z, out=anchor)
                anchor *= schedule.zeta
                beta += anchor
        except FloatingPointError as exc:
            raise DivergenceError("stage %d of %d diverged (%s) at zeta %g, gamma %g"
                                  % (k + 2, n, exc, schedule.zeta, gamma)) from None
    return z, records


def psnr_direct(x: np.ndarray, ref: np.ndarray, peak: float = 1.0) -> float:
    """PSNR recomputed straight from its definition (no cap handling)."""
    mse = np.mean((np.asarray(x, float) - np.asarray(ref, float)) ** 2)
    return float(10.0 * np.log10(peak * peak / mse))


def sam_direct(x: np.ndarray, ref: np.ndarray) -> float:
    """Per-pixel spectral angle via explicit loops, skipping tiny norms."""
    height, width, _ = x.shape
    angles = []
    for r in range(height):
        for c in range(width):
            a = x[r, c]
            b = ref[r, c]
            na = np.sqrt(np.sum(a * a))
            nb = np.sqrt(np.sum(b * b))
            if na < 1e-12 or nb < 1e-12:
                continue
            cosv = min(1.0, max(-1.0, float(np.dot(a, b) / (na * nb))))
            angles.append(np.arccos(cosv))
    return float(np.mean(angles))


def ssim_fftconvolve(x: np.ndarray, ref: np.ndarray) -> float:
    """Per-band SSIM (Wang et al. 2004) with local means from
    ``scipy.signal.fftconvolve(mode="valid")``: 11 x 11 Gaussian window,
    sigma 1.5, constants (0.01)^2 and (0.03)^2, averaged over bands."""
    offsets = np.arange(11) - 5.0
    g = np.exp(-offsets**2 / (2.0 * 1.5**2))
    window = g[:, None] * g[None, :]
    window = window / window.sum()
    c1 = 0.01**2
    c2 = 0.03**2
    scores = []
    for band in range(x.shape[2]):
        a = np.asarray(x[:, :, band], dtype=float)
        b = np.asarray(ref[:, :, band], dtype=float)
        mu_a = fftconvolve(a, window, mode="valid")
        mu_b = fftconvolve(b, window, mode="valid")
        var_a = fftconvolve(a * a, window, mode="valid") - mu_a * mu_a
        var_b = fftconvolve(b * b, window, mode="valid") - mu_b * mu_b
        cov = fftconvolve(a * b, window, mode="valid") - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))


# The set-up functions written as whole-array expressions, one new array per
# step.  The library computes the same values in its output buffers, band by
# band or in place, and must match these to the bit.


def smooth_cube_whole_array(height: int, width: int, n_bands: int, seed: int = 0) -> np.ndarray:
    """``synth.smooth_cube`` with the filter and the min-max scaling each
    returning a new cube."""
    noise = np.random.default_rng(seed).standard_normal((height, width, n_bands))
    spatial = max(2.0, min(height, width) / 12.0)
    g = ndimage.gaussian_filter(noise, sigma=(spatial, spatial, 1.0), mode="wrap")
    lo, hi = g.min(), g.max()
    if hi - lo < 1e-12:
        return np.full_like(g, 0.5)
    return (g - lo) / (hi - lo)


def transfer_batched(psfs: np.ndarray, height: int, width: int) -> np.ndarray:
    """Every band's OTF from one batched transform of the embedded stack."""
    return scipy.fft.rfft2(embed_kernel(psfs, height, width))


def gram_whole_array(transfer: np.ndarray, response: np.ndarray) -> np.ndarray:
    """The 6 Gram planes from the whole power cube |transfer|^2."""
    power = transfer.real**2 + transfer.imag**2
    rows, cols = np.triu_indices(3)
    return np.tensordot(response[rows] * response[cols], power, axes=1)


def add_noise_whole_array(image: np.ndarray, model: NoiseModel) -> np.ndarray:
    """``optics.add_noise`` as one expression per stage, with the same draws
    in the same order (no peak check)."""
    rng = np.random.default_rng(model.seed)
    out = np.asarray(image, dtype=np.float64).copy()
    if model.poisson_bits:
        full_well = float(2 ** model.poisson_bits)
        out = rng.poisson(np.clip(out, 0, None) * full_well).astype(float) / full_well
    if model.gaussian_sigma > 0:
        out = out + rng.normal(0.0, model.gaussian_sigma, size=out.shape)
    return out
