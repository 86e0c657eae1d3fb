"""Exact frequency-domain solver for the measurement-consistency subproblem.

The subproblem anchored at a cube ``T`` with penalty weight ``gamma`` is

    minimize_X  1/2 ||A X - J||^2  +  gamma/2 ||X - T||^2,

where A is the coded-image forward operator.  Under circular boundary
conditions A diagonalizes per spatial frequency into H_f = R diag(P_f), R
the real 3 x N sensor response and P_f the N band OTFs, so the normal
equations split into independent N x N systems.  Rather than inverting
N x N per frequency, the solution is rearranged through the push-through
identity so only the 3 x 3 matrix  A_f = I + (1/gamma) H_f H_f^*  needs
inverting:

    U_f = T_f + (1/gamma) H_f^* A_f^{-1} (V_f - H_f T_f)

with V the coded-image spectrum and T_f the anchor spectrum.  The Gram
H_f H_f^* = R diag(|P_f|^2) R^T is real symmetric, does not depend on gamma
and is cached on the operator as its 6 distinct entries, one plane each.
The solve walks the bins in the cache-sized strips of rows of
:func:`optics.row_strips`, the rule that the transforms' row passes, TV
and the stage loop's anchor and multiplier sweeps follow too.  Per strip it
inverts A_f on those planes by a two-level Schur-complement recursion that
only ever divides by scalars bounded below by 1, applies H_f, the inverse
and H_f^*, and adds the update into the anchor spectrum in place.  The
anchor spectrum lives in the output's own bytes: an
:func:`optics.empty_cube` pads each row to hold its half spectrum, the
transforms go a strip of rows at a time into it and back, and the output
may be the anchor itself.  So a solve holds no cube beyond its input and
output, only the transforms' strip and its own strip scratch.  Spectra are
the half spectra of :func:`optics.to_spectrum`, which also checks every
input's grid shape.

``fidelity_solve_naive`` solves the untransformed per-frequency N x N
systems directly and exists to cross-validate the rearrangement;
``gdm_fidelity_step`` is the gradient-descent baseline the closed form
replaces, each step 1 / (||A||^2 + gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GAMMA, DimensionError, Domain, SingularPivotError, ValidationError
from .optics import GRAM_PLANES, FrequencyOperator, apply_adjoint, apply_forward_frequency
from .optics import back_project, cube_spectrum, empty_cube, forward_project, from_spectrum
from .optics import row_strips, to_spectrum

# every exact pivot of identity-plus-PSD input is >= 1; a computed one
# below this margin (negative and NaN ones included) has lost its digits to
# cancellation, as under a gamma too small for float64
_PIVOT_MARGIN = 0.5

# the solve forms the identity plus gram / gamma, whose largest entry, the
# operator's gram_max / gamma, must stay below half the float64 maximum.
# Measured over 3000 random systems (1 to 31 bands, kernels 1 to
# 7, responses scaled by 1e-4 to 1e4): where every bin's Gram has rank 3,
# the scaling and the 3 x 3 inverse overflowed at factors up to 1.26, never
# at 2; a rank-deficient Gram can overflow the outer Schur complement at
# larger factors (up to 1579 seen), where its pivot has lost its digits
_GRAM_LIMIT = float(np.finfo(np.float64).max) / 2

# largest GDM step count per call: a mistyped one cannot sweep the cube for hours
MAX_GDM_ITERS = 10_000
GDM_ITERS = Domain(0, MAX_GDM_ITERS)


@dataclass(frozen=True)
class FidelityProblem:
    """One measurement-consistency subproblem instance.

    ``coded`` is the float64 coded image J, shape (H, W, 3), read-only;
    :meth:`from_coded_image` refuses one whose spectrum is not finite with
    ValidationError: a NaN or inf image, or a finite one so bright that its
    transform's sums leave float64.
    ``coded_spectrum`` is its :func:`optics.to_spectrum`,
    shape (3, H, W // 2 + 1) complex, read-only: handed to
    :func:`optics.from_spectrum`, which consumes its spectra, it raises
    ValueError and keeps its bytes.
    ``gamma`` is the anchor weight, in ``errors.GAMMA``, and at least
    ``op.gram_max`` over half the float64 maximum, so that the solve's Gram
    over gamma is finite: SingularPivotError otherwise.
    """

    op: FrequencyOperator
    coded: np.ndarray
    coded_spectrum: np.ndarray
    gamma: float

    def __post_init__(self):
        GAMMA.check(self.gamma, "gamma")
        expected = (3, self.op.height, self.op.width // 2 + 1)
        if self.coded_spectrum.shape != expected:
            raise DimensionError(
                "coded_spectrum shape %r, expected %r" % (self.coded_spectrum.shape, expected)
            )
        # last, as it reads the operator's Gram, which its first use makes
        floor = self.op.gram_max / _GRAM_LIMIT
        if self.gamma < floor:
            raise SingularPivotError(
                "gamma %r below %r, the smallest at which Gram / gamma (largest Gram "
                "entry %.6g) stays in float64" % (float(self.gamma), floor, self.op.gram_max))

    @classmethod
    def from_coded_image(cls, op: FrequencyOperator, coded: np.ndarray, gamma: float):
        coded = np.asarray(coded, dtype=np.float64).view()  # not a copy
        coded.flags.writeable = False
        # every stage reads the spectrum, so it is the spectrum that must be
        # finite: a NaN or inf image spoils it, and so does a finite one too
        # bright for its sums.  The transform runs quiet, so the check reads
        # the same under any errstate
        with np.errstate(over="ignore", invalid="ignore"):
            coded_spectrum = to_spectrum(op, coded, 3)
        if not np.all(np.isfinite(coded_spectrum)):
            raise ValidationError("coded image must be finite, and so must its spectrum")
        coded_spectrum.flags.writeable = False
        return cls(op=op, coded=coded, coded_spectrum=coded_spectrum, gamma=gamma)

    def with_gamma(self, gamma: float) -> "FidelityProblem":
        return replace(self, gamma=gamma)


def block_inverse_3x3(a: np.ndarray) -> np.ndarray:
    """Invert real symmetric 3 x 3 matrices of the form identity-plus-PSD.

    ``a`` has shape (6, ...), the planes of entries (0, 0), (0, 1), (0, 2),
    (1, 1), (1, 2), (2, 2) as in ``FrequencyOperator.gram``; the inverse
    comes back in the same layout.  The recursion eliminates entry (0, 0)
    first via the inner Schur complement, inverts the top-left 2 x 2 block,
    then forms the outer Schur complement against entry (2, 2).  All
    divisions are by pivots that are >= 1 for identity-plus-PSD input;
    SingularPivotError names the first pivot that computes below 1/2 (or
    NaN) anywhere, since its digits are then lost to rounding.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 1 or a.shape[0] != 6:
        raise DimensionError("expected 6 leading symmetric planes, got %r" % (a.shape,))
    a00, a01, a02, a11, a12, a22 = a
    inv00 = _pivot_reciprocal(a00, "leading")
    # inner Schur complement eliminating the (0, 0) entry
    c = _pivot_reciprocal(a11 - a01 * inv00 * a01, "inner Schur")
    b01 = -inv00 * a01 * c
    b00 = inv00 - b01 * a01 * inv00
    # outer Schur complement of the 2x2 block [b00 b01; b01 c] against (2, 2);
    # for a rank-deficient Gram near the gamma floor its product can overflow,
    # and the pivot guard then names the pivot that lost its digits
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = b00 * a02 + b01 * a12
        t1 = b01 * a02 + c * a12
        outer = a22 - (a02 * t0 + a12 * t1)
    d = _pivot_reciprocal(outer, "outer Schur")
    return np.stack([b00 + t0 * d * t0, b01 + t0 * d * t1, -t0 * d,
                     c + t1 * d * t1, -t1 * d, d])


def _pivot_reciprocal(pivot: np.ndarray, name: str) -> np.ndarray:
    if not np.all(pivot >= _PIVOT_MARGIN):
        worst = np.min(np.where(pivot >= _PIVOT_MARGIN, np.inf, pivot))  # NaN if any
        raise SingularPivotError("%s pivot %.3g below %g" % (name, worst, _PIVOT_MARGIN))
    return 1.0 / pivot


def fidelity_solve(prob: FidelityProblem, anchor: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Exact minimizer of the anchored subproblem via 3 x 3 block inversion.

    Cost per call: one real FFT and one inverse real FFT per band plus
    pointwise 3 x 3 algebra over the stored half-spectrum bins.  The output
    is ``out``, an :func:`optics.empty_cube` array (DimensionError for any
    other), or a new one when ``out`` is None.  The anchor is transformed
    into the output's own bytes, a strip of rows at a time, so ``out`` may
    be ``anchor`` itself.  The gradient of the subproblem objective
    vanishes at the output up to floating-point roundoff.
    """
    op = prob.op
    g = 1.0 / prob.gamma
    if out is None:
        out = empty_cube(op)
    spec = to_spectrum(op, anchor, op.n_bands, out=cube_spectrum(op, out))
    for r0, r1 in row_strips(op.height, op.n_bands * spec.shape[2]):
        strip = slice(r0, r1)
        a = op.gram[:, strip] * g
        a[[0, 3, 5]] += 1.0  # the diagonal planes
        a_inv = block_inverse_3x3(a)
        a_inv *= g  # the update's 1/gamma, on 6 real planes
        resid = forward_project(op, spec[:, strip], strip)
        np.subtract(prob.coded_spectrum[:, strip], resid, out=resid)
        weighted = np.empty_like(resid)
        for channel, (p0, p1, p2) in zip(weighted, GRAM_PLANES):
            np.multiply(a_inv[p0], resid[0], out=channel)
            channel += a_inv[p1] * resid[1]
            channel += a_inv[p2] * resid[2]
        spec[:, strip] += back_project(op, weighted, strip)
    return from_spectrum(op, spec, out)


def fidelity_solve_naive(prob: FidelityProblem, anchor: np.ndarray) -> np.ndarray:
    """Solve the same subproblem by direct per-frequency N x N Hermitian solves.

    Memory scales with bands^2 per frequency; intended for test scales to
    validate the 3 x 3 rearrangement, not for production use.
    """
    transfer = prob.op.response[:, :, None, None] * prob.op.transfer[None]
    n_bands = prob.op.n_bands
    anchor_spec = to_spectrum(prob.op, anchor, n_bands)

    normal = np.einsum("cihw,cjhw->hwij", np.conj(transfer), transfer)
    normal += prob.gamma * np.eye(n_bands)
    rhs = np.einsum("cihw,chw->hwi", np.conj(transfer), prob.coded_spectrum)
    rhs += prob.gamma * anchor_spec.transpose(1, 2, 0)
    u = np.linalg.solve(normal, rhs[..., None])[..., 0]
    return from_spectrum(prob.op, u.transpose(2, 0, 1))


def subproblem_objective(prob: FidelityProblem, x: np.ndarray, anchor: np.ndarray) -> float:
    """Value of 1/2 ||A x - J||^2 + gamma/2 ||x - anchor||^2."""
    resid = apply_forward_frequency(prob.op, x) - prob.coded
    return 0.5 * float(np.sum(resid**2)) + 0.5 * prob.gamma * float(np.sum((x - anchor) ** 2))


def subproblem_gradient(prob: FidelityProblem, x: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Gradient A^T (A x - J) + gamma (x - anchor) of the subproblem objective,
    each temporary freed once used."""
    resid = apply_forward_frequency(prob.op, x)
    resid -= prob.coded
    grad = apply_adjoint(prob.op, resid)
    del resid
    pull = x - anchor
    pull *= prob.gamma
    grad += pull
    return grad


def gdm_fidelity_step(prob: FidelityProblem, anchor: np.ndarray, current: np.ndarray,
                      iters: int) -> np.ndarray:
    """Gradient-descent baseline for the subproblem.

    Runs ``iters`` gradient iterations from ``current``, applying the forward
    operator and its adjoint in the frequency domain each step.  Each step is
    1 / (||A||^2 + gamma), ||A||^2 the operator's cached ``lipschitz``, so the
    iterates converge to the closed-form solution linearly; the point of the
    baseline is how slowly.  ``iters`` is an integer in ``GDM_ITERS``.
    """
    GDM_ITERS.check_count(iters, "iters")
    x = np.array(current, dtype=np.float64, copy=True)
    if iters == 0:
        return x
    anchor = np.asarray(anchor, dtype=np.float64)
    step = 1.0 / (prob.op.lipschitz + prob.gamma)
    for _ in range(iters):  # x -= step * gradient, in place
        grad = subproblem_gradient(prob, x, anchor)
        grad *= step
        x -= grad
        del grad
    return x
