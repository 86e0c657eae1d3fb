"""Unrolled ADMM reconstruction with pluggable priors and initializers.

Splitting the regularized inverse problem

    minimize_I  1/2 ||A I - J||^2 + sigma R(I)

over a consensus pair (I, Z) gives the three-step stage recipe: an exact
measurement-consistency solve for I, a denoiser standing in for the prior
proximal step on Z, and a scaled multiplier update.  The stage count is
fixed up front, and a StageSchedule holds one anchor weight gamma per stage
plus the prior weight and multiplier rate zeta that every stage shares, so a
run is fully described by (schedule, denoiser, initializer).

Stage numbering: Z(1) is the initializer output; stages 2..K each apply one
solve / denoise / multiplier triple.  A schedule with K = 1 therefore
returns the initialization untouched.  HQS is not a separate mode: it is a
schedule whose multiplier rate zeta is zero, run through the same loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import (GAMMA, SEED, DivergenceError, Domain, ParameterError, SingularPivotError,
                     ValidationError, as_3d, check_params)
from .fidelity import GDM_ITERS, FidelityProblem, fidelity_solve, gdm_fidelity_step
from .optics import FrequencyOperator, apply_adjoint, apply_forward_frequency, empty_cube
from .optics import gaussian_kernel, row_strips


@dataclass(frozen=True)
class StageSchedule:
    """Per-stage anchor weights, plus a prior weight and a multiplier rate
    shared by every stage.

    ``gamma`` has one entry per stage, each in ``GAMMA``, and there is at
    least one stage; a K-stage run consumes the first K - 1 entries (the
    final stage is the returned Z, which gets no solve of its own).
    ``sigma_tilde`` is derived: the noise level sqrt(prior_weight / gamma)
    handed to denoisers that accept one.  ``params`` declares the scalars as
    ``Denoiser.params`` does.
    """

    gamma: np.ndarray
    prior_weight: float = 0.0
    zeta: float = 1.0
    sigma_tilde: np.ndarray = field(init=False)
    params = {"prior_weight": ("prior_weight", float, Domain(0.0)),
              "zeta": ("zeta", float, Domain(0.0))}
    # each ramp's values in its constructor's order; ratio starts above 1, as
    # flat or decaying penalty ramps destabilize late stages
    ramps = {"geometric": {"gamma0": GAMMA, "ratio": Domain(1.0, lo_open=True)},
             "constant": {"gamma": GAMMA}}

    def __post_init__(self):
        check_params(self, "schedule", prior_weight=self.prior_weight, zeta=self.zeta)
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=np.float64))
        if gamma.ndim != 1 or gamma.shape[0] == 0:
            raise ParameterError("a schedule needs at least one stage: one gamma per stage, "
                                 "got shape %r" % (gamma.shape,))
        for k, value in enumerate(gamma.tolist()):
            GAMMA.check(value, "gamma[%d]" % k)
        with np.errstate(over="ignore"):
            sigma_tilde = np.sqrt(self.prior_weight / gamma)
        if not np.all(np.isfinite(sigma_tilde)):
            raise ParameterError(
                "sigma_tilde = sqrt(prior_weight / gamma) overflows at gamma %g; "
                "prior_weight must be smaller, got %r" % (gamma.min(), self.prior_weight)
            )
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "sigma_tilde", sigma_tilde)

    @property
    def n_stages(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def _check_ramp(cls, kind: str, n_stages: int, **values) -> None:
        Domain(1).check_count(n_stages, "%s schedule: n_stages" % kind)
        for name, domain in cls.ramps[kind].items():
            domain.check(values[name], "%s schedule: %s" % (kind, name))

    @classmethod
    def geometric(
        cls,
        n_stages: int,
        gamma0: float = 0.01,
        ratio: float = 4.0,
        prior_weight: float = 0.0,
        zeta: float = 1.0,
    ) -> "StageSchedule":
        """Schedule on the geometric penalty ramp gamma0 * ratio**k, one
        weight per stage.

        Small early weights let the data term pull the iterate around; large
        late weights lock stages together.  A non-increasing ramp defeats
        that, so ratio must exceed 1.  The defaults are a starting point, not
        a tuned setting.
        """
        cls._check_ramp("geometric", n_stages, gamma0=gamma0, ratio=ratio)
        with np.errstate(over="ignore"):
            gamma = gamma0 * ratio ** np.arange(n_stages, dtype=np.float64)
        if not np.isfinite(gamma[-1]):
            raise ParameterError(
                "the ramp gamma0 * ratio**k = %g * %g**k overflows before its last stage %d; "
                "use fewer stages or a smaller gamma0 or ratio" % (gamma0, ratio, n_stages)
            )
        return cls(gamma, prior_weight, zeta)

    @classmethod
    def constant(
        cls, n_stages: int, gamma: float, prior_weight: float = 0.0, zeta: float = 1.0
    ) -> "StageSchedule":
        cls._check_ramp("constant", n_stages, gamma=gamma)
        return cls(np.full(n_stages, float(gamma)), prior_weight, zeta)


# ---------------------------------------------------------------------------
# denoisers (prior proximal stand-ins)


class Denoiser(ABC):
    """A named prior: maps an intermediate cube to a cleaner one.

    ``noise_level`` is the schedule's sigma_tilde for the current stage;
    denoisers without a noise-level parameter ignore it.  ``params`` maps
    each spec key to a constructor argument, its type and its Domain.
    ``denoise`` writes its result into ``out``, a float64 array of the
    cube's shape that may be ``cube`` itself, and returns it; with ``out``
    None it returns a new array and never writes into ``cube``.
    :func:`reconstruct` passes its own buffer as both, so no stage
    allocates a cube for the prior's output, and refuses with
    ValidationError a result that is not that buffer.
    """

    name: str = "?"
    params: dict[str, tuple[str, type, Domain]] = {}

    @abstractmethod
    def denoise(self, cube: np.ndarray, noise_level: float,
                out: np.ndarray | None = None) -> np.ndarray: ...


class IdentityDenoiser(Denoiser):
    name = "identity"

    def denoise(self, cube: np.ndarray, noise_level: float,
                out: np.ndarray | None = None) -> np.ndarray:
        return np.positive(cube, out=out)


# largest Gaussian denoiser std in pixels: the prior's kernel has radius
# int(4 * std + 0.5), which this caps at about 8e4 taps
MAX_GAUSSIAN_STD = 1e4


class GaussianDenoiser(Denoiser):
    """Per-band spatial Gaussian smoothing with a fixed std in pixels
    (:func:`gaussian_smooth`)."""

    name = "gaussian"
    params = {"std": ("spatial_std", float, Domain(0.0, MAX_GAUSSIAN_STD, lo_open=True))}

    def __init__(self, spatial_std: float = 1.0):
        check_params(self, "denoiser %r" % self.name, spatial_std=spatial_std)
        self.spatial_std = float(spatial_std)

    def denoise(self, cube: np.ndarray, noise_level: float,
                out: np.ndarray | None = None) -> np.ndarray:
        return gaussian_smooth(cube, self.spatial_std, out=out)


def _symmetric_taps(run, weights, out, tmp):
    """out = run(0) * w[r] + sum over j = r..1 of (run(-j) + run(j)) * w[r - j]
    for the 2r + 1 symmetric ``weights``, where run(d) is the input shifted
    by d: a separate add, multiply and add per tap, in this order, as
    ndimage's correlate1d sums a symmetric kernel."""
    r = weights.shape[0] // 2
    np.multiply(run(0), weights[r], out=out)
    for j in range(r, 0, -1):
        np.add(run(-j), run(j), out=tmp)
        tmp *= weights[r - j]
        out += tmp


def gaussian_smooth(cube: np.ndarray, std: float, out: np.ndarray | None = None) -> np.ndarray:
    """Each band of ``cube`` smoothed by a Gaussian of ``std`` pixels, down
    the columns (axis 0) and then along the rows (axis 1), with reflect
    boundaries (d c b a | a b c d | d c b a).

    The kernel and the sums are ``scipy.ndimage.gaussian_filter``'s at
    ``sigma=(std, std, 0)``: :func:`optics.gaussian_kernel`, radius r,
    summed in the order of :func:`_symmetric_taps`.  So the result has its
    bits wherever its build does not contract the taps to fused
    multiply-adds.

    The cube is swept in strips of whole rows from :func:`optics.row_strips`.
    A window holds a strip's input rows and h = min(r, H) rows on each side,
    and slides from strip to strip.  It reads each row of ``cube`` once,
    before that row's strip is written, so ``out`` may be ``cube`` itself;
    the rows past an edge are mirrored from the rows it holds.  The column
    pass sums the window into a strip padded by hw = min(r, W) mirrored
    columns on each side, and the row pass writes the strip's rows of the
    result, into ``out`` when given, otherwise a new pixel-major array.
    The scratch is the window, the padded strip and one strip for the taps:
    about three strips plus 2 h rows and 2 hw columns.  ``cube`` passes
    :func:`errors.as_3d`, and ``std`` must lie in ``GaussianDenoiser.params``.
    """
    check_params(GaussianDenoiser, "denoiser 'gaussian'", spatial_std=std)
    cube = as_3d(cube)
    if out is None:
        out = np.empty(cube.shape)
    weights = gaussian_kernel(std)
    r = weights.shape[0] // 2
    height, width, bands = cube.shape
    h, hw = min(r, height), min(r, width)
    strips = row_strips(height, width * bands)
    rows = strips[0][1]
    # window row t holds input row r0 - h + t of the current strip (r0, r1),
    # reflected, so row r0 + i + d is window row (h + d) mod 2H + i for any
    # tap offset d; the padded strip's columns are indexed likewise
    window = np.empty((rows + 2 * h, width, bands))
    padded = np.empty((rows, width + 2 * hw, bands))
    tmp = np.empty((rows, width, bands))
    for r0, r1 in strips:
        n, k0, k1, at = r1 - r0, r0 + h, r1 + h, h - r0  # input row k is window row k + at
        if r0:  # slide down by the previous strip's rows
            window[: 2 * h] = window[rows : rows + 2 * h]
        else:
            k0 = 0
        # the input rows k0..k1-1 that the window lacks: those before H are
        # not yet written, and row H + j past H is row H - 1 - j, which the
        # window holds since r0 + r1 <= 2H
        window[k0 + at : min(k1, height) + at] = cube[k0:k1]
        if not r0:
            window[:h] = window[h : 2 * h][::-1]
        if k1 > height:
            window[height + at : k1 + at] = window[2 * height - k1 + at : height + at][::-1]
        _symmetric_taps(lambda d: window[(h + d) % (2 * height) :][:n], weights,
                        padded[:n, hw : hw + width], tmp[:n])
        strip = padded[:n]
        strip[:, :hw] = strip[:, hw : 2 * hw][:, ::-1]
        strip[:, hw + width :] = strip[:, width : width + hw][:, ::-1]
        _symmetric_taps(lambda d: strip[:, (hw + d) % (2 * width) :][:, :width], weights,
                        out[r0:r1], tmp[:n])
    return out


# largest TV dual iteration count: far above the 30-60 iterations the prior
# uses, while a mistyped count cannot sweep the cube for hours
MAX_TV_ITERS = 10_000


class TotalVariationDenoiser(Denoiser):
    """Anisotropic total-variation proximal smoothing, band by band."""

    name = "tv"
    params = {"lambda": ("weight", float, Domain(0.0)),
              "iters": ("iters", int, Domain(1, MAX_TV_ITERS))}

    def __init__(self, weight: float = 0.01, iters: int = 30):
        check_params(self, "denoiser %r" % self.name, weight=weight, iters=iters)
        self.weight = float(weight)
        self.iters = int(iters)

    def denoise(self, cube: np.ndarray, noise_level: float,
                out: np.ndarray | None = None) -> np.ndarray:
        if out is None:  # perfbench's TV-prox self-test swaps in a three-argument tv_denoise
            return tv_denoise(cube, self.weight, self.iters)
        return tv_denoise(cube, self.weight, self.iters, out=out)


class QuadraticDenoiser(Denoiser):
    """Exact proximal step of the squared-norm prior 1/2 ||Z||^2.

    Solves argmin_Z 1/2 ||Z - x||^2 / sigma_tilde^2 + 1/2 ||Z||^2 in closed
    form: Z = x / (1 + sigma_tilde^2).  The prior weight enters purely
    through the noise level, so this denoiser has no knobs of its own.
    """

    name = "quadratic"

    def denoise(self, cube: np.ndarray, noise_level: float,
                out: np.ndarray | None = None) -> np.ndarray:
        return np.divide(cube, 1.0 + noise_level**2, out=out)


def _tv_primal_rows(cube, qh, qv, r0, r1, diff, out):
    """out = cube - D^T q on rows r0..r1-1, with diff as scratch.

    D^T is the adjoint of the forward-difference gradient with Neumann
    boundary; it reads qh on rows r0..r1-1 and qv on rows r0-1..r1-1.  Each
    element sees the operations of the whole-array form in the same order,
    so the rows match it bit for bit.
    """
    np.negative(qh[r0:r1, 0], out=diff[:, 0])
    np.subtract(qh[r0:r1, :-1], qh[r0:r1, 1:], out=diff[:, 1:])
    first = 0
    if r0 == 0:
        np.subtract(diff[0], qv[0], out=diff[0])
        first = 1
    np.subtract(qv[r0 + first - 1 : r1 - 1], qv[r0 + first : r1], out=out[first:])
    np.add(diff[first:], out[first:], out=diff[first:])
    np.subtract(cube[r0:r1], diff, out=out)


def _tv_dual_step(q, z_hi, z_lo, tau, weight, diff):
    """q = clip(q + tau * (z_hi - z_lo), -weight, weight) in place."""
    np.subtract(z_hi, z_lo, out=diff)
    np.multiply(diff, tau, out=diff)
    np.add(q, diff, out=q)
    np.clip(q, -weight, weight, out=q)


def tv_denoise(cube: np.ndarray, weight: float, iters: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Approximate prox of weight * TV_aniso at ``cube``, each band separately.

    Solves the dual box-constrained problem by projected gradient ascent
    with the safe step 1/8 (the gradient operator's squared norm bound in
    2-D).  Forward differences use a Neumann boundary, so constants pass
    through unchanged; ``weight == 0`` returns the input exactly.

    Each iteration sweeps the cube in strips of whole rows sized to stay in
    cache, updating the duals in place.  The vertical dual of a strip's last
    row waits for the next strip, whose primal rows still need its old
    value, so every strip reads only the previous iteration's duals: the
    iterates are bit for bit those of a whole-array sweep.

    The result goes into ``out`` when given, which may be ``cube`` itself:
    the closing primal pass reads each strip's cube rows before it writes
    them.  Otherwise it is a new pixel-major array.  ``cube`` passes
    :func:`errors.as_3d`; ``TotalVariationDenoiser.params`` bounds ``weight`` and ``iters``.
    """
    cube = np.ascontiguousarray(as_3d(cube))
    check_params(TotalVariationDenoiser, "denoiser 'tv'", weight=weight, iters=iters)
    if out is None:
        out = np.empty_like(cube)
    if weight == 0:
        np.copyto(out, cube)
        return out

    tau = 0.125
    height, width, bands = cube.shape
    strips = row_strips(height, width * bands)
    rows = strips[0][1]
    qh = np.zeros_like(cube)
    qv = np.zeros_like(cube)
    diff = np.empty((rows, width, bands))
    # z rows r0-1..r1-1 of the current strip; row 0 carries the previous
    # strip's last row for the vertical difference across the seam
    z = np.empty((rows + 1, width, bands))
    for _ in range(iters):
        for r0, r1 in strips:
            n = r1 - r0
            zs = z[1 : n + 1]
            _tv_primal_rows(cube, qh, qv, r0, r1, diff[:n], zs)
            _tv_dual_step(qh[r0:r1, :-1], zs[:, 1:], zs[:, :-1], tau, weight, diff[:n, :-1])
            # vertical duals on rows r0-1..r1-2 (from row 0 on the first
            # strip); row r1-1 waits for the next strip's z
            first = 1 if r0 == 0 else 0
            _tv_dual_step(qv[r0 - 1 + first : r1 - 1], z[first + 1 : n + 1], z[first:n], tau,
                          weight, diff[: n - first])
            z[0] = z[n]
    # the primal rows use their output as scratch before they read the
    # cube's rows, so they go through the z strip and then into out
    for r0, r1 in strips:
        zs = z[1 : r1 - r0 + 1]
        _tv_primal_rows(cube, qh, qv, r0, r1, diff[: r1 - r0], zs)
        out[r0:r1] = zs
    return out


# ---------------------------------------------------------------------------
# initializers


class Initializer(ABC):
    """Named strategy producing the first prior iterate Z(1) from the coded
    image; ``params`` maps each spec key to a constructor argument, its type
    and its Domain.  ``initialize`` writes the start into ``out``, the
    loop's own uninitialized pixel-major float64 (H, W, bands) iterate, and
    returns it; :func:`reconstruct` refuses any other return value."""

    name: str = "?"
    params: dict[str, tuple[str, type, Domain]] = {}

    @abstractmethod
    def initialize(self, coded: np.ndarray, op: FrequencyOperator,
                   out: np.ndarray) -> np.ndarray: ...


class ZeroInitializer(Initializer):
    name = "zero"

    def initialize(self, coded: np.ndarray, op: FrequencyOperator, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        return out


class RandInitializer(Initializer):
    """Uniform [0, 1) start, seeded for reproducibility."""

    name = "rand"
    params = {"seed": ("seed", int, SEED)}

    def __init__(self, seed: int = 0):
        check_params(self, "initializer %r" % self.name, seed=seed)
        self.seed = int(seed)

    def initialize(self, coded: np.ndarray, op: FrequencyOperator, out: np.ndarray) -> np.ndarray:
        return np.random.default_rng(self.seed).random(out=out)


class MeanInitializer(Initializer):
    """Every band starts as the per-pixel mean over the coded image's channels."""

    name = "mean"

    def initialize(self, coded: np.ndarray, op: FrequencyOperator, out: np.ndarray) -> np.ndarray:
        out[...] = np.mean(coded, axis=2)[:, :, None]
        return out


class AdjointInitializer(Initializer):
    """Back-projection start: the forward operator's adjoint applied to the image."""

    name = "adjoint"

    def initialize(self, coded: np.ndarray, op: FrequencyOperator, out: np.ndarray) -> np.ndarray:
        out[...] = apply_adjoint(op, coded)
        return out


# ---------------------------------------------------------------------------
# the stage loop


@dataclass(frozen=True)
class StageTrace:
    """Diagnostics for one stage of a reconstruction run.

    ``data_fidelity`` is 1/2 ||A Z - J||^2 at the stage's prior iterate.
    ``delta`` is the iterate movement ||Z(k) - Z(k-1)||, the oscillation
    diagnostic; ``primal_residual`` is the consensus gap ||I(k) - Z(k)||.
    Both are NaN on stage 1, which has no predecessor and no fidelity solve,
    as is ``gamma``.  A fidelity or norm beyond the float64 range reads inf.
    """

    stage: int
    data_fidelity: float
    delta: float
    gamma: float
    primal_residual: float


@dataclass(frozen=True)
class ReconstructionResult:
    cube: np.ndarray
    trace: list[StageTrace] = field(default_factory=list)


def _write_anchor(z, beta, anchor):
    """anchor = z - beta in strips of whole rows: a pixel-major subtract
    into scratch, then a copy into the band-major ``anchor``, as a copy
    walks its output's layout where a subtract into the band-major rows
    would walk the inputs' pixel-major one.  The bytes, and the overflow a
    diverging stage reports, are those of the whole-cube subtract."""
    strips = row_strips(z.shape[0], z.shape[1] * z.shape[2])
    scratch = np.empty((strips[0][1],) + z.shape[1:])
    for r0, r1 in strips:
        t = scratch[: r1 - r0]
        np.subtract(z[r0:r1], beta[r0:r1], out=t)
        anchor[r0:r1] = t


def _update_multipliers(i, z, beta, zeta):
    """beta += zeta * (i - z) in strips of whole rows through one
    pixel-major strip of scratch, the solve's band-major output ``i`` read
    while a strip's rows of every array stay in cache.  The bytes are those
    of the whole-cube passes; like every strip sweep, it raises the first
    overflow it meets."""
    strips = row_strips(z.shape[0], z.shape[1] * z.shape[2])
    scratch = np.empty((strips[0][1],) + z.shape[1:])
    for r0, r1 in strips:
        t = scratch[: r1 - r0]
        np.subtract(i[r0:r1], z[r0:r1], out=t)
        t *= zeta
        beta[r0:r1] += t


def reconstruct(
    coded: np.ndarray,
    op: FrequencyOperator,
    schedule: StageSchedule,
    denoiser: Denoiser,
    initializer: Initializer,
    trace: bool = False,
    gdm_iters: int = 0,
) -> ReconstructionResult:
    """Run the unrolled stage loop and return the final prior iterate.

    The measurement-consistency step uses the exact frequency-domain solver
    when ``gdm_iters`` is 0; a positive count swaps in that many warm-started
    gradient steps instead, the GDM baseline.  ``gdm_iters`` is an integer in
    ``GDM_ITERS``, checked before any stage runs.  A schedule with zeta 0 runs
    HQS, the same loop without multiplier updates.  With ``trace=True`` the
    result carries one StageTrace per stage.  A stage whose arithmetic
    overflows or turns invalid (for example under a huge zeta) raises
    DivergenceError naming that stage (SingularPivotError if an exact solve
    loses a pivot to a tiny gamma); a trace record never does.  A gamma that a
    stage consumes below the floor of :class:`fidelity.FidelityProblem`
    raises SingularPivotError, and a coded image whose spectrum is not
    finite (a NaN or inf in it, or values so large that the transform's
    sums leave float64) ValidationError, both before the initializer runs.

    A stage is a sweep over row strips that writes its anchor z - beta, the
    solve, one whole-cube pass i + beta into the iterate's buffer, the
    denoiser in that buffer, and a second strip sweep that updates the
    multipliers, beta += zeta * (i - z).  The sweeps cross between the
    pixel-major iterate and multipliers and the band-major anchor and solve
    output while a strip's rows stay in cache; every element sees the
    operations of the whole-cube passes in their order, so the bytes and a
    diverging stage are theirs.  Every sweep raises the first overflow it
    meets, so the operation it names differs from theirs only when two rows
    overflow in different operations.  The solve's transforms are numpy
    ufuncs and raise too: an overflow in one ends its stage there.

    Working memory: a fresh operator's Gram, made on first use, is made
    with the problem, before the loop's buffers (0.88 cube at 8 bands).  An
    exact-solve stage holds three cubes above its inputs
    (the iterate, which the denoiser overwrites in place, the multipliers,
    and the anchor, whose padded rows the solve transforms in place and
    overwrites with its output) plus the denoiser's own scratch (two dual
    cubes for TV); the solve adds its strip scratch, one strip of its
    transforms' included, and each other strip sweep one strip of
    scratch, 256 KiB or one row if a row is larger.  ``trace=True`` adds
    one cube: a second iterate buffer that takes the denoiser's input and
    output while the previous iterate stays for ``delta``, the two
    swapping after each stage; each stage record's forward transform
    briefly takes under one and a half more.  The initializer writes
    the start into the iterate's buffer and returns it, and each stage's
    denoiser writes its result into the buffer it was handed and returns
    that; any other return value raises ValidationError naming the class,
    before it enters the loop.
    """
    GDM_ITERS.check_count(gdm_iters, "gdm_iters")
    # the problem checks the coded image's shape, its spectrum's finiteness
    # and the smallest gamma a stage consumes against the operator's floor,
    # before any initializer runs
    problem = FidelityProblem.from_coded_image(
        op, coded, gamma=schedule.gamma[:-1].min(initial=schedule.gamma[0]))

    # the loop's own pixel-major iterate: TV then never copies it, and the
    # trace norms, which sum in memory order, see one layout
    z = np.empty((op.height, op.width, op.n_bands))
    if initializer.initialize(problem.coded, op, z) is not z:
        raise ValidationError("initializer %s must write the start into out and return out"
                              % type(initializer).__name__)
    beta = np.zeros_like(z)
    anchor = empty_cube(op)  # holds z - beta, its spectrum, then the solve's output
    spare = np.empty_like(z) if trace else None  # the next iterate's, while z stays

    def record(stage, z_next, z=None, gamma=np.nan, i_next=None) -> StageTrace:
        # a diagnostic never breaks a run: on a bright scene a squared
        # residual may leave the float64 range, and its sum or norm reads inf
        with np.errstate(over="ignore", invalid="ignore"):
            resid = apply_forward_frequency(op, z_next) - problem.coded
            fidelity = 0.5 * float(np.sum(resid**2))
            delta = np.nan if z is None else float(np.linalg.norm(z_next - z))
            primal = np.nan if i_next is None else float(np.linalg.norm(i_next - z_next))
        if np.isnan(fidelity):  # finite iterates: only an overflow (inf - inf) gives NaN
            fidelity = np.inf
        return StageTrace(stage, fidelity, delta, float(gamma), primal)

    records = [record(1, z)] if trace else []
    # raising on the first overflow or NaN names the stage at no extra pass
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(schedule.n_stages - 1):
                _write_anchor(z, beta, anchor)
                gamma = schedule.gamma[k]
                prob_k = problem.with_gamma(gamma)
                if gdm_iters:
                    i_next = gdm_fidelity_step(prob_k, anchor, z, gdm_iters)
                else:
                    i_next = fidelity_solve(prob_k, anchor, out=anchor)
                # the denoiser's input and output go into one buffer: untraced
                # the old iterate's, traced the spare, as the old iterate
                # stays for delta and then takes the spare's place
                x = np.add(i_next, beta, out=z if spare is None else spare)
                if denoiser.denoise(x, schedule.sigma_tilde[k], out=x) is not x:
                    raise ValidationError("denoiser %s must write its result into out and "
                                          "return out" % type(denoiser).__name__)
                if trace:
                    records.append(record(k + 2, x, z, gamma, i_next))
                    spare = z
                z = x
                _update_multipliers(i_next, z, beta, schedule.zeta)
                del i_next  # a GDM output is its own cube: free it before the next stage
    except FloatingPointError as exc:
        raise DivergenceError(
            "stage %d of %d diverged (%s) at zeta %g, gamma %g"
            % (k + 2, schedule.n_stages, exc, schedule.zeta, schedule.gamma[k])
        ) from None
    except SingularPivotError as exc:
        raise SingularPivotError("stage %d of %d: %s at gamma %g, too small for float64"
                                 % (k + 2, schedule.n_stages, exc, schedule.gamma[k])) from None

    return ReconstructionResult(cube=z, trace=records)


# registries used by the CLI and config parsing

DENOISERS = {
    cls.name: cls
    for cls in (IdentityDenoiser, GaussianDenoiser, TotalVariationDenoiser, QuadraticDenoiser)
}

INITIALIZERS = {
    cls.name: cls
    for cls in (ZeroInitializer, RandInitializer, MeanInitializer, AdjointInitializer)
}
