#!/usr/bin/env python3
"""Unrolled reconstruction, stage by stage.

The solver alternates an exact measurement-consistency solve with a prior
step (here: band-wise total-variation smoothing) and a running multiplier
correction, for a fixed number of stages with a rising penalty schedule.
This script reconstructs a noisy synthetic acquisition, prints the
per-stage trace, and compares initialization strategies.

One detail worth staring at: with only 3 measured channels and 8 unknown
bands the data term has a null space, and band-wise spatial smoothing never
corrects a spectral-direction error it inherits.  A biased start (channel
mean broadcast to all bands) therefore plateaus, while the plain zero start
converges to a much better reconstruction.  Informed is not always better.
"""

import numpy as np

from snapspec import (
    MeanInitializer,
    NoiseModel,
    StageSchedule,
    TotalVariationDenoiser,
    ZeroInitializer,
    add_noise,
    build_frequency_operator,
    evaluate,
    forward_encode,
    psnr,
    reconstruct,
)
from snapspec.synth import smooth_cube, synthetic_system

# scene, optics, noisy acquisition
cube = smooth_cube(64, 64, 8, seed=0)
system = synthetic_system(n_bands=8, kernel_size=9)
op = build_frequency_operator(system, 64, 64)
coded = add_noise(forward_encode(cube, system), NoiseModel(seed=0))

schedule = StageSchedule.geometric(7, gamma0=0.01, ratio=4.0)
denoiser = TotalVariationDenoiser(weight=0.01, iters=60)
print("penalty schedule:", np.array2string(schedule.gamma, precision=3))

result = reconstruct(coded, op, schedule, denoiser, ZeroInitializer(), trace=True)

print("\nstage   data-fit     movement   consensus-gap")
for rec in result.trace:
    print("%5d   %9.4f   %10.4g   %13.4g"
          % (rec.stage, rec.data_fidelity, rec.delta, rec.primal_residual))

report = evaluate(result.cube, cube, crop=8)
print("\nfinal quality (8 px edge crop): psnr %.2f dB, sam %.2f deg, ssim %.4f"
      % (report.psnr_db, report.sam_deg, report.ssim))

# the initialization comparison: mean start inherits a scale bias that the
# band-wise prior cannot remove, zero start does not
for init in (ZeroInitializer(), MeanInitializer()):
    run = reconstruct(coded, op, schedule, denoiser, init)
    start = init.initialize(coded, op, np.empty(cube.shape))
    print("init %-5s  start %6.2f dB  ->  reconstruction %6.2f dB"
          % (init.name, psnr(start, cube), psnr(run.cube, cube)))
