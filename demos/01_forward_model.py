#!/usr/bin/env python3
"""Forward model walkthrough: how a spectral cube becomes one coded RGB frame.

A scene with many spectral bands passes through optics whose blur kernel
rotates with wavelength, then lands on an ordinary RGB sensor.  Each output
channel is a response-weighted sum of per-band convolutions, so the spectral
identity of every pixel is smeared into a spatial code that a solver can
later undo.  This script builds a synthetic scene and optical system, encodes
it with the library's per-frequency model, and checks the result against
direct spatial convolution.
"""

import numpy as np
from scipy import ndimage, signal

from snapspec import (
    NoiseModel,
    add_noise,
    apply_forward_frequency,
    build_frequency_operator,
    forward_encode,
)
from snapspec.synth import smooth_cube, synthetic_system

# a smooth 64x64 scene with 8 spectral bands, values in [0, 1]
cube = smooth_cube(64, 64, 8, seed=0)
print("scene cube:       %s  range [%.3f, %.3f]" % (cube.shape, cube.min(), cube.max()))

# optics: 9x9 unit-sum kernels whose twin-lobe orientation rotates with band,
# plus a smooth RGB spectral response
system = synthetic_system(n_bands=8, kernel_size=9)
print("psf stack:        %s  (every kernel sums to 1)" % (system.psfs.shape,))
print("rgb response:     %s  (non-negative weights)" % (system.response.shape,))

# encoding with wrap-around boundary: under it every spatial frequency bin
# mixes the bands through one 3 x 8 matrix, so the encoder works per bin
coded = forward_encode(cube, system, boundary="circular")
print("coded image:      %s" % (coded.shape,))

# the same frame by direct spatial convolution, one band and channel at a time
direct = np.zeros_like(coded)
for c in range(3):
    for i in range(system.n_bands):
        direct[:, :, c] += ndimage.convolve(cube[:, :, i], system.unified[c, i], mode="wrap")
gap = np.max(np.abs(coded - direct))
print("encoder vs direct convolution gap: %.2e  (FFT roundoff only)" % gap)

# the reconstruction solver's operator stores those 3 x 8 matrices per bin
op = build_frequency_operator(system, 64, 64)
op_gap = np.max(np.abs(apply_forward_frequency(op, cube) - coded))
print("solver operator vs encoder gap:    %.2e" % op_gap)

# the DC bin of each transfer matrix is exactly the response weight,
# because unit-sum kernels pass constants through unchanged
dc_gap = np.max(np.abs(op.transfer[:, :, 0, 0] - system.response))
print("DC bins vs response matrix:        %.2e" % dc_gap)

# cropping the wrap-affected margin gives the boundary-free encoding, the
# same as convolving only where the kernel support stays inside the grid
valid = forward_encode(cube, system, boundary="valid-crop")
margin = (system.kernel_size - 1) // 2
free = np.zeros_like(valid)
for c in range(3):
    for i in range(system.n_bands):
        free[:, :, c] += signal.convolve2d(cube[:, :, i], system.unified[c, i], mode="valid")
crop_gap = np.max(np.abs(valid - free))
print("valid-crop vs boundary-free conv:  %.2e  (crop %d px)" % (crop_gap, margin))

# finally the sensor: photon shot noise against a 14-bit full well,
# then additive read noise; deterministic for a fixed seed
noisy = add_noise(coded, NoiseModel(seed=0))
print("noise perturbation rms:            %.2e" % np.sqrt(np.mean((noisy - coded) ** 2)))
