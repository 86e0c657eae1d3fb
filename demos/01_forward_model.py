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
coded = forward_encode(cube, system)
print("coded image:      %s" % (coded.shape,))

# the same frame by direct spatial convolution, one band and channel at a
# time, each with its response-weighted kernel
direct = np.zeros_like(coded)
for c in range(3):
    for i in range(system.n_bands):
        kernel = system.response[c, i] * system.psfs[i]
        direct[:, :, c] += ndimage.convolve(cube[:, :, i], kernel, mode="wrap")
gap = np.max(np.abs(coded - direct))
print("encoder vs direct convolution gap: %.2e  (FFT roundoff only)" % gap)

# the encoder applies the reconstruction solver's operator, which holds
# those 3 x 8 matrices as two factors: the 3 x 8 response and one OTF (the
# PSF's spectrum) per band
op = build_frequency_operator(system, 64, 64)

# the DC bin of each OTF is exactly 1, because unit-sum kernels pass
# constants through unchanged, so at DC each matrix is the response itself
dc_gap = np.max(np.abs(op.transfer[:, 0, 0] - 1.0))
print("OTF DC bins vs 1:                  %.2e" % dc_gap)
print("operator response is the sensor's: %s" % np.array_equal(op.response, system.response))

# cropping the wrap-affected margin gives the boundary-free encoding, the
# same as convolving only where the kernel support stays inside the grid
margin = (system.kernel_size - 1) // 2
valid = coded[margin:-margin, margin:-margin]
free = np.zeros_like(valid)
for c in range(3):
    for i in range(system.n_bands):
        kernel = system.response[c, i] * system.psfs[i]
        free[:, :, c] += signal.convolve2d(cube[:, :, i], kernel, mode="valid")
crop_gap = np.max(np.abs(valid - free))
print("cropped vs boundary-free conv:     %.2e  (crop %d px)" % (crop_gap, margin))

# finally the sensor: photon shot noise against a 14-bit full well,
# then additive read noise; deterministic for a fixed seed
noisy = add_noise(coded, NoiseModel(seed=0))
print("noise perturbation rms:            %.2e" % np.sqrt(np.mean((noisy - coded) ** 2)))
