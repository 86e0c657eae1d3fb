"""Helpers shared by the test modules: random and identity optical systems,
and the tracemalloc peak of one call."""

import tracemalloc

import numpy as np

from snapspec import OpticalSystem


def random_system(rng, n_bands, kernel_size):
    """Uniform PSFs, each normalised to unit sum, and a uniform 3 x bands response."""
    psfs = rng.uniform(size=(n_bands, kernel_size, kernel_size))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(size=(3, n_bands))
    return OpticalSystem(psfs=psfs, response=response)


def identity_system(n_bands):
    """Delta PSFs and a response that routes band c to channel c, for the first
    min(3, n_bands) bands; the others reach no channel."""
    psfs = np.zeros((n_bands, 1, 1))
    psfs[:, 0, 0] = 1.0
    response = np.zeros((3, n_bands))
    for c in range(min(3, n_bands)):
        response[c, c] = 1.0
    return OpticalSystem(psfs=psfs, response=response)


def peak_bytes(call, *args, **kwargs):
    """tracemalloc peak of one call above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base
