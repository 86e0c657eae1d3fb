"""Dense brute-force reference for the coded-image forward model.

Materializes the forward operator as an explicit (3n) x (n N) matrix of
stacked 2-D circulant blocks, n the pixel count and N the band count, built
from direct index arithmetic on the response-weighted kernels
response[c, i] * psf[i], with no FFTs anywhere.  Subproblem solutions then
come from Cholesky factorizations of the dense normal equations.
Everything here is O(n^2 N^2) memory and worse in time, which is the point:
it shares no code path with the production solver, so agreement between
the two is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GAMMA, DimensionError, Domain, ParameterError
from .optics import OpticalSystem

# dense Phi is (3n) x (nN); past this the quadratic memory blows up
MAX_DENSE_UNKNOWNS = 4096


def vec_cube(cube: np.ndarray) -> np.ndarray:
    """Flatten (H, W, N) to length nN, band index slowest; an (H, W, 3)
    image is the depth-3 case, channel index slowest."""
    return np.asarray(cube).transpose(2, 0, 1).reshape(-1)


def unvec_cube(v: np.ndarray, height: int, width: int, n_bands: int) -> np.ndarray:
    return np.asarray(v).reshape(n_bands, height, width).transpose(1, 2, 0)


def _circulant_block(kernel: np.ndarray, height: int, width: int) -> np.ndarray:
    """n x n matrix of center-anchored circular convolution by ``kernel``.

    Output and input pixels are indexed row-major; the entry pairing output
    (x, y) with input (u, v) is the kernel tap at wrapped displacement
    (x - u, y - v) from the center, zero off the support.  Built by
    scattering kernel taps into an H x W displacement table, so wrap-around
    overlap for kernels larger than the grid accumulates correctly.
    """
    k = kernel.shape[0]
    c = k // 2
    table = np.zeros((height, width))
    for si in range(k):
        for sj in range(k):
            table[(si - c) % height, (sj - c) % width] += kernel[si, sj]
    rows_x, cols_u = np.divmod(np.arange(height * width)[:, None], width)
    # displacement (x - u, y - v) wrapped into the table
    dx = (rows_x - rows_x.T) % height
    dy = (cols_u - cols_u.T) % width
    return table[dx, dy]


@dataclass(frozen=True)
class DenseSystem:
    """Explicit matrix form of a coded-image forward operator."""

    phi: np.ndarray
    height: int
    width: int
    n_bands: int

    @classmethod
    def from_system(cls, system: OpticalSystem, height: int, width: int) -> "DenseSystem":
        n = height * width
        n_bands = system.n_bands
        Domain(1, MAX_DENSE_UNKNOWNS).check_count(n * n_bands, "dense oracle unknowns")
        phi = np.zeros((3 * n, n_bands * n))
        for ch in range(3):
            for band in range(n_bands):
                kernel = system.response[ch, band] * system.psfs[band]
                block = _circulant_block(kernel, height, width)
                phi[ch * n : (ch + 1) * n, band * n : (band + 1) * n] = block
        return cls(phi=phi, height=height, width=width, n_bands=n_bands)

    def forward(self, cube: np.ndarray) -> np.ndarray:
        self._check(cube, self.n_bands)
        return unvec_cube(self.phi @ vec_cube(cube), self.height, self.width, 3)

    def adjoint(self, image: np.ndarray) -> np.ndarray:
        self._check(image, 3)
        return unvec_cube(self.phi.T @ vec_cube(image), self.height, self.width, self.n_bands)

    def ridge_solve(self, coded: np.ndarray, anchor: np.ndarray, gamma: float) -> np.ndarray:
        """Minimize 1/2 ||Phi x - j||^2 + gamma/2 ||x - t||^2 by dense Cholesky:
        normal = L L^T, then L y = rhs and L^T x = y."""
        GAMMA.check(gamma, "gamma")
        self._check(coded, 3)
        self._check(anchor, self.n_bands)
        normal = self.phi.T @ self.phi + gamma * np.eye(self.phi.shape[1])
        rhs = self.phi.T @ vec_cube(coded) + gamma * vec_cube(anchor)
        try:
            lower = np.linalg.cholesky(normal)
            x = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
        except np.linalg.LinAlgError as exc:
            raise ParameterError("gamma too small against ||Phi||^2 for a float64 "
                                 "Cholesky (%s)" % exc) from None
        return unvec_cube(x, self.height, self.width, self.n_bands)

    def _check(self, array: np.ndarray, depth: int) -> None:
        expected = (self.height, self.width, depth)
        if np.shape(array) != expected:
            raise DimensionError("shape %r, expected %r" % (np.shape(array), expected))

