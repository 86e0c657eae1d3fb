"""Dense-matrix oracle self-tests: the reference must be right before it can judge."""

import numpy as np
import pytest

from snapspec import OpticalSystem, forward_encode
from snapspec.errors import DimensionError, ParameterError
from snapspec.oracle import (
    MAX_DENSE_UNKNOWNS,
    DenseSystem,
    unvec_cube,
    vec_cube,
)

from reference_impls import direct_circular_encode


def _random_system(rng, n_bands, kernel_size):
    psfs = rng.uniform(size=(n_bands, kernel_size, kernel_size))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(size=(3, n_bands))
    return OpticalSystem(psfs=psfs, response=response)


def _identity_system(n_bands):
    psfs = np.zeros((n_bands, 1, 1))
    psfs[:, 0, 0] = 1.0
    response = np.zeros((3, n_bands))
    for c in range(min(3, n_bands)):
        response[c, c] = 1.0
    return OpticalSystem(psfs=psfs, response=response)


def test_vec_round_trips():
    rng = np.random.default_rng(1)
    cube = rng.standard_normal((3, 4, 5))
    assert np.array_equal(unvec_cube(vec_cube(cube), 3, 4, 5), cube)
    image = rng.standard_normal((3, 4, 3))
    assert np.array_equal(unvec_cube(vec_cube(image), 3, 4, 3), image)


def test_vec_cube_band_major():
    cube = np.zeros((2, 2, 2))
    cube[0, 1, 0] = 1.0  # band 0, pixel (0,1) -> flat index 1
    cube[1, 0, 1] = 2.0  # band 1, pixel (1,0) -> flat index 4 + 2
    v = vec_cube(cube)
    assert v[1] == 1.0
    assert v[6] == 2.0


def test_identity_system_gives_block_identity():
    dense = DenseSystem.from_system(_identity_system(3), 2, 2)
    assert dense.phi.shape == (12, 12)
    assert np.array_equal(dense.phi, np.eye(12))


def test_phi_matches_forward_encode():
    rng = np.random.default_rng(7)
    system = _random_system(rng, 4, 3)
    dense = DenseSystem.from_system(system, 5, 6)
    cube = rng.standard_normal((5, 6, 4))
    via_matrix = dense.forward(cube)
    via_conv = forward_encode(cube, system)
    assert np.max(np.abs(via_matrix - via_conv)) < 1e-12


def test_phi_kernel_wider_than_grid_still_matches():
    # wrap-around overlap must accumulate, not overwrite; the streaming
    # encoder refuses k > H so the nested-loop reference arbitrates here
    rng = np.random.default_rng(9)
    system = _random_system(rng, 2, 5)
    dense = DenseSystem.from_system(system, 3, 3)
    cube = rng.standard_normal((3, 3, 2))
    ref = direct_circular_encode(cube, system.psfs, system.response)
    assert np.max(np.abs(dense.forward(cube) - ref)) < 1e-12


def test_column_sums_equal_response():
    # each column of a circulant block sums to the kernel sum = response entry
    rng = np.random.default_rng(11)
    system = _random_system(rng, 3, 3)
    dense = DenseSystem.from_system(system, 4, 4)
    n = 16
    for ch in range(3):
        for band in range(3):
            block = dense.phi[ch * n : (ch + 1) * n, band * n : (band + 1) * n]
            assert np.max(np.abs(block.sum(axis=0) - system.response[ch, band])) < 1e-12


def test_adjoint_is_transpose():
    rng = np.random.default_rng(13)
    system = _random_system(rng, 3, 3)
    dense = DenseSystem.from_system(system, 4, 4)
    cube = rng.standard_normal((4, 4, 3))
    image = rng.standard_normal((4, 4, 3))
    lhs = np.sum(dense.forward(cube) * image)
    rhs = np.sum(cube * dense.adjoint(image))
    assert abs(lhs - rhs) < 1e-10


def test_ridge_huge_gamma_returns_anchor():
    rng = np.random.default_rng(17)
    system = _random_system(rng, 3, 3)
    dense = DenseSystem.from_system(system, 4, 4)
    coded = rng.standard_normal((4, 4, 3))
    anchor = rng.standard_normal((4, 4, 3))
    out = dense.ridge_solve(coded, anchor, 1e12)
    assert np.max(np.abs(out - anchor)) < 1e-6


def test_ridge_identity_optics_formula():
    dense = DenseSystem.from_system(_identity_system(3), 4, 4)
    rng = np.random.default_rng(19)
    coded = rng.standard_normal((4, 4, 3))
    anchor = rng.standard_normal((4, 4, 3))
    gamma = 0.8
    out = dense.ridge_solve(coded, anchor, gamma)
    expected = (coded + gamma * anchor) / (1.0 + gamma)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_ridge_satisfies_normal_equations():
    rng = np.random.default_rng(23)
    system = _random_system(rng, 4, 3)
    dense = DenseSystem.from_system(system, 5, 5)
    coded = rng.standard_normal((5, 5, 3))
    anchor = rng.standard_normal((5, 5, 4))
    gamma = 0.5
    x = vec_cube(dense.ridge_solve(coded, anchor, gamma))
    lhs = (dense.phi.T @ dense.phi + gamma * np.eye(dense.phi.shape[1])) @ x
    rhs = dense.phi.T @ vec_cube(coded) + gamma * vec_cube(anchor)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_ridge_rejects_nonpositive_gamma():
    dense = DenseSystem.from_system(_identity_system(2), 2, 2)
    zeros2 = np.zeros((2, 2, 2))
    zeros3 = np.zeros((2, 2, 3))
    with pytest.raises(ParameterError):
        dense.ridge_solve(zeros3, zeros2, 0.0)


def test_ridge_gamma_too_small_for_cholesky_is_parameter_error():
    # Phi^T Phi is singular for more bands than channels, and gamma 1e-300
    # is lost in its rounding, so the Cholesky factorization fails
    rng = np.random.default_rng(12)
    dense = DenseSystem.from_system(_random_system(rng, 4, 3), 4, 4)
    with pytest.raises(ParameterError, match="too small against"):
        dense.ridge_solve(np.zeros((4, 4, 3)), np.zeros((4, 4, 4)), 1e-300)


def test_tikhonov_large_weight_shrinks_to_zero():
    rng = np.random.default_rng(37)
    system = _random_system(rng, 3, 3)
    dense = DenseSystem.from_system(system, 4, 4)
    coded = rng.standard_normal((4, 4, 3))
    out = dense.tikhonov_solve(coded, 1e12)
    assert np.max(np.abs(out)) < 1e-6


def test_tikhonov_rejects_negative_weight():
    dense = DenseSystem.from_system(_identity_system(2), 2, 2)
    with pytest.raises(ParameterError):
        dense.tikhonov_solve(np.zeros((2, 2, 3)), -0.1)
    for weight in (np.nan, np.inf):  # named as the weight, not as the ridge's gamma
        with pytest.raises(ParameterError, match="^weight: must be in "):
            dense.tikhonov_solve(np.zeros((2, 2, 3)), weight)


def test_size_guard():
    system = _random_system(np.random.default_rng(41), 8, 3)
    # 24 * 24 * 8 = 4608 > 4096
    with pytest.raises(ParameterError, match=str(MAX_DENSE_UNKNOWNS)):
        DenseSystem.from_system(system, 24, 24)


def test_shape_guards():
    dense = DenseSystem.from_system(_identity_system(2), 2, 2)
    with pytest.raises(DimensionError):
        dense.forward(np.zeros((2, 2, 3)))
    with pytest.raises(DimensionError):
        dense.adjoint(np.zeros((2, 2, 2)))
