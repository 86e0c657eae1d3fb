#!/usr/bin/env python3
"""The measurement-consistency subproblem and four ways to solve it.

Reconstruction alternates between a denoising step and the quadratic
subproblem

    minimize_X  1/2 ||A X - J||^2 + gamma/2 ||X - T||^2,

A the coded-image operator, J the measurement, T the current anchor.  This
script solves one instance with:

  1. the production path: per-frequency 3x3 block inversion, closed form;
  2. the naive frequency path: direct per-frequency NxN solves;
  3. the dense oracle: explicit (3n)x(nN) matrix and a Cholesky solve,
     sharing no code with the other two;
  4. the gradient-descent baseline the closed form replaces.

Routes 1-3 agree to machine precision; route 4 shows why iterating is the
wrong tool when an exact solve costs one FFT round trip.
"""

import time

import numpy as np

from snapspec import (
    FidelityProblem,
    build_frequency_operator,
    fidelity_solve,
    fidelity_solve_naive,
    forward_encode,
    gdm_fidelity_step,
    subproblem_objective,
)
from snapspec.oracle import DenseSystem
from snapspec.synth import smooth_cube, synthetic_system

rng = np.random.default_rng(0)
system = synthetic_system(n_bands=5, kernel_size=5)
size, gamma = 8, 0.5

cube = smooth_cube(size, size, 5, seed=1)
coded = forward_encode(cube, system)
anchor = rng.standard_normal(cube.shape)

op = build_frequency_operator(system, size, size)
prob = FidelityProblem.from_coded_image(op, coded, gamma)

# route 1: closed form through 3x3 Schur-complement inverses
fast = fidelity_solve(prob, anchor)

# route 2: same normal equations, solved as NxN systems per frequency
naive = fidelity_solve_naive(prob, anchor)
print("closed form vs NxN solve:     %.2e rel" % (
    np.linalg.norm(fast - naive) / np.linalg.norm(naive)))

# route 3: the dense oracle never touches an FFT
dense = DenseSystem.from_system(system, size, size)
ref = dense.ridge_solve(coded, anchor, gamma)
print("closed form vs dense oracle:  %.2e rel" % (
    np.linalg.norm(fast - ref) / np.linalg.norm(ref)))

# route 4: gradient descent from the anchor, each step 1/(||A||^2 + gamma),
# where ||A||^2 is the largest eigenvalue of any frequency bin's 3x3 Gram
best = subproblem_objective(prob, fast, anchor)
print("\nsubproblem objective at the exact solution: %.9f" % best)
for iters in (1, 5, 10, 25, 50):
    approx = gdm_fidelity_step(prob, anchor, anchor, iters)
    gap = subproblem_objective(prob, approx, anchor) - best
    print("  gradient descent, %4d steps: objective gap %.3e" % (iters, gap))
print("  (tens of iterations per stage to match what one solve gives exactly)")

# at production scale the gap becomes a wall-clock argument
size = 256
system = synthetic_system(n_bands=8, kernel_size=9)
op = build_frequency_operator(system, size, size)
truth = smooth_cube(size, size, 8, seed=2)
coded = forward_encode(truth, system)
anchor = rng.standard_normal(truth.shape)
prob = FidelityProblem.from_coded_image(op, coded, gamma)
op.lipschitz  # ||A||^2, computed once here so the timings below leave it out

t0 = time.perf_counter()
exact = fidelity_solve(prob, anchor)
t_exact = time.perf_counter() - t0
t0 = time.perf_counter()
gdm_fidelity_step(prob, anchor, anchor, 10)
t_gdm = time.perf_counter() - t0
print("\n%dx%dx8 timings: exact solve %.3fs, 10 gradient steps %.3fs" % (
    size, size, t_exact, t_gdm))
print("(10 steps already costs more and is far from matched accuracy;")
print(" the bench subcommand quantifies this across scales)")
