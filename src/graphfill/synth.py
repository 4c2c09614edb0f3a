"""Synthetic sensor-network generator for tests and quickstarts.

Nodes are dropped uniformly in the unit square; the graph is the
thresholded Gaussian kernel of pairwise Euclidean distances. Signals are
multi-frequency sinusoids whose phases drift smoothly across the square
(so nearby sensors are correlated), mixed further by a few rounds of
graph diffusion, plus i.i.d. Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class SynthResult:
    values: np.ndarray       # (n_steps, n_nodes) float64
    distances: np.ndarray    # (n_nodes, n_nodes) Euclidean distances
    coords: np.ndarray       # (n_nodes, 2) positions in the unit square
    gamma: float             # suggested kernel bandwidth
    delta: float             # suggested distance cutoff


def geometric_positions(n_nodes, rng):
    return rng.uniform(0.0, 1.0, size=(n_nodes, 2))


def pairwise_distances(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def suggest_kernel(distances, target_neighbors=3):
    """Pick (gamma, delta) so nodes keep roughly target_neighbors edges.

    delta is 1.3x the median distance to the target_neighbors-th nearest
    node; gamma makes the kernel decay to ~e^-4 at the cutoff.
    """
    n = distances.shape[0]
    if n <= target_neighbors:
        raise ValidationError(
            f"need more than {target_neighbors} nodes, got {n}")
    sorted_d = np.sort(distances, axis=1)
    kth = sorted_d[:, target_neighbors]  # column 0 is the self distance
    delta = 1.3 * float(np.median(kth))
    gamma = (delta / 2.0) ** 2
    return gamma, delta


PHASE_SCALE = 0.7       # phase drift, in cycles per unit distance
DIFFUSION_ROUNDS = 2
DIFFUSION_WEIGHT = 0.4  # share of each round taken from the neighbors


def synth_series(n_nodes=20, n_steps=2000, seed=0, periods=(24.0, 12.0),
                 noise_std=0.05, target_neighbors=2):
    """Generate a SynthResult with smooth, spatially correlated signals."""
    if n_nodes < 2 or n_steps < 2:
        raise ValidationError("need at least 2 nodes and 2 steps")
    rng = np.random.default_rng(seed)
    coords = geometric_positions(n_nodes, rng)
    distances = pairwise_distances(coords)
    gamma, delta = suggest_kernel(distances, target_neighbors)

    t = np.arange(n_steps, dtype=np.float64)
    values = np.zeros((n_steps, n_nodes))
    for period in periods:
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        phases = 2.0 * np.pi * PHASE_SCALE * (coords @ direction)
        amps = rng.uniform(0.7, 1.3, size=n_nodes)
        values += amps[None, :] * np.sin(
            2.0 * np.pi * t[:, None] / period + phases[None, :])

    # Graph diffusion: mix each node with its kernel-weighted neighbors so
    # the spatial correlation carries actual signal, not just phase.
    kernel = np.exp(-distances ** 2 / gamma)
    kernel[distances > delta] = 0.0
    np.fill_diagonal(kernel, 1.0)
    kernel /= kernel.sum(axis=1, keepdims=True)
    for _ in range(DIFFUSION_ROUNDS):
        values = (1.0 - DIFFUSION_WEIGHT) * values + DIFFUSION_WEIGHT * (
            values @ kernel.T)

    values += rng.normal(0.0, noise_std, size=values.shape)
    return SynthResult(values=values, distances=distances, coords=coords,
                       gamma=gamma, delta=delta)
