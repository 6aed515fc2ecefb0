import numpy as np
import pytest

from dyninv.harness import make_instance, synthesize_truth, truth_nodes


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def tiny_instance():
    """Dense-oracle sized benchmark instance (n_x=8, N=6, m=2)."""
    return make_instance(8, 6, 0.05, gain=10.0, m=2)


@pytest.fixture(scope="session")
def tiny_truth(tiny_instance):
    return synthesize_truth(tiny_instance, "sine", 0.1)


@pytest.fixture(scope="session")
def small_instance():
    """Mid-size instance for matrix-free property tests."""
    return make_instance(24, 24, 0.1, gain=10.0, m=4)


def positive_theta(triple, amplitude=0.3, offset=0.5):
    """Parameter giving strictly positive states (smooth nonlinearity regime)."""
    x = truth_nodes(triple)
    return offset + amplitude * np.sin(2.0 * np.pi * x) ** 2


def broadcast_march(triple, grid, start, loads):
    """The doubling march with the load gain and every decay power as one row
    broadcast over the block, as :func:`dyninv.spaces.march_modes` ran it
    before its tables were tabulated block by block."""
    denom = 1.0 + grid.tau * triple.eigenvalues
    c = np.empty((grid.node_count, triple.interior_points))
    c[0] = start
    np.multiply(loads, grid.tau / denom, out=c[1:])
    decay, shift = 1.0 / denom, 1
    while shift < grid.node_count:
        c[shift:] += c[:-shift] * decay
        shift *= 2
        decay = decay * decay
    return c
