import numpy as np
import pytest

from aklt_mite import spin_ops


@pytest.fixture(scope="session")
def proj9():
    return spin_ops.bond_projector("spin1").matrix


@pytest.fixture(scope="session")
def proj16():
    return spin_ops.bond_projector("qubit-mapped").matrix


@pytest.fixture(scope="session")
def aklt():
    """AKLT references for the small sizes shared across test modules."""
    return {n: spin_ops.aklt_state(n) for n in (3, 4, 5, 6)}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def phase_aligned_distance(a, b):
    """|a - e^{i phi} b| with phi chosen to make <b|a> real positive."""
    overlap = np.vdot(b, a)
    return float(np.linalg.norm(a - overlap / abs(overlap) * b))
