import numpy as np
import pytest

from aklt_mite import spin_ops
from aklt_mite.statevec import StateVector


@pytest.fixture(scope="session")
def proj9():
    return spin_ops.bond_projector("spin1")


@pytest.fixture(scope="session")
def proj16():
    return spin_ops.bond_projector("qubit")


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


def product_of(n_sites, ket):
    """The product state with the unit ket ``ket`` on each of ``n_sites``
    sites, for the product states other than ``statevec.product_state``'s."""
    ket = np.asarray(ket, dtype=complex)
    amps = ket
    for _ in range(n_sites - 1):
        amps = np.kron(amps, ket)
    return StateVector(amps, n_sites, len(ket))


def phase_aligned_distance(a, b):
    """|a - e^{i phi} b| with phi chosen to make <b|a> real positive."""
    overlap = np.vdot(b, a)
    return float(np.linalg.norm(a - overlap / abs(overlap) * b))
