import numpy as np
import pytest

from infocap import ensemble_from_vectors
from infocap.checks import random_unit


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_psd(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return z @ z.conj().T


def random_pure_ensemble(rng, n, dim):
    return ensemble_from_vectors(np.stack([random_unit(rng, dim) for _ in range(n)]))
