import numpy as np
import pytest

from infocap import POVM, UniformOverlap, ensemble_from_vectors
from infocap.bounds import WITNESSES
from infocap.checks import random_unit


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_psd(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return z @ z.conj().T


def random_pure_ensemble(rng, n, dim):
    return ensemble_from_vectors(np.stack([random_unit(rng, dim) for _ in range(n)]))


def uniform_povm(n, dim):
    """The trivial measurement {1/n, ..., 1/n}."""
    return POVM(np.stack([np.eye(dim) / n] * n))


def equiangular(n, a):
    """n pure states of real pairwise overlap ``a``: the overlap witness."""
    return WITNESSES[UniformOverlap](n, a)[0]
