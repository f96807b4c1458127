import numpy as np

from decoynoise.linalg import DensityMatrix, PureState
from decoynoise.states import INT_BELLS


def bell_state(label):
    """One Bell state: the integer vector of states.INT_BELLS, normalised."""
    return PureState(np.array(INT_BELLS[label]) / np.sqrt(2.0))


def random_pure_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps))


def random_density(rng, n, mixture=3):
    weights = rng.random(mixture)
    weights /= weights.sum()
    matrix = sum(
        w * random_pure_state(rng, n).density().matrix for w in weights
    )
    return DensityMatrix(matrix)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # normalize the phases so the distribution is Haar, not QR-skewed
    return q * (np.diag(r) / np.abs(np.diag(r)))
