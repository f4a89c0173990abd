import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_density(rng, d):
    g = random_complex(rng, d, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_twist(rng, n, size):
    """exp(i size H) for a random traceless Hermitian n x n H of unit spectral norm."""
    g = random_complex(rng, n, n)
    h = g + g.conj().T
    h -= np.trace(h) / n * np.eye(n)
    w, v = np.linalg.eigh(h / np.abs(np.linalg.eigvalsh(h)).max())
    return (v * np.exp(1j * size * w)) @ v.conj().T
