"""Independent brute-force oracles used only by the tests.

These deliberately take a different path from the package: the full
2^N x 2^N Hamiltonian is assembled by Kronecker products of Pauli
matrices, the Gibbs state is formed explicitly, and partial traces are
explicit index sums. Keep N <= 6 here.
"""

import numpy as np

# Same basis convention as the package: |0> = down, site i = bit i.
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
ID = np.eye(2, dtype=complex)


def site_operator(op, site, n):
    """Embed a single-qubit operator at `site` (bit position, LSB = site 0)."""
    full = np.array([[1.0]], dtype=complex)
    for k in range(n - 1, -1, -1):
        full = np.kron(full, op if k == site else ID)
    return full


def dense_hamiltonian(n, j, b):
    """Full H = sum_i (B sz_i + J sigma_i . sigma_{i+1}), cyclic sum of N bonds."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        h += b * site_operator(SZ, i, n)
        nb = (i + 1) % n
        for op in (SX, SY, SZ):
            h += j * site_operator(op, i, n) @ site_operator(op, nb, n)
    return h


def dense_gibbs_state(n, j, b, kt):
    """rho = exp(-H/kT)/Z via full eigendecomposition.

    kT = 0 gives the uniform mixture of the eigenvectors within 1e-9
    (relative) of the ground energy.
    """
    vals, vecs = np.linalg.eigh(dense_hamiltonian(n, j, b))
    shifted = vals - vals.min()
    if kt == 0:
        w = (shifted <= 1e-9 * max(1.0, abs(vals.min()))).astype(float)
    else:
        w = np.exp(-shifted / kt)
    w /= w.sum()
    return (vecs * w) @ vecs.conj().T


def dense_pair_rdm(rho, n, i, j):
    """Partial trace onto sites (i, j) by explicit index summation."""
    others = [k for k in range(n) if k not in (i, j)]
    out = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    tot = 0.0
                    for rest in range(1 << len(others)):
                        s = (a << i) | (b << j)
                        t = (c << i) | (d << j)
                        for pos, site in enumerate(others):
                            bit = (rest >> pos) & 1
                            s |= bit << site
                            t |= bit << site
                        tot += rho[s, t]
                    out[2 * a + b, 2 * c + d] = tot
    return out
