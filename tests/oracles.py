"""Independent brute-force oracles used only by the tests.

These deliberately take a different path from the package: the full
2^N x 2^N Hamiltonian is assembled by Kronecker products of Pauli
matrices, the Gibbs state is formed explicitly, and partial traces are
explicit index sums. Keep N <= 6 here.

`build_sector_hamiltonian` is the plain dense exchange matrix of one
magnetization sector, its off-diagonal entries found by
`exchange_partners`. `all_sector_spectrum` is the package's sector path
without the SU(2) and translation symmetries: one `eigh` on every such
matrix, and each eigenvector's pair features read straight off its
amplitudes. It is the reference for the multiplet-expanded spectrum and its
feature table, for any ordered pair, and reaches larger N.

`sector_spectrum` is one sector's dense `eigh` and pair features, which
`all_sector_spectrum` runs on every sector and the few-magnon tests on the
small sectors of any N.

`weight_rows` is the thermal weight of every eigenstate at each (B, kT)
point in one (points x eigenstates) array, each row exponentiated against
its own ground energy: the W of the W @ F that the package's sector sums
(`thermal.gibbs_weights`, `thermal.pair_states`) are checked against.

`member_rows` is the multiplet expansion of `diagonalize_chain` and
`thermal.Sectors.expand` written out on its own: the sort, the rank-2 term
and one plain pass per sector n_up.

`heat_color` is the heatmap colour map as a scalar search over its stops.
"""

from typing import NamedTuple

import numpy as np

from spinchain.basis import ModelParams, SectorBasis, enumerate_sector
from spinchain.thermal import DEGENERACY_TOL

# Same basis convention as the package: |0> = down, site i = bit i.
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
ID = np.eye(2, dtype=complex)

# Relative eigenvalue gap below which `dense_gibbs_state` treats levels as
# one cluster: far wider than the 1e-9 kT = 0 window, so that roundoff
# mixing across a wider gap stays well below the tests' 1e-10 bounds.
CLUSTER_TOL = 1e-4

# Relative distance from the kT = 0 window edge within which a level counts
# as on the edge: roundoff decides on which side either path puts it.
EDGE_TOL = 1e-12


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


def _pair_labels(patterns: np.ndarray, i: int, j: int) -> np.ndarray:
    """Pair label 2a + b of each basis pattern, with a = bit i and b = bit j."""
    return 2 * ((patterns >> i) & 1) + ((patterns >> j) & 1)


def pair_amplitudes(psi, i, j):
    """(4, 2^N) amplitudes of a full-basis state by pair label: psi[p] sits at
    row `_pair_labels` of p and column p with bits i and j cleared, so
    column 0 holds the amplitudes with every other spin down."""
    patterns = np.arange(psi.size)
    m = np.zeros((4, psi.size), dtype=complex)
    m[_pair_labels(patterns, i, j), patterns & ~((1 << i) | (1 << j))] = psi
    return m


def exchange_partners(states: np.ndarray, a, b):
    """Pair up the patterns that swapping the spins of sites a and b connects.

    Returns (rows, partners): the positions in the ascending `states` of
    every pattern with bit a = 0 and bit b = 1, and of the same patterns
    with those two bits swapped, found by bisection. `a` and `b` may also be
    equal-length arrays of distinct site pairs (bonds); in a sector every
    bond connects the same number of patterns, so rows and partners are
    then (bonds, patterns) arrays.
    """
    flip = (1 << np.asarray(a)) | (1 << np.asarray(b))
    mask = (states & flip[..., None]) == (1 << np.asarray(b))[..., None]
    rows = np.nonzero(mask)[-1].reshape(flip.shape + (np.count_nonzero(mask, axis=-1).max(initial=0),))
    return rows, np.searchsorted(states, states[rows] ^ flip[..., None])


class SectorHamiltonian(NamedTuple):
    """Exchange part of the ring Hamiltonian restricted to one sector."""

    basis: SectorBasis
    matrix: np.ndarray


def build_sector_hamiltonian(params: ModelParams, n_up: int) -> SectorHamiltonian:
    """Build the dense exchange matrix J sum_i sigma^i . sigma^{i+1} on a sector.

    For every bond (i, i+1 mod N), aligned z-spins add +J and anti-aligned
    add -J on the diagonal, while sigma_x sigma_x + sigma_y sigma_y
    connects the two exchanged configurations with amplitude 2J. For N=2
    the cyclic sum visits the single (0, 1) bond twice.
    """
    n, j = params.n_spins, params.coupling
    a, b = np.arange(n), (np.arange(n) + 1) % n
    basis = enumerate_sector(n, n_up)
    states, dim = basis.states, basis.dim
    rows, partners = exchange_partners(states, a, b)
    entries = np.concatenate([rows * dim + partners, partners * dim + rows], axis=None)
    h = np.bincount(entries, minlength=dim * dim).reshape(dim, dim) * (2.0 * j)
    h[np.diag_indices(dim)] = j * (1.0 - 2.0 * (((states >> a[:, None]) ^ (states >> b[:, None])) & 1)).sum(axis=0)
    return SectorHamiltonian(basis=basis, matrix=h)


def dense_gibbs_state(n, j, b, kt):
    """rho = exp(-H/kT)/Z via full eigendecomposition: the first of
    `dense_gibbs_states`."""
    return dense_gibbs_states(n, j, b, kt)[0]


def dense_gibbs_states(n, j, b, kt):
    """rho = exp(-H/kT)/Z via full eigendecomposition, plus, at kT = 0, the
    other readings of a window edge that roundoff leaves open.

    kT = 0 gives the uniform mixture of the eigenvectors within 1e-9 |E0|
    of the ground energy E0. A level whose shifted energy is within
    EDGE_TOL (relative) of that edge may fall on either side of it, so the
    mixtures with every such level inside and with every such level outside
    follow the plain one in the returned list, where they differ from it.
    Roundoff lets the dense `eigh` mix S_z sectors inside a cluster of
    nearly equal eigenvalues (relative gaps below CLUSTER_TOL), so within
    each cluster the eigenvectors are rotated onto total S_z eigenvectors,
    and H is diagonalized again within each S_z value, before any weight is
    formed.
    """
    h = dense_hamiltonian(n, j, b)
    sz = sum(site_operator(SZ, site, n) for site in range(n))
    vals, vecs = np.linalg.eigh(h)
    gaps = np.diff(vals) > CLUSTER_TOL * np.maximum(1.0, np.abs(vals[1:]))
    for cluster in np.split(np.arange(vals.size), np.flatnonzero(gaps) + 1):
        m, r = np.linalg.eigh(vecs[:, cluster].conj().T @ sz @ vecs[:, cluster])
        v = vecs[:, cluster] @ r
        for part in np.split(np.arange(cluster.size), np.flatnonzero(np.diff(m) > 1.0) + 1):
            e, s = np.linalg.eigh(v[:, part].conj().T @ h @ v[:, part])
            vals[cluster[part]], vecs[:, cluster[part]] = e, v[:, part] @ s
    shifted = vals - vals.min()
    if kt == 0:
        scale = abs(vals.min())
        inside = shifted <= 1e-9 * scale
        edge = np.abs(shifted - 1e-9 * scale) <= EDGE_TOL * scale
        weights = [inside]
        for w in (inside | edge, inside & ~edge):
            if w.any() and not any(np.array_equal(w, seen) for seen in weights):
                weights.append(w)
    else:
        weights = [np.exp(-shifted / kt)]
    return [(vecs * (w / w.sum())) @ vecs.conj().T for w in weights]


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


def weight_rows(spectrum, b_values: np.ndarray, kt_values: np.ndarray) -> np.ndarray:
    """Thermal weights of every eigenstate, one row per (B, kT) point, for
    the tests' W @ F.

    Each row's energies are shifted by its ground energy before
    exponentiation, so no weight overflows; an exponent that overflows to
    -inf (a gap far beyond kT) gives the weight 0. A kT = 0 row mixes all
    eigenstates within DEGENERACY_TOL |E_ground| of the ground energy
    uniformly (this covers exact level crossings such as B = B_c). The
    window scales with the levels, so it is the same for every J; the ground
    energy is 0 only at J = B = 0, where every level is 0. Only the
    spectrum's `energies` and `slopes` are read, so it takes an
    `all_sector_spectrum` as well. Returns W, columns in the spectrum's flat
    eigenstate order.
    """
    shifted = spectrum.energies + np.multiply.outer(b_values, spectrum.slopes)
    e0 = shifted.min(axis=1, keepdims=True)
    shifted -= e0
    cold = kt_values == 0.0
    w = np.empty_like(shifted)
    w[cold] = shifted[cold] <= DEGENERACY_TOL * np.abs(e0[cold])
    with np.errstate(over="ignore"):
        w[~cold] = np.exp(shifted[~cold] / -kt_values[~cold, None])
    return w / w.sum(axis=1, keepdims=True)


class AllSectorSpectrum(NamedTuple):
    """Energies, Zeeman slopes and pair features (eigenstates, pairs, 5) in
    the package's flat eigenstate order."""

    energies: np.ndarray
    slopes: np.ndarray
    features: np.ndarray


def all_sector_spectrum(n, j, pairs=()):
    """Reference spectrum from one dense `eigh` per magnetization sector
    n_up = 0..N, with no SU(2) or momentum blocking, whose energies and slopes
    `weight_rows` reads. The features of the ordered `pairs` are read off
    each sector's eigenvectors right after its `eigh`, so only one sector's
    eigenvectors are held at a time."""
    energies, slopes, features = [], [], []
    for n_up in range(n + 1):
        values, f = sector_spectrum(n, j, n_up, pairs)
        energies.append(values)
        slopes.append(np.full(values.size, 2 * n_up - n))
        features.append(f)
    return AllSectorSpectrum(np.concatenate(energies), np.concatenate(slopes), np.concatenate(features))


def sector_spectrum(n, j, n_up, pairs=()):
    """Ascending energies and pair features (eigenstates, pairs, 5) of the
    sector n_up from one dense `eigh` of `build_sector_hamiltonian`."""
    sh = build_sector_hamiltonian(ModelParams(n, j), n_up)
    values, vectors = np.linalg.eigh(sh.matrix)
    return values, _sector_features(sh.basis.states, vectors, pairs)


def _sector_features(states, v, pairs):
    """Features (eigenstates, pairs, 5) of eigenvector columns v over a sector basis."""
    f = np.empty((v.shape[1], len(pairs), 5))
    probs = v * v
    for p, (i, j) in enumerate(pairs):
        ab = _pair_labels(states, i, j)
        f[:, p, :4] = ((ab == np.arange(4)[:, None]) @ probs).T
        rows01, rows10 = exchange_partners(states, i, j)
        f[:, p, 4] = np.einsum("sk,sk->k", v[rows01], v[rows10])
    return f


# Heatmap colour stops (viridis-like): position 0..1 -> RGB.
def member_rows(n, energies, two_s, s, zz):
    """Energies, slopes and X-state features of every member of every
    multiplet, built sector by sector with the formulas of
    `diagonalize_chain` and `thermal.Sectors.expand`."""
    order = np.argsort(energies, kind="stable")
    energies, two_s, s, zz = energies[order], two_s[order], s[order], zz[order]
    s_s1 = two_s * (two_s + 2.0) / 4.0
    denom = 0.75 * (n % 2) - s_s1
    rank2 = np.divide(zz - s / 3.0, denom[:, None], out=np.zeros_like(zz), where=(denom != 0.0)[:, None])
    rows = []
    for n_up in range(n + 1):
        two_m = 2 * n_up - n
        keep = two_s >= abs(two_m)
        zz_m = zz[keep] + rank2[keep] * (0.75 * (two_m**2 - n % 2))
        f = np.empty(zz_m.shape + (5,))
        f[..., 0] = (1.0 + zz_m) / 4.0 - two_m / (2.0 * n)
        f[..., 1] = f[..., 2] = (1.0 - zz_m) / 4.0
        f[..., 3] = (1.0 + zz_m) / 4.0 + two_m / (2.0 * n)
        f[..., 4] = (s[keep] - zz_m) / 4.0
        if n_up <= 1:
            f[..., 3] = 0.0
        if n_up >= n - 1:
            f[..., 0] = 0.0
        if n_up in (0, n):
            f[:] = 0.0
            f[..., 0 if n_up == 0 else 3] = 1.0
        np.maximum(f[..., :4], 0.0, out=f[..., :4])
        rows.append((energies[keep], np.full(keep.sum(), two_m), f))
    return tuple(np.concatenate(parts) for parts in zip(*rows))


HEAT_STOPS = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)


def heat_color(frac: float) -> str:
    """`#rrggbb` of a fraction clipped to 0..1: the first segment whose upper
    stop is at or above it, interpolated a + t (b - a) and rounded per channel."""
    frac = min(max(frac, 0.0), 1.0)
    for (p0, c0), (p1, c1) in zip(HEAT_STOPS, HEAT_STOPS[1:]):
        if frac <= p1:
            t = (frac - p0) / (p1 - p0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"
    return "#fde725"
