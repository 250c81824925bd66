"""Gibbs states over the ring's eigenstates and two-site reduced density matrices.

The ring of N spins 1/2 in a uniform field B is

    H = sum_i [B sigma_z^i + J sigma^i . sigma^{i+1}],  sites i + N = i (cyclic),

with the site and bit conventions of `basis`; J > 0 is the antiferromagnet.
`_middle_blocks` builds its exchange part, `diagonalize_chain` solves it,
and the field enters only through each eigenstate's Zeeman slope.

The full 2^N density matrix is never materialized. The chain is
diagonalized once per (N, J) into one flat table over all 2^N eigenstates:
each eigenstate's exchange energy, its Zeeman slope, and the X-state
features of its pairs at separation d = 1..N//2, so the field only shifts
energies and one spectrum serves every (B, kT) point and every pair of a
scan. Every eigenstate lies in one S_z sector, so the average of its pair
states (i, i+d) and (i+d, i) over the translates i is an X-state fixed by
five real numbers (p00, p01, p10, p11, z). A thermal pair RDM is the
Boltzmann-weighted sum of those five numbers over the eigenstates, which
`pair_states` forms as W @ F on a whole (B, kT) grid.

Only the sector n_up = N // 2 is diagonalized, in momentum blocks that the
ring's reflection makes real symmetric (the reflection-adapted momentum
basis of Sandvik, arXiv:1101.3281, sec. 4.1) and that, for even N, the
spin inversion Z splits into its z = +1 and z = -1 halves (ibid., sec. 4):
the ring conserves total spin, so each of its eigenvectors stands for a
whole SU(2) multiplet, and the Wigner-Eckart theorem gives every member's
energy and pair features.
The blocks and those pair correlations come from the same separation
operators. The spectrum keeps no eigenvectors: only
`diagonalize_chain` sees them and knows how the eigenstates are blocked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ModelParams, check_pair, enumerate_sector, separation
from .errors import NumericError, ParameterError
from .measures import PairDensityMatrix

# Width of the T=0 ground manifold, relative to |E_ground|.
DEGENERACY_TOL = 1e-9

# Weight of S^2 in the matrix H_1 + ALPHA S^2 that `eigh` solves, H_1 the
# ring at J = 1: small and irrational, so that every eigenvector is also an
# S^2 eigenvector even where levels of different total spin S would
# otherwise coincide.
ALPHA = 1e-3 / np.pi

# Largest allowed distance of an eigenvector's <S^2> from S(S+1).
SPIN_TOL = 1e-8

# Entries of W formed at once (8 MiB of float64). Without chunking, N=14
# on the 14,520-point default grid would need about 1.9 GB for W alone.
WEIGHT_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ChainSpectrum:
    """Exchange Hamiltonian of a ring, diagonalized into one flat eigen-table.

    `energies` and `slopes` hold each eigenstate's exchange energy and its
    Zeeman slope 2*n_up - N, so its energy at field B is
    energies + B * slopes. Rows are grouped by magnetization sector,
    n_up = 0..N, and ascend in energy within each sector. `features` is the
    (eigenstates, N//2, 5) table of each eigenstate's X-state features at
    separation d = 1..N//2, in the same rows: the average of its pair states
    (i, i+d) over the N translates i. No eigenvectors are kept.
    """

    n_spins: int
    coupling: float
    energies: np.ndarray
    slopes: np.ndarray
    features: np.ndarray


@dataclass(frozen=True)
class GibbsEnsemble:
    """Thermal weights of every eigenstate at one (B, kT) point."""

    spectrum: ChainSpectrum
    field: float
    kt: float
    weights: np.ndarray  # one per eigenstate of the spectrum's flat table, summing to 1


def diagonalize_chain(n_spins: int, coupling: float) -> ChainSpectrum:
    """Diagonalize the exchange Hamiltonian through its SU(2) multiplets.

    The ring commutes with the total spin S^2, so every eigenstate is the
    member m of a (2S+1)-fold multiplet whose members share one exchange
    energy, and every multiplet has exactly one member in the sector
    n_up = N // 2. `eigh` therefore runs only on the real symmetric blocks
    (q, z) of H_1 + ALPHA S^2 restricted to that sector, momentum
    q = 0..N//2 and, for even N, spin inversion z = +-1, H_1 the ring at
    J = 1 (see `_middle_blocks`); block (N - q, z) is the conjugate of
    block (q, z), so its multiplets are copies of those of (q, z). The block
    eigenvectors are eigenvectors of H = J H_1 for every J, so each gives its
    multiplet's S, its energy E = J (lambda - ALPHA S(S+1)) and its pair
    correlations (see `_multiplets`), and the splitting ALPHA S(S+1) never
    sinks under the roundoff of a large |J|. `_member_rows` expands every multiplet into the
    rows of its 2S + 1 members. No eigenvector is kept.
    A J for which the span 4N|J| of the levels overflows raises ParameterError.
    """
    ModelParams(n_spins=n_spins, coupling=coupling)
    if not np.isfinite(4.0 * n_spins * coupling):
        raise ParameterError(f"the N={n_spins} Hamiltonian overflows float64 at J={coupling} (levels span 4N|J|)")
    energies, two_s, s, zz = _multiplets(n_spins, _middle_blocks(n_spins))
    energies, slopes, features = _member_rows(n_spins, coupling * energies, two_s, s, zz)
    return ChainSpectrum(n_spins=n_spins, coupling=coupling, energies=energies, slopes=slopes, features=features)


def _middle_blocks(n: int):
    """Yield (matrix, operators, zz_rows, copies, z) for each symmetry block
    of H_1 + ALPHA S^2 on the sector n_up = N // 2 that `eigh` solves, H_1
    the ring at J = 1. Every block is a real symmetric float64 matrix.

    With O_d the sum of sigma^i . sigma^j over the pairs i < j at separation
    d, H_1 + ALPHA S^2 = (m + ALPHA/2) O_1 + (ALPHA/2) sum_{d>=2} O_d + 3N ALPHA/4,
    where m = 2 for N = 2 (its ring visits its one bond twice), else 1.

    The translation T moves site i to site i+1. For even N the spin
    inversion Z, which flips every spin, maps the sector onto itself too, and
    T and Z generate the group G of the 2N elements T^l Z^f (f = 0, 1); for
    odd N, Z leaves the sector and G is the N translations T^l. Each orbit
    of the sector's patterns under G is labelled by its smallest pattern a,
    the representative, and has R_a members. Block (q, z) belongs to the
    character chi(T^l Z^f) = e^(ikl) z^f, k = 2 pi q / N (q = 0..N//2) and
    z = +-1 (z = 1 for odd N), and is spanned by the orbits on whose
    stabilizer chi is 1, as the states |a> = R_a^(-1/2) sum_x conj(chi(g_x)) x
    over the members x = g_x a (Sandvik, arXiv:1101.3281, sec. 4, for the
    spin-inversion states). A pattern s = g b met by applying O_d to |a>
    adds its weight times chi(g) sqrt(R_a / R_b) to the element <b|O_d|a>.

    The reflection P (site i to site N-1-i) obeys PT = T^-1 P and PZ = ZP;
    write P a = T^(m_a) Z^(f_a) a', a' a representative, with the least
    m_a + N f_a. Then theta = P K, K the complex conjugation, maps the
    coefficient c of |a> to phi_a conj(c) at a', phi_a = e^(ik m_a) z^(f_a)
    = e^(i pi t_phi / 2N) for t_phi = 4 q m_a + 2 N f_a [z = -1], commutes
    with every O_d and squares to 1, so the block is real in a
    theta-invariant basis (ibid., sec. 4.1). It has one vector per
    representative, in ascending order of a, and a enters the two at
    min(a, a') and max(a, a') with the coefficients v[a, s] = |v[a, s]|
    e^(i pi t[a, s] / 2N), s = 0, 1: t[a] = t_phi / 2 if a' = a (where
    v[a, 1] = 0), (0, N) if a < a' and (t_phi, t_phi - N) if a > a'. So a
    symmetric-basis element <b|O_d|a> of character e^(i pi t_g / 2N) adds
    |v[b, s] <b|O_d|a> v[a, s']| cos(pi (t[a, s'] - t[b, s] + t_g) / 2N),
    read off a table of the 4N cosines, to the cell of slot s of b and slot
    s' of a; only the terms between two representatives of the block are
    folded. Each O_d block is kept dense in `operators`, its sigma^z sigma^z
    diagonal, equal at a and a', also as zz_rows[:, d-1], and `_multiplets`
    reads the pair correlations off them. Block (N - q, z) is the complex
    conjugate of block (q, z), so it has the same real block, spectrum and
    correlations, and `copies` is 2 for 0 < q < N/2, else 1. Blocks come in
    the order of q and then z = 1, -1, skipping those with no
    representative; the yielded `z` is 0 for odd N, whose blocks have no Z.
    """
    states = enumerate_sector(n, n // 2).states
    full = (1 << n) - 1
    shifts = np.arange(n)[:, None]
    translates = ((states << shifts) | (states >> (n - shifts))) & full
    # Row l + N f of `images` is T^l Z^f applied to every pattern.
    images = np.concatenate((translates, translates ^ full)) if n % 2 == 0 else translates
    least = images.min(axis=0)
    reps = np.flatnonzero(least == states)
    fixed = images[:, reps] == states[reps]  # the stabilizer of each representative
    members = len(images) // np.count_nonzero(fixed, axis=0)
    # Pattern s is T^shift[s] Z^flip[s] applied to representative number orbit[s].
    first = images.argmin(axis=0)
    orbit, shift, flip = np.searchsorted(states[reps], least), -first % n, first // n
    # P|a> = T^m[a] Z^f[a] |a'>, a' = partner[a] found at the bit reversal of a, and
    # m + N f the first row of `images` that takes a' there.
    mirrored = ((states[reps, None] >> np.arange(n)) & 1) @ (1 << np.arange(n)[::-1])
    partner = orbit[np.searchsorted(states, mirrored)]
    f, m = np.divmod(np.argmax(images[:, reps[partner]] == mirrored, axis=0), n)
    i, j = np.triu_indices(n, 1)
    sep = np.minimum(j - i, n - j + i)
    by_sep = (sep == np.arange(1, n // 2 + 1)[:, None]).astype(float)
    aligned = 1.0 - 2.0 * (((states[reps] >> i[:, None]) ^ (states[reps] >> j[:, None])) & 1)
    zz_rows = (by_sep @ aligned).T
    # Each exchange (weight 2) swaps the unlike spins of a pair, sending representative
    # a to T^l Z^g |b>: per pair, first the a with spin j up, then those with spin i up.
    up = (states[reps] >> np.stack([j, i], axis=1)[..., None]) & 1
    bond, _, a = np.nonzero(up & (aligned < 0)[:, None])
    target = np.searchsorted(states, states[reps[a]] ^ ((1 << i) | (1 << j))[bond])
    at, b, l, g = sep[bond] - 1, orbit[target], shift[target], flip[target]
    coeff = np.full(n // 2, ALPHA / 2)
    coeff[0] += 2 if n == 2 else 1
    own = np.arange(reps.size)
    lower, mirror = (own < partner)[:, None], (own == partner)[:, None]
    slots = np.stack([np.minimum(own, partner), np.maximum(own, partner)], axis=1)
    v_abs = np.where(mirror, [1.0, 0.0], np.sqrt(0.5))
    magnitude = 2.0 * np.sqrt(members[a] / members[b])[:, None, None] * v_abs[b][:, :, None] * v_abs[a][:, None, :]
    # One fold term per nonzero magnitude: exchange e between slot sb of b and slot sa of a.
    e, sb, sa = np.nonzero(magnitude)
    magnitude, at, a, b, element = magnitude[e, sb, sa], at[e], a[e], b[e], (l + n * g)[e]
    row, col = slots[b, sb], slots[a, sa]
    cosines = np.cos(np.pi * np.arange(4 * n) / (2 * n))
    # Block (q, z) has chi(T^l Z^f) = e^(i pi t / 2N) for t = 4 q l + 2 N f [z = -1],
    # and holds the representatives whose stabilizer has t = 0 only.
    block_q, block_minus = np.divmod(np.arange((n // 2 + 1) * (len(images) // n)), len(images) // n)
    group = np.arange(len(images))
    chi_t = (4 * block_q[:, None] * (group % n) + 2 * n * block_minus[:, None] * (group // n)) % (4 * n)
    block_reps = ~(fixed & (chi_t != 0)[:, :, None]).any(axis=1)
    for q, minus, chi, inside in zip(block_q.tolist(), block_minus.tolist(), chi_t, block_reps):
        d = np.count_nonzero(inside)
        if d == 0:
            continue
        cut = n // 2 * d * d
        # Each representative's position in the block; a term of one outside it lands on `cut`.
        pos = np.where(inside, np.cumsum(inside) - 1, cut)
        cells = np.minimum((at * d + pos[row]) * d + pos[col], cut)
        # t_phi stays unreduced: halving it mod 4N would flip a self-mirror vector's sign.
        t_phi = (4 * q * m + 2 * n * minus * f)[:, None]
        t = np.where(mirror, t_phi // 2, np.where(lower, [0, n], t_phi - [0, n]))
        values = magnitude * cosines[(t[a, sa] - t[b, sb] + chi[element]) % (4 * n)]
        flat = np.bincount(cells, values, cut + 1)[:cut].reshape(n // 2, d * d)
        diagonal = zz_rows[inside]
        flat[:, :: d + 1] += diagonal.T
        matrix = coeff @ flat
        matrix[:: d + 1] += 0.75 * n * ALPHA
        yield matrix.reshape(d, d), flat.reshape(n // 2, d, d), diagonal, 1 if 2 * q % n == 0 else 2, (1 - 2 * minus) * (n % 2 == 0)


def eigh_symmetric(matrix: np.ndarray):
    """Full eigendecomposition of a real symmetric or complex Hermitian
    matrix, as `np.linalg.eigh`.

    Returns (values, vectors): ascending eigenvalues and the orthonormal
    eigenvector columns, complex for a complex input.
    """
    a = np.asarray(matrix)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ParameterError(f"expected a non-empty square matrix, got shape {a.shape}")
    scale = max(1.0, np.abs(a).max())
    if not np.abs(a - a.conj().T).max() <= 1e-12 * scale:
        raise ParameterError("matrix is not Hermitian within 1e-12 relative tolerance")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on {a.shape[0]}x{a.shape[0]} matrix: {exc}") from exc


def _multiplets(n: int, blocks):
    """Energy, 2S and pair correlations of the multiplet that each
    eigenvector of the `_middle_blocks` blocks belongs to, `copies` times
    for each block, in block order.

    Returns (E_1, 2S, s, zz), where E_1 is the energy at J = 1 and
    s[:, d-1] and zz[:, d-1] average <sigma^i . sigma^j> and
    <sigma^z_i sigma^z_j> over the pairs (i, j) at separation d. Each block
    is real, so are its eigenvectors, and each is a momentum eigenvector,
    invariant under translation up to a phase, so these are its
    expectations of O_d and of O_d's sigma^z sigma^z part divided by the
    number of pairs. S(S+1) = 3N/4 + (1/2) sum_{i<j} <sigma^i . sigma^j> is
    read off the same sums, and a value more than SPIN_TOL from the nearest
    S(S+1) raises NumericError. For even N, the S_z = 0 member of a spin-S
    multiplet has the Z eigenvalue (-1)^(S + N/2), so an eigenvector of a
    block of the other z also raises NumericError.
    """
    solved = []
    for matrix, operators, zz_rows, copies, z in blocks:
        values, u = eigh_symmetric(matrix)
        dot = (u * (operators @ u)).sum(axis=1).T
        solved += [(values, dot, (u * u).T @ zz_rows, np.full(values.size, z))] * copies
    values, dot, zz, z = (np.concatenate(parts) for parts in zip(*solved))
    x = 0.75 * n + 0.5 * dot.sum(axis=1)
    two_s = np.rint(np.sqrt(1.0 + 4.0 * x) - 1.0)
    s_s1 = two_s * (two_s + 2.0) / 4.0
    miss = np.abs(x - s_s1).max()
    if not miss <= SPIN_TOL:
        raise NumericError(f"<S^2> of an eigenvector is {miss:.3e} from S(S+1), beyond {SPIN_TOL:g}")
    two_s = two_s.astype(int)
    if n % 2 == 0 and np.any(1 - (two_s + n) % 4 != z):
        raise NumericError("an eigenvector's total spin S does not match its Z block: (-1)^(S + N/2) != z")
    pairs_at = np.where(2 * np.arange(1, zz.shape[1] + 1) == n, n / 2, n)  # N/2 pairs at d = N/2, else N
    return values - ALPHA * s_s1, two_s, dot / pairs_at, zz / pairs_at


def _member_rows(n: int, energies, two_s, s, zz):
    """Energies, Zeeman slopes and X-state features of every member m of
    every multiplet, grouped by sector n_up = m + N/2 = 0..N and ascending
    in energy within each sector (ties keep the multiplets' order).

    By the Wigner-Eckart theorem the averaged <sigma^z sigma^z> of member m
    is s/3 + (zz - s/3) (3m^2 - S(S+1)) / (3 m0^2 - S(S+1)), from the member
    m0 = -(N % 2)/2 that was solved; it is evaluated as zz plus the change
    of the rank-2 term, so member m0 keeps zz exactly, and that change is 0
    where the denominator is (S < 1). A row is then p01 = p10 =
    (1 - <sigma^z sigma^z>)/4, z = (s - <sigma^z sigma^z>)/4 and p00, p11 =
    (1 + <sigma^z sigma^z>)/4 -+ m/N. Populations that vanish in a whole
    sector (p11 for n_up <= 1, p00 for n_up >= N - 1, and all but one for
    n_up = 0 and N) are set to exactly 0, and roundoff below 0 is clamped.
    """
    order = np.argsort(energies, kind="stable")
    energies, two_s, s, zz = energies[order], two_s[order], s[order], zz[order]
    s_s1 = two_s * (two_s + 2.0) / 4.0
    denom = 0.75 * (n % 2) - s_s1
    rank2 = np.divide(zz - s / 3.0, denom[:, None], out=np.zeros_like(zz), where=(denom != 0.0)[:, None])
    # Row k is member `sector[k] - N/2` of multiplet `multiplet[k]`.
    sector, multiplet = np.nonzero(two_s >= np.abs(2 * np.arange(n + 1) - n)[:, None])
    two_m = 2 * sector - n
    zz_m = zz[multiplet] + rank2[multiplet] * (0.75 * (two_m**2 - n % 2))[:, None]
    f = np.empty(zz_m.shape + (5,))
    f[..., 0] = (1.0 + zz_m) / 4.0 - (two_m / (2.0 * n))[:, None]
    f[..., 1] = f[..., 2] = (1.0 - zz_m) / 4.0
    f[..., 3] = (1.0 + zz_m) / 4.0 + (two_m / (2.0 * n))[:, None]
    f[..., 4] = (s[multiplet] - zz_m) / 4.0
    f[sector <= 1, :, 3] = 0.0
    f[sector >= n - 1, :, 0] = 0.0
    f[sector == 0] = [1.0, 0.0, 0.0, 0.0, 0.0]
    f[sector == n] = [0.0, 0.0, 0.0, 1.0, 0.0]
    np.maximum(f[..., :4], 0.0, out=f[..., :4])
    return energies[multiplet], two_m, f


def weight_rows(spectrum: ChainSpectrum, b_values: np.ndarray, kt_values: np.ndarray) -> np.ndarray:
    """Thermal weights of every eigenstate, one row per (B, kT) point.

    Each row's energies are shifted by its ground energy before
    exponentiation, so no weight overflows; an exponent that overflows to
    -inf (a gap far beyond kT) gives the weight 0. A kT = 0 row mixes all
    eigenstates within DEGENERACY_TOL |E_ground| of the ground energy
    uniformly (this covers exact level crossings such as B = B_c). The
    window scales with the levels, so it is the same for every J; the ground
    energy is 0 only at J = B = 0, where every level is 0. A field for which
    the span 2 (max|E| + N B) of the levels overflows raises ParameterError.
    Returns W, columns in the spectrum's flat eigenstate order.
    """
    b_max = float(np.abs(b_values).max(initial=0.0))
    span = 2.0 * (float(np.abs(spectrum.energies).max()) + float(np.abs(spectrum.slopes).max()) * b_max)
    if not np.isfinite(span):
        raise ParameterError(f"the levels overflow float64 at B={b_max:g} (they span 2(max|E| + N B))")
    shifted = spectrum.energies + np.multiply.outer(b_values, spectrum.slopes)
    e0 = shifted.min(axis=1)
    shifted -= e0[:, None]
    cold = kt_values == 0.0
    w = np.empty_like(shifted)
    w[cold] = shifted[cold] <= (DEGENERACY_TOL * np.abs(e0[cold]))[:, None]
    # Exponentiate in place: W is the largest array a scan forms.
    hot = ~cold[:, None]
    with np.errstate(over="ignore"):
        np.divide(shifted, -kt_values[:, None], out=shifted, where=hot)
        np.exp(shifted, out=w, where=hot)
    w /= w.sum(axis=1)[:, None]
    return w


def gibbs_weights(spectrum: ChainSpectrum, b_field: float, kt: float) -> GibbsEnsemble:
    """Thermal weights over all eigenstates at field B >= 0 and temperature kT >= 0."""
    ModelParams(n_spins=spectrum.n_spins, coupling=spectrum.coupling, field=b_field, kt=kt)
    w = weight_rows(spectrum, np.array([b_field], float), np.array([kt], float))[0]
    return GibbsEnsemble(spectrum=spectrum, field=b_field, kt=kt, weights=w)


def pair_states(spectrum: ChainSpectrum, b_values, kt_values, pairs) -> np.ndarray:
    """Thermal pair states W @ F, shape (B, kT, pairs, 5): W the `weight_rows`
    of the grid points, B-major, formed WEIGHT_CHUNK_ENTRIES entries at a time,
    and F the `pair_features` of the pairs. Stacked over pairs, W @ F is one
    (eigenstates x 5) product per pair, so a pair's bits do not depend on the
    other pairs; those of one wide (eigenstates x 5 * pairs) product do.
    """
    b, kt = (axis.ravel() for axis in np.meshgrid(b_values, kt_values, indexing="ij"))
    f = pair_features(spectrum, pairs).transpose(1, 0, 2)  # (pairs, eigenstates, 5)
    states = np.empty((b.size, len(pairs), 5))
    step = max(1, WEIGHT_CHUNK_ENTRIES // f.shape[1])
    for start in range(0, b.size, step):
        chunk = slice(start, start + step)
        states[chunk] = (weight_rows(spectrum, b[chunk], kt[chunk]) @ f).transpose(1, 0, 2)
    return states.reshape(len(b_values), len(kt_values), len(pairs), 5)


def pair_features(spectrum: ChainSpectrum, pairs) -> np.ndarray:
    """X-state features for each site pair (i, j) in every eigenstate.

    Returns a table of shape (eigenstates, pairs, 5), rows in the
    spectrum's flat eigenstate order. The five features are the pair
    populations p00, p01, p10, p11 (first slot site i, |0> = spin down) and
    the coherence z = <01|rho|10>. No other pair-RDM entry of an eigenstate
    of total S_z is nonzero.

    Each pair reads the spectrum's column for its separation d. A single
    row is the average of its eigenstate's (member m of an SU(2) multiplet)
    pair states (i, i+d) and (i+d, i) over the translates i, so it is a
    valid pair state but not necessarily (i, j)'s own. The thermal state is invariant under
    translation and reflection of the ring, so a thermal sum of these rows
    equals that of the pair (i, j) itself up to roundoff; in particular its
    p01 equals its p10, so the order of i and j needs no swap.
    """
    for i, j in pairs:
        check_pair(spectrum.n_spins, i, j)
    return spectrum.features[:, [separation(spectrum.n_spins, i, j) - 1 for i, j in pairs]]


def pair_rdm(ensemble: GibbsEnsemble, i: int, j: int) -> PairDensityMatrix:
    """Reduced density matrix of sites (i, j) in the thermal state: the
    Boltzmann-weighted sum of the eigenstates' pair features as a 4x4 X-matrix."""
    n = ensemble.spectrum.n_spins
    p00, p01, p10, p11, z = ensemble.weights @ pair_features(ensemble.spectrum, [(i, j)])[:, 0]
    rho = np.diag([p00, p01, p10, p11])
    rho[1, 2] = rho[2, 1] = z
    return PairDensityMatrix(sites=(i, j), matrix=rho, separation=separation(n, i, j)).validate()
