"""Gibbs states over the ring's eigenstates and two-site reduced density matrices.

The ring of N spins 1/2 in a uniform field B is

    H = sum_i [B sigma_z^i + J sigma^i . sigma^{i+1}],  sites i + N = i (cyclic),

with the site and bit conventions of `basis`; J > 0 is the antiferromagnet.
`_blocks` builds its exchange part, `diagonalize_chain` solves it,
and the field enters only through each eigenstate's Zeeman slope.

The full 2^N density matrix is never materialized. The chain is
diagonalized once per (N, J) into its SU(2) multiplets and one flat row per
eigenstate: each eigenstate's exchange energy, its Zeeman slope and the
multiplet it belongs to, so the field only shifts energies and one spectrum
serves every (B, kT) point and every pair of a scan. Every eigenstate lies
in one S_z sector, so the average of its pair states (i, i+d) and (i+d, i)
over the translates i is an X-state fixed by five real numbers (p00, p01,
p10, p11, z), which `Sectors.expand` reads off its multiplet's pair
correlations one sector at a time. A thermal pair RDM is the
Boltzmann-weighted sum of those five numbers over the eigenstates. On a
whole (B, kT) grid, `pair_states` sums each of the N+1 magnetization
sectors as its rows are expanded: once per kT > 0, weighed by the field at
each point, and at kT = 0 over its ground window, once per B.

Only the sector n_up = N // 2 is diagonalized, in momentum blocks that the
ring's reflection makes real symmetric (the reflection-adapted momentum
basis of Sandvik, arXiv:1101.3281, sec. 4.1) and that, for even N, the
spin inversion Z splits into its z = +1 and z = -1 halves (ibid., sec. 4):
the ring conserves total spin, so each of its eigenvectors stands for a
whole SU(2) multiplet, and the Wigner-Eckart theorem gives every member's
energy and pair features.
The blocks and those pair correlations come from the same separation
operators, in three stages: `_orbits` labels the sector's orbits, `_terms`
writes the operators on them as one list of exchange terms grouped by
separation, and `_blocks` folds each (q, z) block from it. The blocks are
solved one at a time, each operator formed one separation at a time, and
the spectrum keeps no eigenvectors, only each multiplet's momentum: only
`diagonalize_chain` sees them and knows how the eigenstates are blocked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .basis import ModelParams, check_axis, check_pair, enumerate_sector, separation
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


@dataclass(frozen=True)
class ChainSpectrum:
    """Exchange Hamiltonian of a ring, diagonalized into its SU(2) multiplets.

    `energies` and `slopes` hold each eigenstate's exchange energy and its
    Zeeman slope 2*n_up - N, so its energy at field B is
    energies + B * slopes. Rows are grouped by magnetization sector,
    n_up = 0..N, and ascend in energy within each sector. Row k is a member
    of multiplet `multiplet[k]`. The multiplets ascend in energy, and `s`,
    `zz` and `rank2`, one row per multiplet and one column per separation
    d = 1..N//2, hold their pair correlations (see `diagonalize_chain`),
    from which `Sectors.expand` expands each eigenstate's X-state features
    one sector at a time. `momentum` holds each multiplet's q = 0..N-1, its
    crystal momentum k = 2 pi q / N. No eigenvectors are kept.
    """

    n_spins: int
    coupling: float
    energies: np.ndarray
    slopes: np.ndarray
    multiplet: np.ndarray
    s: np.ndarray
    zz: np.ndarray
    rank2: np.ndarray
    momentum: np.ndarray

    @property
    def features(self) -> np.ndarray:
        """The (eigenstates, N//2, 5) table of each eigenstate's X-state
        features at separation d = 1..N//2, in the rows of `energies`,
        joined anew from `Sectors.expand` on every access; no thermal sum
        forms it.

        The five features are the pair populations p00, p01, p10, p11
        (first slot site i, |0> = spin down) and the coherence
        z = <01|rho|10>. No other pair-RDM entry of an eigenstate of total
        S_z is nonzero. A row is the average of its eigenstate's (member m
        of an SU(2) multiplet) pair states (i, i+d) and (i+d, i) over the
        translates i, so it is a valid pair state but not necessarily that
        of one pair (i, j). The thermal state is invariant under translation
        and reflection of the ring, so a thermal sum of these rows equals
        that of any pair (i, j) at separation d up to roundoff; in
        particular its p01 equals its p10, so the order of i and j needs no
        swap.
        """
        return np.concatenate(list(Sectors(self).expand([(0, d) for d in range(1, self.n_spins // 2 + 1)])))


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
    J = 1 (see `_blocks`); block (N - q, z) is the conjugate of block
    (q, z), so its multiplets are copies of those of (q, z) at momentum N - q.
    The block eigenvectors are eigenvectors of H = J H_1 for every J, so
    each gives its multiplet's S, its energy E = J (lambda - ALPHA S(S+1))
    and its pair correlations s and zz (see `_multiplets`), and the
    splitting ALPHA S(S+1) never sinks under the roundoff of a large |J|.

    The multiplets are sorted by E (ties keep the block order), and each has
    one row per member m, in the sector n_up = m + N/2. By the
    Wigner-Eckart theorem a member's averaged <sigma^z sigma^z> is
    s/3 + (zz - s/3) (3m^2 - S(S+1)) / (3 m0^2 - S(S+1)), from the member
    m0 = -(N % 2)/2 that was solved, so `rank2` holds
    (zz - s/3) / (3 m0^2 - S(S+1)), and 0 where the denominator is (S < 1).
    No eigenvector is kept.
    A J for which the span 4N|J| of the levels overflows raises ParameterError.
    """
    ModelParams(n_spins=n_spins, coupling=coupling)
    if not np.isfinite(4.0 * n_spins * coupling):
        raise ParameterError(f"the N={n_spins} Hamiltonian overflows float64 at J={coupling} (levels span 4N|J|)")
    energies, two_s, s, zz, q = _multiplets(n_spins, _blocks(n_spins))
    energies = coupling * energies
    order = np.argsort(energies, kind="stable")
    energies, two_s, s, zz, q = energies[order], two_s[order], s[order], zz[order], q[order]
    denom = 0.75 * (n_spins % 2) - two_s * (two_s + 2.0) / 4.0
    rank2 = np.divide(zz - s / 3.0, denom[:, None], out=np.zeros_like(zz), where=(denom != 0.0)[:, None])
    # Row k is member `sector[k] - N/2` of multiplet `multiplet[k]`.
    sector, multiplet = np.nonzero(two_s >= np.abs(2 * np.arange(n_spins + 1) - n_spins)[:, None])
    return ChainSpectrum(n_spins, coupling, energies[multiplet], 2 * sector - n_spins, multiplet, s, zz, rank2, q)


def _orbits(n: int):
    """The sector n_up = N // 2 as orbits of its patterns under the ring's
    symmetries: (states, reps, stabilizer, orbit, shift, flip, partner, m, f).

    The translation T moves site i to site i+1. For even N the spin
    inversion Z, which flips every spin, maps the sector onto itself too, and
    T and Z generate the group G of the 2N elements T^l Z^f (f = 0, 1); for
    odd N, Z leaves the sector and G is the N translations T^l. Each orbit
    of the ascending patterns `states` under G is labelled by its smallest
    pattern, the representative a (`reps`, ascending), and has R_a members;
    stabilizer[l + N f, a] says whether T^l Z^f fixes a, and pattern s is
    T^shift[s] Z^flip[s] applied to representative number orbit[s]. The
    reflection P (site i to site N-1-i) obeys PT = T^-1 P and PZ = ZP, and
    P a = T^m[a] Z^f[a] a', a' representative number partner[a], with the
    least m + N f.
    """
    states = enumerate_sector(n, n // 2).states
    full = (1 << n) - 1
    shifts = np.arange(n)[:, None]
    # Row l + N f of `images` is T^l Z^f applied to every pattern.
    images = ((states << shifts) | (states >> (n - shifts))) & full
    images = np.concatenate((images, images ^ full)) if n % 2 == 0 else images
    least = images.min(axis=0)
    index = np.flatnonzero(least == states)  # of each representative among the patterns
    reps, first = states[index], images.argmin(axis=0)
    stabilizer = images[:, index] == reps
    orbit, shift, flip = np.searchsorted(reps, least), -first % n, first // n
    # a' is found at the bit reversal of a, and m + N f is the first row of `images` that takes a' there.
    mirrored = ((reps[:, None] >> np.arange(n)) & 1) @ (1 << np.arange(n)[::-1])
    partner = orbit[np.searchsorted(states, mirrored)]
    f, m = np.divmod(np.argmax(images[:, index[partner]] == mirrored, axis=0), n)
    return states, reps, stabilizer, orbit, shift, flip, partner, m, f


def _terms(n: int, orbits):
    """The separation operators on the `_orbits` of the sector n_up = N // 2,
    as one list of exchange terms that serves every block: (magnitude, at,
    row, col, p0, pq, pz, coeff, zz_rows, by_d, cosines).

    With O_d the sum of sigma^i . sigma^j over the pairs i < j at separation
    d, H_1 + ALPHA S^2 = sum_d coeff[d-1] O_d + 3N ALPHA/4, coeff = (c + ALPHA/2,
    ALPHA/2, ...), where c = 2 for N = 2 (its ring visits its one bond twice),
    else 1. O_d's sigma^z sigma^z diagonal is zz_rows[a, d-1] at
    representative a. In a block of character chi (see `_blocks`), a pattern
    s = g b met by applying O_d to |a> adds its weight times
    chi(g) sqrt(R_a / R_b) to the element <b|O_d|a>.

    With P a = T^m Z^f a', theta = P K, K the complex conjugation, maps the
    coefficient c of |a> to phi_a conj(c) at a', phi_a = e^(ik m) z^f =
    e^(i pi t_phi / 2N) for t_phi = 4 q m + 2 N f [z = -1], commutes with
    every O_d and squares to 1, so the block is real in a theta-invariant
    basis (Sandvik, arXiv:1101.3281, sec. 4.1). It has one vector per
    representative, in ascending order of a, and a enters the two at
    min(a, a') and max(a, a') with the coefficients v[a, s] = |v[a, s]|
    e^(i pi t[a, s] / 2N), s = 0, 1: t[a] = t_phi / 2 if a' = a (where
    v[a, 1] = 0), (0, N) if a < a' and (t_phi, t_phi - N) if a > a'. So a
    symmetric-basis element <b|O_d|a> of character e^(i pi t_g / 2N) adds
    |v[b, s] <b|O_d|a> v[a, s']| cos(pi (t[a, s'] - t[b, s] + t_g) / 2N),
    read off the table of the 4N `cosines`, to the cell (`row`, `col`) of
    slot s of b and slot s' of a. Both t[a, s] and t_g = 4 q l + 2 N f [z = -1],
    for g = T^l Z^f, are affine in (q, [z = -1]), so each such term, one per
    exchange and pair of nonzero slots, stores its `magnitude` and its cosine
    index p0 + q pq + [z = -1] pz (mod 4N) once. The terms are sorted by
    d = at + 1, and by_d[d-1] slices those of O_d.
    """
    states, reps, stabilizer, orbit, shift, flip, partner, m, f = orbits
    members = len(stabilizer) // np.count_nonzero(stabilizer, axis=0)
    # The pairs i < j in the order of their separation d, so that the exchanges, and
    # the terms folded from them, come grouped by d.
    i, j = np.triu_indices(n, 1)
    sep = np.minimum(j - i, n - j + i)
    order = np.argsort(sep, kind="stable")
    i, j, sep = i[order], j[order], sep[order]
    by_sep = (sep == np.arange(1, n // 2 + 1)[:, None]).astype(float)
    aligned = 1.0 - 2.0 * (((reps >> i[:, None]) ^ (reps >> j[:, None])) & 1)
    zz_rows = (by_sep @ aligned).T
    # Each exchange (weight 2) swaps the unlike spins of a pair, sending representative
    # a to T^l Z^g |b>: per pair, first the a with spin j up, then those with spin i up.
    up = (reps >> np.stack([j, i], axis=1)[..., None]) & 1
    bond, _, a = np.nonzero(up & (aligned < 0)[:, None])
    target = np.searchsorted(states, reps[a] ^ ((1 << i) | (1 << j))[bond])
    b, at = orbit[target], (sep[bond] - 1).astype(np.int32)
    coeff = np.full(n // 2, ALPHA / 2)
    coeff[0] += 2 if n == 2 else 1
    own = np.arange(reps.size)
    lower, mirror = (own < partner)[:, None], (own == partner)[:, None]
    slots = np.stack([np.minimum(own, partner), np.maximum(own, partner)], axis=1).astype(np.int32)
    v_abs = np.where(mirror, [1.0, 0.0], np.sqrt(0.5))
    magnitude = 2.0 * np.sqrt(members[a] / members[b])[:, None, None] * v_abs[b][:, :, None] * v_abs[a][:, None, :]
    # Slot s of a has t[a, s] = t0[a, s] + q tq[a] + [z = -1] tz[a], t_phi / 2 taken 0, 1 or 2
    # times, and T^l Z^f the character index 4 q l + 2 N f [z = -1].
    scale = 2 * (own > partner) + (own == partner)
    t0, tq, tz = np.where(lower, [0, n], np.where(mirror, 0, [0, -n])).astype(np.int32), 2 * scale * m, n * scale * f
    pq = ((tq[a] - tq[b] + 4 * shift[target]) % (4 * n)).astype(np.int32)
    pz = ((tz[a] - tz[b] + 2 * n * flip[target]) % (4 * n)).astype(np.int32)
    a, b = a.astype(np.int32), b.astype(np.int32)
    # One term per nonzero magnitude: exchange e between slot sb of b and slot sa of a.
    e, sb, sa = np.nonzero(magnitude)
    magnitude, at, pq, pz, a, b = magnitude[e, sb, sa], at[e], pq[e], pz[e], a[e], b[e]
    row, col, p0 = slots[b, sb], slots[a, sa], (t0[a, sa] - t0[b, sb]) % (4 * n)
    bounds = np.searchsorted(at, np.arange(n // 2 + 1)).tolist()
    by_d = list(map(slice, bounds[:-1], bounds[1:]))
    cosines = np.cos(np.pi * np.arange(4 * n) / (2 * n))
    return magnitude, at, row, col, p0, pq, pz, coeff, zz_rows, by_d, cosines


def _blocks(n: int):
    """Iterator over the blocks (q, z, matrix, exchange, zz_rows) of
    H_1 + ALPHA S^2 on the sector n_up = N // 2, H_1 the ring at J = 1, each
    folded by `_fold` only when the iterator reaches it; the `_orbits` arrays
    are gone by then. Block (q, z) belongs to the character
    chi(T^l Z^f) = e^(ikl) z^f, k = 2 pi q / N (q = 0..N//2) and z = +-1
    (z = 1 for odd N), and is spanned by the orbits on whose stabilizer chi
    is 1, as the states |a> = R_a^(-1/2) sum_x conj(chi(g_x)) x over the
    members x = g_x a (Sandvik, arXiv:1101.3281, sec. 4). Blocks come in the
    order of q and then z = 1, -1, skipping those with no representative.
    """
    orbits = _orbits(n)
    stabilizer, terms = orbits[2], _terms(n, orbits)
    group = np.arange(len(stabilizer))
    # Block (q, z) has chi(T^l Z^f) = e^(i pi t / 2N) for t = 4 q l + 2 N f [z = -1],
    # and holds the representatives whose stabilizer has t = 0 only.
    block_q, block_minus = np.divmod(np.arange((n // 2 + 1) * (group.size // n)), group.size // n)
    chi_t = (4 * block_q[:, None] * (group % n) + 2 * n * block_minus[:, None] * (group // n)) % (4 * n)
    block_reps = ~(stabilizer & (chi_t != 0)[:, :, None]).any(axis=1)
    kept = block_reps.any(axis=1)
    return map(partial(_fold, n, terms), block_q[kept].tolist(), block_minus[kept].tolist(), block_reps[kept])


def _fold(n: int, terms, q: int, minus: int, inside):
    """Block (q, 1 - 2 minus) of `_blocks` on the representatives `inside`,
    from the `_terms` list: a real symmetric float64 `matrix` that sums the
    terms between two of them, each times its O_d's coefficient, plus the
    diagonal; after `eigh`, `exchange` yields O_d less its diagonal for each
    d in turn, from that d's slice of the terms; the diagonal's `zz_rows`
    are equal at a and a', and `_multiplets` reads the pair correlations off
    both.
    """
    magnitude, at, row, col, p0, pq, pz, coeff, zz_rows, by_d, cosines = terms
    d = np.count_nonzero(inside)
    # Each representative's position in the block; a term of one outside it lands on d*d.
    pos = np.where(inside, np.cumsum(inside) - 1, d * d)
    cells = np.minimum(pos[row] * d + pos[col], d * d)
    values = magnitude * cosines[(p0 + q * pq + minus * pz) % (4 * n)]
    matrix = np.bincount(cells, coeff[at] * values, d * d + 1)[: d * d]
    diagonal = zz_rows[inside]
    matrix[:: d + 1] += diagonal @ coeff + 0.75 * n * ALPHA
    exchange = (np.bincount(cells[k], values[k], d * d + 1)[: d * d].reshape(d, d) for k in by_d)
    return q, 1 - 2 * minus, matrix.reshape(d, d), exchange, diagonal


def eigh_symmetric(matrix: np.ndarray):
    """Full eigendecomposition of a real symmetric or complex Hermitian
    matrix, as `np.linalg.eigh`.

    Returns (values, vectors): ascending eigenvalues and the orthonormal
    eigenvector columns, complex for a complex input. A matrix that is not
    square, not finite or not Hermitian raises ParameterError.
    """
    a = np.asarray(matrix)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ParameterError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError("matrix must be finite")
    scale = max(1.0, np.abs(a).max())
    if not np.abs(a - a.conj().T).max() <= 1e-12 * scale:
        raise ParameterError("matrix is not Hermitian within 1e-12 relative tolerance")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on {a.shape[0]}x{a.shape[0]} matrix: {exc}") from exc


def _multiplets(n: int, blocks):
    """Energy, 2S, pair correlations and momentum of the multiplet that each
    eigenvector of the `_blocks` blocks belongs to, in block order, each
    block followed by its conjugate copy where one exists.

    Returns (E_1, 2S, s, zz, q), where E_1 is the energy at J = 1 and
    s[:, d-1] and zz[:, d-1] average <sigma^i . sigma^j> and
    <sigma^z_i sigma^z_j> over the pairs (i, j) at separation d. Each block
    is real, so are its eigenvectors, and each is a momentum eigenvector,
    invariant under translation up to a phase, so these are its
    expectations of O_d and of O_d's sigma^z sigma^z part divided by the
    number of pairs. S(S+1) = 3N/4 + (1/2) sum_{i<j} <sigma^i . sigma^j> is
    read off the same sums, and a value more than SPIN_TOL from the nearest
    S(S+1) raises NumericError. For even N, the S_z = 0 member of a spin-S
    multiplet has the Z eigenvalue (-1)^(S + N/2), so an eigenvector of a
    block of the other z also raises NumericError. The blocks are solved as
    they arrive, so each is released before the next one is folded.
    """
    solved = []
    for rows in map(partial(_solve_block, n), blocks):
        solved += rows
    values, dot, zz, z, q = (np.concatenate(parts) for parts in zip(*solved))
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
    return values - ALPHA * s_s1, two_s, dot / pairs_at, zz / pairs_at, q


def _solve_block(n: int, block):
    """Eigenvalues, <O_d>, summed zz rows, z and q of the eigenvectors of one
    `_blocks` block, as a list of one row, and a second equal row at
    momentum N - q for the conjugate copy where 2q != 0 mod N.
    <O_d> is the expectation of O_d's exchange part, formed one separation
    d at a time so that only one is held, plus that of its sigma^z sigma^z
    diagonal, which is the summed zz row."""
    q, z, matrix, exchange, zz_rows = block
    values, u = eigh_symmetric(matrix)
    zz = (u * u).T @ zz_rows
    dot = np.stack([(u * (x_d @ u)).sum(axis=0) for x_d in exchange], axis=1) + zz
    momenta = [q] if 2 * q % n == 0 else [q, n - q]
    return [(values, dot, zz, np.full(values.size, z), np.full(values.size, k)) for k in momenta]


class Sectors:
    """The flat table's magnetization sectors, the walk over them and the one
    weight rule of every thermal sum over them, at each field B of `b_values`.

    Sector k (n_up = 0..N, slope s = 2k - N) holds the rows `rows[k]`, which
    ascend in E, so its first row is its ground energy e0[k]; `expand` yields
    their pair features one sector at a time. With E0 = min_s(e0_s + B s)
    (`ground`), row i of sector s weighs x_i w_s at kT > 0:
    x_i = exp(-(E_i - e0_s)/kT) (`boltzmann`), w_s = exp(-(e0_s + B s - E0)/kT)
    (`field`), no exponent positive. At kT = 0 it weighs 1 inside the window
    E_i + B s - E0 <= DEGENERACY_TOL |E0| (`window`), which scales with the
    levels and so covers exact crossings such as B = B_c for every J, and 0
    outside. The weight rule reads only `n_spins`, `energies` and `slopes`. A
    field for which the span 2 (max|E| + N B) of the levels overflows raises
    ParameterError.
    """

    def __init__(self, spectrum, b_values=()):
        n, b_values = spectrum.n_spins, np.asarray(b_values, float)
        b_max = float(np.abs(b_values).max(initial=0.0))
        if not np.isfinite(2.0 * (float(np.abs(spectrum.energies).max()) + n * b_max)):
            raise ParameterError(f"the levels overflow float64 at B={b_max:g} (they span 2(max|E| + N B))")
        bounds = np.searchsorted(spectrum.slopes, np.arange(-n, n + 3, 2)).tolist()
        self.rows, self.e0 = list(map(slice, bounds[:-1], bounds[1:])), spectrum.energies[bounds[:-1]]
        self.spectrum, self.energies, self.b_values, self.slopes = spectrum, spectrum.energies, b_values, np.arange(-n, n + 1, 2)
        self.level = self.e0 + np.multiply.outer(b_values, self.slopes)  # (B, sectors)
        self.ground = self.level.min(axis=1, keepdims=True)

    def expand(self, pairs):
        """Iterator over the X-state features (rows, pairs, 5) of each sector
        n_up = 0..N in turn, in the order of `rows`, each pair (i, j) read at
        its separation d (see `ChainSpectrum.features`). A sector is expanded
        only when the iterator reaches it, and the iterator keeps none. A pair
        that is not two distinct sites raises ParameterError at once.

        Member m's averaged <sigma^z sigma^z> (see `diagonalize_chain`) is
        evaluated as zz plus the change 3 (m^2 - m0^2) rank2 of the rank-2
        term, so member m0 keeps zz exactly. A row is then p01 = p10 =
        (1 - <sigma^z sigma^z>)/4, z = (s - <sigma^z sigma^z>)/4 and p00, p11 =
        (1 + <sigma^z sigma^z>)/4 -+ m/N. Populations that vanish in a whole
        sector (p11 for n_up <= 1, p00 for n_up >= N - 1, and all but one for
        n_up = 0 and N) are set to exactly 0, and roundoff below 0 is clamped.
        """
        sp, n = self.spectrum, self.spectrum.n_spins
        for i, j in pairs:
            check_pair(n, i, j)
        columns = [separation(n, i, j) - 1 for i, j in pairs]
        s, zz, rank2 = sp.s[:, columns], sp.zz[:, columns], sp.rank2[:, columns]
        return (_x_features(n, n_up, sp.multiplet[rows], s, zz, rank2) for n_up, rows in enumerate(self.rows))

    def field(self, kt):
        """w_s at each (kT > 0, B, sector)."""
        return _boltzmann(self.level - self.ground, kt[:, None, None])

    def boltzmann(self, k, kt):
        """x_i at each (kT > 0, row of sector k)."""
        return _boltzmann(self.energies[self.rows[k]] - self.e0[k], kt[:, None])

    def window(self, k, b=slice(None)):
        """Whether each (B of the rows `b`, row of sector k) lies in the kT = 0 window."""
        gap = self.energies[self.rows[k]] + self.b_values[b, None] * self.slopes[k] - self.ground[b]
        return gap <= DEGENERACY_TOL * np.abs(self.ground[b])


def _x_features(n, n_up, k, s, zz, rank2):
    """The `Sectors.expand` features of sector n_up, whose rows belong to the multiplets k."""
    two_m = 2 * n_up - n
    zz_m = zz[k] + rank2[k] * (0.75 * (two_m**2 - n % 2))
    f = np.empty(zz_m.shape + (5,))
    f[..., 0] = (1.0 + zz_m) / 4.0 - two_m / (2.0 * n)
    f[..., 1] = f[..., 2] = (1.0 - zz_m) / 4.0
    f[..., 3] = (1.0 + zz_m) / 4.0 + two_m / (2.0 * n)
    f[..., 4] = (s[k] - zz_m) / 4.0
    if n_up <= 1:
        f[..., 3] = 0.0
    if n_up >= n - 1:
        f[..., 0] = 0.0
    if n_up in (0, n):
        f[:] = [1.0, 0.0, 0.0, 0.0, 0.0] if n_up == 0 else [0.0, 0.0, 0.0, 1.0, 0.0]
    np.maximum(f[..., :4], 0.0, out=f[..., :4])
    return f


def _boltzmann(gap, kt):
    """exp(-gap/kT); an exponent that overflows to -inf (a gap far beyond kT) gives 0, silently."""
    with np.errstate(over="ignore"):
        x = np.divide(gap, -kt)
    return np.exp(x, out=x)


def gibbs_weights(spectrum: ChainSpectrum, b_field: float, kt: float) -> GibbsEnsemble:
    """Thermal weights over all eigenstates at field B >= 0 and temperature kT >= 0,
    built sector by sector by the rule of `Sectors` and normalized to sum 1."""
    ModelParams(n_spins=spectrum.n_spins, coupling=spectrum.coupling, field=b_field, kt=kt)
    sectors, kts = Sectors(spectrum, [b_field]), np.array([kt], float)
    if kt == 0.0:
        w = np.concatenate([sectors.window(k)[0] for k in range(len(sectors.rows))]).astype(float)
    else:
        w = np.concatenate([sectors.boltzmann(k, kts)[0] * w_s for k, w_s in enumerate(sectors.field(kts)[0, 0])])
    return GibbsEnsemble(spectrum=spectrum, field=b_field, kt=kt, weights=w / w.sum())


def pair_states(spectrum: ChainSpectrum, b_values, kt_values, pairs) -> np.ndarray:
    """Thermal pair states (B, kT, pairs, 5) from the pairs' X-state features F.

    The field shifts each energy by B s, s one of the N+1 slopes, so one pass
    of `Sectors.expand` sums each sector's rows, and no column forms F over
    all eigenstates. By the rule of `Sectors`, each kT > 0 gets
    G_s = sum_i x_i F_i and Z_s = sum_i x_i, and a point (B, kT) is
    sum_s w_s G_s / sum_s w_s Z_s: no exponent is positive and the
    denominator is at least 1. Each kT = 0 point is the sum of the F_i in the
    ground window over their count, both summed sector by sector. Every
    product is stacked over pairs, one per pair, so a pair's bits do not
    depend on the other pairs; those of one wide product over all pairs do.
    Axes that are not nonempty finite 1-D sequences of B >= 0 and kT >= 0,
    and a field for which the levels overflow, raise ParameterError.
    """
    b_values, kt_values = check_axis("b_values", b_values), check_axis("kt_values", kt_values)
    ModelParams(spectrum.n_spins, spectrum.coupling, field=b_values.min(), kt=kt_values.min())
    sectors = Sectors(spectrum, b_values)
    cold, hot = kt_values == 0.0, kt_values[kt_values > 0.0]
    at_zero = slice(None) if cold.any() else slice(0)  # the B rows of the kT = 0 columns, if any
    # map drops each sector's rows before the next one is expanded.
    sums = partial(_sector_sums, sectors, hot, at_zero)
    g, z, g_cold, z_cold = zip(*map(sums, range(spectrum.n_spins + 1), sectors.expand(pairs)))
    w = sectors.field(hot)  # (kT, B, sectors)
    states = np.empty((b_values.size, kt_values.size, len(pairs), 5))
    states_hot = w @ np.stack(g, axis=2)  # (pairs, kT, B, 5)
    states_hot /= w @ np.stack(z, axis=1)[:, :, None]
    states[:, ~cold] = states_hot.transpose(2, 1, 0, 3)
    states[at_zero, cold] = (sum(g_cold) / sum(z_cold)[:, None]).transpose(1, 0, 2)[:, None]
    return states


def _sector_sums(sectors, kt, b, k, f):
    """Sector k's sums of x F and x at each kT > 0, and of F and 1 in the window at each B of `b` (see `pair_states`)."""
    f = f.transpose(1, 0, 2)  # (pairs, rows of the sector, 5)
    x = sectors.boltzmann(k, kt)  # (kT, rows)
    window = sectors.window(k, b)  # (B, rows)
    return x @ f, x.sum(axis=1), window @ f, np.count_nonzero(window, axis=1)


def pair_rdm(ensemble: GibbsEnsemble, i: int, j: int) -> PairDensityMatrix:
    """Reduced density matrix of sites (i, j) in the thermal state: the
    Boltzmann-weighted sum of the eigenstates' pair features as a 4x4 X-matrix,
    summed one sector at a time."""
    n, sectors = ensemble.spectrum.n_spins, Sectors(ensemble.spectrum)
    p00, p01, p10, p11, z = sum(ensemble.weights[rows] @ f[:, 0] for rows, f in zip(sectors.rows, sectors.expand([(i, j)])))
    rho = np.diag([p00, p01, p10, p11])
    rho[1, 2] = rho[2, 1] = z
    return PairDensityMatrix(sites=(i, j), matrix=rho, separation=separation(n, i, j)).validate()
