"""Dense complex linear algebra over small multi-factor Hilbert spaces.

States carry their tensor-factor dimensions with them (e.g. ``dims=(2, 2, 4)``
for a qubit, a reference qubit, and a four-dimensional environment).  The
convention throughout is that the *leftmost* factor is the slowest-varying
index of the flattened vector/matrix, matching ``numpy.kron`` ordering.

Everything here is immutable after construction and side-effect free.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# The package's validation tolerances, all of them.  Every check below passes
# when ``residual <= atol``, so a NaN residual always fails.
HERMITIAN_ATOL = 1e-10  # max |M - M^dag| entry
UNITARY_ATOL = 1e-10  # max |V^dag V - I| entry: U U^dag of a unitary, sum K^dag K of Kraus sets
TRACE_ATOL = 1e-10  # |tr rho - 1|
NORM_ATOL = 1e-12  # ||psi| - 1|
EIGENVALUE_FLOOR = -1e-10  # eigenvalues in [floor, 0) are jitter; below the floor, an error
PROB_SUM_ATOL = 1e-10  # |sum_i p_i - 1| of a probability vector
PURITY_ATOL = 1e-9  # |1 - largest eigenvalue| of a pure-state projector
UNIT_SLACK = 1e-12  # unit-interval values this far outside [0, 1] are rounding dust


def _real(x, name: str) -> float:
    """``x``, or the one number of a 0-d real array, as a float.  Strings, bytes, bools
    (numpy's too), complex, None and other non-reals raise ValueError "<name> must be a
    real number"."""
    if isinstance(x, np.ndarray) and x.shape == () and x.dtype.kind in "iuf":
        x = x[()]
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    return float(x)


def _inside(x, name: str, low: float, high: float) -> float:
    """The one open-interval reader: ``_real(x, name)``, refused with ValueError "<name>
    must be a real number in (low, high), got <x>" unless low < x < high; NaN fails."""
    value = _real(x, name)
    if not low < value < high:
        raise ValueError(f"{name} must be a real number in ({low:g}, {high:g}), got {value!r}")
    return value


def _flag(x, name: str) -> bool:
    """``x`` as a bool; anything but a ``bool`` or ``np.bool_`` raises ValueError."""
    if not isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {x!r}")
    return bool(x)


def _unit_interval(x, name: str, slack: float = UNIT_SLACK) -> float:
    """``x`` as a float in [0, 1].

    Values at most ``slack`` outside the interval are clamped into it; values
    further out, NaN and +-inf raise ValueError "<name> <x> outside [0, 1]",
    and non-real inputs raise ``_real``'s ValueError.
    """
    if type(x) is not float:  # floats, the common case, skip the type check
        x = _real(x, name)
    if 0.0 < x < 1.0:  # kept cheap: it runs on every probability
        return x
    if not -slack <= x <= 1.0 + slack:
        raise ValueError(f"{name} {x!r} outside [0, 1]")
    return 0.0 if x <= 0.0 else 1.0


def _numbers(values, name: str, ndim: int | None, kinds: str) -> np.ndarray:
    """The one reader of an outside list or array: ``values`` as numpy reads it, with
    ``ndim`` axes (None: any) and a dtype kind in ``kinds`` ("iuf" real, "iufc" complex).
    Ragged nesting, strings, bytes, None, bools and a bool beside numbers in a list, at
    any depth, raise ValueError "<name>: ...".  An ndarray is judged by its dtype alone."""
    try:
        array = np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting, e.g. matrices of mixed shape
        raise ValueError(f"{name}: entries have mixed shapes or are not numbers") from None
    if ndim is not None and array.ndim != ndim:
        axes = "a flat list of numbers" if ndim == 1 else f"{ndim} axes"
        raise ValueError(f"{name}: expected {axes}, got shape {array.shape}")
    if array.dtype.kind not in kinds or not (
        isinstance(values, np.ndarray)
        or {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).ravel().tolist()))
    ):
        numbers = "numbers" if "c" in kinds else "real numbers"
        raise ValueError(f"{name}: expected {numbers}, not strings, bytes, bools or None")
    return array


def _unit_intervals(values, name: str) -> np.ndarray:
    """``_unit_interval`` of each entry of a flat list, as an array.

    Unless every entry lies inside (0, 1), the two extremes are checked, so a
    refused entry (NaN included) raises the scalar's ValueError, and every
    entry is clamped as the scalar clamps it.
    """
    values = _numbers(values, name, 1, "iuf").astype(np.float64, copy=False)
    if values.size and not 0.0 < values.min() <= values.max() < 1.0:
        for extreme in (values.min(), values.max()):
            _unit_interval(extreme, name)
        values = np.clip(values, 0.0, 1.0) + 0.0  # -0.0 + 0.0 is 0.0, as the scalar returns
    return values


def _count(x, name: str, low: int, high: float = math.inf) -> int:
    """The one count reader: ``x`` as an int in [low, high].  Bools, floats (whole ones
    too), NaN, other non-integers and integers out of range raise ValueError "<name>
    must be an integer in [low, high], got <x>" (">= low" when ``high`` is inf)."""
    try:
        count = None if isinstance(x, bool) else operator.index(x)  # index takes bools
    except TypeError:
        count = None
    if count is None or not low <= count <= high:
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {x!r}")
    return count


def _sequence(values, name: str, kind: str, cap: int | None = None) -> tuple:
    """``values`` as a tuple, its length checked against ``cap`` before any entry is read; an
    int, None, a generator or anything else without a length raises ValueError."""
    try:
        size = len(values)
    except TypeError:
        got = type(values).__name__
        raise ValueError(f"{name} must be a sequence of {kind}, got {got}") from None
    if cap is not None and size > cap:
        raise ValueError(f"{name} has {size} entries, above the cap of {cap}")
    return tuple(values)


def _integers(values, name: str, low: int, high=math.inf, cap=None) -> tuple[int, ...]:
    """The one reader of an integer sequence: the "<name> list", each entry a ``_count``
    in [low, high]."""
    items = _sequence(values, f"{name} list", "integers", cap)
    return tuple(_count(v, name, low, high) for v in items)


# The largest dimension of a random unitary, identity channel or basis state and
# side of a matrix read in, far above the 16 that the package, its tests and demos
# ask for at most; squared, the most entries of a ``tensor`` product or array read
# in.  At the cap a random unitary's QR takes 0.6 s on one x86-64 core, and the
# worst accepted input, a 1024 x 1024 density matrix, is checked in under 0.4 s on
# one Xeon core; the work grows as the cube of the dimension.
MAX_DIMENSION = 1024


def _check_residual(resid, atol: float, what: str) -> None:
    """Raise ValueError("<what> (residual ...)") unless ``resid <= atol``; NaN fails."""
    resid = float(resid)
    if not resid <= atol:
        raise ValueError(f"{what} (residual {resid:.3e}, tolerance {atol:.0e})")


def _as_complex_array(values, name: str, ndim: int | None) -> np.ndarray:
    """A read-only complex copy of ``values``, read by ``_numbers``, all entries finite:
    a square matrix of dimension at least 1 or a stack of them (``ndim`` axes, the
    last two equal), or with ``ndim=None`` an array of any shape, flattened into a
    vector.  A matrix side above MAX_DIMENSION, or more than MAX_DIMENSION**2
    entries, is refused from the shape, before the copy."""
    arr = _numbers(values, name, ndim, "iufc")
    if arr.size > MAX_DIMENSION**2 or ndim is not None and max(arr.shape[-2:]) > MAX_DIMENSION:
        cap = f"{MAX_DIMENSION} a side and {MAX_DIMENSION**2} entries"
        raise ValueError(f"{name}: shape {arr.shape} is above the cap of {cap}")
    arr = arr.astype(np.complex128)  # always a copy, made only below the cap
    if ndim is None:
        arr = arr.ravel()
    elif arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name}: expected square matrices, the last two equal, got {arr.shape}")
    elif not arr.shape[-1]:
        raise ValueError(f"{name}: expected dimension >= 1, got shape {arr.shape}")
    _check_finite(arr, name)  # every matrix entry point, before any residual
    arr.setflags(write=False)
    return arr


def _check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """``array``, refused with ValueError "<name>: ..." if any entry is NaN or infinite."""
    if not np.isfinite(array).all():
        raise ValueError(f"{name}: array has non-finite (NaN or infinite) entries")
    return array


def _check_normalized(amps: np.ndarray) -> None:
    """Raise unless each row ``amps[n]`` of a stack of state vectors has norm 1 within
    NORM_ATOL; ``PureState`` runs it as a one-row call."""
    n, size = amps.shape[0], math.prod(amps.shape[1:])
    flat = amps.reshape(n, 1, size)
    norms = np.sqrt((flat.conj() @ flat.swapaxes(1, 2))[:, 0, 0].real)
    resid = np.abs(norms - 1.0).max(initial=0.0)
    _check_residual(resid, NORM_ATOL, "state vector is not normalized")


def _check_dims(dims, size: int) -> tuple[int, ...]:
    dims = _integers(dims, "subsystem dimension", 1)
    if not dims:
        raise ValueError("bad subsystem dimensions ()")
    if math.prod(dims) != size:
        raise ValueError(f"subsystem dimensions {dims} do not multiply to {size}")
    return dims


def _check_indices(indices, n_factors: int) -> tuple[int, ...]:
    idx = _integers(indices, "subsystem index", 0, n_factors - 1)
    if not idx or len(set(idx)) != len(idx):
        raise ValueError(f"bad subsystem index set {idx}")
    return idx


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector together with its tensor-factor dimensions.

    States hold arrays, so they compare by identity: ``==`` is ``is`` and
    hashing works.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes, "state amplitudes", None)
        dims = self.dims if self.dims is not None else (amps.size,)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _check_dims(dims, amps.size))
        _check_normalized(amps[np.newaxis])

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        """The rank-one density matrix |psi><psi| with the same factor layout."""
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(mat, self.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, positive, unit-trace operator with factor dimensions.

    Construction validates Hermiticity (entrywise 1e-10), unit trace (1e-10)
    and eigenvalue positivity (floor -1e-10), so any DensityMatrix in
    circulation is a genuine quantum state up to numerical jitter.  The
    spectrum computed on the way is kept, descending, as ``spectrum``.
    Compared by identity, like ``PureState``.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _as_complex_array(self.matrix, "density matrix", 2)
        spectrum = _hermitian_spectrum(mat)
        dims = self.dims if self.dims is not None else (mat.shape[0],)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", _check_dims(dims, mat.shape[0]))
        _check_residual(abs(np.trace(mat) - 1.0), TRACE_ATOL, "density matrix trace is not 1")
        _check_residual(-spectrum[-1], -EIGENVALUE_FLOOR, "density matrix has negative eigenvalue")
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_state(state, kind: type, name: str) -> None:
    """The one object-type check, run first by every public slot that takes one of the
    package's classes (``kind``): anything else raises ValueError "<name> must be a <kind>"."""
    if not isinstance(state, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(state).__name__}")


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, ``a`` the slower-varying (leftmost) factor; NaN, inf, overflow
    and a product of more than MAX_DIMENSION**2 entries raise, the last before any
    entry of it is allocated."""
    a = _check_finite(_numbers(a, "factor a", None, "iufc"), "factor a")
    b = _check_finite(_numbers(b, "factor b", None, "iufc"), "factor b")
    if a.size * b.size > MAX_DIMENSION**2:  # one 1024 x 1024 matrix, 16 MB if complex
        raise ValueError(
            f"tensor product has {a.size * b.size} entries, above the cap of {MAX_DIMENSION**2}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: refused, no warning first
        return _check_finite(np.kron(a, b), "tensor product")


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in descending order.

    Args:
        m: square complex matrix, Hermitian within ``HERMITIAN_ATOL`` entrywise.

    Returns:
        Real eigenvalues, largest first.

    Raises:
        ValueError: if ``m`` is not a finite square matrix, Hermitian within tolerance.
    """
    return _hermitian_spectrum(_as_complex_array(m, "matrix", 2))


def _hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """``hermitian_eigenvalues`` of a matrix that ``_as_complex_array`` already checked."""
    _check_residual(np.max(np.abs(m - m.conj().T)), HERMITIAN_ATOL, "matrix is not Hermitian")
    return np.linalg.eigvalsh(m)[::-1].copy()


def clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Condition an eigenvalue vector, or a stack of them along the last axis, for
    use as probability spectra.

    Values in ``[EIGENVALUE_FLOOR, 0)`` are numerical jitter and are clamped to
    0, after which each spectrum is renormalized to sum to 1.  Values below the
    floor indicate genuine non-positivity and raise, as do NaN, infinities and overflows.
    """
    vals = _numbers(values, "spectrum", None, "iuf").astype(np.float64, copy=False)
    _check_finite(vals, "spectrum")
    if vals.size:
        _check_residual(-vals.min(), -EIGENVALUE_FLOOR, "negative eigenvalue below the clamp floor")
    clamped = np.where(vals < 0.0, 0.0, vals)
    with np.errstate(over="ignore"):  # overflow: refused, no warning first
        total = _check_finite(clamped.sum(axis=-1, keepdims=True), "spectrum sum")
    if not total.min(initial=math.inf) > 0.0:  # every row
        raise ValueError("spectrum sums to zero after clamping")
    return clamped / total


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over the kept factors, in their original order.

    Args:
        rho: state over one or more tensor factors.
        keep: indices of the factors to retain (a set; order is ignored).

    Returns:
        DensityMatrix over the kept factors; the trace is preserved exactly
        up to floating point.

    Raises:
        ValueError: "bad subsystem index" for out-of-range/duplicate indices.
    """
    _check_state(rho, DensityMatrix, "rho")
    dims = rho.dims
    n = len(dims)
    kept = tuple(sorted(_check_indices(keep, n)))
    if len(kept) == n:
        return rho
    tens = rho.matrix.reshape(dims + dims)
    row_labels = list(range(n))
    col_labels = [n + i if i in kept else i for i in range(n)]
    out_labels = [i for i in kept] + [n + i for i in kept]
    reduced = np.einsum(tens, row_labels + col_labels, out_labels)
    d_keep = math.prod(dims[i] for i in kept)
    return DensityMatrix(reduced.reshape(d_keep, d_keep), tuple(dims[i] for i in kept))


def _one_row(psi: PureState, keep: Iterable[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """``psi``, checked a PureState, as a one-row stack for the stacked routines, and
    ``keep`` checked and sorted."""
    _check_state(psi, PureState, "psi")
    return psi.amplitudes.reshape(1, *psi.dims), tuple(sorted(_check_indices(keep, len(psi.dims))))


def _split_rows(amps: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Each row ``amps[n]`` of a stack of pure states as a (kept, rest) matrix."""
    n, dims = amps.shape[0], amps.shape[1:]
    rest = tuple(i for i in range(len(dims)) if i not in keep)
    sizes = (math.prod(dims[i] for i in part) for part in (keep, rest))
    return amps.transpose(0, *(1 + i for i in keep + rest)).reshape(n, *sizes)


def _schmidt_spectra(amps: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """The spectrum of each row's marginal over the factors ``keep`` of ``amps[n]``.

    The marginal over ``keep`` and the marginal over its complement share their
    nonzero eigenvalues, so one stacked ``eigvalsh`` runs on the Gram matrices
    of the smaller side.  Rows descending, not yet clamped or renormalized.
    """
    mat = _split_rows(amps, keep)
    if mat.shape[1] > mat.shape[2]:
        mat = mat.conj().swapaxes(1, 2)  # so the Gram matrix is M^dag M
    return np.linalg.eigvalsh(mat @ mat.conj().swapaxes(1, 2))[:, ::-1]


def pure_marginal(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of a pure state over the kept factors.

    Cheaper than forming the full projector: the state is reshaped to a
    (kept, rest) matrix M and the marginal is M M^dagger.
    """
    row, kept = _one_row(psi, keep)
    mat = _split_rows(row, kept)[0]
    return DensityMatrix(mat @ mat.conj().T, tuple(psi.dims[i] for i in kept))


def pure_subsystem_spectrum(psi: PureState, keep: Iterable[int]) -> np.ndarray:
    """Nonzero-padded spectrum of a pure state's marginal over ``keep``.

    The one-row call of ``_schmidt_spectra``.  Returned descending; not yet
    clamped/renormalized.
    """
    return _schmidt_spectra(*_one_row(psi, keep))[0]


def _check_unitary(u: np.ndarray) -> np.ndarray:
    """``u`` as a read-only complex copy, checked square and unitary within UNITARY_ATOL:
    U U^dag = I, the ``_check_isometry`` of U^dag as a one-row stack, or "matrix is not
    unitary"."""
    u = _as_complex_array(u, "unitary", 2)
    _check_isometry(u.conj().T[np.newaxis], "matrix is not unitary")
    return u


def _check_isometry(v: np.ndarray, what: str) -> None:
    """The one orthonormality check: raise ValueError "<what> (residual ...)" unless
    every matrix of an (N, a, b) complex stack has orthonormal columns, V^dag V = I
    within UNITARY_ATOL; NaN fails.  A unitary, a trace-preserving Kraus set and a
    dilation's drawn columns are all such a V.  It reads and copies nothing; callers
    that refuse a non-finite entry as "non-finite" check that first."""
    resid = np.max(np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(v.shape[2])), initial=0.0)
    _check_residual(resid, UNITARY_ATOL, what)


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constant before each of n hash steps and after the last, as a
    read-only (n + 1, 1) uint32 column: init, init * mult, ... mod 2**32."""
    chain = [init]
    for _ in range(n):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    chain = np.array(chain, dtype=np.uint32)[:, np.newaxis]
    chain.setflags(write=False)
    return chain


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), in 32-bit words:
# the hash constants of the 16 steps that mix the entropy into a 4-word pool and
# of the 8 that read the state words out of it, and the pool mixer's multipliers.
_MIX_CHAIN = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_OUT_CHAIN = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1


def _hashmix(words: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step on each row of ``words`` (one row broadcasts), row k
    taking the k-th step of ``chain``: xor the constant before it, multiply by the
    one after it, fold the high half into the low."""
    words = (words ^ chain[:-1]) * chain[1:]
    return words ^ words >> 16


def _seed_states(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every seed s in
    [0, 2**64), as an (N, 4) uint64 array, in uint32 arithmetic on all seeds at once.

    Each seed fills two entropy words, low then high; SeedSequence fills the missing
    words of its 4-word pool with zeros, so a seed below 2**32 hashes as one word."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[:2] = seeds & 0xFFFFFFFF, seeds >> 32
    pool = _hashmix(pool, _MIX_CHAIN[:5])
    for src in range(4):  # each word hashed into the other three, in numpy's order
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[src], _MIX_CHAIN[4 + 3 * src : 8 + 3 * src])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    words = _hashmix(pool[[0, 1, 2, 3] * 2], _OUT_CHAIN).astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).T


def _random_unitaries(dim: int, seeds, columns: int | None = None) -> np.ndarray:
    """``random_unitary(dim, seed)`` at a checked dim, every seed below 2**64, or its first
    ``columns`` columns: an (N, dim, columns) stack from one stacked QR and phase
    fix, all ``dim`` columns by default.  Each seed's ``default_rng`` stream fills
    its real parts, then its imaginary parts, with one ``standard_normal`` call.
    The streams come from one PCG64 built per call, set for each seed to the state
    that seeding it gives: the seed's ``_seed_states`` words, read as 128-bit s and
    i, give inc = 2 i + 1 and state = (inc + s) * M + inc mod 2**128, M being
    ``_PCG_MULT``.  QR's first k columns and R-diagonal phases depend only on the
    first k Gaussian columns, so only those are factored; on numpy's LAPACK they
    come out bit for bit as the leading columns of the full unitary.
    """
    parts = np.empty((len(seeds), 2, dim, dim))
    bits = np.random.PCG64(0)  # its state is replaced before each draw
    seeded = bits.state  # as after seeding: no buffered 32-bit word
    normal = np.random.Generator(bits).standard_normal
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(parts, _seed_states(seeds).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bits.state = {**seeded, "state": {"state": state, "inc": inc}}
        normal(out=row)
    parts = parts[..., :columns]  # all dim columns when columns is None
    q, r = np.linalg.qr((parts[:, 0] + 1j * parts[:, 1]) / math.sqrt(2.0))
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, np.newaxis, :]


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-like random unitary from a QR-orthonormalized Gaussian.

    Deterministic per seed; the R-diagonal phases are divided out so the
    distribution does not depend on the QR sign convention.  The one-row call
    of ``_random_unitaries``; ``seed`` must be an integer in [0, 2**64).
    """
    dim = _count(dim, "dimension", 1, MAX_DIMENSION)
    return _random_unitaries(dim, (_count(seed, "seed", 0, 2**64 - 1),))[0]


def basis_state(dim: int, index: int, dims: tuple[int, ...] | None = None) -> PureState:
    """Computational basis vector |index> of the given dimension."""
    dim = _count(dim, "dimension", 1, MAX_DIMENSION)
    index = _count(index, "basis index", 0, dim - 1)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(amps, dims if dims is not None else (dim,))
