"""Dense complex linear algebra over small multi-factor Hilbert spaces.

States carry their tensor-factor dimensions with them (e.g. ``dims=(2, 2, 4)``
for a qubit, a reference qubit, and a four-dimensional environment).  The
convention throughout is that the *leftmost* factor is the slowest-varying
index of the flattened vector/matrix, matching ``numpy.kron`` ordering.

Everything here is immutable after construction and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# The package's validation tolerances, all of them.  Every check below passes
# when ``residual <= atol``, so a NaN residual always fails.
HERMITIAN_ATOL = 1e-10  # max |M - M^dag| entry
UNITARY_ATOL = 1e-10  # max |U U^dag - I| entry; also Kraus completeness |sum K^dag K - I|
TRACE_ATOL = 1e-10  # |tr rho - 1|
NORM_ATOL = 1e-12  # ||psi| - 1|
EIGENVALUE_FLOOR = -1e-10  # eigenvalues in [floor, 0) are jitter; below the floor, an error
PROB_SUM_ATOL = 1e-10  # |sum_i p_i - 1| of a probability vector
PURITY_ATOL = 1e-9  # |1 - largest eigenvalue| of a pure-state projector
UNIT_SLACK = 1e-12  # unit-interval values this far outside [0, 1] are rounding dust


def _unit_interval(x, name: str, slack: float = UNIT_SLACK) -> float:
    """``x`` as a float in [0, 1].

    Values at most ``slack`` outside the interval are clamped into it; values
    further out, NaN and +-inf raise ValueError "<name> <x> outside [0, 1]".
    """
    x = float(x)
    if 0.0 < x < 1.0:  # the common case, kept cheap: it runs on every probability
        return x
    if not -slack <= x <= 1.0 + slack:
        raise ValueError(f"{name} {x!r} outside [0, 1]")
    return 0.0 if x <= 0.0 else 1.0


def _check_residual(resid, atol: float, what: str) -> None:
    """Raise ValueError("<what> (residual ...)") unless ``resid <= atol``; NaN fails."""
    resid = float(resid)
    if not resid <= atol:
        raise ValueError(f"{what} (residual {resid:.3e}, tolerance {atol:.0e})")


def _as_complex_array(values, ndim: int) -> np.ndarray:
    """A read-only complex copy of ``values``: a vector or square matrix, all finite."""
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != ndim or len(set(arr.shape)) > 1:
        raise ValueError(f"expected {ndim} axes of equal length, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # every matrix entry point, before any residual
        raise ValueError("array has non-finite (NaN or infinite) entries")
    arr.setflags(write=False)
    return arr


def _check_dims(dims, size: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"bad subsystem dimensions {dims}")
    if math.prod(dims) != size:
        raise ValueError(f"subsystem dimensions {dims} do not multiply to {size}")
    return dims


def _check_indices(indices, n_factors: int) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if not idx or len(set(idx)) != len(idx):
        raise ValueError(f"bad subsystem index set {idx}")
    if any(i < 0 or i >= n_factors for i in idx):
        raise ValueError(f"bad subsystem index in {idx}: state has {n_factors} factors")
    return idx


@dataclass(frozen=True)
class PureState:
    """A normalized state vector together with its tensor-factor dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        amps = _as_complex_array(np.ravel(self.amplitudes), 1)
        dims = self.dims if self.dims is not None else (amps.size,)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _check_dims(dims, amps.size))
        resid = abs(np.linalg.norm(amps) - 1.0)
        _check_residual(resid, NORM_ATOL, "state vector is not normalized")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        """The rank-one density matrix |psi><psi| with the same factor layout."""
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(mat, self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, positive, unit-trace operator with factor dimensions.

    Construction validates Hermiticity (entrywise 1e-10), unit trace (1e-10)
    and eigenvalue positivity (floor -1e-10), so any DensityMatrix in
    circulation is a genuine quantum state up to numerical jitter.  The
    spectrum computed on the way is kept, descending, as ``spectrum``.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=None)  # type: ignore[assignment]
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _as_complex_array(self.matrix, 2)
        spectrum = hermitian_eigenvalues(mat)
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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a`` as the slower-varying (leftmost) factor."""
    return np.kron(np.asarray(a), np.asarray(b))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in descending order.

    Args:
        m: square complex matrix, Hermitian within ``HERMITIAN_ATOL`` entrywise.

    Returns:
        Real eigenvalues, largest first.

    Raises:
        ValueError: if ``m`` is not a finite square matrix, Hermitian within tolerance.
    """
    m = _as_complex_array(m, 2)
    _check_residual(np.max(np.abs(m - m.conj().T)), HERMITIAN_ATOL, "matrix is not Hermitian")
    return np.linalg.eigvalsh(m)[::-1].copy()


def clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Condition an eigenvalue vector for use as a probability spectrum.

    Values in ``[EIGENVALUE_FLOOR, 0)`` are numerical jitter and are clamped to
    0, after which the spectrum is renormalized to sum to 1.  Values below the
    floor indicate genuine non-positivity and raise.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size:
        _check_residual(-vals.min(), -EIGENVALUE_FLOOR, "negative eigenvalue below the clamp floor")
    clamped = np.where(vals < 0.0, 0.0, vals)
    total = float(clamped.sum())
    if not total > 0.0:
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


def _bipartition(psi: PureState, keep: Iterable[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The state as a (kept, rest) matrix, and the kept factors' dimensions in order."""
    n = len(psi.dims)
    kept = tuple(sorted(_check_indices(keep, n)))
    kept_dims = tuple(psi.dims[i] for i in kept)
    rest = [i for i in range(n) if i not in kept]
    mat = psi.amplitudes.reshape(psi.dims).transpose(list(kept) + rest)
    return mat.reshape(math.prod(kept_dims), -1), kept_dims


def pure_marginal(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of a pure state over the kept factors.

    Cheaper than forming the full projector: the state is reshaped to a
    (kept, rest) matrix M and the marginal is M M^dagger.
    """
    mat, kept_dims = _bipartition(psi, keep)
    return DensityMatrix(mat @ mat.conj().T, kept_dims)


def pure_subsystem_spectrum(psi: PureState, keep: Iterable[int]) -> np.ndarray:
    """Nonzero-padded spectrum of a pure state's marginal over ``keep``.

    Exploits the Schmidt decomposition: the marginal over ``keep`` and the
    marginal over its complement share their nonzero eigenvalues, so the Gram
    matrix of the smaller side is diagonalized.  Returned descending; not yet
    clamped/renormalized.
    """
    mat, kept_dims = _bipartition(psi, keep)
    if len(kept_dims) == len(psi.dims):
        return np.array([1.0])
    d_keep, d_rest = mat.shape
    if d_keep <= d_rest:
        gram = mat @ mat.conj().T
    else:
        gram = mat.conj().T @ mat
    return np.linalg.eigvalsh(gram)[::-1].copy()


def _check_unitary(u: np.ndarray) -> np.ndarray:
    """``u`` as a read-only complex copy, checked square and unitary within UNITARY_ATOL."""
    u = _as_complex_array(u, 2)
    resid = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    _check_residual(resid, UNITARY_ATOL, "matrix is not unitary")
    return u


def apply_unitary(u: np.ndarray, psi: PureState, targets: Sequence[int] | None = None) -> PureState:
    """Apply a unitary to a pure state, optionally on a subset of factors.

    Args:
        u: unitary matrix (within 1e-10).  With ``targets`` given, its
            dimension must match the product of the target factor dimensions.
        psi: input state.
        targets: factor indices the unitary acts on, identity elsewhere;
            ``None`` applies ``u`` to the whole space.

    Returns:
        The transformed PureState (norm re-checked within 1e-12).
    """
    u = _check_unitary(u)
    if targets is None:
        if u.shape[0] != psi.dim:
            raise ValueError(
                f"dimension mismatch: unitary is {u.shape[0]}-dim, state is {psi.dim}-dim"
            )
        return PureState(u @ psi.amplitudes, psi.dims)
    dims = psi.dims
    tgt = _check_indices(targets, len(dims))
    d_t = math.prod(dims[i] for i in tgt)
    if u.shape[0] != d_t:
        raise ValueError(
            f"dimension mismatch: unitary is {u.shape[0]}-dim, targets span {d_t}"
        )
    tens = psi.amplitudes.reshape(dims)
    moved = np.moveaxis(tens, tgt, range(len(tgt)))
    shape = moved.shape
    out = (u @ moved.reshape(d_t, -1)).reshape(shape)
    out = np.moveaxis(out, range(len(tgt)), tgt)
    return PureState(out.ravel(), dims)


def promote_unitary(u: np.ndarray, dims: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """Embed a unitary acting on ``targets`` into the full space ``dims``.

    The result acts as ``u`` on the target factors (in the listed order) and
    as the identity on every other factor, with the canonical factor ordering
    of ``dims`` preserved.
    """
    dims = tuple(int(d) for d in dims)
    tgt = _check_indices(targets, len(dims))
    rest = [i for i in range(len(dims)) if i not in tgt]
    cur_order = list(tgt) + rest
    d_rest = math.prod(dims[i] for i in rest) if rest else 1
    big = np.kron(np.asarray(u, dtype=np.complex128), np.eye(d_rest))
    cur_dims = [dims[i] for i in cur_order]
    perm = [cur_order.index(i) for i in range(len(dims))]
    n = len(dims)
    tens = big.reshape(cur_dims + cur_dims)
    axes = perm + [n + p for p in perm]
    full = math.prod(dims)
    return tens.transpose(axes).reshape(full, full)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-like random unitary from a QR-orthonormalized Gaussian.

    Deterministic per seed; the R-diagonal phases are divided out so the
    distribution does not depend on the QR sign convention.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def basis_state(dim: int, index: int, dims: tuple[int, ...] | None = None) -> PureState:
    """Computational basis vector |index> of the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"bad basis index {index} for dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(amps, dims if dims is not None else (dim,))
