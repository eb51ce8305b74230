"""Dense linear algebra for multipartite density matrices.

States are complex Hermitian PSD trace-one matrices tagged with a layout of
local dimensions.  Subsystem ordering is row-major: the first subsystem is
the slowest Kronecker index.  All entropic quantities are returned in bits.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from math import prod

import numpy as np

# Validation tolerances (double precision, total dimension <= ~64).
TAU_HERM = 1e-10   # max |M - M^dag| entry
TAU_PSD = 1e-10    # eigenvalue floor before clipping
TAU_TR = 1e-10     # trace deviation
TAU_SUPP = 1e-10   # eigenvalues below this count as kernel
TAU_NUM = 1e-9     # general numeric slack

_LOG2 = np.log(2.0)


class StateError(ValueError):
    """Raised when a state or distribution violates its invariants."""


class StateParseError(StateError):
    """Raised when a state record is not an object with `dims` and `matrix`,
    or its entries are not numbers of the right form."""


def _complex_entries(entries, error: type[ValueError]) -> np.ndarray:
    """Complex vector from a JSON list of [re, im] number pairs.

    Anything else (a bare number, a short pair, strings) raises `error`,
    never a bare ValueError or TypeError.
    """
    try:
        return np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"entries must be [re, im] pairs of numbers: {exc}") from exc


def _operator_stack(ops, error: type[ValueError],
                    square: bool = False) -> np.ndarray:
    """Read-only, C-contiguous complex (m, rows, cols) copy of a family of
    operators, given as a sequence of equal-shape matrices or as one stack.

    An empty, ragged, non-numeric or non-finite family, one that is not a
    stack of nonempty matrices, or with `square` one of non-square
    matrices, raises `error`.
    """
    try:
        arr = np.asarray(ops)
    except ValueError:  # ragged: numpy >= 1.24 refuses to build it
        arr = None
    if arr is None or arr.dtype.kind not in "biufc":
        raise error("operators must be numeric matrices of one shape")
    if arr.ndim != 3 or not arr.size:
        raise error(f"operators must be a nonempty stack of nonempty "
                    f"matrices, got shape {arr.shape}")
    if square and arr.shape[1] != arr.shape[2]:
        raise error(
            f"operators must be square matrices, got shape {arr.shape[1:]}")
    arr = arr.astype(complex, order="C")
    if not np.isfinite(arr).all():
        raise error("operators have non-finite entries")
    arr.flags.writeable = False
    return arr


def _pair_entries(m) -> list:
    """JSON list of [re, im] number pairs of an array's entries, row-major:
    what `_complex_entries` reads."""
    return [[float(z.real), float(z.imag)] for z in np.ravel(m)]


def _int_tuple(values, error: type[ValueError]) -> tuple[int, ...]:
    """Integers from a sequence (a JSON list, say); floats, strings and
    non-sequences raise `error`."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError as exc:
        raise error(f"expected a list of integers, got {values!r}") from exc


def _check_side(side) -> None:
    """Raise `StateError` unless `side` names a party of a bipartite state:
    0 or 1."""
    if side not in (0, 1):
        raise StateError(f"side must be 0 or 1, got {side!r}")


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local Hilbert-space dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _int_tuple(self.dims, StateError)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise StateError(f"every local dimension must be >= 1, got {dims}")

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def restricted(self, keep: tuple[int, ...]) -> "SubsystemLayout":
        return SubsystemLayout(tuple(self.dims[i] for i in keep))


def _as_layout(layout) -> SubsystemLayout:
    if isinstance(layout, SubsystemLayout):
        return layout
    return SubsystemLayout(tuple(layout))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-one matrix with a subsystem layout."""

    layout: SubsystemLayout
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        layout = _as_layout(self.layout)
        object.__setattr__(self, "layout", layout)
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != layout.dim:
            raise StateError(
                f"matrix dimension {m.shape[0]} does not match layout "
                f"product {layout.dim}"
            )
        if not np.isfinite(m).all():
            raise StateError("matrix has non-finite entries")
        if np.abs(m - m.conj().T).max() > TAU_HERM:
            raise StateError("matrix is not Hermitian within tolerance")
        tr = m.trace().real
        if abs(tr - 1.0) > TAU_TR:
            raise StateError(f"trace is {tr}, not 1 within tolerance")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -TAU_PSD:
            raise StateError(f"matrix has negative eigenvalue {evals.min()}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def dim(self) -> int:
        return self.layout.dim

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def to_json_dict(self) -> dict:
        return {"dims": list(self.dims), "matrix": _pair_entries(self.matrix)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        try:
            dims, entries = data["dims"], data["matrix"]
        except (KeyError, TypeError) as exc:
            raise StateParseError(f"malformed state record: {exc}") from exc
        layout = SubsystemLayout(_int_tuple(dims, StateParseError))
        flat = _complex_entries(entries, StateParseError)
        d = layout.dim
        if flat.size != d * d:
            raise StateError(
                f"expected {d * d} matrix entries for dims {layout.dims}, "
                f"got {flat.size}"
            )
        return cls(layout, flat.reshape(d, d))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "DensityMatrix":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def pure_state(psi, dims) -> DensityMatrix:
    """Density matrix |psi><psi| of a normalized state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(_as_layout(dims), np.outer(v, v.conj()))


def maximally_mixed(dims) -> DensityMatrix:
    layout = _as_layout(dims)
    d = layout.dim
    return DensityMatrix(layout, np.eye(d) / d)


def ket(i: int, d: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def bell_phi_plus() -> DensityMatrix:
    v = (np.kron(ket(0, 2), ket(0, 2)) + np.kron(ket(1, 2), ket(1, 2))) / np.sqrt(2)
    return pure_state(v, (2, 2))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; the layout is the concatenation of both layouts."""
    return DensityMatrix(SubsystemLayout(a.dims + b.dims),
                         np.kron(a.matrix, b.matrix))


def _ptrace_array(mat: np.ndarray, dims: tuple[int, ...],
                  keep: tuple[int, ...]) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(dims + dims)
    # Trace out dropped subsystems from the back so axis indices stay valid.
    dropped = sorted(set(range(n)) - set(keep), reverse=True)
    n_cur = n
    for pos in dropped:
        t = np.trace(t, axis1=pos, axis2=pos + n_cur)
        n_cur -= 1
    d_keep = prod(dims[i] for i in keep)
    return t.reshape(d_keep, d_keep)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce to the subsystems in ``keep`` (order preserved as given)."""
    keep = tuple(keep)
    n = rho.layout.n_subsystems
    if not keep:
        raise StateError("keep set must be nonempty")
    if any(p < 0 or p >= n for p in keep):
        raise StateError(f"subsystem position out of range: {keep}")
    if len(set(keep)) != len(keep):
        raise StateError(f"duplicate subsystem position in {keep}")
    if sorted(keep) != list(keep):
        # Reduce first, then reorder to the requested order.
        reduced = partial_trace(rho, tuple(sorted(keep)))
        order = [sorted(keep).index(p) for p in keep]
        return permute_subsystems(reduced, order)
    out = _ptrace_array(rho.matrix, rho.dims, keep)
    return DensityMatrix(rho.layout.restricted(keep), out)


def permute_subsystems(rho: DensityMatrix, perm) -> DensityMatrix:
    """Reorder subsystems: output position k holds input subsystem perm[k]."""
    perm = tuple(perm)
    n = rho.layout.n_subsystems
    if sorted(perm) != list(range(n)):
        raise StateError(f"invalid permutation {perm} for {n} subsystems")
    dims = rho.dims
    return DensityMatrix(SubsystemLayout(tuple(dims[p] for p in perm)),
                         _permuted_matrix(rho.matrix, dims, perm))


def _permuted_matrix(mat: np.ndarray, dims: tuple[int, ...],
                     perm: tuple[int, ...]) -> np.ndarray:
    """The matrix of `permute_subsystems`, unvalidated: `mat` of a state of
    local dimensions `dims` with output position k holding subsystem
    perm[k]."""
    n = len(dims)
    axes = perm + tuple(p + n for p in perm)
    return np.transpose(mat.reshape(dims + dims), axes).reshape(mat.shape)


def partial_transpose(rho: DensityMatrix, positions) -> np.ndarray:
    """Transpose the given subsystems; returns a bare matrix (may be non-PSD)."""
    positions = set(positions)
    n = rho.layout.n_subsystems
    dims = rho.dims
    t = rho.matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in positions:
        axes[p], axes[p + n] = axes[p + n], axes[p]
    return np.transpose(t, axes).reshape(rho.dim, rho.dim)


def _clipped_spectrum(evals: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-TAU_PSD, 0) to zero and renormalize."""
    if evals.min() < -TAU_PSD:
        raise StateError(f"negative eigenvalue {evals.min()} beyond tolerance")
    lam = np.clip(evals, 0.0, None)
    return lam / lam.sum()


def shannon_bits(p) -> float:
    """Shannon entropy in bits; zero entries contribute nothing.

    Adding +0.0 turns the -0.0 of a single unit weight or an empty support
    into 0.0.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy -sum(lam log2 lam), clipped to be >= 0."""
    lam = _clipped_spectrum(rho.eigenvalues())
    return max(shannon_bits(lam), 0.0)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (log2 rho - log2 sigma) on supports; +inf on support violation."""
    if rho.dim != sigma.dim:
        raise StateError("relative entropy requires equal dimensions")
    s_evals, s_vecs = np.linalg.eigh(sigma.matrix)
    kernel = s_evals <= TAU_SUPP
    if kernel.any():
        pk = s_vecs[:, kernel]
        mass = np.einsum("ik,ij,jk->", pk.conj(), rho.matrix, pk).real
        if mass > TAU_SUPP:
            return float("inf")
    r_evals, r_vecs = np.linalg.eigh(rho.matrix)
    r_lam = np.clip(r_evals, 0.0, None)
    nz = r_lam > TAU_SUPP
    tr_rho_log_rho = float((r_lam[nz] * np.log2(r_lam[nz])).sum())
    # <v_k| rho |v_k> for sigma's support eigenvectors.
    supp = ~kernel
    vs = s_vecs[:, supp]
    diag = np.einsum("ik,ij,jk->k", vs.conj(), rho.matrix, vs).real
    tr_rho_log_sigma = float((diag * np.log2(s_evals[supp])).sum())
    return tr_rho_log_rho - tr_rho_log_sigma


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    if rho.dim != sigma.dim:
        raise StateError("trace distance requires equal dimensions")
    evals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(evals).sum())


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(mat)
    root = np.sqrt(np.clip(evals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    if rho.dim != sigma.dim:
        raise StateError("fidelity requires equal dimensions")
    sr = _psd_sqrt(rho.matrix)
    inner = sr @ sigma.matrix @ sr
    evals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    f = float(np.sqrt(evals).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def _distribution(p: np.ndarray, what: str) -> np.ndarray:
    """Read-only copy of the probabilities `p` with tiny negative entries
    clipped to zero.  Empty or non-finite input, a negative entry beyond
    TAU_PSD or a sum off 1 by more than TAU_TR raises `StateError`."""
    if not p.size:
        raise StateError(f"{what} array is empty")
    if not np.isfinite(p).all():
        raise StateError(f"{what} array has non-finite entries")
    if p.min() < -TAU_PSD:
        raise StateError(f"negative {what} {p.min()}")
    if abs(p.sum() - 1.0) > TAU_TR:
        raise StateError(f"{what} values sum to {p.sum()}, not 1")
    p = np.clip(p, 0.0, None)
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class ProbVector:
    """Probability distribution; tiny negative entries are clipped to zero."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        object.__setattr__(self, "p", _distribution(p, "probability"))

    def entropy_bits(self) -> float:
        return shannon_bits(self.p)


@dataclass(frozen=True)
class ClassicalJoint:
    """Nonnegative joint probability tensor, one axis per measured party."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", _distribution(p, "joint probability"))

    def marginal(self, axis: int) -> ProbVector:
        axes = tuple(i for i in range(self.p.ndim) if i != axis)
        return ProbVector(self.p.sum(axis=axes))

    def entropy_bits(self) -> float:
        return shannon_bits(self.p)


def bits_to_nats(x: float) -> float:
    return x * _LOG2
