"""CPTP maps as Kraus families, measurement maps, and Petz recovery.

Channels may change dimension (d_in -> d_out) and may declare how their
output splits into subsystems (`out_dims`), which is how broadcast maps
A -> AA' keep layouts consistent.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .qstate import (
    TAU_NUM,
    TAU_PSD,
    TAU_SUPP,
    TAU_TR,
    DensityMatrix,
    SubsystemLayout,
    _complex_entries,
    _int_tuple,
    _pair_entries,
    ket,
)


class ChannelError(ValueError):
    """Raised for invalid channels, POVMs, or dimension mismatches."""


class ChannelParseError(ChannelError):
    """Raised when a channel record is not an object with `d_in`, `d_out`
    and `kraus`, or its entries are not numbers of the right form."""


@dataclass(frozen=True)
class Povm:
    """Finite list of PSD operators summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.asarray(m, dtype=complex) for m in self.elements)
        if not elems:
            raise ChannelError("POVM needs at least one element")
        d = elems[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for m in elems:
            if m.shape != (d, d):
                raise ChannelError("POVM elements must share one dimension")
            if not np.isfinite(m).all():
                raise ChannelError("POVM element has non-finite entries")
            if np.abs(m - m.conj().T).max() > TAU_NUM:
                raise ChannelError("POVM element is not Hermitian")
            if np.linalg.eigvalsh(m).min() < -TAU_PSD:
                raise ChannelError("POVM element is not PSD")
            total += m
        if np.abs(total - np.eye(d)).max() > TAU_NUM:
            raise ChannelError("POVM elements do not sum to the identity")
        frozen = []
        for m in elems:
            m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "elements", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def outcome_count(self) -> int:
        return len(self.elements)

    def as_array(self) -> np.ndarray:
        return np.ascontiguousarray(np.stack(self.elements))


def projective_basis_povm(basis: np.ndarray) -> Povm:
    """Rank-1 projective POVM onto the columns of a unitary."""
    d = basis.shape[0]
    if np.abs(basis.conj().T @ basis - np.eye(d)).max() > TAU_NUM:
        raise ChannelError("basis columns are not orthonormal")
    return Povm(tuple(np.outer(basis[:, i], basis[:, i].conj())
                      for i in range(d)))


def computational_povm(d: int) -> Povm:
    return projective_basis_povm(np.eye(d, dtype=complex))


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by Kraus operators.

    `check_tp=False` admits completely positive maps that are only trace
    preserving on a subspace (transpose channels, Petz maps for
    rank-deficient references); such maps are flagged `trace_preserving=False`,
    a field computed from the operators and never passed.
    """

    kraus: tuple[np.ndarray, ...]
    out_dims: tuple[int, ...] | None = None
    check_tp: bool = field(default=True, repr=False)
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ChannelError("channel needs at least one Kraus operator")
        d_out, d_in = ops[0].shape
        for k in ops:
            if k.shape != (d_out, d_in):
                raise ChannelError("Kraus operators must share one shape")
            if not np.isfinite(k).all():
                raise ChannelError("Kraus operator has non-finite entries")
        comp = sum(k.conj().T @ k for k in ops)
        tp = bool(np.abs(comp - np.eye(d_in)).max() <= TAU_NUM)
        if self.check_tp and not tp:
            raise ChannelError(
                "Kraus operators violate trace preservation: "
                f"max |sum K^dag K - I| = {np.abs(comp - np.eye(d_in)).max():.3e}"
            )
        out_dims = self.out_dims
        if out_dims is None:
            out_dims = (d_out,)
        else:
            out_dims = tuple(int(d) for d in out_dims)
            if any(d < 1 for d in out_dims):
                raise ChannelError(f"out_dims {out_dims} must all be >= 1")
            if prod(out_dims) != d_out:
                raise ChannelError(
                    f"out_dims {out_dims} do not multiply to d_out={d_out}")
        frozen = []
        for k in ops:
            k = k.copy()
            k.flags.writeable = False
            frozen.append(k)
        object.__setattr__(self, "kraus", tuple(frozen))
        object.__setattr__(self, "out_dims", out_dims)
        object.__setattr__(self, "trace_preserving", tp)

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """Raw action sum_i K_i X K_i^dag on a bare matrix."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.d_in, self.d_in):
            raise ChannelError(
                f"input has shape {x.shape}, channel expects {self.d_in}")
        out = np.zeros((self.d_out, self.d_out), dtype=complex)
        for k in self.kraus:
            out += k @ x @ k.conj().T
        return out

    def to_json_dict(self) -> dict:
        return {
            "d_in": self.d_in,
            "d_out": self.d_out,
            "out_dims": list(self.out_dims),
            "kraus": [_pair_entries(k) for k in self.kraus],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "KrausChannel":
        try:
            d_in, d_out = _int_tuple((data["d_in"], data["d_out"]),
                                     ChannelParseError)
            out_dims = _int_tuple(data.get("out_dims", (d_out,)),
                                  ChannelParseError)
            raw = data["kraus"]
        except (KeyError, TypeError) as exc:
            raise ChannelParseError(f"malformed channel record: {exc}") from exc
        if min(d_in, d_out) < 1:
            raise ChannelError(f"channel dimensions must be >= 1, got {d_in}, {d_out}")
        if not isinstance(raw, list):
            raise ChannelParseError(f"kraus must be a list of operators, got {raw!r}")
        ops = []
        for entry in raw:
            flat = _complex_entries(entry, ChannelParseError)
            if flat.size != d_in * d_out:
                raise ChannelError("Kraus operator has wrong entry count")
            ops.append(flat.reshape(d_out, d_in))
        return cls(tuple(ops), out_dims=out_dims)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "KrausChannel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    return KrausChannel((u,))


def isometry_channel(v: np.ndarray, out_dims=None) -> KrausChannel:
    """Channel X -> V X V^dag for an isometry V (V^dag V = I)."""
    return KrausChannel((np.asarray(v, dtype=complex),), out_dims=out_dims)


def depolarizing_channel(d: int) -> KrausChannel:
    """Fully depolarizing map X -> Tr(X) I/d."""
    ops = tuple(
        np.outer(ket(i, d), ket(j, d).conj()) / np.sqrt(d)
        for i in range(d) for j in range(d)
    )
    return KrausChannel(ops)


def measurement_channel(povm: Povm) -> KrausChannel:
    """Quantum-to-classical map X -> sum_i Tr(M_i X) |i><i|.

    Kraus operators |i><psi_ik| come from the eigendecompositions
    M_i = sum_k |psi_ik><psi_ik|.
    """
    n = povm.outcome_count
    ops = []
    for i, m in enumerate(povm.elements):
        evals, vecs = np.linalg.eigh(m)
        for lam, v in zip(evals, vecs.T):
            if lam > TAU_SUPP:
                ops.append(np.sqrt(lam) * np.outer(ket(i, n), v.conj()))
    return KrausChannel(tuple(ops))


def _output_state(ch: KrausChannel, out: np.ndarray,
                  out_dims: tuple[int, ...]) -> DensityMatrix:
    """The validated output of `ch`, renormalized with a warning when a
    non-trace-preserving map lets its trace drift."""
    if not ch.trace_preserving:
        tr = out.trace().real
        if abs(tr - 1.0) > TAU_TR:
            warnings.warn(
                f"non-trace-preserving map: output trace drifted by "
                f"{tr - 1.0:.3e}; renormalizing", RuntimeWarning, stacklevel=3)
            out = out / tr
    return DensityMatrix(SubsystemLayout(out_dims), out)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if ch.d_in != rho.dim:
        raise ChannelError(
            f"channel expects dimension {ch.d_in}, state has {rho.dim}")
    return _output_state(ch, ch.apply_matrix(rho.matrix), ch.out_dims)


def _local_split(ch: KrausChannel, position: int,
                 dims: tuple[int, ...]) -> tuple[int, int]:
    """Dimensions (left, right) of the subsystems around `position`, after
    checking that `ch` can act there."""
    if position < 0 or position >= len(dims):
        raise ChannelError(f"invalid subsystem position {position}")
    if ch.d_in != dims[position]:
        raise ChannelError(
            f"channel expects dimension {ch.d_in} at position {position}, "
            f"layout has {dims[position]}")
    return prod(dims[:position]), prod(dims[position + 1:])


def apply_local(ch: KrausChannel, position: int,
                rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to one subsystem; the layout swaps in ch.out_dims.

    Equal, up to rounding, to applying ch (x) id with full-size Kronecker
    Kraus operators (the tests' reference, `lift_local` in
    `tests/conftest.py`), without building that channel: the target
    party's row and column axes of the state move last, one batched
    product K y K^dag runs over the stacked Kraus operators and every
    block of the other parties, and one sum over the Kraus index closes
    it.  Only the returned state is validated.
    """
    dims = rho.dims
    d_left, d_right = _local_split(ch, position, dims)
    d_in, d_out = ch.d_in, ch.d_out
    kraus = np.array(ch.kraus)[:, None]
    # y[l, r, l', r'] is the (d_in, d_in) block of the target party.
    y = rho.matrix.reshape(d_left, d_in, d_right, d_left, d_in, d_right)
    y = y.transpose(0, 2, 3, 5, 1, 4).reshape(-1, d_in, d_in)
    out = (kraus @ y @ kraus.conj().swapaxes(-1, -2)).sum(0)
    out = out.reshape(d_left, d_right, d_left, d_right, d_out, d_out)
    d = d_left * d_out * d_right
    out = out.transpose(0, 4, 1, 2, 5, 3).reshape(d, d)
    out_dims = dims[:position] + ch.out_dims + dims[position + 1:]
    return _output_state(ch, out, out_dims)


def transpose_channel(ch: KrausChannel) -> KrausChannel:
    """The map Y -> sum_i K_i^dag Y K_i (CP, unital, generally not TP)."""
    ops = tuple(k.conj().T for k in ch.kraus)
    return KrausChannel(ops, out_dims=None, check_tp=False)


def compose(ch2: KrausChannel, ch1: KrausChannel) -> KrausChannel:
    """The map ch2 after ch1."""
    if ch1.d_out != ch2.d_in:
        raise ChannelError(
            f"cannot compose: first map outputs {ch1.d_out}, "
            f"second expects {ch2.d_in}")
    ops = tuple(k2 @ k1 for k2 in ch2.kraus for k1 in ch1.kraus)
    return KrausChannel(ops, out_dims=ch2.out_dims,
                        check_tp=ch1.trace_preserving and ch2.trace_preserving)


def tensor_channels(ch_a: KrausChannel, ch_b: KrausChannel) -> KrausChannel:
    ops = tuple(np.kron(ka, kb) for ka in ch_a.kraus for kb in ch_b.kraus)
    return KrausChannel(ops, out_dims=ch_a.out_dims + ch_b.out_dims,
                        check_tp=ch_a.trace_preserving and ch_b.trace_preserving)


def _psd_power(mat: np.ndarray, power: float) -> np.ndarray:
    """mat^power on the support (eigenvalues <= TAU_SUPP are dropped), as
    one product of the kept eigenvectors scaled by their powered
    eigenvalues with the eigenvectors' adjoint."""
    evals, vecs = np.linalg.eigh(mat)
    keep = evals > TAU_SUPP
    v = vecs[:, keep]
    return (v * evals[keep] ** power) @ v.conj().T


def petz_recovery(ch: KrausChannel, sigma: DensityMatrix) -> KrausChannel:
    """Petz recovery of `ch` with respect to the reference state `sigma`.

    Implements X -> sigma^{1/2} ch^T[(ch[sigma])^{-1/2} X (ch[sigma])^{-1/2}]
    sigma^{1/2}, which has the closed Kraus form
    A_i = sigma^{1/2} K_i^dag (ch[sigma])^{-1/2}.  Inverse square roots are
    pseudo-inverses on the support of ch[sigma]; the map extends by zero on
    the kernel and is trace preserving only on the support.
    """
    if ch.d_in != sigma.dim:
        raise ChannelError(
            f"reference state dimension {sigma.dim} does not match "
            f"channel input {ch.d_in}")
    out = ch.apply_matrix(sigma.matrix)
    evals = np.linalg.eigvalsh(out)
    if (evals <= TAU_SUPP).any():
        warnings.warn(
            "ch[sigma] is rank deficient; Petz map is trace preserving "
            "only on its support", RuntimeWarning, stacklevel=2)
    inv_sqrt = _psd_power(out, -0.5)
    sqrt_sigma = _psd_power(sigma.matrix, 0.5)
    ops = tuple(sqrt_sigma @ k.conj().T @ inv_sqrt for k in ch.kraus)
    in_dims = sigma.dims if sigma.layout.n_subsystems > 1 else None
    return KrausChannel(ops, out_dims=in_dims, check_tp=False)


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| (x) ch[|i><j|]."""
    d = ch.d_in
    j = np.zeros((d * ch.d_out, d * ch.d_out), dtype=complex)
    for i in range(d):
        for k in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, k] = 1.0
            j += np.kron(e, ch.apply_matrix(e))
    return j


def kraus_from_choi(choi: np.ndarray, d_in: int, d_out: int,
                    out_dims=None) -> KrausChannel:
    """Extract Kraus operators from a Choi matrix (PSD up to TAU_NUM)."""
    evals, vecs = np.linalg.eigh(choi)
    if evals.min() < -TAU_NUM:
        raise ChannelError(f"Choi matrix is not PSD: min eigenvalue {evals.min()}")
    ops = []
    for lam, v in zip(evals, vecs.T):
        if lam > TAU_SUPP:
            ops.append(np.sqrt(lam) * v.reshape(d_in, d_out).T)
    return KrausChannel(tuple(ops), out_dims=out_dims, check_tp=False)
