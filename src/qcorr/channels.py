"""CPTP maps as Kraus families, measurement maps, and Petz recovery.

A POVM and a channel each hold their operators as one read-only complex
array, validated once at construction: `Povm.elements` has shape (n, d, d)
and `KrausChannel.kraus` shape (r, d_out, d_in).  The maps below act on the
whole stack at once; indexing, iteration and `len` read it like a tuple.

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
    _operator_stack,
    _pair_entries,
)


class ChannelError(ValueError):
    """Raised for invalid channels, POVMs, or dimension mismatches."""


class ChannelParseError(ChannelError):
    """Raised when a channel record is not an object with `d_in`, `d_out`
    and `kraus`, or its entries are not numbers of the right form."""


@dataclass(frozen=True, eq=False)
class Povm:
    """PSD operators summing to the identity.

    `elements` is given as a sequence of equal square matrices or as one
    stack, and held as a read-only complex (n, d, d) array whose entry i is
    outcome i's operator.  A POVM compares and hashes by identity, as an
    array has no single truth value to compare by.
    """

    elements: np.ndarray

    def __post_init__(self):
        elems = _operator_stack(self.elements, ChannelError, square=True)
        d = elems.shape[1]
        if np.abs(elems - elems.conj().swapaxes(-1, -2)).max() > TAU_NUM:
            raise ChannelError("POVM element is not Hermitian")
        if np.linalg.eigvalsh(elems).min() < -TAU_PSD:
            raise ChannelError("POVM element is not PSD")
        if np.abs(elems.sum(0) - np.eye(d)).max() > TAU_NUM:
            raise ChannelError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def outcome_count(self) -> int:
        return len(self.elements)


def projective_basis_povm(basis: np.ndarray) -> Povm:
    """Rank-1 projective POVM onto the columns of a unitary."""
    d = basis.shape[0]
    if np.abs(basis.conj().T @ basis - np.eye(d)).max() > TAU_NUM:
        raise ChannelError("basis columns are not orthonormal")
    cols = basis.T
    return Povm(cols[:, :, None] * cols.conj()[:, None, :])


def computational_povm(d: int) -> Povm:
    return projective_basis_povm(np.eye(d, dtype=complex))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive map given by Kraus operators.

    `kraus` is given as a sequence of equal-shape matrices or as one stack,
    and held as a read-only complex (r, d_out, d_in) array whose entry i is
    the i-th Kraus operator.  A channel compares and hashes by identity, as
    a POVM does.

    `check_tp=False` admits completely positive maps that are only trace
    preserving on a subspace (transpose channels, Petz maps for
    rank-deficient references); such maps are flagged `trace_preserving=False`,
    a field computed from the operators and never passed.
    """

    kraus: np.ndarray
    out_dims: tuple[int, ...] | None = None
    check_tp: bool = field(default=True, repr=False)
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        ops = _operator_stack(self.kraus, ChannelError)
        _, d_out, d_in = ops.shape
        comp = (ops.conj().swapaxes(-1, -2) @ ops).sum(0)
        err = np.abs(comp - np.eye(d_in)).max()
        tp = bool(err <= TAU_NUM)
        if self.check_tp and not tp:
            raise ChannelError(
                "Kraus operators violate trace preservation: "
                f"max |sum K^dag K - I| = {err:.3e}")
        out_dims = self.out_dims
        if out_dims is None:
            out_dims = (d_out,)
        else:
            out_dims = _int_tuple(out_dims, ChannelError)
            if any(d < 1 for d in out_dims):
                raise ChannelError(f"out_dims {out_dims} must all be >= 1")
            if prod(out_dims) != d_out:
                raise ChannelError(
                    f"out_dims {out_dims} do not multiply to d_out={d_out}")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "out_dims", out_dims)
        object.__setattr__(self, "trace_preserving", tp)

    @property
    def d_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def d_out(self) -> int:
        return self.kraus.shape[1]

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """Raw action sum_i K_i X K_i^dag on a bare matrix, as one batched
        product over the stack summed over the Kraus index."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.d_in, self.d_in):
            raise ChannelError(
                f"input has shape {x.shape}, channel expects {self.d_in}")
        k = self.kraus
        return (k @ x @ k.conj().swapaxes(-1, -2)).sum(0)

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
        return cls(ops, out_dims=out_dims)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "KrausChannel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(np.eye(d)[None])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel(np.asarray(u)[None])


def isometry_channel(v: np.ndarray, out_dims=None) -> KrausChannel:
    """Channel X -> V X V^dag for an isometry V (V^dag V = I)."""
    return KrausChannel(np.asarray(v)[None], out_dims=out_dims)


def depolarizing_channel(d: int) -> KrausChannel:
    """Fully depolarizing map X -> Tr(X) I/d: Kraus operator (i, j) is
    |i><j| / sqrt(d)."""
    return KrausChannel(np.eye(d * d).reshape(d * d, d, d) / np.sqrt(d))


def measurement_channel(povm: Povm) -> KrausChannel:
    """Quantum-to-classical map X -> sum_i Tr(M_i X) |i><i|.

    Kraus operators sqrt(lam_ik) |i><psi_ik| come from one batched
    eigendecomposition M_i = sum_k lam_ik |psi_ik><psi_ik| of the elements,
    in the order (i, k), over the eigenvalues above TAU_SUPP.
    """
    n = povm.outcome_count
    evals, vecs = np.linalg.eigh(povm.elements)
    keep = evals > TAU_SUPP
    # rows[i, k] = |i><psi_ik|, with the products np.outer takes.
    rows = (np.eye(n, dtype=complex)[:, None, :, None]
            * vecs.conj().swapaxes(-1, -2)[:, :, None, :])
    return KrausChannel(np.sqrt(evals[keep])[:, None, None] * rows[keep])


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
    kraus = ch.kraus[:, None]
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
    return KrausChannel(ch.kraus.conj().swapaxes(-1, -2), check_tp=False)


def compose(ch2: KrausChannel, ch1: KrausChannel) -> KrausChannel:
    """The map ch2 after ch1."""
    if ch1.d_out != ch2.d_in:
        raise ChannelError(
            f"cannot compose: first map outputs {ch1.d_out}, "
            f"second expects {ch2.d_in}")
    ops = (ch2.kraus[:, None] @ ch1.kraus).reshape(-1, ch2.d_out, ch1.d_in)
    return KrausChannel(ops, out_dims=ch2.out_dims,
                        check_tp=ch1.trace_preserving and ch2.trace_preserving)


def tensor_channels(ch_a: KrausChannel, ch_b: KrausChannel) -> KrausChannel:
    # ops[a, b] = kron(K_a, K_b), from np.kron's products of entries.
    ops = (ch_a.kraus[:, None, :, None, :, None]
           * ch_b.kraus[None, :, None, :, None, :])
    ops = ops.reshape(-1, ch_a.d_out * ch_b.d_out, ch_a.d_in * ch_b.d_in)
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
    ops = sqrt_sigma @ ch.kraus.conj().swapaxes(-1, -2) @ inv_sqrt
    in_dims = sigma.dims if sigma.layout.n_subsystems > 1 else None
    return KrausChannel(ops, out_dims=in_dims, check_tp=False)


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| (x) ch[|i><j|].

    Entry ((i, a), (j, b)) is sum_r K_r[a, i] conj(K_r[b, j]): one product
    of the Kraus stack, read as rows r over (i, a), with its conjugate.
    """
    rows = ch.kraus.swapaxes(1, 2).reshape(len(ch.kraus), -1)
    return rows.T @ rows.conj()


def kraus_from_choi(choi: np.ndarray, d_in: int, d_out: int,
                    out_dims=None) -> KrausChannel:
    """Extract Kraus operators from a Choi matrix (PSD up to TAU_NUM)."""
    evals, vecs = np.linalg.eigh(choi)
    if evals.min() < -TAU_NUM:
        raise ChannelError(f"Choi matrix is not PSD: min eigenvalue {evals.min()}")
    keep = evals > TAU_SUPP
    ops = vecs.T[keep].reshape(-1, d_in, d_out).swapaxes(-1, -2)
    return KrausChannel(np.sqrt(evals[keep])[:, None, None] * ops,
                        out_dims=out_dims, check_tp=False)
