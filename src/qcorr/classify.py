"""Structural detection of classical-classical / classical-quantum states.

A bipartite state is classical on side A exactly when its A-conditional
operators (the Hermitian combinations of the blocks <m|_B rho |n>_B) form a
commuting family.  Degenerate marginals are handled uniformly by jointly
diagonalizing that family with Jacobi sweeps (Cardoso and Souloumiac,
"Jacobi angles for simultaneous diagonalization", SIAM J. Matrix Anal.
Appl. 17, 1996); the common eigenbasis is the claimed classical basis and
the verdict is judged by the residual off-diagonal mass of the rotated
state.

The family is one (m, d, d) array throughout: it is gathered from the
state's blocks by array indexing, each Jacobi rotation updates every
member with one matmul, and a pair that is degenerate across the family
(zero surrogate) is left alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qstate import TAU_PSD, DensityMatrix, StateError, partial_transpose

TAU_CLASS = 1e-8


class Kind(Enum):
    CC = "CC"
    CQ = "CQ"
    QC = "QC"
    NEITHER = "neither"


@dataclass(frozen=True)
class ClassicalityVerdict:
    kind: Kind
    basis_A: np.ndarray | None
    basis_B: np.ndarray | None
    residual: float

    def to_dict(self) -> dict:
        def basis_list(b):
            if b is None:
                return None
            return [[float(z.real), float(z.imag)] for z in b.reshape(-1)]
        return {
            "kind": self.kind.value,
            "basis_A": basis_list(self.basis_A),
            "basis_B": basis_list(self.basis_B),
            "residual": self.residual,
        }


def _family_stack(ops) -> np.ndarray:
    """(m, d, d) complex copy of a nonempty family of equal square operators."""
    ops = [np.asarray(o, dtype=complex) for o in ops]
    if not ops:
        raise StateError("operator family is empty")
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise StateError(f"operators must be square matrices, got shape {shape}")
    if any(o.shape != shape for o in ops):
        raise StateError("operators must share one dimension")
    return np.array(ops)


def commute_residual(ops) -> float:
    """Max Frobenius norm of pairwise commutators."""
    ops = _family_stack(ops)
    worst = 0.0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            c = ops[i] @ ops[j] - ops[j] @ ops[i]
            worst = max(worst, float(np.linalg.norm(c)))
    return worst


def joint_diagonalize(ops, tol: float = 1e-14,
                      max_sweeps: int = 100) -> np.ndarray:
    """Unitary J approximately diagonalizing a family of Hermitian matrices.

    Jacobi sweeps over index pairs (p, q); each rotation maximizes the
    diagonal mass of the pair across the whole family (Cardoso-Souloumiac
    update, specialized to Hermitian inputs).  The family is held as one
    (m, d, d) stack: a pair's (m, 3) surrogate rows come from array
    indexing, their outer products are summed over the members in order,
    and one matmul rotates every member.  Sweeps stop when no rotation
    exceeds `tol` or after `max_sweeps`.
    """
    ops = _family_stack(ops)
    m, d, _ = ops.shape
    eye = np.eye(d, dtype=complex)
    u = eye
    if d == 1:
        return u
    h = np.empty((m, 3))
    for _ in range(max_sweeps):
        changed = False
        for p in range(d):
            for q in range(p + 1, d):
                # 3x3 real surrogate built from the (p, q) entries.
                a_pq, a_qp = ops[:, p, q], ops[:, q, p]
                h[:, 0] = ops[:, p, p].real - ops[:, q, q].real
                h[:, 1] = (a_pq + a_qp).real
                h[:, 2] = (1j * (a_qp - a_pq)).real
                # Reduced over the outer axis: summed member by member.
                g = np.add.reduce(h[:, :, None] * h[:, None, :], 0)
                if not g.any():
                    # Degenerate across the family: every rotation of the
                    # pair is optimal, so none is taken.
                    continue
                evals, evecs = np.linalg.eigh(g)
                x, y, z = evecs[:, -1]
                if x < 0:
                    x, y, z = -x, -y, -z
                r = np.sqrt(x * x + y * y + z * z)
                if r <= 0 or y * y + z * z == 0.0:
                    continue
                c = np.sqrt((x + r) / (2 * r))
                s = (y - 1j * z) / np.sqrt(2 * r * (x + r))
                if abs(s) <= tol:
                    continue
                changed = True
                rot = eye.copy()
                rot[p, p] = c
                rot[p, q] = -np.conj(s)
                rot[q, p] = s
                rot[q, q] = c
                ops = rot.conj().T @ ops @ rot
                u = u @ rot
        if not changed:
            break
    return u


@lru_cache(maxsize=None)
def _family_index(d_reg: int):
    """(kind, m, n) index arrays of the conditional family, in member order.

    For each m: the block <m|rho|m> (kind 0), then for each n > m the pair
    t + t^dag (kind 1) and i(t - t^dag) (kind 2) of t = <m|rho|n>.
    """
    idx = []
    for m in range(d_reg):
        idx.append((0, m, m))
        for n in range(m + 1, d_reg):
            idx += [(1, m, n), (2, m, n)]
    return tuple(np.array(col) for col in zip(*idx))


def _conditional_family(rho: DensityMatrix, side: int):
    """Hermitian A-side (side=0) or B-side (side=1) conditional operators,
    as a (members, d, d) stack in `_family_index` order, and d."""
    if rho.layout.n_subsystems != 2:
        raise StateError("classification requires a bipartite layout")
    d_a, d_b = rho.dims
    r = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    if side == 0:
        d_cond, d_reg = d_a, d_b
        blocks = r.transpose(1, 3, 0, 2)  # blocks[m, n] = r[:, m, :, n]
    elif side == 1:
        d_cond, d_reg = d_b, d_a
        blocks = r.transpose(0, 2, 1, 3)  # blocks[m, n] = r[m, :, n, :]
    else:
        raise StateError(f"side must be 0 or 1, got {side}")
    blocks_h = blocks.conj().swapaxes(-1, -2)
    kinds = np.stack([blocks, blocks + blocks_h, 1j * (blocks - blocks_h)])
    return kinds[_family_index(d_reg)], d_cond


def _block_residual(rho: DensityMatrix, basis: np.ndarray, side: int) -> float:
    """Max coherence between distinct basis states of the measured side."""
    d_a, d_b = rho.dims
    if side == 0:
        rot = np.kron(basis, np.eye(d_b, dtype=complex))
    else:
        rot = np.kron(np.eye(d_a, dtype=complex), basis)
    m = rot.conj().T @ rho.matrix @ rot
    r = np.abs(m.reshape(d_a, d_b, d_a, d_b))
    # block_max[i, j]: largest entry of the (i, j) block of the measured side.
    block_max = r.max(axis=(1, 3)) if side == 0 else r.max(axis=(0, 2))
    off = ~np.eye(block_max.shape[0], dtype=bool)
    return float(block_max[off].max(initial=0.0))


def _product_residual(rho: DensityMatrix, basis_a: np.ndarray,
                      basis_b: np.ndarray) -> float:
    rot = np.kron(basis_a, basis_b)
    m = rot.conj().T @ rho.matrix @ rot
    off = m - np.diag(np.diag(m))
    return float(np.abs(off).max())


def classical_basis(rho: DensityMatrix, side: int) -> np.ndarray:
    """Candidate local basis making the given side classical."""
    fam, _ = _conditional_family(rho, side)
    return joint_diagonalize(fam)


def _side_verdict(rho: DensityMatrix, tol: float, side: int):
    """The one-sided verdict (CQ for side 0, QC for side 1) and the side's
    classical basis, from one joint diagonalization."""
    basis = classical_basis(rho, side)
    residual = _block_residual(rho, basis, side)
    if residual <= tol:
        bases = (basis, None) if side == 0 else (None, basis)
        return ClassicalityVerdict((Kind.CQ, Kind.QC)[side], *bases,
                                   residual), basis
    return ClassicalityVerdict(Kind.NEITHER, None, None, residual), basis


def is_cq(rho: DensityMatrix, tol: float = TAU_CLASS,
          side: int = 0) -> ClassicalityVerdict:
    """One-sided classicality test; kind is CQ for side 0, QC for side 1."""
    return _side_verdict(rho, tol, side)[0]


def side_verdicts(rho: DensityMatrix, tol: float = TAU_CLASS):
    """The `is_cc`, side-0 `is_cq` and side-1 `is_cq` verdicts, in that
    order, from one classical basis and residual per side: two joint
    diagonalizations where the three separate calls make four."""
    cq, basis_a = _side_verdict(rho, tol, 0)
    qc, basis_b = _side_verdict(rho, tol, 1)
    if cq.kind is Kind.CQ and qc.kind is Kind.QC:
        residual = _product_residual(rho, basis_a, basis_b)
        if residual <= tol:
            cc = ClassicalityVerdict(Kind.CC, basis_a, basis_b, residual)
            return cc, cq, qc
    if cq.kind is Kind.CQ:
        return cq, cq, qc
    if qc.kind is Kind.QC:
        return qc, cq, qc
    return (ClassicalityVerdict(Kind.NEITHER, None, None,
                                min(cq.residual, qc.residual)), cq, qc)


def is_cc(rho: DensityMatrix, tol: float = TAU_CLASS) -> ClassicalityVerdict:
    """Two-sided classicality test.

    kind is CC when both sides diagonalize, CQ/QC when only one does, and
    neither otherwise.  For CC the residual is the max off-diagonal of the
    state rotated into the claimed product basis.
    """
    return side_verdicts(rho, tol)[0]


def ppt_label(rho: DensityMatrix) -> str:
    """'ppt' when the partial transpose is PSD, else 'npt'."""
    if rho.layout.n_subsystems != 2:
        raise StateError("PPT label requires a bipartite layout")
    pt = partial_transpose(rho, (1,))
    return "ppt" if np.linalg.eigvalsh(pt).min() >= -TAU_PSD else "npt"
