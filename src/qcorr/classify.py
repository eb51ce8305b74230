"""Structural detection of classical-classical / classical-quantum states.

A bipartite state is classical on side A exactly when its A-conditional
operators (the Hermitian combinations of the blocks <m|_B rho |n>_B) form a
commuting family (the zero-discord condition of Dakic, Vedral and Brukner,
PRL 105, 190502, 2010).  Each side's verdict has two exits.  The first is
the family's commutator residual, the largest Frobenius norm of [X, Y]
over member pairs: above theta(tol, d) = 16 d tol + 8 d^2 tol^2 (with a
margin for rounding; derived in `_commutator_bound`) no basis can be
classical within tol, so the side is NEITHER without further work, and
that residual is reported.  Otherwise degenerate marginals are handled
uniformly by jointly diagonalizing the family with Jacobi sweeps (Cardoso
and Souloumiac, "Jacobi angles for simultaneous diagonalization", SIAM J.
Matrix Anal. Appl. 17, 1996); the common eigenbasis is the claimed
classical basis and the verdict is judged by the block residual of the
rotated state, reported for CQ/QC; a side the sweeps reject is NEITHER
with its commutator residual too, so a NEITHER residual is a property of
the state and not of where the sweeps stop.  The sweeps stop when no
rotation exceeds the tolerance, or when a sweep lowers the family's
off-diagonal mass by at most the fraction `_STALL` of itself: a commuting
family converges quadratically and meets the first rule before the
second, while a family with no common eigenbasis drifts toward a
stationary point that the second rule ends.

The family is one (m, d, d) array throughout: it is gathered from the
state's blocks by array indexing, each Jacobi rotation updates every
member with one matmul, and a pair that is degenerate across the family
(zero surrogate) is left alone.  The few scalars of each rotation (its
cosine and complex sine) are Python floats, computed with the bits that
numpy's float64 scalar arithmetic gives, so the sweeps run faster and
return the same bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qstate import (TAU_PSD, DensityMatrix, StateError, _check_side,
                     _operator_stack, _pair_entries, partial_transpose)

TAU_CLASS = 1e-8
# A Jacobi sweep that lowers the off-diagonal mass by at most this fraction
# of itself ends the sweeps.
_STALL = 1e-6
# Slacks of the commutator exit (see `_commutator_bound`): rounding, added
# to the block residual, and the state's norm above 1, as a factor.
_ROUND_SLACK = 1e-12
_NORM_SLACK = 1e-6


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
            return None if b is None else _pair_entries(b)
        return {
            "kind": self.kind.value,
            "basis_A": basis_list(self.basis_A),
            "basis_B": basis_list(self.basis_B),
            "residual": self.residual,
        }


def commute_residual(ops) -> float:
    """Max Frobenius norm of pairwise commutators.

    One matrix product of the stacked family gives every pairwise product:
    rows (i, a) of the members times columns (j, c) hold (X_i X_j)_ac.
    """
    ops = _operator_stack(ops, StateError, square=True)
    m, d, _ = ops.shape
    prods = ops.reshape(m * d, d) @ ops.transpose(1, 0, 2).reshape(d, m * d)
    prods = prods.reshape(m, d, m, d)
    comm = prods - prods.transpose(2, 1, 0, 3)  # [i, :, j, :] = [X_i, X_j]
    sq = (comm.real ** 2 + comm.imag ** 2).sum(axis=(1, 3))
    return math.sqrt(float(sq.max()))


def _commutator_bound(tol: float, d: int) -> float:
    """theta(tol, d): the largest commutator residual a side of dimension d
    can have when some basis brings its block residual to at most tol.

    Let a unitary U bring every off-diagonal entry of every rotated block
    U^dag <m|rho|n> U to at most r (that is, `_block_residual` <= r).  In
    that basis a member is X = D + E with D diagonal and E off-diagonal.
    A member is a block or, up to the factor i, t +- t^dag, so each entry
    of E is at most the sum of two block entries, |E_ij| <= 2r, and
    ||E||_2 <= ||E||_F <= 2r sqrt(d(d - 1)) < 2rd.  D holds diagonal
    entries of X, so ||D||_2 <= ||X||_2 <= 2: a block of rho has spectral
    norm at most ||rho||_2 <= 1, and t +- t^dag at most twice that.
    Diagonal matrices commute, so [X, Y] = [D_X, E_Y] + [E_X, D_Y] +
    [E_X, E_Y], and ||[A, B]||_F <= 2 ||A||_2 ||B||_F bounds the three
    terms by 8dr, 8dr and 8d^2 r^2.  The Frobenius norm of a commutator is
    unitarily invariant, so in the state's own basis too

        ||[X, Y]||_F <= 16 d r + 8 d^2 r^2.

    The bound grows with r, so a basis the sweeps accept (r <= tol) implies
    a commutator residual at most its value at r = tol.  Two slacks keep it
    a bound in floating point: `_ROUND_SLACK` added to r covers rounding in
    the rotated state, the basis's unitarity and the products (each of
    order d * eps), and the factor 1 + `_NORM_SLACK` covers ||rho||_2
    exceeding 1 by the state's validation tolerances.
    """
    r = tol + _ROUND_SLACK
    return (1.0 + _NORM_SLACK) * (16.0 * d * r + 8.0 * d * d * r * r)


def _rotation_sine(y: float, z: float, scale: float) -> complex:
    """(y - iz) / den for a positive den = 1 / scale, with the bits numpy
    gives `(y - 1j * z) / den` on float64 scalars.

    numpy divides a complex by a real by multiplying both parts by the
    reciprocal (CPython's complex division does not, and differs in the
    last bit), and its complex arithmetic fixes the signs of zero parts:
    a zero z gives +0.0 for the sine's imaginary part, and a zero y gives
    +0.0 for its real part unless y is -0.0 and z is positive.
    """
    re, im = y * scale, -z * scale
    if z == 0.0:
        im = 0.0
    elif y == 0.0 and z < 0.0:
        re = 0.0
    return complex(re, im)


def joint_diagonalize(ops, tol: float = 1e-14,
                      max_sweeps: int = 100) -> np.ndarray:
    """Unitary J approximately diagonalizing a family of Hermitian matrices.

    Jacobi sweeps over index pairs (p, q); each rotation maximizes the
    diagonal mass of the pair across the whole family (Cardoso-Souloumiac
    update, specialized to Hermitian inputs).  The family is held as one
    (m, d, d) stack: a pair's (m, 3) surrogate rows come from array
    indexing, their outer products are summed over the members in order,
    and one matmul rotates every member.  The rotation's angle comes from
    the surrogate's top eigenvector, read out as Python floats; its cosine
    and sine are scalar arithmetic (`math.sqrt`, `_rotation_sine`).
    Sweeps stop when no rotation exceeds `tol`, when a sweep after the
    first lowers the off-diagonal mass (the exactly rounded sum of |A_pq|^2
    over members and p != q) by at most `_STALL` of its previous value, or
    after `max_sweeps`.
    """
    ops = _operator_stack(ops, StateError, square=True)
    m, d, _ = ops.shape
    eye = np.eye(d, dtype=complex)
    u = eye
    if d == 1:
        return u
    h = np.empty((m, 3))
    off_diag = ~np.eye(d, dtype=bool)
    prev = None
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
                x, y, z = np.linalg.eigh(g)[1][:, -1].tolist()
                if x < 0:
                    x, y, z = -x, -y, -z
                r = math.sqrt(x * x + y * y + z * z)
                if r <= 0 or y * y + z * z == 0.0:
                    continue
                c = math.sqrt((x + r) / (2 * r))
                s = _rotation_sine(y, z, 1.0 / math.sqrt(2 * r * (x + r)))
                if abs(s) <= tol:
                    continue
                changed = True
                rot = eye.copy()
                rot[p, p] = c
                rot[p, q] = -s.conjugate()
                rot[q, p] = s
                rot[q, q] = c
                ops = rot.conj().T @ ops @ rot
                u = u @ rot
        if not changed:
            break
        entries = ops[:, off_diag]
        off = math.fsum((entries.real ** 2 + entries.imag ** 2).ravel().tolist())
        if prev is not None and prev - off <= _STALL * prev:
            break
        prev = off
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
    _check_side(side)
    d_a, d_b = rho.dims
    r = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    if side == 0:
        d_cond, d_reg = d_a, d_b
        blocks = r.transpose(1, 3, 0, 2)  # blocks[m, n] = r[:, m, :, n]
    else:
        d_cond, d_reg = d_b, d_a
        blocks = r.transpose(0, 2, 1, 3)  # blocks[m, n] = r[m, :, n, :]
    blocks_h = blocks.conj().swapaxes(-1, -2)
    kinds = np.stack([blocks, blocks + blocks_h, 1j * (blocks - blocks_h)])
    return kinds[_family_index(d_reg)], d_cond


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.kron(a, b)` of square matrices, entry for entry, as one
    broadcast product and a reshape."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def _block_residual(rho: DensityMatrix, basis: np.ndarray, side: int) -> float:
    """Max coherence between distinct basis states of the measured side."""
    d_a, d_b = rho.dims
    if side == 0:
        rot = _kron(basis, np.eye(d_b, dtype=complex))
    else:
        rot = _kron(np.eye(d_a, dtype=complex), basis)
    m = rot.conj().T @ rho.matrix @ rot
    r = np.abs(m.reshape(d_a, d_b, d_a, d_b))
    # block_max[i, j]: largest entry of the (i, j) block of the measured side.
    block_max = r.max(axis=(1, 3)) if side == 0 else r.max(axis=(0, 2))
    off = ~np.eye(block_max.shape[0], dtype=bool)
    return float(block_max[off].max(initial=0.0))


def _product_residual(rho: DensityMatrix, basis_a: np.ndarray,
                      basis_b: np.ndarray) -> float:
    rot = _kron(basis_a, basis_b)
    m = rot.conj().T @ rho.matrix @ rot
    off = m - np.diag(np.diag(m))
    return float(np.abs(off).max())


def classical_basis(rho: DensityMatrix, side: int) -> np.ndarray:
    """Candidate local basis making the given side classical."""
    fam, _ = _conditional_family(rho, side)
    return joint_diagonalize(fam)


def is_cq(rho: DensityMatrix, tol: float = TAU_CLASS,
          side: int = 0) -> ClassicalityVerdict:
    """One-sided classicality test; kind is CQ for side 0, QC for side 1.

    Two exits.  When the side's conditional family has a commutator
    residual (`commute_residual`) above theta(tol, d) (`_commutator_bound`),
    no basis can be classical within tol, and the verdict is NEITHER with
    no Jacobi sweeps.  Otherwise the sweeps give the side's classical basis
    and its block residual (the largest coherence between distinct basis
    states of the measured side); the verdict is CQ/QC with that basis and
    residual when the residual is at most tol, and NEITHER when it is not.
    The residual of a NEITHER verdict is the commutator residual on either
    exit: a property of the state, unchanged by a unitary on the side.
    """
    fam, d = _conditional_family(rho, side)
    comm = commute_residual(fam)
    if comm <= _commutator_bound(tol, d):
        # Through `classical_basis`, the layer perfbench traces as the sweeps.
        basis = classical_basis(rho, side)
        residual = _block_residual(rho, basis, side)
        if residual <= tol:
            bases = (basis, None) if side == 0 else (None, basis)
            return ClassicalityVerdict((Kind.CQ, Kind.QC)[side], *bases,
                                       residual)
    return ClassicalityVerdict(Kind.NEITHER, None, None, comm)


def side_verdicts(rho: DensityMatrix, tol: float = TAU_CLASS):
    """The `is_cc`, side-0 `is_cq` and side-1 `is_cq` verdicts, in that
    order, from one `is_cq` per side: at most two joint diagonalizations
    where the three separate calls make up to four, and none on a side
    that the commutator exit calls NEITHER.

    The CC verdict's residual is the largest off-diagonal entry of the
    state rotated into the product of the two classical bases; a CQ or QC
    verdict is that side's; a NEITHER verdict's residual is the smaller of
    the two sides' commutator residuals.
    """
    cq = is_cq(rho, tol, 0)
    qc = is_cq(rho, tol, 1)
    if cq.kind is Kind.CQ and qc.kind is Kind.QC:
        residual = _product_residual(rho, cq.basis_A, qc.basis_B)
        if residual <= tol:
            cc = ClassicalityVerdict(Kind.CC, cq.basis_A, qc.basis_B, residual)
            return cc, cq, qc
    if cq.kind is Kind.CQ:
        return cq, cq, qc
    if qc.kind is Kind.QC:
        return qc, cq, qc
    return (ClassicalityVerdict(Kind.NEITHER, None, None,
                                min(cq.residual, qc.residual)), cq, qc)


def is_cc(rho: DensityMatrix, tol: float = TAU_CLASS) -> ClassicalityVerdict:
    """Two-sided classicality test.

    kind is CC when both sides are classical and so is the product of
    their bases, CQ (QC) when side 0 (side 1) is classical and CC fails,
    and NEITHER otherwise.  For CC the residual is the max off-diagonal of
    the state rotated into the claimed product basis, for CQ/QC the side's
    block residual, and for NEITHER the smaller of the two sides'
    commutator residuals.  Each side takes the two exits of `is_cq`.
    """
    return side_verdicts(rho, tol)[0]


def ppt_label(rho: DensityMatrix) -> str:
    """'ppt' when the partial transpose is PSD, else 'npt'."""
    if rho.layout.n_subsystems != 2:
        raise StateError("PPT label requires a bipartite layout")
    pt = partial_transpose(rho, (1,))
    return "ppt" if np.linalg.eigvalsh(pt).min() >= -TAU_PSD else "npt"
