"""Labeled test-state generator.

Classes: "cc" (rotated embedded joint distributions), "cq" (non-commuting
conditional states), "sep" (separable but not CQ on either side: mixtures of
non-commuting product pairs), "ent" (NPT entangled: pure states with full
Schmidt rank and high-visibility Werner states).  Generation is seeded so
acceptance runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import ppt_label
from .optimize import haar_unitary, random_density
from .qstate import (
    DensityMatrix,
    SubsystemLayout,
    bell_phi_plus,
    ket,
    pure_state,
    tensor,
)

LABELS = ("cc", "cq", "sep", "ent")


@dataclass(frozen=True, eq=False)
class LabeledState:
    state_id: str
    label: str
    rho: DensityMatrix


def random_cc(d_a: int, d_b: int, rng: np.random.Generator) -> DensityMatrix:
    """Random joint distribution embedded in random local bases."""
    p = rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)
    u = haar_unitary(d_a, rng)
    v = haar_unitary(d_b, rng)
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        for j in range(d_b):
            vec = np.kron(u[:, i], v[:, j])
            m += p[i, j] * np.outer(vec, vec.conj())
    return DensityMatrix(SubsystemLayout((d_a, d_b)), m)


def random_cq(d_a: int, d_b: int, rng: np.random.Generator) -> DensityMatrix:
    """CQ state with random (non-commuting) conditional states."""
    p = rng.dirichlet(np.ones(d_a))
    u = haar_unitary(d_a, rng)
    conds = [random_density((d_b,), d_b, rng) for _ in range(d_a)]
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        proj = np.outer(u[:, i], u[:, i].conj())
        m += p[i] * np.kron(proj, conds[i].matrix)
    return DensityMatrix(SubsystemLayout((d_a, d_b)), m)


def separable_non_cq(d_a: int, d_b: int,
                     rng: np.random.Generator) -> DensityMatrix:
    """Mixture of product states with non-commuting factors on both sides."""
    k = d_a * d_b + 1
    p = rng.dirichlet(np.ones(k) * 5.0)
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in p:
        a = random_density((d_a,), 1, rng)
        b = random_density((d_b,), 1, rng)
        m += w * np.kron(a.matrix, b.matrix)
    return DensityMatrix(SubsystemLayout((d_a, d_b)), m)


def random_pure_entangled(d_a: int, d_b: int,
                          rng: np.random.Generator) -> DensityMatrix:
    """Pure state with full Schmidt rank and all coefficients bounded away
    from zero (gives a robust analytic discord floor)."""
    k = min(d_a, d_b)
    while True:
        lam = rng.dirichlet(np.ones(k))
        if lam.min() > 0.05:
            break
    u = haar_unitary(d_a, rng)
    v = haar_unitary(d_b, rng)
    vec = sum(np.sqrt(lam[i]) * np.kron(u[:, i], v[:, i]) for i in range(k))
    return pure_state(vec, (d_a, d_b))


def werner_qubit(visibility: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4; NPT for p > 1/3."""
    bell = bell_phi_plus()
    m = visibility * bell.matrix + (1 - visibility) * np.eye(4) / 4
    return DensityMatrix(SubsystemLayout((2, 2)), m)


def make_corpus(n_per_class: int = 10, seed: int = 20260826,
                d_a: int = 2, d_b: int = 2) -> list[LabeledState]:
    """Reproducible labeled corpus with n_per_class states per label."""
    rng = np.random.default_rng(seed)
    out: list[LabeledState] = []
    for k in range(n_per_class):
        out.append(LabeledState(f"cc_{k:02d}", "cc", random_cc(d_a, d_b, rng)))
    for k in range(n_per_class):
        out.append(LabeledState(f"cq_{k:02d}", "cq", random_cq(d_a, d_b, rng)))
    for k in range(n_per_class):
        out.append(LabeledState(
            f"sep_{k:02d}", "sep", separable_non_cq(d_a, d_b, rng)))
    # The Bell and Werner states lead the class at 2x2 only; other sizes
    # are all pure states of full Schmidt rank.
    ent: list[DensityMatrix] = ([bell_phi_plus(), werner_qubit(0.95)]
                                if (d_a, d_b) == (2, 2) else [])
    while len(ent) < n_per_class:
        cand = random_pure_entangled(d_a, d_b, rng)
        if ppt_label(cand) == "npt":
            ent.append(cand)
    for k, rho in enumerate(ent[:n_per_class]):
        out.append(LabeledState(f"ent_{k:02d}", "ent", rho))
    return out


def product_state(d_a: int, d_b: int, rng: np.random.Generator) -> DensityMatrix:
    return tensor(random_density((d_a,), d_a, rng),
                  random_density((d_b,), d_b, rng))


def classically_correlated_bit() -> DensityMatrix:
    """sum_i (1/2) |ii><ii| on two qubits."""
    m = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        vec = np.kron(ket(i, 2), ket(i, 2))
        m += 0.5 * np.outer(vec, vec.conj())
    return DensityMatrix(SubsystemLayout((2, 2)), m)


def ghz(n: int = 3) -> DensityMatrix:
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = vec[-1] = 1 / np.sqrt(2)
    return pure_state(vec, (2,) * n)
