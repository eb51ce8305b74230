"""Hot-path kernels and the generator packing, against loop oracles.

The references are the explicit-loop oracles in `conftest.py`, which share
no vectorized code with the kernels.
"""

import math

import numpy as np
import pytest

from qcorr import _kernels_py as kernels
from qcorr.optimize import (
    _hermitian_generator,
    general_stack,
    projective_stack,
    random_density,
)

from conftest import (
    oracle_anti_hermitian,
    oracle_cq_blocks,
    oracle_joint_probs,
)

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
FAMILIES = ("projective", "general")


def _stack(family, d, rng):
    """A projective (d outcomes) or general (d^2 outcomes) element stack."""
    if family == "projective":
        return projective_stack(rng.normal(size=d * d), d)
    n = d * d
    return general_stack(rng.normal(size=2 * n * d), d, n)


def _state(d_a, d_b, rng):
    return random_density((d_a, d_b), d_a * d_b, rng).matrix


@pytest.mark.parametrize("d_a,d_b", DIMS)
def test_cc_joint_probs_parity(d_a, d_b, rng):
    rho = _state(d_a, d_b, rng)
    for family in FAMILIES:
        ms, ns = _stack(family, d_a, rng), _stack(family, d_b, rng)
        got = kernels.cc_joint_probs(rho, ms, ns)
        np.testing.assert_allclose(got, oracle_joint_probs(rho, ms, ns),
                                   atol=1e-13)
        assert got.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d_a,d_b", DIMS)
def test_cq_blocks_parity(d_a, d_b, rng):
    rho = _state(d_a, d_b, rng)
    for family in FAMILIES:
        ms = _stack(family, d_a, rng)
        got = kernels.cq_blocks(rho, ms)
        np.testing.assert_allclose(got, oracle_cq_blocks(rho, ms, d_b),
                                   atol=1e-13)
        # blocks sum to the second marginal (trace one)
        assert np.trace(got.sum(axis=0)).real == pytest.approx(1.0, abs=1e-10)


def test_shannon_bits_parity(rng):
    p = rng.random(16)
    p[3] = 0.0
    p /= p.sum()
    want = -sum(x * math.log2(x) for x in p if x > 0)
    assert kernels.shannon_bits(p) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", [[1.0], [0.0, 1.0, 0.0], [], [0.0]])
def test_shannon_bits_zero_is_positive_zero(p):
    h = kernels.shannon_bits(np.array(p))
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_joint_probs_against_direct_traces(rng):
    rho = _state(2, 2, rng)
    ma, mb = _stack("projective", 2, rng), _stack("projective", 2, rng)
    got = kernels.cc_joint_probs(rho, ma, mb)
    for i in range(2):
        for j in range(2):
            want = np.trace(np.kron(ma[i], mb[j]) @ rho).real
            assert got[i, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_generator_packing_matches_loop(d, rng):
    params = rng.normal(size=d * d)
    want = -1j * oracle_anti_hermitian(params, d)
    np.testing.assert_array_equal(_hermitian_generator(params, d), want)
