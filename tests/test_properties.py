"""Property tests over random inputs; skipped when hypothesis is not installed."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from latticeqm import LatticeState, build_propagator, checks, evolution_operator  # noqa: E402

bounded = settings(max_examples=60, deadline=None)


@bounded
@given(
    amplitudes=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1, max_size=16),
    epsilon=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_state_json_round_trip_is_exact(amplitudes, epsilon):
    f = LatticeState(np.array(amplitudes), epsilon)
    g = LatticeState.from_json(f.to_json())
    assert np.array_equal(g.amplitudes, f.amplitudes)
    assert g.epsilon == f.epsilon


@st.composite
def hermitian(draw):
    dim = draw(st.integers(1, 8))
    M = draw(hnp.arrays(float, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
    M = M[0] + 1j * M[1]
    return 0.5 * (M + M.conj().T)


@bounded
@given(H=hermitian(), tau=st.floats(0.01, 2.0), n=st.integers(-40, 40))
def test_spectral_power_matches_stepped_products(H, tau, n):
    prop = build_propagator(H, tau)
    stepped = np.eye(H.shape[0], dtype=complex)
    for _ in range(abs(n)):
        stepped = prop.factor @ stepped
    if n < 0:
        stepped = stepped.conj().T
    assert np.abs(evolution_operator(prop, n) - stepped).max() < 1e-11


@bounded
@given(N=st.integers(1, 64), beta=st.floats(1e-6, math.pi - 1e-6))
def test_wigner_table_symmetry_and_orthogonality(N, beta):
    symmetry, orthogonality, *differential = checks.wigner(
        (N,), (beta,), ("symmetry", "orthogonality", "differential"))
    assert symmetry.residual < 1e-11
    assert orthogonality.residual < 1e-12
    for row in differential:
        assert row.residual <= 1e-6, row


@bounded
@given(H=hermitian(), tau=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
def test_cayley_step_is_unitary(H, tau, seed):
    rows = checks.propagator(np.random.default_rng(seed), H, (tau,), 200, (0, 7))
    assert all(row.passed for row in rows), rows
