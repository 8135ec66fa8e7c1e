import math

import numpy as np
import pytest

from latticeqm import (
    LatticeState,
    build_basis,
    build_kravchuk,
    build_propagator,
    build_wigner_d,
    check_hermitian,
    checks,
    eval_psi,
    evolve_state,
    evolve_trajectory,
    forward_transform,
    heisenberg_scheme_residuals,
    involution_identities,
    inverse_transform,
    ladder_apply,
    momentum_apply,
    psi_table,
    recurrence_residual,
    s_grid,
    schrodinger_residual,
)


def random_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_state_validation():
    with pytest.raises(ValueError):
        LatticeState([], 1.0)
    with pytest.raises(ValueError):
        LatticeState([1.0], 0.0)
    with pytest.raises(ValueError):
        LatticeState([[1.0, 2.0]], 1.0)
    # non-finite values used to construct, e.g. LatticeState([nan, 1], inf)
    for eps in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            LatticeState([1.0, 2.0], eps)
    for amp in ([float("nan"), 1.0], [1.0, complex(0.0, float("inf"))]):
        with pytest.raises(ValueError, match="amplitudes"):
            LatticeState(amp, 1.0)


# momentum_apply is P = -(i/epsilon) Delta with the periodic forward difference (Delta f)_j = f_{j+1} - f_j
def test_forward_difference_annihilates_constants():
    out = momentum_apply(build_basis(7, 1.0), np.full(7, 3.0 - 2.0j))
    assert np.abs(out).max() == 0.0


def test_forward_difference_geometric_eigenvector():
    # f_j = exp(2 pi i j / N) satisfies Delta f = (exp(2 pi i / N) - 1) f
    N = 12
    j = np.arange(N)
    f = np.exp(2j * np.pi * j / N)
    out = momentum_apply(build_basis(N, 1.0), f)
    factor = -1j * (np.exp(2j * np.pi / N) - 1.0)
    assert np.abs(out - factor * f).max() < 1e-14


def test_forward_difference_norm_bound():
    # ||Delta f|| <= 2 ||f||, so ||P f|| <= (2/epsilon) ||f||
    rng = np.random.default_rng(7)
    eps = 0.5
    for _ in range(25):
        f = random_state(rng, int(rng.integers(1, 50)))
        out = momentum_apply(build_basis(f.size, eps), f)
        assert np.linalg.norm(out) <= (2.0 / eps) * np.linalg.norm(f) + 1e-12


# True passed as the integer 1: a one-site basis, a two-row table, one step
@pytest.mark.parametrize("call", [
    lambda: build_basis(True, 1.0),
    lambda: build_kravchuk(4, 0.5, n_max=True),
    lambda: evolve_state(build_propagator(np.eye(2), 0.1), [1.0, 0.0], True),
], ids=["build_basis", "build_kravchuk", "evolve_state"])
def test_bool_is_not_an_integer(call):
    with pytest.raises(ValueError, match="must be an integer, got True"):
        call()


# True read as 1.0 and text parsed as a number; p=True was refused as "got 1.0"
@pytest.mark.parametrize("call, name", [
    (lambda: build_basis(4, True), "epsilon"),
    (lambda: LatticeState([1.0], True), "epsilon"),
    (lambda: build_propagator(np.eye(2), True), "tau"),
    (lambda: build_propagator(np.eye(2), "0.1"), "tau"),
    (lambda: build_wigner_d(4, True), "beta"),
    (lambda: s_grid(4, True), "p"),
], ids=["build_basis", "LatticeState", "build_propagator-bool", "build_propagator-text",
        "build_wigner_d", "s_grid"])
def test_bool_and_text_are_not_real_numbers(call, name):
    with pytest.raises(ValueError, match=f"{name} must be a real number, got "):
        call()


# each array argument, by the name its errors give it and whether it is a
# matrix and takes complex entries; text was parsed, True read as 1, a
# complex ndarray cast to its real part, and a dict raised a TypeError
_PROP = build_propagator(checks.SIGMA_Z, 0.1)
_ARRAY_ARGUMENTS = {
    "check_hermitian": (check_hermitian, "Hamiltonian", 2, True),
    "build_propagator": (lambda X: build_propagator(X, 0.1), "Hamiltonian", 2, True),
    "evolve_state": (lambda X: evolve_state(_PROP, X, 1), "state", 1, True),
    "evolve_trajectory": (lambda X: evolve_trajectory(_PROP, X, 1), "state", 1, True),
    "heisenberg_scheme_residuals": (lambda X: heisenberg_scheme_residuals(_PROP, X, 1), "observable", 2, True),
    "involution_identities-H": (lambda X: involution_identities(X, checks.SIGMA_X, 0.1), "Hamiltonian", 2, True),
    "involution_identities-A0": (lambda X: involution_identities(checks.SIGMA_Z, X, 0.1), "observable", 2, True),
    "LatticeState": (lambda X: LatticeState(X, 1.0), "amplitudes", 1, True),
    "forward_transform": (lambda X: forward_transform(build_basis(2, 1.0), X), "state", 1, True),
    "inverse_transform": (lambda X: inverse_transform(build_basis(2, 1.0), X), "coefficients", 1, True),
    "momentum_apply": (lambda X: momentum_apply(build_basis(2, 1.0), X), "state", 1, True),
    "psi_table": (lambda X: psi_table(2, X), "s", 1, False),
    "eval_psi": (lambda X: eval_psi(2, X), "s", 1, False),
    "schrodinger_residual": (lambda X: schrodinger_residual(2, X), "s", 1, False),
    "recurrence_residual": (lambda X: recurrence_residual(2, X), "s", 1, False),
    "ladder_apply": (lambda X: ladder_apply(2, X), "s", 1, False),
    "hermite_oracle": (lambda X: checks.hermite_oracle(X, 1, 1, 1, 1), "s", 1, False),
}
_BAD_ARRAYS = {
    "text": (["1", "0"], [["1", "0"], ["0", "-1"]]),
    "bool": ([True, False], [[True, False], [False, True]]),
    "numpy-bool": (np.array([True, False]), np.eye(2, dtype=bool)),
    "dict": ({"a": 1}, {"a": 1}),
    "ragged": ([[1.0, 0.0], [1.0]], [[1.0, 0.0], [1.0]]),
    "complex-ndarray": (np.array([1.0 + 1.0j, 0.0]), None),
}


@pytest.mark.parametrize("argument, bad", [
    (argument, bad) for argument, (_, _, _, takes_complex) in _ARRAY_ARGUMENTS.items()
    for bad in _BAD_ARRAYS if not (takes_complex and bad == "complex-ndarray")])
def test_bool_and_text_are_not_array_entries(argument, bad):
    call, name, ndim, _ = _ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=f"^{name} entries must be (real|complex) numbers, got [^\\n]+$"):
        call(_BAD_ARRAYS[bad][ndim - 1])


def test_array_entries_past_the_float_range_are_not_finite():
    # an int past the float range raised an OverflowError
    with pytest.raises(ValueError, match="^amplitudes has non-finite entries$"):
        LatticeState([10**400], 1.0)
    with pytest.raises(ValueError, match="^s has non-finite entries$"):
        psi_table(2, [0.0, -10**400])


def test_arrays_take_ints_floats_and_numpy_scalars_by_value():
    for amp in ([1, 2.0, np.float32(3.0), np.int64(4), 5j], np.arange(1, 6), np.arange(1.0, 6.0)):
        assert np.array_equal(LatticeState(amp, 1.0).amplitudes[:4], [1, 2, 3, 4])
    assert np.array_equal(psi_table(1, np.float64(0.5)), psi_table(1, [0.5]))  # a number is a one-point grid
    assert eval_psi(1, np.float64(0.5)) == eval_psi(1, 0.5)


def test_real_parameters_take_ints_floats_and_numpy_scalars_by_value():
    for eps in (2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2)):
        assert build_basis(4, eps).epsilon == 2.0
        assert LatticeState([1.0], eps).epsilon == 2.0
    assert build_propagator(np.eye(2), np.float64(0.1)).tau == 0.1
    assert build_wigner_d(4, 1).beta == 1.0
    assert s_grid(4, np.float64(0.25))[1] == s_grid(4, 0.25)[1] == 1.0 / math.sqrt(1.5)
    # an int past the float range reads as inf, which the range check refuses
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        build_basis(4, 10**309)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(10)
    f = LatticeState(random_state(rng, 13), 0.7)
    g = LatticeState.from_json(f.to_json())
    assert np.array_equal(g.amplitudes, f.amplitudes)
    assert g.epsilon == f.epsilon


def test_state_is_immutable():
    f = LatticeState([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        f.amplitudes[0] = 5.0
