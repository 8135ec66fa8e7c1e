import numpy as np
import pytest

from latticeqm import (
    LatticeState,
    build_basis,
    build_kravchuk,
    build_oscillator,
    build_propagator,
    build_wigner_d,
    evolve_state,
    momentum_apply,
    recurrence_residual,
)


def random_state(rng, n, eps=1.0):
    return LatticeState(rng.standard_normal(n) + 1j * rng.standard_normal(n), eps)


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
    f = LatticeState(np.full(7, 3.0 - 2.0j), 1.0)
    out = momentum_apply(build_basis(7, 1.0), f)
    assert np.abs(out.amplitudes).max() == 0.0


def test_forward_difference_geometric_eigenvector():
    # f_j = exp(2 pi i j / N) satisfies Delta f = (exp(2 pi i / N) - 1) f
    N = 12
    j = np.arange(N)
    f = LatticeState(np.exp(2j * np.pi * j / N), 1.0)
    out = momentum_apply(build_basis(N, 1.0), f)
    factor = -1j * (np.exp(2j * np.pi / N) - 1.0)
    assert np.abs(out.amplitudes - factor * f.amplitudes).max() < 1e-14


def test_forward_difference_norm_bound():
    # ||Delta f|| <= 2 ||f||, so ||P f|| <= (2/epsilon) ||f||
    rng = np.random.default_rng(7)
    eps = 0.5
    for _ in range(25):
        f = random_state(rng, int(rng.integers(1, 50)), eps)
        out = momentum_apply(build_basis(f.n_sites, eps), f)
        assert out.norm() <= (2.0 / eps) * f.norm() + 1e-12


# True passed as the integer 1: a one-site basis, a two-row table, one step
@pytest.mark.parametrize("call", [
    lambda: build_basis(True, 1.0),
    lambda: build_kravchuk(4, 0.5, n_max=True),
    lambda: evolve_state(build_propagator(np.eye(2), 0.1), [1.0, 0.0], True),
], ids=["build_basis", "build_kravchuk", "evolve_state"])
def test_bool_is_not_an_integer(call):
    with pytest.raises(ValueError, match="must be an integer, got True"):
        call()


# True read as 1.0 and text parsed as a number; h="1e-5" raised a TypeError
# and p=True was refused as "got 1.0"
@pytest.mark.parametrize("call, name", [
    (lambda: build_basis(4, True), "epsilon"),
    (lambda: LatticeState([1.0], True), "epsilon"),
    (lambda: build_propagator(np.eye(2), True), "tau"),
    (lambda: build_propagator(np.eye(2), "0.1"), "tau"),
    (lambda: build_wigner_d(4, True), "beta"),
    (lambda: recurrence_residual(2, [0.0], h=True), "h"),
    (lambda: recurrence_residual(2, [0.0], h="1e-5"), "h"),
    (lambda: build_oscillator(4, True), "p"),
], ids=["build_basis", "LatticeState", "build_propagator-bool", "build_propagator-text",
        "build_wigner_d", "recurrence_residual-bool", "recurrence_residual-text", "build_oscillator"])
def test_bool_and_text_are_not_real_numbers(call, name):
    with pytest.raises(ValueError, match=f"{name} must be a real number, got "):
        call()


def test_real_parameters_take_ints_floats_and_numpy_scalars_by_value():
    for eps in (2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2)):
        assert build_basis(4, eps).epsilon == 2.0
        assert LatticeState([1.0], eps).epsilon == 2.0
    assert build_propagator(np.eye(2), np.float64(0.1)).tau == 0.1
    assert build_wigner_d(4, 1).beta == 1.0
    assert build_oscillator(4, np.float64(0.25)).p == 0.25
    # an int past the float range reads as inf, which the range check refuses
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        build_basis(4, 10**309)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(10)
    f = random_state(rng, 13, 0.7)
    g = LatticeState.from_json(f.to_json())
    assert np.array_equal(g.amplitudes, f.amplitudes)
    assert g.epsilon == f.epsilon


def test_state_is_immutable():
    f = LatticeState([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        f.amplitudes[0] = 5.0
