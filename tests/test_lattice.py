import numpy as np
import pytest

from latticeqm import (
    BoundaryRule,
    DifferenceKind,
    LatticeState,
    apply_difference,
    build_basis,
    build_kravchuk,
    build_propagator,
    evolve_state,
    inner_product,
)


def random_state(rng, n, eps=1.0):
    return LatticeState(rng.standard_normal(n) + 1j * rng.standard_normal(n), eps)


def test_inner_product_frozen_example():
    a = LatticeState([1.0, 1.0j], 1.0)
    b = LatticeState([1.0, 1.0], 1.0)
    assert inner_product(a, b) == pytest.approx(1.0 - 1.0j, abs=1e-15)


def test_inner_product_antilinear_first_slot():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        a, b = random_state(rng, n), random_state(rng, n)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        scaled = LatticeState(alpha * a.amplitudes, 1.0)
        assert inner_product(scaled, b) == pytest.approx(
            np.conj(alpha) * inner_product(a, b), abs=1e-12
        )
        scaled_b = LatticeState(alpha * b.amplitudes, 1.0)
        assert inner_product(a, scaled_b) == pytest.approx(
            alpha * inner_product(a, b), abs=1e-12
        )
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), abs=1e-12
        )


def test_inner_product_rejects_mismatched_lattices():
    a = LatticeState([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        inner_product(a, LatticeState([1.0, 2.0, 3.0], 1.0))
    with pytest.raises(ValueError):
        inner_product(a, LatticeState([1.0, 2.0], 0.5))


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


def test_forward_difference_annihilates_constants():
    f = LatticeState(np.full(7, 3.0 - 2.0j), 1.0)
    out = apply_difference(DifferenceKind.FORWARD, f)
    assert np.abs(out.amplitudes).max() == 0.0


def test_forward_difference_geometric_eigenvector():
    # f_j = exp(2 pi i j / N) satisfies Delta f = (exp(2 pi i / N) - 1) f
    N = 12
    j = np.arange(N)
    f = LatticeState(np.exp(2j * np.pi * j / N), 1.0)
    out = apply_difference(DifferenceKind.FORWARD, f)
    factor = np.exp(2j * np.pi / N) - 1.0
    assert np.abs(out.amplitudes - factor * f.amplitudes).max() < 1e-14


def test_mean_difference_frozen_example():
    out = apply_difference(DifferenceKind.MEAN, LatticeState([1.0, 3.0], 1.0))
    assert np.allclose(out.amplitudes, [2.0, 2.0])


def test_forward_is_twice_mean_minus_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = random_state(rng, int(rng.integers(2, 40)))
        fwd = apply_difference(DifferenceKind.FORWARD, f)
        mean = apply_difference(DifferenceKind.MEAN, f)
        assert np.abs(fwd.amplitudes - 2.0 * (mean.amplitudes - f.amplitudes)).max() < 1e-13


def test_forward_and_mean_commute():
    rng = np.random.default_rng(6)
    f = random_state(rng, 23)
    ab = apply_difference(
        DifferenceKind.FORWARD, apply_difference(DifferenceKind.MEAN, f)
    )
    ba = apply_difference(
        DifferenceKind.MEAN, apply_difference(DifferenceKind.FORWARD, f)
    )
    assert np.abs(ab.amplitudes - ba.amplitudes).max() < 1e-13


def test_forward_difference_norm_bound():
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = random_state(rng, int(rng.integers(1, 50)))
        out = apply_difference(DifferenceKind.FORWARD, f)
        assert out.norm() <= 2.0 * f.norm() + 1e-12


def test_backward_inverts_forward_shift_structure():
    rng = np.random.default_rng(8)
    f = random_state(rng, 9)
    fwd = apply_difference(DifferenceKind.FORWARD, f)
    bwd = apply_difference(DifferenceKind.BACKWARD, f)
    # backward is forward shifted by one site under periodic closure
    assert np.abs(np.roll(fwd.amplitudes, 1) - bwd.amplitudes).max() < 1e-14


def test_zero_padded_boundary():
    f = LatticeState([1.0, 2.0, 4.0], 1.0)
    fwd = apply_difference(DifferenceKind.FORWARD, f, BoundaryRule.ZERO_PADDED)
    assert np.allclose(fwd.amplitudes, [1.0, 2.0, -4.0])
    bwd = apply_difference(DifferenceKind.BACKWARD, f, BoundaryRule.ZERO_PADDED)
    assert np.allclose(bwd.amplitudes, [1.0, 1.0, 2.0])
    mean = apply_difference(DifferenceKind.MEAN, f, BoundaryRule.ZERO_PADDED)
    assert np.allclose(mean.amplitudes, [1.5, 3.0, 2.0])


def test_difference_rejects_non_members():
    f = LatticeState([1.0, 2.0, 3.0], 1.0)
    # a plain string fell through to the zero-padded rule: [1, 1, -3]
    with pytest.raises(ValueError, match="boundary must be a BoundaryRule"):
        apply_difference(DifferenceKind.FORWARD, f, "periodic")
    with pytest.raises(ValueError, match="kind must be a DifferenceKind"):
        apply_difference("forward", f)
    periodic = apply_difference(DifferenceKind.FORWARD, f, BoundaryRule.PERIODIC)
    assert np.array_equal(periodic.amplitudes, [1.0, 1.0, -2.0])


# True passed as the integer 1: a one-site basis, a two-row table, one step
@pytest.mark.parametrize("call", [
    lambda: build_basis(True, 1.0),
    lambda: build_kravchuk(4, 0.5, n_max=True),
    lambda: evolve_state(build_propagator(np.eye(2), 0.1), [1.0, 0.0], True),
], ids=["build_basis", "build_kravchuk", "evolve_state"])
def test_bool_is_not_an_integer(call):
    with pytest.raises(ValueError, match="must be an integer, got True"):
        call()


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
