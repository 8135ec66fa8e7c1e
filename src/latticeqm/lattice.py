"""States on a one-dimensional lattice and the parameter checks every module shares.

Each parameter's rule is declared once, by a validator here that the
library functions and the command line flags' types call: a scalar's range
(N, epsilon, p, tau, beta, counts with a lower bound, finite reals), and in
``_array`` the rule of every array argument: finite numbers, real where a
real array is taken, never text, bools or nested lists, in the caller's shape.

A state is a finite sequence of complex amplitudes f_0 .. f_{N-1}: an array
of shape (N,), or in a block of shape (N, k), one state per column, which the
plane-wave functions take and return.  The inner product is plain summation,
sum_j conj(a_j) b_j, with no spacing weight.  The derivative is replaced by the
periodic forward difference (Delta f)_j = f_{j+1} - f_j, which
``planewave.momentum_apply`` takes as the momentum P = -(i/epsilon) Delta.
``LatticeState`` pairs one state with its spacing epsilon where the two travel
together: in a JSON state file and the ``evolve`` command that reads one.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np


def _integer(value, name: str) -> int:
    """A Python or numpy integer as int; a float is never truncated to one, nor is True read as 1."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A Python or numpy real number as float; text is never parsed, nor is True read as 1.0."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range, which every range check refuses as inf
            return math.inf if value > 0 else -math.inf
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _count(value, name: str, low: int = 0) -> int:
    """An integer no smaller than ``low``: a level, step count, seed or size."""
    value = _integer(value, name)
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _finite(value, name: str) -> float:
    """A finite real number as float."""
    x = _real(value, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _order(N) -> int:
    """The order N of a basis, table or oscillator as a positive int."""
    N = _integer(N, "N")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    return N


def _probability(p) -> float:
    """The weight parameter p as a float strictly between 0 and 1."""
    p = _real(p, "p")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    return p


def _spacing(epsilon) -> float:
    """The lattice spacing epsilon as a positive, finite float."""
    epsilon = _real(epsilon, "epsilon")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return epsilon


def _step(tau) -> float:
    """The time step tau as a finite, nonzero float."""
    tau = _real(tau, "tau")
    if tau == 0.0 or not math.isfinite(tau):
        raise ValueError(f"tau must be finite and nonzero, got {tau}")
    return tau


def _angle(beta) -> float:
    """The rotation angle beta as a float strictly between 0 and pi."""
    beta = _real(beta, "beta")
    if not 0.0 < beta < math.pi:
        raise ValueError(f"beta must lie strictly between 0 and pi, got {beta}")
    return beta


def _array(value, name: str, shape, dtype=float, scalar: bool = False) -> np.ndarray:
    """``value`` as a finite ndarray of ``dtype``, float or complex, by the array rule above.

    ``shape`` gives each length, None for any length >= 1, or is None for any
    shape; with ``scalar`` a number is a one-entry array.  ``name`` heads each error.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in ("iuf" if dtype is float else "iufc"):
        X = value.astype(dtype, copy=False)
    else:
        kind, number = ("real", numbers.Real) if dtype is float else ("complex", numbers.Complex)
        if isinstance(value, np.ndarray) and value.dtype.kind != "O":
            raise ValueError(f"{name} entries must be {kind} numbers, got dtype {value.dtype}")
        X = np.asarray(value, dtype=object)
        # one pass over the entries' types; the entries are searched only to name a bad one
        bad = {t for t in set(map(type, X.flat)) if not issubclass(t, number) or issubclass(t, bool)}
        if bad:
            entry = next(v for v in X.flat if type(v) in bad)
            raise ValueError(f"{name} entries must be {kind} numbers, got {entry!r}")
        try:
            X = X.astype(dtype)
        except OverflowError:  # an int past the float range
            raise ValueError(f"{name} has non-finite entries") from None
    if scalar and X.ndim == 0:
        X = X.reshape(1)
    if shape is not None and X.shape != shape and (
            X.ndim != len(shape) or any(m < 1 if n is None else m != n for n, m in zip(shape, X.shape))):
        raise ValueError(f"{name} shape {X.shape} does not match {str(shape).replace('None', '>=1')}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} has non-finite entries")
    return X


def _field(data: dict, key: str, convert):
    """``convert(data[key])``; a missing or malformed field is a ValueError naming it."""
    if key not in data:
        raise ValueError(f'missing "{key}" field')
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f'"{key}" field: {exc}') from None


def complex_array(data: dict) -> np.ndarray:
    """Complex array from the "re" and "im" blocks of a JSON object.

    Each block is a JSON array.  "im" may be omitted for a real array; when
    present it must have the shape of "re", so that a short block is never
    broadcast.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")

    def floats(block, shape=None):
        if not isinstance(block, list):
            raise ValueError(f"expected a JSON array, got {type(block).__name__}")
        return _array(block, "block", shape)

    re = _field(data, "re", floats)
    im = _field(data, "im", lambda block: floats(block, re.shape)) if "im" in data else 0.0
    return re + 1j * im


@dataclass(frozen=True)
class LatticeState:
    """Complex amplitudes on N lattice sites with spacing epsilon.

    Immutable: the amplitude array is copied on construction and marked
    read-only, so states can be shared freely between threads.

    Parameters
    ----------
    amplitudes : sequence of complex
        The values f_0 .. f_{N-1}, N >= 1.
    epsilon : float
        Lattice spacing, strictly positive and finite.
    """

    amplitudes: np.ndarray
    epsilon: float

    def __post_init__(self):
        amp = np.array(_array(self.amplitudes, "amplitudes", (None,), complex))
        eps = _spacing(self.epsilon)
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "epsilon", eps)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """JSON object with keys "epsilon", "re", "im" (lossless for doubles)."""
        return json.dumps(
            {
                "epsilon": self.epsilon,
                "re": self.amplitudes.real.tolist(),
                "im": self.amplitudes.imag.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LatticeState":
        data = json.loads(text)
        return cls(complex_array(data), _field(data, "epsilon", _spacing))

