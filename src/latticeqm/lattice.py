"""States on a one-dimensional lattice and the elementary difference operators.

A state is a finite sequence of complex amplitudes f_0 .. f_{N-1} together with
the lattice spacing epsilon.  The inner product is plain summation,
sum_j conj(a_j) b_j, with no spacing weight.  Derivatives are replaced by the
forward, backward and mean difference operators defined below.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DifferenceKind(Enum):
    """The elementary difference operators on lattice states."""

    FORWARD = "forward"      # (Df)_j = f_{j+1} - f_j
    BACKWARD = "backward"    # (Df)_j = f_j - f_{j-1}
    MEAN = "mean"            # (Df)_j = (f_{j+1} + f_j) / 2


class BoundaryRule(Enum):
    PERIODIC = "periodic"
    ZERO_PADDED = "zero-padded"


def _integer(value, name: str) -> int:
    """A Python or numpy integer as int; a float is never truncated to one, nor is True read as 1."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _order(N) -> int:
    """The order N of a basis, table or oscillator as a positive int."""
    N = _integer(N, "N")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    return N


def _probability(p) -> float:
    """The weight parameter p as a float strictly between 0 and 1."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    return p


def _spacing(epsilon) -> float:
    """The lattice spacing epsilon as a positive, finite float."""
    eps = float(epsilon)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return eps


def _field(data: dict, key: str, convert):
    """``convert(data[key])``; a missing or malformed field is a ValueError naming it."""
    if key not in data:
        raise ValueError(f'missing "{key}" field')
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f'"{key}" field: {exc}') from None


_JSON_NUMBERS = {int, float}


def _number(value) -> float:
    """A JSON number as float; text, true and false are not numbers."""
    if type(value) not in _JSON_NUMBERS:
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def complex_array(data: dict) -> np.ndarray:
    """Complex array from the "re" and "im" blocks of a JSON object.

    Each block is a JSON array.  "im" may be omitted for a real array; when
    present it must have the shape of "re", so that a short block is never
    broadcast.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")

    def floats(block):
        if not isinstance(block, list):
            raise ValueError(f"expected a JSON array, got {type(block).__name__}")
        # float() would also parse text and read true as 1.0: every entry must be a JSON number
        entries = np.asarray(block, dtype=object)
        if not set(map(type, entries.flat)) <= _JSON_NUMBERS:
            for value in entries.flat:
                _number(value)  # raises on the first entry that is not a number
        return entries.astype(float)

    re = _field(data, "re", floats)
    im = _field(data, "im", floats) if "im" in data else np.zeros_like(re)
    if re.shape != im.shape:
        raise ValueError(f"re and im blocks differ in shape: {re.shape} vs {im.shape}")
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
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a non-empty one-dimensional sequence")
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        eps = _spacing(self.epsilon)
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "epsilon", eps)

    @property
    def n_sites(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        """Euclidean norm, the square root of the summation inner product with itself."""
        return float(np.linalg.norm(self.amplitudes))

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
        return cls(complex_array(data), _field(data, "epsilon", _number))


def inner_product(a: LatticeState, b: LatticeState) -> complex:
    """Summation inner product sum_j conj(a_j) b_j.

    Antilinear in the first argument, linear in the second.  Both states must
    live on the same lattice (equal site count and spacing).
    """
    if a.n_sites != b.n_sites:
        raise ValueError(f"size mismatch: {a.n_sites} vs {b.n_sites} sites")
    if a.epsilon != b.epsilon:
        raise ValueError(f"spacing mismatch: {a.epsilon} vs {b.epsilon}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _shifted(values: np.ndarray, offset: int, boundary: BoundaryRule) -> np.ndarray:
    """Array g with g_j = f_{j+offset}, out-of-range sites per boundary rule."""
    if boundary is BoundaryRule.PERIODIC:
        return np.roll(values, -offset)
    out = np.zeros_like(values)
    if offset >= 0:
        out[: values.size - offset] = values[offset:]
    else:
        out[-offset:] = values[:offset]
    return out


def apply_difference(
    kind: DifferenceKind,
    f: LatticeState,
    boundary: BoundaryRule = BoundaryRule.PERIODIC,
) -> LatticeState:
    """Apply a difference operator to a state."""
    if not isinstance(kind, DifferenceKind):
        raise ValueError(f"kind must be a DifferenceKind, got {kind!r}")
    if not isinstance(boundary, BoundaryRule):
        raise ValueError(f"boundary must be a BoundaryRule, got {boundary!r}")
    v = f.amplitudes
    if kind is DifferenceKind.FORWARD:
        out = _shifted(v, +1, boundary) - v
    elif kind is DifferenceKind.BACKWARD:
        out = v - _shifted(v, -1, boundary)
    else:
        out = 0.5 * (_shifted(v, +1, boundary) + v)
    return LatticeState(out, f.epsilon)
