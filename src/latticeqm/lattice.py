"""States on a one-dimensional lattice and the elementary difference operators.

A state is a finite sequence of complex amplitudes f_0 .. f_{N-1} together with
the lattice spacing epsilon.  The inner product is plain summation,
sum_j conj(a_j) b_j, with no spacing weight.  Position acts by multiplication
with the site coordinate j*epsilon; derivatives are replaced by the forward,
backward and mean difference operators defined below.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .report import write_csv


class DifferenceKind(Enum):
    """The elementary difference operators on lattice states."""

    FORWARD = "forward"      # (Df)_j = f_{j+1} - f_j
    BACKWARD = "backward"    # (Df)_j = f_j - f_{j-1}
    MEAN = "mean"            # (Df)_j = (f_{j+1} + f_j) / 2


class BoundaryRule(Enum):
    PERIODIC = "periodic"
    ZERO_PADDED = "zero-padded"


def complex_array(data: dict) -> np.ndarray:
    """Complex array from the "re" and "im" blocks of a JSON object.

    "im" may be omitted for a real array; when present it must have the
    shape of "re", so that a short block is never broadcast.
    """
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
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
        Lattice spacing, strictly positive.
    """

    amplitudes: np.ndarray
    epsilon: float

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a non-empty one-dimensional sequence")
        eps = float(self.epsilon)
        if not eps > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "epsilon", eps)

    @property
    def n_sites(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        """Euclidean norm, the square root of the summation inner product with itself."""
        return float(np.linalg.norm(self.amplitudes))

    def positions(self) -> np.ndarray:
        """Site coordinates j*epsilon for j = 0 .. N-1."""
        return np.arange(self.n_sites) * self.epsilon

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
        return cls(complex_array(data), float(data["epsilon"]))

    def to_csv(self) -> str:
        """CSV table with header ``j,re,im``, one row per site."""
        amp = self.amplitudes
        out = io.StringIO()
        write_csv(out, "j,re,im", np.column_stack((np.arange(amp.size), amp.real, amp.imag)).tolist())
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, epsilon: float) -> "LatticeState":
        """Parse the ``j,re,im`` table; the spacing is not stored in CSV."""
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("j,"):
                continue
            j, re, im = line.split(",")
            rows.append((int(j), float(re), float(im)))
        rows.sort()
        if [j for j, _, _ in rows] != list(range(len(rows))):
            raise ValueError("CSV rows must cover j = 0..N-1 exactly once")
        values = np.array([re + 1j * im for _, re, im in rows])
        return cls(values, epsilon)


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
    v = f.amplitudes
    if kind is DifferenceKind.FORWARD:
        out = _shifted(v, +1, boundary) - v
    elif kind is DifferenceKind.BACKWARD:
        out = v - _shifted(v, -1, boundary)
    elif kind is DifferenceKind.MEAN:
        out = 0.5 * (_shifted(v, +1, boundary) + v)
    else:  # pragma: no cover
        raise ValueError(f"unknown difference kind {kind!r}")
    return LatticeState(out, f.epsilon)


def position_apply(f: LatticeState) -> LatticeState:
    """Multiply by the site coordinate: (Xf)_j = j*epsilon*f_j."""
    return LatticeState(f.positions() * f.amplitudes, f.epsilon)
