"""Check rows and the one CSV writer every artifact goes through.

A report is a plain list of ``CheckRow``s, each carrying the measured
residual and the tolerance it was held to.  Status is derived, never stored:
a row passes iff residual <= tolerance, and a report passes iff every row
does.  Every CSV table the package emits, the report's fixed
``check,params,residual,tolerance,status`` table included, is rendered by
``write_csv`` with floats printed to 17 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass


def format_float(x: float) -> str:
    """17 significant digits, enough to reconstruct the exact double."""
    return format(float(x), ".17g")


def write_csv(out, header: str, rows) -> None:
    """Stream one CSV table to the text stream ``out``.

    Each row is a sequence of values: strings are written as they are, every
    other value through ``format_float``.  Rows of plain Python numbers, as
    ``ndarray.tolist()`` gives them, format fastest.
    """
    out.write(header + "\n")
    for row in rows:
        out.write(",".join(v if isinstance(v, str) else format_float(v) for v in row) + "\n")


@dataclass(frozen=True)
class CheckRow:
    """One check: worst residual, tolerance and a comma-free params label.

    ``fitted_exponent`` is the measured power of (1 + tau^2/4) on involution
    rows and None on every other row.
    """

    check: str
    params: str
    residual: float
    tolerance: float
    fitted_exponent: float | None = None

    def __post_init__(self):
        # commas would break the fixed CSV schema, keep params comma-free
        object.__setattr__(self, "params", str(self.params).replace(",", ";"))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"
