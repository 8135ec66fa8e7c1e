"""Check rows, their one renderer, and the one CSV writer every artifact goes through.

A report is a plain list of ``CheckRow``s, each carrying the measured
residual and the tolerance it was held to.  Status is derived, never stored:
a row passes iff residual <= tolerance, and a report passes iff every row
does.  ``render_checks`` renders a report; every CSV table goes through
``write_csv`` with floats printed to 17 significant digits: a numeric table
(an ``evolve`` trajectory, a spectrum, a basis) by one ``%`` format per row,
a labelled table (a report, ``wigner``) value by value through ``format_float``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def format_float(x: float) -> str:
    """17 significant digits, enough to reconstruct the exact double."""
    return format(float(x), ".17g")


def write_csv(out, header: str, rows) -> None:
    """Stream one CSV table to the text stream ``out``.

    Each row is a sequence of values, and the first row decides the route.
    If it holds no string the table is numeric, and each row is rendered by
    one ``"%.17g,...,%.17g\\n" % tuple(row)``, its format string built once
    per row width.  ``%.17g`` and ``format_float`` both print through
    ``PyOS_double_to_string(x, 'g', 17)``, so the bytes are the same.  In a
    labelled table strings are written as they are and every other value
    goes through ``format_float``, the one call perfbench counts and traces
    on the CSV ``wigner`` op.
    """
    out.write(header + "\n")
    labelled, formats = None, {}
    for row in rows:
        if labelled is None:
            labelled = any(isinstance(v, str) for v in row)
        if labelled:
            out.write(",".join(v if isinstance(v, str) else format_float(v) for v in row) + "\n")
            continue
        line = formats.get(len(row))
        if line is None:
            line = formats[len(row)] = ",".join(["%.17g"] * len(row)) + "\n"
        out.write(line % tuple(row))


@dataclass(frozen=True)
class CheckRow:
    """One check: worst residual, tolerance and a comma-free params label."""

    check: str
    params: str
    residual: float
    tolerance: float

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

    def __str__(self) -> str:
        return f"{self.check:<34} {self.residual:.3e}  tol {self.tolerance:g}  {self.status}  {self.params}"


def json_number(x: float):
    """``x``, or its CSV text ("nan", "inf") where strict JSON has no number for it."""
    return x if math.isfinite(x) else format_float(x)


def render_checks(rows, fmt: str) -> tuple:
    """``(artifact, exit code)`` of a report: one table under the frozen header
    ``check,params,residual,tolerance,status``, or JSON ``{"all_passed", "checks"}``
    with an object of those fields per row.  The code is 1 iff a row fails."""
    header = "check,params,residual,tolerance,status"
    table = [(r.check, r.params, json_number(r.residual), json_number(r.tolerance), r.status) for r in rows]
    code = 0 if all(r.passed for r in rows) else 1
    if fmt == "csv":
        return [(header, table)], code
    return {"all_passed": not code, "checks": [dict(zip(header.split(","), row)) for row in table]}, code
