"""The one CSV table writer behind every table coaglab writes.

Floats and exact rationals are printed with 17 significant digits, so they
parse back to the same double; other cells (integer labels) are printed as
they are.  Files are UTF-8 with LF line endings, so a table's bytes depend
only on its values.
"""

from __future__ import annotations

import csv
from fractions import Fraction


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` to ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            # float first, and no Fraction test for an int label: that test
            # is an ABC instance check, several times slower
            w.writerow([
                f"{float(v):.17g}"
                if isinstance(v, float) or (not isinstance(v, int) and isinstance(v, Fraction))
                else v
                for v in row
            ])
