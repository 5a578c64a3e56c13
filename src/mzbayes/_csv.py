"""CSV text for the artifacts the package writes."""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with a header row; floats carry 12 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
