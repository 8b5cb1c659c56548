"""The one way an output file lands: whole, UTF-8, with the newlines it was given.

Every file the package writes goes through ``write_file``, so a crash or a
failed write never leaves a truncated report, snapshot or cache entry, and
line endings are the same on every platform.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import Iterable


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and a rename.

    The parent directory is made first. Nothing translates newlines. On any
    failure the temp file is removed and ``path`` keeps what it held before.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, "utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """A header and rows as CSV text, each line ended by ``\\r\\n`` as ``csv.writer`` writes it."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
