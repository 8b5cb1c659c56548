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

    The parent directory is made only when the temp file cannot be opened for
    want of it. Nothing translates newlines. On any failure the temp file is
    removed and ``path`` keeps what it held before.
    """
    path = os.fspath(path)
    data = text.encode("utf-8")  # fails before anything is created
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            f = open(tmp, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            f = open(tmp, "wb")
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """A header and rows as CSV text, each line ended by ``\\r\\n`` as ``csv.writer`` writes it."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
