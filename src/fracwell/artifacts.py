"""On-disk artifacts: atomic writes of text, JSON payloads and CSV columns.

The module knows file formats, not the lab's types: callers name the columns
of each CSV and the keys of each JSON payload.  Every file is written to a
temporary sibling and renamed into place, so a failing run never leaves a
partially written artifact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write through a temporary sibling, with the mode a plain ``open`` gives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else (str(v) if math.isinf(v) else v)  # "inf", "-inf"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def json_text(payload: dict) -> str:
    """The JSON text of a payload: NaN as null, infinities as "inf" and "-inf"."""
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True)


def write_json(path: str | Path, payload: dict) -> None:
    atomic_write_text(path, json_text(payload) + "\n")


def write_csv(path: str | Path, columns: dict[str, Sequence]) -> None:
    """A header of the column names, then one row per index: floats as
    ``.17g``, anything else as it prints."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in zip(*columns.values()):
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    atomic_write_text(path, buf.getvalue())
