"""On-disk artifacts: atomic writes, CSV/JSON emitters for traces, fields,
fibering scans, well-depth samples, and run summaries.

Every file is written to a temporary sibling and renamed into place, so a
failing run never leaves a partially written artifact.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .dynamics import SimTrace
from .grids import GridField
from .variational import WellEstimate

# the trace's columns without the squared rates |u_t|^2, |v_t|^2
TRACE_COLUMNS = tuple(c for c in SimTrace.COLUMNS if c not in ("ut_sq", "vt_sq"))


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
        return None if math.isnan(v) else ("inf" if math.isinf(v) else v)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def write_json(path: str | Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


def _csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_field_csv(path: str | Path, field: GridField) -> None:
    """One row per node: x[,y],value with a mandatory header."""
    header = ["x", "value"] if field.domain.ndim == 1 else ["x", "y", "value"]
    rows = np.column_stack((field.domain.coords, field.values)).tolist()
    atomic_write_text(path, _csv_text(header, rows))


def write_trace_csv(path: str | Path, trace: SimTrace) -> None:
    atomic_write_text(path, _csv_text(TRACE_COLUMNS, zip(*(trace[c] for c in TRACE_COLUMNS))))


def write_fibering_csv(path: str | Path, cols: dict[str, np.ndarray]) -> None:
    """The columns of ``FiberingRay.scan``, one row per eps."""
    header = ("eps", "phi", "psi_consistent", "psi_printed")
    atomic_write_text(path, _csv_text(header, zip(*(cols[c] for c in header))))


def write_well_samples_csv(path: str | Path, estimate: WellEstimate) -> None:
    header = ["label", "eps_star", "phi_at_star"]
    rows = [[s.label, s.eps_star, s.phi_at_star] for s in estimate.samples]
    atomic_write_text(path, _csv_text(header, rows))
