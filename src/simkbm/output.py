"""Bit-stable file outputs: snapshots, CSV time series, JSON summaries.

All writers are deterministic: floats are rendered with shortest-roundtrip
repr, JSON keys are sorted, and nothing environment-dependent (timestamps,
hostnames, absolute paths) is embedded, so identical config + seed yields
byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

FORMAT_VERSION = 1


def fmt_float(v) -> str:
    return repr(float(v))


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def write_csv(path, header, columns):
    """Fixed column order, '.' decimal separator, '\\n' terminators."""
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("CSV columns must share their length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def _snapshot_header(kind, t, matrix, meta, config_doc):
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "t": t,
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "dtype": "<f8",
        "order": "row-major",
        "config": config_doc,
    }
    header.update(meta)
    return header


def write_snapshot(path, kind, t, matrix, meta, config_doc, text=False):
    """One JSON header line, then the matrix: raw little-endian doubles, or
    CSV rows in text mode."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=float))
    header = _snapshot_header(kind, float(t), matrix, meta, config_doc)
    header["encoding"] = "csv" if text else "binary"
    header_line = json.dumps(header, sort_keys=True)
    if text:
        with open(path, "w", newline="\n") as fh:
            fh.write(header_line + "\n")
            for row in matrix:
                fh.write(",".join(fmt_float(v) for v in row) + "\n")
    else:
        with open(path, "wb") as fh:
            fh.write(header_line.encode("utf-8") + b"\n")
            fh.write(matrix.astype("<f8").tobytes(order="C"))


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
