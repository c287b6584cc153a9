"""Snapshot and table serialization.

Spectral snapshots use the `.spec` container: a single JSON header line
(UTF-8, newline-terminated) followed by a flat little-endian float64
payload of interleaved re/im coefficient pairs, one block per field in
header order. CSV output is RFC-4180 with shortest-roundtrip floats so
reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .spectral import Grid, SpectralField

_MAGIC = "driftfluid-spec-v1"


def write_spec(path, fields: dict[str, SpectralField], time: float = 0.0,
               eps: float | None = None) -> None:
    if not fields:
        raise ConfigError("nothing to write")
    grids = {f.grid for f in fields.values()}
    header = {
        "format": _MAGIC,
        "time": float(time),
        "eps": None if eps is None else float(eps),
        "fields": [
            {"name": name, "dims": list(f.grid.shape),
             "axes": list(f.grid.axes), "real": bool(f.real)}
            for name, f in fields.items()
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for f in fields.values():
            # little-endian complex128: the interleaved (re, im) float64
            # pairs themselves, written with no copy on a little-endian host
            fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16"))


def read_spec(path) -> tuple[dict[str, SpectralField], dict]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: not a .spec file ({exc})") from exc
        if header.get("format") != _MAGIC:
            raise ConfigError(f"{path}: unknown format {header.get('format')!r}")
        out = {}
        for entry in header["fields"]:
            grid = Grid(tuple(entry["dims"]), tuple(entry["axes"]))
            n = int(np.prod(entry["dims"]))
            raw = np.frombuffer(fh.read(16 * n), dtype="<f8")
            if raw.size != 2 * n:
                raise ConfigError(f"{path}: truncated payload for {entry['name']}")
            coeffs = (raw[0::2] + 1j * raw[1::2]).reshape(entry["dims"])
            out[entry["name"]] = SpectralField(grid, coeffs, entry["real"])
    return out, header


def format_float(x) -> str:
    return repr(float(x))


def write_csv(path, fieldnames: list[str], rows: Iterable[dict]) -> None:
    """RFC-4180 CSV with deterministic float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: format_float(v) if isinstance(v, (float, np.floating))
                             else v for k, v in row.items()})


def _coerce_scalar(obj):
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json_atomic(path, payload: dict) -> None:
    """Write JSON via a temp file + rename so readers never see a torn file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_coerce_scalar)
        fh.write("\n")
    os.replace(tmp, path)
