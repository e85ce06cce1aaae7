"""File formats: signal CSV, series and morphism manifests, grid CSV, PGM.

Signals are plain-text CSV with one ``re,im`` row per sample.  Series
(.vk) and morphism (.vm) files are JSON manifests with complex data
stored as ``[re, im]`` pairs in row-major order; floats round-trip
bit-exactly through Python's repr.  Grids are CSV matrices with rows in
time order, and heatmaps are binary 8-bit PGM with linear magnitude
scaling normalized to the maximum.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ContractViolation
from .kernels import VolterraKernel, VolterraSeries, zero_pad
from .morphisms import Morphism

__all__ = [
    "read_signal_csv",
    "write_signal_csv",
    "write_grid_csv",
    "read_grid_csv",
    "write_pgm",
    "save_series",
    "load_series",
    "save_morphism",
    "load_morphism",
]


def write_signal_csv(path, signal):
    signal = np.asarray(signal, dtype=np.complex128)
    with open(path, "w") as fh:
        for z in signal:
            fh.write(f"{float(z.real)!r},{float(z.imag)!r}\n")


def _csv_rows(path, kind, width=None) -> list:
    """Float rows of a non-empty ``kind`` CSV file, blank lines skipped, all as wide as
    ``width`` or the first."""
    rows = []
    # undecodable bytes become U+FFFD, which no number parses: a malformed line
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                raise ContractViolation(f"{path}:{line_no}: expected numbers, got {line!r}") from None
            width = width or len(row)
            if len(row) != width:
                raise ContractViolation(f"{path}:{line_no}: expected {width} fields, got {line!r}")
            rows.append(row)
    if not rows:
        raise ContractViolation(f"{path}: empty {kind} file")
    return rows


def read_signal_csv(path) -> np.ndarray:
    rows = _csv_rows(path, "signal", 2)
    return np.asarray(rows).view(np.complex128)[:, 0]  # each (re, im) row is one complex128


def write_grid_csv(path, values):
    """Rows are time samples.  Real grids are written as plain floats;
    complex grids interleave re and im columns."""
    values = np.asarray(values)
    is_real = np.max(np.abs(values.imag)) <= 1e-9 * max(np.max(np.abs(values)), 1e-300)
    with open(path, "w") as fh:
        for row in values:
            if is_real:
                fh.write(",".join(repr(float(v)) for v in row.real))
            else:
                fh.write(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
            fh.write("\n")


def read_grid_csv(path) -> np.ndarray:
    return np.asarray(_csv_rows(path, "grid"))


def write_pgm(path, values):
    """Binary P5 heatmap: linear magnitude scaling, normalized to the max."""
    mags = np.abs(np.asarray(values))
    top = float(mags.max())
    pixels = np.zeros(mags.shape, dtype=np.uint8) if top == 0 else np.clip(
        np.round(mags / top * 255.0), 0, 255
    ).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _pairs(array: np.ndarray) -> list:
    flat = np.asarray(array, dtype=np.complex128).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _from_pairs(path, pairs: list, side, order: int) -> np.ndarray:
    """The [re, im] pairs as a complex tensor of shape (side,) * order.

    Order, side and count are checked before the shape is built, so that no
    order a file holds can reach numpy's axis limit or a huge allocation.
    """
    if not 0 <= order <= 64 or (order and (side is None or side < 1)):  # numpy's axis limit
        raise ContractViolation(f"{path}: there is no order-{order} tensor of side {side}")
    if len(pairs) != (side**order if order else 1):
        raise ContractViolation(
            f"{path}: data holds {len(pairs)} values, an order-{order} tensor of side "
            f"{side} needs {side}**{order}"
        )
    try:
        if not all(type(v) in (int, float) for pair in pairs for v in pair):  # no bools
            raise TypeError
        data = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise ContractViolation(f"{path}: data entries must be [re, im] number pairs") from None
    return data.reshape((side,) * order)


def _field(path, record, key, kind):
    """record[key], which must be present and an instance of ``kind``."""
    if not isinstance(record, dict) or key not in record:
        raise ContractViolation(f"{path}: missing field {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ContractViolation(f"{path}: field {key!r} has the wrong type {type(value).__name__}")
    return value


def _check_index(index):
    if not isinstance(index, (int, str)):
        raise ContractViolation(
            f"only int and str indices are serializable, got {type(index).__name__}"
        )
    return index


def save_series(path, series: VolterraSeries):
    """Write a series manifest; kernels are padded to the common memory."""
    M = series.memory
    entries = []
    for index, kernel in series.kernels.items():
        padded = zero_pad(kernel, M) if kernel.order > 0 else kernel
        entries.append(
            {
                "index": _check_index(index),
                "order": kernel.order,
                "data": _pairs(padded.data),
            }
        )
    manifest = {"version": 1, "memory": M, "kernels": entries}
    with open(path, "w") as fh:
        json.dump(manifest, fh)
        fh.write("\n")


def _load_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        # ValueError covers malformed JSON, bytes that are no UTF-8 and integers
        # past Python's digit limit; RecursionError covers too deep a nesting
        except (ValueError, RecursionError) as exc:
            raise ContractViolation(f"{path}: not a valid manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise ContractViolation(f"{path}: manifest must be a JSON object")
    return manifest


def load_series(path) -> VolterraSeries:
    manifest = _load_manifest(path)
    if _field(path, manifest, "version", int) != 1:
        raise ContractViolation(f"{path}: unsupported series manifest version")
    M = _field(path, manifest, "memory", int)
    kernels = {}
    for entry in _field(path, manifest, "kernels", list):
        order = _field(path, entry, "order", int)
        index = _field(path, entry, "index", (int, str))
        data = _from_pairs(path, _field(path, entry, "data", list), M, order)
        kernels[index] = VolterraKernel(order, M if order else 1, data)
    return VolterraSeries(kernels)


def save_morphism(path, m: Morphism):
    components = []
    for i, target in m.index_map.items():
        components.append(
            {
                "source": _check_index(i),
                "target": _check_index(target),
                "matrix": [[int(v) for v in row] for row in m.matrices[i]],
                "mask_order": int(m.masks[i].ndim),
                "mask": _pairs(m.masks[i]),
            }
        )
    manifest = {"version": 1, "length": m.length, "components": components}
    with open(path, "w") as fh:
        json.dump(manifest, fh)
        fh.write("\n")


def load_morphism(path) -> Morphism:
    manifest = _load_manifest(path)
    if _field(path, manifest, "version", int) != 1:
        raise ContractViolation(f"{path}: unsupported morphism manifest version")
    L = _field(path, manifest, "length", (int, type(None)))
    index_map, matrices, masks = {}, {}, {}
    for comp in _field(path, manifest, "components", list):
        i = _field(path, comp, "source", (int, str))
        index_map[i] = _field(path, comp, "target", (int, str))
        matrices[i] = _field(path, comp, "matrix", list)
        order = _field(path, comp, "mask_order", int)
        masks[i] = _from_pairs(path, _field(path, comp, "mask", list), L, order)
    try:
        return Morphism(index_map, matrices, masks)
    except ContractViolation as exc:
        raise ContractViolation(f"{path}: {exc}") from None
