"""Every output format: observable records (CSV / JSON lines), JSON
reports and the matrix interchange format.

Floats are printed with 17 significant digits so every value round-trips
losslessly and identical invocations produce byte-identical files.
``write_json`` writes every JSON object: a report, a JSON-lines record and
an interchange document alike.

Matrix interchange document (JSON):

    {"dim": 4, "matrix": [[re, im], [re, im], ...]}

with exactly dim*dim [real, imaginary] pairs in row-major order.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, fields

import numpy as np

from .cmatrix import as_cmatrix
from .reset_core import QuantumSystem


@dataclass
class ObservableRecord:
    """One output row; fields not requested stay None."""

    r: float
    alpha: float
    t: float | None = None
    entropy: float | None = None
    fidelity: float | None = None
    purity: float | None = None
    concurrence: float | None = None


FIELD_NAMES = tuple(f.name for f in fields(ObservableRecord))
CSV_HEADER = ",".join(FIELD_NAMES)


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _json_value(v) -> str:
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.floating):
        return format_float(float(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, np.ndarray):
        # a complex matrix: its entries as row-major [re, im] pairs
        cells = ", ".join(
            f"[{format_float(float(z.real))}, {format_float(float(z.imag))}]"
            for z in v.reshape(-1)
        )
        return "[" + cells + "]"
    raise TypeError(f"unsupported JSON value {v!r}")


def write_json(pairs, stream) -> None:
    """Write the (key, value) ``pairs`` as one line ``{"key": value, ...}``.

    Values may be floats, ints, bools, strings or complex matrices.  One
    write per value: a d = 256 ness_matrix is a 3 MB string, and joining
    the line first would hold several copies of it at once.
    """
    sep = "{"
    for k, v in pairs:
        stream.write(f'{sep}"{k}": ')
        stream.write(_json_value(v))
        sep = ", "
    stream.write("}\n")


def _present_fields(rec: ObservableRecord) -> list[tuple[str, float]]:
    return [(name, v) for name in FIELD_NAMES if (v := getattr(rec, name)) is not None]


def csv_line(rec: ObservableRecord) -> str:
    cells = []
    for name in FIELD_NAMES:
        v = getattr(rec, name)
        cells.append("" if v is None else format_float(v))
    return ",".join(cells)


def jsonl_line(rec: ObservableRecord) -> str:
    """The record as a JSON object without its newline; absent fields are
    left out."""
    buf = io.StringIO()
    write_json(_present_fields(rec), buf)
    return buf.getvalue()[:-1]


class RecordWriter:
    """Writes records to a text stream in the chosen format."""

    def __init__(self, stream, fmt: str = "csv"):
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
        self.stream = stream
        self.fmt = fmt
        self.count = 0
        if fmt == "csv":
            stream.write(CSV_HEADER + "\n")

    def write(self, rec: ObservableRecord) -> None:
        if self.fmt == "csv":
            self.stream.write(csv_line(rec) + "\n")
        else:
            write_json(_present_fields(rec), self.stream)
        self.count += 1


def parse_records_csv(text: str) -> list[ObservableRecord]:
    """Inverse of the CSV writer (used for round-trip checks)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(FIELD_NAMES):
            raise ValueError(f"expected {len(FIELD_NAMES)} cells, got {len(cells)}")
        kwargs = {
            name: (float(c) if c != "" else None)
            for name, c in zip(FIELD_NAMES, cells)
        }
        out.append(ObservableRecord(**kwargs))
    return out


def document_to_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    if "dim" not in doc or "matrix" not in doc:
        raise ValueError("matrix document needs 'dim' and 'matrix' fields")
    dim = doc["dim"]
    # exact types, not isinstance: JSON true/false load as bool, an int subclass
    if type(dim) is not int or dim < 1:
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    entries = doc["matrix"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ValueError(f"'matrix' must hold exactly dim^2 = {dim * dim} entries")
    flat = np.empty(dim * dim, dtype=complex)
    try:
        for k, pair in enumerate(entries):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or type(pair[0]) not in (int, float)
                or type(pair[1]) not in (int, float)
            ):
                raise ValueError(f"entry {k} is not a [re, im] pair: {pair!r}")
            flat[k] = complex(pair[0], pair[1])
    except OverflowError:
        raise ValueError(f"entry {k} holds an integer too large for a float") from None
    m = flat.reshape(dim, dim)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def save_matrix(m: np.ndarray, path) -> None:
    """Write a square, finite matrix as an interchange document."""
    m = as_cmatrix(m)
    with open(path, "w") as f:
        write_json([("dim", m.shape[0]), ("matrix", m)], f)


def load_matrix(path) -> np.ndarray:
    with open(path) as f:
        return document_to_matrix(json.load(f))


def load_quantum_system(hamiltonian_path, rho0_path) -> QuantumSystem:
    """Build a validated system from two interchange documents."""
    return QuantumSystem(load_matrix(hamiltonian_path), load_matrix(rho0_path))
