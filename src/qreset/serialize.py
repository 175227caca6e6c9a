"""Every output format: observable tables (CSV / JSON lines), JSON reports
and the matrix interchange format.

Floats are printed with 17 significant digits so every value round-trips
losslessly and identical invocations produce byte-identical files.
``write_json`` writes every JSON report and interchange document, and
``write_table`` every observable table.

The table and matrix writers format each distinct magnitude once: one
argsort of the values' bit patterns with the sign bit cleared finds them (a
neighbour compare of the sorted patterns marks each first one, and a cumsum
of the marks, scattered back through the sort, gives every value the index
of its magnitude), each is printed with ``"%.17g"``, and a value whose sign
bit is set takes its magnitude's string behind a ``"-"``.  The bytes are
those of ``format_float`` on every value: equal bits print equal strings,
and ``%.17g`` of a finite double is the string of its magnitude with a
leading ``-`` exactly when the sign bit is set (-0.0 prints ``-0``).  Most
printed values repeat (Hermitian pairs and symmetries in a stationary
matrix, tiled grid columns in a table), so the per-value cost of ``%.17g``
is paid per distinct magnitude.

Matrix interchange document (JSON):

    {"dim": 4, "matrix": [[re, im], [re, im], ...]}

with exactly dim*dim [real, imaginary] pairs in row-major order.  The
loader raises ValueError (exit 4 from the command line) on a document that
is not such an object, on a 'dim' that is not a positive JSON integer, on
the wrong number of entries, on an entry that is not a two-element pair, on
a part that is not a JSON number (true/false included), on an integer
beyond float range, on a non-finite value (1e999 loads as inf) and on one
nested too deeply for the parser to recurse into.  Each entry fault but a
non-finite value names the index of the first bad entry.
A system built from two documents then checks the Hamiltonian is Hermitian,
relative to its largest entry, and the state a density matrix.

``load_matrix`` parses and checks a document with the cyclic collector
paused.  A d = 256 document parses to about 65k lists, whose allocation
would otherwise start collector passes over them; it holds no reference
cycles, so refcounting frees it, before the collector resumes.  The
caller's collector state is restored however the load ends.  It reads the
document as bytes, so ``json.loads`` detects its encoding (UTF-8, -16 or
-32, as RFC 8259 expects; a UTF-8 byte order mark is skipped) whatever the
locale.
"""

from __future__ import annotations

import gc
import json
import math
from itertools import chain

import numpy as np

from .cmatrix import as_cmatrix
from .reset_core import QuantumSystem


# the columns of an observable table, in output order
FIELD_NAMES = ("r", "alpha", "t", "entropy", "fidelity", "purity", "concurrence")
CSV_HEADER = ",".join(FIELD_NAMES)
# table rows formatted per write_table chunk; a chunk's strings are held at
# once, a traced peak of about 1 MB for 1024 rows of six distinct columns
_WRITE_ROWS = 1024
# every bit of a float64 but its sign
_MAGNITUDE = np.uint64(2**63 - 1)


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _formatted(values: np.ndarray) -> tuple:
    """format_float of each value of a finite float64 array, in C order,
    formatting each distinct magnitude once (see the module docstring); a
    tuple, for "%" to take directly."""
    flat = values.ravel()
    bits = flat.view(np.uint64) & _MAGNITUDE
    order = bits.argsort()
    bits = bits[order]
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    magnitudes = bits[first].view(float)
    # each sorted value's rank among the magnitudes, in the sorted bits'
    # buffer, scattered back to the values' order
    ranks = first.cumsum(out=bits.view(np.int64))
    del first
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    del order, bits, ranks
    # one "%" over a joined template; no formatted float holds a comma
    strings = ("%.17g," * magnitudes.size % tuple(magnitudes.tolist())).split(",")
    strings.pop()  # the empty string after the last comma
    strings = np.array(strings, dtype=object)[inverse]
    negative = np.signbit(flat)
    if negative.any():
        strings[negative] = "-" + strings[negative]
    return tuple(strings)


# one matrix entry, from two strings of _formatted
_PAIR = "[%s, %s]"


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
        # a complex matrix: its entries as row-major [re, im] pairs, by one
        # template over the flat real and imaginary parts
        parts = _formatted(np.ravel(v.astype(complex, copy=False)).view(float))
        return ("[" + ", ".join([_PAIR] * (len(parts) // 2)) + "]") % parts
    raise TypeError(f"unsupported JSON value {v!r}")


def _is_finite(v) -> bool:
    if isinstance(v, np.ndarray):
        return bool(np.isfinite(v).all())
    return not isinstance(v, (float, np.floating)) or math.isfinite(v)


def write_json(pairs, stream) -> None:
    """Write the (key, value) ``pairs`` as one line ``{"key": value, ...}``.

    Values may be floats, ints, bools, strings or complex matrices.  A
    non-finite number has no JSON form: it raises ValueError before any byte
    is written.  One write per value: a d = 256 ness_matrix is a 3 MB
    string, and joining the line first would hold several copies of it at
    once.
    """
    pairs = list(pairs)
    for k, v in pairs:
        if not _is_finite(v):
            raise ValueError(f"{k} is not finite, and JSON has no such number")
    sep = "{"
    for k, v in pairs:
        stream.write(f'{sep}"{k}": ')
        stream.write(_json_value(v))
        sep = ", "
    stream.write("}\n")


def write_table(table, stream, fmt: str = "csv") -> None:
    """Write an observable table, a dict of equal-length float columns keyed
    by names from FIELD_NAMES, one line per row: CSV under the full header
    with absent columns blank, or JSON lines with the present fields only.

    Values print as format_float prints them.  Rows go out in chunks of
    ``_WRITE_ROWS``: the chunk's columns are assigned one by one into a
    row-major array, formatted by ``_formatted`` (each distinct magnitude
    once, bytes equal to format_float's), and written by one "%" over the
    row template repeated for the chunk.  A non-finite value or columns of
    unequal length raise ValueError, naming the column, before any byte is
    written."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    names = [name for name in FIELD_NAMES if name in table]
    if len(names) != len(table):
        raise ValueError(f"table columns must be from {FIELD_NAMES}, got {tuple(table)}")
    columns = [np.asarray(table[name], dtype=float) for name in names]
    if len({c.shape for c in columns}) > 1:
        lengths = ", ".join(f"{name}: {c.size}" for name, c in zip(names, columns))
        raise ValueError(f"table columns must be of equal length, got {lengths}")
    for name, c in zip(names, columns):
        if not np.isfinite(c).all():
            k = int(np.argmax(~np.isfinite(c)))
            raise ValueError(f"{name} is not finite at row {k}: {c[k]}")
    if fmt == "csv":
        stream.write(CSV_HEADER + "\n")
        row = ",".join("%s" if name in table else "" for name in FIELD_NAMES)
    else:
        row = "{" + ", ".join(f'"{name}": %s' for name in names) + "}"
    row += "\n"
    n = len(columns[0]) if columns else 0
    for start in range(0, n, _WRITE_ROWS):
        chunk = np.empty((min(n - start, _WRITE_ROWS), len(columns)))
        for k, c in enumerate(columns):
            chunk[:, k] = c[start:start + _WRITE_ROWS]
        stream.write(row * len(chunk) % _formatted(chunk))


# exact types, not isinstance: JSON true/false load as bool, an int subclass
_PAIR_TYPES = {list, tuple}
_NUMBER_TYPES = {int, float}


def document_to_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    if "dim" not in doc or "matrix" not in doc:
        raise ValueError("matrix document needs 'dim' and 'matrix' fields")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    entries = doc["matrix"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ValueError(f"'matrix' must hold exactly dim^2 = {dim * dim} entries")
    # bulk checks over all entries; the loop that names the bad one runs only
    # on failure
    if not (
        set(map(type, entries)) <= _PAIR_TYPES
        and set(map(len, entries)) == {2}
        and set(map(type, values := list(chain.from_iterable(entries)))) <= _NUMBER_TYPES
    ):
        k = next(k for k, pair in enumerate(entries) if not _is_pair(pair))
        raise ValueError(f"entry {k} is not a [re, im] pair: {entries[k]!r}")
    try:
        flat = np.array(values, dtype=float)
    except OverflowError:
        k = next(k for k, pair in enumerate(entries) if not _fits_float(pair))
        raise ValueError(f"entry {k} holds an integer too large for a float") from None
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix entries must be finite")
    return flat.view(complex).reshape(dim, dim)


def _is_pair(pair) -> bool:
    return (
        type(pair) in _PAIR_TYPES
        and len(pair) == 2
        and type(pair[0]) in _NUMBER_TYPES
        and type(pair[1]) in _NUMBER_TYPES
    )


def _fits_float(pair) -> bool:
    try:
        float(pair[0]), float(pair[1])
    except OverflowError:
        return False
    return True


def save_matrix(m: np.ndarray, path) -> None:
    """Write a square, finite matrix as an interchange document."""
    m = as_cmatrix(m)
    with open(path, "w") as f:
        write_json([("dim", m.shape[0]), ("matrix", m)], f)


def load_matrix(path) -> np.ndarray:
    """Read an interchange document with the cyclic collector paused (see
    the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as f:
            return document_to_matrix(json.loads(f.read()))
    except RecursionError:
        raise ValueError(f"{path}: the document nests too deeply") from None
    finally:
        if enabled:
            gc.enable()


def load_quantum_system(hamiltonian_path, rho0_path) -> QuantumSystem:
    """Build a validated system from two interchange documents."""
    return QuantumSystem(load_matrix(hamiltonian_path), load_matrix(rho0_path))
