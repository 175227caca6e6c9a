import io
import json

import numpy as np
import pytest

from qreset.serialize import (
    CSV_HEADER,
    RecordWriter,
    csv_line,
    document_to_matrix,
    format_float,
    jsonl_line,
    load_matrix,
    load_quantum_system,
    matrix_to_document,
    parse_records_csv,
    save_matrix,
)
from qreset.sweep import ObservableRecord


class TestFloatFormatting:
    def test_lossless_round_trip(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
            assert float(format_float(x)) == x

    def test_seventeen_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"


class TestRecordLines:
    def test_csv_blank_for_absent_fields(self):
        rec = ObservableRecord(r=1.0, alpha=0.5, entropy=0.25)
        assert csv_line(rec) == "1,0.5,,0.25,,,"

    def test_jsonl_skips_absent_fields(self):
        rec = ObservableRecord(r=1.0, alpha=0.5, fidelity=0.375)
        line = jsonl_line(rec)
        obj = json.loads(line)
        assert obj == {"r": 1.0, "alpha": 0.5, "fidelity": 0.375}

    def test_writer_counts_and_headers(self):
        buf = io.StringIO()
        w = RecordWriter(buf, "csv")
        w.write(ObservableRecord(r=1.0, alpha=0.0, fidelity=0.65))
        assert w.count == 1
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1,0,,")

    def test_writer_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            RecordWriter(io.StringIO(), "xml")

    def test_csv_round_trip(self):
        recs = [
            ObservableRecord(r=0.1, alpha=0.0, entropy=1.0 / 3.0, fidelity=0.65),
            ObservableRecord(r=2.0, alpha=1.0, t=0.7, concurrence=0.25),
        ]
        buf = io.StringIO()
        w = RecordWriter(buf, "csv")
        for rec in recs:
            w.write(rec)
        assert parse_records_csv(buf.getvalue()) == recs


class TestMatrixInterchange:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "m.json"
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path), m)

    def test_document_shape(self):
        doc = matrix_to_document(np.eye(2, dtype=complex))
        assert doc["dim"] == 2
        assert doc["matrix"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            document_to_matrix({"dim": 2})

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            document_to_matrix({"dim": 0, "matrix": []})
        with pytest.raises(ValueError):
            document_to_matrix({"dim": "2", "matrix": []})

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError):
            document_to_matrix({"dim": 2, "matrix": [[1.0, 0.0]]})

    def test_rejects_malformed_entry(self):
        doc = {"dim": 1, "matrix": [[1.0]]}
        with pytest.raises(ValueError):
            document_to_matrix(doc)
        doc = {"dim": 1, "matrix": [["a", "b"]]}
        with pytest.raises(ValueError):
            document_to_matrix(doc)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            document_to_matrix({"dim": 1, "matrix": [[float("inf"), 0.0]]})

    def test_rejects_boolean_dim_and_entries(self):
        # JSON true/false load as bool, a subclass of int
        with pytest.raises(ValueError):
            document_to_matrix({"dim": True, "matrix": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            document_to_matrix({"dim": 1, "matrix": [[True, False]]})
        with pytest.raises(ValueError):
            document_to_matrix({"dim": 1, "matrix": [[1.0, False]]})

    def test_rejects_integer_beyond_float_range(self):
        with pytest.raises(ValueError):
            document_to_matrix({"dim": 1, "matrix": [[10**400, 0]]})

    def test_accepts_integer_entries(self):
        m = document_to_matrix({"dim": 1, "matrix": [[2, -1]]})
        assert m[0, 0] == 2.0 - 1.0j

    def test_load_quantum_system_validates(self, tmp_path):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        save_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), hpath)
        save_matrix(np.diag([1.0, 0.0]).astype(complex), rpath)
        with pytest.raises(ValueError):
            load_quantum_system(hpath, rpath)  # non-Hermitian H

    def test_load_quantum_system_ok(self, tmp_path):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        save_matrix(np.diag([1.0, -1.0]).astype(complex), hpath)
        save_matrix(np.diag([0.25, 0.75]).astype(complex), rpath)
        sys = load_quantum_system(hpath, rpath)
        assert sys.dim == 2
