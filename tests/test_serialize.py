import io
import json

import numpy as np
import pytest

from qreset.serialize import (
    CSV_HEADER,
    ObservableRecord,
    RecordWriter,
    csv_line,
    document_to_matrix,
    format_float,
    jsonl_line,
    load_matrix,
    load_quantum_system,
    parse_records_csv,
    save_matrix,
    write_json,
)


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

    def test_jsonl_writer_matches_line(self):
        recs = [
            ObservableRecord(r=0.1, alpha=0.0, entropy=1.0 / 3.0, fidelity=0.65),
            ObservableRecord(r=2.0, alpha=1.0, t=0.7, concurrence=0.25),
        ]
        buf = io.StringIO()
        w = RecordWriter(buf, "jsonl")
        for rec in recs:
            w.write(rec)
        assert w.count == 2
        assert buf.getvalue() == "".join(jsonl_line(rec) + "\n" for rec in recs)
        assert jsonl_line(recs[1]) == (
            '{"r": 2, "alpha": 1, "t": 0.69999999999999996, "concurrence": 0.25}'
        )

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


class TestWriteJson:
    def test_layout_of_every_value_type(self):
        buf = io.StringIO()
        m = np.array([[0.25, 1j / 3.0], [-1j / 3.0, 0.75]])
        write_json(
            [("dim", 2), ("count", np.int64(7)), ("x", 0.1), ("y", np.float64(2.0)),
             ("name", 'a "b"'), ("ok", True), ("no", False), ("m", m)],
            buf,
        )
        assert buf.getvalue() == (
            '{"dim": 2, "count": 7, "x": 0.10000000000000001, "y": 2, '
            '"name": "a \\"b\\"", "ok": true, "no": false, '
            '"m": [[0.25, 0], [0, 0.33333333333333331], '
            '[-0, -0.33333333333333331], [0.75, 0]]}\n'
        )
        doc = json.loads(buf.getvalue())
        assert doc["ok"] is True and doc["name"] == 'a "b"'

    def test_one_write_per_key_and_value(self):
        class Recorder:
            def __init__(self):
                self.chunks = []

            def write(self, text):
                self.chunks.append(text)

        rec = Recorder()
        write_json([("a", 1.0), ("ness_matrix", np.eye(16, dtype=complex))], rec)
        pairs = ", ".join(
            "[1, 0]" if i == j else "[0, 0]" for i in range(16) for j in range(16)
        )
        assert rec.chunks == ['{"a": ', "1", ', "ness_matrix": ', f"[{pairs}]", "}\n"]

    def test_rejects_unknown_value_type(self):
        with pytest.raises(TypeError):
            write_json([("x", object())], io.StringIO())


class TestMatrixInterchange:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "m.json"
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path), m)

    def test_document_shape(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(np.array([[1.0, 0.5j], [-0.5j, 1.0 / 3.0]]), path)
        assert path.read_text() == (
            '{"dim": 2, "matrix": [[1, 0], [0, 0.5], [-0, -0.5], '
            '[0.33333333333333331, 0]]}\n'
        )
        doc = json.loads(path.read_text())
        assert doc["dim"] == 2
        assert doc["matrix"] == [[1, 0], [0, 0.5], [0, -0.5], [1.0 / 3.0, 0]]

    def test_round_trip_integer_valued_subnormal_and_extreme_entries(self, tmp_path):
        tiny = 5e-324  # smallest subnormal
        m = np.array(
            [
                [1.0, 2.0**53 + 2.0, -3.0, 1e16],
                [tiny, -tiny * 3, 2.2250738585072009e-308, 1e-310],
                [1.7976931348623157e308, -1e300, 123456789012345678.0, 0.1],
                [1.0 / 3.0, -2.0 / 3.0, 1e20, 0.0],
            ]
        ) + 1j * np.array(
            [
                [0.0, -7.0, tiny, 4.9e-320],
                [1e22, 2.0**-1074, -1.0, 1e-5],
                [3.0, 0.0, 2.0**60, -1e-300],
                [np.pi, -np.e, 1e15 + 0.5, 9007199254740993.0],
            ]
        )
        path = tmp_path / "m.json"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.dtype == complex and back.shape == (4, 4)
        # bit for bit (m holds no negative zero, whose sign "-0" does not keep)
        assert np.array_equal(back.view(np.int64), m.view(np.int64))

    def test_save_rejects_what_load_would_reject(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.zeros((2, 3)), tmp_path / "m.json")
        with pytest.raises(ValueError):
            save_matrix(np.array([[np.nan]]), tmp_path / "m.json")

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
