import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from qreset import serialize
from qreset.serialize import (
    CSV_HEADER,
    FIELD_NAMES,
    document_to_matrix,
    format_float,
    load_matrix,
    load_quantum_system,
    save_matrix,
    write_json,
    write_table,
)


def table_of(**columns):
    return {name: np.array(values, dtype=float) for name, values in columns.items()}


def written(table, fmt):
    buf = io.StringIO()
    write_table(table, buf, fmt)
    return buf.getvalue()


class TestFloatFormatting:
    def test_lossless_round_trip(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
            assert float(format_float(x)) == x

    def test_seventeen_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"


class TestFormattedValues:
    """serialize._formatted prints each distinct magnitude once; its bytes
    are format_float's on every value."""

    @staticmethod
    def per_value(x):
        return tuple(format_float(v) for v in np.ravel(x).tolist())

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(70).integers(0, 2**64, size=200_000, dtype=np.uint64)
        x = bits.view(float)
        x = x[np.isfinite(x)]
        assert x.size > 199_000
        assert serialize._formatted(x) == self.per_value(x)

    def test_signed_extremes(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                      -1.7976931348623157e308])
        assert serialize._formatted(x) == (
            "0", "-0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
            "1.7976931348623157e+308", "-1.7976931348623157e+308",
        )
        assert serialize._formatted(x) == self.per_value(x)

    def test_repeats_and_negated_repeats(self):
        rng = np.random.default_rng(71)
        pool = rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, size=50)
        x = pool[rng.integers(0, 50, size=(40, 25))] * rng.choice([-1.0, 1.0], size=(40, 25))
        assert serialize._formatted(x) == self.per_value(x)
        assert serialize._formatted(np.full(7, -2.5)) == ("-2.5",) * 7
        assert serialize._formatted(np.empty(0)) == ()


class TestRecordLines:
    """The bytes of write_table, pinned literally."""

    def test_csv_blank_for_absent_fields(self):
        assert written(table_of(r=[1.0], alpha=[0.5], entropy=[0.25]), "csv") == (
            "r,alpha,t,entropy,fidelity,purity,concurrence\n"
            "1,0.5,,0.25,,,\n"
        )

    def test_jsonl_writer_matches_line(self):
        # fields follow FIELD_NAMES, whatever the order of the table's keys
        table = table_of(concurrence=[0.25, 1.0 / 3.0], t=[0.7, 0.0], alpha=[0.0, 1.0],
                         r=[0.1, 2.0])
        assert written(table, "jsonl") == (
            '{"r": 0.10000000000000001, "alpha": 0, "t": 0.69999999999999996, '
            '"concurrence": 0.25}\n'
            '{"r": 2, "alpha": 1, "t": 0, "concurrence": 0.33333333333333331}\n'
        )

    def test_jsonl_skips_absent_fields(self):
        lines = written(table_of(r=[1.0], alpha=[0.5], fidelity=[0.375]), "jsonl").splitlines()
        assert lines == ['{"r": 1, "alpha": 0.5, "fidelity": 0.375}']
        assert json.loads(lines[0]) == {"r": 1.0, "alpha": 0.5, "fidelity": 0.375}

    def test_extreme_values_at_seventeen_digits(self):
        table = table_of(r=[1e308], alpha=[-0.0], entropy=[5e-324], concurrence=[1.0 / 3.0])
        assert written(table, "csv").splitlines()[1] == (
            "1e+308,-0,,4.9406564584124654e-324,,,0.33333333333333331"
        )
        assert written(table, "jsonl") == (
            '{"r": 1e+308, "alpha": -0, "entropy": 4.9406564584124654e-324, '
            '"concurrence": 0.33333333333333331}\n'
        )

    def test_rows_equal_per_value_formatting(self):
        rng = np.random.default_rng(52)
        values = rng.normal(size=(7, 300)) * 10.0 ** rng.integers(-300, 300, size=(7, 300))
        values[:, :6] = [5e-324, -0.0, 0.0, 2.0**60, 1.7976931348623157e308, 1e16]
        table = dict(zip(FIELD_NAMES, values))
        rows = [",".join(format_float(float(v)) for v in row) for row in values.T]
        assert written(table, "csv") == CSV_HEADER + "\n" + "".join(r + "\n" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_chunks_do_not_change_the_bytes(self, monkeypatch, fmt):
        rng = np.random.default_rng(53)
        table = dict(zip(("r", "alpha", "entropy", "concurrence"), rng.normal(size=(4, 300))))
        whole = written(table, fmt)
        for rows in (1, 7, 299, 300):
            monkeypatch.setattr(serialize, "_WRITE_ROWS", rows)
            assert written(table, fmt) == whole

    @staticmethod
    def traced_peak_of_writing(table):
        class Discard:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            write_table(table, Discard(), "csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_bounded_by_the_chunk(self):
        # formatting every row at once would hold all 180000 values as
        # Python floats, about 5.5 MB
        table = {name: np.linspace(0.1, 1.0, 30000)
                 for name in ("r", "alpha", "entropy", "fidelity", "purity", "concurrence")}
        assert self.traced_peak_of_writing(table) < 2 * 2**20

    def test_memory_is_bounded_for_distinct_columns(self):
        # no value repeats, so every string of a chunk is held once per value
        rng = np.random.default_rng(54)
        names = ("r", "alpha", "entropy", "fidelity", "purity", "concurrence")
        table = dict(zip(names, rng.normal(size=(6, 30000))))
        assert np.unique(np.stack(list(table.values()))).size == 180000
        assert self.traced_peak_of_writing(table) < 2 * 2**20

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_signs_and_shared_values_across_a_chunk_boundary(self, fmt):
        # -0.0 beside 0.0 in one column, 0.1 in three columns with both
        # signs, and one row past a chunk boundary
        n = serialize._WRITE_ROWS + 1
        rng = np.random.default_rng(72)
        r = rng.choice([0.0, -0.0, 0.1, -0.1], size=n)
        table = {"r": r, "alpha": -r, "entropy": np.full(n, 0.1),
                 "concurrence": rng.normal(size=n)}
        table["concurrence"][n - 2:] = [-0.0, 0.0]
        strings = [[format_float(v) for v in c.tolist()] for c in table.values()]
        assert "-0" in strings[0] and "0" in strings[0]
        rows = zip(*strings)
        if fmt == "csv":
            expected = CSV_HEADER + "\n" + "".join(
                f"{a},{b},,{e},,,{c}\n" for a, b, e, c in rows)
        else:
            expected = "".join(
                f'{{"r": {a}, "alpha": {b}, "entropy": {e}, "concurrence": {c}}}\n'
                for a, b, e, c in rows)
        assert written(table, fmt) == expected

    def test_writer_counts_and_headers(self):
        lines = written(table_of(r=[1.0, 2.0], alpha=[0.0, 0.0], fidelity=[0.65, 0.5]),
                        "csv").splitlines()
        assert len(lines) == 3
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1,0,,")
        assert written(table_of(r=[], alpha=[]), "csv") == CSV_HEADER + "\n"
        assert written(table_of(r=[], alpha=[]), "jsonl") == ""

    def test_writer_rejects_unknown_format(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="format must be"):
            write_table(table_of(r=[1.0], alpha=[0.0]), buf, "xml")
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("table, message", [
        (table_of(r=[1.0], alpha=[0.0], spin=[0.5]), "table columns must be from"),
        (table_of(r=[1.0, 2.0], alpha=[0.0]),
         "table columns must be of equal length, got r: 2, alpha: 1"),
        (table_of(r=[1.0], alpha=[0.0], entropy=[math.nan]), "entropy is not finite at row 0: nan"),
        (table_of(r=[1.0, 2.0], alpha=[0.0, math.inf]), "alpha is not finite at row 1: inf"),
        # the first bad column in FIELD_NAMES order, at its first bad row
        (table_of(concurrence=[math.nan, 0.0, 0.0], r=[1.0, 2.0, 3.0],
                  alpha=[0.0, -math.inf, math.nan]), "alpha is not finite at row 1: -inf"),
    ])
    def test_rejects_bad_tables_before_writing(self, table, message):
        for fmt in ("csv", "jsonl"):
            buf = io.StringIO()
            with pytest.raises(ValueError) as err:
                write_table(table, buf, fmt)
            assert str(err.value).startswith(message)
            assert buf.getvalue() == ""

    def test_csv_round_trip(self):
        table = table_of(r=[0.1, 2.0, 5e-324], alpha=[0.0, 1.0, 1e308], t=[0.7, 1.0 / 3.0, 0.0],
                         concurrence=[0.25, 2.0 / 3.0, -0.0])
        rows = list(csv.DictReader(io.StringIO(written(table, "csv"))))
        assert len(rows) == 3
        for k, row in enumerate(rows):
            assert list(row) == list(FIELD_NAMES)
            for name in FIELD_NAMES:
                if name in table:
                    back = np.float64(float(row[name]))
                    assert back.view(np.int64) == table[name][k].view(np.int64)
                else:
                    assert row[name] == ""


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

    def test_matrix_bytes_equal_per_value_formatting(self):
        rng = np.random.default_rng(60)
        flat = rng.normal(size=2 * 256 * 256) * 10.0 ** rng.integers(-20, 20, size=2 * 256 * 256)
        special = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -0.0, 0.0,
                   2.0**60, -(2.0**60), 1e16, 1.0 / 3.0, 1.7976931348623157e308, 1.0]
        idx = rng.choice(flat.size, size=(20, len(special)), replace=False)
        flat[idx] = special
        m = flat.view(complex).reshape(256, 256)
        reference = "[" + ", ".join(
            f"[{format_float(float(z.real))}, {format_float(float(z.imag))}]"
            for z in m.reshape(-1)
        ) + "]"
        buf = io.StringIO()
        write_json([("m", m)], buf)
        got, want = buf.getvalue(), '{"m": ' + reference + "}\n"
        # pytest takes minutes to report a failed == of two 3 MB strings:
        # compare the lengths and the first differing index instead
        first = None if got == want else next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        near = slice(max(first or 0, 30) - 30, (first or 0) + 30)
        assert (len(got), first) == (len(want), None), (
            f"first difference at {first}: {got[near]!r} against {want[near]!r}")

    def test_hermitian_matrix_equals_the_per_value_template(self):
        # conjugate pairs: each imaginary part appears with both signs, and
        # the real diagonal gives +0 and -0 imaginary parts
        rng = np.random.default_rng(61)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        m = (a + a.conj().T) / 2
        m.imag[np.diag_indices(64)] = rng.choice([0.0, -0.0], size=64)
        assert np.array_equal(m, m.conj().T) and np.signbit(m.diagonal().imag).any()
        assert (m.imag < 0).sum() == 64 * 63 // 2
        # the per-value template this writer used before formatting each
        # distinct magnitude once
        parts = m.reshape(-1).view(float).tolist()
        reference = "[" + ", ".join(["[%.17g, %.17g]"] * m.size) % tuple(parts) + "]"
        buf = io.StringIO()
        write_json([("m", m)], buf)
        got, want = buf.getvalue(), '{"m": ' + reference + "}\n"
        # pytest takes minutes to report a failed == of two 3 MB strings:
        # compare the lengths and the first differing index instead
        first = None if got == want else next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        near = slice(max(first or 0, 30) - 30, (first or 0) + 30)
        assert (len(got), first) == (len(want), None), (
            f"first difference at {first}: {got[near]!r} against {want[near]!r}")

    def test_real_and_strided_matrices_write_as_complex(self):
        m = np.arange(16.0).reshape(4, 4)
        for a, z in ((m, m.astype(complex)), (m.T, m.T.astype(complex)),
                     (m[::2, ::2], np.ascontiguousarray(m[::2, ::2], dtype=complex))):
            got, want = io.StringIO(), io.StringIO()
            write_json([("m", a)], got)
            write_json([("m", z)], want)
            assert got.getvalue() == want.getvalue()

    def test_rejects_unknown_value_type(self):
        with pytest.raises(TypeError):
            write_json([("x", object())], io.StringIO())

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, np.float64(np.nan),
        np.array([[1.0, 0.0], [0.0, np.inf]]), np.array([[complex(0.0, np.nan)]]),
    ])
    def test_non_finite_value_writes_nothing(self, value):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="^x is not finite"):
            write_json([("a", 1.0), ("x", value), ("b", "c")], buf)
        assert buf.getvalue() == ""


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

    @pytest.mark.parametrize("bad, message", [
        ([1.0], "entry 2 is not a [re, im] pair"),
        ([1.0, 0.0, 0.0], "entry 2 is not a [re, im] pair"),
        ("ab", "entry 2 is not a [re, im] pair"),
        ([1.0, "0"], "entry 2 is not a [re, im] pair"),
        ([None, 0.0], "entry 2 is not a [re, im] pair"),
        (None, "entry 2 is not a [re, im] pair"),
        ([0.0, True], "entry 2 is not a [re, im] pair"),
        ([10**400, 0], "entry 2 holds an integer too large for a float"),
        ([0, -(10**400)], "entry 2 holds an integer too large for a float"),
        ([float("inf"), 0.0], "matrix entries must be finite"),
        ([0.0, float("nan")], "matrix entries must be finite"),
    ])
    def test_rejection_table(self, bad, message):
        entries = [[0.5, 0.0], [0, 1], bad, [0.5, -0.0]]
        with pytest.raises(ValueError) as err:
            document_to_matrix({"dim": 2, "matrix": entries})
        assert str(err.value).startswith(message)

    def test_names_the_first_bad_entry(self):
        entries = [[0.5, 0.0], [1.0], [True, 0], [10**400, 0]]
        with pytest.raises(ValueError, match="^entry 1 is not"):
            document_to_matrix({"dim": 2, "matrix": entries})
        entries = [[0.5, 0.0], [1.0, 10**309], [1.0, 0], [-(10**400), 0]]
        with pytest.raises(ValueError, match="^entry 1 holds an integer"):
            document_to_matrix({"dim": 2, "matrix": entries})

    def test_exponent_beyond_float_range_loads_as_inf_and_is_rejected(self):
        doc = json.loads('{"dim": 1, "matrix": [[1e999, 0]]}')
        assert doc["matrix"][0][0] == float("inf")
        with pytest.raises(ValueError, match="must be finite"):
            document_to_matrix(doc)

    def test_accepts_tuple_pairs(self):
        m = document_to_matrix({"dim": 2, "matrix": [(1, 0.5), [2.0, 0], (0, -1), [3, 4]]})
        assert np.array_equal(m, np.array([[1 + 0.5j, 2], [-1j, 3 + 4j]]))

    def test_integer_entries_convert_as_float_does(self):
        ints = [2**53 + 1, -(2**60) - 1, 10**20 + 7, 2**1023, 3]
        entries = [[ints[k], -ints[4 - k]] for k in range(4)]
        m = document_to_matrix({"dim": 2, "matrix": entries})
        expected = [complex(float(re), float(im)) for re, im in entries]
        assert m.reshape(-1).tolist() == expected

    def test_round_trip_d256_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(256)
        m = rng.normal(size=(256, 256)) * 10.0 ** rng.integers(-300, 300, size=(256, 256))
        m = m + 1j * rng.normal(size=(256, 256))
        path = tmp_path / "m.json"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.shape == (256, 256)
        assert np.array_equal(back.view(np.int64), m.view(np.int64))

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
