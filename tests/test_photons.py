import math
import tracemalloc
from collections import Counter, namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from lidar_anchor import photons
from lidar_anchor.photons import (
    CLASS_CANOPY,
    CLASS_GROUND,
    CLASS_NOISE,
    CLASS_TOP_OF_CANOPY,
    CLEAN_DTYPE,
    CSV_BLOCK_ROWS,
    GROUND_SOURCES,
    PHOTON_DTYPE,
    ClusterParams,
    GroundInterpolator,
    PreprocessParams,
    aggregate_cells,
    clean_photon_table,
    dbscan_cluster,
    enforce_dtm_consistency,
    load_photons,
    normalize_heights,
    landcover_plausibility_filter,
    read_clean_csv,
    write_clean_csv,
    write_photons_csv,
)
from lidar_anchor.raster import GeometryError, LC_BUILDING, LC_ROAD, LC_TREE

from conftest import CleanRow, clean_table, make_height, make_landcover, photon_table
from oracles import (
    aggregate_direct,
    clean_csv_whole,
    dbscan_brute,
    dbscan_pairs,
    idw_direct,
    idw_scan,
    photons_csv_whole,
    read_clean_direct,
)


def photon(pid, x, y, elev, conf=4, klass=CLASS_GROUND, beam=0, t=0.0):
    return (pid, x, y, elev, conf, klass, beam, t)


# a photon after height normalization: its height above ground, its kind
# and the land-cover code under it (None for none)
Norm = namedtuple("Norm", "id x y h_ag kind lc_class")


def norm(pid, x, y, h, kind="object", lc=None):
    return Norm(pid, x, y, h, kind, lc)


def columns(points):
    """Photon table, heights and land-cover codes (-1 for none) of
    normalized points."""
    table = photon_table(
        (p.id, p.x, p.y, 0.0, 4, CLASS_GROUND if p.kind == "ground" else CLASS_TOP_OF_CANOPY,
         0, 0.0)
        for p in points
    )
    h = np.array([p.h_ag for p in points], dtype=np.float64)
    lc = np.array([-1 if p.lc_class is None else p.lc_class for p in points], dtype=np.int64)
    return table, h, lc


def idw(rows, qx, qy, beam=0, **params):
    """GroundInterpolator's elevation at one point, or None where it has none."""
    value, found = GroundInterpolator(photon_table(rows), **params).query(
        np.array([qx]), np.array([qy]), np.array([beam])
    )
    return float(value[0]) if found[0] else None


class TestCsv:
    def test_round_trip(self, tmp_path):
        src = [
            photon(0, 1.25, 2.5, 100.125, 4, CLASS_GROUND, 0, 0.1),
            photon(1, 3.0, 4.0, 101.0, 3, CLASS_TOP_OF_CANOPY, 2, 0.2),
        ]
        write_photons_csv(photon_table(src), tmp_path / "p.csv")
        table = load_photons(tmp_path / "p.csv")
        assert table.dtype == photon_table(src).dtype
        assert table.tolist() == src

    def test_float_precision_survives(self, tmp_path):
        src = [photon(0, 0.1 + 0.2, 1 / 3, math.pi, 4, CLASS_GROUND, 0, 1e-9)]
        write_photons_csv(photon_table(src), tmp_path / "p.csv")
        back = load_photons(tmp_path / "p.csv")[0]
        assert (back["x"], back["y"], back["elev"]) == src[0][1:4]

    def test_header_mismatch(self, tmp_path):
        (tmp_path / "p.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_photons(tmp_path / "p.csv")

    def test_malformed_rows_reported_with_numbers(self, tmp_path):
        lines = [
            "id,x,y,elev,signal_conf,atl08_class,beam,t",
            "0,1.0,2.0,3.0,4,1,0,0.0",
            "1,1.0,2.0,3.0,9,1,0,0.0",  # conf out of range
            "2,1.0,2.0,oops,4,1,0,0.0",  # unparsable elev
            "3,1.0,2.0,3.0,4,1,0",  # missing field
            "0,5.0,6.0,7.0,4,1,0,0.0",  # duplicate id
        ]
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_photons(tmp_path / "p.csv")
        msg = str(err.value)
        for row in ("row 3", "row 4", "row 5", "row 6"):
            assert row in msg

    @pytest.mark.parametrize("conf, klass, want", [
        ("300", "1", "signal_conf=300 outside 0..4"),
        ("4", "-200", "atl08_class=-200 outside 0..3"),
        (str(2**63 - 1), "1", f"signal_conf={2**63 - 1} outside 0..4"),
        # 260 and 257 are 4 and 1 in one byte
        ("260", "1", "signal_conf=260 outside 0..4"),
        ("4", "257", "atl08_class=257 outside 0..3"),
    ])
    def test_codes_too_wide_for_a_byte_are_reported_as_written(self, tmp_path, conf, klass, want):
        lines = [
            "id,x,y,elev,signal_conf,atl08_class,beam,t",
            "0,1.0,2.0,3.0,4,1,0,0.0",
            f"1,1.0,2.0,3.0,{conf},{klass},0,0.0",
        ]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_photons(path)
        assert str(err.value) == f"{path}: 1 malformed rows: row 3: {want}"

    def test_non_finite_values_rejected_with_row_numbers(self, tmp_path):
        lines = [
            "id,x,y,elev,signal_conf,atl08_class,beam,t",
            "0,1.0,2.0,3.0,4,1,0,0.0",
            "1,1.0,2.0,nan,4,1,0,0.0",
            "2,inf,2.0,3.0,4,1,0,0.0",
            "3,1.0,-inf,3.0,4,1,0,0.0",
            "4,1.0,2.0,3.0,4,1,0,nan",
            "5,1.0,2.0,3.0,9,1,0,nan",  # reported for its first problem only
        ]
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_photons(tmp_path / "p.csv")
        msg = str(err.value)
        assert "5 malformed rows" in msg
        for want in ("row 3: elev=nan", "row 4: x=inf", "row 5: y=-inf", "row 6: t=nan",
                     "row 7: t=nan"):
            assert want in msg
        assert "row 2" not in msg

    def test_nan_ground_photon_cannot_erase_objects(self, tmp_path):
        # 100 m tile: 20 ground photons on flat 50 m terrain and 6 returns
        # from a 10 m building; one NaN ground elevation used to turn its
        # neighbours' IDW ground into NaN, and every building return then
        # fell out at the land-cover filter without a count saying why
        dtm = make_height(np.full((10, 10), 50.0), gsd=10.0)
        codes = np.zeros((10, 10), dtype=np.uint8)
        codes[4:6, :] = LC_BUILDING
        lc = make_landcover(codes, gsd=10.0)
        ground = [photon(i, 5.0 * i, 50.0, 50.0) for i in range(20)]
        roofs = [photon(100 + i, 1.0 * i + 7.5, 50.0, 60.0, klass=CLASS_TOP_OF_CANOPY)
                 for i in range(6)]
        clean, _ = clean_photon_table(photon_table(ground + roofs), dtm, lc)
        assert clean["cluster_size"][clean["kind"] == "object"].tolist() == [6]

        ground[2] = photon(2, 10.0, 50.0, float("nan"))
        write_photons_csv(photon_table(ground + roofs), tmp_path / "p.csv")
        with pytest.raises(ValueError, match="row 4: elev=nan is not finite"):
            load_photons(tmp_path / "p.csv")

    def test_clean_round_trip(self, tmp_path):
        src = [
            (1.5, 2.5, 0.0, "ground", 1, 1),
            (3.5, 4.5, 12.25, "object", 4, 7),
        ]
        write_clean_csv(clean_table(src), tmp_path / "c.csv")
        assert read_clean_csv(tmp_path / "c.csv").tolist() == src


_CLEAN_HEADER = "x,y,h_ag,kind,lc_class,cluster_size\r\n"
_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestCleanTable:
    @given(st.lists(st.tuples(_finite, _finite, _finite, st.sampled_from(["ground", "object"]),
                              st.integers(0, 7), st.integers(1, 10**6)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_row_parser(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("clean") / "c.csv"
        write_clean_csv(clean_table(rows), path)
        table = read_clean_csv(path)
        assert table.dtype == clean_table(rows).dtype
        assert table.tolist() == read_clean_direct(path) == [tuple(row) for row in rows]

    @pytest.mark.parametrize("body", [
        # blank lines, LF line ends, spaces around numbers and quoted fields,
        # read as the csv module reads them
        "1.5,2.5,0.0,ground,1,1\r\n\r\n3.5,4.5,12.25,object,4,7\r\n",
        "1.5,2.5,0.0,ground,1,1\n3.5, 4.5 ,12.25,object,4,7\n",
        '"1.5",2.5,0.0,"ground",1,1\r\n',
        "",
    ])
    def test_accepts_what_the_row_parser_accepts(self, tmp_path, body):
        path = tmp_path / "c.csv"
        path.write_bytes((_CLEAN_HEADER + body).encode())
        assert read_clean_csv(path).tolist() == read_clean_direct(path)

    # each malformed body, the row the oracle names first, and what is wrong there
    _MALFORMED = {
        "1.5,2.5,0.0,ground,1,1\r\n3.5,4.5,12.25,objects,4,7\r\n":
            (3, "kind='objects' is not ground or object"),
        "1.5,2.5,0.0, ground,1,1\r\n": (2, "kind=' ground' is not ground or object"),
        "1.5,2.5,0.0,ground,1,1\r\n\r\n3.5,4.5,12.25,object,4\r\n":
            (4, "expected 6 fields, got 5"),
        "1.5,2.5,0.0,ground,1.0,1\r\n":
            (2, "unparsable field in ['1.5', '2.5', '0.0', 'ground', '1.0', '1']"),
        "1.5,abc,0.0,ground,1,1\r\n":
            (2, "unparsable field in ['1.5', 'abc', '0.0', 'ground', '1', '1']"),
        "   \r\n": (2, "expected 6 fields, got 1"),
        # a trailing empty field, which write_clean_csv never writes
        "1.5,2.5,0.0,ground,1,1,\r\n": (2, "expected 6 fields, got 7"),
    }

    @pytest.mark.parametrize("body, lineno", [(b, n) for b, (n, _) in _MALFORMED.items()])
    def test_malformed_row_is_named(self, tmp_path, body, lineno):
        path = tmp_path / "c.csv"
        path.write_bytes((_CLEAN_HEADER + body).encode())
        with pytest.raises(ValueError) as want:
            read_clean_direct(path)
        assert f"malformed row {lineno}:" in str(want.value)
        with pytest.raises(ValueError) as got:
            read_clean_csv(path)
        what = self._MALFORMED[body][1]
        assert str(got.value) == f"{path}: 1 malformed rows: row {lineno}: {what}"

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_a_malformed_row(self, tmp_path, column, value):
        fields = ["3.5", "4.5", "12.25", "object", "4", "7"]
        fields[column] = value
        path = tmp_path / "c.csv"
        path.write_bytes((_CLEAN_HEADER + "1.5,2.5,0.0,ground,1,1\r\n"
                          + ",".join(fields) + "\r\n").encode())
        with pytest.raises(ValueError) as want:
            read_clean_direct(path)
        assert "malformed row 3:" in str(want.value)
        with pytest.raises(ValueError) as got:
            read_clean_csv(path)
        name = CLEAN_DTYPE.names[column]
        assert str(got.value) == f"{path}: 1 malformed rows: row 3: {name}={value} is not finite"

    @pytest.mark.parametrize("text", ["", "x,y,h_ag,kind,lc_class\r\n", "\r\nx,y,h_ag,kind,lc_class,cluster_size\r\n"])
    def test_bad_header(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="bad header"):
            read_clean_direct(path)
        with pytest.raises(ValueError) as got:
            read_clean_csv(path)
        assert str(got.value) == f"{path}: bad header, expected x,y,h_ag,kind,lc_class,cluster_size"


def random_photons(n, seed=0):
    """A ``PHOTON_DTYPE`` table of n rows with random values in every field."""
    rng = np.random.default_rng(seed)
    table = np.zeros(n, dtype=PHOTON_DTYPE)
    table["id"] = rng.permutation(n)
    for name in ("x", "y", "elev", "t"):
        table[name] = rng.normal(0.0, 1e3, n)
    table["signal_conf"] = rng.integers(0, 5, n)
    table["atl08_class"] = rng.integers(0, 4, n)
    table["beam"] = rng.integers(0, 6, n)
    return table


def random_clean(n, seed=0):
    """A ``CLEAN_DTYPE`` table of n rows with random values in every field."""
    rng = np.random.default_rng(seed)
    table = np.zeros(n, dtype=CLEAN_DTYPE)
    for name in ("x", "y", "h_ag"):
        table[name] = rng.normal(0.0, 1e3, n)
    table["kind"] = rng.choice(["ground", "object"], n)
    table["lc_class"] = rng.integers(0, 8, n)
    table["cluster_size"] = rng.integers(1, 10**6, n)
    return table


# Table lengths at block edges: empty, one row, one and four blocks and a
# row either side of them, three and nine blocks with one row in the last.
_BLOCK_EDGES = sorted({0, 1, 2 * CSV_BLOCK_ROWS + 1, 8 * CSV_BLOCK_ROWS + 1}
                      | {k * CSV_BLOCK_ROWS + d for k in (1, 4) for d in (-1, 0, 1)})


class TestCsvBlocks:
    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_photons_csv_matches_the_whole_table_form(self, tmp_path, n):
        table = random_photons(n, seed=n)
        write_photons_csv(table, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == photons_csv_whole(table)

    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_clean_csv_matches_the_whole_table_form(self, tmp_path, n):
        table = random_clean(n, seed=n)
        write_clean_csv(table, tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == clean_csv_whole(table)

    @pytest.mark.parametrize("write, make", [(write_photons_csv, random_photons),
                                             (write_clean_csv, random_clean)])
    def test_memory_does_not_grow_with_the_table(self, tmp_path, write, make):
        peaks = []
        for n in (2 * CSV_BLOCK_ROWS, 8 * CSV_BLOCK_ROWS):
            table = make(n)
            tracemalloc.start()
            try:
                write(table, tmp_path / "t.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], f"peaks {peaks} at 4x the rows"

    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_photons_csv_reads_back_across_blocks(self, tmp_path, n):
        table = random_photons(n, seed=n)
        write_photons_csv(table, tmp_path / "p.csv")
        assert load_photons(tmp_path / "p.csv").tolist() == table.tolist()

    def test_problems_read_as_in_one_block(self, tmp_path, monkeypatch):
        # blank lines, unparsable rows, values out of range and an id
        # repeated two blocks later, in blocks of three lines: the rows are
        # numbered in the file, sorted, the first ten shown
        lines = ["id,x,y,elev,signal_conf,atl08_class,beam,t"]
        lines += [f"{i},1.0,2.0,3.0,4,1,0,0.0" for i in range(12)]
        lines[2] = ""
        lines[4] = "3,1.0,2.0,oops,4,1,0,0.0"
        lines[5] = "4,1.0,2.0,3.0,4,1,0"
        lines[7] = "6,1.0,2.0,3.0,9,1,0,0.0"
        lines[11] = "0,5.0,6.0,7.0,4,1,0,0.0"
        lines += [f"{i},nan,2.0,3.0,4,1,0,0.0" for i in range(20, 30)]
        (tmp_path / "p.csv").write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(ValueError) as whole:
            load_photons(tmp_path / "p.csv")
        monkeypatch.setattr(photons, "CSV_BLOCK_ROWS", 3)
        with pytest.raises(ValueError) as blocked:
            load_photons(tmp_path / "p.csv")
        msg = str(blocked.value)
        assert msg == str(whole.value)
        assert "14 malformed rows" in msg and msg.endswith("(+4 more)")
        for want in ("row 5: unparsable", "row 6: expected 8 fields, got 7",
                     "row 8: signal_conf=9", "row 12: duplicate photon id 0", "row 14: x=nan"):
            assert want in msg
        assert "row 3" not in msg and "row 23" not in msg

    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_clean_csv_reads_back_across_blocks(self, tmp_path, n):
        table = random_clean(n, seed=n)
        write_clean_csv(table, tmp_path / "c.csv")
        got = read_clean_csv(tmp_path / "c.csv")
        assert got.dtype == CLEAN_DTYPE and got.tolist() == table.tolist()

    def test_clean_problem_in_a_later_block_is_named_as_by_the_row_parser(
        self, tmp_path, monkeypatch
    ):
        # blocks of three lines: a blank line in the first, the bad kind
        # in the third block, on file line 9
        rows = ["1.5,2.5,0.0,ground,1,1"] * 9
        rows[1] = ""
        rows[7] = "3.5,4.5,12.25,objects,4,7"
        path = tmp_path / "c.csv"
        path.write_bytes((_CLEAN_HEADER + "\r\n".join(rows) + "\r\n").encode())
        monkeypatch.setattr(photons, "CSV_BLOCK_ROWS", 3)
        with pytest.raises(ValueError) as want:
            read_clean_direct(path)
        assert "malformed row 9:" in str(want.value)
        with pytest.raises(ValueError) as got:
            read_clean_csv(path)
        assert str(got.value) == (
            f"{path}: 1 malformed rows: row 9: kind='objects' is not ground or object"
        )

    def test_clean_problems_read_as_in_one_block(self, tmp_path, monkeypatch):
        # blank lines, unparsable rows, a bad kind and non-finite values,
        # in blocks of three lines: every row is named by its file line,
        # the first ten shown
        rows = [f"{i}.5,2.5,0.0,ground,1,1" for i in range(12)]
        rows[1] = ""
        rows[3] = "3.5,oops,0.0,ground,1,1"
        rows[4] = "4.5,2.5,0.0,ground,1"
        rows[6] = "6.5,2.5,0.0,Ground,1,1"
        rows[7] = "7.5,2.5,0.0,ground,1,1,"
        rows += [f"{i}.5,2.5,inf,object,4,3" for i in range(20, 30)]
        path = tmp_path / "c.csv"
        path.write_bytes((_CLEAN_HEADER + "\r\n".join(rows) + "\r\n").encode())
        with pytest.raises(ValueError) as want:
            read_clean_direct(path)
        assert "malformed row 5:" in str(want.value)
        with pytest.raises(ValueError) as whole:
            read_clean_csv(path)
        monkeypatch.setattr(photons, "CSV_BLOCK_ROWS", 3)
        with pytest.raises(ValueError) as blocked:
            read_clean_csv(path)
        msg = str(blocked.value)
        assert msg == str(whole.value)
        assert msg.startswith(
            f"{path}: 14 malformed rows: "
            "row 5: unparsable field in ['3.5', 'oops', '0.0', 'ground', '1', '1']; "
            "row 6: expected 6 fields, got 5; "
            "row 8: kind='Ground' is not ground or object; "
            "row 9: expected 6 fields, got 7; "
            "row 14: h_ag=inf is not finite; "
        )
        assert msg.endswith("row 19: h_ag=inf is not finite (+4 more)")

    @pytest.mark.parametrize("read, header, row", [
        (load_photons, "id,x,y,elev,signal_conf,atl08_class,beam,t", "{},1.5,2.5,3.5,4,1,0,0.25"),
        (read_clean_csv, "x,y,h_ag,kind,lc_class,cluster_size", "{},2.5,0.0,ground,1,1"),
    ], ids=["photons", "clean"])
    def test_a_byte_that_is_not_utf8_names_the_file(self, tmp_path, monkeypatch, read, header,
                                                    row):
        # in the eleventh row, past the first block of three lines
        text = header + "\r\n" + "".join(row.format(i) + "\r\n" for i in range(12))
        data = bytearray(text.encode())
        data[data.index(b"\r\n10,") + 3] = 0xFF
        path = tmp_path / "t.csv"
        path.write_bytes(bytes(data))
        monkeypatch.setattr(photons, "CSV_BLOCK_ROWS", 3)
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == f"{path}: not UTF-8 text"

    @pytest.mark.parametrize("read, header, row", [
        (load_photons, "id,x,y,elev,signal_conf,atl08_class,beam,t", "{},1.5,2.5,3.5,4,1,0,0.25"),
        (read_clean_csv, "x,y,h_ag,kind,lc_class,cluster_size", "{},2.5,0.0,ground,1,1"),
    ])
    def test_every_line_end_and_blank_lines_read_back(self, tmp_path, monkeypatch, read,
                                                      header, row):
        # the table is allocated for every line and shrunk to the rows: LF,
        # CR and CRLF ends, blank lines, and a last line without its end
        ends = ["\n", "\r", "\r\n", "\r\n\r\n", "\r", "\n\n", ""]
        text = header + "\r" + "".join(row.format(i) + end for i, end in enumerate(ends))
        (tmp_path / "t.csv").write_bytes(text.encode())
        monkeypatch.setattr(photons, "CSV_BLOCK_ROWS", 3)
        got = read(tmp_path / "t.csv")
        assert got[got.dtype.names[0]].tolist() == list(range(len(ends)))

    def test_whitespace_line_is_a_malformed_photon_row(self, tmp_path):
        # only a line holding nothing but its line end is blank
        lines = ["id,x,y,elev,signal_conf,atl08_class,beam,t", "0,1.0,2.0,3.0,4,1,0,0.0",
                 "", "  ", "1,1.0,2.0,3.0,4,1,0,0.0"]
        (tmp_path / "p.csv").write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(ValueError) as err:
            load_photons(tmp_path / "p.csv")
        assert str(err.value).endswith("1 malformed rows: row 4: expected 8 fields, got 1")

    def test_clean_read_memory_is_about_twice_the_table(self, tmp_path):
        table = random_clean(8 * CSV_BLOCK_ROWS)
        write_clean_csv(table, tmp_path / "c.csv")
        tracemalloc.start()
        try:
            got = read_clean_csv(tmp_path / "c.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == table.tolist()
        # one block's strings at a time: about 1.57 times the table, 1.77
        # with two blocks' strings held while the next block is read
        assert peak <= 1.75 * table.nbytes, f"peak {peak} for a {table.nbytes}-byte table"

    def test_read_memory_is_about_twice_the_table(self, tmp_path):
        table = random_photons(8 * CSV_BLOCK_ROWS)
        write_photons_csv(table, tmp_path / "p.csv")
        tracemalloc.start()
        try:
            got = load_photons(tmp_path / "p.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == table.tolist()
        # one block's strings at a time: about 1.75 times the table, 2.04
        # with two blocks' strings held while the next block is read
        assert peak <= 1.95 * table.nbytes, f"peak {peak} for a {table.nbytes}-byte table"


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(eps=float("nan")), dict(eps=float("inf")), dict(eps=0.0), dict(eps=-1.0),
        dict(min_pts=2.5), dict(min_pts=0), dict(min_pts=True),
        dict(height_weight=float("nan")), dict(height_weight=-1.0),
    ])
    def test_bad_cluster_params_rejected(self, kwargs):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be"):
            ClusterParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(dtm_tau=float("nan")), dict(dtm_tau=-1.0),
        dict(cell=float("nan")), dict(cell=float("inf")), dict(cell=0.0),
        dict(idw_k_max=0), dict(idw_k_max=2.5),
        dict(idw_radius=float("nan")), dict(idw_radius=float("inf")), dict(idw_radius=0.0),
        dict(idw_power=float("nan")), dict(idw_power=0.0),
        dict(class_bounds={LC_TREE: (float("nan"), 90.0)}), dict(class_bounds={LC_TREE: (5, 1)}),
    ])
    def test_bad_preprocess_params_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            PreprocessParams(**kwargs)

    def test_edge_values_accepted(self):
        ClusterParams(eps=1e-9, min_pts=1, height_weight=0.0)
        ClusterParams(min_pts=np.int64(4))
        PreprocessParams(dtm_tau=0.0, idw_k_max=1, class_bounds={LC_TREE: (2.0, 2.0)})
        # an infinite tau means the DTM never overrides IDW
        PreprocessParams(dtm_tau=float("inf"))

    def test_nan_idw_parameters_rejected(self):
        ground = photon_table([photon(0, 0.0, 0.0, 1.0)])
        for kwargs in (dict(power=float("nan")), dict(radius=float("nan"))):
            with pytest.raises(ValueError, match="bad IDW parameters"):
                GroundInterpolator(ground, **kwargs)


class TestConfidenceFilter:
    def test_keeps_conf_3_4_and_ground_top(self):
        # the kept top-of-canopy return reaches height normalization and
        # then falls out at the land-cover filter (code 0 has no bounds)
        keep1 = photon(0, 5.0, 5.0, 0.0, 4, CLASS_GROUND)
        keep2 = photon(1, 15.0, 15.0, 5.0, 3, CLASS_TOP_OF_CANOPY)
        drop_conf = photon(2, 25.0, 25.0, 0.0, 2, CLASS_GROUND)
        drop_class = photon(3, 35.0, 35.0, 5.0, 4, CLASS_CANOPY)
        drop_noise = photon(4, 5.0, 35.0, 5.0, 4, CLASS_NOISE)
        dtm = make_height(np.zeros((4, 4)), gsd=10.0)
        lc = make_landcover(np.zeros((4, 4)), gsd=10.0)
        table = photon_table([keep1, keep2, drop_conf, drop_class, drop_noise])
        clean, report = clean_photon_table(table, dtm, lc)
        assert report["counts"]["confidence"] == report["counts"]["normalized"] == 2
        assert clean.tolist() == [(5.0, 5.0, 0.0, "ground", 0, 1)]


class TestIdw:
    def test_two_point_hand_example(self):
        # distances 1 and 2 with elevations 10 and 13 at power 2:
        # (10*1 + 13*0.25) / 1.25 = 10.6
        pts = [
            photon(0, 0.0, 1.0, 10.0),
            photon(1, 0.0, 2.0, 13.0),
        ]
        got = idw(pts, 0.0, 0.0, beam=0, power=2.0)
        assert got == pytest.approx(10.6, abs=1e-12)

    def test_coincident_photon_short_circuits(self):
        pts = [
            photon(0, 5.0, 5.0, 42.0),
            photon(1, 5.0, 6.0, 99.0),
        ]
        assert idw(pts, 5.0, 5.0 + 1e-9, beam=0) == 42.0

    def test_beams_are_isolated(self):
        pts = [
            photon(0, 0.0, 1.0, 10.0, beam=0),
            photon(1, 0.0, 2.0, 99.0, beam=1),
        ]
        assert idw(pts, 0.0, 0.0, beam=0) == pytest.approx(10.0)
        assert idw(pts, 0.0, 0.0, beam=2) is None

    def test_radius_excludes_far_photons(self):
        pts = [photon(0, 0.0, 200.0, 10.0)]
        assert idw(pts, 0.0, 0.0, beam=0, radius=100.0) is None

    def test_k_max_caps_neighbors(self):
        # 3 photons at distance 1 plus one at distance 2; k_max=3 keeps the
        # near ones only (ties by id), so the far elevation never enters
        pts = [
            photon(0, 1.0, 0.0, 10.0),
            photon(1, -1.0, 0.0, 10.0),
            photon(2, 0.0, 1.0, 10.0),
            photon(3, 0.0, 2.0, 99.0),
        ]
        got = idw(pts, 0.0, 0.0, beam=0, k_max=3)
        assert got == pytest.approx(10.0)

    def test_canopy_photons_never_contribute(self):
        pts = [
            photon(0, 0.0, 1.0, 10.0, klass=CLASS_GROUND),
            photon(1, 1.0, 0.0, 500.0, klass=CLASS_TOP_OF_CANOPY),
        ]
        assert idw(pts, 0.0, 0.0, beam=0) == pytest.approx(10.0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            pts = [
                photon(i, float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                       float(rng.normal(100, 5)))
                for i in range(n)
            ]
            qx, qy = float(rng.uniform(0, 50)), float(rng.uniform(0, 50))
            got = idw(pts, qx, qy, beam=0, radius=30.0, k_max=8)
            want = idw_direct(
                [p[:4] for p in pts], qx, qy,
                power=2.0, radius=30.0, k_max=8,
            )
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)


def _scrambled_ids(n):
    # unique ids whose order differs from list order
    return [(i * 7919) % 10007 for i in range(n)]


class TestIdwOracle:
    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-500, 500)),
            min_size=1,
            max_size=60,
        ),
        st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=12),
        st.integers(1, 20),
        st.sampled_from([1.0, 2.5, 100.0]),
        st.booleans(),
    )
    # a beam of fewer ground photons than its first window of 2 * k_max
    @example([(0, 0, 8), (3, 1, -8), (-2, 0, 4)], [(1, 2), (0, 0)], 4, 2.5, False)
    # a track out and back beside itself, queries 2-3 m off it: the first
    # window of 2 * k_max photons is too short and widens
    @example([(gx, k, k * gx) for k in (0, 1) for gx in range(-6, 7)],
             [(0, 12), (-9, -8), (12, 12)], 2, 100.0, True)
    @settings(max_examples=150, deadline=None)
    def test_ties_duplicates_and_coincidence_match_oracles(
        self, grid, queries, k_max, radius, track
    ):
        # half-metre lattice: points mirrored around a query tie exactly,
        # repeated coordinates stand for duplicate photons under other ids,
        # and queries on lattice points hit the coincident rule; or a track
        # along x that doubles back half a metre beside itself, so that a
        # query beside it widens its window
        ids = _scrambled_ids(len(grid))
        pts = [(pid, gx * 0.5, (gy % 2 if track else gy) * 0.5, z / 8.0)
               for pid, (gx, gy, z) in zip(ids, grid)]
        interp = GroundInterpolator(photon_table(photon(*p) for p in pts), radius=radius,
                                    k_max=k_max)
        qx = np.array([q[0] * 0.25 for q in queries])
        qy = np.array([q[1] * 0.25 for q in queries])
        values, found = interp.query(qx, qy, np.zeros(len(queries), dtype=np.int64))
        for i, (x, y) in enumerate(zip(qx.tolist(), qy.tolist())):
            want = idw_scan(pts, x, y, radius=radius, k_max=k_max)
            got = float(values[i]) if found[i] else None
            assert got == want  # bit for bit, or both None
            direct = idw_direct(sorted(pts), x, y, radius=radius, k_max=k_max)
            assert (got is None) == (direct is None)
            if got is not None:
                assert got == pytest.approx(direct, abs=1e-9)

    def test_tie_at_the_k_max_boundary_goes_to_the_lower_id(self):
        # 20 photons exactly 25 m from the query (Pythagorean lattice
        # points), far more than the first window of 2 * k_max candidates:
        # whichever of them holds the lowest id must be the pick
        ring = [(sx * a, sy * b) for a, b in [(7, 24), (24, 7), (15, 20), (20, 15)]
                for sx in (1, -1) for sy in (1, -1)]
        ring += [(25, 0), (-25, 0), (0, 25), (0, -25)]
        for r in range(len(ring)):
            pts = [photon((i - r) % len(ring), float(x), float(y), 100.0 + i)
                   for i, (x, y) in enumerate(ring)]
            got = idw(pts, 0.0, 0.0, beam=0, k_max=1)
            assert got == pytest.approx(100.0 + r, abs=1e-9)
            rows = [p[:4] for p in pts]
            assert idw(pts, 0.0, 0.0, beam=0, k_max=3) == idw_scan(
                rows, 0.0, 0.0, k_max=3
            )

    def test_coincident_duplicates_take_the_lowest_id(self):
        # more coincident photons than the first window of candidates
        for r in range(0, 40, 7):
            pts = [photon((i - r) % 40, 3.0, 4.0 + 1e-8 * (i % 3), 50.0 + i) for i in range(40)]
            pts.append(photon(99, 3.5, 4.0, -10.0))
            assert idw(pts, 3.0, 4.0, beam=0, k_max=2) == 50.0 + r


def reconcile(idw_value, dtm, tau=10.0):
    """enforce_dtm_consistency for photon 7 at (20, 20) with one IDW value
    (None for none): its ground elevation and source name."""
    table = photon_table([photon(7, 20.0, 20.0, 0.0, klass=CLASS_TOP_OF_CANOPY)])
    ground, source = enforce_dtm_consistency(
        table,
        np.array([0.0 if idw_value is None else idw_value]),
        np.array([idw_value is not None]),
        dtm,
        tau,
    )
    return float(ground[0]), GROUND_SOURCES[int(source[0])]


class TestDtmConsistency:
    def setup_method(self):
        self.dtm = make_height(np.full((4, 4), 100.0), gsd=10.0)

    def test_idw_within_tau_stands(self):
        assert reconcile(105.0, self.dtm, tau=10.0) == (105.0, "idw")

    def test_idw_far_from_dtm_is_overridden(self):
        ground, source = reconcile(150.0, self.dtm, tau=10.0)
        assert source == "dtm_override"
        assert ground == pytest.approx(100.0)

    def test_missing_idw_falls_back(self):
        ground, source = reconcile(None, self.dtm)
        assert source == "dtm_fallback"
        assert ground == pytest.approx(100.0)

    def test_no_source_at_all_is_none(self):
        holes = make_height(np.full((4, 4), -9999.0), gsd=10.0, nodata=-9999.0)
        ground, source = reconcile(None, holes)
        assert source == "none" and math.isnan(ground)


def height(p, ground_elev):
    """normalize_heights of one photon: its height, or None when dropped."""
    keep, h = normalize_heights(photon_table([p]), np.array([ground_elev]))
    return float(h[0]) if keep[0] else None


class TestNormalize:
    def test_ground_is_exactly_zero(self):
        p = photon(0, 0, 0, 123.456, klass=CLASS_GROUND)
        assert height(p, 100.0) == 0.0
        assert height(p, 500.0) == 0.0  # the ground elevation is not read

    def test_object_height_is_elev_minus_ground(self):
        p = photon(1, 0, 0, 112.5, klass=CLASS_TOP_OF_CANOPY)
        assert height(p, 100.0) == pytest.approx(12.5)

    def test_slightly_negative_clamps_to_zero(self):
        p = photon(1, 0, 0, 98.5, klass=CLASS_TOP_OF_CANOPY)
        assert height(p, 100.0) == 0.0

    def test_below_minus_two_is_discarded(self):
        p = photon(1, 0, 0, 97.9, klass=CLASS_TOP_OF_CANOPY)
        assert height(p, 100.0) is None

    def test_boundary_minus_two_is_kept(self):
        p = photon(1, 0, 0, 98.0, klass=CLASS_TOP_OF_CANOPY)
        assert height(p, 100.0) == 0.0


def plausible(points, lc, bounds=None):
    """The points landcover_plausibility_filter keeps, each with the class
    code under it."""
    table, h, _ = columns(points)
    keep, code = landcover_plausibility_filter(table, h, lc, bounds)
    return [p._replace(lc_class=c) for p, k, c in zip(points, keep.tolist(), code.tolist()) if k]


class TestPlausibility:
    def setup_method(self):
        codes = np.zeros((4, 4), dtype=np.uint8)
        codes[0, :] = LC_TREE
        codes[1, :] = LC_BUILDING
        codes[2, :] = LC_ROAD
        self.lc = make_landcover(codes, gsd=10.0)  # origin (0, 40): row 0 is y 30..40

    def test_tree_bounds_exclusive_low_inclusive_high(self):
        at_tree = dict(x=5.0, y=35.0)
        keep_hi = norm(0, h=90.0, **at_tree)
        drop_low = norm(1, h=1.0, **at_tree)
        keep_mid = norm(2, h=1.01, **at_tree)
        drop_hi = norm(3, h=90.01, **at_tree)
        got = plausible([keep_hi, drop_low, keep_mid, drop_hi], self.lc)
        assert [p.id for p in got] == [0, 2]
        assert all(p.lc_class == LC_TREE for p in got)

    def test_building_bound_is_300(self):
        at_bld = dict(x=5.0, y=25.0)
        got = plausible(
            [norm(0, h=299.0, **at_bld), norm(1, h=301.0, **at_bld)], self.lc
        )
        assert [p.id for p in got] == [0]
        assert got[0].lc_class == LC_BUILDING

    def test_object_on_unbounded_class_is_dropped(self):
        got = plausible([norm(0, x=5.0, y=15.0, h=5.0)], self.lc)
        assert got == []

    def test_ground_always_passes_and_is_annotated(self):
        got = plausible(
            [norm(0, x=5.0, y=15.0, h=0.0, kind="ground")], self.lc
        )
        assert len(got) == 1 and got[0].lc_class == LC_ROAD

    def test_photon_outside_raster_raises(self):
        with pytest.raises(GeometryError):
            plausible([norm(0, x=-5.0, y=15.0, h=5.0)], self.lc)

    def test_custom_bounds_override_defaults(self):
        got = plausible(
            [norm(0, x=5.0, y=15.0, h=5.0)], self.lc, {LC_ROAD: (1.0, 10.0)}
        )
        assert [p.id for p in got] == [0]


def cluster(points, params=ClusterParams()):
    """dbscan_cluster of normalized points: the clusters in their numbering
    order and the noise, each a list of points in id order."""
    table, h, _ = columns(points)
    sizes, label = dbscan_cluster(table, h, params)
    by_id = sorted(zip(points, label.tolist()), key=lambda pl: pl[0].id)
    clusters = [[p for p, k in by_id if k == n] for n in range(len(sizes))]
    assert [len(c) for c in clusters] == sizes.tolist()
    return clusters, [p for p, k in by_id if k < 0]


class TestDbscan:
    def test_three_collinear_points_one_cluster(self):
        pts = [norm(i, x=float(i), y=0.0, h=0.0) for i in range(3)]
        clusters, noise = cluster(pts, ClusterParams(eps=3.0, min_pts=3))
        assert len(clusters) == 1 and noise == []
        assert [p.id for p in clusters[0]] == [0, 1, 2]

    def test_two_separated_groups(self):
        a = [norm(i, x=float(i) * 0.5, y=0.0, h=0.0) for i in range(3)]
        b = [norm(10 + i, x=100.0 + i * 0.5, y=0.0, h=0.0) for i in range(3)]
        clusters, noise = cluster(b + a)
        assert len(clusters) == 2 and noise == []
        # ordered by lowest member id regardless of input order
        assert [p.id for p in clusters[0]] == [0, 1, 2]
        assert [p.id for p in clusters[1]] == [10, 11, 12]

    def test_isolated_point_is_noise(self):
        pts = [norm(i, x=float(i) * 0.5, y=0.0, h=0.0) for i in range(3)]
        pts.append(norm(99, x=500.0, y=0.0, h=0.0))
        clusters, noise = cluster(pts)
        assert [p.id for p in noise] == [99]

    def test_border_point_joins_nearest_core(self):
        # two tight cores 8 m apart, a border point 2.5 m from the left core
        left = [norm(i, x=0.0 + 0.1 * i, y=0.0, h=0.0) for i in range(3)]
        right = [norm(10 + i, x=8.0 + 0.1 * i, y=0.0, h=0.0) for i in range(3)]
        border = norm(50, x=2.6, y=0.0, h=0.0)
        clusters, noise = cluster(left + right + [border], ClusterParams(eps=3.0, min_pts=3))
        assert noise == []
        assert 50 in [p.id for p in clusters[0]]

    def test_border_equidistant_from_two_cores_joins_lower_id(self):
        # two clusters whose cores sit 0.9 m either side of a border point
        left = [norm(10 + i, x=-0.9 - 0.25 * i, y=0.0, h=0.0) for i in range(5)]
        right = [norm(i, x=0.9 + 0.25 * i, y=0.0, h=0.0) for i in range(5)]
        border = norm(50, x=0.0, y=0.0, h=0.0)
        params = ClusterParams(eps=1.0, min_pts=4)
        clusters, noise = cluster(left + [border] + right, params)
        assert noise == [] and len(clusters) == 2
        assert [p.id for p in clusters[0]] == [0, 1, 2, 3, 4, 50]
        # with the ids swapped between the sides, the border follows the ids
        left = [p._replace(id=p.id - 10) for p in left]
        right = [p._replace(id=p.id + 10) for p in right]
        clusters, _ = cluster(right + [border] + left, params)
        assert [p.x for p in clusters[0]][-1] == 0.0 and clusters[0][0].x < 0.0

    def test_border_distance_is_the_norm_of_the_difference(self):
        # a border point whose two candidate cores lie at the same exact
        # distance along permuted difference vectors; rounding decides which
        # is nearer, and it must be decided as np.linalg.norm decides it
        rng = np.random.default_rng(23)
        params = ClusterParams(eps=3.0, min_pts=4)
        for trial in range(200):
            a, b, c = 2.3 + rng.uniform(-0.05, 0.05), 1.7 + rng.uniform(-0.05, 0.05), 0.1
            scale = 2.9 / math.sqrt(a * a + b * b + c * c)
            d1 = np.array([a, b, c]) * scale
            d2 = np.array([c, b, a]) * scale
            p = np.array([50.0, 50.0, 10.0])
            pts = [norm(50, x=p[0], y=p[1], h=p[2])]
            for first, d in ((0, d1), (10, d2)):
                core = p - d
                away = d / np.linalg.norm(d)
                pts += [norm(first + k, x=core[0] - 0.3 * k * away[0],
                             y=core[1] - 0.3 * k * away[1], h=core[2] - 0.3 * k * away[2])
                        for k in range(4)]
            clusters, noise = cluster(pts, params)
            assert noise == [] and len(clusters) == 2
            coords = {q.id: np.array([q.x, q.y, q.h_ag]) for q in pts}
            near = min((float(np.linalg.norm(coords[50] - coords[j])), j) for j in (0, 10))[1]
            assert 50 in [q.id for q in clusters[0 if near == 0 else 1]]

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3)),
            min_size=1,
            max_size=50,
        ),
        st.sampled_from([1.0, 1.5, 2.0]),
        st.integers(2, 5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_lattice_ties_match_brute_force(self, cells, eps, min_pts, rnd):
        # integer coordinates: many points are exactly equidistant from two
        # or more cores, so border assignment rests on the id tie-break
        pts = [norm(i, x=float(a), y=float(b), h=float(c)) for i, (a, b, c) in enumerate(cells)]
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        clusters, noise = cluster(shuffled, ClusterParams(eps=eps, min_pts=min_pts))
        want, want_noise = dbscan_brute([(p.x, p.y, p.h_ag) for p in pts], eps, min_pts)
        assert [frozenset(p.id for p in c) for c in clusters] == want
        assert frozenset(p.id for p in noise) == want_noise

    def test_height_axis_separates_stacked_points(self):
        low = [norm(i, x=0.1 * i, y=0.0, h=0.0) for i in range(3)]
        high = [norm(10 + i, x=0.1 * i, y=0.0, h=10.0) for i in range(3)]
        clusters, _ = cluster(low + high, ClusterParams(eps=3.0, min_pts=3))
        assert len(clusters) == 2
        # scaling the height axis down merges them
        clusters, _ = cluster(
            low + high, ClusterParams(eps=3.0, min_pts=3, height_weight=0.1)
        )
        assert len(clusters) == 1

    def test_matches_brute_force_reachability(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(5, 60))
            pts = [
                norm(i, x=float(rng.uniform(0, 30)), y=float(rng.uniform(0, 30)),
                     h=float(rng.uniform(0, 6)))
                for i in range(n)
            ]
            clusters, noise = cluster(pts, ClusterParams(eps=3.0, min_pts=3))
            got = [frozenset(p.id for p in c) for c in clusters]
            got_noise = frozenset(p.id for p in noise)
            want, want_noise = dbscan_brute(
                [(p.x, p.y, p.h_ag) for p in pts], eps=3.0, min_pts=3
            )
            assert got == want
            assert got_noise == want_noise

    @given(st.permutations(list(range(24))), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_partition_is_permutation_invariant(self, order, seed):
        rng = np.random.default_rng(seed)
        pts = [
            norm(i, x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)),
                 h=float(rng.uniform(0, 5)))
            for i in range(24)
        ]
        base_clusters, base_noise = cluster(pts)
        perm_clusters, perm_noise = cluster([pts[i] for i in order])
        assert [[p.id for p in c] for c in base_clusters] == [
            [p.id for p in c] for c in perm_clusters
        ]
        assert [p.id for p in base_noise] == [p.id for p in perm_noise]


class TestDbscanBlocks:
    """The blocked neighbour edges against the one pair list they replace."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 3)),
            min_size=1,
            max_size=80,
        ),
        st.sampled_from([0.0, 0.25]),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    # two plus-shaped clusters whose centre cores lie 1 m either side of a
    # border point: random lattices seldom tie two clusters' cores this way
    @example([(1, 2, 0), (0, 2, 0), (1, 1, 0), (1, 3, 0), (2, 2, 0),
              (3, 2, 0), (4, 2, 0), (3, 1, 0), (3, 3, 0)], 0.0, 1.0, 4, 2, 1)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_pair_list_form(self, cells, jitter, eps, min_pts, block, seed):
        # lattice points, half of them nudged off the lattice or none: ties
        # between cores and chains that cross many blocks of a few
        # neighbour entries each
        rng = np.random.default_rng(seed)
        xyz = np.array(cells, dtype=np.float64)
        xyz += jitter * rng.uniform(-1.0, 1.0, xyz.shape) * (rng.random(len(xyz)) < 0.5)[:, None]
        table = photon_table(
            (int(pid), x, y, 0.0, 4, CLASS_TOP_OF_CANOPY, 0, 0.0)
            for pid, (x, y, _) in zip(rng.permutation(len(xyz)), xyz.tolist())
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(photons, "_EDGE_BLOCK", block)
            sizes, label = dbscan_cluster(table, xyz[:, 2], ClusterParams(eps, min_pts))
        want_sizes, want_label = dbscan_pairs(table, xyz[:, 2], eps, min_pts)
        assert sizes.tolist() == want_sizes.tolist()
        assert label.tolist() == want_label.tolist()

    @staticmethod
    def tracks(density, seed=3):
        """Object photons along four 300 m tracks, ``density`` times the
        along-track rate of a 1x set of 2,000 photons."""
        rng = np.random.default_rng(seed)
        n = 500 * density
        rows, heights = [], []
        for track in range(4):
            x = np.sort(rng.uniform(0.0, 300.0, n))
            y = 40.0 * track + rng.uniform(-0.5, 0.5, n)
            rows += [(len(rows) + i, xi, yi, 0.0, 4, CLASS_TOP_OF_CANOPY, 0, 0.0)
                     for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist()))]
            heights.append(rng.uniform(5.0, 7.0, n))
        return photon_table(rows), np.concatenate(heights)

    def test_memory_grows_with_the_points_not_the_pairs(self):
        peaks, pairs = [], []
        for density in (1, 4):
            table, h = self.tracks(density)
            coords = np.column_stack((table["x"], table["y"], h))
            pairs.append(len(cKDTree(coords).query_pairs(3.0, output_type="ndarray")))
            tracemalloc.start()
            try:
                dbscan_cluster(table, h)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert pairs[1] > 12 * pairs[0], f"pairs {pairs}: not a 4x along-track density"
        assert peaks[1] <= 5 * peaks[0], f"peaks {peaks} at 4x the points, {pairs} pairs"


def aggregate(clusters, ground=(), cell=10.0):
    """aggregate_cells of clusters of normalized object points and of
    normalized ground points: the clean rows as (x, y, h_ag, kind,
    lc_class, cluster_size) tuples."""
    table, h, lc = columns([*ground, *(m for c in clusters for m in c)])
    label = np.array([k for k, c in enumerate(clusters) for _ in c], dtype=np.int64)
    return aggregate_cells(table, h, lc, label, cell).tolist()


class TestAggregate:
    def test_cluster_becomes_centroid(self):
        members = [
            norm(0, x=0.0, y=0.0, h=10.0, lc=LC_TREE),
            norm(1, x=2.0, y=0.0, h=12.0, lc=LC_TREE),
            norm(2, x=1.0, y=3.0, h=14.0, lc=LC_BUILDING),
        ]
        out = aggregate([members])
        assert len(out) == 1
        c = CleanRow(*out[0])
        assert (c.x, c.y) == (1.0, 1.0)
        assert c.h_ag == pytest.approx(12.0)
        assert c.cluster_size == 3
        assert c.lc_class == LC_TREE  # majority 2 of 3

    def test_majority_tie_prefers_lower_code(self):
        members = [
            norm(0, x=0.0, y=0.0, h=10.0, lc=LC_BUILDING),
            norm(1, x=1.0, y=0.0, h=10.0, lc=LC_TREE),
        ]
        out = aggregate([members])
        assert CleanRow(*out[0]).lc_class == LC_TREE  # tree code 4 < building code 7

    def test_one_survivor_per_cell_largest_wins(self):
        big = [norm(i, x=1.0, y=1.0, h=10.0, lc=LC_TREE) for i in range(3)]
        small = [norm(10 + i, x=8.0, y=8.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate([small, big], cell=10.0)
        assert len(out) == 1
        assert CleanRow(*out[0]).cluster_size == 3

    def test_size_tie_prefers_lower_height(self):
        tall = [norm(i, x=1.0, y=1.0, h=20.0, lc=LC_TREE) for i in range(2)]
        low = [norm(10 + i, x=8.0, y=8.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate([tall, low], cell=10.0)
        assert len(out) == 1
        assert CleanRow(*out[0]).h_ag == pytest.approx(5.0)

    def test_separate_cells_both_survive(self):
        a = [norm(i, x=1.0, y=1.0, h=10.0, lc=LC_TREE) for i in range(2)]
        b = [norm(10 + i, x=15.0, y=1.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate([a, b], cell=10.0)
        assert len(out) == 2

    def test_ground_passes_through(self):
        g = norm(0, x=3.0, y=4.0, h=0.0, kind="ground", lc=LC_ROAD)
        out = aggregate([], [g])
        assert out == [(3.0, 4.0, 0.0, "ground", LC_ROAD, 1)]

    def test_negative_coordinates_use_floor_cells(self):
        a = [norm(i, x=-1.0, y=1.0, h=5.0, lc=LC_TREE) for i in range(2)]
        b = [norm(10 + i, x=1.0, y=1.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate([a, b], cell=10.0)
        assert len(out) == 2  # cells (-1, 0) and (0, 0)


class TestAggregateOracle:
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(-60.0, 60.0, allow_nan=False),
                    st.floats(-60.0, 60.0, allow_nan=False),
                    st.sampled_from([1.5, 2.0, 7.25, 30.0]),
                    st.sampled_from([None, LC_TREE, LC_BUILDING, LC_ROAD]),
                ),
                min_size=1,
                max_size=30,
            ),
            max_size=25,
        ),
        st.sampled_from([5.0, 10.0, 40.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_cluster_loop(self, clusters, cell):
        # few distinct heights and sizes give ties on size and height; the
        # means sum each cluster's members in id order
        ids = iter(_scrambled_ids(sum(len(c) for c in clusters)))
        members = [[norm(next(ids), x=x, y=y, h=h, lc=lc) for x, y, h, lc in c] for c in clusters]
        got = [CleanRow(*row) for row in aggregate(members, cell=cell)]
        want = aggregate_direct(
            [sorted((m.id, m.x, m.y, m.h_ag, m.lc_class) for m in c) for c in members], cell
        )
        assert [(p.x, p.y, p.h_ag, p.cluster_size, p.lc_class) for p in got] == want
        assert all(p.kind == "object" for p in got)


class TestPreprocess:
    def test_counts_monotone_and_end_to_end(self, small_scene):
        clean, report = clean_photon_table(
            small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        )
        counts = report["counts"]
        assert counts["loaded"] >= counts["confidence"] >= counts["normalized"]
        assert counts["normalized"] >= counts["landcover"] >= counts["clean"]
        assert counts["clean"] == len(clean) > 0

    def test_custom_params_change_outcome(self, small_scene):
        _, strict = clean_photon_table(
            small_scene["photons"],
            small_scene["dtm"],
            small_scene["lc"],
            PreprocessParams(cell=40.0),
        )
        _, loose = clean_photon_table(
            small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        )
        assert strict["counts"]["clean"] <= loose["counts"]["clean"]

    @pytest.mark.parametrize("cell", [-5.0, 0.0, float("nan")])
    def test_cell_must_be_positive(self, small_scene, cell):
        with pytest.raises(ValueError, match="cell must be"):
            clean_photon_table(small_scene["photons"], small_scene["dtm"], small_scene["lc"],
                               PreprocessParams(cell=cell))

    def test_extent_is_that_of_both_rasters(self, small_scene):
        tracks, dtm, lc = small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        half = dtm.header.height // 2
        top = lambda r: type(r)(replace(r.header, height=half), r.values[:half])
        clean, report = clean_photon_table(tracks, dtm, top(lc))
        assert 0 < report["counts"]["in_extent"] < report["counts"]["confidence"]
        clean_top, report_top = clean_photon_table(tracks, top(dtm), top(lc))
        assert (clean.tolist(), report) == (clean_top.tolist(), report_top)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # side of the extent the photon lies past
                st.floats(1e-3, 500.0),  # distance past that edge, m
                st.floats(-500.0, 500.0),  # offset along the edge, m
                st.floats(-100.0, 300.0),  # elevation
                st.sampled_from([CLASS_GROUND, CLASS_TOP_OF_CANOPY]),
                st.integers(0, 5),  # beam
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_out_of_extent_photons_are_dropped(self, small_scene, extra):
        tracks, dtm, lc = small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        h = dtm.header
        west, north = h.origin_x, h.origin_y
        east, south = west + h.width * h.gsd, north - h.height * h.gsd
        next_id = int(tracks["id"].max()) + 1
        outside = []
        for i, (side, past, along, elev, klass, beam) in enumerate(extra):
            x, y = [
                (west - past, north + along),
                (east + past, north + along),
                (west + along, north + past),
                (west + along, south - past),
            ][side]
            outside.append(photon(next_id + i, x, y, elev, 4, klass, beam))
        base, base_report = clean_photon_table(tracks, dtm, lc)
        clean, report = clean_photon_table(np.concatenate((tracks, photon_table(outside))), dtm, lc)
        base_counts, counts = base_report["counts"], report["counts"]
        assert clean.tolist() == base.tolist()
        assert counts["loaded"] == base_counts["loaded"] + len(outside)
        assert counts["in_extent"] == base_counts["in_extent"] <= counts["confidence"]
        stages = list(counts.values())
        assert all(a >= b for a, b in zip(stages, stages[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_photon_order_does_not_matter(self, small_scene, seed):
        tracks, dtm, lc = small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        shuffled = tracks[np.random.default_rng(seed).permutation(len(tracks))]
        base, base_report = clean_photon_table(tracks, dtm, lc)
        clean, report = clean_photon_table(shuffled, dtm, lc)
        assert Counter(clean.tolist()) == Counter(base.tolist())
        assert report == base_report
