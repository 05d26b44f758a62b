import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikt.dataset import (CANONICAL_SCHEMA, ColumnSchema, DataFormatError,
                         SchemaError, _recode, load_csv, load_schema, preprocess,
                         save_canonical, split_folds)

from oracles import load_csv_oracle, preprocess_oracle
from synth import mastery_process_rows, records, to_dataset

SCHEMA = ColumnSchema(student="user", problem="item", skill="kc", correct="outcome")
SCHEMA_ORDERED = ColumnSchema(student="user", problem="item", skill="kc",
                              correct="outcome", order="ts")


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def problem_ids(data, student):
    names = list(data.problem_index)
    return [names[c] for c in data.problem[data.by_student[student]]]


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,1\na,p2,s2,0\nb,p1,s1,1\n")
        data = load_csv(path, SCHEMA)
        assert data.n_records == 3
        assert data.n_skills == 2
        assert len(data.by_student) == 2

    def test_missing_skill_dropped_with_tally(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,1\na,p2,,0\nb,p1,s1,1\n")
        data = load_csv(path, SCHEMA)
        assert data.n_records == 2
        assert data.drops["missing skill"] == 1

    def test_missing_mapped_column(self, tmp_path):
        path = write(tmp_path, "user,item,outcome\na,p1,1\n")
        with pytest.raises(SchemaError, match="kc"):
            load_csv(path, SCHEMA)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/file.csv", SCHEMA)

    def test_undecodable_byte_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"user,item,kc,outcome\na,p1,s1,1\nb,p\xe91,s1,0\n")
        with pytest.raises(DataFormatError, match=r"data\.csv: byte 34 is not valid UTF-8"):
            load_csv(str(path), SCHEMA)

    def test_unparseable_correctness(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,maybe\n")
        with pytest.raises(DataFormatError):
            load_csv(path, SCHEMA)

    def test_non_binary_correctness(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,0.7\n")
        with pytest.raises(DataFormatError):
            load_csv(path, SCHEMA)

    def test_float_binary_accepted(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,1.0\na,p2,s1,0.0\n")
        data = load_csv(path, SCHEMA)
        assert data.correct[data.by_student["a"]].tolist() == [1, 0]

    def test_order_column_respected(self, tmp_path):
        # rows arrive out of chronological order
        path = write(tmp_path, "user,item,kc,outcome,ts\nb,p3,s3,1,5\n"
                               "a,p2,s2,0,20\na,p1,s1,1,10\n")
        data = load_csv(path, SCHEMA_ORDERED)
        assert list(data.by_student) == ["b", "a"]
        assert problem_ids(data, "a") == ["p1", "p2"]
        # codes follow first appearance in the grouped, sorted rows
        assert data.skill_index == {"s3": 0, "s1": 1, "s2": 2}
        assert data.problem_index == {"p3": 0, "p1": 1, "p2": 2}

    def test_timestamp_strings_sort_lexicographically(self, tmp_path):
        path = write(tmp_path,
                     "user,item,kc,outcome,ts\n"
                     "a,p2,s1,0,2009-09-02 10:00:00\n"
                     "a,p1,s1,1,2009-09-01 09:00:00\n")
        data = load_csv(path, SCHEMA_ORDERED)
        assert problem_ids(data, "a") == ["p1", "p2"]

    @pytest.mark.parametrize("stamps", [
        ("1600000300", "1600000100", "", "1600000200"),
        ("2020-01-04", "2020-01-02", "", "2020-01-03"),
    ], ids=["numbers", "iso_dates"])
    def test_blank_order_cell_dropped_with_tally(self, tmp_path, stamps):
        # a blank key once became the row index (2.0 or rank-space 2.0)
        # and sorted among, or before, the real keys
        path = write(tmp_path, "user,item,kc,outcome,ts\n" + "".join(
            f"a,p{i},s1,1,{v}\n" for i, v in enumerate(stamps)))
        data = load_csv(path, SCHEMA_ORDERED)
        assert data.drops == {"missing order": 1}
        assert problem_ids(data, "a") == ["p1", "p3", "p0"]

    def test_non_finite_order_cells_dropped_with_tally(self, tmp_path):
        # float() reads nan and inf, which have no place in time
        path = write(tmp_path, "user,item,kc,outcome,ts\n" + "".join(
            f"a,p{i},s1,1,{v}\n" for i, v in enumerate(("5", "nan", "3", "inf"))))
        data = load_csv(path, SCHEMA_ORDERED)
        assert data.drops == {"non-finite order": 2}
        assert problem_ids(data, "a") == ["p2", "p0"]
        assert data.order.tolist() == [3.0, 5.0]

    def test_student_with_only_non_finite_order_cells_is_gone(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome,ts\n"
                     "b,p9,s9,0,-inf\na,p1,s1,1,2\nb,p8,s9,1,1e999\nc,p1,s1,0,1\n")
        data = load_csv(path, SCHEMA_ORDERED)
        assert data.drops == {"non-finite order": 2}
        assert list(data.by_student) == ["a", "c"]
        assert data.skill_index == {"s1": 0} and data.problem_index == {"p1": 0}

    @pytest.mark.parametrize("values, bad", [
        (("12/31/2020", "01/05/2021"), "row 2: order value '12/31/2020'"),
        (("9", "2020-01-01", "10"), "row 2: order value '9'"),
    ], ids=["us_dates", "numbers_mixed_with_dates"])
    def test_ambiguous_order_strings_rejected(self, tmp_path, values, bad):
        # ranked as strings, 12/31/2020 would follow 01/05/2021 and 10 precede 9
        path = write(tmp_path, "user,item,kc,outcome,ts\n" + "".join(
            f"a,p{i},s1,1,{v}\n" for i, v in enumerate(values)))
        with pytest.raises(DataFormatError, match=re.escape(bad)):
            load_csv(path, SCHEMA_ORDERED)

    def test_scaffold_filter(self, tmp_path):
        schema = ColumnSchema(student="user", problem="item", skill="kc",
                              correct="outcome", scaffold_column="orig",
                              scaffold_keep="1")
        path = write(tmp_path, "user,item,kc,outcome,orig\na,p1,s1,1,1\na,p2,s1,0,0\n")
        data = load_csv(path, schema)
        assert data.n_records == 1
        assert data.drops["scaffolding"] == 1

    def test_tab_delimiter(self, tmp_path):
        schema = ColumnSchema(student="user", problem="item", skill="kc",
                              correct="outcome", delimiter="\t")
        path = write(tmp_path, "user\titem\tkc\toutcome\na\tp1\ts1\t1\n")
        assert load_csv(path, schema).n_records == 1


def same_dataset(a, b):
    for name in ("skill", "problem", "correct", "order"):
        x, y = getattr(a, name), getattr(b, name)
        # bytes too, so that -0.0 and 0.0 keys are told apart
        assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert x.tobytes() == y.tobytes(), name
    for name in ("by_student", "skill_index", "problem_index"):
        assert list(getattr(a, name).items()) == list(getattr(b, name).items()), name
    assert sorted(a.drops.items()) == sorted(b.drops.items())


def assert_row_layout(data):
    """The ``Dataset`` invariant: each student's rows are one slice, the
    slices follow each other in ``by_student`` order, and ``order`` is
    nondecreasing within each."""
    stop = 0
    for rows in data.by_student.values():
        assert rows.start == stop and rows.stop > rows.start and rows.step is None
        assert (np.diff(data.order[rows]) >= 0).all()
        stop = rows.stop
    assert stop == data.n_records


def load_or_error(loader, path, schema):
    try:
        return loader(path, schema)
    except Exception as exc:
        return type(exc), str(exc)


ID_CELLS = ["a", "b", "c", " a", "b ", "c,d", "e\tf", '"q"']
CORRECT_CELLS = ["0", "1", " 1", "1.0", "0.0 "]
ORDER_CELLS = {"numeric": ["1", " 2", "3 ", "10", "2.5", "-1", "1e999", "nan", "inf", "-inf"],
               "iso": ["2020-01-01", " 2020-01-02", "2020-01-01 09:00", "2021-12-31T23:59"]}
FLAG_CELLS = ["1", " 1", "0", ""]
BLANK_CELLS = ["", "  "]
BAD_CELLS = {"outcome": ["x", "0.5", "nan"], "ts": ["7", "01/02/2020", "x"]}


@st.composite
def raw_logs(draw):
    """A raw log's text and its schema: padded ids, quoted cells holding
    the delimiter, repeated header names, non-finite and ISO order cells,
    scaffold flags, comma or tab delimited; in some logs also blank cells
    in any column, short rows and blank lines, or bad correctness or
    order cells."""
    order = draw(st.sampled_from([None, "numeric", "iso"]))
    keep = draw(st.sampled_from([None, "absent", "1", ""]))
    header = ["user", "item", "kc", "outcome"] + ["ts"] * bool(order)
    header += ["orig"] * (keep != "absent") + ["note"] * draw(st.booleans())
    header = draw(st.permutations(header))
    header += draw(st.lists(st.sampled_from(header), max_size=2))  # repeated names
    pools = {"user": ID_CELLS, "item": ID_CELLS, "kc": ID_CELLS, "note": ID_CELLS,
             "outcome": CORRECT_CELLS, "ts": ORDER_CELLS.get(order), "orig": FLAG_CELLS}
    blanks, short = draw(st.booleans()), draw(st.booleans())
    bad = draw(st.sampled_from([None, None, "outcome", "ts"]))
    cell = {name: st.sampled_from(pool * 3 + BLANK_CELLS * blanks + BAD_CELLS.get(name, [])
                                  * (name == bad)) for name, pool in pools.items() if pool}
    row = st.tuples(*(cell[name] for name in header))
    cut = st.integers(0, len(header)) if short else st.none()
    size = draw(st.integers(1, 20))
    rows = draw(st.lists(st.tuples(row, cut), min_size=size, max_size=size))
    delimiter = draw(st.sampled_from([",", "\t"]))
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for cells, n in rows:
        writer.writerow(cells[:n])  # an empty row is a blank line
    schema = ColumnSchema(student="user", problem="item", skill="kc", correct="outcome",
                          order="ts" if order else None, delimiter=delimiter,
                          scaffold_column=None if keep == "absent" else "orig",
                          scaffold_keep=None if keep == "absent" else keep)
    return out.getvalue(), schema


class TestLoaderOracle:
    """``load_csv`` against the row-at-a-time ``load_csv_oracle``."""

    @settings(max_examples=400, deadline=None)
    @given(case=raw_logs())
    def test_agrees_with_the_row_at_a_time_loader(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.getbasetemp() / "oracle_log.csv"
        # a new file each example: rewriting one in place can stall on a
        # flush of the old data (ext4's auto_da_alloc)
        path.unlink(missing_ok=True)
        path = str(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got, want = (load_or_error(f, path, schema) for f in (load_csv, load_csv_oracle))
        if isinstance(want, tuple):
            assert got == want
        else:
            same_dataset(got, want)

    def test_blank_order_name_maps_no_order_column(self, tmp_path):
        # a header may name a column "", which an unset order must not pick
        schema = ColumnSchema(student="user", problem="item", skill="kc",
                              correct="outcome", order="")
        path = write(tmp_path, "user,item,kc,outcome,\na,p2,s1,1,9\na,p1,s1,0,1\n")
        data = load_csv(path, schema)
        assert problem_ids(data, "a") == ["p2", "p1"]
        same_dataset(data, load_csv_oracle(path, schema))

    def test_bad_correctness_on_a_row_dropped_for_a_blank_student_loads(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,1\n ,p2,s1,maybe\n")
        data = load_csv(path, SCHEMA)
        assert data.n_records == 1 and data.drops == {"missing student": 1}
        same_dataset(data, load_csv_oracle(path, SCHEMA))

    def test_bad_correctness_on_a_kept_row_names_that_row(self, tmp_path):
        # blank lines are not counted; the first bad kept row is named
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,1\n\n ,p2,s1,x\n"
                               "b,p2,s1,0.5\nb,p3,s1,maybe\n")
        with pytest.raises(DataFormatError, match=re.escape("row 4: correctness value "
                                                            "'0.5' is not binary")):
            load_csv(path, SCHEMA)

    def test_bad_correctness_before_an_undecodable_byte_is_reported(self, tmp_path):
        # the reader decodes ahead in blocks; a correctness error in a block
        # read before the bad byte is still the error reported
        path = tmp_path / "data.csv"
        rows = b"".join(b"a,p%d,s1,1\n" % i for i in range(20000))
        path.write_bytes(b"user,item,kc,outcome\nz,p0,s1,x\n" + rows + b"b,p\xe9,s1,0\n")
        for loader in (load_csv, load_csv_oracle):
            with pytest.raises(DataFormatError, match="row 2: correctness value 'x'"):
                loader(str(path), SCHEMA)

    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path):
        long_line = "b,p2," + "k" * 140_000 + ",1\n"
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,1\n" + long_line)
        for loader in (load_csv, load_csv_oracle):
            with pytest.raises(DataFormatError, match=re.escape(
                    "data.csv: line 3: field larger than field limit (131072)")):
                loader(path, SCHEMA)
        # a bad correctness cell read before it is still the error reported
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,x\n" + long_line)
        for loader in (load_csv, load_csv_oracle):
            with pytest.raises(DataFormatError, match="row 2: correctness value 'x'"):
                loader(path, SCHEMA)


# few ids and order cells, so that rows tie on (student, order), repeat a
# problem or copy an earlier row; "-0" and "0.0" are equal keys
CLEAN_ORDER_CELLS = {"numeric": ["0", "-0", "0.0", "-0.0", "1", "1.0", "2", "3"],
                     "iso": ["2020-01-01", "2020-01-02", "2020-01-03"]}


@st.composite
def logs_to_clean(draw):
    """A raw log's text and schema: rows drawn from small pools, some of
    them copied to later positions, so that exact duplicates fall inside
    and across runs of tied order cells; possibly empty, possibly
    without an order column."""
    order = draw(st.sampled_from([None, "numeric", "iso"]))
    header = ["user", "item", "kc", "outcome"] + ["ts"] * bool(order)
    ts = [st.sampled_from(CLEAN_ORDER_CELLS[order])] if order else []
    row = st.tuples(st.sampled_from("abcd"), st.sampled_from(["p1", "p2", "p3"]),
                    st.sampled_from(["s1", "s2"]), st.sampled_from(["0", "1"]), *ts)
    rows = draw(st.lists(row, max_size=25))
    for at, source in draw(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)),
                                    max_size=8 * bool(rows))):
        rows.insert(at, rows[source % len(rows)])
    text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    return text, ColumnSchema(student="user", problem="item", skill="kc",
                              correct="outcome", order="ts" if order else None)


class TestPreprocessOracle:
    """``preprocess`` against the set-based ``preprocess_oracle``."""

    @settings(max_examples=200, deadline=None)
    @given(case=logs_to_clean())
    def test_agrees_with_the_row_at_a_time_cleaner(self, tmp_path_factory, case):
        text, schema = case
        path = tmp_path_factory.getbasetemp() / "clean_log.csv"
        path.unlink(missing_ok=True)  # a new file each example, as above
        path = str(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        raw = load_csv(path, schema)
        assert_row_layout(raw)
        data = preprocess(raw)
        assert_row_layout(data)
        same_dataset(data, preprocess_oracle(raw))

    def test_duplicates_inside_and_across_tie_runs(self, tmp_path):
        # a's ts-1 run holds p1 twice around p2, its ts-2 run p1 again (a
        # repeat) and that row's copy; b's one row stays, keyed -0.0
        path = write(tmp_path, "user,item,kc,outcome,ts\n"
                               "a,p1,s1,1,1\na,p2,s1,0,1\nb,p1,s1,1,-0\na,p1,s1,1,1\n"
                               "a,p1,s1,0,2\na,p3,s2,1,0\na,p1,s1,0,2\n")
        raw = load_csv(path, SCHEMA_ORDERED)
        data = preprocess(raw)
        assert problem_ids(data, "a") == ["p3", "p1", "p2"] and problem_ids(data, "b") == ["p1"]
        assert data.drops == {"duplicate row": 2, "repeat attempt": 1}
        assert np.signbit(data.order[data.by_student["b"]]).tolist() == [True]
        same_dataset(data, preprocess_oracle(raw))

    @settings(max_examples=300, deadline=None)
    @given(codes=st.lists(st.integers(0, 7), max_size=30), extra=st.integers(0, 3),
           in_index_order=st.booleans())
    def test_recode_agrees_with_np_unique(self, codes, extra, in_index_order):
        codes = np.array(codes, dtype=np.intp)
        index = {f"n{i}": i for i in range(8 + extra)}
        used, first = np.unique(codes, return_index=True)
        if not in_index_order:
            used = used[np.argsort(first)]
        got, got_index = _recode(codes, index, in_index_order=in_index_order)
        assert list(got_index.items()) == [(f"n{c}", i) for i, c in enumerate(used.tolist())]
        assert got.dtype == np.intp
        assert got.tolist() == [used.tolist().index(c) for c in codes.tolist()]


class TestSchemaFile:
    def test_parse(self, tmp_path):
        path = write(tmp_path, "student = user\nproblem = item\nskill = kc\n"
                               "correct = outcome\norder = ts\ndelimiter = tab\n",
                     name="schema.cfg")
        schema = load_schema(path)
        assert schema.student == "user"
        assert schema.delimiter == "\t"

    def test_missing_keys(self, tmp_path):
        path = write(tmp_path, "student = user\n", name="schema.cfg")
        with pytest.raises(SchemaError, match="problem"):
            load_schema(path)

    @pytest.mark.parametrize("header", ["user,item#a,kc,outcome", "user,item,item#a,kc,outcome"],
                             ids=["alone", "beside_item"])
    def test_hash_inside_a_value_is_part_of_it(self, tmp_path, header):
        # every '#' once started a comment, so item#a read as item
        schema = load_schema(write(tmp_path, "# columns\nstudent = user\nproblem = item#a\n"
                                             "skill = kc  # note\ncorrect = outcome\t# tab\n",
                                   name="schema.cfg"))
        assert (schema.problem, schema.skill, schema.correct) == ("item#a", "kc", "outcome")
        cells = {"user": "a", "item": "wrong", "item#a": "p1", "kc": "s1", "outcome": "1"}
        names = header.split(",")
        path = write(tmp_path, f"{header}\n" + ",".join(cells[n] for n in names) + "\n")
        assert problem_ids(load_csv(path, schema), "a") == ["p1"]


class TestPreprocess:
    def test_first_attempt_kept(self, tmp_path):
        # wrong then right on the same problem: the first (wrong) stays
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,0\na,p1,s1,1\n")
        data = preprocess(load_csv(path, SCHEMA))
        assert data.correct[data.by_student["a"]].tolist() == [0]
        assert data.drops["repeat attempt"] == 1

    def test_exact_duplicates_collapse(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome,ts\na,p1,s1,1,5\na,p1,s1,1,5\n")
        data = preprocess(load_csv(path, SCHEMA_ORDERED))
        assert data.n_records == 1
        assert data.drops["duplicate row"] == 1

    def test_duplicate_of_a_dropped_repeat_is_a_duplicate(self, tmp_path):
        # the repeat at ts 6 still records its identity, so its copy is
        # tallied as a duplicate, not as a second repeat
        path = write(tmp_path, "user,item,kc,outcome,ts\na,p1,s1,1,5\n"
                               "a,p1,s1,0,6\na,p1,s1,0,6\na,p2,s2,1,7\n")
        data = preprocess(load_csv(path, SCHEMA_ORDERED))
        assert problem_ids(data, "a") == ["p1", "p2"]
        assert data.drops == {"repeat attempt": 1, "duplicate row": 1}

    def test_pairs_unique_and_order_preserved(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(200):
            rows.append((f"u{rng.integers(5)}", f"p{rng.integers(10)}",
                         f"s{rng.integers(3)}", int(rng.integers(2))))
        raw = to_dataset(rows)
        data = preprocess(raw)
        for student, rows in data.by_student.items():
            problems = problem_ids(data, student)
            assert len(problems) == len(set(problems))
            keys = data.order[rows].tolist()
            assert keys == sorted(keys)
            # kept records appear in their original relative order
            it = iter(raw.order[raw.by_student[student]].tolist())
            assert all(k in it for k in keys)

    def test_dense_indices_contiguous(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\na,p9,s7,1\nb,p3,s2,0\n")
        data = preprocess(load_csv(path, SCHEMA))
        assert sorted(data.skill_index.values()) == [0, 1]
        assert sorted(data.problem_index.values()) == [0, 1]

    def test_empty_input_is_legal(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome\n")
        data = preprocess(load_csv(path, SCHEMA))
        assert data.n_records == 0


class TestCanonicalRoundTrip:
    def test_save_and_reload(self, tmp_path):
        rows, _ = mastery_process_rows(n_students=5, n_skills=3, attempts=15, seed=1)
        data = to_dataset(rows)
        out = tmp_path / "canon.csv"
        save_canonical(data, str(out))
        again = preprocess(load_csv(str(out), CANONICAL_SCHEMA))
        assert again.n_records == data.n_records
        assert records(again) == records(data)


class TestRestrictedTo:
    def test_indexes_keep_attempted_ids_in_dataset_order(self):
        data = to_dataset([("u0", "p0", "x", 1), ("u0", "p1", "a", 0),
                           ("u1", "p2", "b", 1), ("u1", "p1", "a", 1),
                           ("u2", "p3", "a", 0)])
        sub = data.restricted_to(np.array([False, True, True]))
        assert list(sub.by_student) == ["u1", "u2"]
        assert sub.skill_index == {"a": 0, "b": 1}
        assert sub.problem_index == {"p1": 0, "p2": 1, "p3": 2}


class TestSplitFolds:
    def make(self, n):
        return to_dataset([(f"u{i}", f"p{i}", "s0", 1) for i in range(n)])

    def test_even_partition(self):
        held_out = split_folds(self.make(10), k=5, seed=0)
        assert np.bincount(held_out).tolist() == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        held_out = split_folds(self.make(11), k=5, seed=0)
        assert sorted(np.bincount(held_out).tolist()) == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = split_folds(self.make(23), k=5, seed=9)
        b = split_folds(self.make(23), k=5, seed=9)
        assert a.tolist() == b.tolist()

    def test_disjoint_and_covering(self):
        # one fold per student, in by_student order, and every fold used
        data = self.make(17)
        held_out = split_folds(data, k=5, seed=3)
        assert held_out.shape == (len(data.by_student),)
        assert set(held_out.tolist()) == set(range(5))

    def test_deals_the_sorted_ids_round_robin_after_a_seeded_shuffle(self):
        # first-appearance order differs from sorted order, and the
        # folds follow each student, not the row position
        data = to_dataset([(f"u{i}", f"p{i}", "s0", 1) for i in (3, 10, 0, 7, 2, 11, 5)])
        students = sorted(data.by_student)
        shuffled = [students[i] for i in np.random.default_rng(4).permutation(len(students))]
        want = {s: i % 3 for i, s in enumerate(shuffled)}
        held_out = split_folds(data, k=3, seed=4)
        assert dict(zip(data.by_student, held_out.tolist())) == want

    def test_too_few_students(self):
        with pytest.raises(ValueError):
            split_folds(self.make(3), k=5, seed=0)

    def test_k_below_two(self):
        with pytest.raises(ValueError):
            split_folds(self.make(10), k=1, seed=0)
