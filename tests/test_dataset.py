import re

import numpy as np
import pytest

from ikt.dataset import (CANONICAL_SCHEMA, ColumnSchema, DataFormatError,
                         SchemaError, load_csv, load_schema, preprocess,
                         save_canonical, split_folds)

from synth import mastery_process_rows, to_dataset

SCHEMA = ColumnSchema(student="user", problem="item", skill="kc", correct="outcome")
SCHEMA_ORDERED = ColumnSchema(student="user", problem="item", skill="kc",
                              correct="outcome", order="ts")


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


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
        assert [r.correct for r in data.by_student["a"]] == [1, 0]

    def test_order_column_respected(self, tmp_path):
        # rows arrive out of chronological order
        path = write(tmp_path, "user,item,kc,outcome,ts\na,p2,s1,0,20\na,p1,s1,1,10\n")
        data = load_csv(path, SCHEMA_ORDERED)
        assert [r.problem_id for r in data.by_student["a"]] == ["p1", "p2"]

    def test_timestamp_strings_sort_lexicographically(self, tmp_path):
        path = write(tmp_path,
                     "user,item,kc,outcome,ts\n"
                     "a,p2,s1,0,2009-09-02 10:00:00\n"
                     "a,p1,s1,1,2009-09-01 09:00:00\n")
        data = load_csv(path, SCHEMA_ORDERED)
        assert [r.problem_id for r in data.by_student["a"]] == ["p1", "p2"]

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


class TestPreprocess:
    def test_first_attempt_kept(self, tmp_path):
        # wrong then right on the same problem: the first (wrong) stays
        path = write(tmp_path, "user,item,kc,outcome\na,p1,s1,0\na,p1,s1,1\n")
        data = preprocess(load_csv(path, SCHEMA))
        recs = data.by_student["a"]
        assert len(recs) == 1
        assert recs[0].correct == 0
        assert data.drops["repeat attempt"] == 1

    def test_exact_duplicates_collapse(self, tmp_path):
        path = write(tmp_path, "user,item,kc,outcome,ts\na,p1,s1,1,5\na,p1,s1,1,5\n")
        data = preprocess(load_csv(path, SCHEMA_ORDERED))
        assert data.n_records == 1
        assert data.drops["duplicate row"] == 1

    def test_pairs_unique_and_order_preserved(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(200):
            rows.append((f"u{rng.integers(5)}", f"p{rng.integers(10)}",
                         f"s{rng.integers(3)}", int(rng.integers(2))))
        raw = to_dataset(rows)
        data = preprocess(raw)
        for student, recs in data.by_student.items():
            problems = [r.problem_id for r in recs]
            assert len(problems) == len(set(problems))
            keys = [r.order_key for r in recs]
            assert keys == sorted(keys)
            # kept records appear in their original relative order
            raw_keys = [r.order_key for r in raw.by_student[student]]
            it = iter(raw_keys)
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
        for s in data.by_student:
            got = [(r.problem_id, r.skill_id, r.correct) for r in again.by_student[s]]
            want = [(r.problem_id, r.skill_id, r.correct) for r in data.by_student[s]]
            assert got == want


class TestRestrictedTo:
    def test_indexes_keep_attempted_ids_in_dataset_order(self):
        data = to_dataset([("u0", "p0", "x", 1), ("u0", "p1", "a", 0),
                           ("u1", "p2", "b", 1), ("u1", "p1", "a", 1),
                           ("u2", "p3", "a", 0)])
        sub = data.restricted_to({"u1", "u2"})
        assert list(sub.by_student) == ["u1", "u2"]
        assert sub.skill_index == {"a": 0, "b": 1}
        assert sub.problem_index == {"p1": 0, "p2": 1, "p3": 2}


class TestSplitFolds:
    def make(self, n):
        return to_dataset([(f"u{i}", f"p{i}", "s0", 1) for i in range(n)])

    def test_even_partition(self):
        folds = split_folds(self.make(10), k=5, seed=0)
        assert [len(f.test_students) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        folds = split_folds(self.make(11), k=5, seed=0)
        assert sorted(len(f.test_students) for f in folds) == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = split_folds(self.make(23), k=5, seed=9)
        b = split_folds(self.make(23), k=5, seed=9)
        assert [f.test_students for f in a] == [f.test_students for f in b]

    def test_disjoint_and_covering(self):
        data = self.make(17)
        folds = split_folds(data, k=5, seed=3)
        union = set()
        for f in folds:
            assert f.train_students & f.test_students == set()
            assert f.train_students | f.test_students == set(data.by_student)
            assert union & f.test_students == set()
            union |= f.test_students
        assert union == set(data.by_student)

    def test_too_few_students(self):
        with pytest.raises(ValueError):
            split_folds(self.make(3), k=5, seed=0)

    def test_k_below_two(self):
        with pytest.raises(ValueError):
            split_folds(self.make(10), k=1, seed=0)
