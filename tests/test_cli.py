import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikt import evaluation
from ikt.bkt import load_params_table
from ikt.cli import _load_bundle, _load_dataset, main
from ikt.evaluation import ExperimentConfig

from synth import mixed_process_rows, write_raw_csv

CLI_ROWS = mixed_process_rows(n_students=25, n_skills=3, attempts=50, seed=9)

SCHEMA_TEXT = "student = user\nproblem = item\nskill = kc\ncorrect = outcome\norder = ts\n"


@pytest.fixture()
def workspace(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_csv(CLI_ROWS, str(raw))
    schema = tmp_path / "schema.cfg"
    schema.write_text(SCHEMA_TEXT, encoding="utf-8")
    return tmp_path, str(raw), str(schema)


def run(argv):
    return main(argv)


class TestPreprocessCommand:
    def test_writes_dataset_and_reports(self, workspace, capsys):
        tmp, raw, schema = workspace
        out = tmp / "prep"
        assert run(["preprocess", "--data", raw, "--schema", schema,
                    "--out", str(out)]) == 0
        assert (out / "preprocessed.csv").exists()
        report = (out / "preprocess_report.txt").read_text()
        assert "records kept" in report
        kv = (out / "preprocess_report.kv").read_text()
        assert "records_kept = 1250" in kv

    def test_empty_input_warns_but_succeeds(self, tmp_path, capsys):
        raw = tmp_path / "empty.csv"
        raw.write_text("user,item,kc,outcome,ts\n", encoding="utf-8")
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA_TEXT, encoding="utf-8")
        code = run(["preprocess", "--data", str(raw), "--schema", str(schema),
                    "--out", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert (tmp_path / "out" / "preprocessed.csv").exists()


class TestInputErrors:
    @pytest.mark.parametrize("fault", ["missing", "incomplete"])
    @pytest.mark.parametrize("command", ["preprocess", "evaluate", "fit", "predict"])
    def test_missing_schema_exits_2_naming_path(self, workspace, capsys, command, fault):
        tmp, raw, _ = workspace
        schema = tmp / f"{fault}.cfg"
        if fault == "incomplete":
            schema.write_text("student = user\n", encoding="utf-8")
        argv = [command, "--data", raw, "--schema", str(schema)]
        if command == "predict":
            argv += ["--model-dir", str(tmp / "fitted"), "--out", str(tmp / "p.tsv")]
        else:
            argv += ["--out", str(tmp / "x")]
        assert run(argv) == 2
        assert f"{fault}.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("skip, code", [("true", 2), ("false", 0)])
    def test_single_class_fold_exits_2(self, tmp_path, capsys, monkeypatch, skip, code):
        # folds = 10 on 10 students puts each student in its own test fold;
        # u003 misses only its first attempt, which is scored unless skipped
        rows = [(s, p, k, int(i != 150) if s == "u003" else c) for i, (s, p, k, c) in
                enumerate(mixed_process_rows(n_students=10, n_skills=3, attempts=50, seed=9))]
        raw = tmp_path / "raw.csv"
        write_raw_csv(rows, str(raw))
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA_TEXT, encoding="utf-8")
        config = tmp_path / "ten.cfg"
        config.write_text("folds = 10\ngrid_step = 0.25\nkmeans_restarts = 1\n"
                          f"skip_first_interval = {skip}\n", encoding="utf-8")
        if code == 2:
            monkeypatch.setattr("ikt.evaluation._run_fold", None)  # a fit would exit 1
        assert run(["evaluate", "--data", str(raw), "--schema", str(schema),
                    "--config", str(config), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert ("fold" in err and "two classes" in err) == (code == 2)

    @pytest.mark.parametrize("content, message", [
        (b"folds 3\n", "bad.kv:1: expected 'key = value'"),
        (b"seed = 1\nfolds = \xff\n", "bad.kv: byte 17 is not valid UTF-8"),
    ], ids=["no_equals_sign", "undecodable"])
    def test_bad_config_file_exits_2(self, workspace, capsys, content, message):
        tmp, raw, schema = workspace
        config = tmp / "bad.kv"
        config.write_bytes(content)
        assert run(["evaluate", "--data", raw, "--schema", schema,
                    "--config", str(config), "--out", str(tmp / "x")]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal" not in err

    @pytest.mark.parametrize("command", ["preprocess", "evaluate"])
    def test_undecodable_data_exits_2(self, workspace, capsys, command):
        tmp, raw, schema = workspace
        text = (tmp / "raw.csv").read_bytes()
        offset = text.index(b"\n", 9000) + 2  # past the text reader's first buffer
        bad = tmp / "bad.csv"
        bad.write_bytes(text[:offset] + b"\xff" + text[offset:])
        assert run([command, "--data", str(bad), "--schema", schema,
                    "--out", str(tmp / "x")]) == 2
        assert f"bad.csv: byte {offset} is not valid UTF-8" in capsys.readouterr().err

    def test_too_few_students_exits_2(self, workspace, capsys, monkeypatch):
        tmp, raw, schema = workspace
        config = tmp / "many.cfg"
        config.write_text("folds = 26\n", encoding="utf-8")
        monkeypatch.setattr("ikt.evaluation._run_fold", None)  # a fit would exit 1
        assert run(["evaluate", "--data", raw, "--schema", schema,
                    "--config", str(config), "--out", str(tmp / "x")]) == 2
        assert "need at least 26 students for 26 folds, have 25" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content", [
        ("tan_ikt3.model", "not a model\n"),
        ("bkt_params.tsv", "not a table\n"),
        ("bkt_params.tsv", "skill_id\tl0\tt\tg\ts\ns1\t0.5\n"),
        ("bkt_params.tsv", "skill_id\tl0\tt\tg\ts\ns1\t0.5\t0.1\t0.2\t0.1\n"
                           "s1\t0.5\t0.1\t0.2\t0.1\n"),
        ("centroids.tsv", "0.5\tx\n"),
        ("centroids.tsv", "0.5\t0.5\t0.5\n0.5\t0.5\n"),
        ("difficulty.tsv", "p1\thard\n"),
        ("manifest.kv", "config.feature_set = ikt3\n"),
    ])
    def test_malformed_artifact_exits_2(self, workspace, capsys, name, content):
        tmp, raw, schema = workspace
        fitted = tmp / "fitted"
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 0
        (fitted / name).write_text(content, encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "--data", raw, "--schema", schema,
                    "--model-dir", str(fitted), "--out", str(tmp / "p.tsv")]) == 2
        err = capsys.readouterr().err
        assert "malformed artifact" in err and "internal" not in err
        assert re.search(re.escape(name) + r"(:\d+)?: ", err)  # names the file

    def test_centroid_dimension_mismatch_exits_2(self, workspace, capsys):
        # the bundle itself disagrees: 3 centroid columns, 2 skill rows
        tmp, raw, schema = workspace
        fitted = tmp / "fitted"
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 0
        table = fitted / "bkt_params.tsv"
        table.write_text("".join(table.read_text().splitlines(True)[:-1]))
        capsys.readouterr()
        assert run(["predict", "--data", raw, "--schema", schema,
                    "--model-dir", str(fitted), "--out", str(tmp / "p.tsv")]) == 2
        err = capsys.readouterr().err
        assert "centroids have dimension 3" in err and "lists 2 skills" in err

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_truncated_model_exits_2(self, workspace, capsys, command):
        tmp, raw, schema = workspace
        fitted = tmp / "fitted"
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 0
        model = fitted / "tan_ikt3.model"
        text = model.read_text()
        model.write_text(text[:text.index("[tree]")])
        capsys.readouterr()
        if command == "predict":
            argv = ["predict", "--data", raw, "--schema", schema,
                    "--model-dir", str(fitted), "--out", str(tmp / "p.tsv")]
        else:
            argv = ["explain", "--model", str(model), "skill=1", "mastery=0.4",
                    "profile=1", "difficulty=5"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "tan_ikt3.model: feature" in err and "tree" in err
        assert "internal" not in err

    def test_internal_value_error_exits_1_with_traceback(self, workspace, capsys,
                                                         monkeypatch):
        def broken(*args):
            raise ValueError("broken layer")

        monkeypatch.setattr(evaluation, "fit_fold_artifacts", broken)
        tmp, raw, schema = workspace
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(tmp / "x")]) == 1
        err = capsys.readouterr().err
        assert "internal error: broken layer" in err
        assert "Traceback" in err and "in broken" in err


@pytest.fixture()
def preprocessed(workspace):
    tmp, raw, schema = workspace
    out = tmp / "prep"
    assert run(["preprocess", "--data", raw, "--schema", schema, "--out", str(out)]) == 0
    return tmp, str(out / "preprocessed.csv")


class TestEvaluateCommand:
    def test_writes_metrics_and_manifest(self, preprocessed):
        tmp, data = preprocessed
        out = tmp / "eval"
        assert run(["evaluate", "--data", data, "--out", str(out), "--seed", "3"]) == 0
        assert (out / "metrics_ikt3.txt").exists()
        assert (out / "metrics_ikt3.kv").exists()
        manifest = (out / "manifest.kv").read_text()
        assert "config.seed = 3" in manifest
        assert "input.data.sha256" in manifest
        assert (out / "artifacts" / "fold0" / "bkt_params.tsv").exists()
        assert (out / "artifacts" / "fold0" / "tan_ikt3.model").exists()

    def test_skill_seen_only_by_test_students_is_not_in_the_fold(self, tmp_path):
        # one student holds the only attempts on s_private; the fold that
        # tests that student must fit, and write, the other skills only
        private = [("priv", f"q{i}", ("s0", "s1", "s2", "s_private")[i % 4], i % 2)
                   for i in range(20)]
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS + private, str(raw))
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA_TEXT, encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("grid_step = 0.25\nkmeans_restarts = 1\n", encoding="utf-8")
        out = tmp_path / "eval"
        assert run(["evaluate", "--data", str(raw), "--schema", str(schema),
                    "--config", str(config), "--out", str(out)]) == 0
        without = 0
        for fold in sorted((out / "artifacts").iterdir()):
            skills = [ln.split("\t")[0] for ln in
                      (fold / "bkt_params.tsv").read_text().splitlines()[1:]]
            widths = {len(ln.split("\t")) for ln in
                      (fold / "centroids.tsv").read_text().splitlines()}
            assert widths == {len(skills)}, fold.name
            without += "s_private" not in skills
        assert without == 1

    def test_invalid_config_field_named(self, preprocessed, capsys):
        tmp, data = preprocessed
        bad = tmp / "bad.cfg"
        bad.write_text("clusters = 0\n", encoding="utf-8")
        code = run(["evaluate", "--data", data, "--config", str(bad),
                    "--out", str(tmp / "x")])
        assert code == 2
        assert "clusters" in capsys.readouterr().err

    def test_unknown_config_key_named(self, preprocessed, capsys):
        tmp, data = preprocessed
        bad = tmp / "bad2.cfg"
        bad.write_text("klusters = 3\nfolds = 1\n", encoding="utf-8")
        code = run(["evaluate", "--data", data, "--config", str(bad),
                    "--out", str(tmp / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "klusters" in err and "folds" in err

    def test_ablation_shares_folds(self, preprocessed):
        tmp, data = preprocessed
        out = tmp / "ablation"
        assert run(["evaluate", "--data", data, "--out", str(out), "--seed", "3",
                    "--ablation"]) == 0
        digests = set()
        for fs in ("ikt1", "ikt2", "ikt3"):
            kv = (out / f"metrics_{fs}.kv").read_text()
            digests.add([ln for ln in kv.splitlines()
                         if ln.startswith("fold_digest")][0])
        assert len(digests) == 1
        assert (out / "ablation_summary.txt").exists()

    def test_byte_identical_reruns(self, preprocessed):
        tmp, data = preprocessed
        out1, out2 = tmp / "r1", tmp / "r2"
        for out in (out1, out2):
            assert run(["evaluate", "--data", data, "--out", str(out),
                        "--seed", "5"]) == 0
        for name in ("metrics_ikt3.txt", "metrics_ikt3.kv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_dump_predictions(self, preprocessed):
        tmp, data = preprocessed
        out = tmp / "dump"
        assert run(["evaluate", "--data", data, "--out", str(out), "--seed", "3",
                    "--dump-predictions"]) == 0
        dump = (out / "predictions_ikt3_fold0.tsv").read_text().splitlines()
        assert dump[0].split("\t") == ["student", "position", "skill", "mastery",
                                       "profile", "difficulty", "probability", "label"]
        assert len(dump) > 1


class TestFitPredictExplain:
    def test_full_chain(self, preprocessed, capsys, monkeypatch):
        # tracing wrappers replace these, so they are looked up at call time
        calls = []
        for name in ("fit_fold_artifacts", "build_feature_rows"):
            monkeypatch.setattr(evaluation, name, lambda *a, _n=name,
                                _f=getattr(evaluation, name): calls.append(_n) or _f(*a))
        tmp, data = preprocessed
        fitted = tmp / "fitted"
        assert run(["fit", "--data", data, "--out", str(fitted), "--seed", "3"]) == 0
        assert (fitted / "bkt_params.tsv").exists()
        assert (fitted / "profiles.tsv").exists()
        preds = tmp / "preds.tsv"
        assert run(["predict", "--data", data, "--model-dir", str(fitted),
                    "--out", str(preds)]) == 0
        lines = preds.read_text().splitlines()
        assert len(lines) == 1251  # header + one row per interaction
        assert calls == ["fit_fold_artifacts", "build_feature_rows", "build_feature_rows"]

        capsys.readouterr()
        assert run(["explain", "--model", str(fitted / "tan_ikt3.model"),
                    "skill=1", "mastery=0.4", "profile=1", "difficulty=5"]) == 0
        out = capsys.readouterr().out
        assert "posterior" in out
        assert out.count("): ") == 4  # one contribution line per evidence node
        assert "sum of contributions" in out

    def test_explain_out_of_domain_flagged(self, preprocessed, capsys):
        tmp, data = preprocessed
        fitted = tmp / "fitted2"
        assert run(["fit", "--data", data, "--out", str(fitted), "--seed", "3"]) == 0
        capsys.readouterr()
        assert run(["explain", "--model", str(fitted / "tan_ikt3.model"),
                    "skill=1", "mastery=0.4", "profile=1", "difficulty=99"]) == 0
        out = capsys.readouterr().out
        assert "outside the model domain" in out

    def test_explain_missing_evidence_named(self, preprocessed, capsys):
        tmp, data = preprocessed
        fitted = tmp / "fitted3"
        assert run(["fit", "--data", data, "--out", str(fitted), "--seed", "3"]) == 0
        code = run(["explain", "--model", str(fitted / "tan_ikt3.model"), "skill=1"])
        assert code == 2
        assert "mastery" in capsys.readouterr().err

    def test_explain_missing_model_exits_2(self, tmp_path, capsys):
        code = run(["explain", "--model", str(tmp_path / "none.model"), "skill=1"])
        assert code == 2


def predict_rows(raw, schema, fitted, out):
    """Prediction lines of one predict run, grouped by student."""
    assert run(["predict", "--data", str(raw), "--schema", schema,
                "--model-dir", str(fitted), "--out", str(out)]) == 0
    by_student: dict = {}
    for line in out.read_text().splitlines()[1:]:
        by_student.setdefault(line.split("\t")[0], []).append(line)
    return by_student


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A bundle fitted on the CLI log and the predictions it gives that log."""
    tmp = tmp_path_factory.mktemp("bundle")
    raw = tmp / "raw.csv"
    write_raw_csv(CLI_ROWS, str(raw))
    schema = tmp / "schema.cfg"
    schema.write_text(SCHEMA_TEXT, encoding="utf-8")
    fitted = tmp / "fitted"
    assert run(["fit", "--data", str(raw), "--schema", str(schema),
                "--out", str(fitted)]) == 0
    return str(schema), fitted, predict_rows(raw, str(schema), fitted, tmp / "p.tsv")


def rows_by_student(rows):
    out: dict = {}
    for row in rows:
        out.setdefault(row[0], []).append(row)
    return out


class TestPredictUsesTheBundle:
    """A student's predictions depend on the bundle and that student only."""

    def test_unrelated_student_first_changes_nothing_else(self, bundle, tmp_path,
                                                          capsys):
        schema, fitted, expected = bundle
        # the newcomer's skills first appear in the order s2, s_new, s0;
        # every fifth problem is a fitted one, the other 36 are new
        newcomer = [("new", f"p_s0_{i // 5}" if i % 5 == 0 else f"q{i}",
                     ("s2", "s_new", "s0")[i % 3], i % 2) for i in range(45)]
        raw = tmp_path / "more.csv"
        write_raw_csv(newcomer + CLI_ROWS, str(raw))
        capsys.readouterr()
        got = predict_rows(raw, schema, fitted, tmp_path / "p.tsv")
        out = capsys.readouterr().out
        assert "(15 with a skill outside the fitted vocabulary)" in out
        assert "(36 with a problem outside the fitted difficulty table)" in out
        assert {s: got[s] for s in expected} == expected
        assert [ln.split("\t")[2] for ln in got["new"][:3]] == ["s2", "s_new", "s0"]

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(range(25)),
           newcomers=st.lists(st.tuples(
               st.integers(0, 25),
               st.lists(st.tuples(st.sampled_from(["s0", "s1", "s2", "s9"]),
                                  st.integers(0, 40), st.integers(0, 1)),
                        min_size=1, max_size=45)),
               max_size=3))
    def test_inserting_or_reordering_students_changes_nothing_else(
            self, bundle, order, newcomers):
        schema, fitted, expected = bundle
        groups = list(rows_by_student(CLI_ROWS).values())
        groups = [groups[i] for i in order]
        for j, (at, attempts) in enumerate(newcomers):
            groups.insert(at, [(f"x{j}", f"p_{sk}_{n}", sk, c) for sk, n, c in attempts])
        with tempfile.TemporaryDirectory() as tmp:
            raw = os.path.join(tmp, "log.csv")
            write_raw_csv([row for group in groups for row in group], raw)
            got = predict_rows(raw, schema, fitted, Path(tmp) / "p.tsv")
        assert {s: got[s] for s in expected} == expected

    def test_predict_log_with_fewer_skills_succeeds(self, bundle, tmp_path):
        schema, fitted, expected = bundle
        raw = tmp_path / "two_skills.csv"
        write_raw_csv([r for r in CLI_ROWS if r[2] != "s0"], str(raw))
        got = predict_rows(raw, schema, fitted, tmp_path / "p.tsv")
        assert set(got) == set(expected)
        # without s0 each student starts on s1, at s1's fitted prior
        l0 = load_params_table(str(fitted / "bkt_params.tsv"))["s1"].l0
        for lines in got.values():
            assert lines[0].split("\t")[2:4] == ["s1", f"{l0:.6f}"]

    def test_loaded_bundle_reproduces_in_sample_rows(self, bundle, tmp_path):
        schema, fitted, _ = bundle
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        data = _load_dataset(str(raw), schema)
        fitted_rows, = evaluation.build_feature_rows(
            evaluation.fit_fold_artifacts(data, ExperimentConfig()), 20, data)
        artifacts, interval_len, _ = _load_bundle(str(fitted))
        loaded_rows, = evaluation.build_feature_rows(artifacts, interval_len, data)
        for f in ("skill", "mastery", "profile", "difficulty", "label", "position"):
            assert np.array_equal(getattr(fitted_rows, f), getattr(loaded_rows, f)), f
        assert fitted_rows.student == loaded_rows.student

    def test_bkt_params_rows_follow_skill_codes(self, tmp_path):
        # skills first appear in the order kc_c, kc_a, kc_b, not sorted
        names = {"s0": "kc_c", "s1": "kc_a", "s2": "kc_b"}
        raw = tmp_path / "raw.csv"
        write_raw_csv([(s, p, names[k], c) for s, p, k, c in CLI_ROWS], str(raw))
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA_TEXT, encoding="utf-8")
        fitted = tmp_path / "fitted"
        assert run(["fit", "--data", str(raw), "--schema", str(schema),
                    "--out", str(fitted)]) == 0
        data = _load_dataset(str(raw), str(schema))
        table = (fitted / "bkt_params.tsv").read_text().splitlines()[1:]
        assert [ln.split("\t")[0] for ln in table] == list(data.skill_index)
        assert list(data.skill_index) == ["kc_c", "kc_a", "kc_b"]
