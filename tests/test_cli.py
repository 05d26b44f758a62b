import os

import pytest

from ikt import evaluation
from ikt.cli import main

from synth import mixed_process_rows, write_raw_csv

SCHEMA_TEXT = "student = user\nproblem = item\nskill = kc\ncorrect = outcome\norder = ts\n"


@pytest.fixture()
def workspace(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_csv(mixed_process_rows(n_students=25, n_skills=3, attempts=50, seed=9),
                  str(raw))
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
        ("centroids.tsv", "0.5\tx\n"),
        ("difficulty.tsv", "p1\thard\n"),
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

    def test_centroid_dimension_mismatch_exits_2(self, workspace, capsys):
        tmp, raw, schema = workspace
        fitted = tmp / "fitted"
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 0
        rows = mixed_process_rows(n_students=25, n_skills=3, attempts=50, seed=9)
        fewer = tmp / "two_skills.csv"
        write_raw_csv([r for r in rows if r[2] != rows[0][2]], str(fewer))
        capsys.readouterr()
        assert run(["predict", "--data", str(fewer), "--schema", schema,
                    "--model-dir", str(fitted), "--out", str(tmp / "p.tsv")]) == 2
        assert "centroids have dimension 3" in capsys.readouterr().err

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
