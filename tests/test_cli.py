import dataclasses
import os
import re
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikt import ability, evaluation, tan
from ikt.ability import ClusterModel
from ikt.bkt import BktParams
from ikt.bundle import load_bundle, write_bundle
from ikt.cli import InputError, _dump_predictions, _load_dataset, load_config, main
from ikt.dataset import DataFormatError, Dataset, _open_output, split_folds
from ikt.difficulty import DifficultyTable
from ikt.evaluation import ExperimentConfig, FeatureTable, FoldArtifacts

from synth import (fit_artifacts, mixed_process_rows, small_model, to_dataset,
                   write_raw_csv)
from test_exports import _fresh_modules

CLI_ROWS = mixed_process_rows(n_students=25, n_skills=3, attempts=50, seed=9)

SCHEMA_TEXT = "student = user\nproblem = item\nskill = kc\ncorrect = outcome\norder = ts\n"

PARAMS_HEADER = "skill_id\tl0\tt\tg\ts\n"
PARAMS_ROWS = "s1\t0.5\t0.1\t0.2\t0.1\ns2\t0.5\t0.1\t0.2\t0.1\n"
FAST_CONFIG = "grid_step = 0.25\nkmeans_restarts = 1\n"
BUNDLE_FILES = ["manifest.kv", "bkt_params.tsv", "centroids.tsv", "difficulty.tsv",
                "tan_ikt3.model"]


@pytest.fixture()
def workspace(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_csv(CLI_ROWS, str(raw))
    schema = tmp_path / "schema.cfg"
    schema.write_text(SCHEMA_TEXT, encoding="utf-8")
    return tmp_path, str(raw), str(schema)


def run(argv):
    return main(argv)


def manifest_lines(path):
    """The (key, value) pairs of a manifest.kv, in file order."""
    return [tuple(line.split(" = ", 1)) for line in Path(path).read_text().splitlines()]


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

    def test_report_counts_each_drop_reason(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("user,item,kc,outcome,ts\n"
                       "a,p1,s1,1,1\na,p1,s1,1,1\n"  # a duplicate row
                       "a,p1,s1,0,2\na,p1,s1,1,6\n"  # two repeat attempts
                       "a,,s1,1,3\na,p2,,1,4\na,p3,s1,,5\n"  # a blank cell each
                       "b,p2,s1,0,1\nb,p3,s1,1,2\n", encoding="utf-8")
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA_TEXT, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["preprocess", "--data", str(raw), "--schema", str(schema),
                    "--out", str(out)]) == 0
        text = (out / "preprocess_report.txt").read_text()
        assert text.splitlines()[2:] == [
            "records kept:   3", "students:       2", "skills:         1",
            "problems:       3", "rows dropped:   6",
            "  1 dropped: duplicate row", "  1 dropped: missing correctness",
            "  1 dropped: missing problem", "  1 dropped: missing skill",
            "  2 dropped: repeat attempt"]
        assert (out / "preprocess_report.kv").read_text().splitlines()[4:] == [
            "rows_dropped = 6", "dropped.duplicate_row = 1",
            "dropped.missing_correctness = 1", "dropped.missing_problem = 1",
            "dropped.missing_skill = 1", "dropped.repeat_attempt = 2"]
        assert capsys.readouterr().out == text


# each fault's schema text, and what the error names after the path
SCHEMA_FAULTS = {
    "incomplete": ("student = user\n", ": missing required schema keys: problem, skill"),
    # csv.reader once refused these as an internal error; '#' starts a
    # comment, so the second leaves an empty delimiter
    "two_character_delimiter": (SCHEMA_TEXT + "delimiter = ;;\n",
                                ": delimiter must be one character or tab, got ';;'"),
    "comment_delimiter": (SCHEMA_TEXT + "delimiter = #\n",
                          ": delimiter must be one character or tab, got ''"),
    # the last of two values was once taken silently
    "key_repeated": (SCHEMA_TEXT + "skill = kc\n", ":6: skill is given more than once"),
    # either scaffold key alone once applied no filter, silently
    "scaffold_column_alone": (SCHEMA_TEXT + "scaffold_column = kc\n",
                              ": scaffold_column is set but scaffold_keep is missing"),
    "scaffold_keep_alone": (SCHEMA_TEXT + "scaffold_keep = 1\n",
                            ": scaffold_keep is set but scaffold_column is missing"),
}


class TestInputErrors:
    @pytest.mark.parametrize("fault", ["missing", *SCHEMA_FAULTS])
    @pytest.mark.parametrize("command", ["preprocess", "evaluate", "fit", "predict"])
    def test_missing_schema_exits_2_naming_path(self, workspace, capsys, command, fault):
        tmp, raw, _ = workspace
        schema = tmp / f"{fault}.cfg"
        named = ""
        if fault in SCHEMA_FAULTS:
            text, named = SCHEMA_FAULTS[fault]
            schema.write_text(text, encoding="utf-8")
        argv = [command, "--data", raw, "--schema", str(schema)]
        if command == "predict":
            argv += ["--model-dir", str(tmp / "fitted"), "--out", str(tmp / "p.tsv")]
        else:
            argv += ["--out", str(tmp / "x")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{fault}.cfg{named}" in err and "internal" not in err

    @pytest.mark.parametrize("command, option", [
        ("preprocess", "--data"), ("predict", "--data"), ("predict", "--out")])
    def test_directory_path_exits_2(self, workspace, capsys, command, option):
        # opening a directory once failed as an internal error
        tmp, raw, schema = workspace
        fitted = tmp / "fitted"
        if command == "predict":
            assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 0
            capsys.readouterr()
        paths = {"--data": raw, "--out": str(tmp / ("x" if command == "preprocess" else "p.tsv"))}
        paths[option] = str(tmp)
        argv = [command, "--data", paths["--data"], "--schema", schema, "--out", paths["--out"]]
        if command == "predict":
            argv += ["--model-dir", str(fitted)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"Is a directory: '{tmp}'" in err and "internal" not in err

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
            for name in ("skill_params", "_run_fold"):  # a fit would exit 1
                monkeypatch.setattr(f"ikt.evaluation.{name}", None)
        assert run(["evaluate", "--data", str(raw), "--schema", str(schema),
                    "--config", str(config), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert ("fold" in err and "two classes" in err) == (code == 2)
        # the run made --out before the check, and removes it again; a
        # directory that was there before stays, as does what it holds
        assert (tmp_path / "x").exists() == (code == 0)
        if code == 2:
            # every directory the run made goes, up to the one that was there
            (tmp_path / "kept").mkdir()
            assert run(["evaluate", "--data", str(raw), "--schema", str(schema),
                        "--config", str(config), "--out", str(tmp_path / "kept/x/y/z")]) == 2
            assert (tmp_path / "kept").is_dir() and not any((tmp_path / "kept").iterdir())
            (tmp_path / "empty").mkdir()
            (tmp_path / "full").mkdir()
            (tmp_path / "full" / "old.txt").write_text("old\n")
            for kept in (tmp_path / "empty", tmp_path / "full"):
                assert run(["evaluate", "--data", str(raw), "--schema", str(schema),
                            "--config", str(config), "--out", str(kept)]) == 2
                assert kept.is_dir()
            assert (tmp_path / "full" / "old.txt").read_text() == "old\n"

    @pytest.mark.parametrize("command, layer", [
        ("fit", "fit_fold_artifacts"), ("evaluate", "_run_fold"),
        ("predict", "build_feature_rows")])
    def test_unusable_output_path_exits_2_before_the_work(self, workspace, capsys,
                                                          monkeypatch, command, layer):
        # the output was once made only after the fit or the replay, so a
        # bad path cost the whole run; here that work raises, exiting 1
        tmp, raw, schema = workspace
        argv = [command, "--data", raw, "--schema", schema]
        if command == "predict":
            fitted = tmp / "fitted"
            assert run(["fit", *argv[1:], "--out", str(fitted)]) == 0
            out = tmp / "missing" / "p.tsv"
            argv += ["--model-dir", str(fitted)]
            message = f"[Errno 2] No such file or directory: '{out}'"
        else:
            out = tmp / "taken"
            out.write_text("")
            argv += ["--ablation"] if command == "evaluate" else []
            message = f"[Errno 17] File exists: '{out}'"

        def broken(*args, **kwargs):
            raise RuntimeError("the work ran")

        monkeypatch.setattr(evaluation, layer, broken)
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("content, message", [
        (b"folds 3\n", "bad.kv:1: expected 'key = value'"),
        (b"seed = 1\nfolds = \xff\n", "bad.kv: byte 17 is not valid UTF-8"),
        # at alpha 0 a value unseen in both classes once gave nan predictions
        (b"alpha = 0\n", "alpha: must be > 0 and finite, got 0.0"),
        (b"alpha = inf\n", "alpha: must be > 0 and finite, got inf"),
        # numpy refused a negative seed as an internal error
        (b"seed = -1\n", "seed: must be >= 0, got -1"),
        # the last of two values was once taken silently
        (b"seed = 1\nfolds = 3\nseed = 2\n", "bad.kv:3: seed is given more than once"),
        # a '#' not after whitespace once started a comment, so this read 3
        (b"seed = 3#x\n", "seed: expected int, got '3#x'"),
        (b"kmeans_restarts = 0\n", "kmeans_restarts: must be >= 1, got 0"),
        (b"grid_step = 0.5\n", "grid_step: must be in (0, 0.5), got 0.5"),
        (b"guess_cap = 1.5\n", "guess_cap: must be in (0, 1), got 1.5"),
        (b"workers = 0\n", "workers: must be >= 1, got 0"),
        (b"skip_first_interval = maybe\n",
         "skip_first_interval: expected true/false, got 'maybe'"),
        # a byte-order mark is skipped, but counts in the byte offset
        (b"\xef\xbb\xbfseed = 1\nfolds = \xff\n", "bad.kv: byte 20 is not valid UTF-8"),
    ], ids=["no_equals_sign", "undecodable", "alpha_zero", "alpha_infinite", "seed_negative",
            "key_repeated", "hash_inside_value", "restarts_zero", "grid_step_half",
            "cap_above_one", "workers_zero", "bool_not_true_or_false",
            "undecodable_after_byte_order_mark"])
    def test_bad_config_file_exits_2(self, workspace, capsys, content, message):
        tmp, raw, schema = workspace
        config = tmp / "bad.kv"
        config.write_bytes(content)
        assert run(["evaluate", "--data", raw, "--schema", schema,
                    "--config", str(config), "--out", str(tmp / "x")]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal" not in err

    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    def test_negative_seed_option_exits_2(self, workspace, capsys, command):
        tmp, raw, schema = workspace
        assert run([command, "--data", raw, "--schema", schema, "--seed", "-1",
                    "--out", str(tmp / "x")]) == 2
        err = capsys.readouterr().err
        assert "seed: must be >= 0, got -1" in err and "internal" not in err

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

    def test_cell_over_the_csv_field_limit_exits_2(self, workspace, capsys):
        # csv.Error once escaped load_csv as an internal error (exit 1)
        tmp, raw, schema = workspace
        lines = (tmp / "raw.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[2] = "k" * 140_000
        bad = tmp / "long.csv"
        bad.write_text("".join(lines[:3]) + ",".join(cells) + "".join(lines[4:]),
                       encoding="utf-8")
        assert run(["preprocess", "--data", str(bad), "--schema", schema,
                    "--out", str(tmp / "x")]) == 2
        err = capsys.readouterr().err
        assert "long.csv: line 4: field larger than field limit (131072)" in err
        assert "internal" not in err

    def test_too_few_students_exits_2(self, workspace, capsys, monkeypatch):
        tmp, raw, schema = workspace
        config = tmp / "many.cfg"
        config.write_text("folds = 26\n", encoding="utf-8")
        for name in ("skill_params", "_run_fold"):  # a fit would exit 1
            monkeypatch.setattr(f"ikt.evaluation.{name}", None)
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
        # values out of range, and a problem listed twice, once loaded silently
        pytest.param("bkt_params.tsv", PARAMS_HEADER + "s0\t1.5\t0.1\t0.2\t0.1\n"
                     + PARAMS_ROWS, id="l0_above_one"),
        pytest.param("bkt_params.tsv", PARAMS_HEADER + "s0\tnan\t0.1\t0.2\t0.1\n"
                     + PARAMS_ROWS, id="l0_nan"),
        pytest.param("bkt_params.tsv", PARAMS_HEADER + "s0\t0.5\t-0.3\t0.2\t0.1\n"
                     + PARAMS_ROWS, id="t_negative"),
        pytest.param("centroids.tsv", "0.5\t0.5\t0.5\n0.5\tnan\t0.5\n", id="centroid_nan"),
        pytest.param("centroids.tsv", "0.5\tinf\t0.5\n", id="centroid_inf"),
        pytest.param("centroids.tsv", "0.5\t1.2\t0.5\n", id="centroid_above_one"),
        pytest.param("difficulty.tsv", "# default\t5\np_s0_0\t3\np_s0_0\t4\n",
                     id="problem_listed_twice"),
        pytest.param("difficulty.tsv", "# default\t5\np_s0_0\t11\n", id="level_above_10"),
        pytest.param("difficulty.tsv", "p_s0_0\t-1\n", id="level_negative"),
        pytest.param("difficulty.tsv", "# default\t12\n", id="default_level_above_10"),
        pytest.param("difficulty.tsv", "# default\t5\n# default\t6\n",
                     id="default_level_twice"),
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
        if name.endswith(".tsv"):  # and, in a table, the line
            assert re.search(re.escape(name) + r":\d+: ", err)

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
            argv = ["explain", "--model-dir", str(fitted), "skill=s1", "mastery=0.4",
                    "profile=1", "difficulty=5"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "tan_ikt3.model: [tree] has 0 lines, not 4" in err
        assert "internal" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: re.sub(r"class_prior = .*\n", "", text),
         "tan_ikt3.model: has no class_prior line"),
        (lambda text: text.replace("[cpt skill]\n0 0 ", "[cpt skill]\n99 0 "),
         "tan_ikt3.model:{cpt_row}: [cpt skill] row 99 0 where row 0 0 belongs"),
        (lambda text: re.sub(r"class_prior = (\S+) .*\n", r"class_prior = \1 x\n", text),
         "tan_ikt3.model:3: could not convert string to float: 'x'"),
        (lambda text: re.sub(r"(\[cpt skill\]\n\S+ \S+ \S+) \S+\n", r"\1\n", text),
         "tan_ikt3.model:{cpt_row}: [cpt skill] not enough values to unpack"),
        # each below once loaded: predict wrote other probabilities than
        # explain, wrote nan, or failed as an internal error
        (lambda text: re.sub(r"(\[domain skill\]\n)(\S+) (\S+)", r"\1\3 \2", text),
         "tan_ikt3.model:{domain_row}: [domain skill] is not strictly increasing"),
        (lambda text: re.sub(r"(\[cutpoints mastery\]\n\S+)", r"\1 -0.5", text),
         "tan_ikt3.model:{cut_row}: [cutpoints mastery] is not strictly increasing and finite"),
        (lambda text: re.sub(r"(\[cutpoints mastery\]\n)\S+", r"\1nan", text),
         "tan_ikt3.model:{cut_row}: [cutpoints mastery] is not strictly increasing and finite"),
        (lambda text: re.sub(r"\nmastery \S+\n", "\nmastery foo\n", text),
         "tan_ikt3.model: [tree] parent 'foo' of 'mastery' is not another listed feature"),
        # the fitted tree leads mastery, profile and difficulty to skill
        (lambda text: text.replace("\nskill -\n", "\nskill mastery\n"),
         "tan_ikt3.model: [tree] 'skill' reaches no root: its parent links cycle through "
         "skill mastery profile difficulty"),
        (lambda text: re.sub(r"(\[cpt skill\]\n\S+ \S+) \S+", r"\1 -0.5", text),
         "tan_ikt3.model:{cpt_row}: [cpt skill] '-0.5' is not a probability in [0, 1]"),
        (lambda text: re.sub(r"class_prior = \S+", "class_prior = nan", text),
         "tan_ikt3.model:3: 'nan' is not a probability in [0, 1]"),
        (lambda text: re.sub(r"\bskill\b", "foo", text),
         "tan_ikt3.model: features foo mastery profile difficulty, but feature set "
         "ikt3 is skill mastery profile difficulty"),
        # each below once loaded: a missing cell read 0 and predict wrote
        # nan, and of two rows for one cell, or of two sections, the last won
        (lambda text: re.sub(r"(\[cpt skill\]\n)\S+ \S+ \S+ \S+\n", r"\1", text),
         "tan_ikt3.model: [cpt skill] has 2 lines, not 3"),
        (lambda text: text.replace("[cpt skill]\n", "[cpt skill]\n0 0 0.5 0.5\n"),
         "tan_ikt3.model: [cpt skill] has 4 lines, not 3"),
        (lambda text: re.sub(r"(\[cpt skill\]\n)(.*\n)(.*\n)", r"\1\3\2", text),
         "tan_ikt3.model:{cpt_row}: [cpt skill] row 1 0 where row 0 0 belongs"),
        (lambda text: re.sub(r"(\[domain skill\]\n.*\n)", r"\1\1", text),
         "tan_ikt3.model: [domain skill] has 2 lines, not 1"),
        # each below once loaded: predict wrote nan for every row or for
        # some, or probabilities from a column that is no distribution
        (lambda text: re.sub(r"class_prior = .*", "class_prior = 0.0 0.0", text),
         "tan_ikt3.model: class_prior holds 0.0, not a probability in (0, 1]"),
        (lambda text: re.sub(r"(\[cpt skill\]\n0 0) .*", r"\1 0.0 0.0", text),
         "tan_ikt3.model: [cpt skill] column (parent index 0, class 0) holds 0.0, "
         "not a probability in (0, 1]"),
        (lambda text: re.sub(r"(\[cpt skill\]\n0 0) .*", r"\1 0.9 0.9", text),
         "tan_ikt3.model: [cpt skill] column (parent index 0, class 0) sums to "),
        # each below once loaded: alpha read as None or as given, and a
        # line of no or an unknown key was ignored
        (lambda text: re.sub(r"alpha = .*\n", "", text), "tan_ikt3.model: has no alpha line"),
        (lambda text: re.sub(r"alpha = .*", "alpha = -3", text),
         "tan_ikt3.model:2: alpha must be > 0 and finite, got -3"),
        (lambda text: re.sub(r"(alpha = .*\n)", r"\1\1", text),
         "tan_ikt3.model: the alpha line is given more than once"),
        (lambda text: re.sub(r"(alpha = .*\n)", r"\1foo = 1\n", text),
         "tan_ikt3.model:3: 'foo = 1' is not an alpha, class_prior or features line"),
        (lambda text: text.replace("alpha = ", "alpha "),
         "tan_ikt3.model:2: 'alpha 1.0' is not an alpha, class_prior or features line"),
    ], ids=["no_class_prior", "cpt_index_outside_domain", "class_prior_not_numeric",
            "cpt_row_with_three_fields", "domain_out_of_order", "cutpoints_out_of_order",
            "cutpoint_nan", "tree_parent_not_a_feature", "tree_parent_links_cycle",
            "cpt_probability_negative", "class_prior_nan", "features_not_the_feature_set",
            "cpt_cell_missing", "cpt_cell_repeated", "cpt_rows_out_of_order",
            "domain_section_repeated", "class_prior_zero", "cpt_column_zero",
            "cpt_column_sum_above_one", "alpha_missing", "alpha_negative", "alpha_repeated",
            "header_key_unknown", "header_line_without_separator"])
    def test_malformed_model_exits_2(self, workspace, capsys, edit, message):
        tmp, raw, schema = workspace
        fitted = tmp / "fitted"
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 0
        model = fitted / "tan_ikt3.model"
        text = model.read_text()
        assert edit(text) != text
        model.write_text(edit(text))
        capsys.readouterr()
        lines = text.splitlines()
        rows = {"cpt_row": lines.index("[cpt skill]") + 2,
                "domain_row": lines.index("[domain skill]") + 2,
                "cut_row": lines.index("[cutpoints mastery]") + 2}
        assert run(["predict", "--data", raw, "--schema", schema,
                    "--model-dir", str(fitted), "--out", str(tmp / "p.tsv")]) == 2
        err = capsys.readouterr().err
        assert message.format(**rows) in err and "internal" not in err
        assert run(["explain", "--model-dir", str(fitted), "skill=s1", "mastery=0.4",
                    "profile=1", "difficulty=5"]) == 2
        assert message.format(**rows) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["difficulty.tsv", "tan_ikt3.model"])
    def test_undecodable_artifact_named(self, workspace, capsys, name):
        # the decoder's own message once named neither the file nor the byte
        tmp, raw, schema = workspace
        fitted = tmp / "fitted"
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 0
        artifact = fitted / name
        text = artifact.read_bytes()
        artifact.write_bytes(text + b"\xff")
        capsys.readouterr()
        assert run(["predict", "--data", raw, "--schema", schema,
                    "--model-dir", str(fitted), "--out", str(tmp / "p.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"malformed artifact: {artifact}: byte {len(text)} is not valid UTF-8" in err

    @pytest.mark.parametrize("column, index, bad", [
        ("student", 0, "u\t000"), ("problem", 1, "p\n1"), ("skill", 2, "s\r0")],
        ids=["student_tab", "problem_line_feed", "skill_carriage_return"])
    def test_id_the_tab_separated_outputs_cannot_hold_exits_2(self, workspace, capsys,
                                                               column, index, bad):
        # such a bundle was once written, then refused by predict
        tmp, raw, schema = workspace
        first = CLI_ROWS[0][index]
        rows = [row[:index] + (bad if row[index] == first else row[index],) + row[index + 1:]
                for row in CLI_ROWS]
        write_raw_csv(rows, raw)
        fitted = tmp / "fitted"
        assert run(["fit", "--data", raw, "--schema", schema, "--out", str(fitted)]) == 2
        assert f"{column} id {bad!r} holds a tab or a line break" in capsys.readouterr().err
        assert not (fitted / "bkt_params.tsv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    def test_problem_id_of_the_default_line_exits_2(self, workspace, capsys, command):
        # difficulty.tsv's default line holds this id, so such a bundle
        # was once written, then refused by predict
        tmp, raw, schema = workspace
        first = CLI_ROWS[0][1]
        write_raw_csv([row[:1] + ("# default" if row[1] == first else row[1],) + row[2:]
                       for row in CLI_ROWS], raw)
        assert run([command, "--data", raw, "--schema", schema, "--out", str(tmp / "x")]) == 2
        err = capsys.readouterr().err
        assert "problem id '# default'" in err and "internal" not in err
        assert not (tmp / "x").exists()

    @pytest.mark.parametrize("command, option", [
        ("preprocess", "--data"), ("evaluate", "--data"), ("fit", "--data"),
        ("predict", "--data"), ("evaluate", "--config"), ("fit", "--config"),
        ("fit", "--schema")])
    def test_missing_input_file_exits_2_naming_path(self, workspace, capsys, command,
                                                    option):
        # the open reports it, before any output is made
        tmp, raw, schema = workspace
        missing = str(tmp / "missing.in")
        given = {"--data": raw, "--schema": schema, option: missing}
        out = tmp / ("p.tsv" if command == "predict" else "x")
        argv = [command, *(part for pair in given.items() for part in pair), "--out", str(out)]
        if command == "predict":
            argv += ["--model-dir", str(tmp / "fitted")]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_missing_bundle_file_exits_2_naming_path(self, bundle, tmp_path, capsys, name):
        schema, fitted, _ = bundle
        copy = copy_bundle(fitted, tmp_path / "copy")
        (copy / name).unlink()
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        out = tmp_path / "p.tsv"
        assert run(["predict", "--data", str(raw), "--schema", schema,
                    "--model-dir", str(copy), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{copy / name}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_bundle_file_with_other_line_ends_reads_the_same(self, bundle, tmp_path, name,
                                                             end):
        schema, fitted, expected = bundle
        copy = copy_bundle(fitted, tmp_path / "copy")
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        text = (fitted / name).read_text(encoding="utf-8")
        (copy / name).write_bytes(text.replace("\n", end).encode())
        assert predict_rows(raw, schema, copy, tmp_path / "p.tsv") == expected
        # a fault on the last line is named at that line either way
        lines = text.split("\n")[:-1]
        faulty = "\n".join(lines[:-1] + ["x\ty"]) + "\n"
        errors = []
        for ending in ("\n", end):
            (copy / name).write_bytes(faulty.replace("\n", ending).encode())
            with pytest.raises(DataFormatError) as exc:
                load_bundle(str(copy))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"malformed artifact: {copy / name}:{len(lines)}: ")

    @pytest.mark.parametrize("name", ["schema", "config", "data"])
    def test_byte_order_mark_changes_no_output(self, workspace, name):
        # Excel's "CSV UTF-8" and Notepad start a file with one; it was
        # once read as part of the first key or column name
        tmp, raw, schema = workspace
        config = tmp / "run.cfg"
        config.write_text(FAST_CONFIG, encoding="utf-8")
        given = {"data": raw, "schema": schema, "config": str(config)}
        marked = tmp / f"marked_{os.path.basename(given[name])}"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(given[name]).read_bytes())
        written = []
        for out, path in ((tmp / "plain", given[name]), (tmp / "marked", str(marked))):
            argv = ["fit", *(f"--{key}={value}" for key, value in {**given, name: path}.items())]
            assert run(argv + ["--out", str(out)]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.kv"}
            config_lines = [ln for ln in (out / "manifest.kv").read_text().splitlines()
                            if ln.startswith("config.")]
            written.append((files, config_lines))
        assert written[0] == written[1]
        assert "config.grid_step = 0.25" in written[0][1]

    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    def test_log_without_usable_records_exits_2(self, tmp_path, capsys, command):
        raw = tmp_path / "blank.csv"
        raw.write_text("user,item,kc,outcome,ts\na,,s1,1,1\n", encoding="utf-8")
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA_TEXT, encoding="utf-8")
        assert run([command, "--data", str(raw), "--schema", str(schema),
                    "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {raw}: no usable records\n"
        assert not (tmp_path / "x").exists()

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


def lossy_log(raw, path):
    """``raw`` plus six rows that loading and cleaning drop: a duplicate
    of its first row, two later attempts at that row's problem and three
    rows with a blank cell."""
    text = Path(raw).read_text(encoding="utf-8")
    first = text.splitlines(True)[1]
    student, problem, skill, correct, _ = first.rstrip("\n").split(",")
    extra = [first, f"{student},{problem},{skill},{correct},100000\n",
             f"{student},{problem},{skill},{correct},100001\n",
             f"{student},,{skill},1,100002\n", f"{student},{problem},,1,100003\n",
             f"{student},{problem},{skill},,100004\n"]
    path.write_text(text + "".join(extra), encoding="utf-8")
    return str(path)


class TestDropNote:
    """evaluate, fit and predict name on stderr the rows their log lost."""

    NOTE = ("note: 6 rows dropped (1 duplicate row, 1 missing correctness, "
            "1 missing problem, 1 missing skill, 2 repeat attempt)\n")

    @staticmethod
    def argv(command, tmp, data, schema, fitted):
        tmp.mkdir(exist_ok=True)
        if command == "predict":
            return ["predict", "--data", data, "--schema", schema, "--model-dir", str(fitted),
                    "--out", str(tmp / "p.tsv")]
        config = tmp / "fast.cfg"
        config.write_text(FAST_CONFIG, encoding="utf-8")
        return [command, "--data", data, "--schema", schema, "--config", str(config),
                "--out", str(tmp / "out")]

    @pytest.mark.parametrize("command", ["evaluate", "fit", "predict"])
    def test_each_reason_counted(self, workspace, bundle, capsys, command):
        # the dropped rows leave the clean log, so stdout is the clean log's
        tmp, raw, schema = workspace
        fitted = bundle[1]
        lossy = lossy_log(raw, tmp / "lossy.csv")
        capsys.readouterr()
        assert run(self.argv(command, tmp / "a", lossy, schema, fitted)) == 0
        lossy_run = capsys.readouterr()
        assert lossy_run.err == self.NOTE
        assert run(self.argv(command, tmp / "b", raw, schema, fitted)) == 0
        clean_run = capsys.readouterr()
        assert lossy_run.out == clean_run.out.replace(str(tmp / "b"), str(tmp / "a"))

    @pytest.mark.parametrize("command", ["evaluate", "fit", "predict"])
    def test_clean_log_notes_nothing(self, workspace, bundle, capsys, command):
        tmp, raw, schema = workspace
        capsys.readouterr()
        assert run(self.argv(command, tmp, raw, schema, bundle[1])) == 0
        assert capsys.readouterr().err == ""


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

    def test_run_manifest_names_every_other_file_of_the_run_once(self, workspace):
        # the fold manifests were once named nowhere
        tmp, raw, schema = workspace
        config = tmp / "run.cfg"
        config.write_text(FAST_CONFIG, encoding="utf-8")
        out = tmp / "eval"
        assert run(["evaluate", "--data", raw, "--schema", schema, "--config", str(config),
                    "--out", str(out), "--ablation", "--dump-predictions"]) == 0
        named = [os.path.normpath(value) for key, value in manifest_lines(out / "manifest.kv")
                 if key == "artifact"]
        assert sorted(named) == sorted(str(p) for p in out.rglob("*")
                                       if p.is_file() and p != out / "manifest.kv")

    def test_manifest_keys_of_fit_a_fold_and_the_run(self, workspace):
        tmp, raw, schema = workspace
        config = tmp / "run.cfg"
        config.write_text(FAST_CONFIG, encoding="utf-8")
        options = ["--data", raw, "--schema", schema, "--config", str(config)]
        assert run(["fit", *options, "--out", str(tmp / "fitted")]) == 0
        assert run(["evaluate", *options, "--out", str(tmp / "eval")]) == 0
        common = ["tool_version", "bundle_format", "input.data.path", "input.data.sha256"]
        fields = [f"config.{f.name}" for f in dataclasses.fields(ExperimentConfig)]
        for directory, own in (("fitted", []),
                               ("eval/artifacts/fold0", ["fold", "train_students.sha256"]),
                               ("eval", ["ablation", "fold_digest"])):
            lines = manifest_lines(tmp / directory / "manifest.kv")
            keys = list(dict.fromkeys(key for key, _ in lines))
            assert [k for k in keys if not k.startswith("config.")] == common + own + ["artifact"]
            assert sorted(k for k in keys if k.startswith("config.")) == sorted(fields)

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

    @pytest.mark.parametrize("line", ["guess_cap = 0.99", "slip_cap = 0.01"])
    def test_cap_whose_grid_leaves_the_unit_interval_exits_2(self, preprocessed, capsys,
                                                              line):
        # at grid_step 0.05 the grid rounds 0.99 up to 1.0, where emissions
        # degenerate, and 0.01 down to no value at all
        tmp, data = preprocessed
        bad = tmp / "cap.cfg"
        bad.write_text(line + "\n", encoding="utf-8")
        code = run(["evaluate", "--data", data, "--config", str(bad),
                    "--out", str(tmp / "x")])
        assert code == 2
        assert line.split()[0] + ": at grid_step 0.05" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_cap_below_its_rounded_grid_exits_2(self, preprocessed, capsys):
        # 0.30 / 0.04 = 7.5 rounds to 8 steps, so g was once searched up to 0.32
        tmp, data = preprocessed
        bad = tmp / "cap.cfg"
        bad.write_text("grid_step = 0.04\nguess_cap = 0.30\n", encoding="utf-8")
        assert run(["evaluate", "--data", data, "--config", str(bad),
                    "--out", str(tmp / "x")]) == 2
        err = capsys.readouterr().err
        assert "guess_cap: at grid_step 0.04 the largest grid value is 0.32" in err
        assert not (tmp / "x").exists()

    def test_every_config_field_can_be_set_from_a_file(self, tmp_path):
        values = {"feature_set": "ikt1", "folds": 3, "seed": 7, "interval_len": 9,
                  "clusters": 4, "kmeans_restarts": 2, "grid_step": 0.1,
                  "guess_cap": 0.2, "slip_cap": 0.25, "alpha": 0.5,
                  "skip_first_interval": True, "workers": 2}
        assert list(values) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                        encoding="utf-8")
        config, ablation = load_config(str(path))
        assert dataclasses.asdict(config) == values and ablation is False
        assert all(v != f.default for v, f in zip(values.values(),
                                                  dataclasses.fields(ExperimentConfig)))

    def test_comments_in_a_config_file(self, tmp_path):
        path = tmp_path / "notes.cfg"
        path.write_text("# a comment line\n  # an indented one\nseed = 3  # note\n"
                        "folds = 4\t# tab\n", encoding="utf-8")
        config, _ = load_config(str(path))
        assert (config.seed, config.folds) == (3, 4)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_config_with_other_line_ends_reads_the_same(self, tmp_path, end):
        path = tmp_path / "run.cfg"
        configs, errors = [], []
        for ending in ("\n", end):
            path.write_bytes(f"# note{ending}seed = 3{ending}{ending}folds = 4  # x{ending}"
                             .encode())
            configs.append(load_config(str(path)))
            path.write_bytes(f"seed = 1{ending}folds = 3{ending}seed = 2{ending}".encode())
            with pytest.raises(DataFormatError) as exc:
                load_config(str(path))
            errors.append(str(exc.value))
        assert configs[0] == configs[1] == (ExperimentConfig(seed=3, folds=4), False)
        assert errors == [f"{path}:3: seed is given more than once"] * 2

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

    def test_restricts_the_log_twice_per_fold(self, preprocessed, monkeypatch):
        # once to each fold's training students and once to its test
        # students; the single-class check and the dumps restrict nothing
        calls = []
        restricted_to = Dataset.restricted_to
        monkeypatch.setattr(Dataset, "restricted_to",
                            lambda self, chosen: calls.append(1) or restricted_to(self, chosen))
        tmp, data = preprocessed
        assert run(["evaluate", "--data", data, "--out", str(tmp / "dump"),
                    "--dump-predictions"]) == 0
        assert len(calls) == 2 * 5

    def test_fresh_evaluate_never_imports_numpy_ma(self, preprocessed):
        # a plain np.unique imports numpy.ma, about 5 ms of a fresh process
        tmp, data = preprocessed
        argv = ["evaluate", "--data", data, "--ablation", "--out", str(tmp / "x")]
        loaded = _fresh_modules(f"from ikt.cli import main\nassert main({argv!r}) == 0")
        assert "ikt.evaluation" in loaded and "numpy.ma" not in loaded

    def test_same_bytes_under_another_blas_kernel(self, preprocessed):
        # numpy's OpenBLAS picks its kernels for the CPU as it loads, unless
        # OPENBLAS_CORETYPE names them (an empty value picks as if unset);
        # k-means and the BKT fit multiply matrices through it
        tmp, data = preprocessed
        written = []
        for coretype in ("", "Prescott"):
            out = tmp / f"blas_{coretype or 'default'}"
            argv = ["evaluate", "--data", data, "--ablation", "--dump-predictions",
                    "--out", str(out)]
            _fresh_modules(f"from ikt.cli import main\nassert main({argv!r}) == 0",
                           OPENBLAS_CORETYPE=coretype)
            # the manifests name their own output paths
            written.append({str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                            if p.is_file() and p.name != "manifest.kv"})
        # the summary, the metrics, the dumps and the fold bundles' tables
        assert len(written[0]) == 1 + 3 * 2 + 3 * 5 + 5 * 6
        assert written[0] == written[1]


def reference_dump(path, data, table, keep, scores):
    """The predictions file written one cell at a time."""
    students, skills = list(data.by_student), list(data.skill_index)
    row_student = data.row_student()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("student\tposition\tskill\tmastery\tprofile\tdifficulty\t"
                 "probability\tlabel\n")
        for score, row in zip(scores, np.flatnonzero(keep)):
            cells = [students[row_student[row]], str(int(table.position[row])),
                     skills[data.skill[row]], f"{float(table.mastery[row]):.6f}",
                     str(int(table.profile[row])), str(int(table.difficulty[row])),
                     f"{float(score):.6f}", str(int(table.label[row]))]
            fh.write("\t".join(cells) + "\n")


class TestDumpPredictions:
    def test_matches_the_cell_by_cell_writer(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 9000
        student = np.sort(rng.integers(0, 40, n))
        rows = [(f"u{s}", f"p{i}", f"s{rng.integers(5)}", 1) for i, s in enumerate(student)]
        data = to_dataset(rows)
        mastery = rng.choice([0.0, -0.0, 1.0, 0.25, 1 / 3, 0.1234565, 2e-7], n)
        table = FeatureTable(
            skill=np.where(rng.random(n) < 0.1, len(data.skill_index), data.skill),
            mastery=mastery, profile=rng.integers(1, 9, n),
            difficulty=rng.integers(0, 11, n), label=rng.integers(0, 2, n),
            position=data.row_position())
        # gaps on both sides of each 4,096-row chunk boundary, as evaluate's
        # fold masks leave them
        keep = rng.random(n) < 0.8
        keep[4090:4100] = False
        keep[8190:8200] = [True, False] * 5
        scores = rng.choice([0.0, -0.0, 0.5, 0.9999995, 1e-9], keep.sum())
        scores[:200] = rng.random(200)
        got, want = tmp_path / "got.tsv", tmp_path / "want.tsv"
        with _open_output(str(got)) as out:
            _dump_predictions(out, data, table, keep, scores)
        reference_dump(str(want), data, table, keep, scores)
        assert got.read_bytes() == want.read_bytes()
        text = got.read_text()
        assert "\t-0.000000\t" in text and "\t0.000000\t" in text

    def test_no_kept_rows_writes_the_header(self, tmp_path):
        data = to_dataset([("u0", "p0", "s0", 1)])
        table = FeatureTable(*(np.zeros(1, dtype=int) for _ in range(6)))
        path = tmp_path / "empty.tsv"
        with _open_output(str(path)) as out:
            _dump_predictions(out, data, table, np.zeros(1, dtype=bool), np.zeros(0))
        assert path.read_text().count("\n") == 1


class TestFitPredictExplain:
    def test_full_chain(self, preprocessed, capsys, monkeypatch):
        # tracing wrappers replace these, so they are looked up at call time;
        # the ability functions take every student at once, so each layer
        # calls them once, and profile_labels reads its vectors through
        # the module too
        calls = []
        for module, name in ((evaluation, "fit_fold_artifacts"),
                             (evaluation, "build_feature_rows"),
                             (ability, "interval_vectors"), (ability, "profile_labels")):
            monkeypatch.setattr(module, name, lambda *a, _n=name, _f=getattr(module, name),
                                **kw: calls.append(_n) or _f(*a, **kw))
        tmp, data = preprocessed
        fitted = tmp / "fitted"
        assert run(["fit", "--data", data, "--out", str(fitted), "--seed", "3"]) == 0
        assert (fitted / "bkt_params.tsv").exists()
        assert (fitted / "profiles.tsv").exists()
        assert calls == ["fit_fold_artifacts", "interval_vectors", "build_feature_rows",
                         "profile_labels", "interval_vectors"]
        calls.clear()
        preds = tmp / "preds.tsv"
        assert run(["predict", "--data", data, "--model-dir", str(fitted),
                    "--out", str(preds)]) == 0
        lines = preds.read_text().splitlines()
        assert len(lines) == 1251  # header + one row per interaction
        assert calls == ["build_feature_rows", "profile_labels", "interval_vectors"]

        capsys.readouterr()
        assert run(["explain", "--model-dir", str(fitted),
                    "skill=s1", "mastery=0.4", "profile=1", "difficulty=5"]) == 0
        out = capsys.readouterr().out
        assert "posterior" in out
        assert out.count("): ") == 4  # one contribution line per evidence node
        assert "sum of contributions" in out

    def test_bundle_without_centroids(self, preprocessed):
        # no student completes a 100000-attempt interval, so no clusters are
        # fitted and every attempt keeps the initial profile
        tmp, data = preprocessed
        config = tmp / "long.cfg"
        config.write_text("interval_len = 100000\n", encoding="utf-8")
        fitted, out, preds = tmp / "fitted", tmp / "eval", tmp / "preds.tsv"
        for command, target in (("fit", fitted), ("evaluate", out)):
            assert run([command, "--data", data, "--config", str(config),
                        "--out", str(target)]) == 0
        for bundle in [fitted, *sorted((out / "artifacts").iterdir())]:
            assert (bundle / "centroids.tsv").read_text() == "", bundle.name
        profiles = (fitted / "profiles.tsv").read_text().splitlines()
        assert len(profiles) == 1 + 25
        assert {ln.split("\t")[2] for ln in profiles[1:]} == {"1"}
        assert run(["predict", "--data", data, "--model-dir", str(fitted),
                    "--out", str(preds)]) == 0
        lines = preds.read_text().splitlines()
        column = lines[0].split("\t").index("profile")
        assert len(lines) == 1251
        assert {ln.split("\t")[column] for ln in lines[1:]} == {"1"}

    def test_explain_out_of_domain_flagged(self, preprocessed, capsys):
        tmp, data = preprocessed
        fitted = tmp / "fitted2"
        assert run(["fit", "--data", data, "--out", str(fitted), "--seed", "3"]) == 0
        capsys.readouterr()
        assert run(["explain", "--model-dir", str(fitted),
                    "skill=s1", "mastery=0.4", "profile=1", "difficulty=99"]) == 0
        out = capsys.readouterr().out
        assert "outside the model domain" in out

    def test_explain_missing_evidence_named(self, preprocessed, capsys):
        tmp, data = preprocessed
        fitted = tmp / "fitted3"
        assert run(["fit", "--data", data, "--out", str(fitted), "--seed", "3"]) == 0
        code = run(["explain", "--model-dir", str(fitted), "skill=s1"])
        assert code == 2
        assert "mastery" in capsys.readouterr().err

    def test_explain_evidence_without_equals_sign_exits_2(self, bundle, capsys):
        _, fitted, _ = bundle
        assert run(["explain", "--model-dir", str(fitted), "skill=s1", "mastery"]) == 2
        assert capsys.readouterr().err == "error: evidence must be name=value, got 'mastery'\n"

    def test_explain_missing_model_exits_2(self, tmp_path, capsys):
        code = run(["explain", "--model-dir", str(tmp_path / "none"), "skill=s1"])
        assert code == 2

    def test_explain_directory_without_manifest_exits_2(self, bundle, tmp_path, capsys):
        _, fitted, _ = bundle
        copy = tmp_path / "copy"
        copy.mkdir()
        for name in ("bkt_params.tsv", "centroids.tsv", "difficulty.tsv",
                     "tan_ikt3.model"):
            (copy / name).write_bytes((fitted / name).read_bytes())
        assert run(["explain", "--model-dir", str(copy), "skill=s1", "mastery=0.4",
                    "profile=1", "difficulty=5"]) == 2
        err = capsys.readouterr().err
        assert "manifest.kv" in err and "internal" not in err

    def test_explain_unknown_skill_flagged(self, bundle, capsys):
        # coded as predict codes it: len(vocabulary), outside the skill domain;
        # printed by the id given
        _, fitted, _ = bundle
        assert run(["explain", "--model-dir", str(fitted), "skill=s_new",
                    "mastery=0.4", "profile=1", "difficulty=5"]) == 0
        out = capsys.readouterr().out
        assert "  skill=s_new (class only): +0.000000" in out
        assert "  difficulty=5 (skill=s_new): " in out
        assert "note: value 's_new' for skill is outside the model domain" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-3", "1.5"])
    def test_explain_rejects_mastery_outside_the_unit_interval(self, bundle, capsys, value):
        # nan and inf once fell into the top bin, -3 into the bottom one
        _, fitted, _ = bundle
        assert run(["explain", "--model-dir", str(fitted), "skill=s1", f"mastery={value}",
                    "profile=1", "difficulty=5"]) == 2
        err = capsys.readouterr().err
        assert f"mastery must be a probability in [0, 1], got {value!r}" in err
        assert "internal" not in err

    @pytest.mark.parametrize("pair, message", [
        ("profile=1.5", "evidence value for profile must be an integer, got '1.5'"),
        ("difficulty=x", "evidence value for difficulty must be an integer, got 'x'"),
        ("mastery=high", "evidence value for mastery must be a number, got 'high'"),
    ], ids=["profile", "difficulty", "mastery"])
    def test_explain_names_the_expected_kind_of_value(self, bundle, capsys, pair, message):
        # an integer feature's 1.5 was once reported as "not numeric"
        _, fitted, _ = bundle
        evidence = {"skill": "s1", "mastery": "0.4", "profile": "1", "difficulty": "5"}
        name, value = pair.split("=")
        evidence[name] = value
        assert run(["explain", "--model-dir", str(fitted),
                    *(f"{k}={v}" for k, v in evidence.items())]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal" not in err

    @pytest.mark.parametrize("value", ["0", "1", "0.0", "1.0"])
    def test_explain_accepts_mastery_at_the_bounds(self, bundle, capsys, value):
        _, fitted, _ = bundle
        assert run(["explain", "--model-dir", str(fitted), "skill=s1", f"mastery={value}",
                    "profile=1", "difficulty=5"]) == 0

    @pytest.mark.parametrize("extra, message", [
        (["skill=s0"], "evidence for skill given more than once"),
        (["foo=7"], "evidence 'foo' is not a model feature"),
    ], ids=["repeated", "unknown"])
    def test_explain_rejects_repeated_or_unknown_names(self, bundle, capsys, extra, message):
        # a repeated name once took its last value; an unknown one was ignored
        _, fitted, _ = bundle
        assert run(["explain", "--model-dir", str(fitted), "skill=s1", "mastery=0.4",
                    "profile=1", "difficulty=5", *extra]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "(model features: skill, mastery, profile, difficulty)" in err

    def test_explain_skill_id_reads_its_code(self, bundle, capsys):
        # recorded with the former `explain --model tan_ikt3.model skill=1 ...`
        # on this bundle, whose bkt_params.tsv lists s1 second (code 1); the
        # lines print the skill by its id and mastery as given, where they
        # once printed the code and the bin (mastery=0)
        _, fitted, _ = bundle
        assert run(["explain", "--model-dir", str(fitted), "skill=s1",
                    "mastery=0.4", "profile=1", "difficulty=5"]) == 0
        assert capsys.readouterr().out == (
            "posterior P(correct) = 0.481073\n"
            "prior log-odds       = +0.057524\n"
            "  skill=s1 (class only): -0.193381\n"
            "  mastery=0.4 (profile=1): -0.206581\n"
            "  profile=1 (difficulty=5): +0.025533\n"
            "  difficulty=5 (skill=s1): +0.241162\n"
            "sum of contributions = -0.075743 (posterior log-odds -0.075743)\n")

    def test_explain_prints_a_mastery_parent_as_given(self, bundle, tmp_path, capsys):
        # a hand-built tree under mastery, with uniform tables: every node's
        # parent text shows the mastery given, stripped, not its bin
        _, fitted, _ = bundle
        copy = copy_bundle(fitted, tmp_path / "copy")
        fitted_model = load_bundle(str(copy))[1]
        domains = fitted_model.domains
        parent = {f: None if f == "mastery" else "mastery" for f in fitted_model.features}
        cpts = {f: np.full((len(domains[f]), len(domains[p]) if p else 1, 2),
                           1 / len(domains[f])) for f, p in parent.items()}
        tan.save_model(tan.TanModel(tan.TanStructure(fitted_model.features, parent), domains,
                                    fitted_model.class_prior, cpts, fitted_model.discretizer),
                       str(copy / "tan_ikt3.model"))
        assert run(["explain", "--model-dir", str(copy), "skill=s1", "mastery= 0.40 ",
                    "profile=1", "difficulty=5"]) == 0
        assert capsys.readouterr().out.splitlines()[2:6] == [
            "  skill=s1 (mastery=0.40): +0.000000",
            "  mastery=0.40 (class only): +0.000000",
            "  profile=1 (mastery=0.40): +0.000000",
            "  difficulty=5 (mastery=0.40): +0.000000"]


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


def copy_bundle(fitted, copy):
    copy.mkdir()
    for path in fitted.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    return copy


def rows_by_student(rows):
    out: dict = {}
    for row in rows:
        out.setdefault(row[0], []).append(row)
    return out


class TestBundleTables:
    """The three tables of a bundle, as ``write_bundle`` writes them and
    ``load_bundle`` reads them."""

    def test_round_trip(self, tmp_path):
        model = small_model(2, 0)  # within the tables' domains with and without clusters
        params = {"sk": BktParams(0.3, 0.1, 0.2, 0.05),
                  "s1": BktParams(0.35, 0.1, 0.25, 0.0500004)}
        centroids = np.array([[0.1234564, 0.5], [0.9, 0.25]])
        artifacts = FoldArtifacts(params_by_skill=params, clusters=ClusterModel(centroids),
                                  difficulty=DifficultyTable(levels={"p1": 3, "p2": 10}),
                                  interval_len=20)
        names = ("bkt_params.tsv", "centroids.tsv", "difficulty.tsv")
        tables = []
        for out in (tmp_path / "written", tmp_path / "rewritten"):
            write_bundle(str(out), ExperimentConfig(), {}, artifacts, {"ikt3": model})
            tables.append({n: (out / n).read_bytes() for n in names})
            artifacts, _ = load_bundle(str(out))
            assert artifacts.interval_len == 20
            assert list(artifacts.params_by_skill) == ["sk", "s1"]  # row order kept
            for skill, p in params.items():
                assert np.allclose(dataclasses.astuple(artifacts.params_by_skill[skill]),
                                   dataclasses.astuple(p), rtol=0, atol=5e-7), skill
            assert np.allclose(artifacts.clusters.centroids, centroids, rtol=0, atol=5e-7)
            assert artifacts.difficulty.levels == {"p1": 3, "p2": 10}
            assert artifacts.difficulty.default_level == 5
        assert tables[0] == tables[1]  # a loaded bundle's tables write back unchanged
        lines = {n: text.decode().splitlines() for n, text in tables[0].items()}
        assert lines["bkt_params.tsv"][:2] == ["skill_id\tl0\tt\tg\ts",
                                              "sk\t0.300000\t0.100000\t0.200000\t0.050000"]
        assert lines["centroids.tsv"][0] == "0.123456\t0.500000"
        assert lines["difficulty.tsv"] == ["# default\t5", "p1\t3", "p2\t10"]
        # without clusters (no complete interval) the centroid table is empty
        out = tmp_path / "unclustered"
        write_bundle(str(out), ExperimentConfig(), {},
                     dataclasses.replace(artifacts, clusters=ClusterModel(np.zeros(0))),
                     {"ikt3": model})
        assert (out / "centroids.tsv").read_bytes() == b""
        assert load_bundle(str(out))[0].clusters.k == 0


    @pytest.mark.parametrize("feature, value", [
        ("skill", 3), ("skill", -1), ("profile", 0), ("profile", 9), ("difficulty", 11)])
    def test_model_outside_the_tables_domains_exits_2(self, bundle, tmp_path, capsys,
                                                      feature, value):
        # a model of another bundle once read its skill 3 as this bundle's
        # unseen-skill code, and other values as whatever they coded there
        schema, fitted, _ = bundle
        copy = copy_bundle(fitted, tmp_path / "copy")
        artifacts = load_bundle(str(copy))[0]
        assert (len(artifacts.skill_index), artifacts.clusters.k) == (3, 7)
        rng = np.random.default_rng(1)
        cols = {"skill": rng.integers(0, 3, 100), "mastery": rng.random(100),
                "profile": rng.integers(1, 9, 100), "difficulty": rng.integers(0, 11, 100)}
        cols[feature][0] = value
        model_path = copy / "tan_ikt3.model"
        tan.save_model(tan.fit_tan(cols, rng.integers(0, 2, 100)), str(model_path))
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        capsys.readouterr()
        assert run(["predict", "--data", str(raw), "--schema", schema,
                    "--model-dir", str(copy), "--out", str(tmp_path / "p.tsv")]) == 2
        low, high = {"skill": (0, 2), "profile": (1, 8), "difficulty": (0, 10)}[feature]
        held = cols[feature]
        assert capsys.readouterr().err == (
            f"error: {model_path}: [domain {feature}] holds {held.min()}..{held.max()}, "
            f"outside {low}..{high} of this bundle\n")
        assert not (tmp_path / "p.tsv").exists()

    def test_blank_lines_in_the_tables_are_skipped(self, bundle, tmp_path):
        schema, fitted, expected = bundle
        copy = copy_bundle(fitted, tmp_path / "copy")
        for name in ("bkt_params.tsv", "centroids.tsv", "difficulty.tsv"):
            text = (copy / name).read_text(encoding="utf-8")
            (copy / name).write_text(text.replace("\n", "\n \n\n"), encoding="utf-8")
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        assert predict_rows(raw, schema, copy, tmp_path / "p.tsv") == expected


class TestOutputFiles:
    """Every output is created anew: ``dataset._open_output``."""

    @pytest.mark.parametrize("command", ["preprocess", "fit", "evaluate", "predict"])
    def test_rerun_leaves_a_hard_link_to_each_old_output_its_bytes(self, workspace, bundle,
                                                                    command):
        # the same run twice into one --out; a truncating rewrite would put
        # the new bytes in both names of the file
        tmp, raw, schema = workspace
        config = tmp / "run.cfg"
        config.write_text(FAST_CONFIG, encoding="utf-8")
        out = tmp / "out"
        argv = [command, "--data", raw, "--schema", schema, "--out", str(out)]
        if command == "evaluate":
            argv += ["--config", str(config), "--ablation", "--dump-predictions"]
        if command == "predict":
            out.mkdir()
            argv[-1] = str(out / "p.tsv")
            argv += ["--model-dir", str(bundle[1])]
        assert run(argv) == 0
        first = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        links = tmp / "links"
        links.mkdir()
        for i, path in enumerate(first):
            os.link(path, links / str(i))
            (links / str(i)).write_bytes(b"old")
        assert run(argv) == 0
        assert sorted(p for p in out.rglob("*") if p.is_file()) == list(first)
        for i, (path, data) in enumerate(first.items()):
            assert (links / str(i)).read_bytes() == b"old", path
            assert path.read_bytes() == data, path

    def test_rerun_with_fewer_outputs_names_each_stale_file(self, workspace, capsys):
        # an earlier run's outputs stay as they were, and each one this run
        # did not write is named; a file of another name never is
        tmp, raw, schema = workspace
        out, config = tmp / "out", tmp / "run.cfg"
        (out / "artifacts" / "fold9x").mkdir(parents=True)
        for name in ("notes.txt", "metrics.kv", "artifacts/fold9x/a.tsv", "artifacts/b.tsv"):
            (out / name).write_text("mine\n", encoding="utf-8")

        def outputs():
            return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                    if p.is_file()}

        def evaluate(folds, *options):
            config.write_text(FAST_CONFIG + f"folds = {folds}\n", encoding="utf-8")
            before = outputs()
            capsys.readouterr()
            assert run(["evaluate", "--data", raw, "--schema", schema, "--config", str(config),
                        "--out", str(out), *options]) == 0
            written = {"metrics_ikt3.txt", "metrics_ikt3.kv", "manifest.kv"} | {
                f"artifacts/fold{i}/{name}" for i in range(folds)
                for name in BUNDLE_FILES}
            stale = sorted(set(before) - written - {"notes.txt", "metrics.kv",
                                                    "artifacts/fold9x/a.tsv", "artifacts/b.tsv"})
            assert capsys.readouterr().err.splitlines() == [
                f"note: {out / name} was not written by this run; an earlier run left it"
                for name in stale]
            after = outputs()
            assert {name: after[name] for name in before if name not in written} == \
                {name: before[name] for name in before if name not in written}
            return stale, after

        stale, first = evaluate(5, "--ablation", "--dump-predictions")
        assert stale == []
        stale, _ = evaluate(5)
        assert len(stale) == 4 + 1 + 3 * 5 + 2 * 5
        assert "ablation_summary.txt" in stale and "artifacts/fold0/tan_ikt1.model" in stale
        stale, after = evaluate(3)
        assert "artifacts/fold4/bkt_params.tsv" in stale
        assert "artifacts/fold2/bkt_params.tsv" not in stale
        # the five-fold rerun wrote the same bytes as the first run
        for name in ("artifacts/fold4/bkt_params.tsv", "artifacts/fold4/tan_ikt3.model"):
            assert after[name] == first[name]

    def test_symlinked_predictions_are_written_through(self, bundle, tmp_path):
        schema, fitted, expected = bundle
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        target, link = tmp_path / "target.tsv", tmp_path / "p.tsv"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target)
        assert predict_rows(raw, schema, fitted, link) == expected
        assert link.is_symlink() and link.resolve() == target


def test_shared_options_read_the_same_in_each_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    helps = {}
    for command in ("evaluate", "fit", "predict"):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        helps[command] = capsys.readouterr().out.splitlines()

    def entry(command, option):
        """The option's lines in the command's help: its own and those
        continuing its help text."""
        lines = helps[command]
        at = next(i for i, line in enumerate(lines) if line.startswith(f"  {option} "))
        end = next((i for i in range(at + 1, len(lines))
                    if not lines[i].startswith("    ")), len(lines))
        return lines[at:end]

    for option, commands in (("--data", "evaluate fit predict"),
                             ("--schema", "evaluate fit predict"),
                             ("--config", "evaluate fit"), ("--out", "evaluate fit"),
                             ("--seed", "evaluate fit"), ("--feature-set", "evaluate fit")):
        first, *others = (entry(command, option) for command in commands.split())
        assert len(" ".join(first).split()) > 2, option  # it has help text
        assert all(other == first for other in others), option


@pytest.mark.filterwarnings("ignore:'ikt.cli' found in sys.modules:RuntimeWarning")
def test_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ikt", "explain", "--model-dir", str(tmp_path),
                                      "skill=s1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("ikt.cli", run_name="__main__")
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"error: [Errno 2] No such file or directory: "
                                       f"'{tmp_path / 'manifest.kv'}'\n")


class TestPredictUsesTheBundle:
    """A student's predictions depend on the bundle and that student only."""

    def test_bundle_format_written_and_checked(self, bundle, tmp_path, capsys):
        schema, fitted, expected = bundle
        manifest = (fitted / "manifest.kv").read_text(encoding="utf-8")
        assert "\nbundle_format = 1\n" in manifest
        copy = copy_bundle(fitted, tmp_path / "copy")
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        # a manifest written before the key existed reads as format 1
        (copy / "manifest.kv").write_text(manifest.replace("bundle_format = 1\n", ""),
                                          encoding="utf-8")
        assert predict_rows(raw, schema, copy, tmp_path / "p.tsv") == expected
        for value in ("2", "1.0", ""):
            (copy / "manifest.kv").write_text(
                manifest.replace("bundle_format = 1", f"bundle_format = {value}"),
                encoding="utf-8")
            capsys.readouterr()
            assert run(["predict", "--data", str(raw), "--schema", schema,
                        "--model-dir", str(copy), "--out", str(tmp_path / "q.tsv")]) == 2
            err = capsys.readouterr().err
            assert f"{copy / 'manifest.kv'}: unknown bundle_format {value!r}" in err, value
            assert "internal" not in err

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
        l0 = load_bundle(str(fitted))[0].params_by_skill["s1"].l0
        for lines in got.values():
            assert lines[0].split("\t")[2:4] == ["s1", f"{l0:.6f}"]

    def test_loaded_bundle_reproduces_in_sample_rows(self, bundle, tmp_path):
        schema, fitted, _ = bundle
        raw = tmp_path / "raw.csv"
        write_raw_csv(CLI_ROWS, str(raw))
        data = _load_dataset(str(raw), schema)
        fitted_rows, = evaluation.build_feature_rows(
            fit_artifacts(data, ExperimentConfig()), data)
        artifacts, _ = load_bundle(str(fitted))
        loaded_rows, = evaluation.build_feature_rows(artifacts, data)
        for f in ("skill", "mastery", "profile", "difficulty", "label", "position"):
            assert np.array_equal(getattr(fitted_rows, f), getattr(loaded_rows, f)), f

    def test_bkt_params_rows_follow_skill_codes(self, reordered):
        # skills first appear in the order kc_b, kc_c, kc_a, not sorted; every
        # student but the first meets them as kc_c, kc_a, kc_b
        raw, schema, fitted, out = reordered
        data = _load_dataset(raw, schema)
        table = (fitted / "bkt_params.tsv").read_text().splitlines()[1:]
        assert [ln.split("\t")[0] for ln in table] == list(data.skill_index)
        assert list(data.skill_index) == ["kc_b", "kc_c", "kc_a"]
        held_out = split_folds(data, k=5, seed=0)
        for fold_id in range(5):
            fold_dir = out / "artifacts" / f"fold{fold_id}"
            codes = list(data.restricted_to(held_out != fold_id).skill_index)
            table = (fold_dir / "bkt_params.tsv").read_text().splitlines()[1:]
            assert [ln.split("\t")[0] for ln in table] == codes, fold_dir.name
            widths = {len(ln.split("\t")) for ln in
                      (fold_dir / "centroids.tsv").read_text().splitlines()}
            assert widths == {len(codes)}, fold_dir.name

    def test_every_fold_directory_is_a_bundle(self, reordered, tmp_path):
        raw, schema, _, out = reordered
        for n in range(5):
            expected = (out / f"predictions_ikt3_fold{n}.tsv").read_text().splitlines()
            got = predict_rows(raw, schema, out / "artifacts" / f"fold{n}",
                               tmp_path / f"p{n}.tsv")
            test_students = {ln.split("\t")[0] for ln in expected[1:]}
            assert [ln for s in got if s in test_students for ln in got[s]] == expected[1:]


@pytest.fixture(scope="module")
def reordered(tmp_path_factory):
    """fit and evaluate on the CLI log behind one student who meets the
    skills in another order than everyone else."""
    tmp = tmp_path_factory.mktemp("reordered")
    names = {"s0": "kc_c", "s1": "kc_a", "s2": "kc_b"}
    first = [("first", f"p_{k}_{i // 3}", k, i // 2 % 2)
             for i, k in enumerate(["s2", "s0", "s1"] * 15)]
    raw = tmp / "raw.csv"
    write_raw_csv([(s, p, names[k], c) for s, p, k, c in first + CLI_ROWS], str(raw))
    schema = tmp / "schema.cfg"
    schema.write_text(SCHEMA_TEXT, encoding="utf-8")
    config = tmp / "run.cfg"
    config.write_text("grid_step = 0.25\nkmeans_restarts = 1\n", encoding="utf-8")
    fitted, out = tmp / "fitted", tmp / "eval"
    assert run(["fit", "--data", str(raw), "--schema", str(schema),
                "--config", str(config), "--out", str(fitted)]) == 0
    assert run(["evaluate", "--data", str(raw), "--schema", str(schema),
                "--config", str(config), "--out", str(out), "--dump-predictions"]) == 0
    return str(raw), str(schema), fitted, out
