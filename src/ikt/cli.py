"""Command-line entry point: preprocess, fit, evaluate, predict, explain.

``fit`` writes one bundle, and ``evaluate`` one per fold under
``artifacts/foldN``. ``predict`` and ``explain`` read a bundle given as
``--model-dir``; ``explain`` takes the skill as an id of that bundle.
``bundle`` owns its files and their format.

``dataset`` opens every text file: the inputs through ``load_csv`` and
``_read_lines``, the outputs, UTF-8 text, through ``_open_output``. Exit
codes: 0 success, 2 for input or configuration errors (a missing input
among them), 1 for internal failures, which also print their traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import os
import sys
import traceback

import numpy as np

from . import __version__, evaluation, tan
from .bundle import input_entries, load_bundle, write_bundle, write_manifest
from .dataset import (CANONICAL_SCHEMA, DataFormatError, load_csv, load_schema,
                      preprocess, render_drop_report, save_canonical, _open_output,
                      _parse_keyvalue, _write)
from .evaluation import (FEATURE_SETS, ExperimentConfig, SingleClassError,
                         evaluate_feature_sets, render_ablation_text)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
_MODEL_DIR_HELP = "bundle directory: fit's --out or evaluate's artifacts/foldN"

_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}

_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}


class InputError(Exception):
    """User-facing problem: bad input, bad config, bad evidence."""


def _parse_bool(value: str, key: str) -> bool:
    try:
        return _BOOL_VALUES[value.lower()]
    except KeyError:
        raise InputError(f"{key}: expected true/false, got {value!r}") from None


def load_config(path: str | None, args=None) -> tuple[ExperimentConfig, bool]:
    """Config file plus command-line overrides to ExperimentConfig,
    validated once; every problem is reported at once.

    An empty (or absent) file yields the full default configuration. The
    extra ``ablation`` key (or the ``--ablation`` flag) switches the
    evaluate command to the three-way feature comparison. ``--seed``,
    ``--workers`` and ``--feature-set`` on ``args`` override the file.
    """
    values: dict = {}
    errors: list[str] = []
    if path is not None:
        for key, raw in _parse_keyvalue(path).items():
            typ = bool if key == "ablation" else _CONFIG_TYPES.get(key)
            if typ is None:
                errors.append(f"{key}: unknown configuration key")
                continue
            try:
                values[key] = _parse_bool(raw, key) if typ is bool else typ(raw)
            except InputError as exc:
                errors.append(str(exc))
            except ValueError:
                errors.append(f"{key}: expected {typ.__name__}, got {raw!r}")
    for key in ("seed", "workers", "feature_set"):
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    ablation = values.pop("ablation", False) or getattr(args, "ablation", False)
    config = ExperimentConfig(**values)
    errors.extend(config.validate())
    if errors:
        raise InputError("invalid configuration:\n  " + "\n  ".join(errors))
    return config, ablation


def _load_dataset(path: str, schema_path: str | None):
    """Load and clean a log; without a schema it must be canonical csv. An
    id holding a tab or line break is refused: the outputs are TSV lines.
    So is the problem id ``# default``, which difficulty.tsv's default
    line already holds."""
    schema = load_schema(schema_path) if schema_path else CANONICAL_SCHEMA
    data = preprocess(load_csv(path, schema))
    for column, ids in (("student", data.by_student), ("skill", data.skill_index),
                        ("problem", data.problem_index)):
        for name in ids:
            if "\t" in name or "\r" in name or "\n" in name:
                raise InputError(f"{path}: {column} id {name!r} holds a tab or a line break")
    if "# default" in data.problem_index:
        raise InputError(f"{path}: problem id '# default' is the name of difficulty.tsv's "
                         "default line")
    return data


def _note_drops(data) -> None:
    """One stderr line tallying the rows loading and cleaning dropped, by
    ``render_drop_report``'s reasons; none when no row was dropped."""
    if data.drops:
        reasons = ", ".join(f"{data.drops[r]} {r}" for r in sorted(data.drops))
        sys.stderr.write(f"note: {sum(data.drops.values())} rows dropped ({reasons})\n")


def _formatted(values: np.ndarray, fmt, end: str = "\t") -> tuple:
    """Each distinct value of a column formatted once, followed by
    ``end``, and each entry's index into those strings.

    An integer column (a position, profile, level or label, whose range
    the rows bound) is coded by its offset from its least value, without
    a sort. Floats are told apart by their bits, which keeps -0.0 apart
    from 0.0."""
    if values.dtype.kind in "iu":
        low, high = (int(values.min()), int(values.max())) if values.size else (0, -1)
        strings = [fmt(v) + end for v in range(low, high + 1)]
        return np.array(strings, dtype=object), values - low
    unique, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    strings = [fmt(v) + end for v in unique.view(values.dtype).tolist()]
    return np.array(strings, dtype=object), inverse


def _dump_predictions(out, data, table, keep, scores) -> None:
    """Write to the text file ``out`` one line per kept row of ``table``,
    the feature rows of ``data``.

    Each column is coded by its distinct values, so that every id,
    count and probability is formatted once (``_formatted``); the lines
    are gathered from those strings and written 4,096 rows at a time.
    """
    rows = np.flatnonzero(keep)
    student_ids, skill_ids = (np.array([f"{name}\t" for name in index], dtype=object)
                              for index in (data.by_student, data.skill_index))
    fixed = "{:.6f}".format
    columns = (
        (student_ids, data.row_student()[rows]),
        _formatted(table.position[rows], str),
        (skill_ids, data.skill[rows]),
        _formatted(table.mastery[rows], fixed),
        _formatted(table.profile[rows], str),
        _formatted(table.difficulty[rows], str),
        _formatted(np.asarray(scores, dtype=float), fixed),
        _formatted(table.label[rows], str, end="\n"),
    )
    chunk = 4096
    block = np.empty((chunk, len(columns)), dtype=object)
    out.write("student\tposition\tskill\tmastery\tprofile\tdifficulty\tprobability\tlabel\n")
    for lo in range(0, rows.size, chunk):
        n = min(chunk, rows.size - lo)
        for j, (strings, codes) in enumerate(columns):
            block[:n, j] = strings[codes[lo:lo + n]]
        out.write("".join(block[:n].ravel().tolist()))


def _stale_outputs(out: str, written) -> list:
    """The files under ``out`` that bear the name of an ``evaluate``
    output but are not in ``written``, sorted: an earlier run's, with
    other options or more folds. ``evaluate`` names them and removes
    none: ``out`` may hold the user's own files."""
    written = {os.path.normpath(p) for p in written}
    root = glob.escape(out)
    found = [path for pattern in ("metrics_ikt*", "ablation_summary.txt",
                                  "predictions_*_fold*.tsv")
             for path in glob.glob(os.path.join(root, pattern))]
    found += [path for fold in glob.glob(os.path.join(root, "artifacts", "fold*"))
              if os.path.basename(fold)[len("fold"):].isdecimal()
              for path in glob.glob(os.path.join(glob.escape(fold), "*"))]
    return sorted(p for p in found if not os.path.isdir(p) and os.path.normpath(p) not in written)


# ---------------------------------------------------------------------------
# commands

def cmd_preprocess(args) -> int:
    data = _load_dataset(args.data, args.schema)
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "preprocessed.csv")
    save_canonical(data, out_csv)
    text, kv = render_drop_report(data.drops, data.n_records, len(data.by_student),
                                  data.n_skills, data.n_problems)
    _write(os.path.join(args.out, "preprocess_report.txt"), text)
    _write(os.path.join(args.out, "preprocess_report.kv"), kv)
    sys.stdout.write(text)
    if data.n_records == 0:
        sys.stderr.write("warning: no usable records in input\n")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config, ablation = load_config(args.config, args)
    data = _load_dataset(args.data, args.schema)
    if data.n_records == 0:
        raise InputError(f"{args.data}: no usable records")
    if len(data.by_student) < config.folds:
        raise InputError(f"{args.data}: need at least {config.folds} students for "
                         f"{config.folds} folds, have {len(data.by_student)}")
    _note_drops(data)
    feature_sets = list(FEATURE_SETS) if ablation else [config.feature_set]
    made = []  # the directories makedirs creates, leaf first
    path = os.path.abspath(args.out)
    while not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)
    try:
        reports, outputs = evaluate_feature_sets(data, config, feature_sets)
    except SingleClassError as exc:
        for path in made:
            os.rmdir(path)
        raise InputError(str(exc)) from exc

    artifact_paths = []
    for fs in feature_sets:
        report = reports[fs]
        p_txt = os.path.join(args.out, f"metrics_{fs}.txt")
        p_kv = os.path.join(args.out, f"metrics_{fs}.kv")
        _write(p_txt, report.render_text())
        _write(p_kv, report.render_kv())
        artifact_paths.extend([p_txt, p_kv])
        sys.stdout.write(report.render_text() + "\n")
    if ablation:
        p = os.path.join(args.out, "ablation_summary.txt")
        _write(p, render_ablation_text(reports))
        artifact_paths.append(p)
        sys.stdout.write(render_ablation_text(reports))

    inputs = input_entries(args.data)
    for output in outputs:
        fold_dir = os.path.join(args.out, "artifacts", f"fold{output.fold_id}")
        train = ",".join(sorted(data.by_student.keys() - output.test_data.by_student))
        fold_entries = {**inputs, "fold": output.fold_id,
                        "train_students.sha256": hashlib.sha256(train.encode()).hexdigest()}
        artifact_paths.extend(write_bundle(fold_dir, config, fold_entries,
                                           output.artifacts, output.models))
        if args.dump_predictions:
            for fs in feature_sets:
                p = os.path.join(args.out, f"predictions_{fs}_fold{output.fold_id}.tsv")
                with _open_output(p) as out:
                    _dump_predictions(out, output.test_data, output.test_table,
                                      output.keep, output.scores[fs])
                artifact_paths.append(p)

    write_manifest(args.out, config, {**inputs, "ablation": ablation,
                                      "fold_digest": reports[feature_sets[0]].fold_digest},
                   artifact_paths)
    for path in _stale_outputs(args.out, artifact_paths):
        sys.stderr.write(f"note: {path} was not written by this run; an earlier run left it\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    config, _ = load_config(args.config, args)
    data = _load_dataset(args.data, args.schema)
    if data.n_records == 0:
        raise InputError(f"{args.data}: no usable records")
    _note_drops(data)

    os.makedirs(args.out, exist_ok=True)
    params, = evaluation.skill_params(data, np.ones((len(data.by_student), 1)), config)
    artifacts = evaluation.fit_fold_artifacts(data, config, 0, params)
    train, = evaluation.build_feature_rows(artifacts, data)
    feats = FEATURE_SETS[config.feature_set]
    model = tan.fit_tan(train.columns(feats), train.label, alpha=config.alpha)
    profile_path = os.path.join(args.out, "profiles.tsv")
    students, row_student = list(data.by_student), data.row_student()
    with _open_output(profile_path) as fh:
        fh.write("student\tinterval\tlabel\n")
        for row in np.nonzero(train.position % config.interval_len == 0)[0]:
            z = train.position[row] // config.interval_len + 1
            fh.write(f"{students[row_student[row]]}\t{z}\t{train.profile[row]}\n")
    write_bundle(args.out, config, input_entries(args.data), artifacts,
                 {config.feature_set: model}, paths=[profile_path])
    sys.stdout.write(f"fitted artifacts written to {args.out}\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    data = _load_dataset(args.data, args.schema)
    _note_drops(data)
    artifacts, model = load_bundle(args.model_dir)
    with _open_output(args.out) as out:
        table, = evaluation.build_feature_rows(artifacts, data)
        scores = tan.predict_many(model, table.columns(model.features))
        _dump_predictions(out, data, table, np.ones(len(table), dtype=bool), scores)
    unseen = int((table.skill == len(artifacts.skill_index)).sum())
    levels = artifacts.difficulty.levels
    rated = np.array([p in levels for p in data.problem_index], dtype=bool)
    unrated = int(np.count_nonzero(~rated[data.problem]))
    sys.stdout.write(f"{len(table)} predictions written to {args.out} "
                     f"({unseen} with a skill outside the fitted vocabulary) "
                     f"({unrated} with a problem outside the fitted difficulty table)\n")
    return EXIT_OK


def cmd_explain(args) -> int:
    artifacts, model = load_bundle(args.model_dir)
    codes = artifacts.skill_index
    known = f"(model features: {', '.join(model.features)})"
    evidence: dict = {}
    given: dict = {}  # the skill and mastery as given, printed in place of code and bin
    for pair in args.evidence:
        if "=" not in pair:
            raise InputError(f"evidence must be name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        name = name.strip()
        if name not in model.features:
            raise InputError(f"evidence {name!r} is not a model feature {known}")
        if name in evidence:
            raise InputError(f"evidence for {name} given more than once {known}")
        if name == "skill":
            # coded as predict codes it: an unknown id gets the unseen code
            given[name] = raw.strip()
            evidence[name] = codes.get(given[name], len(codes))
            continue
        kind = float if name in model.discretizer.cutpoints else int
        if kind is float:
            given[name] = raw.strip()
        try:
            evidence[name] = kind(raw)
        except ValueError:
            expected = "a number" if kind is float else "an integer"
            raise InputError(f"evidence value for {name} must be {expected}, "
                             f"got {raw!r}") from None
        if name == "mastery" and not 0.0 <= evidence[name] <= 1.0:
            raise InputError(f"evidence value for mastery must be a probability "
                             f"in [0, 1], got {raw!r}")
    missing = [f for f in model.features if f not in evidence]
    if missing:
        raise InputError(f"missing evidence for: {', '.join(missing)} {known}")

    record = tan.explain(model, evidence)
    out = [f"posterior P(correct) = {record.posterior:.6f}",
           f"prior log-odds       = {record.prior_log_odds:+.6f}"]
    for c in record.contributions:
        parent = model.structure.parent[c.feature]
        parent_txt = (f"{parent}={given.get(parent, c.parent_value)}" if parent is not None
                      else "class only")
        out.append(f"  {c.feature}={given.get(c.feature, c.value)} ({parent_txt}): "
                   f"{c.log_ratio:+.6f}")
    total = record.prior_log_odds + sum(c.log_ratio for c in record.contributions)
    out.append(f"sum of contributions = {total:+.6f} (posterior log-odds "
               f"{record.log_odds:+.6f})")
    for name in record.out_of_domain:
        out.append(f"note: value {given.get(name, evidence[name])!r} for {name} is outside "
                   "the model domain; uniform fallback used")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikt",
        description="Knowledge-tracing feature extraction and next-correctness "
                    "prediction with an interpretable Bayes-net classifier.")
    parser.add_argument("--version", action="version", version=f"ikt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean a raw interaction log")
    p.add_argument("--data", required=True, help="raw delimited log with header row")
    p.add_argument("--schema", required=True, help="key=value file naming the columns")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_preprocess)

    # the options evaluate, fit and predict share
    log, run = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    log.add_argument("--data", required=True, help="canonical csv, or a raw log with --schema")
    log.add_argument("--schema", help="key=value file naming the columns of a raw --data log")
    run.add_argument("--config", help="key=value experiment configuration")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, help="override the configured seed")
    run.add_argument("--feature-set", choices=list(FEATURE_SETS), dest="feature_set",
                     help="override the configured feature set")

    p = sub.add_parser("evaluate", parents=[log, run],
                       help="cross-validated metrics (optionally ablation)")
    p.add_argument("--workers", type=int,
                   help="parallel fold workers, capped at the number of folds")
    p.add_argument("--ablation", action="store_true",
                   help="evaluate all three feature sets on shared folds")
    p.add_argument("--dump-predictions", action="store_true",
                   help="write per-prediction rows for each fold")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fit", parents=[log, run], help="fit all artifacts on the full dataset")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", parents=[log], help="score a dataset with fitted artifacts")
    p.add_argument("--model-dir", required=True, help=_MODEL_DIR_HELP)
    p.add_argument("--out", required=True, help="predictions tsv path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="per-node contributions for one evidence tuple")
    p.add_argument("--model-dir", required=True, help=_MODEL_DIR_HELP)
    p.add_argument("evidence", nargs="+", metavar="name=value",
                   help="evidence values, e.g. skill=kc_12 mastery=0.4 profile=1 "
                        "difficulty=5; skill takes a skill id of the bundle")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DataFormatError, OSError) as exc:
        # an OSError is a path the user gave that cannot be read or written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
