"""Command-line entry point: preprocess, fit, evaluate, predict, explain.

``fit`` writes one bundle, and ``evaluate`` one per fold under
``artifacts/foldN``. ``predict`` and ``explain`` read a bundle given as
``--model-dir``; ``explain`` takes the skill as an id of that bundle.
``_write_bundle`` and ``_load_bundle`` own its files; the three tables
are UTF-8 text, one tab-separated row per line, and a blank line is
skipped when read:

- ``bkt_params.tsv``: the header ``skill_id l0 t g s``, then one row per
  skill, its id and its four probabilities to 6 decimals. The row order
  is the skill coding.
- ``centroids.tsv``: one row per k-means cluster, its value for each
  skill, in skill-code order, to 6 decimals; no header, and no row when
  no cluster was fitted.
- ``difficulty.tsv``: the line ``# default`` with the level of a problem
  not listed, then one row per rated problem, its id and its integer
  level from 0 to 10.

Besides them, a ``tan_<feature set>.model`` per feature set, in the
layout ``tan.save_model`` describes and ``tan.load_model`` requires, and
``manifest.kv`` with the bundle format and the configuration.

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
from .ability import ClusterModel
from .bkt import BktParams
from .dataset import (CANONICAL_SCHEMA, DataFormatError, SchemaError, load_csv,
                      load_schema, preprocess, render_drop_report, save_canonical,
                      _open_output, _parse_keyvalue, _probability, _read_lines)
from .difficulty import DEFAULT_LEVEL, DifficultyTable
from .evaluation import (FEATURE_SETS, ExperimentConfig, FoldArtifacts,
                         SingleClassError, evaluate_feature_sets, render_ablation_text)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
_MODEL_DIR_HELP = "bundle directory: fit's --out or evaluate's artifacts/foldN"
_BUNDLE_FORMAT = "1"

_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}

_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}


class InputError(Exception):
    """User-facing problem: bad input, bad config, bad bundle."""


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


def _input_entries(path: str) -> dict:
    """Manifest lines naming an input file and its sha256."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return {"input.data.path": path, "input.data.sha256": h.hexdigest()}


def _write(path: str, text: str) -> None:
    with _open_output(path) as fh:
        fh.write(text)


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


def _write_bundle(outdir: str, config: ExperimentConfig, entries: dict,
                  artifacts: FoldArtifacts | None = None, models: dict | None = None,
                  paths=()) -> list:
    """Write a bundle: ``artifacts`` and ``models`` in the files
    ``_load_bundle`` reads, then ``manifest.kv`` holding the tool version,
    the bundle format, ``config``, ``entries`` and one ``artifact`` line
    per file written or given in ``paths``. Returns those files. Without
    artifacts it writes the manifest alone, as for ``evaluate``'s run
    directory.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    if artifacts is not None:
        difficulty = artifacts.difficulty
        tables = {
            "bkt_params.tsv": ["skill_id\tl0\tt\tg\ts"] + [
                f"{skill}\t{p.l0:.6f}\t{p.t:.6f}\t{p.g:.6f}\t{p.s:.6f}"
                for skill, p in artifacts.params_by_skill.items()],
            "centroids.tsv": ["\t".join(f"{v:.6f}" for v in row)
                              for row in artifacts.clusters.centroids],
            "difficulty.tsv": [f"# default\t{difficulty.default_level}"] + [
                f"{problem}\t{level}" for problem, level in difficulty.levels.items()],
        }
        for name, lines in tables.items():
            written.append(os.path.join(outdir, name))
            _write(written[-1], "".join(f"{line}\n" for line in lines))
    for fs, model in (models or {}).items():
        written.append(os.path.join(outdir, f"tan_{fs}.model"))
        tan.save_model(model, written[-1])
    written.extend(paths)
    lines = [f"tool_version = {__version__}", f"bundle_format = {_BUNDLE_FORMAT}"]
    lines += [f"config.{key} = {value}"
              for key, value in sorted(dataclasses.asdict(config).items())]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    lines += [f"artifact = {p}" for p in written]
    _write(os.path.join(outdir, "manifest.kv"), "\n".join(lines) + "\n")
    return written


def _level(text: str) -> int:
    level = int(text)
    if not 0 <= level <= 10:
        raise ValueError(f"level {text!r} is not from 0 to 10")
    return level


def _read_rows(path: str, parse, width: int | None = None, header: str | None = None,
               key: str | None = None) -> list:
    """What ``parse`` returns for each row of the bundle table ``path``,
    in file order; a row is a non-blank line split on tabs.

    Every row has ``width`` fields, or as many as the first. With
    ``header`` the first line must start with it and is not a row. With
    ``key``, the name of what the first field holds, no first field may
    repeat. A violation, or an error of ``parse``, raises ``ValueError``
    naming ``path:lineno``.
    """
    rows, seen = [], set()
    lines = enumerate(_read_lines(path), 1)
    if header is not None and not next(lines, (1, ""))[1].startswith(header):
        raise ValueError(f"{path}:1: expected a {header!r} header")
    for lineno, line in lines:
        if not line.strip():
            continue
        fields = line.split("\t")
        width = width or len(fields)
        try:
            if len(fields) != width:
                raise ValueError(f"{len(fields)} fields, expected {width}")
            if key is not None:
                if fields[0] in seen:
                    raise ValueError(f"{key} {fields[0]!r} listed twice")
                seen.add(fields[0])
            rows.append(parse(*fields))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


def _load_bundle(model_dir: str) -> tuple[FoldArtifacts, int, tan.TanModel]:
    """The artifacts, interval length and classifier of a bundle, as
    ``_write_bundle`` writes it for ``fit`` and each ``evaluate`` fold.

    The skill vocabulary is the row order of ``bkt_params.tsv``, which
    every bundle holds in skill-code order; ``interval_len`` and the
    feature set, which names the model file, come from ``manifest.kv``.
    A manifest without ``bundle_format`` predates the key: format 1. The
    model's skill, profile and difficulty domains must fit the tables.
    """
    manifest, bkt_path, centroids_path = (os.path.join(model_dir, name) for name in (
        "manifest.kv", "bkt_params.tsv", "centroids.tsv"))
    try:
        entries = _parse_keyvalue(manifest, repeatable=("artifact",))
        if entries.get("bundle_format", _BUNDLE_FORMAT) != _BUNDLE_FORMAT:
            raise InputError(f"{manifest}: unknown bundle_format {entries['bundle_format']!r}")
        feature_set = entries.get("config.feature_set")
        interval_len = entries.get("config.interval_len", "")
        if not (feature_set in FEATURE_SETS and interval_len.isdecimal()
                and int(interval_len) >= 1):
            raise ValueError(f"{manifest}: needs config.feature_set and a positive "
                             "config.interval_len")
        model_path = os.path.join(model_dir, f"tan_{feature_set}.model")
        model = tan.load_model(model_path)
        if model.features != FEATURE_SETS[feature_set]:
            raise ValueError(f"{model_path}: features {' '.join(model.features)}, but "
                             f"feature set {feature_set} is "
                             f"{' '.join(FEATURE_SETS[feature_set])}")
        params = dict(_read_rows(
            bkt_path, lambda skill, *p: (skill, BktParams(*map(_probability, p))),
            width=5, header="skill_id", key="skill"))
        centroids = _read_rows(centroids_path, lambda *row: list(map(_probability, row)))
        levels = dict(_read_rows(os.path.join(model_dir, "difficulty.tsv"),
                                 lambda problem, level: (problem, _level(level)),
                                 width=2, key="problem"))
    except (SchemaError, DataFormatError, ValueError) as exc:
        raise InputError(f"malformed artifact: {exc}") from exc
    if centroids and len(centroids[0]) != len(params):
        raise InputError(f"{centroids_path}: centroids have dimension {len(centroids[0])}, "
                         f"but {bkt_path} lists {len(params)} skills")
    for feature, low, high in (("skill", 0, len(params) - 1),
                               ("profile", 1, len(centroids) + 1), ("difficulty", 0, 10)):
        domain = model.domains.get(feature, [low])
        if not low <= domain[0] <= domain[-1] <= high:
            raise InputError(f"{model_path}: [domain {feature}] holds {domain[0]}..{domain[-1]}, "
                             f"outside {low}..{high} of this bundle")
    default = levels.pop("# default", DEFAULT_LEVEL)
    return (FoldArtifacts(params_by_skill=params, clusters=ClusterModel(np.array(centroids)),
                          difficulty=DifficultyTable(levels, default)),
            int(interval_len), model)


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

    inputs = _input_entries(args.data)
    manifests = []
    for output in outputs:
        fold_dir = os.path.join(args.out, "artifacts", f"fold{output.fold_id}")
        manifests.append(os.path.join(fold_dir, "manifest.kv"))
        train = ",".join(sorted(data.by_student.keys() - output.test_data.by_student))
        fold_entries = {**inputs, "fold": output.fold_id,
                        "train_students.sha256": hashlib.sha256(train.encode()).hexdigest()}
        artifact_paths.extend(_write_bundle(fold_dir, config, fold_entries,
                                            output.artifacts, output.models))
        if args.dump_predictions:
            for fs in feature_sets:
                p = os.path.join(args.out, f"predictions_{fs}_fold{output.fold_id}.tsv")
                with _open_output(p) as out:
                    _dump_predictions(out, output.test_data, output.test_table,
                                      output.keep, output.scores[fs])
                artifact_paths.append(p)

    _write_bundle(args.out, config,
                  {**inputs, "ablation": ablation,
                   "fold_digest": reports[feature_sets[0]].fold_digest},
                  paths=artifact_paths)
    for path in _stale_outputs(args.out, artifact_paths + manifests):
        sys.stderr.write(f"note: {path} was not written by this run; an earlier run left it\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    config, _ = load_config(args.config, args)
    data = _load_dataset(args.data, args.schema)
    if data.n_records == 0:
        raise InputError(f"{args.data}: no usable records")

    os.makedirs(args.out, exist_ok=True)
    params, = evaluation.skill_params(data, np.ones((len(data.by_student), 1)), config)
    artifacts = evaluation.fit_fold_artifacts(data, config, 0, params)
    train, = evaluation.build_feature_rows(artifacts, config.interval_len, data)
    feats = FEATURE_SETS[config.feature_set]
    model = tan.fit_tan(train.columns(feats), train.label, alpha=config.alpha)
    profile_path = os.path.join(args.out, "profiles.tsv")
    students, row_student = list(data.by_student), data.row_student()
    with _open_output(profile_path) as fh:
        fh.write("student\tinterval\tlabel\n")
        for row in np.nonzero(train.position % config.interval_len == 0)[0]:
            z = train.position[row] // config.interval_len + 1
            fh.write(f"{students[row_student[row]]}\t{z}\t{train.profile[row]}\n")
    _write_bundle(args.out, config, _input_entries(args.data), artifacts,
                  {config.feature_set: model}, paths=[profile_path])
    sys.stdout.write(f"fitted artifacts written to {args.out}\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    data = _load_dataset(args.data, args.schema)
    artifacts, interval_len, model = _load_bundle(args.model_dir)
    with _open_output(args.out) as out:
        table, = evaluation.build_feature_rows(artifacts, interval_len, data)
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
    artifacts, _, model = _load_bundle(args.model_dir)
    codes = artifacts.skill_index
    known = f"(model features: {', '.join(model.features)})"
    evidence: dict = {}
    given: dict = {}  # the skill as given, printed in place of its code
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
    except (InputError, SchemaError, DataFormatError, OSError) as exc:
        # an OSError is a path the user gave that cannot be read or written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
