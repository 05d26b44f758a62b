"""Command-line entry point: preprocess, fit, evaluate, predict, explain.

All outputs are UTF-8 text. Exit codes: 0 success, 2 for input or
configuration errors, 1 for internal failures, which also print their
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import traceback

import numpy as np

from . import __version__, ability, bkt, evaluation, tan
from .dataset import (CANONICAL_SCHEMA, DataFormatError, SchemaError, load_csv,
                      load_schema, preprocess, render_drop_report, save_canonical,
                      _parse_keyvalue)
from .difficulty import load_difficulty_table, save_difficulty_table
from .evaluation import (FEATURE_SETS, ExperimentConfig, FoldArtifacts,
                         SingleClassError, evaluate_feature_sets, render_ablation_text)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}

_CONFIG_TYPES = {
    "feature_set": str,
    "folds": int,
    "seed": int,
    "interval_len": int,
    "clusters": int,
    "kmeans_restarts": int,
    "grid_step": float,
    "guess_cap": float,
    "slip_cap": float,
    "alpha": float,
    "skip_first_interval": bool,
    "workers": int,
}


class InputError(Exception):
    """User-facing problem: bad path, bad schema, bad config."""


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
        if not os.path.exists(path):
            raise InputError(f"config file not found: {path}")
        try:
            entries = _parse_keyvalue(path)
        except SchemaError as exc:
            raise InputError(str(exc)) from exc
        for key, raw in entries.items():
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


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_manifest(path: str, config: ExperimentConfig, inputs: dict,
                   artifact_paths: list, extra: dict | None = None) -> None:
    """Run snapshot: config, input digests, seeds, artifacts, version."""
    lines = [f"tool_version = {__version__}"]
    for key, value in sorted(dataclasses.asdict(config).items()):
        lines.append(f"config.{key} = {value}")
    for name, p in inputs.items():
        lines.append(f"input.{name}.path = {p}")
        lines.append(f"input.{name}.sha256 = {_sha256(p)}")
    for p in artifact_paths:
        lines.append(f"artifact = {p}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    _write(path, "\n".join(lines) + "\n")


def _load_dataset(path: str, schema_path: str | None):
    """Load and clean a log; without a schema it must be canonical csv."""
    if schema_path is not None and not os.path.exists(schema_path):
        raise InputError(f"schema file not found: {schema_path}")
    if not os.path.exists(path):
        raise InputError(f"data file not found: {path}")
    try:
        schema = load_schema(schema_path) if schema_path else CANONICAL_SCHEMA
        return preprocess(load_csv(path, schema))
    except (SchemaError, DataFormatError) as exc:
        raise InputError(str(exc)) from exc


def _write_fold_artifacts(outdir: str, artifacts: FoldArtifacts,
                          models: dict) -> list:
    os.makedirs(outdir, exist_ok=True)
    paths = []
    p = os.path.join(outdir, "bkt_params.tsv")
    bkt.save_params_table(artifacts.params_by_skill, p)
    paths.append(p)
    p = os.path.join(outdir, "centroids.tsv")
    ability.save_centroids(artifacts.clusters, p)
    paths.append(p)
    p = os.path.join(outdir, "difficulty.tsv")
    save_difficulty_table(artifacts.difficulty, p)
    paths.append(p)
    for fs, model in models.items():
        p = os.path.join(outdir, f"tan_{fs}.model")
        tan.save_model(model, p)
        paths.append(p)
    return paths


def _load_bundle(model_dir: str) -> tuple[FoldArtifacts, int, tan.TanModel]:
    """The artifacts, interval length and classifier that ``fit`` wrote.

    The skill vocabulary is the row order of ``bkt_params.tsv``, which
    ``fit`` writes in skill-code order; ``interval_len`` and the feature
    set, which names the model file, come from ``manifest.kv``.
    """
    def artifact(name):
        p = os.path.join(model_dir, name)
        if not os.path.exists(p):
            raise InputError(f"artifact not found: {p}")
        return p

    manifest, bkt_path = artifact("manifest.kv"), artifact("bkt_params.tsv")
    centroids_path = artifact("centroids.tsv")
    try:
        entries = _parse_keyvalue(manifest)
        feature_set = entries.get("config.feature_set")
        interval_len = entries.get("config.interval_len", "")
        if not (feature_set in FEATURE_SETS and interval_len.isdecimal()
                and int(interval_len) >= 1):
            raise ValueError(f"{manifest}: needs config.feature_set and a positive "
                             "config.interval_len")
        model = tan.load_model(artifact(f"tan_{feature_set}.model"))
        params = bkt.load_params_table(bkt_path)
        clusters = ability.load_centroids(centroids_path)
        difficulty = load_difficulty_table(artifact("difficulty.tsv"))
    except (SchemaError, ValueError) as exc:
        raise InputError(f"malformed artifact: {exc}") from exc
    if clusters.k and clusters.dim != len(params):
        raise InputError(f"{centroids_path}: centroids have dimension {clusters.dim}, "
                         f"but {bkt_path} lists {len(params)} skills")
    return (FoldArtifacts(skill_index={skill: i for i, skill in enumerate(params)},
                          params_by_skill=params, clusters=clusters,
                          difficulty=difficulty),
            int(interval_len), model)


def _dump_predictions(path: str, data, table, keep, scores) -> None:
    cols = ["student", "position", "skill", "mastery", "profile", "difficulty",
            "probability", "label"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        idx = np.nonzero(keep)[0]
        for row, score in zip(idx, scores):
            student, position = table.student[row], int(table.position[row])
            fh.write("\t".join([
                student,
                str(position),
                data.by_student[student][position].skill_id,
                f"{table.mastery[row]:.6f}",
                str(int(table.profile[row])),
                str(int(table.difficulty[row])),
                f"{score:.6f}",
                str(int(table.label[row])),
            ]) + "\n")


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
    try:
        reports, outputs = evaluate_feature_sets(data, config, feature_sets)
    except SingleClassError as exc:
        raise InputError(str(exc)) from exc

    os.makedirs(args.out, exist_ok=True)
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

    for output in outputs:
        fold_dir = os.path.join(args.out, "artifacts", f"fold{output.fold_id}")
        artifact_paths.extend(_write_fold_artifacts(fold_dir, output.artifacts,
                                                    output.models))
        if args.dump_predictions:
            for fs in feature_sets:
                p = os.path.join(args.out, f"predictions_{fs}_fold{output.fold_id}.tsv")
                _dump_predictions(p, data, output.test_table, output.keep,
                                  output.scores[fs])
                artifact_paths.append(p)

    write_manifest(os.path.join(args.out, "manifest.kv"), config,
                   {"data": args.data}, artifact_paths,
                   extra={"ablation": ablation,
                          "fold_digest": reports[feature_sets[0]].fold_digest})
    return EXIT_OK


def cmd_fit(args) -> int:
    config, _ = load_config(args.config, args)
    data = _load_dataset(args.data, args.schema)
    if data.n_records == 0:
        raise InputError(f"{args.data}: no usable records")

    artifacts = evaluation.fit_fold_artifacts(data, config)
    train, = evaluation.build_feature_rows(artifacts, config.interval_len, data)
    feats = FEATURE_SETS[config.feature_set]
    model = tan.fit_tan(train.columns(feats), train.label, alpha=config.alpha)

    os.makedirs(args.out, exist_ok=True)
    paths = _write_fold_artifacts(args.out, artifacts, {config.feature_set: model})
    profile_path = os.path.join(args.out, "profiles.tsv")
    with open(profile_path, "w", encoding="utf-8") as fh:
        fh.write("student\tinterval\tlabel\n")
        for row in np.nonzero(train.position % config.interval_len == 0)[0]:
            z = train.position[row] // config.interval_len + 1
            fh.write(f"{train.student[row]}\t{z}\t{train.profile[row]}\n")
    paths.append(profile_path)
    write_manifest(os.path.join(args.out, "manifest.kv"), config,
                   {"data": args.data}, paths)
    sys.stdout.write(f"fitted artifacts written to {args.out}\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    data = _load_dataset(args.data, args.schema)
    artifacts, interval_len, model = _load_bundle(args.model_dir)
    table, = evaluation.build_feature_rows(artifacts, interval_len, data)
    scores = tan.predict_many(model, table.columns(model.features))
    _dump_predictions(args.out, data, table, np.ones(len(table), dtype=bool), scores)
    unseen = int((table.skill == len(artifacts.skill_index)).sum())
    levels = artifacts.difficulty.levels
    unrated = sum(rec.problem_id not in levels for rec in data.iter_records())
    sys.stdout.write(f"{len(table)} predictions written to {args.out} "
                     f"({unseen} with a skill outside the fitted vocabulary) "
                     f"({unrated} with a problem outside the fitted difficulty table)\n")
    return EXIT_OK


def cmd_explain(args) -> int:
    if not os.path.exists(args.model):
        raise InputError(f"model file not found: {args.model}")
    try:
        model = tan.load_model(args.model)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    evidence: dict = {}
    for pair in args.evidence:
        if "=" not in pair:
            raise InputError(f"evidence must be name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        name = name.strip()
        try:
            evidence[name] = float(raw) if name in model.discretizer.cutpoints else int(raw)
        except ValueError:
            raise InputError(f"evidence value for {name} is not numeric: {raw!r}") from None
    missing = [f for f in model.features if f not in evidence]
    if missing:
        raise InputError(f"missing evidence for: {', '.join(missing)} "
                         f"(model features: {', '.join(model.features)})")

    record = tan.explain(model, evidence)
    out = [f"posterior P(correct) = {record.posterior:.6f}",
           f"prior log-odds       = {record.prior_log_odds:+.6f}"]
    for c in record.contributions:
        parent = model.structure.parent[c.feature]
        parent_txt = f"{parent}={c.parent_value}" if parent is not None else "class only"
        out.append(f"  {c.feature}={c.value} ({parent_txt}): {c.log_ratio:+.6f}")
    total = record.prior_log_odds + sum(c.log_ratio for c in record.contributions)
    out.append(f"sum of contributions = {total:+.6f} (posterior log-odds "
               f"{record.log_odds:+.6f})")
    for flag in record.flags:
        out.append(f"note: {flag}")
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

    p = sub.add_parser("evaluate", help="cross-validated metrics (optionally ablation)")
    p.add_argument("--data", required=True, help="preprocessed dataset (canonical csv)")
    p.add_argument("--schema", help="schema file when --data is a raw log")
    p.add_argument("--config", help="key=value experiment configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--workers", type=int, help="parallel fold workers")
    p.add_argument("--feature-set", choices=list(FEATURE_SETS), dest="feature_set")
    p.add_argument("--ablation", action="store_true",
                   help="evaluate all three feature sets on shared folds")
    p.add_argument("--dump-predictions", action="store_true",
                   help="write per-prediction rows for each fold")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fit", help="fit all artifacts on the full dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--feature-set", choices=list(FEATURE_SETS), dest="feature_set")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="score a dataset with fitted artifacts")
    p.add_argument("--data", required=True)
    p.add_argument("--schema")
    p.add_argument("--model-dir", required=True, help="directory written by fit")
    p.add_argument("--out", required=True, help="predictions tsv path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="per-node contributions for one evidence tuple")
    p.add_argument("--model", required=True, help="serialized classifier file")
    p.add_argument("evidence", nargs="+", metavar="name=value",
                   help="evidence values, e.g. skill=3 mastery=0.4 profile=1 difficulty=5")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
