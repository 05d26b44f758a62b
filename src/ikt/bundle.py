"""The bundle: what ``ikt fit`` fits, and ``ikt evaluate`` once per fold
under ``artifacts/foldN``, as the files of one directory, which
``predict`` and ``explain`` read as ``--model-dir``.

``write_bundle`` and ``load_bundle`` own its files; the three tables are
UTF-8 text, one tab-separated row per line, and a blank line is skipped
when read:

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
``manifest.kv``. ``write_manifest`` writes that file for ``fit``'s
bundle, for each fold's and for ``evaluate``'s run directory, which holds
no tables. Its lines are ``key = value``:

- in all three: ``tool_version``, ``bundle_format``, ``config.<field>``
  for each field of ``ExperimentConfig``, and ``input.data.path`` and
  ``input.data.sha256``, the log that was read;
- in a fold's, also ``fold``, its number, and ``train_students.sha256``,
  the sha256 of its training students' ids, sorted and comma-joined;
- in the run directory's, also ``ablation`` and ``fold_digest``, the
  digest of the fold assignment in ``metrics_*.kv``;
- in all three, the repeatable ``artifact``, one line per file written
  beside the manifest: a bundle's tables and models, ``fit``'s
  ``profiles.tsv``, and every other file of the run, the fold manifests
  among them, in the run directory's.

The loader reads ``bundle_format``, ``config.feature_set`` and
``config.interval_len``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from . import __version__, tan
from .ability import ClusterModel
from .bkt import BktParams
from .dataset import (DataFormatError, _parse_keyvalue, _probability, _read_lines,
                      _write)
from .difficulty import DEFAULT_LEVEL, DifficultyTable
from .evaluation import FEATURE_SETS, ExperimentConfig, FoldArtifacts

__all__ = ["input_entries", "write_manifest", "write_bundle", "load_bundle"]

_BUNDLE_FORMAT = "1"


def input_entries(path: str) -> dict:
    """Manifest lines naming an input file and its sha256."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return {"input.data.path": path, "input.data.sha256": h.hexdigest()}


def write_manifest(outdir: str, config: ExperimentConfig, entries: dict, paths) -> str:
    """Write ``outdir``'s ``manifest.kv``: the tool version, the bundle
    format, ``config``, ``entries`` and one ``artifact`` line per file in
    ``paths``. Returns its path."""
    lines = [f"tool_version = {__version__}", f"bundle_format = {_BUNDLE_FORMAT}"]
    lines += [f"config.{key} = {value}"
              for key, value in sorted(dataclasses.asdict(config).items())]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    lines += [f"artifact = {p}" for p in paths]
    path = os.path.join(outdir, "manifest.kv")
    _write(path, "\n".join(lines) + "\n")
    return path


def write_bundle(outdir: str, config: ExperimentConfig, entries: dict,
                 artifacts: FoldArtifacts, models: dict, paths=()) -> list:
    """Write a bundle: ``artifacts`` and ``models`` in the files
    ``load_bundle`` reads, then the manifest naming them and the files
    in ``paths``. Returns the files it wrote, the manifest last."""
    os.makedirs(outdir, exist_ok=True)
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
    written = []
    for name, lines in tables.items():
        written.append(os.path.join(outdir, name))
        _write(written[-1], "".join(f"{line}\n" for line in lines))
    for fs, model in models.items():
        written.append(os.path.join(outdir, f"tan_{fs}.model"))
        tan.save_model(model, written[-1])
    return written + [write_manifest(outdir, config, entries, written + list(paths))]


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


def load_bundle(model_dir: str) -> tuple[FoldArtifacts, tan.TanModel]:
    """The artifacts and classifier of a bundle, as ``write_bundle``
    writes it for ``fit`` and each ``evaluate`` fold; a fault in it
    raises ``DataFormatError``.

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
    except DataFormatError as exc:
        raise DataFormatError(f"malformed artifact: {exc}") from exc
    if entries.get("bundle_format", _BUNDLE_FORMAT) != _BUNDLE_FORMAT:
        raise DataFormatError(f"{manifest}: unknown bundle_format {entries['bundle_format']!r}")
    try:
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
    except (DataFormatError, ValueError) as exc:
        raise DataFormatError(f"malformed artifact: {exc}") from exc
    if centroids and len(centroids[0]) != len(params):
        raise DataFormatError(f"{centroids_path}: centroids have dimension "
                              f"{len(centroids[0])}, but {bkt_path} lists {len(params)} skills")
    for feature, low, high in (("skill", 0, len(params) - 1),
                               ("profile", 1, len(centroids) + 1), ("difficulty", 0, 10)):
        domain = model.domains.get(feature, [low])
        if not low <= domain[0] <= domain[-1] <= high:
            raise DataFormatError(f"{model_path}: [domain {feature}] holds "
                                  f"{domain[0]}..{domain[-1]}, outside {low}..{high} of "
                                  "this bundle")
    default = levels.pop("# default", DEFAULT_LEVEL)
    return (FoldArtifacts(params_by_skill=params, clusters=ClusterModel(np.array(centroids)),
                          difficulty=DifficultyTable(levels, default),
                          interval_len=int(interval_len)), model)
