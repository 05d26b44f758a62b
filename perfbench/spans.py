"""Timing wrappers installed around ikt's public layer functions.

A ``Tracer`` replaces each target on the module attribute its callers
look it up through (``ikt.bkt.fit_all_skills``, ``ikt.cli.load_csv``,
...) with a wrapper that records a span: name, start, end and the span
that was open when it started. Spans stay in memory; the caller writes
them out once at the end. Leaving the ``with`` block restores every
original attribute, also when the block raises.

Counts (records, patterns, cutpoints, ...) are computed from each call's
arguments and result after its span has ended, so they add to the trace
overhead but not to the span that did the work.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


# --- counters: (args, kwargs, result) -> dict of counts -------------------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_preprocess(args, kwargs, data):
    return {"records": data.n_records, "rows_dropped": sum(data.drops.values())}


def _count_fit_skill(args, kwargs, result):
    import ikt.bkt
    grid = _arg(args, kwargs, 1, "grid") or ikt.bkt.FitGrid()
    patterns = {tuple(int(r) for r in seq) for seq in _arg(args, kwargs, 0, "sequences")}
    patterns.discard(())
    sequences = sum(1 for seq in _arg(args, kwargs, 0, "sequences") if len(seq))
    grid_points = (grid.l0_values.size * grid.t_values.size
                   * grid.g_values.size * grid.s_values.size)
    return {"sequences": sequences, "unique_patterns": len(patterns),
            "grid_steps": grid_points * sum(len(p) for p in patterns)}


def _count_fit_all_skills(args, kwargs, result):
    return {"skills_fitted": len(result)}


def _count_train_clusters(args, kwargs, model):
    x = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "vectors"), dtype=float))
    d2 = ((x[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    return {"vectors": len(x), "dim": x.shape[1],
            "wcss": float(d2.min(axis=1).sum())}


def _count_difficulty(args, kwargs, table):
    return {"problems": len(table.levels)}


def _count_feature_rows(args, kwargs, result):
    return {"feature_rows": sum(len(side) for side in result)}


def _count_discretizer(args, kwargs, disc):
    return {"cutpoints": sum(len(c) for c in disc.cutpoints.values())}


def _count_predict_many(args, kwargs, result):
    return {"rows": len(result)}


# (module, attribute, span name, counter). Each module is the one the
# callers look the attribute up through, so the wrapper sees every call.
TARGETS = (
    ("ikt.cli", "main", "cli.main", None),
    ("ikt.cli", "load_csv", "dataset.load_csv", None),
    ("ikt.cli", "preprocess", "dataset.preprocess", _count_preprocess),
    ("ikt.evaluation", "_run_fold", "evaluation.fold", None),
    ("ikt.evaluation", "fit_fold_artifacts", "evaluation.fit_fold_artifacts", None),
    ("ikt.evaluation", "build_feature_rows", "evaluation.build_feature_rows",
     _count_feature_rows),
    ("ikt.evaluation", "build_difficulty_table", "difficulty.build_difficulty_table",
     _count_difficulty),
    ("ikt.evaluation", "auc", "evaluation.auc", None),
    ("ikt.evaluation", "rmse", "evaluation.rmse", None),
    ("ikt.bkt", "fit_all_skills", "bkt.fit_all_skills", _count_fit_all_skills),
    ("ikt.bkt", "fit_skill", "bkt.fit_skill", _count_fit_skill),
    ("ikt.ability", "interval_vectors", "ability.interval_vectors", None),
    ("ikt.ability", "train_clusters", "ability.train_clusters", _count_train_clusters),
    ("ikt.ability", "profile_labels", "ability.profile_labels", None),
    ("ikt.tan", "fit_tan", "tan.fit_tan", None),
    ("ikt.tan", "fit_discretizer", "tan.fit_discretizer", _count_discretizer),
    ("ikt.tan", "learn_structure", "tan.learn_structure", None),
    ("ikt.tan", "estimate_cpts", "tan.estimate_cpts", None),
    ("ikt.tan", "predict_many", "tan.predict_many", _count_predict_many),
    ("ikt.tan", "save_model", "tan.save_model", None),
    ("ikt.tan", "load_model", "tan.load_model", None),
)


class Tracer:
    """Context manager that patches the targets and collects spans.

    It may be entered again after it exits; spans accumulate.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end_ns - span.start_ns - covered) / 1e9)
    return out


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer values of one traced pass: times summed, counts summed.

    ``trace.overhead_s`` is not here: it needs an untraced pass too.
    """
    total: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        calls.setdefault(span.name, []).append(span.seconds)
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
    selfs = self_seconds(spans)

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    fit_skill_ms = [s * 1e3 for s in calls.get("bkt.fit_skill", [])] or [0.0]
    folds = calls.get("evaluation.fold", []) or [0.0]
    return {
        "dataset.load_csv_s": t("dataset.load_csv"),
        "dataset.preprocess_s": t("dataset.preprocess"),
        "dataset.records": c("dataset.preprocess.records"),
        "dataset.rows_dropped": c("dataset.preprocess.rows_dropped"),
        "bkt.fit_all_skills_s": t("bkt.fit_all_skills"),
        "bkt.fit_skill_p50_ms": statistics.median(fit_skill_ms),
        "bkt.fit_skill_max_ms": max(fit_skill_ms),
        "bkt.skills_fitted": c("bkt.fit_all_skills.skills_fitted"),
        "bkt.sequences": c("bkt.fit_skill.sequences"),
        "bkt.unique_patterns": c("bkt.fit_skill.unique_patterns"),
        "bkt.dedup_ratio": (c("bkt.fit_skill.unique_patterns")
                            / max(c("bkt.fit_skill.sequences"), 1)),
        "bkt.grid_steps": c("bkt.fit_skill.grid_steps"),
        "ability.interval_vectors_s": t("ability.interval_vectors"),
        "ability.train_clusters_s": t("ability.train_clusters"),
        "ability.profile_labels_s": t("ability.profile_labels"),
        "ability.vectors": c("ability.train_clusters.vectors"),
        "ability.dim": max((s.counts.get("dim", 0) for s in spans
                            if s.name == "ability.train_clusters"), default=0),
        "ability.wcss": c("ability.train_clusters.wcss"),
        "difficulty.build_difficulty_table_s": t("difficulty.build_difficulty_table"),
        "difficulty.problems": c("difficulty.build_difficulty_table.problems"),
        "evaluation.fit_fold_artifacts_s": t("evaluation.fit_fold_artifacts"),
        "evaluation.build_feature_rows_s": t("evaluation.build_feature_rows"),
        "evaluation.feature_rows": c("evaluation.build_feature_rows.feature_rows"),
        "evaluation.fold_max_s": max(folds),
        "evaluation.fold_min_s": min(folds),
        "evaluation.metrics_s": t("evaluation.auc") + t("evaluation.rmse"),
        "tan.fit_tan_s": t("tan.fit_tan"),
        "tan.fit_discretizer_s": t("tan.fit_discretizer"),
        "tan.learn_structure_s": t("tan.learn_structure"),
        "tan.estimate_cpts_s": t("tan.estimate_cpts"),
        "tan.cutpoints": c("tan.fit_discretizer.cutpoints"),
        "tan.predict_many_s": t("tan.predict_many"),
        "tan.predict_many_rows": c("tan.predict_many.rows"),
        "tan.save_model_s": t("tan.save_model"),
        "tan.load_model_s": t("tan.load_model"),
        "cli.self_s": sum(s for span, s in zip(spans, selfs) if span.name == "cli.main"),
    }


def command_shares(spans: list[Span], commands: list[str]) -> dict:
    """Share of each CLI command's wall time spent in each traced layer.

    ``commands`` names the ``cli.main`` spans in call order. Shares of
    nested layers overlap: a fold's share includes its BKT fit.
    """
    root_of: list[int] = []
    for i, span in enumerate(spans):
        root_of.append(i if span.parent is None else root_of[span.parent])
    roots = [i for i, span in enumerate(spans) if span.name == "cli.main"]
    out = {}
    for command, root in zip(commands, roots):
        wall = spans[root].seconds
        layer: dict[str, float] = {}
        for i, span in enumerate(spans):
            if i != root and root_of[i] == root:
                layer[span.name] = layer.get(span.name, 0.0) + span.seconds
        out[command] = {"wall_s": wall,
                        **{k: round(v / wall, 4) for k, v in sorted(layer.items())}}
    return out
