"""One benchmark child process: a set-up probe or one pass of a workload.

    python3 perfbench/pipeline.py setup TRAIN_CSV
    python3 perfbench/pipeline.py pass CONFIG_JSON RESULT_JSON

``setup`` imports ikt, then loads and cleans the training log; its
caller times the whole process. ``pass`` drives ikt only through its
public surface: ``ikt.cli.main`` for ``fit``, ``predict`` and
``evaluate --ablation``, and ``ikt.tan.explain`` on single rows of the
predict output. It checks every output, digests the fitted artifacts
and writes one JSON result. With ``trace`` set, the three commands run
inside a ``spans.Tracer``; the explain calls never do.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np

EXPLAIN_WARMUP = 250
EXPLAIN_TOLERANCE = 1e-12
MODEL_FEATURE_SET = "ikt3"


def run_setup(train_csv: str) -> dict:
    import ikt
    from ikt.dataset import CANONICAL_SCHEMA, load_csv, preprocess

    data = preprocess(load_csv(train_csv, CANONICAL_SCHEMA))
    return {"ikt": ikt.__file__, "records": data.n_records,
            "rows_dropped": sum(data.drops.values())}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(eval_dir: str, fit_dir: str, predictions: str) -> dict:
    """sha256 of every metrics file and fitted artifact, keyed by command/path.

    ``manifest.kv`` is left out: it records input paths, which differ
    between passes by design.
    """
    out = {}
    for command, base in (("evaluate", eval_dir), ("fit", fit_dir)):
        if not os.path.isdir(base):
            continue
        for dirpath, _, files in os.walk(base):
            for name in files:
                if name == "manifest.kv" or not name.endswith((".kv", ".tsv", ".model")):
                    continue
                path = os.path.join(dirpath, name)
                out[f"{command}/{os.path.relpath(path, base)}"] = sha256(path)
    if os.path.exists(predictions):
        out["predict/predictions.tsv"] = sha256(predictions)
    return dict(sorted(out.items()))


def read_kv(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def rank_auc(scores, labels) -> float:
    """Mann-Whitney AUC with ties counted as one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return math.nan
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mid_rank = upper - (counts - 1) / 2.0
    rank_sum = float(mid_rank[inverse][labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def is_probability(p: float) -> bool:
    return math.isfinite(p) and 0.0 <= p <= 1.0


def check_evaluate(eval_dir: str, quality: dict) -> list:
    failures = []
    for fs in ("ikt1", "ikt2", "ikt3"):
        path = os.path.join(eval_dir, f"metrics_{fs}.kv")
        if not os.path.exists(path):
            failures.append(f"missing {path}")
            continue
        kv = read_kv(path)
        for key in ("pooled.auc", "pooled.rmse"):
            try:
                value = float(kv[key])
            except (KeyError, ValueError):
                failures.append(f"metrics_{fs}.kv: no numeric {key}")
                continue
            if not is_probability(value):
                failures.append(f"metrics_{fs}.kv: {key} = {value} outside [0, 1]")
            quality[f"pooled_{key.split('.')[1]}.{fs}"] = value
    return failures


def check_fit(fit_dir: str) -> list:
    names = ("bkt_params.tsv", "centroids.tsv", "difficulty.tsv",
             f"tan_{MODEL_FEATURE_SET}.model", "profiles.tsv")
    return [f"missing fit artifact {n}" for n in names
            if not os.path.exists(os.path.join(fit_dir, n))]


def read_predictions(path: str) -> dict:
    cols = {k: [] for k in ("skill", "mastery", "profile", "difficulty",
                            "probability", "label")}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        index = [header.index(k) for k in cols]
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            for key, i in zip(cols, index):
                cols[key].append(cells[i])
    return cols


def check_predict(predictions: str, expected_rows: int, quality: dict) -> tuple:
    if not os.path.exists(predictions):
        return [f"missing {predictions}"], None
    cols = read_predictions(predictions)
    failures = []
    n = len(cols["probability"])
    if n != expected_rows:
        failures.append(f"predict wrote {n} rows, expected one per kept record "
                        f"({expected_rows})")
    prob = np.array([float(v) for v in cols["probability"]])
    bad = int(np.sum(~(np.isfinite(prob) & (prob >= 0.0) & (prob <= 1.0))))
    if bad:
        failures.append(f"{bad} predicted probabilities not finite in [0, 1]")
    quality["predict_auc"] = rank_auc(prob, [int(v) for v in cols["label"]])
    if not math.isfinite(quality["predict_auc"]):
        failures.append("predict_auc undefined: score labels have one class")
    return failures, cols


class ExplainBench:
    """Closed-loop single-row explain latency with one caller.

    Evidence rows are sampled from the predict output. The skill code
    is the skill's first-appearance index in that output, which is how
    ``predict`` itself coded it. Each posterior is checked against
    ``predict_many`` on the same evidence. Calls run in bursts; the
    first ``EXPLAIN_WARMUP`` calls of each burst are not timed.
    """

    def __init__(self, model_path: str, cols: dict, n_rows: int, seed: int):
        import ikt.tan

        self.model = ikt.tan.load_model(model_path)
        codes: dict = {}
        for name in cols["skill"]:
            codes.setdefault(name, len(codes))
        picks = np.random.default_rng(seed).integers(len(cols["skill"]), size=n_rows)
        batch = {
            "skill": np.array([codes[cols["skill"][i]] for i in picks]),
            "mastery": np.array([float(cols["mastery"][i]) for i in picks]),
            "profile": np.array([int(cols["profile"][i]) for i in picks]),
            "difficulty": np.array([int(cols["difficulty"][i]) for i in picks]),
        }
        features = self.model.features
        self.rows = [{f: batch[f][j].item() for f in features} for j in range(n_rows)]
        self.expected = ikt.tan.predict_many(self.model, {f: batch[f] for f in features})
        self.samples_ns: list = []
        self.calls = 0
        self.failed = 0

    def burst(self, lo: int, hi: int) -> None:
        import ikt.tan

        explain, model, clock = ikt.tan.explain, self.model, time.perf_counter_ns
        posteriors = []
        for j in range(lo, hi):
            start = clock()
            record = explain(model, self.rows[j])
            end = clock()
            if j - lo >= EXPLAIN_WARMUP:
                self.samples_ns.append(end - start)
            posteriors.append(record.posterior)
        self.calls += hi - lo
        self.failed += sum(1 for p, e in zip(posteriors, self.expected[lo:hi])
                           if not is_probability(p) or abs(p - e) > EXPLAIN_TOLERANCE)

    def to_json(self) -> dict:
        return {"samples_ns": self.samples_ns, "calls": self.calls, "failed": self.failed}


def run_pass(cfg: dict) -> dict:
    """fit, predict, an explain burst, evaluate, a second explain burst.

    The two bursts sit on either side of the longest command, so the
    explain samples of a run are spread over it.
    """
    import ikt.cli

    out = cfg["outdir"]
    eval_dir = os.path.join(out, "evaluate")
    fit_dir = os.path.join(out, "fit")
    predictions = os.path.join(out, "predictions.tsv")
    commands = {
        "fit": ["fit", "--data", cfg["train"], "--out", fit_dir],
        "predict": ["predict", "--data", cfg["score"], "--schema", cfg["schema"],
                    "--model-dir", fit_dir, "--out", predictions],
        "evaluate": ["evaluate", "--data", cfg["train"], "--ablation", "--out", eval_dir],
    }
    wall, codes = {}, {}
    tracer = None
    if cfg["trace"]:
        from spans import Tracer
        tracer = Tracer()

    def command(name):
        with tracer or nullcontext():
            start = time.perf_counter()
            codes[name] = ikt.cli.main(commands[name])
            wall[name] = time.perf_counter() - start

    quality: dict = {}
    command("fit")
    command("predict")
    predict_failures, cols = check_predict(predictions, cfg["expected_predict_rows"],
                                           quality)
    model_path = os.path.join(fit_dir, f"tan_{MODEL_FEATURE_SET}.model")
    burst = EXPLAIN_WARMUP + cfg["explain_calls"] // 2
    bench = None
    if cols is not None and cols["skill"] and os.path.exists(model_path):
        bench = ExplainBench(model_path, cols, 2 * burst, cfg["seed"])
        bench.burst(0, burst)
    command("evaluate")
    if bench is not None:
        bench.burst(burst, 2 * burst)
        explain = bench.to_json()
    else:
        explain = {"samples_ns": [], "calls": 2 * burst, "failed": 2 * burst}

    failures = {name: [f"exit code {rc}"] if rc else [] for name, rc in codes.items()}
    failures["evaluate"] += check_evaluate(eval_dir, quality)
    failures["fit"] += check_fit(fit_dir)
    failures["predict"] += predict_failures
    result = {
        "trace": bool(cfg["trace"]),
        "wall_s": wall,
        "predict_rows": len(cols["probability"]) if cols else 0,
        "failures": failures,
        "quality": quality,
        "explain": explain,
        "digests": artifact_digests(eval_dir, fit_dir, predictions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from spans import command_shares, layer_metrics
        result["layers"] = layer_metrics(tracer.spans)
        result["shares"] = command_shares(tracer.spans, list(commands))
        result["spans"] = tracer.to_json()
    return result


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        sys.stdout.write(json.dumps(run_setup(argv[1])) + "\n")
        return 0
    if len(argv) == 3 and argv[0] == "pass":
        with open(argv[1], encoding="utf-8") as fh:
            cfg = json.load(fh)
        result = run_pass(cfg)
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
