"""Fast checks of the benchmark itself, on tiny workload shapes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import importlib
import json
import os

import pytest

import pipeline
import run
import spans
from workloads import SCHEMA_TEXT, WORKLOADS, Inputs, Shape, generate

from ikt.dataset import CANONICAL_SCHEMA, load_csv, load_schema, preprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny(workload):
    skills = min(workload.train.skills, 4)
    return dataclasses.replace(workload, train=Shape(12, skills, 40),
                               score=Shape(6, skills, 40))


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [entry["name"] for entry in json.load(fh)[section]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_is_printed(tmp_path, name, trace):
    record = run.run(tiny(WORKLOADS[name]), seed=3, seconds=0, trace=bool(trace),
                     root=ROOT, workdir=str(tmp_path), min_setup=1,
                     explain_calls=50)
    lines = run.render(record)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    printed = {line.split()[0] for line in lines[:-2]}
    assert set(declared(section)) <= printed
    assert record["passes"] == (2 if trace else 1)
    if trace:
        assert set(record["shares"]) == set(run.COMMANDS)


def test_workload_names_match_benchmark_json():
    assert sorted(declared("workloads")) == sorted(WORKLOADS)


def _originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in spans.TARGETS}


def test_tracer_restores_every_attribute_even_on_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            patched = _originals()
            assert all(patched[k] is not before[k] for k in before)
            raise RuntimeError("boom")
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_time_excludes_children():
    import ikt.bkt

    with spans.Tracer() as tracer:
        ikt.bkt.fit_all_skills({"a": [[1, 0, 1]], "b": [[0, 1], [0, 1]]})
    names = [s.name for s in tracer.spans]
    assert names == ["bkt.fit_all_skills", "bkt.fit_skill", "bkt.fit_skill"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[2].counts == {"sequences": 2, "unique_patterns": 1,
                                      "grid_steps": 19 * 19 * 6 * 6 * 2}
    selfs = spans.self_seconds(tracer.spans)
    children = tracer.spans[1].seconds + tracer.spans[2].seconds
    assert selfs[0] == pytest.approx(tracer.spans[0].seconds - children, abs=1e-9)


def test_self_time_counts_overlapping_children_once():
    rows = [spans.Span("p", 0, 100, None), spans.Span("a", 10, 30, 0),
            spans.Span("b", 20, 40, 0), spans.Span("c", 50, 60, 0)]
    assert spans.self_seconds(rows)[0] == pytest.approx(60e-9)


def test_generator_is_seeded_and_its_drop_tallies_hold(tmp_path):
    workload = tiny(WORKLOADS["score"])
    a = generate(workload, 5, str(tmp_path / "a"))
    b = generate(workload, 5, str(tmp_path / "b"))
    for x, y in ((a.train, b.train), (a.score, b.score)):
        with open(x, "rb") as fx, open(y, "rb") as fy:
            assert fx.read() == fy.read()
    with open(a.schema, encoding="utf-8") as fh:
        assert fh.read() == SCHEMA_TEXT

    score = preprocess(load_csv(a.score, load_schema(a.schema)))
    assert score.n_records == a.sizes["score"]["records"]
    assert dict(score.drops) == {k: v for k, v in a.sizes["score"]["drops"].items() if v}
    train = preprocess(load_csv(a.train, CANONICAL_SCHEMA))
    assert train.n_records == a.sizes["train"]["records"]
    assert not train.drops
    assert list(train.skill_index) != list(score.skill_index)
    assert set(train.by_student).isdisjoint(score.by_student)


def _predictions(path, probabilities):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("student\tposition\tskill\tmastery\tprofile\tdifficulty\t"
                 "probability\tlabel\n")
        for i, p in enumerate(probabilities):
            fh.write(f"v0\t{i}\ts0\t0.5\t1\t5\t{p}\t{i % 2}\n")


def test_corrupted_predictions_fail_the_check(tmp_path):
    path = str(tmp_path / "p.tsv")
    _predictions(path, ["0.2", "0.7", "0.4", "0.9"])
    failures, _ = pipeline.check_predict(path, 4, {})
    assert failures == []
    _predictions(path, ["0.2", "nan", "1.5", "0.9"])
    failures, _ = pipeline.check_predict(path, 4, {})
    assert any("not finite in [0, 1]" in f for f in failures)
    failures, _ = pipeline.check_predict(path, 5, {})
    assert any("one per kept record" in f for f in failures)


def test_corrupted_metrics_file_fails_the_check(tmp_path):
    for fs in ("ikt1", "ikt2", "ikt3"):
        (tmp_path / f"metrics_{fs}.kv").write_text(
            "pooled.auc = 0.7\npooled.rmse = 0.4\n", encoding="utf-8")
    assert pipeline.check_evaluate(str(tmp_path), {}) == []
    (tmp_path / "metrics_ikt2.kv").write_text("pooled.auc = 1.5\n", encoding="utf-8")
    failures = pipeline.check_evaluate(str(tmp_path), {})
    assert len(failures) == 2


def test_changed_artifact_bytes_fail_the_run():
    def fake_pass(digest):
        return {"failures": {c: [] for c in run.COMMANDS},
                "digests": {"evaluate/metrics_ikt1.kv": "aa", "fit/centroids.tsv": digest},
                "explain": {"calls": 10, "failed": 0}}

    inputs = Inputs("t", "s", "k", {"train": {"records": 1}})
    setup = [{"records": 1, "rows_dropped": 0}]
    attempted, failed, problems = run.tally(setup, [fake_pass("x"), fake_pass("x")], inputs)
    assert (attempted, failed) == (27, 0)
    attempted, failed, problems = run.tally(setup, [fake_pass("x"), fake_pass("y")], inputs)
    assert failed == 1
    assert "fit/centroids.tsv" in problems[0]


def test_rank_auc_counts_ties_as_half():
    assert pipeline.rank_auc([0.1, 0.4, 0.4, 0.9], [0, 0, 1, 1]) == pytest.approx(0.875)
