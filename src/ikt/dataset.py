"""Interaction-log ingestion, cleaning and student-level fold splitting.

Raw logs arrive as delimited text with a header row; a small key-value
schema file names the relevant columns so the same loader covers every
dataset layout. Cleaning keeps one attempt per (student, problem), drops
rows with missing fields and tallies every drop by reason.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SchemaError",
    "DataFormatError",
    "ColumnSchema",
    "InteractionRecord",
    "Dataset",
    "FoldSplit",
    "load_schema",
    "load_csv",
    "preprocess",
    "split_folds",
    "CANONICAL_SCHEMA",
]


_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}")


class SchemaError(Exception):
    """Schema file is unusable or names a column the file does not have."""


class DataFormatError(Exception):
    """A cell value cannot be interpreted (e.g. non-binary correctness)."""


def _parse_keyvalue(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SchemaError(f"{path}:{lineno}: expected 'key = value', "
                                      f"got {raw.strip()!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: byte {_undecodable_offset(path)} is not valid UTF-8") from None
    return out


def _undecodable_offset(path: str) -> int:
    """File offset of the first byte that is not valid UTF-8.

    Text-mode reads report offsets within the decoder's current buffer,
    so the file is decoded again as a whole; this runs only on failure.
    """
    with open(path, "rb") as fh:
        try:
            fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            return exc.start
    raise AssertionError(f"{path} decodes as UTF-8")


@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for one dataset layout.

    ``order`` is optional; when absent, file row order is the sort key.
    ``scaffold_column``/``scaffold_keep`` optionally restrict rows to
    original problems (rows whose flag differs are dropped and tallied).
    """

    student: str
    problem: str
    skill: str
    correct: str
    order: str | None = None
    delimiter: str = ","
    scaffold_column: str | None = None
    scaffold_keep: str | None = None


# Layout written by `ikt preprocess`; lets downstream commands reload
# cleaned data without a schema file.
CANONICAL_SCHEMA = ColumnSchema(
    student="student_id", problem="problem_id", skill="skill_id",
    correct="correct", order="order",
)


def load_schema(path: str) -> ColumnSchema:
    kv = _parse_keyvalue(path)
    missing = [k for k in ("student", "problem", "skill", "correct") if k not in kv]
    if missing:
        raise SchemaError(f"{path}: missing required schema keys: {', '.join(missing)}")
    delim = kv.get("delimiter", ",")
    if delim.lower() in ("tab", "\\t"):
        delim = "\t"
    return ColumnSchema(
        student=kv["student"],
        problem=kv["problem"],
        skill=kv["skill"],
        correct=kv["correct"],
        order=kv.get("order"),
        delimiter=delim,
        scaffold_column=kv.get("scaffold_column"),
        scaffold_keep=kv.get("scaffold_keep"),
    )


@dataclass(frozen=True)
class InteractionRecord:
    """One graded attempt. ``order_key`` is (timestamp-or-row, row) so the
    ordering within a student is strict even when timestamps tie."""

    student_id: str
    problem_id: str
    skill_id: str
    correct: int
    order_key: tuple[float, int]


@dataclass
class Dataset:
    """Cleaned interaction log plus dense id indexes.

    ``by_student`` preserves first-appearance order of students and keeps
    each student's records sorted by ``order_key``. The structure is not
    mutated after construction and is safe to share across threads.
    """

    by_student: dict[str, list[InteractionRecord]]
    skill_index: dict[str, int]
    problem_index: dict[str, int]
    drops: Counter = field(default_factory=Counter)

    @property
    def n_records(self) -> int:
        return sum(len(r) for r in self.by_student.values())

    @property
    def n_skills(self) -> int:
        return len(self.skill_index)

    @property
    def n_problems(self) -> int:
        return len(self.problem_index)

    def iter_records(self):
        for recs in self.by_student.values():
            yield from recs

    def restricted_to(self, students) -> "Dataset":
        """Subset to the given students. The skill and problem indexes keep
        only what those students attempted, in this dataset's order,
        renumbered densely."""
        members = set(students)
        by_student = {s: r for s, r in self.by_student.items() if s in members}
        records = [r for recs in by_student.values() for r in recs]
        skills = {r.skill_id for r in records}
        problems = {r.problem_id for r in records}
        return Dataset(
            by_student=by_student,
            skill_index=_dense(s for s in self.skill_index if s in skills),
            problem_index=_dense(p for p in self.problem_index if p in problems),
            drops=Counter(self.drops),
        )


def _dense(ids) -> dict[str, int]:
    return {x: i for i, x in enumerate(ids)}


def _build_dataset(by_student: dict[str, list[InteractionRecord]], drops: Counter) -> Dataset:
    skill_index: dict[str, int] = {}
    problem_index: dict[str, int] = {}
    for recs in by_student.values():
        for rec in recs:
            if rec.skill_id not in skill_index:
                skill_index[rec.skill_id] = len(skill_index)
            if rec.problem_id not in problem_index:
                problem_index[rec.problem_id] = len(problem_index)
    return Dataset(by_student=by_student, skill_index=skill_index,
                   problem_index=problem_index, drops=drops)


def _parse_correct(value: str, row: int) -> int:
    try:
        num = float(value)
    except ValueError:
        raise DataFormatError(f"row {row}: correctness value {value!r} is not numeric") from None
    if num not in (0.0, 1.0):
        raise DataFormatError(f"row {row}: correctness value {value!r} is not binary")
    return int(num)


def load_csv(path: str, schema: ColumnSchema) -> Dataset:
    """Read a delimited log into a Dataset, tallying dropped rows.

    Rows missing any mapped field are dropped (never silently: see
    ``Dataset.drops``). A non-empty correctness cell that is not 0/1
    raises ``DataFormatError`` because it signals a mis-mapped column;
    so does a byte that is not valid UTF-8, which is never replaced.
    """
    rows: list[tuple[str, str, str, int, str, int]] = []
    drops: Counter = Counter()
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, delimiter=schema.delimiter)
            if reader.fieldnames is None:
                return _build_dataset({}, drops)
            header = set(reader.fieldnames)
            needed = [schema.student, schema.problem, schema.skill, schema.correct]
            if schema.order:
                needed.append(schema.order)
            if schema.scaffold_column:
                needed.append(schema.scaffold_column)
            missing = [c for c in needed if c not in header]
            if missing:
                raise SchemaError(f"{path}: mapped column(s) not in header: {', '.join(missing)}")

            for row_idx, row in enumerate(reader):
                student = (row.get(schema.student) or "").strip()
                problem = (row.get(schema.problem) or "").strip()
                skill = (row.get(schema.skill) or "").strip()
                correct_raw = (row.get(schema.correct) or "").strip()
                if not student:
                    drops["missing student"] += 1
                    continue
                if not skill:
                    drops["missing skill"] += 1
                    continue
                if not problem:
                    drops["missing problem"] += 1
                    continue
                if not correct_raw:
                    drops["missing correctness"] += 1
                    continue
                if schema.scaffold_column is not None:
                    flag = (row.get(schema.scaffold_column) or "").strip()
                    if schema.scaffold_keep is not None and flag != schema.scaffold_keep:
                        drops["scaffolding"] += 1
                        continue
                correct = _parse_correct(correct_raw, row_idx + 2)
                order_raw = (row.get(schema.order) or "").strip() if schema.order else ""
                rows.append((student, problem, skill, correct, order_raw, row_idx))
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: byte {_undecodable_offset(path)} is not "
                              "valid UTF-8") from None

    # The order column may hold numbers or timestamp strings; strings are
    # ranked lexicographically, which is chronological only for ISO
    # timestamps, so every string must start YYYY-MM-DD. Empty or absent
    # order values fall back to file row position.
    order_vals = [r[4] for r in rows]
    numeric = True
    for v in order_vals:
        if v:
            try:
                float(v)
            except ValueError:
                numeric = False
                break
    if numeric:
        keys = [float(v) if v else float(idx) for v, idx in zip(order_vals, (r[5] for r in rows))]
    else:
        for v, row in zip(order_vals, rows):
            if v and not _ISO_DATE.match(v):
                raise DataFormatError(f"{path}: row {row[5] + 2}: order value {v!r} is "
                                      "not a number or a YYYY-MM-DD timestamp, so it "
                                      "cannot be ranked unambiguously")
        rank = {v: float(i) for i, v in enumerate(sorted(set(filter(None, order_vals))))}
        keys = [rank[v] if v else float(idx) for v, idx in zip(order_vals, (r[5] for r in rows))]

    by_student: dict[str, list[InteractionRecord]] = {}
    for (student, problem, skill, correct, _, row_idx), key in zip(rows, keys):
        rec = InteractionRecord(student, problem, skill, correct, (key, row_idx))
        by_student.setdefault(student, []).append(rec)
    for recs in by_student.values():
        recs.sort(key=lambda r: r.order_key)
    return _build_dataset(by_student, drops)


def preprocess(raw: Dataset) -> Dataset:
    """Keep only each student's first attempt per problem.

    Exact duplicate rows collapse first (tallied separately), then any
    later attempt on an already-seen problem is dropped. Record order
    within a student is preserved; dense indexes are rebuilt.
    """
    drops = Counter(raw.drops)
    by_student: dict[str, list[InteractionRecord]] = {}
    for student, recs in raw.by_student.items():
        seen_rows: set[tuple] = set()
        seen_problems: set[str] = set()
        kept: list[InteractionRecord] = []
        for rec in recs:
            # identity excludes the file-position tie-breaker so that
            # byte-identical source rows collapse
            ident = (rec.problem_id, rec.skill_id, rec.correct, rec.order_key[0])
            if ident in seen_rows:
                drops["duplicate row"] += 1
                continue
            seen_rows.add(ident)
            if rec.problem_id in seen_problems:
                drops["repeat attempt"] += 1
                continue
            seen_problems.add(rec.problem_id)
            kept.append(rec)
        if kept:
            by_student[student] = kept
    return _build_dataset(by_student, drops)


@dataclass(frozen=True)
class FoldSplit:
    fold_id: int
    train_students: frozenset[str]
    test_students: frozenset[str]


def split_folds(data: Dataset, k: int = 5, seed: int = 0) -> list[FoldSplit]:
    """Partition students into k disjoint test groups, deterministically.

    Student ids are shuffled with a seeded generator and dealt
    round-robin, so fold test sizes differ by at most one.
    """
    students = sorted(data.by_student)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(students) < k:
        raise ValueError(f"need at least {k} students for {k} folds, have {len(students)}")
    rng = np.random.default_rng(seed)
    shuffled = [students[i] for i in rng.permutation(len(students))]
    folds = []
    all_students = set(students)
    for fold_id in range(k):
        test = frozenset(shuffled[fold_id::k])
        folds.append(FoldSplit(fold_id, frozenset(all_students - test), test))
    return folds


def render_drop_report(drops: Counter, n_records: int, n_students: int,
                       n_skills: int, n_problems: int) -> tuple[str, str]:
    """Human-readable report plus machine-readable key-value lines."""
    lines = ["preprocessing report", "--------------------"]
    lines.append(f"records kept:   {n_records}")
    lines.append(f"students:       {n_students}")
    lines.append(f"skills:         {n_skills}")
    lines.append(f"problems:       {n_problems}")
    total_dropped = sum(drops.values())
    lines.append(f"rows dropped:   {total_dropped}")
    for reason in sorted(drops):
        lines.append(f"  {drops[reason]} dropped: {reason}")
    kv = [
        f"records_kept = {n_records}",
        f"students = {n_students}",
        f"skills = {n_skills}",
        f"problems = {n_problems}",
        f"rows_dropped = {total_dropped}",
    ]
    for reason in sorted(drops):
        kv.append(f"dropped.{reason.replace(' ', '_')} = {drops[reason]}")
    return "\n".join(lines) + "\n", "\n".join(kv) + "\n"


def save_canonical(data: Dataset, path: str) -> None:
    """Write a cleaned dataset in the canonical comma-separated layout."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "problem_id", "skill_id", "correct", "order"])
        order = 0
        for recs in data.by_student.values():
            for rec in recs:
                writer.writerow([rec.student_id, rec.problem_id, rec.skill_id,
                                 rec.correct, order])
                order += 1
