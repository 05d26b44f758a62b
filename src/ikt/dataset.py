"""Interaction-log ingestion, cleaning and student-level fold splitting.

Raw logs arrive as delimited text with a header row; a small key-value
schema file names the relevant columns so the same loader covers every
dataset layout. Cleaning keeps one attempt per (student, problem), drops
rows with missing fields and tallies every drop by reason.

A ``Dataset`` holds the log as columns: one integer array per field,
one entry per attempt, with skills and problems coded by dense indexes.
This module alone knows the row format; every other layer reads the
columns.
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


@dataclass
class Dataset:
    """Cleaned interaction log, one array entry per attempt: ``skill`` and
    ``problem`` codes into the dense indexes, the 0/1 ``correct`` and
    the ``order`` key. Rows are grouped by student, chronological within
    each; ``by_student`` maps each student id, in first-appearance
    order, to its slice of rows. Not mutated after construction, so safe
    to share across threads.
    """

    skill: np.ndarray
    problem: np.ndarray
    correct: np.ndarray
    order: np.ndarray
    by_student: dict[str, slice]
    skill_index: dict[str, int]
    problem_index: dict[str, int]
    drops: Counter = field(default_factory=Counter)

    @property
    def n_records(self) -> int:
        return self.skill.size

    @property
    def n_skills(self) -> int:
        return len(self.skill_index)

    @property
    def n_problems(self) -> int:
        return len(self.problem_index)

    def row_counts(self) -> np.ndarray:
        """Each student's number of rows, in ``by_student`` order."""
        return np.array([rows.stop - rows.start for rows in self.by_student.values()],
                        dtype=np.intp)

    def row_student(self) -> np.ndarray:
        """Each row's student, as its position in ``by_student``."""
        return np.repeat(np.arange(len(self.by_student)), self.row_counts())

    def row_position(self) -> np.ndarray:
        """Each row's attempt index within its student."""
        counts = self.row_counts()
        return np.arange(self.n_records) - np.repeat(np.cumsum(counts) - counts, counts)

    def restricted_to(self, students) -> "Dataset":
        """Subset to the given students. The skill and problem indexes keep
        only what those students attempted, in this dataset's order,
        renumbered densely."""
        members = set(students)
        counts = dict(zip(self.by_student, self.row_counts().tolist()))
        lengths = {s: n for s, n in counts.items() if s in members}
        chosen = np.array([s in members for s in counts], dtype=bool)
        keep = np.repeat(chosen, list(counts.values()))
        skill, skill_index = _recode(self.skill[keep], self.skill_index, in_index_order=True)
        problem, problem_index = _recode(self.problem[keep], self.problem_index,
                                         in_index_order=True)
        return Dataset(skill, problem, self.correct[keep], self.order[keep],
                       _slices(lengths), skill_index, problem_index, Counter(self.drops))


def _slices(lengths: dict) -> dict[str, slice]:
    """Consecutive row slices of the given lengths, in the same keys."""
    stops = np.cumsum(list(lengths.values()), dtype=int).tolist()
    return {s: slice(stop - n, stop) for (s, n), stop in zip(lengths.items(), stops)}


def _recode(codes: np.ndarray, index: dict, in_index_order: bool = False):
    """``codes`` renumbered 0, 1, ... over the codes they hold, in order of
    first appearance or, with ``in_index_order``, of ``index``; returned
    with the index that names the new codes."""
    used, first = np.unique(codes, return_index=True)
    if not in_index_order:
        used = used[np.argsort(first)]
    remap = np.zeros(len(index), dtype=np.intp)
    remap[used] = np.arange(used.size)
    names = list(index)
    return remap[codes], {names[c]: i for i, c in enumerate(used.tolist())}


def _later_repeats(keys) -> np.ndarray:
    """Mask of the rows equal on every key column to an earlier row."""
    n = keys[0].size
    order = np.lexsort((np.arange(n),) + tuple(keys))
    same = np.ones(n, dtype=bool)
    for key in keys:
        key = key[order]
        same[1:] &= key[1:] == key[:-1]
    same[:1] = False
    repeat = np.empty(n, dtype=bool)
    repeat[order] = same
    return repeat


def _parse_correct(value: str, row: int) -> int:
    try:
        num = float(value)
    except ValueError:
        raise DataFormatError(f"row {row}: correctness value {value!r} is not numeric") from None
    if num not in (0.0, 1.0):
        raise DataFormatError(f"row {row}: correctness value {value!r} is not binary")
    return int(num)


_MISSING = ("missing student", "missing skill", "missing problem", "missing correctness",
            "missing order")


def load_csv(path: str, schema: ColumnSchema) -> Dataset:
    """Read a delimited log into a Dataset, tallying dropped rows.

    Rows missing any mapped field, the order included, are dropped
    (never silently: see ``Dataset.drops``), as are rows whose order cell
    is a non-finite number such as ``nan`` or ``inf``. A non-empty correctness
    cell that is not 0/1 raises ``DataFormatError`` because it signals a
    mis-mapped column; so does a byte that is not valid UTF-8, which is
    never replaced. Students keep their order of first appearance, and
    each student's rows are sorted by (order key, file row), or by file
    row when the schema maps no order column.
    """
    needed = [schema.student, schema.problem, schema.skill, schema.correct]
    needed += [c for c in (schema.order, schema.scaffold_column) if c]
    students: dict[str, int] = {}
    skills: dict[str, int] = {}
    problems: dict[str, int] = {}
    student, skill, problem, correct, order, file_row = [], [], [], [], [], []
    drops: Counter = Counter()
    keep_flag = schema.scaffold_keep if schema.scaffold_column is not None else None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=schema.delimiter)
            header = next(reader, needed)  # an empty file is an empty log
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in needed if c not in position]
            if missing:
                raise SchemaError(f"{path}: mapped column(s) not in header: "
                                  f"{', '.join(missing)}")
            # in _MISSING order, the order column only when mapped
            at = [position[c] for c in (schema.student, schema.skill, schema.problem,
                                        schema.correct)]
            at += [position[schema.order]] if schema.order else []
            flag_at = position.get(schema.scaffold_column)
            # blank lines are skipped and not counted, as csv.DictReader does
            for row_idx, row in enumerate(filter(None, reader)):
                row += [""] * (len(header) - len(row))
                cells = [row[i].strip() for i in at]
                if not all(cells):
                    drops[_MISSING[cells.index("")]] += 1
                    continue
                if keep_flag is not None and keep_flag != (
                        row[flag_at].strip() if flag_at is not None else ""):
                    drops["scaffolding"] += 1
                    continue
                correct.append(_parse_correct(cells[3], row_idx + 2))
                student.append(students.setdefault(cells[0], len(students)))
                skill.append(skills.setdefault(cells[1], len(skills)))
                problem.append(problems.setdefault(cells[2], len(problems)))
                if schema.order:
                    order.append(cells[4])
                file_row.append(row_idx)
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: byte {_undecodable_offset(path)} is not "
                              "valid UTF-8") from None

    # order cells hold numbers, or strings ranked lexicographically, which
    # is chronological only for ISO timestamps, so each must start YYYY-MM-DD
    try:
        keys = np.array([float(v) for v in order] if schema.order else file_row, dtype=float)
    except ValueError:
        for v, row in zip(order, file_row):
            if not _ISO_DATE.match(v):
                raise DataFormatError(f"{path}: row {row + 2}: order value {v!r} is "
                                      "not a number or a YYYY-MM-DD timestamp, so it "
                                      "cannot be ranked unambiguously") from None
        rank = {v: float(i) for i, v in enumerate(sorted(set(order)))}
        keys = np.array([rank[v] for v in order], dtype=float)
    student, skill, problem, correct, file_row = (
        np.array(x, dtype=np.intp) for x in (student, skill, problem, correct, file_row))
    finite = np.isfinite(keys)
    if not finite.all():
        # nan or inf cannot be ranked in time, so such a row is dropped as a
        # blank order cell is, and its student counts only if other rows stay
        drops["non-finite order"] += int(np.count_nonzero(~finite))
        student, skill, problem, correct, file_row, keys = (
            x[finite] for x in (student, skill, problem, correct, file_row, keys))
        student, students = _recode(student, students)
    rows = np.lexsort((file_row, keys, student))
    skill, skill_index = _recode(skill[rows], skills)
    problem, problem_index = _recode(problem[rows], problems)
    lengths = np.bincount(student, minlength=len(students)).tolist()
    return Dataset(skill, problem, correct[rows], keys[rows],
                   _slices(dict(zip(students, lengths))), skill_index, problem_index, drops)


def preprocess(raw: Dataset) -> Dataset:
    """Keep only each student's first attempt per problem.

    Exact duplicate rows collapse first (tallied separately), then any
    later attempt on an already-seen problem is dropped. Row order
    within a student is preserved; dense indexes are rebuilt by first
    appearance over the kept rows.
    """
    student = raw.row_student()
    # the identity leaves out the file-position tie-breaker so that
    # byte-identical source rows collapse; a dropped repeat keeps its
    # identity, so its copies count as duplicates
    duplicate = _later_repeats((raw.order, raw.correct, raw.skill, raw.problem, student))
    kept = ~duplicate
    repeat = _later_repeats((raw.problem[kept], student[kept]))
    kept[kept] = ~repeat
    drops = Counter(raw.drops)
    for reason, mask in (("duplicate row", duplicate), ("repeat attempt", repeat)):
        if mask.any():
            drops[reason] += int(mask.sum())
    # a student's first row is never dropped, so every student stays
    lengths = np.bincount(student[kept], minlength=len(raw.by_student)).tolist()
    skill, skill_index = _recode(raw.skill[kept], raw.skill_index)
    problem, problem_index = _recode(raw.problem[kept], raw.problem_index)
    return Dataset(skill, problem, raw.correct[kept], raw.order[kept],
                   _slices(dict(zip(raw.by_student, lengths))), skill_index,
                   problem_index, drops)


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
    students, skills, problems = (list(index) for index in (
        data.by_student, data.skill_index, data.problem_index))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "problem_id", "skill_id", "correct", "order"])
        writer.writerows(zip(
            [students[s] for s in data.row_student().tolist()],
            [problems[c] for c in data.problem.tolist()],
            [skills[c] for c in data.skill.tolist()],
            data.correct.tolist(), range(data.n_records)))
