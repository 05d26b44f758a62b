"""Interaction-log ingestion, cleaning and student-level fold splitting.

Raw logs arrive as delimited text with a header row; a small key-value
schema file names the relevant columns so the same loader covers every
dataset layout. Cleaning keeps one attempt per (student, problem), drops
rows with missing fields and tallies every drop by reason.

A ``Dataset`` holds the log as columns: one integer array per field,
one entry per attempt, with skills and problems coded by dense indexes.
This module alone knows the row format; every other layer reads the
columns. It also opens every text file ikt owns: ``_read_lines`` reads
the line-oriented ones and ``_open_output`` creates each output.
"""

from __future__ import annotations

import contextlib
import csv
import os
import re
import stat
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataFormatError",
    "ColumnSchema",
    "Dataset",
    "load_schema",
    "load_csv",
    "preprocess",
    "split_folds",
    "CANONICAL_SCHEMA",
]


_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}")
# a '#' inside a value, as in a column named item#a, is part of it
_COMMENT = re.compile(r"(?:^|\s)#.*")


class DataFormatError(Exception):
    """An input file's content cannot be interpreted: a schema, config or
    manifest line, a log's header or cell, a bundle's file."""


def _parse_keyvalue(path: str, repeatable=()) -> dict[str, str]:
    """Parse a flat ``key = value`` file; a '#' at a line's start or
    after whitespace starts a comment. A key given twice is refused
    unless ``repeatable``, where the last wins."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_lines(path), 1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out and key not in repeatable:
            raise DataFormatError(f"{path}:{lineno}: {key} is given more than once")
        out[key] = value
    return out


def _read_lines(path: str) -> list[str]:
    """The lines of the UTF-8 file ``path``, ended as in text mode by
    ``\\n``, ``\\r\\n`` or ``\\r``; a leading byte-order mark is skipped, and
    a byte that is not UTF-8 raises ``DataFormatError`` naming its offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} is not valid UTF-8") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines  # "" follows the last line end


def _open_output(path: str):
    """``path`` opened to write UTF-8 text with the line ends the writer
    puts there. A regular file there is unlinked first, so a hard link to
    it keeps its bytes and no rewrite waits on ext4 flushing the old data
    (auto_da_alloc); a symlink, device or FIFO, or a file that cannot be
    unlinked, is written through."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    return open(path, "w", encoding="utf-8", newline="")


def _write(path: str, text: str) -> None:
    with _open_output(path) as fh:
        fh.write(text)


def _probability(text: str) -> float:
    """A bundle file's probability field; nan and values outside [0, 1]
    raise ``ValueError``."""
    value = float(text)
    if not 0.0 <= value <= 1.0:  # nan fails too
        raise ValueError(f"{text!r} is not a probability in [0, 1]")
    return value


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
        raise DataFormatError(f"{path}: missing required schema keys: {', '.join(missing)}")
    delim = kv.get("delimiter", ",")
    if delim.lower() in ("tab", "\\t"):
        delim = "\t"
    if len(delim) != 1:  # csv.reader takes one character; '#' starts a comment
        raise DataFormatError(f"{path}: delimiter must be one character or tab, got {delim!r}")
    for given, needed in (("scaffold_column", "scaffold_keep"),
                          ("scaffold_keep", "scaffold_column")):
        if given in kv and needed not in kv:
            raise DataFormatError(f"{path}: {given} is set but {needed} is missing")
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
    the ``order`` key. ``by_student`` maps each student id, in
    first-appearance order, to its slice of rows. Not mutated after
    construction, so safe to share across threads.

    Invariant: rows are grouped by student, and ``order`` is nondecreasing
    within each student. ``load_csv``, ``preprocess`` and ``restricted_to``
    keep it, and ``preprocess`` relies on it: rows equal on (student,
    order) are adjacent.
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

    def restricted_to(self, chosen: np.ndarray) -> "Dataset":
        """Subset to the students ``chosen`` flags, a boolean array in
        ``by_student`` order. The skill and problem indexes keep only what
        those students attempted, in this dataset's order, renumbered
        densely."""
        counts = self.row_counts()
        keep = np.repeat(chosen, counts)
        lengths = {s: n for s, n, c in zip(self.by_student, counts.tolist(), chosen.tolist())
                   if c}
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
    with the index that names the new codes.

    Linear in the rows: the used codes come from a count and each one's
    first row from one ``minimum.at`` pass, so only the used codes, at
    most ``len(index)``, are sorted.
    """
    used = np.flatnonzero(np.bincount(codes, minlength=len(index)))
    if not in_index_order:
        first = np.full(len(index), codes.size, dtype=np.intp)
        np.minimum.at(first, codes, np.arange(codes.size))
        used = used[np.argsort(first[used])]
    remap = np.zeros(len(index), dtype=np.intp)
    remap[used] = np.arange(used.size)
    names = list(index)
    return remap[codes], {names[c]: i for i, c in enumerate(used.tolist())}


def _later_repeats(keys) -> np.ndarray:
    """Mask of the rows equal on every key column to an earlier row."""
    order = np.lexsort(keys)  # stable, so equal rows keep their row order
    same = np.ones(order.size, dtype=bool)
    for key in keys:
        key = key[order]
        same[1:] &= key[1:] == key[:-1]
    same[:1] = False
    repeat = np.empty(order.size, dtype=bool)
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


class _Coder(dict):
    """One column's codes: a raw cell maps to the code of its stripped
    text, numbered by first appearance, or to -1 when it is blank. Each
    distinct raw cell is stripped once; ``names`` maps the stripped text
    to its code."""

    __slots__ = ("names",)

    def __init__(self):
        super().__init__()
        self.names: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        name = raw.strip()
        code = self.names.setdefault(name, len(self.names)) if name else -1
        self[raw] = code
        return code


def _code_rows(rows, width: int, at: list, coders: list, columns: list) -> None:
    """Append each row's cells to ``columns``: its student, skill, problem,
    correctness and scaffold flag cells as codes of their ``coders`` and
    its order cell as read, each from its position in ``at`` (None for a
    column not read). A short row reads as padded with blanks; blank
    lines are skipped and not counted, as csv.DictReader does."""
    i_student, i_skill, i_problem, i_correct, i_flag, i_order = at
    students, skills, problems, corrects, flags = coders
    to_student, to_skill, to_problem, to_correct, to_flag, to_order = (
        c.append for c in columns)
    for row in filter(None, rows):
        if len(row) < width:
            row += [""] * (width - len(row))
        to_student(students[row[i_student]])
        to_skill(skills[row[i_skill]])
        to_problem(problems[row[i_problem]])
        to_correct(corrects[row[i_correct]])
        if i_flag is not None:
            to_flag(flags[row[i_flag]])
        if i_order is not None:
            to_order(row[i_order])


def _kept_rows(columns: list, coders: list, keep_flag, has_order, drops: Counter) -> tuple:
    """The file rows (0 = first data row) that hold every mapped cell and
    pass the scaffold filter, with their student, skill and problem codes
    and 0/1 correctness. The other rows are tallied into ``drops``. Raises
    on the first kept row whose correctness cell is not 0/1.

    ``columns`` and ``coders`` are those of ``_code_rows``, for the rows
    read so far.
    """
    student, skill, problem, correct, flag = (np.asarray(c, dtype=np.intp)
                                              for c in columns[:5])
    blank = [student < 0, skill < 0, problem < 0, correct < 0]
    if has_order:
        blank.append(np.fromiter(map(len, map(str.strip, columns[5])), dtype=np.intp,
                                 count=len(columns[5])) == 0)
    blank = np.array(blank)
    kept = ~blank.any(axis=0)
    # a row is tallied under its first blank cell, in _MISSING order
    first = np.bincount(blank.argmax(axis=0)[~kept], minlength=len(blank)).tolist()
    for reason, count in zip(_MISSING, first):
        if count:
            drops[reason] += count
    if keep_flag is not None:
        # the code -1, a blank flag, takes the last entry
        passes = np.array([name == keep_flag for name in coders[4].names] + [keep_flag == ""])
        scaffold = kept & ~passes[flag]
        if scaffold.any():
            drops["scaffolding"] += int(np.count_nonzero(scaffold))
            kept &= ~scaffold
    rows = np.flatnonzero(kept)
    names = list(coders[3].names)
    values = []
    for name in names:
        try:
            values.append(_parse_correct(name, 0))
        except DataFormatError:
            values.append(-1)
    correct = correct[rows]
    value = np.array(values + [-1], dtype=np.intp)[correct]
    if (value < 0).any():
        at = int(np.argmax(value < 0))
        _parse_correct(names[correct[at]], int(rows[at]) + 2)
    return rows, student[rows], skill[rows], problem[rows], value


def _order_keys(path: str, cells: np.ndarray, file_row: np.ndarray) -> np.ndarray:
    """Sort keys from the kept rows' order cells.

    Order cells hold numbers, or strings ranked lexicographically, which
    is chronological only for ISO timestamps, so each must start
    YYYY-MM-DD.
    """
    try:
        return cells.astype(float)
    except ValueError:
        order = [v.strip() for v in cells.tolist()]
    for v, row in zip(order, file_row.tolist()):
        if not _ISO_DATE.match(v):
            raise DataFormatError(f"{path}: row {row + 2}: order value {v!r} is "
                                  "not a number or a YYYY-MM-DD timestamp, so it "
                                  "cannot be ranked unambiguously")
    rank = {v: float(i) for i, v in enumerate(sorted(set(order)))}
    return np.array([rank[v] for v in order], dtype=float)


def load_csv(path: str, schema: ColumnSchema) -> Dataset:
    """Read a delimited log into a Dataset, tallying dropped rows.

    Rows missing any mapped field, the order included, are dropped
    (never silently: see ``Dataset.drops``), as are rows whose order cell
    is a non-finite number such as ``nan`` or ``inf``. A non-empty correctness
    cell that is not 0/1 raises ``DataFormatError`` because it signals a
    mis-mapped column; so does a byte that is not valid UTF-8, which is
    never replaced, and a line the csv reader cannot split, such as one
    with a cell over its field size limit. A leading byte-order mark is
    skipped. Students keep their order of
    first appearance, and each student's rows are sorted by (order key,
    file row), or by file row when the schema maps no order column.

    The rows are streamed once (``_code_rows``). Each mapped id,
    correctness and scaffold cell is coded through its column's
    ``_Coder``, so a distinct cell is stripped once and the row loop only
    looks codes up; the order cells are kept as read. Drops, the scaffold
    filter and the correctness check then run over the codes, each
    distinct correctness value parsed once, and the order keys of the
    kept rows are parsed in one call. Errors name the same file row as a
    row-by-row check would: blank lines are not counted, and the first
    bad row in the file wins.
    """
    needed = [schema.student, schema.problem, schema.skill, schema.correct]
    needed += [c for c in (schema.order, schema.scaffold_column) if c]
    keep_flag = schema.scaffold_keep if schema.scaffold_column is not None else None
    coders = [_Coder() for _ in range(5)]
    columns = [[] for _ in range(6)]
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh, delimiter=schema.delimiter)
            header = next(reader, needed)  # an empty file is an empty log
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in needed if c not in position]
            if missing:
                raise DataFormatError(f"{path}: mapped column(s) not in header: "
                                      f"{', '.join(missing)}")
            at = [position[c] for c in (schema.student, schema.skill, schema.problem,
                                        schema.correct)]
            at.append(position[schema.scaffold_column] if keep_flag is not None else None)
            at.append(position[schema.order] if schema.order else None)
            _code_rows(reader, len(header), at, coders, columns)
    except (UnicodeDecodeError, csv.Error) as exc:
        # a bad correctness cell read before the failure is reported first
        _kept_rows(columns, coders, keep_flag, schema.order, Counter())
        if isinstance(exc, UnicodeDecodeError):
            # a text-mode read reports offsets within its buffer; this raises
            # naming the byte's offset in the file
            _read_lines(path)
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None

    # each list is freed once converted, and the order cells before the sort
    for i, cells in enumerate(columns):
        columns[i] = np.array(cells, dtype=object if i == 5 else np.intp)
    drops: Counter = Counter()
    file_row, student, skill, problem, correct = _kept_rows(
        columns, coders, keep_flag, schema.order, drops)
    keys = (_order_keys(path, columns[5][file_row], file_row) if schema.order
            else file_row.astype(float))
    del columns
    finite = np.isfinite(keys)
    if not finite.all():
        # nan or inf cannot be ranked in time, so such a row is dropped as a
        # blank order cell is, and its student counts only if other rows stay
        drops["non-finite order"] += int(np.count_nonzero(~finite))
        student, skill, problem, correct, file_row, keys = (
            x[finite] for x in (student, skill, problem, correct, file_row, keys))
    student, student_index = _recode(student, coders[0].names)
    rows = np.lexsort((file_row, keys, student))
    skill, skill_index = _recode(skill[rows], coders[1].names)
    problem, problem_index = _recode(problem[rows], coders[2].names)
    lengths = np.bincount(student, minlength=len(student_index)).tolist()
    return Dataset(skill, problem, correct[rows], keys[rows],
                   _slices(dict(zip(student_index, lengths))), skill_index, problem_index,
                   drops)


def preprocess(raw: Dataset) -> Dataset:
    """Keep only each student's first attempt per problem.

    Exact duplicate rows collapse first (tallied separately), then any
    later attempt on an already-seen problem is dropped. Row order
    within a student is preserved; dense indexes are rebuilt by first
    appearance over the kept rows.

    No pass sorts every row: equal rows share (student, order), so with
    the ``Dataset`` row layout they sit in one run of adjacent ties, and
    only the rows of such runs are compared; repeats are found with one
    stable sort of a single (student, problem) key.
    """
    student = raw.row_student()
    # the identity leaves out the file-position tie-breaker so that
    # byte-identical source rows collapse; a dropped repeat keeps its
    # identity, so its copies count as duplicates
    tie = np.zeros(raw.n_records + 1, dtype=bool)  # row i has row i-1's student and order
    tie[1:-1] = (student[1:] == student[:-1]) & (raw.order[1:] == raw.order[:-1])
    in_run = np.flatnonzero(tie[:-1] | tie[1:])
    duplicate = np.zeros(raw.n_records, dtype=bool)
    duplicate[in_run] = _later_repeats(tuple(x[in_run] for x in (
        raw.order, raw.correct, raw.skill, raw.problem, student)))
    kept = ~duplicate
    student = student[kept]
    repeat = _later_repeats((student * raw.n_problems + raw.problem[kept],))
    kept[kept] = ~repeat
    drops = Counter(raw.drops)
    for reason, mask in (("duplicate row", duplicate), ("repeat attempt", repeat)):
        if mask.any():
            drops[reason] += int(mask.sum())
    # a student's first row is never dropped, so every student stays
    lengths = np.bincount(student[~repeat], minlength=len(raw.by_student)).tolist()
    skill, skill_index = _recode(raw.skill[kept], raw.skill_index)
    problem, problem_index = _recode(raw.problem[kept], raw.problem_index)
    return Dataset(skill, problem, raw.correct[kept], raw.order[kept],
                   _slices(dict(zip(raw.by_student, lengths))), skill_index,
                   problem_index, drops)


def split_folds(data: Dataset, k: int = 5, seed: int = 0) -> np.ndarray:
    """Each student's test fold, 0 to k - 1, in ``by_student`` order.

    The sorted student ids are shuffled with a seeded generator and dealt
    round-robin, so the k test groups are disjoint, cover every student
    and differ in size by at most one.
    """
    students = list(data.by_student)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(students) < k:
        raise ValueError(f"need at least {k} students for {k} folds, have {len(students)}")
    rng = np.random.default_rng(seed)
    ranked = np.array(sorted(range(len(students)), key=students.__getitem__), dtype=np.intp)
    held_out = np.empty(len(students), dtype=np.intp)
    held_out[ranked[rng.permutation(len(students))]] = np.arange(len(students)) % k
    return held_out


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
    with _open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "problem_id", "skill_id", "correct", "order"])
        writer.writerows(zip(
            [students[s] for s in data.row_student().tolist()],
            [problems[c] for c in data.problem.tolist()],
            [skills[c] for c in data.skill.tolist()],
            data.correct.tolist(), range(data.n_records)))
