"""Two-state skill-mastery model and brute-force parameter fitting.

Each skill is modelled independently: a hidden learned/unlearned state
with a one-way learning transition, plus guess and slip noise on the
binary responses. Fitting maximizes response log-likelihood over a full
parameter grid; guess and slip are capped to avoid the well-known
degenerate optima. The grid's forward passes run together, one array
entry per (parameter combination, response pattern); each carries the
three live entries of its upper-triangular running product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BktParams",
    "FitGrid",
    "NoSkillDataError",
    "fit_skill",
    "fit_all_skills",
    "mean_params",
    "save_params_table",
    "load_params_table",
]


class NoSkillDataError(Exception):
    """No non-empty response sequence was supplied for a skill."""


@dataclass(frozen=True)
class BktParams:
    """Per-skill probabilities: initial mastery, learning, guess, slip."""

    l0: float
    t: float
    g: float
    s: float


@dataclass(frozen=True)
class FitGrid:
    """Search grid: every parameter in {step, 2*step, ...} up to its cap."""

    step: float = 0.05
    guess_cap: float = 0.30
    slip_cap: float = 0.30

    def _values(self, cap: float) -> np.ndarray:
        n = int(round(cap / self.step))
        return np.round(np.arange(1, n + 1) * self.step, 10)

    @property
    def l0_values(self) -> np.ndarray:
        return self._values(1.0 - self.step)

    @property
    def t_values(self) -> np.ndarray:
        return self._values(1.0 - self.step)

    @property
    def g_values(self) -> np.ndarray:
        return self._values(self.guess_cap)

    @property
    def s_values(self) -> np.ndarray:
        return self._values(self.slip_cap)


def _dedup_sequences(sequences) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Canonicalize to sorted unique response patterns with multiplicities.

    Sorting makes the fit exactly invariant to input order; grouping
    identical patterns avoids recomputing their likelihood.
    """
    counts: dict[tuple[int, ...], int] = {}
    for seq in sequences:
        pat = tuple(int(r) for r in seq)
        if not pat:
            continue
        counts[pat] = counts.get(pat, 0) + 1
    patterns = sorted(counts)
    return patterns, np.array([counts[p] for p in patterns], dtype=float)


def grid_log_likelihoods(sequences, grid: FitGrid) -> np.ndarray:
    """Total log-likelihood at every grid point.

    Returns an array of shape (|l0|, |t|, |g|, |s|). Per (t, g, s)
    combination the forward pass multiplies 2x2 step matrices: E(r) =
    diag(P(r|learned), P(r|unlearned)) for the first response and
    M(r) = E(r) @ A for each later one, with transition A = [[1, t],
    [0, 1-t]] (columns = source state). All are upper triangular, so the
    running product [[a, b], [0, c]] is carried as three arrays and a
    step [[ma, mb], [0, mc]] updates them elementwise: a' = ma*a,
    b' = ma*b + mb*c, c' = mc*c, rescaled to unit sum with the log scale
    kept. The final likelihood is linear in the initial state
    distribution, so the whole l0 axis costs a single extra broadcast.
    """
    patterns, weights = _dedup_sequences(sequences)
    if not patterns:
        raise NoSkillDataError("no non-empty response sequences")

    l0 = grid.l0_values
    tv, gv, sv = np.meshgrid(grid.t_values, grid.g_values, grid.s_values, indexing="ij")
    t = tv.ravel()[:, None]
    g = gv.ravel()[:, None]
    s = sv.ravel()[:, None]
    n_combo = t.size
    # (ma, mb, mc) of E(r) and of M(r), for a correct and for a wrong response
    e_steps = ((1.0 - s, np.zeros_like(s), g), (s, np.zeros_like(s), 1.0 - g))
    m_steps = ((1.0 - s, (1.0 - s) * t, g * (1.0 - t)),
               (s, s * t, (1.0 - g) * (1.0 - t)))

    total = np.zeros((l0.size, n_combo))
    chunk = 256
    for start in range(0, len(patterns), chunk):
        pats = patterns[start:start + chunk]
        w = weights[start:start + chunk]
        n = len(pats)
        max_len = max(len(p) for p in pats)
        resp = np.zeros((n, max_len), dtype=bool)
        valid = np.zeros((n, max_len), dtype=bool)
        for i, p in enumerate(pats):
            resp[i, :len(p)] = p
            valid[i, :len(p)] = True

        a, b, c = np.ones((n_combo, n)), np.zeros((n_combo, n)), np.ones((n_combo, n))
        logscale = np.zeros((n_combo, n))
        for pos_t in range(max_len):
            correct, wrong = m_steps if pos_t else e_steps
            ma, mb, mc = (np.where(resp[:, pos_t], x, y) for x, y in zip(correct, wrong))
            v = valid[:, pos_t]
            padded = not v.all()
            if padded:  # finished patterns take the identity step
                ma, mb, mc = np.where(v, ma, 1.0), np.where(v, mb, 0.0), np.where(v, mc, 1.0)
            b *= ma
            b += mb * c
            a *= ma
            c *= mc
            z = a + b + c
            if padded:
                z = np.where(v, z, 1.0)
            a /= z
            b /= z
            c /= z
            logscale += np.log(z)

        lw = l0[:, None, None]
        ll = np.log(a[None] * lw + (b + c)[None] * (1.0 - lw))
        total += ((ll + logscale[None]) * w).sum(axis=-1)

    return total.reshape(l0.size, grid.t_values.size,
                         grid.g_values.size, grid.s_values.size)


def fit_skill(sequences, grid: FitGrid | None = None) -> BktParams:
    """Best grid point by total log-likelihood over all sequences.

    Ties resolve to the lexicographically smallest (l0, t, g, s), which
    also makes the result deterministic and independent of input order.
    """
    grid = grid or FitGrid()
    total = grid_log_likelihoods(sequences, grid)
    flat = int(np.argmax(total))
    i, j, k, m = np.unravel_index(flat, total.shape)
    return BktParams(
        float(grid.l0_values[i]),
        float(grid.t_values[j]),
        float(grid.g_values[k]),
        float(grid.s_values[m]),
    )


def fit_all_skills(sequences_by_skill: dict, grid: FitGrid | None = None) -> dict:
    """Fit every skill that has data; skills without data are omitted."""
    grid = grid or FitGrid()
    fitted = {}
    for skill, seqs in sequences_by_skill.items():
        try:
            fitted[skill] = fit_skill(seqs, grid)
        except NoSkillDataError:
            continue
    return fitted


def mean_params(params_list) -> BktParams:
    """Coordinate-wise unweighted mean; the fallback for unseen skills."""
    params_list = list(params_list)
    if not params_list:
        return BktParams(0.5, 0.1, 0.2, 0.1)
    arr = np.array([[p.l0, p.t, p.g, p.s] for p in params_list])
    m = arr.mean(axis=0)
    return BktParams(float(m[0]), float(m[1]), float(m[2]), float(m[3]))


def save_params_table(params_by_skill: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("skill_id\tl0\tt\tg\ts\n")
        for skill in params_by_skill:
            p = params_by_skill[skill]
            fh.write(f"{skill}\t{p.l0:.6f}\t{p.t:.6f}\t{p.g:.6f}\t{p.s:.6f}\n")


def load_params_table(path: str) -> dict:
    """Skill id -> parameters in file row order; a malformed row raises
    ``ValueError`` naming ``path:lineno``."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("skill_id"):
            raise ValueError(f"{path}:1: not a skill parameter table")
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                skill, l0, t, g, s = line.rstrip("\n").split("\t")
                params = BktParams(float(l0), float(t), float(g), float(s))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if skill in out:
                raise ValueError(f"{path}:{lineno}: skill {skill!r} listed twice")
            out[skill] = params
    return out
