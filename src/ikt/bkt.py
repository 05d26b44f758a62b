"""Two-state skill-mastery model and brute-force parameter fitting.

Each skill is modelled independently: a hidden learned/unlearned state
with a one-way learning transition, plus guess and slip noise on the
binary responses. Fitting maximizes response log-likelihood over a full
parameter grid; guess and slip are capped to avoid the well-known
degenerate optima. The grid's forward passes run together, one array
entry per (parameter combination, response pattern); each carries the
three live entries of its upper-triangular running product, advanced a
segment of steps at a time by a product built directly, its off-diagonal
entry by one matrix product over the steps at which learning can happen.
Every fit is weighted: one pass serves several fits at once, one weight
column each (every cross-validation fold, say, or a single column in
which every sequence weighs 1), since a pattern's likelihood does not
depend on who else is fitted with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BktParams",
    "FitGrid",
    "fit_skill",
    "fit_all_skills",
    "mean_params",
]


@dataclass(frozen=True)
class BktParams:
    """Per-skill probabilities: initial mastery, learning, guess, slip."""

    l0: float
    t: float
    g: float
    s: float


@dataclass(frozen=True)
class FitGrid:
    """Search grid: every parameter in {step, 2*step, ...} up to the
    multiple of step nearest its cap, which may lie above the cap.

    Each axis is built once per instance and kept as a read-only array.
    """

    step: float = 0.05
    guess_cap: float = 0.30
    slip_cap: float = 0.30

    def _values(self, cap: float) -> np.ndarray:
        n = int(round(cap / self.step))
        values = np.round(np.arange(1, n + 1) * self.step, 10)
        values.setflags(write=False)
        return values

    @cached_property
    def l0_values(self) -> np.ndarray:
        return self._values(1.0 - self.step)

    @cached_property
    def t_values(self) -> np.ndarray:
        return self._values(1.0 - self.step)

    @cached_property
    def g_values(self) -> np.ndarray:
        return self._values(self.guess_cap)

    @cached_property
    def s_values(self) -> np.ndarray:
        return self._values(self.slip_cap)


def _dedup_sequences(sequences, weights=None) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Canonicalize to sorted unique response patterns, each with its row
    of ``weights`` (one row per sequence, one column per fit; by default a
    single column of 1s) summed over the sequences that show it.

    Sorting makes the fit exactly invariant to input order; grouping
    identical patterns avoids recomputing their likelihood.
    """
    keys = [tuple(map(int, seq)) for seq in sequences]
    patterns = sorted(set(keys) - {()})
    rank = {p: i for i, p in enumerate(patterns)}
    at = np.array([rank.get(k, len(patterns)) for k in keys], dtype=np.intp)  # () last
    weights = np.ones((len(keys), 1)) if weights is None else np.asarray(weights, dtype=float)
    summed = [np.bincount(at, column, minlength=len(patterns) + 1)[:-1] for column in weights.T]
    return patterns, np.stack(summed, axis=1)


def _segment_len(*values: np.ndarray) -> int:
    """Steps per segment of the grid forward pass: the largest K with
    ``f_min**(2K) >= DBL_MIN / eps``.

    Every entry of a segment's product is a sum of terms, each a product
    of at most 2K grid factors. ``A`` multiplies K learned emissions. ``C``
    multiplies K unlearned emissions and K factors (1 - t). A term of
    ``B`` in which learning happens at segment step j (1-based) multiplies
    t, j - 1 factors (1 - t), j - 1 unlearned and K - j + 1 learned
    emissions: K + j <= 2K factors. Each factor is one of t, 1 - t, g,
    1 - g, s, 1 - s, so each is at least f_min, the smallest of these over
    the grid; a grid whose values all lie in (0, 1) (``ExperimentConfig``
    rejects any other) has f_min > 0, and f_min = ``step`` on the default
    grid. So every term is at least ``f_min**(2K) >= 2**-970``: 2**52
    above the smallest normal double, which keeps it normal even after
    scaling by a state entry as small as eps relative to the entries'
    unit sum. No term underflows or rounds as a subnormal, whatever the
    responses: K = floor(970 ln 2 / (2 ln(1/f_min))), 112 on the default
    grid, and a grid with f_min >= 2**-485 has K >= 1.
    """
    values = np.concatenate(values)
    f_min = min(values.min(), 1.0 - values.max())
    if not f_min > 0.0:
        raise ValueError("every t, g and s grid value must lie in (0, 1)")
    tiny = np.finfo(float)
    return max(1, int(np.log(tiny.tiny / tiny.eps) / (2.0 * np.log(f_min))))


def grid_log_likelihoods(sequences, grid: FitGrid, weights=None) -> np.ndarray:
    """Each fit's weighted total log-likelihood at every grid point.

    ``weights`` has one row per sequence and one column per fit (by
    default one column in which every sequence weighs 1); the result has
    shape (|l0|, |t|, |g|, |s|, columns). A sequence's log-likelihood
    depends on its responses and the grid alone, so one forward pass over
    the unique patterns serves every column; a pattern's weight in a
    column is the sum of its sequences' weights there. Cross-validation
    weighs a student's sequence 1 in each fold that trains on the student
    and 0 in the fold that tests it. Without a non-empty sequence every
    total is 0, the log-likelihood of no responses.
    """
    return _pattern_totals(*_dedup_sequences(sequences, weights), grid)


def _pattern_totals(patterns, weight_matrix: np.ndarray, grid: FitGrid) -> np.ndarray:
    """``grid_log_likelihoods`` of ``_dedup_sequences``' patterns and weights.

    Per (t, g, s) combination the forward pass multiplies 2x2 step
    matrices: E(r) = diag(P(r|learned), P(r|unlearned)) for the first
    response and M(r) = E(r) @ A for each later one, with transition
    A = [[1, t], [0, 1-t]] (columns = source state). All are upper
    triangular, so the running product [[a, b], [0, c]] is carried as
    three arrays, one entry per (combination, pattern).

    Steps are taken in segments of K (``_segment_len``). A segment's
    product [[A, B], [0, C]] is built directly: A is the product of its
    learned emissions and depends on s only; C, the product of its
    unlearned emissions times (1-t)^k, on (t, g) only; and B sums over the
    step j at which learning happens, t (1-t)^(j-1) pre_g[j-1] suf_s[j]
    with pre the prefix products of unlearned and suf the suffix products
    of learned emissions, which is one matrix product of a (|t|, K) table
    of t (1-t)^(j-1) with a (K, |g| |s| n) array. The first segment's
    first step is E(r): no learning at it and one factor (1-t) fewer. The
    segment updates the running product as one step would (a' = A a,
    b' = A b + B c, c' = C c), rescaled to unit sum with the log scale
    kept. Patterns are taken 256 at a time, sorted longest first, so a
    segment touches only the prefix of patterns still running; a pattern
    ending inside a segment takes unit emissions past its end, with its
    learning terms there masked out and its own power of (1-t) in C.

    The final likelihood a l0 + (b + c)(1 - l0) is linear in the initial
    state distribution, so the l0 axis is taken one value at a time on a
    (combination, pattern) block and reduced over the (pattern, column)
    weight matrix W by one matrix product, ``ll @ W``.
    """
    l0, tv, gv, sv = grid.l0_values, grid.t_values, grid.g_values, grid.s_values
    shape = (tv.size, gv.size, sv.size)
    n_combo = tv.size * gv.size * sv.size
    k_max = _segment_len(tv, gv, sv)
    stay = (1.0 - tv)[:, None] ** np.arange(k_max + 1)  # (1-t)^i
    learn = tv[:, None] * stay[:, :k_max]  # t (1-t)^(j-1) at segment step j
    # the first segment starts with E(r): no learning, one (1-t) fewer
    learn_first = np.concatenate([np.zeros((tv.size, 1)), learn[:, :-1]], axis=1)
    # emissions by response code: 0 wrong, 1 correct, 2 past the pattern's end
    emit_learned = np.stack([sv, 1.0 - sv, np.ones_like(sv)])
    emit_unlearned = np.stack([1.0 - gv, gv, np.ones_like(gv)])

    total = np.zeros((l0.size, n_combo, weight_matrix.shape[1]))
    chunk = 256
    for start in range(0, len(patterns), chunk):
        pats = patterns[start:start + chunk]
        order = sorted(range(len(pats)), key=lambda i: -len(pats[i]))  # longest first
        pats = [pats[i] for i in order]
        w = weight_matrix[start:start + chunk][order]
        n = len(pats)
        lengths = np.array([len(p) for p in pats])
        longest = len(pats[0])
        code = np.full((longest, n), 2, dtype=np.intp)
        for i, p in enumerate(pats):
            code[:len(p), i] = p

        a, b, c = np.ones(shape + (n,)), np.zeros(shape + (n,)), np.ones(shape + (n,))
        logscale = np.zeros(shape + (n,))
        for begin in range(0, longest, k_max):
            live = int(np.count_nonzero(lengths > begin))  # patterns still running
            k = min(k_max, longest - begin)
            taken = np.minimum(lengths[:live] - begin, k)  # steps each takes here
            first = int(begin == 0)
            seg = code[begin:begin + k, :live]
            el = emit_learned[seg].transpose(0, 2, 1)  # (k, |s|, live)
            eu = emit_unlearned[seg].transpose(0, 2, 1)  # (k, |g|, live)
            pre = np.ones((k + 1,) + eu.shape[1:])
            np.cumprod(eu, axis=0, out=pre[1:])
            suf = np.cumprod(el[::-1], axis=0)[::-1]
            suf_live = suf * (np.arange(k)[:, None] < taken)[:, None, :]  # none past the end
            paths = (pre[:k, :, None, :] * suf_live[:, None]).reshape(k, -1)
            # the segment's product [[seg_a, seg_b], [0, seg_c]]
            seg_a = suf[0]
            seg_b = ((learn_first if first else learn)[:, :k] @ paths).reshape(shape + (live,))
            seg_c = (stay[:, taken - first][:, None, None, :]
                     * pre[taken, :, np.arange(live)].T[:, None, :])

            av, bv, cv, lv = (x[..., :live] for x in (a, b, c, logscale))
            bv *= seg_a
            seg_b *= cv
            bv += seg_b
            av *= seg_a
            cv *= seg_c
            z = av + bv
            z += cv
            av /= z
            bv /= z
            cv /= z
            lv += np.log(z)

        a, bc, ll = (x.reshape(n_combo, n) for x in (a, b, c))
        bc += ll  # b + c
        a -= bc  # so that a l0 + (b + c)(1 - l0) = b + c + l0 (a - b - c)
        total += logscale.reshape(n_combo, n) @ w
        for i, p in enumerate(l0):
            np.multiply(a, p, out=ll)
            ll += bc
            np.log(ll, out=ll)
            total[i] += ll @ w

    return total.reshape((l0.size,) + shape + (-1,))


def fit_skill(sequences, grid: FitGrid | None = None, weights=None) -> list:
    """Each weight column's best grid point by total log-likelihood (see
    ``grid_log_likelihoods``), or None for a column that gives no
    non-empty sequence any weight; without ``weights``, a list of one.

    Ties resolve to the lexicographically smallest (l0, t, g, s), which
    also makes the result deterministic and independent of input order.
    """
    grid = grid or FitGrid()
    patterns, weight_matrix = _dedup_sequences(sequences, weights)
    total = _pattern_totals(patterns, weight_matrix, grid)
    axes = (grid.l0_values, grid.t_values, grid.g_values, grid.s_values)
    fitted = (weight_matrix.sum(axis=0) > 0).tolist()  # the weight of non-empty sequences
    at = np.unravel_index(total.reshape(-1, len(fitted)).argmax(axis=0), total.shape[:-1])
    best = np.stack([values[i] for values, i in zip(axes, at)], axis=1).tolist()
    return [BktParams(*point) if ok else None for point, ok in zip(best, fitted)]


def fit_all_skills(sequences_by_skill: dict, grid: FitGrid | None = None,
                   weights_by_skill: dict | None = None) -> dict:
    """Each skill's ``fit_skill`` list, one fit per weight column, None
    where the column weighs none of the skill's non-empty sequences.

    ``weights_by_skill`` gives each skill's weights; without it every
    skill is fitted once, each of its sequences weighing 1.
    """
    grid = grid or FitGrid()
    return {skill: fit_skill(seqs, grid, None if weights_by_skill is None
                             else weights_by_skill[skill])
            for skill, seqs in sequences_by_skill.items()}


def mean_params(params_list) -> BktParams:
    """Coordinate-wise unweighted mean; the fallback for unseen skills."""
    params_list = list(params_list)
    if not params_list:
        return BktParams(0.5, 0.1, 0.2, 0.1)
    arr = np.array([[p.l0, p.t, p.g, p.s] for p in params_list])
    return BktParams(*map(float, arr.mean(axis=0)))
