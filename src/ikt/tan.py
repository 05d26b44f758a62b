"""Tree-augmented naive Bayes over the extracted evidence features.

The class node (next-response correctness) is parent of every evidence
node; evidence nodes additionally form a tree chosen to maximize
class-conditional mutual information (maximum spanning tree, built by
minimizing negated weights). Continuous evidence is discretized with
entropy-based recursive binary splits accepted under the minimum
description length criterion; conditional probability tables are
Laplace-smoothed.

Scalar and batch inference read one table: a fitted model holds, per
node, log P(value | parent value, correct) - log P(value | parent value,
incorrect), padded with a last row and column of zeros that a value
outside the domain, coded -1 in both paths, reads: the uniform fallback.
Both take their nodes from the model's walk, built with it: ``explain``
looks up one entry per node and ``predict_many`` gathers whole columns,
in the same order, so explain's contributions are the batch's terms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import _probability, _undecodable_offset

__all__ = [
    "CONTINUOUS",
    "Discretizer",
    "TanStructure",
    "TanModel",
    "ExplanationRecord",
    "NodeContribution",
    "mdlp_cutpoints",
    "fit_discretizer",
    "max_spanning_parents",
    "learn_structure",
    "estimate_cpts",
    "fit_tan",
    "fit_nested_tans",
    "predict_many",
    "explain",
    "save_model",
    "load_model",
]


# ---------------------------------------------------------------------------
# supervised discretization

def _entropy2(count1, total):
    """Binary entropy in bits of a label split, vectorized; 0*log0 = 0."""
    count1 = np.asarray(count1, dtype=float)
    total = np.asarray(total, dtype=float)
    p1 = np.divide(count1, total, out=np.zeros_like(count1 + total), where=total > 0)
    p0 = 1.0 - p1
    h = np.zeros_like(p1)
    mask = p1 > 0
    h = h - np.where(mask, p1 * np.log2(np.where(mask, p1, 1.0)), 0.0)
    mask = p0 > 0
    h = h - np.where(mask, p0 * np.log2(np.where(mask, p0, 1.0)), 0.0)
    return h


def _n_classes(count1, total) -> int:
    return int(count1 > 0) + int(count1 < total)


def _mdlp_recurse(v: np.ndarray, y: np.ndarray, lo: int, hi: int, cuts: list) -> None:
    n = hi - lo
    if n < 2:
        return
    seg_v = v[lo:hi]
    seg_y = y[lo:hi]
    cum1 = np.cumsum(seg_y)
    total1 = int(cum1[-1])
    if _n_classes(total1, n) < 2:
        return
    cand = np.nonzero(seg_v[:-1] < seg_v[1:])[0]
    if cand.size == 0:
        return

    n_left = cand + 1
    c1_left = cum1[cand]
    n_right = n - n_left
    c1_right = total1 - c1_left
    ent = float(_entropy2(total1, n))
    ent_left = _entropy2(c1_left, n_left)
    ent_right = _entropy2(c1_right, n_right)
    gains = ent - (n_left * ent_left + n_right * ent_right) / n
    best = int(np.argmax(gains))
    gain = float(gains[best])

    k = 2
    k1 = _n_classes(int(c1_left[best]), int(n_left[best]))
    k2 = _n_classes(int(c1_right[best]), int(n_right[best]))
    delta = math.log2(3 ** k - 2) - (k * ent - k1 * float(ent_left[best])
                                     - k2 * float(ent_right[best]))
    if gain <= (math.log2(n - 1) + delta) / n:
        return

    cut_idx = int(cand[best])
    cuts.append(float((seg_v[cut_idx] + seg_v[cut_idx + 1]) / 2.0))
    _mdlp_recurse(v, y, lo, lo + cut_idx + 1, cuts)
    _mdlp_recurse(v, y, lo + cut_idx + 1, hi, cuts)


def mdlp_cutpoints(values, labels) -> list[float]:
    """Cutpoints for one continuous feature against the binary label.

    Recursive binary partitioning on information gain; a split is kept
    only when the gain beats its description-length cost, so a feature
    carrying no class signal yields no cutpoints at all.
    """
    v = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=int)
    order = np.argsort(v, kind="stable")
    cuts: list[float] = []
    _mdlp_recurse(v[order], y[order], 0, len(v), cuts)
    return sorted(cuts)


@dataclass(frozen=True)
class Discretizer:
    """Cutpoints per continuous feature; categorical features untouched.

    n cutpoints define n+1 bins; bin b holds values in
    [cut[b-1], cut[b]), so the bins partition the whole real line.
    """

    cutpoints: dict = field(default_factory=dict)

    def transform_column(self, feature: str, column: np.ndarray) -> np.ndarray:
        cuts = self.cutpoints.get(feature)
        if cuts is None:
            return np.asarray(column, dtype=int)
        return np.searchsorted(np.asarray(cuts), column, side="right").astype(int)


CONTINUOUS = ("mastery",)


def fit_discretizer(columns: dict, labels) -> Discretizer:
    """MDL-based cutpoints for each ``CONTINUOUS`` feature present; the
    others are categorical codes."""
    cuts = {}
    for name in CONTINUOUS:
        if name in columns:
            cuts[name] = tuple(mdlp_cutpoints(columns[name], labels))
    return Discretizer(cutpoints=cuts)


# ---------------------------------------------------------------------------
# structure learning

def _domain_codes(column) -> tuple:
    """A discretized column's sorted distinct values and each entry's
    index among them."""
    domain, codes = np.unique(np.asarray(column, dtype=int), return_inverse=True)
    return domain, codes.astype(np.int64)


def _coded_cmi(a_codes, b_codes, y_codes) -> float:
    """I(a; b | y) from empirical frequencies, natural log, of columns
    coded 0..n-1 in value order. a and b are put in byte order first, so
    the result is exactly symmetric, not merely up to rounding."""
    if a_codes.tobytes() > b_codes.tobytes():
        a_codes, b_codes = b_codes, a_codes

    na = int(a_codes.max()) + 1 if a_codes.size else 0
    nb = int(b_codes.max()) + 1 if b_codes.size else 0
    ny = int(y_codes.max()) + 1 if y_codes.size else 0
    if 0 in (na, nb, ny):
        return 0.0
    n = a_codes.size
    counts = np.bincount((a_codes * nb + b_codes) * ny + y_codes,
                         minlength=na * nb * ny).reshape(na, nb, ny).astype(float)
    n_ay = counts.sum(axis=1)
    n_by = counts.sum(axis=0)
    n_y = counts.sum(axis=(0, 1))

    nz = counts.ravel() > 0
    a_idx, b_idx, y_idx = np.unravel_index(np.nonzero(nz)[0], counts.shape)
    c = counts[a_idx, b_idx, y_idx]
    terms = c / n * np.log(c * n_y[y_idx] / (n_ay[a_idx, y_idx] * n_by[b_idx, y_idx]))
    return float(terms.sum())


@dataclass(frozen=True)
class TanStructure:
    """Evidence tree: every feature has at most one evidence parent; the
    class is an implicit parent of every feature. A learned tree keeps
    the pairwise CMI ``weight`` it was grown from (not compared)."""

    features: tuple
    parent: dict
    weight: np.ndarray | None = field(default=None, compare=False, repr=False)


def max_spanning_parents(weight: np.ndarray) -> list:
    """Parent index per node for the maximum spanning tree of a weight
    matrix, grown from node 0; node 0's parent is None.

    Ties resolve to the lowest-index pair in scan order, so equal
    weights always produce the same tree.
    """
    n = len(weight)
    parent: list = [None] * n
    in_tree = [0]
    remaining = list(range(1, n))
    while remaining:
        # max keeps the first of equal weights
        _, i, j = max(((weight[i, j], i, j) for i in in_tree for j in remaining),
                      key=lambda edge: edge[0])
        parent[j] = i
        in_tree.append(j)
        remaining.remove(j)
    return parent


def learn_structure(coded: dict, labels) -> TanStructure:
    """Maximum spanning tree over pairwise class-conditional MI of the
    ``coded`` columns, each a discretized column's ``_domain_codes`` pair.

    Edges point away from the root (the first feature); the class node
    is implicitly parent of everything.
    """
    features = list(coded)
    n = len(features)
    codes = [coded[f][1] for f in features]
    y = _domain_codes(labels)[1]
    weight = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            weight[i, j] = weight[j, i] = _coded_cmi(codes[i], codes[j], y)
    return _spanning_structure(tuple(features), weight)


def _spanning_structure(features: tuple, weight: np.ndarray) -> TanStructure:
    if len(features) < 2:
        raise ValueError("need at least two evidence features")
    parent_idx = max_spanning_parents(weight)
    parent = {features[j]: (features[i] if i is not None else None)
              for j, i in enumerate(parent_idx)}
    return TanStructure(features=features, parent=parent, weight=weight)


# ---------------------------------------------------------------------------
# parameters and inference

@dataclass
class TanModel:
    """Fitted classifier: structure, domains, smoothed tables, discretizer.

    ``cpts[f]`` has shape (|domain(f)|, |domain(parent(f))| or 1, 2) and
    every column over the first axis sums to 1. Immutable in use: the
    inference tables below are derived once, at construction.

    ``log_ratio[f][v, p]`` is node f's log-likelihood ratio for domain
    index v under parent domain index p, and 0 at the pad index -1 of an
    out-of-domain v or p; ``prior_log_odds`` is the class term. ``walk``
    holds one ``(feature, parent, parent position in walk or None, a dict
    from each value of f's domain to its index, cutpoints or None,
    log_ratio[feature] as nested lists)`` entry per node, in feature order.
    """

    structure: TanStructure
    domains: dict
    class_prior: np.ndarray
    cpts: dict
    discretizer: Discretizer
    alpha: float = 1.0
    log_ratio: dict = field(init=False, repr=False)
    prior_log_odds: float = field(init=False, repr=False)
    walk: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.log_ratio = {f: np.pad(np.log(cpt[..., 1]) - np.log(cpt[..., 0]), (0, 1))
                          for f, cpt in self.cpts.items()}
        codes = {f: {int(v): i for i, v in enumerate(dom)} for f, dom in self.domains.items()}
        p0, p1 = (float(p) for p in self.class_prior)
        self.prior_log_odds = math.log(p1) - math.log(p0)
        position = {f: i for i, f in enumerate(self.features)}
        self.walk = tuple((f, p, position.get(p), codes[f],
                           self.discretizer.cutpoints.get(f), self.log_ratio[f].tolist())
                          for f in self.features for p in (self.structure.parent[f],))

    @property
    def features(self) -> tuple:
        return self.structure.features


def estimate_cpts(coded: dict, labels, structure: TanStructure,
                  alpha: float = 1.0, discretizer: Discretizer | None = None) -> TanModel:
    """Laplace-smoothed conditional probability tables for a fixed
    structure, from ``coded``: each feature's ``_domain_codes`` pair
    (domain, codes). ``alpha`` must be positive and finite; a context
    never seen in training gets the uniform column.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
    y = np.asarray(labels, dtype=int)
    n = y.size
    domains = {f: coded[f][0] for f in structure.features}
    codes = {f: coded[f][1] for f in structure.features}

    prior_counts = np.bincount(y, minlength=2).astype(float)
    class_prior = (prior_counts + alpha) / (n + 2.0 * alpha)

    cpts = {}
    for f in structure.features:
        d = len(domains[f])
        p_feat = structure.parent[f]
        p = len(domains[p_feat]) if p_feat is not None else 1
        pcodes = codes[p_feat] if p_feat is not None else np.zeros(n, dtype=int)
        counts = np.bincount((codes[f] * p + pcodes) * 2 + y,
                             minlength=d * p * 2).reshape(d, p, 2).astype(float)
        cpts[f] = (counts + alpha) / (counts.sum(axis=0, keepdims=True) + alpha * d)
    return TanModel(structure=structure, domains=domains, class_prior=class_prior,
                    cpts=cpts, discretizer=discretizer or Discretizer(), alpha=alpha)


def fit_tan(columns: dict, labels, alpha: float = 1.0) -> TanModel:
    """Discretize, learn the evidence tree, estimate tables."""
    return fit_nested_tans(columns, labels, [len(columns)], alpha=alpha)[0]


def fit_nested_tans(columns: dict, labels, sizes, alpha: float = 1.0) -> list:
    """One model per size n in ``sizes``, each equal to ``fit_tan`` on the
    first n of ``columns``.

    The work that does not depend on n runs once: MDLP cuts each feature
    against the labels alone, and a pair's CMI depends on that pair
    alone, so the discretizer, the coded columns and the CMI matrix of
    all features serve every prefix, whose tree is spanned over the
    matrix's leading n x n block. Each discretized column is coded once,
    as the ``_domain_codes`` pair ``learn_structure`` and each model's
    ``estimate_cpts`` take; only the trees and tables are per model.
    """
    disc = fit_discretizer(columns, labels)
    coded = {f: _domain_codes(disc.transform_column(f, column))
             for f, column in columns.items()}
    structure = learn_structure(coded, labels)
    models = []
    for n in sizes:
        tree = _spanning_structure(structure.features[:n], structure.weight[:n, :n])
        cuts = {f: c for f, c in disc.cutpoints.items() if f in tree.features}
        models.append(estimate_cpts(coded, labels, tree, alpha=alpha,
                                    discretizer=Discretizer(cuts)))
    return models


class NodeContribution(NamedTuple):
    feature: str
    value: object
    parent_value: object
    log_ratio: float


class ExplanationRecord(NamedTuple):
    """Additive decomposition of the posterior log-odds.

    prior_log_odds + sum of node log_ratios equals log_odds, and the
    posterior is the logistic transform of log_odds.
    """

    posterior: float
    prior_log_odds: float
    log_odds: float
    contributions: tuple
    out_of_domain: tuple


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def explain(model: TanModel, evidence: dict) -> ExplanationRecord:
    """Posterior plus each node's exact log-likelihood-ratio contribution.

    A node whose value, or whose parent's value, is outside the model
    domain contributes 0 (the uniform fallback); ``out_of_domain`` names
    each such feature once, in the order the nodes are walked.
    """
    values, codes = [], []
    for f, _, _, index, cuts, _ in model.walk:
        value = bisect.bisect_right(cuts, evidence[f]) if cuts is not None else int(evidence[f])
        values.append(value)
        codes.append(index.get(value, -1))
    contributions = []
    out_of_domain: list = []
    log_odds = model.prior_log_odds
    for (f, p_feat, at, _, _, table), value, code in zip(model.walk, values, codes):
        parent_value = values[at] if at is not None else None
        pcode = codes[at] if at is not None else 0
        if code < 0 or pcode < 0:
            bad = f if code < 0 else p_feat
            if bad not in out_of_domain:
                out_of_domain.append(bad)
        ratio = table[code][pcode]
        contributions.append(NodeContribution(f, value, parent_value, ratio))
        log_odds += ratio
    return ExplanationRecord(_sigmoid(log_odds), model.prior_log_odds, log_odds,
                             tuple(contributions), tuple(out_of_domain))


def _log_odds(model: TanModel, columns: dict) -> np.ndarray:
    """Posterior log-odds for a column batch: the prior plus explain's terms, in walk order."""
    codes = []
    for f, *_ in model.walk:
        values = model.discretizer.transform_column(f, columns[f])
        dom = model.domains[f]
        at = np.minimum(np.searchsorted(dom, values), len(dom) - 1)
        codes.append(np.where(dom[at] == values, at, -1))

    log_odds = np.full(len(values), model.prior_log_odds)
    for (f, _, at, *_), code in zip(model.walk, codes):
        log_odds += model.log_ratio[f][code, codes[at] if at is not None else 0]
    return log_odds


def predict_many(model: TanModel, columns: dict) -> np.ndarray:
    """Vectorized posteriors for a column batch: the logistic of ``_log_odds``."""
    log_odds = _log_odds(model, columns)
    out = np.empty(len(log_odds))
    pos_mask = log_odds >= 0
    out[pos_mask] = 1.0 / (1.0 + np.exp(-log_odds[pos_mask]))
    e = np.exp(log_odds[~pos_mask])
    out[~pos_mask] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# serialization

_MAGIC = "ikt-tan-model v1"


def save_model(model: TanModel, path: str) -> None:
    """Write ``model`` as UTF-8 text, round-trip exact: every float is
    stored as its ``repr``. The layout, which ``load_model`` requires:

    - the magic line ``ikt-tan-model v1``;
    - a header of ``key = value`` lines: ``alpha``, ``class_prior`` (the
      probabilities of an incorrect and of a correct answer) and
      ``features`` (the names, in model order);
    - for each continuous feature f, ``[cutpoints f]`` and a line of its
      cutpoints, or no line when it has none;
    - for each feature f, ``[domain f]`` and a line of its values;
    - ``[tree]`` and one ``f parent`` line per feature, ``-`` for the
      root;
    - for each feature f, ``[cpt f]`` and one ``vi pi p0 p1`` row per
      cell of its d x p table: the probabilities of f's vi-th domain
      value given its parent's pi-th, under an incorrect and a correct
      answer. ``vi`` counts up over f's d values and, within each,
      ``pi`` over its parent's p (p = 1 at the root), so row k holds
      cell ``divmod(k, p)``.

    Values on a line are separated by one space; cutpoints and domains
    are strictly increasing. ``load_model`` takes the sections in any
    order and skips blank lines, but refuses a section with more or
    fewer lines than this, CPT rows out of this order, a header key
    missing, repeated or unknown, and a class prior or CPT column that
    is not probabilities in (0, 1] summing to 1.
    """
    lines = [_MAGIC,
             f"alpha = {float(model.alpha)!r}",
             f"class_prior = {float(model.class_prior[0])!r} {float(model.class_prior[1])!r}",
             "features = " + " ".join(model.features)]
    for f in model.features:
        if f in model.discretizer.cutpoints:
            lines.append(f"[cutpoints {f}]")
            cuts = model.discretizer.cutpoints[f]
            if cuts:
                lines.append(" ".join(repr(float(c)) for c in cuts))
    for f in model.features:
        lines.append(f"[domain {f}]")
        lines.append(" ".join(str(int(v)) for v in model.domains[f]))
    lines.append("[tree]")
    for f in model.features:
        p = model.structure.parent[f]
        lines.append(f"{f} {p if p is not None else '-'}")
    for f in model.features:
        lines.append(f"[cpt {f}]")
        cpt = model.cpts[f]
        for vi, pi in np.ndindex(cpt.shape[:2]):
            lines.append(f"{vi} {pi} {float(cpt[vi, pi, 0])!r} {float(cpt[vi, pi, 1])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADER = ("alpha", "class_prior", "features")


def _header_entry(line: str) -> tuple:
    key, equals, value = line.partition(" = ")
    if not equals or key not in _HEADER:
        raise ValueError(f"{line!r} is not an alpha, class_prior or features line")
    if key == "alpha":
        alpha = float(value)
        if not 0.0 < alpha < math.inf:  # the rule ExperimentConfig.validate applies
            raise ValueError(f"alpha must be > 0 and finite, got {value}")
        return key, alpha
    values = value.split()
    if key == "class_prior":
        if len(values) != 2:
            raise ValueError("class_prior must be two probabilities")
        return key, np.array([_probability(v) for v in values])
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"features repeats {repeated[0]!r}")
    return key, values


def _distribution_fault(table: np.ndarray) -> str:
    """'' when each column of ``table`` over its first axis holds
    probabilities in (0, 1] that sum to 1 within 1e-9, as smoothing with
    alpha > 0 always gives; else what is wrong with the first that does not.
    A 0 makes a log-ratio infinite, and two of them a log-odds nan."""
    columns = table.reshape(len(table), -1)
    sums = columns.sum(axis=0)
    bad = np.flatnonzero((columns <= 0).any(axis=0) | (np.abs(sums - 1.0) > 1e-9))
    if bad.size == 0:
        return ""
    k = int(bad[0])
    where = "" if table.ndim == 1 else "column (parent index {}, class {}) ".format(*divmod(k, 2))
    if columns[:, k].min() <= 0:
        return f"{where}holds {float(columns[:, k].min())!r}, not a probability in (0, 1]"
    return f"{where}sums to {float(sums[k])!r}, not 1"


def _tree_entry(line: str) -> tuple:
    f, p = line.split()
    return f, None if p == "-" else p


def _cpt_row(line: str, cell: tuple) -> tuple:
    vi, pi, p0, p1 = line.split()
    if (int(vi), int(pi)) != cell:
        raise ValueError(f"row {vi} {pi} where row {cell[0]} {cell[1]} belongs")
    return _probability(p0), _probability(p1)


def _increasing(line: str, dtype) -> np.ndarray:
    # cutpoints and domains are searched by bisection in explain and in
    # predict_many, which agree only on sorted values
    values = np.array([dtype(v) for v in line.split()], dtype=dtype)
    if not (np.all(np.isfinite(values)) and np.all(np.diff(values) > 0)):
        raise ValueError("is not strictly increasing" + (" and finite" if dtype is float else ""))
    return values


def load_model(path: str) -> TanModel:
    """The model ``save_model`` wrote to ``path``; a ``ValueError`` names the line at fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: byte {_undecodable_offset(path)} is not valid UTF-8") from None
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a recognized model file")
    sections = {}
    body = sections[""] = []  # the header lines, before any section
    for lineno, line in enumerate(lines[1:], 2):
        if line.startswith("[") and line.endswith("]"):
            body = sections.setdefault(line[1:-1], [])  # a repeat adds lines
        elif line.strip():
            body.append((lineno, line))

    def rows(name: str, parse, counts=None) -> list:
        """The parsed lines of section ``name``, which number one of ``counts`` if given."""
        numbered = sections.get(name, [])
        if counts is not None and len(numbered) not in counts:
            raise ValueError(f"{path}: [{name}] has {len(numbered)} lines, not "
                             + " or ".join(map(str, counts)))
        out = []
        for lineno, line in numbered:
            try:
                out.append(parse(line))
            except (ValueError, OverflowError) as exc:
                where = f"[{name}] " if name else ""
                raise ValueError(f"{path}:{lineno}: {where}{exc}") from None
        return out

    header: dict = {}
    for key, value in rows("", _header_entry):
        if key in header:
            raise ValueError(f"{path}: the {key} line is given more than once")
        header[key] = value
    for key in _HEADER:
        if key not in header:
            raise ValueError(f"{path}: has no {key} line")
    if fault := _distribution_fault(header["class_prior"]):
        raise ValueError(f"{path}: class_prior {fault}")
    features = header["features"]
    parent = dict(rows("tree", _tree_entry, (len(features),)))
    domains = {f: rows(f"domain {f}", lambda line: _increasing(line, int), (1,))[0]
               for f in features}
    cutpoints, cpts = {}, {}
    for f in features:
        if f not in parent:
            raise ValueError(f"{path}: [tree] has no entry for {f!r}")
        if parent[f] is not None and (parent[f] == f or parent[f] not in features):
            raise ValueError(f"{path}: [tree] parent {parent[f]!r} of {f!r} is not "
                             "another listed feature")
        if f"cutpoints {f}" in sections:  # zero cutpoints still mean continuous
            cuts = rows(f"cutpoints {f}", lambda line: _increasing(line, float), (0, 1))
            cutpoints[f] = tuple(cuts[0].tolist()) if cuts else ()
        d, p = len(domains[f]), len(domains[parent[f]]) if parent[f] is not None else 1
        cells = np.ndindex(d, p)  # the order save_model writes the rows in
        block = rows(f"cpt {f}", lambda line: _cpt_row(line, next(cells)), (d * p,))
        cpts[f] = np.array(block).reshape(d, p, 2)
        if fault := _distribution_fault(cpts[f]):
            raise ValueError(f"{path}: [cpt {f}] {fault}")
    return TanModel(structure=TanStructure(features=tuple(features), parent=parent),
                    domains=domains, class_prior=header["class_prior"], cpts=cpts,
                    discretizer=Discretizer(cutpoints=cutpoints), alpha=header["alpha"])
