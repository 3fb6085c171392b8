"""Design construction: term expansion, collinearity filtering, site blocks."""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .pointdata import format_float, write_csv
from .terms import MAX_ORDER, RawDesign, TermSpec, evaluate_term

log = logging.getLogger(__name__)

DEFAULT_RANK = 6
MAX_RANK = 10


def expand_terms(data, max_order=MAX_ORDER):
    """Expand raw covariates into polynomial and interaction columns.

    For each covariate, orders 1..max_order of the covariate itself, then
    every pairwise product of linear terms. With p covariates and the default
    max_order this yields 4p + p(p-1)/2 columns. Column order is polynomials
    grouped by covariate (covariates in file order, order ascending)
    followed by interactions in pair order (i < j by covariate position).

    Parameters
    ----------
    data : PointDataset
    max_order : int
        Highest polynomial order, 1..MAX_ORDER.

    Returns
    -------
    RawDesign with global-scope terms only.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise DataError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    names = list(data.covariate_names)
    if not names:
        raise DataError("no covariates to expand")
    columns = {}
    for name in names:
        values = data.covariate(name)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(
                f"covariate {name!r} has a non-finite value at row {int(bad[0])}"
            )
        columns[name] = values
    specs = []
    for name in names:
        for order in range(1, max_order + 1):
            specs.append(TermSpec("poly", name, order))
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            specs.append(TermSpec("inter", names[i], 1, names[j]))
    n = data.n_rows
    values = np.empty((n, len(specs)), dtype=np.float64)
    for k, spec in enumerate(specs):
        values[:, k] = evaluate_term(spec, columns)
    return RawDesign(values, specs, data.site_ids)


@dataclass(frozen=True)
class RemovalRecord:
    """One filter decision: which column was discarded and why."""

    discarded_term: str
    retained_term: str  # empty for constant-column removals
    abs_r: float  # nan for constant-column removals
    rule_step: str  # constant | hierarchy | single_over_interaction | lower_order | random


def term_rank(term, hierarchy):
    """Retention rank of a term, lower retained first.

    Polynomials take their covariate's rank; an interaction takes the worse
    (higher) of its two covariates' ranks.
    """
    ranks = [hierarchy.get(name, DEFAULT_RANK) for name in term.covariates]
    return max(ranks)


def _is_constant(col):
    peak = np.max(np.abs(col))
    if peak == 0.0:
        return True
    return np.max(col) - np.min(col) <= 1e-12 * peak


def _pick_retained(term_a, term_b, hierarchy, rng):
    """Decide which of two over-correlated terms survives.

    Returns (index_of_winner in (0, 1), rule name).
    """
    rank_a = term_rank(term_a, hierarchy)
    rank_b = term_rank(term_b, hierarchy)
    if rank_a != rank_b:
        return (0 if rank_a < rank_b else 1), "hierarchy"
    a_poly = term_a.kind == "poly"
    b_poly = term_b.kind == "poly"
    if a_poly != b_poly:
        return (0 if a_poly else 1), "single_over_interaction"
    if a_poly and term_a.order != term_b.order:
        return (0 if term_a.order < term_b.order else 1), "lower_order"
    return rng.integers(2), "random"


def filter_collinear(design, threshold=0.95, hierarchy=None, seed=0):
    """Drop columns until no pair correlates above ``threshold``.

    Constant columns go first. Remaining violating pairs are visited in
    descending |r| (ties by column position); each visit discards one column
    per the retention rules in :func:`_pick_retained`, and a discarded column
    drops out of every later comparison.

    Parameters
    ----------
    design : RawDesign
    threshold : float in (0, 1]
    hierarchy : mapping of covariate name to rank 1..10, optional
        Lower rank is retained first; unknown covariates rank 6.
    seed : int >= 0
        Drives the pseudo-random rule used when every other rule ties: each
        tie takes the next ``np.random.default_rng(seed).integers(2)``, bit for
        bit, from the package's own PCG64 copy in :mod:`sitelasso.rng`.

    Returns
    -------
    (RawDesign, list of RemovalRecord)

    Raises
    ------
    ConfigError for a negative seed; DataError for a bad threshold or rank,
    or when no column survives.
    """
    # imported here, as sha256_file imports hashlib: transfer and synth never
    # filter, so they never load the module
    from .rng import DefaultRng

    if not 0.0 < threshold <= 1.0:
        raise DataError(f"correlation threshold must be in (0, 1], got {threshold}")
    hierarchy = dict(hierarchy or {})
    for name, rank in hierarchy.items():
        if not 1 <= int(rank) <= MAX_RANK:
            raise DataError(f"hierarchy rank for {name!r} must be 1..10, got {rank}")
    rng = DefaultRng(seed)
    X = design.values
    records = []
    alive = np.ones(design.n_cols, dtype=bool)
    for j in range(design.n_cols):
        if _is_constant(X[:, j]):
            alive[j] = False
            records.append(
                RemovalRecord(design.terms[j].term_id, "", float("nan"), "constant")
            )
    live_idx = np.flatnonzero(alive)
    if live_idx.size == 0:
        raise DataError("empty design after filtering: every column is constant")
    if live_idx.size > 1:
        sub = X[:, live_idx]
        centered = sub - sub.mean(axis=0)
        norms = np.sqrt((centered**2).sum(axis=0))
        unit = centered / norms
        corr = unit.T @ unit
        iu, ju = np.triu_indices(live_idx.size, k=1)
        absr = np.abs(corr[iu, ju])
        hits = absr > threshold
        order = np.lexsort((ju[hits], iu[hits], -absr[hits]))
        pairs_i = iu[hits][order]
        pairs_j = ju[hits][order]
        pair_r = absr[hits][order]
        dead = set()
        for a, b, r in zip(pairs_i, pairs_j, pair_r):
            if a in dead or b in dead:
                continue
            ta = design.terms[live_idx[a]]
            tb = design.terms[live_idx[b]]
            winner, rule = _pick_retained(ta, tb, hierarchy, rng)
            loser_local = b if winner == 0 else a
            keeper = ta if winner == 0 else tb
            loser = tb if winner == 0 else ta
            dead.add(loser_local)
            alive[live_idx[loser_local]] = False
            records.append(RemovalRecord(loser.term_id, keeper.term_id, float(r), rule))
    kept = np.flatnonzero(alive)
    if kept.size == 0:
        raise DataError("empty design after filtering")
    log.info(
        "collinearity filter kept %d of %d columns (%d removed)",
        kept.size,
        design.n_cols,
        design.n_cols - kept.size,
    )
    return design.subset_terms(kept), records


def write_removal_log(path, records):
    rows = []
    for rec in records:
        r_text = "" if np.isnan(rec.abs_r) else format_float(rec.abs_r)
        rows.append([rec.discarded_term, rec.retained_term, r_text, rec.rule_step])
    write_csv(path, ["discarded_term", "retained_term", "abs_r", "rule_step"], rows)


def assemble_site_blocks(design):
    """Widen a global design into [global | site-1 | site-2] blocks.

    Each site block is a copy of the global block scoped to one site: rows of
    the other site are exactly 0.0. Requires every input term to be global
    and exactly two sites among the rows.

    Returns
    -------
    RawDesign of width 3 * design.n_cols.
    """
    for term in design.terms:
        if term.scope is not None:
            raise DataError(f"input term {term.term_id} is already site-scoped")
    sites = sorted(set(design.row_sites.tolist()))
    if len(sites) != 2:
        raise DataError(f"site blocks need exactly two sites, got {sites}")
    n, w = design.values.shape
    out = np.zeros((n, 3 * w), dtype=np.float64)
    out[:, :w] = design.values
    specs = list(design.terms)
    for b, site in enumerate(sites):
        mask = design.row_sites == site
        block = slice((b + 1) * w, (b + 2) * w)
        out[mask, block] = design.values[mask]
        specs.extend(t.with_scope(site) for t in design.terms)
    return RawDesign(out, specs, design.row_sites)
