"""A numpy evaluator of sitelasso's output files, written apart from the package.

It reads points CSVs, ESRI ASCII grids and ensemble JSON artifacts itself and
evaluates an ensemble from its definition: member i predicts

    b_i + sum_j c_ij * (x_j - m_ij) / s_ij

over the raw term values x_j, where a site-scoped term contributes only on
rows of its own site, and the ensemble averages its members with the stored
weights. Nothing here calls sitelasso's prediction, metric or solver code, so
the checker built on it can tell when that code goes wrong.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Term:
    scope: str  # None for a global term
    a: str
    b: str  # second covariate of an interaction, else None
    order: int

    @property
    def covariates(self):
        return (self.a,) if self.b is None else (self.a, self.b)


def parse_term(term_id):
    scope, _, core = term_id.rpartition("@")
    scope = scope or None
    if ":" in core:
        a, b = core.split(":")
        return Term(scope, a, b, 1)
    if "^" in core:
        a, order = core.split("^")
        return Term(scope, a, None, int(order))
    return Term(scope, core, None, 1)


def term_values(term, cov, sites):
    """Raw values of one term; a scoped term is 0.0 off its own site."""
    x = cov[term.a]
    if term.b is not None:
        x = x * cov[term.b]
    elif term.order > 1:
        x = x**term.order
    if term.scope is None:
        return x
    return np.where(sites == term.scope, x, 0.0)


@dataclass
class Points:
    sites: np.ndarray  # str array
    x: np.ndarray
    y: np.ndarray
    response: np.ndarray
    cov: dict  # covariate name -> values

    @property
    def n(self):
        return len(self.sites)

    def rows(self, idx):
        idx = np.asarray(idx, dtype=np.intp)
        return Points(
            self.sites[idx], self.x[idx], self.y[idx], self.response[idx],
            {k: v[idx] for k, v in self.cov.items()},
        )


def read_points(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [r for r in reader if r]
    sites = np.array([r[0] for r in rows])
    nums = np.array([r[1:] for r in rows], dtype=np.float64)
    cov = {name: nums[:, 3 + k] for k, name in enumerate(header[4:])}
    return Points(sites, nums[:, 0], nums[:, 1], nums[:, 2], cov)


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [r for r in reader if r]


@dataclass
class Grid:
    header: dict  # lower-cased key -> text
    values: np.ndarray  # (nrows, ncols)

    @property
    def nodata(self):
        return float(self.header.get("nodata_value", -9999.0))

    def mask(self):
        return (self.values == self.nodata) | np.isnan(self.values)

    def geometry(self):
        return tuple(
            float(self.header[k])
            for k in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
        )


def read_grid(path):
    with open(path, encoding="utf-8") as handle:
        tokens = handle.read().split()
    header = {tokens[2 * k].lower(): tokens[2 * k + 1] for k in range(6)}
    shape = (int(header["nrows"]), int(header["ncols"]))
    values = np.array(tokens[12:], dtype=np.float64)
    if values.size != shape[0] * shape[1]:
        raise ValueError(f"{path}: {values.size} cells, header says {shape}")
    return Grid(header, values.reshape(shape))


class EnsembleModel:
    """One ensemble artifact (``ensemble_*.json``), evaluated from its definition."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        self.site = payload.get("site")
        self.term_ids = list(payload["terms"])
        self.terms = [parse_term(t) for t in self.term_ids]
        self.position = {t: j for j, t in enumerate(self.term_ids)}
        self.weights = np.asarray(payload["weights"], dtype=np.float64)
        self.intercepts = np.array([m["intercept"] for m in payload["models"]])
        self.coefs = [dict(m["coef"]) for m in payload["models"]]
        self.sses = np.array([m["validation_sse"] for m in payload["models"]])
        self.means = [np.asarray(t["means"], dtype=np.float64) for t in payload["transforms"]]
        self.norms = [np.asarray(t["norms"], dtype=np.float64) for t in payload["transforms"]]
        self.dropped = [np.asarray(t["dropped"], dtype=bool) for t in payload["transforms"]]
        self.validation_rows = [np.asarray(r, dtype=np.intp) for r in payload["validation_rows"]]
        self.validation_errors = [
            np.asarray(e, dtype=np.float64) for e in payload["validation_errors"]
        ]

    @property
    def n_models(self):
        return len(self.coefs)

    def active_terms(self):
        return sorted({t for coef in self.coefs for t in coef}, key=self.position.get)

    def needed_covariates(self):
        return sorted({c for t in self.active_terms() for c in parse_term(t).covariates})

    def uses_site_terms(self):
        return any(parse_term(t).scope is not None for t in self.active_terms())

    def members(self, cov, sites):
        """(n_models, n_rows) member predictions on raw covariates."""
        n = len(sites)
        raw = {t: term_values(parse_term(t), cov, sites) for t in self.active_terms()}
        out = np.empty((self.n_models, n))
        for i, coef in enumerate(self.coefs):
            acc = np.full(n, self.intercepts[i])
            for tid, c in coef.items():
                j = self.position[tid]
                z = (raw[tid] - self.means[i][j]) / self.norms[i][j]
                scope = self.terms[j].scope
                if scope is not None:
                    z = np.where(sites == scope, z, 0.0)
                acc += c * z
            out[i] = acc
        return out

    def predict(self, cov, sites):
        return self.weights @ self.members(cov, sites)

    def predict_held_out(self, cov, sites, row_ids, fallback):
        """Per row, the weighted mean of the members whose split held it out."""
        members = self.members(cov, sites)
        held = np.zeros(members.shape, dtype=bool)
        where = {int(r): k for k, r in enumerate(row_ids)}
        for i, rows in enumerate(self.validation_rows):
            for r in rows:
                if int(r) in where:
                    held[i, where[int(r)]] = True
        mass = self.weights @ held
        total = (self.weights[:, None] * held * members).sum(axis=0)
        return np.where(mass > 0, total / np.where(mass > 0, mass, 1.0), fallback)
