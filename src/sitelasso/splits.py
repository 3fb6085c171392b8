"""Repeated train/validation splits shared by every modelling method.

Each site is divided independently: ``n_splits`` unique ways of drawing the
site's training quota, sampled with rejection against duplicates. Combined
splits are the index-wise unions of the per-site ones, so every method sees
the same divisions of the data.

The training sets are the draws of ``np.random.default_rng(seed).choice(rows,
quota, replace=False)``, bit for bit, taken from the package's own PCG64 copy
in :mod:`sitelasso.rng` so that a run never imports ``numpy.random``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MAX_ATTEMPTS = 1_000_000


@dataclass
class SitePlan:
    """Per-site train/validation index pairs (row ids into the dataset)."""

    site_id: str
    quota: int
    train: list  # list of sorted int arrays
    validation: list


@dataclass
class SplitPlan:
    """The shared cross-validation plan."""

    seed: int
    n_splits: int
    site_plans: dict  # site_id -> SitePlan

    @property
    def sites(self):
        return sorted(self.site_plans)

    def site_split(self, site_id, index):
        plan = self.site_plans[site_id]
        return plan.train[index], plan.validation[index]

    def combined_split(self, index):
        """Union of the per-site splits at one index, site-sorted."""
        train = np.concatenate([self.site_plans[s].train[index] for s in self.sites])
        valid = np.concatenate(
            [self.site_plans[s].validation[index] for s in self.sites]
        )
        return train, valid


def make_splits(data, quotas, n_splits=500, seed=0):
    """Draw the split plan for ``data``.

    Parameters
    ----------
    data : PointDataset
    quotas : mapping of site id to training-set size
        Every site in ``data`` needs an entry, 1 <= quota < site size.
    n_splits : int
    seed : int >= 0

    Raises
    ------
    ConfigError when the seed is negative, when a site cannot support
    ``n_splits`` distinct training sets (the combinatorial bound is reported)
    or when rejection sampling exceeds one million attempts.
    """
    # imported here, as sha256_file imports hashlib: transfer and synth never
    # draw splits, so they never load the module
    from .rng import DefaultRng

    if n_splits < 1:
        raise ConfigError(f"n_splits must be positive, got {n_splits}")
    sites = data.sites()
    missing = [s for s in sites if s not in quotas]
    if missing:
        raise ConfigError(f"no training quota for sites: {missing}")
    rng = DefaultRng(seed)
    site_plans = {}
    for site in sites:
        rows = data.site_rows(site)
        quota = int(quotas[site])
        if not 1 <= quota < rows.size:
            raise ConfigError(
                f"site {site}: quota {quota} must be in [1, {rows.size - 1}]"
            )
        distinct = math.comb(rows.size, quota)
        if distinct < n_splits:
            raise ConfigError(
                f"site {site}: only {distinct} distinct training sets of size "
                f"{quota} from {rows.size} rows, cannot build {n_splits} splits"
            )
        # free[r] is False while row r is in the drawn training set; rows are
        # sorted and unique, so rows[free[rows]] is np.setdiff1d(rows, pick),
        # without the np.unique call that imports numpy.ma (about 1.3 MB)
        free = np.ones(data.n_rows, dtype=bool)
        seen = set()
        train_sets = []
        valid_sets = []
        attempts = 0
        while len(train_sets) < n_splits:
            attempts += 1
            if attempts > MAX_ATTEMPTS:
                raise ConfigError(
                    f"site {site}: failed to draw {n_splits} unique splits "
                    f"in {MAX_ATTEMPTS} attempts"
                )
            pick = np.sort(rows[rng.choice(rows.size, quota)])
            key = pick.tobytes()
            if key in seen:
                continue
            seen.add(key)
            train_sets.append(pick)
            free[pick] = False
            valid_sets.append(rows[free[rows]])
            free[pick] = True
        site_plans[site] = SitePlan(site, quota, train_sets, valid_sets)
    return SplitPlan(seed=seed, n_splits=n_splits, site_plans=site_plans)


def plan_to_dict(plan):
    """JSON-ready form of a plan."""
    return {
        "seed": plan.seed,
        "n_splits": plan.n_splits,
        "sites": {
            site: {
                "quota": sp.quota,
                "train": [arr.tolist() for arr in sp.train],
                "validation": [arr.tolist() for arr in sp.validation],
            }
            for site, sp in plan.site_plans.items()
        },
    }
