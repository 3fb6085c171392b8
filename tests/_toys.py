"""Shared builders for small two-site datasets and configs used across test modules."""

import os
import re

import numpy as np

from sitelasso.pointdata import PointDataset


def two_site_data(seed=0, n_a=22, n_b=18, p=4, noise=0.05, shift=0.0, scale_a=1.0):
    """Smooth-ish signal over p covariates with a mild site offset.

    ``shift`` moves site A's covariate c0 by a constant; ``scale_a`` widens
    site A's c0 spread. The response mixes a linear and a quadratic effect so
    lasso paths have something real to find.
    """
    rng = np.random.default_rng(seed)
    n = n_a + n_b
    sites = np.array(["A"] * n_a + ["B"] * n_b, dtype=object)
    cov = rng.normal(size=(n, p))
    cov[:n_a, 0] = cov[:n_a, 0] * scale_a + shift
    y = (
        1.5
        + 2.0 * cov[:, 0]
        + 0.8 * cov[:, 0] ** 2
        + 1.2 * cov[:, 1]
        + noise * rng.normal(size=n)
    )
    return PointDataset(
        sites,
        rng.uniform(0, 100, size=n),
        rng.uniform(0, 100, size=n),
        y,
        [f"c{j}" for j in range(p)],
        cov,
    )


def quickstart_config(directory, name, **values):
    """A copy of configs/<name> in ``directory`` with the given settings replaced."""
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    with open(os.path.join(configs, name), encoding="utf-8") as handle:
        text = handle.read()
    for key, value in values.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1, key
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def assembled(grid, blocks):
    """A streamed prediction's whole raster: its row blocks, stacked under the
    header of ``grid``; call it as ``assembled(*prediction_rows(...))``."""
    return grid.with_values(np.vstack(list(blocks)))
