"""Full-cover raster prediction from fitted ensembles.

A fitted ensemble is one raw-space linear function per site (see
:class:`~sitelasso.ensemble.LinearForm`): the intercept of the pixel's site
plus a slope times the raw value of each active term. A pixel evaluates
only the active terms, from its own covariate values, with the same
arithmetic as point prediction, so a pixel whose covariates equal a point's
covariates gets exactly the point's prediction. No pixel-by-term design is
built and no member is replayed, so the cost does not depend on the number
of splits.

Prediction runs a block of whole rows at a time (``pointdata.row_blocks``,
about 4,096 cells), so it holds the covariate rasters plus one block's
masks, gathered values and output, whatever the size of the grid.
:func:`prediction_rows` hands out the blocks as they are computed, and
``run`` writes each one to disk before the next
(``rasters.write_ascii_rows``). A caller that wants the whole raster in
memory stacks them: ``grid.with_values(np.vstack(list(blocks)))``. Sites
come from the site raster as int8 codes (:func:`sites_from_raster`); one
site everywhere is ``([name], codes)`` with every code 0.

A prediction is a list of stages whose values add up, each an ensemble and
the sites it applies at (``pipeline.MethodRun.stages``). Methods 1, 2 and 4
have one stage at every site; method 3 has stage 1 at the sites with a
stage 2, plus each site's stage 2 at that site alone. Every output pixel is
evaluated once per stage that applies at its site.

Output nodata is the union of the input nodata masks over the covariates the
stages actually read (unused rasters do not propagate nodata), plus the
site raster's mask when the prediction is site-specific.
"""

from typing import NamedTuple

import numpy as np

from .ensemble import LinearForm, linear_form
from .errors import DataError
from .pointdata import row_blocks

__all__ = [
    "check_registration",
    "prediction_rows",
    "site_specific",
    "sites_from_raster",
]


def _plain(value):
    return np.format_float_positional(value, trim="-")


def check_registration(grids):
    """Raise DataError unless every raster is co-registered with the first.

    ``grids`` holds ``(label, RasterGrid)`` pairs; a label is a file path or
    a covariate name. The error names the first raster that differs, its
    first header field that differs with both values, and the first raster.
    """
    for label, grid in grids[1:]:
        difference = grid.first_difference(grids[0][1])
        if difference is not None:
            key, value, expected = difference
            raise DataError(
                f"raster {label}: {key} {_plain(value)} differs from "
                f"{_plain(expected)} in {grids[0][0]}"
            )


def _reference_grid(rasters):
    """The output grid, the first covariate raster by name, once every
    raster is checked to be co-registered with it."""
    grids = [(name, rasters[name]) for name in sorted(rasters)]
    if not grids:
        raise DataError("at least one raster is required to define the output grid")
    check_registration(grids)
    return grids[0][1]


def sites_from_raster(site_grid, site_codes):
    """Per-pixel integer site codes from a coded site raster.

    ``site_codes`` maps raster cell value to site name. Returns
    ``(names, codes)``: the sorted site names and, per flat pixel, the index
    of its site in ``names`` (the smallest signed integer type that holds
    it), or -1 for a nodata cell. Any other unmapped value is an error,
    which names the smallest one.
    """
    if site_codes is None:
        raise DataError("a site raster needs site_codes to name its values")
    by_value = {float(k): v for k, v in site_codes.items()}
    names = sorted(set(by_value.values()))
    flat = site_grid.values.ravel()
    nodata = site_grid.nodata_mask().ravel()
    codes = np.full(flat.size, -1, dtype=np.min_scalar_type(-len(names)))
    mapped = nodata.copy()
    for value, name in by_value.items():
        hit = flat == value
        codes[hit] = names.index(name)
        mapped |= hit
    if not mapped.all():
        code = _plain(flat[~mapped].min())
        raise DataError(f"site raster value {code} has no site in the site_codes setting")
    codes[nodata] = -1
    return names, codes


def _check_covariates(form, rasters):
    for name in form.covariates:
        if name not in rasters:
            raise DataError(f"missing covariate raster {name!r}")
    return form


class _Part(NamedTuple):
    """One linear form of a prediction and the pixels it is evaluated at.

    ``index`` holds, per site code, the form's site index for pixels of that
    site, or -1 where the form is not evaluated; a last entry of -1 serves
    code -1, a site-raster nodata cell. The first part of a prediction is
    evaluated at every predicted pixel, and later parts add to it.
    """

    form: LinearForm
    index: np.ndarray
    covariates: list  # the form's, computed once


def _part(form, index):
    return _Part(form, np.array([*index, -1], dtype=np.intp), form.covariates)


def site_specific(stages):
    """Whether a prediction needs site codes: some stage applies at chosen
    sites only, or reads a site-scoped term."""
    return any(where is not None or linear_form(ens).sites for ens, where in stages)


def _has_pixels(codes, wanted):
    """Whether any pixel carries one of the site codes ``wanted``; the codes
    are searched in blocks, as the prediction reads them."""
    return any(
        (codes[block] == code).any()
        for code in wanted
        for block in row_blocks(codes.size, 1)
    )


def _parts(stages, rasters, sites):
    """(codes, parts) of a prediction; see :func:`prediction_rows`."""
    if sites is None:
        if site_specific(stages):
            raise DataError("this prediction is site-specific; pass sites=")
        forms = (_check_covariates(linear_form(ens), rasters) for ens, _ in stages)
        return None, [_part(form, [0]) for form in forms]
    names, codes = sites
    parts = []
    for k, (ensemble, where) in enumerate(stages):
        at = [where is None or name in where for name in names]
        # a later stage whose sites have no pixel is never evaluated and
        # needs no raster
        if k and not _has_pixels(codes, [code for code, on in enumerate(at) if on]):
            continue
        form = _check_covariates(linear_form(ensemble), rasters)
        index = [i if on else -1 for i, on in zip(form.site_index(names), at)]
        parts.append(_part(form, index))
    return codes, parts


def _rows(grid, rasters, codes, parts):
    """The prediction on ``grid``, one block of whole rows at a time.

    ``codes`` holds a site code per flat pixel, or None for one site code 0
    everywhere. For each block the covariates the parts read are sliced and
    their nodata masks built; a pixel is predicted when the first part
    applies at its site and no part that applies there misses a covariate.
    ``LinearForm.predict`` computes each pixel on its own, so the blocks do
    not change the bits.
    """
    # The print blocks serve prediction too: on a 1200x900 grid, 16,384-cell
    # prediction blocks took up to 10 % less CPU, but on pipebench's raster
    # workload they raised the peak RSS of `run` by 1.0 MB.
    names = sorted({name for part in parts for name in part.covariates})
    if codes is not None:
        codes = codes.reshape(grid.nrows, grid.ncols)
    for rows in row_blocks(grid.nrows, grid.ncols):
        values = {name: rasters[name].values[rows].ravel() for name in names}
        missing = {name: rasters[name].nodata_mask(rows).ravel() for name in names}
        size = grid.values[rows].size
        code = np.zeros(size, dtype=np.int8) if codes is None else codes[rows].ravel()
        index = [part.index[code] for part in parts]
        predicted = index[0] >= 0
        for part, where in zip(parts, index):
            applies = where >= 0
            for name in part.covariates:
                predicted &= ~(applies & missing[name])
        pixels = np.flatnonzero(predicted)
        out = np.full(size, grid.nodata)
        for k, (part, where) in enumerate(zip(parts, index)):
            own = pixels if k == 0 else pixels[where[pixels] >= 0]
            cov = {name: values[name][own] for name in part.covariates}
            value = part.form.predict_covariates(cov, where[own])
            if k == 0:
                out[own] = value
            else:
                out[own] += value
        yield out.reshape(-1, grid.ncols)


def prediction_rows(stages, rasters, sites=None):
    """Model-averaged prediction raster, as ``(grid, blocks)``.

    ``stages`` lists ``(ensemble, where)`` pairs whose predictions add up:
    ``where`` is the tuple of sites a stage applies at, or None for every
    site. A pixel is predicted where the first stage applies and no stage
    that applies there misses a covariate; a later stage whose sites have no
    pixel is skipped and needs no raster.

    ``rasters`` maps covariate name to a co-registered RasterGrid. ``grid``
    is the covariate raster whose header the output takes (the first by
    name) and ``blocks`` yields the output's rows in ``pointdata.row_blocks``
    order. Site identity (needed when :func:`site_specific` says so) comes
    from ``sites``, the ``(names, codes)`` that :func:`sites_from_raster`
    gives for a raster co-registered with ``rasters``; a pixel with code -1
    is nodata.
    """
    grid = _reference_grid(rasters)
    return grid, _rows(grid, rasters, *_parts(stages, rasters, sites))
