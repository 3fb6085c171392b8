"""Full-cover raster prediction from fitted ensembles.

A fitted ensemble is one raw-space linear function per site (see
:class:`~sitelasso.ensemble.LinearForm`): the intercept of the pixel's site
plus a slope times the raw value of each active term. A pixel evaluates
only the active terms, from its own covariate values, with the same
arithmetic as point prediction, so a pixel whose covariates equal a point's
covariates gets exactly the point's prediction. No pixel-by-term design is
built and no member is replayed, so the cost does not depend on the number
of splits. Pixels are gathered and evaluated in fixed-size blocks, so memory
does not grow with the number of covariates times the number of pixels.
Sites come from the site raster as integer codes.

Method 3's two-stage raster is stage 1 plus the stage-2 function of each
pixel's own site; every output pixel is evaluated once per stage.

Output nodata is the union of the input nodata masks over the covariates the
ensemble actually reads (unused rasters do not propagate nodata), plus the
site raster's mask when the prediction is site-specific.
"""

import numpy as np

from .ensemble import linear_form
from .errors import DataError

__all__ = [
    "check_registration",
    "predict_raster",
    "predict_raster_two_stage",
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


def _reference_grid(rasters, site_grid):
    """The output grid, the first covariate raster by name or else the site
    raster, once every raster is checked to be co-registered with it."""
    grids = [(name, rasters[name]) for name in sorted(rasters)]
    if site_grid is not None:
        grids.append(("site_grid", site_grid))
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


def _nodata(form, rasters, npix):
    """Flat mask of the pixels where a covariate the form reads has no data."""
    bad = np.zeros(npix, dtype=bool)
    for name in form.covariates:
        if name not in rasters:
            raise DataError(f"missing covariate raster {name!r}")
        bad |= rasters[name].nodata_mask().ravel()
    return bad


# Pixels gathered and evaluated per block. On a 400x300 grid, an m4 form with 36
# terms over 5 covariates evaluated in 0.070 s with a 7.1 MB tracemalloc peak
# at this size, against 0.084 s and 14.1 MB with one block for all pixels;
# 1,024-pixel blocks took 0.095 s, and 65,536-pixel blocks peaked at 10.5 MB.
# On the benchmark's raster workload, `run` peaks at 53.6 MB RSS with blocks
# and 59.2 MB without (8 of 8 alternating pairs).
_BLOCK_PIXELS = 1 << 14


def _evaluate(form, rasters, pixels, site_index):
    """The form at the given flat pixels; site_index aligns with them.

    Pixels are gathered and evaluated in fixed-size blocks, so only a block's
    covariates and term values are held at once. ``LinearForm.predict``
    computes each row on its own, so the blocks do not change the bits.
    """
    flat = {name: rasters[name].values.ravel() for name in form.covariates}
    out = np.empty(pixels.size)
    for start in range(0, pixels.size, _BLOCK_PIXELS):
        block = slice(start, start + _BLOCK_PIXELS)
        cov = {name: values[pixels[block]] for name, values in flat.items()}
        out[block] = form.predict_covariates(cov, site_index[block])
    return out


def predict_raster(ensemble, rasters, site=None, site_grid=None, site_codes=None):
    """Model-averaged prediction raster for one ensemble.

    ``rasters`` maps covariate name to a co-registered RasterGrid. Site
    identity (needed only when the ensemble carries site-scoped terms) comes
    either from ``site`` (one name for every pixel) or from ``site_grid`` +
    ``site_codes``; with a site raster, its nodata cells are nodata.
    """
    ref = _reference_grid(rasters, site_grid)
    form = linear_form(ensemble)
    npix = ref.nrows * ref.ncols
    bad = _nodata(form, rasters, npix)

    if site is not None and site_grid is not None:
        raise DataError("give either a constant site or a site raster, not both")
    site_index = np.zeros(npix, dtype=np.intp)
    if site is not None:
        site_index[:] = form.site_index([site])[0]
    elif site_grid is not None:
        names, codes = sites_from_raster(site_grid, site_codes)
        bad |= codes < 0
        # code -1 picks the last name's index, but those cells are bad
        site_index = form.site_index(names)[codes]
    elif form.sites:
        raise DataError(
            "this ensemble has site-scoped terms; pass site= or site_grid="
        )

    valid = np.flatnonzero(~bad)
    out = np.full(npix, ref.nodata)
    out[valid] = _evaluate(form, rasters, valid, site_index[valid])
    return ref.with_values(out.reshape(ref.nrows, ref.ncols))


def predict_raster_two_stage(
    stage1_ensemble, stage2_by_site, rasters, site_grid, site_codes
):
    """Prediction raster for a base ensemble plus per-site residual stages.

    Each pixel gets stage 1 plus the stage-2 ensemble of its own site.
    Pixels whose site is unknown (site-raster nodata) or has no stage 2 are
    nodata, as are pixels missing a covariate either stage reads.
    """
    ref = _reference_grid(rasters, site_grid)
    names, codes = sites_from_raster(site_grid, site_codes)
    stage1 = linear_form(stage1_ensemble)
    valid = np.flatnonzero(~((codes < 0) | _nodata(stage1, rasters, codes.size)))
    out = np.full(codes.size, ref.nodata)
    for code, name in enumerate(names):
        own = valid[codes[valid] == code]
        if name not in stage2_by_site or own.size == 0:
            continue
        stage2 = linear_form(stage2_by_site[name])
        own = own[~_nodata(stage2, rasters, codes.size)[own]]
        index1 = np.full(own.size, stage1.site_index([name])[0])
        index2 = np.full(own.size, stage2.site_index([name])[0])
        out[own] = _evaluate(stage1, rasters, own, index1) + _evaluate(
            stage2, rasters, own, index2
        )
    return ref.with_values(out.reshape(ref.nrows, ref.ncols))
