"""Full-cover raster prediction from fitted ensembles.

A fitted ensemble is one raw-space linear function per site (see
:class:`~sitelasso.ensemble.LinearForm`): the intercept of the pixel's site
plus a slope times the raw value of each active term. A pixel evaluates
only the active terms, from its own covariate values, with the same
arithmetic as point prediction, so a pixel whose covariates equal a point's
covariates gets exactly the point's prediction. No pixel-by-term design is
built and no member is replayed, so the cost does not depend on the number
of splits. Sites come from the site raster as integer codes.

Method 3's two-stage raster is stage 1 plus the stage-2 function of each
pixel's own site; every output pixel is evaluated once per stage.

Output nodata is the union of the input nodata masks over the covariates the
ensemble actually reads (unused rasters do not propagate nodata), plus the
site raster's mask when the prediction is site-specific.
"""

import numpy as np

from .ensemble import linear_form
from .errors import DataError

__all__ = ["predict_raster", "predict_raster_two_stage", "sites_from_raster"]


def _reference_grid(rasters, site_grid):
    for name in sorted(rasters):
        return rasters[name]
    if site_grid is not None:
        return site_grid
    raise DataError("at least one raster is required to define the output grid")


def _check_registration(rasters, site_grid, ref):
    for name in sorted(rasters):
        if not rasters[name].same_grid(ref):
            raise DataError(f"raster {name!r} is not co-registered with the others")
    if site_grid is not None and not site_grid.same_grid(ref):
        raise DataError("site raster is not co-registered with the covariate rasters")


def sites_from_raster(site_grid, site_codes):
    """Per-pixel integer site codes from a coded site raster.

    ``site_codes`` maps raster cell value to site name. Returns
    ``(names, codes)``: the sorted site names and, per flat pixel, the index
    of its site in ``names``, or -1 for a nodata cell. Any other unmapped
    value is an error.
    """
    if site_codes is None:
        raise DataError("a site raster needs site_codes to name its values")
    by_value = {float(k): v for k, v in site_codes.items()}
    names = sorted(set(by_value.values()))
    flat = site_grid.values.ravel()
    known = ~site_grid.nodata_mask().ravel()
    values, inverse = np.unique(flat[known], return_inverse=True)
    lookup = []
    for value in values:
        name = by_value.get(float(value))
        if name is None:
            raise DataError(f"site raster value {value!r} has no site mapping")
        lookup.append(names.index(name))
    codes = np.full(flat.size, -1, dtype=np.intp)
    codes[known] = np.asarray(lookup, dtype=np.intp)[inverse]
    return names, codes


def _nodata(form, rasters, npix):
    """Flat mask of the pixels where a covariate the form reads has no data."""
    bad = np.zeros(npix, dtype=bool)
    for name in form.covariates:
        if name not in rasters:
            raise DataError(f"missing covariate raster {name!r}")
        bad |= rasters[name].nodata_mask().ravel()
    return bad


def _evaluate(form, rasters, pixels, site_index):
    """The form at the given flat pixels; site_index aligns with them."""
    cov = {name: rasters[name].values.ravel()[pixels] for name in form.covariates}
    return form.predict_covariates(cov, site_index)


def predict_raster(ensemble, rasters, site=None, site_grid=None, site_codes=None):
    """Model-averaged prediction raster for one ensemble.

    ``rasters`` maps covariate name to a co-registered RasterGrid. Site
    identity (needed only when the ensemble carries site-scoped terms) comes
    either from ``site`` (one name for every pixel) or from ``site_grid`` +
    ``site_codes``; with a site raster, its nodata cells are nodata.
    """
    ref = _reference_grid(rasters, site_grid)
    _check_registration(rasters, site_grid, ref)
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
    _check_registration(rasters, site_grid, ref)
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
