"""JSON round-trip of fitted ensembles plus run-directory manifest helpers.

Floats serialize via Python's repr (shortest exact round-trip), so loading an
artifact reproduces the ensemble bit-for-bit — including the content-hashed
transform ids that transfer evaluation verifies.
"""

import json
import os

import numpy as np

from .ensemble import Ensemble
from .errors import DataError
from .standardize import StandardizationTransform
from .terms import parse_term_id

ARTIFACT_KIND = "ensemble"
ARTIFACT_VERSION = 1


def ensemble_to_dict(ensemble):
    members = zip(
        ensemble.intercepts.tolist(),
        ensemble.coefs.tolist(),
        ensemble.sses.tolist(),
        ensemble.transforms,
    )
    ids = ensemble.column_ids
    return {
        "kind": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "terms": ids,
        "split_plan_ref": ensemble.split_plan_ref,
        "weights": ensemble.weights.tolist(),
        "models": [
            {
                "intercept": intercept,
                "coef": {cid: c for cid, c in zip(ids, coefs) if c != 0},
                "validation_sse": sse,
                "transform_ref": transform.transform_id,
            }
            for intercept, coefs, sse, transform in members
        ],
        "transforms": [
            {
                "means": t.means.tolist(),
                "norms": t.norms.tolist(),
                "dropped": [int(d) for d in t.dropped],
                "n_training_rows": t.n_training_rows,
            }
            for t in ensemble.transforms
        ],
        "validation_rows": [rows.tolist() for rows in ensemble.validation_rows],
        "validation_errors": [err.tolist() for err in ensemble.validation_errors],
    }


def ensemble_from_dict(payload):
    if payload.get("kind") != ARTIFACT_KIND:
        raise DataError("not an ensemble artifact")
    if payload.get("version") != ARTIFACT_VERSION:
        raise DataError(f"unsupported ensemble artifact version {payload.get('version')!r}")
    terms = [parse_term_id(tid) for tid in payload["terms"]]
    transforms = [
        StandardizationTransform(
            terms=terms,
            means=np.asarray(body["means"], dtype=np.float64),
            norms=np.asarray(body["norms"], dtype=np.float64),
            dropped=np.asarray(body["dropped"], dtype=bool),
            n_training_rows=int(body["n_training_rows"]),
        )
        for body in payload["transforms"]
    ]
    models = payload["models"]
    maps = [body["coef"] for body in models]
    position = {tid: j for j, tid in enumerate(payload["terms"])}
    unknown = sorted({cid for coef in maps for cid in coef} - set(position))
    if unknown:
        raise DataError(
            f"ensemble artifact has coefficients for unknown terms {unknown[:8]}"
        )
    coefs = np.zeros((len(models), len(terms)))
    member = np.repeat(np.arange(len(models)), [len(coef) for coef in maps])
    column = [position[cid] for coef in maps for cid in coef]
    coefs[member, column] = [float(c) for coef in maps for c in coef.values()]
    ensemble = Ensemble(
        intercepts=np.array([float(body["intercept"]) for body in models]),
        coefs=coefs,
        sses=np.array([float(body["validation_sse"]) for body in models]),
        transforms=transforms,
        weights=np.asarray(payload["weights"], dtype=np.float64),
        terms=terms,
        split_plan_ref=str(payload["split_plan_ref"]),
        validation_errors=[
            np.asarray(e, dtype=np.float64) for e in payload["validation_errors"]
        ],
        validation_rows=[
            np.asarray(r, dtype=np.intp) for r in payload["validation_rows"]
        ],
    )
    for body, transform in zip(models, transforms):
        if body["transform_ref"] != transform.transform_id:
            raise DataError(
                "ensemble artifact is inconsistent: a model references "
                f"transform {body['transform_ref']} but its stored transform "
                f"hashes to {transform.transform_id}"
            )
    return ensemble


def write_json(path, payload):
    """Deterministic JSON: sorted keys, newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# Bytes hashed per read. Once prediction rasters are written a block of rows
# at a time, 1 MiB reads made the manifest the peak of `run` on pipebench's
# raster workload (48.4 MB of RSS sampled in the process, against 47.6 MB
# while writing the rasters); with 64 KiB reads it adds no peak of its own,
# and hashing that run's 11.7 MB of outputs took 0.025-0.032 s, against
# 0.038-0.047 s with 1 MiB reads.
_HASH_BYTES = 1 << 16


def sha256_file(path):
    # hashlib is imported here, not at module level: it loads OpenSSL (3.4-3.7
    # MB of RSS), and only run, synth and verify_manifest hash files. run
    # draws its splits without numpy.random, so this load, at manifest time,
    # is now the peak of run's RSS. Files stay on OpenSSL's SHA-256, which
    # hashes about 1.2 GB/s against about 0.2 GB/s for CPython's built-in
    # _sha256, and a raster set-up hashes 31 MB.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_HASH_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(run_dir, config_echo, extra=None):
    """Manifest with the effective config and a hash of every output file."""
    outputs = {}
    for root, _dirs, files in os.walk(run_dir):
        for name in sorted(files):
            full = os.path.join(root, name)
            rel = os.path.relpath(full, run_dir)
            if rel == "manifest.json":
                continue
            outputs[rel.replace(os.sep, "/")] = sha256_file(full)
    manifest = {"config": config_echo, "outputs": outputs}
    if extra:
        manifest.update(extra)
    return manifest


def verify_manifest(run_dir):
    """Re-hash a run directory against its manifest; returns mismatches."""
    manifest = read_json(os.path.join(run_dir, "manifest.json"))
    mismatches = []
    for rel, expected in manifest.get("outputs", {}).items():
        full = os.path.join(run_dir, rel)
        if not os.path.exists(full):
            mismatches.append(f"{rel}: missing")
        elif sha256_file(full) != expected:
            mismatches.append(f"{rel}: hash changed")
    return mismatches
