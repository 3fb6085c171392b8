"""JSON round-trip of fitted ensembles plus run-directory manifest helpers.

Floats serialize via Python's repr (shortest exact round-trip), so loading an
artifact reproduces the ensemble bit-for-bit — including the content-hashed
transform ids that transfer evaluation verifies.
"""

import hashlib
import json
import os

import numpy as np

from .ensemble import Ensemble
from .errors import DataError
from .models import SelectedModel
from .standardize import StandardizationTransform
from .terms import parse_term_id

ARTIFACT_KIND = "ensemble"
ARTIFACT_VERSION = 1


def ensemble_to_dict(ensemble):
    return {
        "kind": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "terms": [t.term_id for t in ensemble.terms],
        "split_plan_ref": ensemble.split_plan_ref,
        "weights": ensemble.weights.tolist(),
        "models": [
            {
                "intercept": m.intercept,
                "coef": dict(m.coef),
                "validation_sse": m.validation_sse,
                "transform_ref": m.transform_ref,
            }
            for m in ensemble.models
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
    term_ids = set(payload["terms"])
    models = []
    for body, transform in zip(payload["models"], transforms):
        model = SelectedModel(
            intercept=float(body["intercept"]),
            coef={str(k): float(v) for k, v in body["coef"].items()},
            subset_size=len(body["coef"]),
            validation_sse=float(body["validation_sse"]),
            transform_ref=str(body["transform_ref"]),
        )
        unknown = sorted(set(model.coef) - term_ids)
        if unknown:
            raise DataError(
                f"ensemble artifact has coefficients for unknown terms {unknown[:8]}"
            )
        if model.transform_ref != transform.transform_id:
            raise DataError(
                "ensemble artifact is inconsistent: a model references "
                f"transform {model.transform_ref} but its stored transform "
                f"hashes to {transform.transform_id}"
            )
        models.append(model)
    if len(models) != len(transforms):
        raise DataError("ensemble artifact has mismatched model/transform counts")
    return Ensemble(
        models=models,
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


def write_json(path, payload):
    """Deterministic JSON: sorted keys, newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
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
