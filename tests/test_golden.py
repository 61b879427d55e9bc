"""Golden hashes of labels, provenance and feature matrices.

A change that keeps behaviour keeps these hashes.  A deliberate change to
labels or to the feature manifest changes them, and the new values go in
with the change that explains them.

Each hash is a SHA-256 over a fixed serialization: one text line per
node for labels and provenance, and the little-endian float64 bytes of
each query's feature matrix for features.
"""

import hashlib

import numpy as np
import pytest

from sqluq.corpus import run_corpus
from sqluq.featurizer import MANIFEST
from sqluq.pipeline import label_and_featurize
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus

CORPUS_LABELS_SHA256 = "545b9f819d418699e96631990fd8bfef8255025fa716e9b60406dc497939e15c"
PLANTED_LABELS_SHA256 = "86461670083729b35dfba24d1b3af71ca695e747a7a4d05f22951928000d1235"
PLANTED_FEATURES_SHA256 = "dff240cc1466549ae580df778317fd050d3967d1b8f4409e35fad1c7e23a5ce5"


@pytest.fixture(scope="module")
def planted():
    return [
        label_and_featurize(pair.record, SYNTH_SCHEMA)
        for pair in build_planted_corpus(300, seed=0)
    ]


def test_manifest_has_the_papers_89_columns():
    assert MANIFEST.length == 89


def test_corpus_labels_and_provenance():
    digest = hashlib.sha256()
    for res in run_corpus():
        labels, provenance = res.label_map.labels, res.label_map.provenance
        for nid in sorted(labels):
            line = f"{res.case.num} {nid} {labels[nid]} {provenance[nid].value}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == CORPUS_LABELS_SHA256


def test_planted_labels_and_provenance(planted):
    digest = hashlib.sha256()
    for lq in planted:
        for nr, prov in zip(lq.node_records, lq.label_provenance):
            digest.update(f"{nr.query_id} {nr.node_id} {nr.label} {prov}\n".encode())
    assert digest.hexdigest() == PLANTED_LABELS_SHA256


def test_planted_feature_matrices(planted):
    digest = hashlib.sha256()
    for lq in planted:
        matrix = np.stack([nr.features for nr in lq.node_records])
        digest.update(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    assert digest.hexdigest() == PLANTED_FEATURES_SHA256
