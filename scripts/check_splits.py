#!/usr/bin/env python3
"""Check every split search of planted GBDT runs against the exact row scan.

For each seed, labels and featurizes a planted corpus and trains the
default 100-tree model on all its node rows.  The trainer grows its trees
on the distinct feature rows, each weighted by its count.  Every leaf it
searches is scanned again over its own distinct rows, sorted by each
column, for the best exact greedy split, with extended-precision running
sums of gradient, hessian and weight; a side is legal if its weight, the
training rows it holds, reaches ``min_samples_leaf``.  The histogram search
must find that best gain, its threshold must split the leaf's rows into two
legal sides, and the leaf's rows on either side must give the gain it
reported.  A gain is the left and right sides' G**2 / H less the leaf's, so
"equal" allows 1e-9 of the sum of those three terms of the best split.  A
search whose reported and best gains are both at or below the trainer's
noise floor (``_MIN_RELATIVE_GAIN * G**2 / H``) is rounding noise on both
sides and passes.  Exits 1 on any other mismatch.

    python3 scripts/check_splits.py [--pairs 2000] [--seeds 0 2]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sqluq import gbdt  # noqa: E402
from sqluq.pipeline import label_and_featurize  # noqa: E402
from sqluq.synth import SYNTH_SCHEMA, build_planted_corpus  # noqa: E402

EPS = gbdt._EPS_HESSIAN
TOLERANCE = 1e-9


def terms(gl, hl, G, H):
    """The three G**2 / H terms of a split's gain: left, right and leaf."""
    return gl**2 / (hl + EPS), (G - gl) ** 2 / (H - hl + EPS), G**2 / (H + EPS)


def split_gain(g, h, w, left, side):
    """Gain of sending the rows in ``left`` left, or None if a side is short."""
    n_left = w[left].sum()
    if n_left < side or w.sum() - n_left < side:
        return None
    left_obj, right_obj, leaf_obj = terms(g[left].sum(), h[left].sum(), g.sum(), h.sum())
    return left_obj + right_obj - leaf_obj


def exact_best(values, g, h, w, side):
    """(gain, scale) of the best split over every threshold between adjacent
    distinct values of each column, scanning the rows in sorted order with
    running sums added in extended precision; row i counts as w[i] rows.
    scale is the sum of the split's three terms, which bounds its rounding
    error; (-inf, 0) if no split is legal."""
    order = np.argsort(values, axis=0, kind="stable")
    vals = np.take_along_axis(values, order, axis=0)
    gl, hl, count = (np.cumsum(v.astype(np.longdouble)[order], axis=0).astype(np.float64)
                     for v in (g, h, w))
    left_obj, right_obj, leaf_obj = terms(gl[:-1], hl[:-1], gl[-1, 0], hl[-1, 0])
    n = count[-1, 0]
    count = count[:-1]
    legal = (vals[:-1] != vals[1:]) & (count >= side) & (n - count >= side)
    if not legal.any():
        return -np.inf, 0.0
    gains = np.where(legal, left_obj + right_obj - leaf_obj, -np.inf)
    best = np.unravel_index(np.argmax(gains), gains.shape)
    return float(gains[best]), float(left_obj[best] + right_obj[best] + leaf_obj)


def check_seed(seed: int, pairs: int) -> tuple[dict, list[str]]:
    labeled = [label_and_featurize(p.record, SYNTH_SCHEMA)
               for p in build_planted_corpus(pairs, seed=seed)]
    X = np.concatenate([np.stack([nr.features for nr in lq.node_records]) for lq in labeled])
    y = np.array([nr.label for lq in labeled for nr in lq.node_records], dtype=np.float64)
    config = gbdt.GbdtConfig()
    side = max(config.min_samples_leaf, 1)
    stats = {"rows": X.shape[0], "distinct": len({row.tobytes() for row in X}),
             "searches": 0, "none": 0, "both_noise": 0, "max_rel_diff": 0.0}
    bad: list[str] = []
    state = {"tree": -1}
    grow, best_split = gbdt._grow_tree, gbdt._best_split

    def traced_grow(distinct, bins, grad, hess, weight, config_):
        state.update(tree=state["tree"] + 1, distinct=distinct, grad=grad, hess=hess, weight=weight,
                     columns=bins.columns)
        return grow(distinct, bins, grad, hess, weight, config_)

    def traced_best_split(leaf, hist, bins, min_samples_leaf):
        best_split(leaf, hist, bins, min_samples_leaf)
        rows = leaf.rows
        g, h, w = state["grad"][rows], state["hess"][rows], state["weight"][rows]
        if w.sum() < 2 * min_samples_leaf:
            return
        stats["searches"] += 1
        distinct = state["distinct"]
        best, scale = exact_best(distinct[np.ix_(rows, state["columns"])], g, h, w, side)
        floor = gbdt._MIN_RELATIVE_GAIN * leaf.grad_sum**2 / (leaf.hess_sum + EPS)
        if leaf.gain <= floor and best <= floor:
            stats["none" if best == -np.inf and leaf.feature < 0 else "both_noise"] += 1
            return
        own = None
        if leaf.feature >= 0:
            own = split_gain(g, h, w, distinct[rows, leaf.feature] <= leaf.threshold, side)
        diff = abs(leaf.gain - best) / scale
        stats["max_rel_diff"] = max(stats["max_rel_diff"], diff)
        if own is None or diff > TOLERANCE or abs(own - leaf.gain) > TOLERANCE * scale:
            bad.append(f"seed {seed} tree {state['tree']}, leaf of {w.sum():g} rows: "
                       f"x[{leaf.feature}] <= {leaf.threshold} reports {leaf.gain!r}, "
                       f"its rows give {own!r}, exact best {best!r}")

    gbdt._grow_tree, gbdt._best_split = traced_grow, traced_best_split
    try:
        gbdt.train_matrix(X, y, config)
    finally:
        gbdt._grow_tree, gbdt._best_split = grow, best_split
    return stats, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=2000, help="planted pairs per seed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 2])
    args = ap.parse_args(argv)
    failed = 0
    for seed in args.seeds:
        stats, bad = check_seed(seed, args.pairs)
        print(f"seed {seed}: {stats['rows']} rows ({stats['distinct']} distinct), "
              f"{stats['searches']} leaf searches, "
              f"{stats['none']} with no legal split, {stats['both_noise']} noise on both sides, "
              f"largest difference {stats['max_rel_diff']:.2e} of the terms, "
              f"{len(bad)} mismatches")
        for line in bad[:20]:
            print("  " + line)
        failed += len(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
