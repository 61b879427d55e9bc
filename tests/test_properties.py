"""Property-based checks of the labeling invariants."""

import random

from hypothesis import given, settings
import hypothesis.strategies as st

from sqluq.ast_core import parse_sql, preorder
from sqluq.labeler import label_with_context

from querygen import (
    add_gold_only_material,
    flip_antisymmetric,
    random_draft,
    random_pair,
    rename_alias,
    swap_symmetric_operands,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def labels_of(gen_sql: str, gold_sql: str) -> dict[int, int]:
    return label_with_context(parse_sql(gen_sql), parse_sql(gold_sql))[0].labels


@PROPERTY_SETTINGS
@given(seeds)
def test_identity_labels_everything_correct(seed):
    sql = random_draft(random.Random(seed)).render()
    tree = parse_sql(sql)
    label_map = label_with_context(tree, parse_sql(sql))[0]
    assert set(label_map.labels.values()) == {0}
    assert set(label_map.labels) == {n.id for n in preorder(tree)}


@PROPERTY_SETTINGS
@given(seeds)
def test_symmetric_operand_swap_invariance(seed):
    rng = random.Random(seed)
    gen_sql = random_draft(rng).render()
    gold = random_draft(rng)
    swapped = swap_symmetric_operands(gold)
    assert labels_of(gen_sql, gold.render()) == labels_of(gen_sql, swapped.render())


@PROPERTY_SETTINGS
@given(seeds)
def test_antisymmetric_flip_invariance(seed):
    rng = random.Random(seed)
    gen_sql = random_draft(rng).render()
    gold = random_draft(rng)
    flipped = flip_antisymmetric(gold)
    assert labels_of(gen_sql, gold.render()) == labels_of(gen_sql, flipped.render())


@PROPERTY_SETTINGS
@given(seeds)
def test_alias_rename_invariance(seed):
    rng = random.Random(seed)
    gen_sql = random_draft(rng).render()
    gold = random_draft(rng, with_alias_prob=1.0)
    renamed = rename_alias(gold, "zz9")
    assert labels_of(gen_sql, gold.render()) == labels_of(gen_sql, renamed.render())


@PROPERTY_SETTINGS
@given(seeds)
def test_omission_neutrality(seed):
    rng = random.Random(seed)
    gen = random_draft(rng)
    gold = add_gold_only_material(gen, rng)
    labels = labels_of(gen.render(), gold.render())
    assert set(labels.values()) == {0}


@PROPERTY_SETTINGS
@given(seeds)
def test_monotone_rescue(seed):
    gen_sql, gold_sql = random_pair(random.Random(seed))
    gen = parse_sql(gen_sql)
    gold = parse_sql(gold_sql)
    with_rescue = label_with_context(gen, gold, enable_rescue=True)[0]
    without = label_with_context(gen, gold, enable_rescue=False)[0]
    assert with_rescue.error_ids() <= without.error_ids()
