"""Property-based checks of the labeling invariants."""

import random

from hypothesis import given, settings
import hypothesis.strategies as st

from sqluq.ast_core import NodeKind, parse_sql, preorder
from sqluq.labeler import EquivalenceContext, label_with_context, recursively_equivalent
from sqluq.synth import build_planted_corpus

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


class _NoKeys(dict):
    """A key map in which every node has key 0, so no pair is rejected by
    key and equivalence is decided by its recursive definition alone."""

    def __missing__(self, node_id):
        return 0


def equivalent_pairs_share_keys(gen_sql: str, gold_sql: str):
    """Assert that every recursively equivalent (generated, gold) node pair
    has equal subtree keys; return the keyed context and the equivalent pairs."""
    gen, gold = parse_sql(gen_sql), parse_sql(gold_sql)
    keyed = label_with_context(gen, gold)[1]
    plain = EquivalenceContext(keyed.gen_aliases, keyed.gold_aliases, _NoKeys(), _NoKeys())
    pairs = []
    for a in preorder(gen):
        for b in preorder(gold):
            if recursively_equivalent(a, b, plain):
                assert keyed.gen_keys[a.id] == keyed.gold_keys[b.id], (gen_sql, gold_sql, a, b)
                pairs.append((a, b))
    return keyed, pairs


KEY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@KEY_SETTINGS
@given(seeds)
def test_subtree_keys_are_sound_under_gold_transforms(seed):
    rng = random.Random(seed)
    draft = random_draft(rng, with_alias_prob=0.7)
    for gold in (
        swap_symmetric_operands(draft),
        flip_antisymmetric(draft),
        rename_alias(draft, "zz9"),
        add_gold_only_material(draft, rng),
    ):
        equivalent_pairs_share_keys(draft.render(), gold.render())


def test_subtree_keys_are_sound_on_planted_pairs():
    for pair in build_planted_corpus(50, seed=0):
        equivalent_pairs_share_keys(pair.record.generated_sql, pair.record.gold_sql)


def matched(pairs):
    return {(a.kind, b.kind, a.content, b.content) for a, b in pairs}


def test_key_of_qualified_column_under_an_alias():
    _, pairs = equivalent_pairs_share_keys("SELECT x.a FROM t AS x", "SELECT a FROM t")
    assert (NodeKind.COLUMN, NodeKind.COLUMN, "a", "a") in matched(pairs)
    # the qualifier x resolves to the table name t: equal across contents
    assert (NodeKind.IDENTIFIER, NodeKind.IDENTIFIER, "x", "t") in matched(pairs)


def test_key_of_flipped_comparison():
    _, pairs = equivalent_pairs_share_keys(
        "SELECT * FROM t WHERE a > b", "SELECT * FROM t WHERE b < a"
    )
    assert (NodeKind.GT, NodeKind.LT, None, None) in matched(pairs)


def test_key_of_and_with_an_extra_gold_operand():
    _, pairs = equivalent_pairs_share_keys(
        "SELECT * FROM t WHERE a = 1 AND b = 2",
        "SELECT * FROM t WHERE b = 2 AND c = 3 AND a = 1",
    )
    assert (NodeKind.AND, NodeKind.AND, None, None) in matched(pairs)


def test_key_of_literal_holds_its_flags():
    gen_sql = "SELECT * FROM t WHERE a = '1' AND b = NULL AND c = 'x'"
    gold_sql = "SELECT * FROM t WHERE a = 1 AND b = 'null' AND c = 'x'"
    keyed, pairs = equivalent_pairs_share_keys(gen_sql, gold_sql)
    assert [(a.content, b.content) for a, b in pairs if a.kind is NodeKind.LITERAL] == [
        ("x", "x")
    ]
    literals = [
        [n for n in preorder(parse_sql(sql)) if n.kind is NodeKind.LITERAL]
        for sql in (gen_sql, gold_sql)
    ]
    # equal contents, different flags: a string is not a number or NULL
    for a, b in zip(*literals):
        assert a.content == b.content
        assert (keyed.gen_keys[a.id] == keyed.gold_keys[b.id]) == (a.flags == b.flags)
