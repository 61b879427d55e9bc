"""Property-based checks of the labeling invariants."""

import random

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from sqluq import labeler
from sqluq.ast_core import NodeKind, parse_sql, preorder
from sqluq.corpus import CASES
from sqluq.labeler import (
    CORRECT,
    ERROR,
    EquivalenceContext,
    Provenance,
    _pair_children,
    label_with_context,
    recursively_equivalent,
)
from sqluq.synth import build_planted_corpus

from test_golden import SCOPED_PAIRS, wide_deep_pairs
from tokens import tokenize
from querygen import (
    TABLES,
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
    assert {n for n, lab in with_rescue.labels.items() if lab} <= {
        n for n, lab in without.labels.items() if lab}


# Blanks and comments put between tokens.  Some hold non-ASCII text, as does
# the literal 'röd', which moves every later byte offset off its character offset.
GAPS = (" ", "\t", "\r\n", "\n  ", "/**/", " /* é */ ", "-- é ü\n", "--\n", "/* x\n ß */")


def respace(sql: str, rng: random.Random) -> tuple[str, list[tuple[int, str]]]:
    """`sql` with a random gap between its tokens and before and after them,
    and each keyword in a random case; with each token's byte start and
    lexeme in the new text.  Names keep their case, which their flags record."""
    data = sql.encode()
    text, tokens = rng.choice(("",) + GAPS), []
    for tok in tokenize(sql)[:-1]:
        lexeme = data[tok.start:tok.end].decode()
        if tok.kind == "kw":
            lexeme = rng.choice((str.lower, str.upper, str.capitalize))(lexeme)
        tokens.append((len(text.encode()), lexeme))
        text += lexeme + rng.choice(GAPS)
    return text, tokens


def tree_shape(tree):
    return [(n.kind, n.content, n.flags, n.depth, len(n.children)) for n in preorder(tree)]


@PROPERTY_SETTINGS
@given(seeds)
def test_blanks_comments_and_keyword_case_leave_the_tree_alone(seed):
    rng = random.Random(seed)
    sql = random_draft(rng, with_alias_prob=0.5).render().replace("'red'", "'röd'")
    text, tokens = respace(sql, rng)
    tree, moved = parse_sql(sql), parse_sql(text)
    assert tree_shape(moved) == tree_shape(tree)
    # each span starts at the new start of the token that began it, and ends
    # at the new end of the token that ended it
    old = tokenize(sql)[:-1]
    old_first = {tok.start: k for k, tok in enumerate(old)}
    old_last = {tok.end: k for k, tok in enumerate(old)}
    data = text.encode()
    for node, new in zip(preorder(tree), preorder(moved)):
        start, lexeme = tokens[old_first[node.span[0]]]
        last_start, last_lexeme = tokens[old_last[node.span[1]]]
        assert new.span == (start, last_start + len(last_lexeme.encode()))
        assert data[new.span[0]:new.span[1]].decode().startswith(lexeme)


class _NoKeys(dict):
    """A key map in which every node has key 0, so no pair is rejected by
    key and equivalence is decided by its recursive definition alone."""

    def __missing__(self, node_id):
        return 0


def equivalent_pairs_share_keys(gen_sql: str, gold_sql: str):
    """Assert that every recursively equivalent (generated, gold) node pair
    has equal subtree keys, and that each Alias wrapper has the key of the
    node it wraps; return the keyed context and the equivalent pairs.  The
    wrappers themselves are not compared: the checks take the wrapped node."""
    gen, gold = parse_sql(gen_sql), parse_sql(gold_sql)
    keyed = label_with_context(gen, gold)[1]
    unwrapped = []
    for tree, keys in ((gen, keyed.gen_keys), (gold, keyed.gold_keys)):
        unwrapped.append([n for n in preorder(tree) if n.kind is not NodeKind.ALIAS])
        for w in preorder(tree):
            if w.kind is NodeKind.ALIAS:
                assert keys[w.id] == keys[w.children[0].id], (gen_sql, gold_sql, w)
    plain = EquivalenceContext(keyed.gen_aliases, keyed.gold_aliases, _NoKeys(), _NoKeys())
    pairs = []
    for a in unwrapped[0]:
        for b in unwrapped[1]:
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


def test_subtree_keys_are_sound_under_alias_wrappers():
    roots = []
    for gen_sql, gold_sql in ALIASED_ITEM_PAIRS:
        for pair in ((gen_sql, gold_sql), (gold_sql, gen_sql)):
            _, pairs = equivalent_pairs_share_keys(*pair)
            roots.append(any(a.id == b.id == 0 for a, b in pairs))
    # every pair but the first, whose select items change order, matches at the root
    assert roots == [False, False, True, True, True, True, True, True]


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


def exact_pairs_agree_with_recursion(gen_sql: str, gold_sql: str) -> int:
    """Assert that no And, Or, Identifier or qualified Column is exact, and
    that for every (generated, gold) pair of exact nodes, equal keys agree
    with the recursive definition alone; return the pairs with equal keys.
    Alias wrappers sit out: the checks take the node a wrapper holds."""
    gen, gold = parse_sql(gen_sql), parse_sql(gold_sql)
    keyed = label_with_context(gen, gold)[1]
    exact = []
    for tree, ids in ((gen, keyed.gen_exact), (gold, keyed.gold_exact)):
        nodes = [n for n in preorder(tree) if n.id in ids and n.kind is not NodeKind.ALIAS]
        for n in nodes:
            assert n.kind not in (NodeKind.AND, NodeKind.OR, NodeKind.IDENTIFIER), (gen_sql, n)
            assert n.kind is not NodeKind.COLUMN or n.qualifier is None, (gen_sql, n)
        exact.append(nodes)
    plain = EquivalenceContext(keyed.gen_aliases, keyed.gold_aliases, _NoKeys(), _NoKeys())
    equal_keys = 0
    for a in exact[0]:
        for b in exact[1]:
            equal = keyed.gen_keys[a.id] == keyed.gold_keys[b.id]
            assert equal == recursively_equivalent(a, b, plain), (gen_sql, gold_sql, a, b)
            equal_keys += equal
    return equal_keys


@KEY_SETTINGS
@given(seeds)
def test_exact_keys_settle_only_what_recursion_would_on_random_pairs(seed):
    rng = random.Random(seed)
    exact_pairs_agree_with_recursion(*random_pair(rng))
    draft = random_draft(rng, with_alias_prob=0.7)
    for gold in (swap_symmetric_operands(draft), flip_antisymmetric(draft),
                 rename_alias(draft, "zz9"), add_gold_only_material(draft, rng)):
        exact_pairs_agree_with_recursion(draft.render(), gold.render())


def test_exact_keys_settle_only_what_recursion_would_on_fixed_pairs():
    planted = [(p.record.generated_sql, p.record.gold_sql) for p in build_planted_corpus(50, seed=0)]
    equal_keys = 0
    for gen_sql, gold_sql in planted + list(ALIASED_ITEM_PAIRS) + list(SCOPED_PAIRS):
        equal_keys += exact_pairs_agree_with_recursion(gen_sql, gold_sql)
        equal_keys += exact_pairs_agree_with_recursion(gold_sql, gen_sql)
    assert equal_keys > 0


def forward_first_pass(gen, gold) -> dict[int, int]:
    """The first pass by its definition: a visit to an equivalent pair marks
    the whole generated subtree correct; any other visit blames the generated
    node and visits every generated x gold pair of their children, in order.
    The last write to a node wins."""
    ctx = label_with_context(gen, gold)[1]
    written = {}

    def align(x, g):
        if recursively_equivalent(x, g, ctx):
            written.update((d.id, CORRECT) for d in preorder(x))
            return
        written[x.id] = ERROR
        for c in _pair_children(x):
            for h in _pair_children(g):
                align(c, h)

    align(gen, gold)
    return written


def assert_first_pass_is_forward(gen_sql: str, gold_sql: str):
    """With rescue off, every label the first pass leaves standing is the
    forward definition's, a suppressed node was blamed or never written by
    it (suppression clears both), and a node left Initial was never written
    by it."""
    gen, gold = parse_sql(gen_sql), parse_sql(gold_sql)
    lm = label_with_context(gen, gold, enable_rescue=False)[0]
    written = forward_first_pass(gen, gold)
    for node in preorder(gen):
        if node.kind is NodeKind.ALIAS:
            continue
        prov, why = lm.provenance[node.id], (gen_sql, gold_sql, node)
        if prov is Provenance.FIRST_PASS:
            assert lm.labels[node.id] == written[node.id], why
        elif prov is Provenance.SUPPRESSED:
            assert written.get(node.id, ERROR) == ERROR, why
        else:
            assert prov is Provenance.INITIAL and node.id not in written, why


@PROPERTY_SETTINGS
@given(seeds)
def test_first_pass_matches_forward_definition_on_random_pairs(seed):
    assert_first_pass_is_forward(*random_pair(random.Random(seed)))


@KEY_SETTINGS
@given(seeds)
def test_first_pass_matches_forward_definition_under_gold_transforms(seed):
    rng = random.Random(seed)
    draft = random_draft(rng, with_alias_prob=0.7)
    for other in (
        swap_symmetric_operands(draft),
        flip_antisymmetric(draft),
        rename_alias(draft, "zz9"),
        add_gold_only_material(draft, rng),
    ):
        assert_first_pass_is_forward(draft.render(), other.render())
        assert_first_pass_is_forward(other.render(), draft.render())


def aliased_and_bare_from_lists(rng: random.Random) -> tuple[str, str]:
    tables = rng.sample(sorted(TABLES), rng.randint(1, 3))
    aliases = {t: f"a{i}" for i, t in enumerate(tables)}
    cols = [(t, c) for t in tables for c in TABLES[t]]
    picked = rng.sample(cols, rng.randint(1, min(4, len(cols))))
    where = rng.sample(cols, rng.randint(0, min(3, len(cols))))

    def render(aliased, order):
        ref = (lambda t, c: f"{aliases[t]}.{c}") if aliased else (lambda t, c: c)
        from_list = [f"{t} AS {aliases[t]}" if aliased else t for t in order]
        sql = f"SELECT {', '.join(ref(t, c) for t, c in picked)} FROM {', '.join(from_list)}"
        if where:
            sql += " WHERE " + " AND ".join(f"{ref(t, c)} = {i}" for i, (t, c) in enumerate(where))
        return sql

    order = list(tables)
    rng.shuffle(order)
    return render(True, tables), render(False, order)


def shuffled_and_with_one_change(rng: random.Random) -> tuple[str, str]:
    preds = [
        f"{rng.choice(['c1', 'c2', 'x.c3'])} {rng.choice(['=', '>', '<='])} {rng.randint(0, 3)}"
        for _ in range(rng.randint(2, 7))
    ]
    gold = list(preds)
    rng.shuffle(gold)
    gen = list(preds)
    gen[rng.randrange(len(gen))] = f"c2 != {rng.randint(0, 3)}"
    return (
        f"SELECT c1 FROM t1 AS x WHERE {' AND '.join(gen)}",
        f"SELECT c1 FROM t1 AS x WHERE {' AND '.join(gold)}",
    )


def generated_children_under_a_gold_leaf(rng: random.Random) -> tuple[str, str]:
    leaf = rng.choice(["c1", "1", "'red'", "*"])
    grown = rng.choice([f"max({leaf})", f"{leaf} + 1", f"f({leaf}, c2)", "(SELECT c1 FROM t1)"])
    if leaf == "*":
        grown = rng.choice(["count(*)", "t1.c1"])
    where = rng.choice(["", " WHERE c1 = 1", " WHERE c1 = 1 AND c2 = c1"])
    return f"SELECT {grown}, c2 FROM t1{where}", f"SELECT {leaf}, c2 FROM t1{where}"


def nested_in_subqueries(rng: random.Random) -> tuple[str, str]:
    depth = rng.randint(1, 6)
    changed = rng.randrange(depth + 1)

    def render(change):
        sql = f"SELECT c1 FROM t1 WHERE c1 = {9 if change and changed == depth else 0}"
        for level in reversed(range(depth)):
            col = "c2" if change and level == changed else "c1"
            sql = f"SELECT {col} FROM t{level % 3 + 1} WHERE c1 IN ({sql})"
        return sql

    return render(True), render(False)


@pytest.mark.parametrize(
    "shape",
    [
        aliased_and_bare_from_lists,
        shuffled_and_with_one_change,
        generated_children_under_a_gold_leaf,
        nested_in_subqueries,
    ],
)
def test_first_pass_matches_forward_definition_on_fixed_shapes(shape):
    rng = random.Random(0)
    for _ in range(60):
        gen_sql, gold_sql = shape(rng)
        assert_first_pass_is_forward(gen_sql, gold_sql)
        assert_first_pass_is_forward(gold_sql, gen_sql)


def calls_under_the_equivalence_contract(gen_sql: str, gold_sql: str) -> list[tuple]:
    """Label a pair with labeler.recursively_equivalent and
    labeler.shallow_equivalent wrapped, and assert that every call gets a
    generated node and a gold node, neither an Alias wrapper, each keyed in
    its own tree.  The recursive calls go through the module globals, so the
    wrappers see them too.  Returns the (check, generated, gold) calls."""
    gen, gold = parse_sql(gen_sql), parse_sql(gold_sql)
    in_gen, in_gold = {id(n) for n in preorder(gen)}, {id(n) for n in preorder(gold)}
    calls = []

    def wrapped(check):
        def under_contract(a, b, ctx):
            why = (check.__name__, gen_sql, gold_sql, a, b)
            assert a.kind is not NodeKind.ALIAS and b.kind is not NodeKind.ALIAS, why
            assert id(a) in in_gen and a.id in ctx.gen_keys, why
            assert id(b) in in_gold and b.id in ctx.gold_keys, why
            calls.append((check.__name__, a, b))
            return check(a, b, ctx)
        return under_contract

    with pytest.MonkeyPatch.context() as patch:
        for name in ("recursively_equivalent", "shallow_equivalent"):
            patch.setattr(labeler, name, wrapped(getattr(labeler, name)))
        label_with_context(gen, gold)
    return calls


@PROPERTY_SETTINGS
@given(seeds)
def test_equivalence_contract_on_random_pairs(seed):
    rng = random.Random(seed)
    calls_under_the_equivalence_contract(*random_pair(rng))
    draft = random_draft(rng, with_alias_prob=0.7)
    for other in (flip_antisymmetric(draft), rename_alias(draft, "zz9"),
                  add_gold_only_material(draft, rng)):
        calls_under_the_equivalence_contract(draft.render(), other.render())
        calls_under_the_equivalence_contract(other.render(), draft.render())


# select items under Alias wrappers, on either side or both
ALIASED_ITEM_PAIRS = (
    ("SELECT a AS x, b FROM t WHERE a = 1", "SELECT b, a AS y FROM t WHERE 1 = a"),
    ("SELECT max(a) AS m FROM t GROUP BY b", "SELECT max(a) FROM t GROUP BY b"),
    ("SELECT a FROM t", "SELECT a AS a FROM t"),
    ("SELECT s.v FROM (SELECT a + 1 AS v FROM t) AS s", "SELECT v FROM (SELECT 1 + a AS v FROM t)"),
)


@pytest.mark.parametrize("source", ["corpus", "scoped", "aliased-items", "wide-deep"])
def test_equivalence_contract_on_fixed_pairs(source):
    pairs = {
        "corpus": lambda: [(case.generated, case.gold) for case in CASES],
        "scoped": lambda: SCOPED_PAIRS,
        "aliased-items": lambda: ALIASED_ITEM_PAIRS,
        "wide-deep": wide_deep_pairs,
    }[source]()
    checks = set()
    for gen_sql, gold_sql in pairs:
        for pair in ((gen_sql, gold_sql), (gold_sql, gen_sql)):
            checks.update(name for name, *_ in calls_under_the_equivalence_contract(*pair))
    assert checks == {"recursively_equivalent", "shallow_equivalent"}
