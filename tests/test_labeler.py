from sqluq.ast_core import NodeKind, parse_sql, preorder
from sqluq.labeler import (
    Provenance,
    error_descriptors,
    label_with_context,
    recursively_equivalent,
    shallow_equivalent,
)


def ctx_for(gen_sql, gold_sql):
    gen = parse_sql(gen_sql)
    gold = parse_sql(gold_sql)
    return gen, gold, label_with_context(gen, gold)[1]


def find(tree, kind, content=None):
    for node in preorder(tree):
        if node.kind is kind and (content is None or node.content == content):
            return node
    raise AssertionError(f"no {kind} node with content {content!r}")


class TestShallowEquivalence:
    def test_antisymmetric_pair_swapped_mode(self):
        gen, gold, ctx = ctx_for(
            "SELECT * FROM t WHERE a > b", "SELECT * FROM t WHERE b < a"
        )
        gt = find(gen, NodeKind.GT)
        lt = find(gold, NodeKind.LT)
        assert shallow_equivalent(gt, lt, ctx)

    def test_function_name_mismatch(self):
        gen, gold, ctx = ctx_for("SELECT max(x) FROM t", "SELECT sum(x) FROM t")
        ok = shallow_equivalent(find(gen, NodeKind.AGG), find(gold, NodeKind.AGG), ctx)
        assert not ok

    def test_qualified_vs_unqualified_column(self):
        gen, gold, ctx = ctx_for(
            "SELECT a.name FROM artist AS a", "SELECT name FROM artist"
        )
        ok = shallow_equivalent(
            find(gen, NodeKind.COLUMN), find(gold, NodeKind.COLUMN), ctx
        )
        assert ok

    def test_qualifiers_resolving_to_same_base_table(self):
        gen, gold, ctx = ctx_for(
            "SELECT x.name FROM artist AS x", "SELECT a.name FROM artist AS a"
        )
        ok = shallow_equivalent(
            find(gen, NodeKind.COLUMN), find(gold, NodeKind.COLUMN), ctx
        )
        assert ok

    def test_unresolvable_qualifier_differs(self):
        gen, gold, ctx = ctx_for(
            "SELECT b.name FROM artist AS a", "SELECT a.name FROM artist AS a"
        )
        ok = shallow_equivalent(
            find(gen, NodeKind.COLUMN), find(gold, NodeKind.COLUMN), ctx
        )
        assert not ok

    def test_literal_string_vs_number_distinct(self):
        gen, gold, ctx = ctx_for(
            "SELECT * FROM t WHERE a = '1'", "SELECT * FROM t WHERE a = 1"
        )
        ok = shallow_equivalent(
            find(gen, NodeKind.LITERAL), find(gold, NodeKind.LITERAL), ctx
        )
        assert not ok

    def test_symmetric_kinds_offer_both_modes(self):
        gen, gold, ctx = ctx_for(
            "SELECT * FROM t WHERE a = b", "SELECT * FROM t WHERE b = a"
        )
        assert shallow_equivalent(find(gen, NodeKind.EQ), find(gold, NodeKind.EQ), ctx)


class TestRecursiveEquivalence:
    def test_symmetric_swap(self):
        gen, gold, ctx = ctx_for(
            "SELECT * FROM t WHERE a = b", "SELECT * FROM t WHERE b = a"
        )
        assert recursively_equivalent(find(gen, NodeKind.EQ), find(gold, NodeKind.EQ), ctx)

    def test_antisymmetric_flip(self):
        gen, gold, ctx = ctx_for(
            "SELECT * FROM t WHERE a > b", "SELECT * FROM t WHERE b < a"
        )
        assert recursively_equivalent(find(gen, NodeKind.GT), find(gold, NodeKind.LT), ctx)

    def test_antisymmetric_without_swap_differs(self):
        gen, gold, ctx = ctx_for(
            "SELECT * FROM t WHERE a > b", "SELECT * FROM t WHERE a < b"
        )
        assert not recursively_equivalent(
            find(gen, NodeKind.GT), find(gold, NodeKind.LT), ctx
        )

    def test_same_asymmetric_kind_never_swaps(self):
        for gen_sql, gold_sql, kind in (
            ("SELECT * FROM t WHERE a > b", "SELECT * FROM t WHERE b > a", NodeKind.GT),
            ("SELECT a - b FROM t", "SELECT b - a FROM t", NodeKind.SUB),
        ):
            gen, gold, ctx = ctx_for(gen_sql, gold_sql)
            assert not recursively_equivalent(find(gen, kind), find(gold, kind), ctx)

    def test_identity_whole_tree(self):
        gen, gold, ctx = ctx_for("SELECT name FROM people", "SELECT name FROM people")
        assert recursively_equivalent(gen, gold, ctx)

    def test_nary_and_order_free(self):
        gen, gold, ctx = ctx_for(
            "SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3",
            "SELECT * FROM t WHERE c = 3 AND a = 1 AND b = 2",
        )
        assert recursively_equivalent(gen, gold, ctx)

    def test_projection_order_sensitive(self):
        gen, gold, ctx = ctx_for("SELECT a, b FROM t", "SELECT b, a FROM t")
        assert not recursively_equivalent(gen, gold, ctx)

    def test_memo_hits_during_labeling_of_repeated_subexpressions(self):
        gen = parse_sql("SELECT * FROM t WHERE a = 1 AND a = 1 AND b = 9")
        gold = parse_sql("SELECT * FROM t WHERE a = 1 AND a = 1 AND b = 2")
        _, ctx = label_with_context(gen, gold)
        assert ctx.hits > 0
        assert ctx.misses > 0


class TestAlignAndLabel:
    def test_identity_labels_all_correct(self):
        for sql in (
            "SELECT name FROM people",
            "SELECT a, sum(b) FROM t GROUP BY a HAVING sum(b) > 3 ORDER BY a LIMIT 1",
            "SELECT x.v FROM (SELECT v FROM t1) AS x WHERE x.v IN (1, 2)",
        ):
            tree = parse_sql(sql)
            lm = label_with_context(tree, parse_sql(sql))[0]
            assert set(lm.labels.values()) == {0}
            assert set(lm.labels) == {n.id for n in preorder(tree)}

    def test_wrong_table_blames_table_and_identifier(self):
        gen = parse_sql("SELECT name FROM artists")
        gold = parse_sql("SELECT name FROM artist")
        lm = label_with_context(gen, gold)[0]
        assert sorted(error_descriptors(gen, lm)) == [
            ("Identifier", "artists"),
            ("Table", "artists"),
        ]

    def test_wrong_literal_blames_literal_only(self):
        gen = parse_sql("SELECT * FROM t WHERE a = 1")
        lm = label_with_context(gen, parse_sql("SELECT * FROM t WHERE a = 2"))[0]
        assert error_descriptors(gen, lm) == [("Literal", "1")]

    def test_inserted_order_by_blamed_with_children(self):
        gen = parse_sql("SELECT * FROM t ORDER BY a")
        lm = label_with_context(gen, parse_sql("SELECT * FROM t"))[0]
        assert sorted(error_descriptors(gen, lm)) == [
            ("Column", "a"),
            ("Identifier", "a"),
            ("OrderBy", None),
            ("Ordered", None),
        ]

    def test_inserted_join_blamed(self):
        gen = parse_sql("SELECT a FROM t JOIN s ON t.x = s.x")
        gold = parse_sql("SELECT a FROM t")
        lm = label_with_context(gen, gold)[0]
        join = find(gen, NodeKind.JOIN)
        assert lm.labels[join.id] == 1

    def test_inserted_limit_blamed(self):
        gen = parse_sql("SELECT a FROM t LIMIT 3")
        gold = parse_sql("SELECT a FROM t")
        lm = label_with_context(gen, gold)[0]
        limit = find(gen, NodeKind.LIMIT)
        assert lm.labels[limit.id] == 1

    def test_wholly_inserted_where_container_stays_blamed(self):
        gen = parse_sql("SELECT a FROM t WHERE a = 1")
        gold = parse_sql("SELECT a FROM t")
        lm = label_with_context(gen, gold)[0]
        where = find(gen, NodeKind.WHERE)
        assert lm.labels[where.id] == 1

    def test_provenance_values(self):
        gen = parse_sql("SELECT name FROM artists")
        gold = parse_sql("SELECT name FROM artist")
        lm = label_with_context(gen, gold)[0]
        provs = {lm.provenance[n.id] for n in preorder(gen)}
        assert Provenance.SUPPRESSED in provs
        assert Provenance.RESCUED in provs
        assert Provenance.FIRST_PASS in provs

    def test_label_map_domain_is_exactly_gen_nodes(self):
        gen = parse_sql("SELECT a FROM t")
        gold = parse_sql("SELECT a, b, c FROM t WHERE a = 1 ORDER BY b")
        lm = label_with_context(gen, gold)[0]
        assert set(lm.labels) == {n.id for n in preorder(gen)}
        assert set(lm.labels.values()) == {0}

    def test_select_item_alias_mirrors_wrapped_expression(self):
        gen = parse_sql("SELECT wage AS w FROM emp")
        gold = parse_sql("SELECT salary AS s FROM emp")
        lm = label_with_context(gen, gold)[0]
        alias = find(gen, NodeKind.ALIAS)
        col = find(gen, NodeKind.COLUMN, "wage")
        assert lm.labels[alias.id] == lm.labels[col.id] == 1

    def test_alias_wrapper_correct_when_expression_correct(self):
        gen = parse_sql("SELECT salary AS w FROM emp")
        gold = parse_sql("SELECT salary FROM emp")
        lm = label_with_context(gen, gold)[0]
        assert set(lm.labels.values()) == {0}

    def test_alias_wrapper_takes_its_expressions_provenance(self):
        cases = [
            ("SELECT a = 1 AS f FROM t", "SELECT a = 2 FROM t", Provenance.SUPPRESSED),
            ("SELECT name AS n FROM artists", "SELECT name FROM artist", Provenance.RESCUED),
        ]
        for gen_sql, gold_sql, why in cases:
            gen = parse_sql(gen_sql)
            lm = label_with_context(gen, parse_sql(gold_sql))[0]
            alias = find(gen, NodeKind.ALIAS)
            assert (lm.labels[alias.id], lm.provenance[alias.id]) == (0, why)
            inner = alias.children[0]
            assert (lm.labels[inner.id], lm.provenance[inner.id]) == (0, why)


class TestRescueAblation:
    def test_monotone_rescue(self):
        cases = [
            ("SELECT name FROM artists", "SELECT name FROM artist"),
            ("SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a = 2"),
            ("SELECT a, b FROM t ORDER BY a", "SELECT b FROM s"),
        ]
        for gen_sql, gold_sql in cases:
            gen = parse_sql(gen_sql)
            gold = parse_sql(gold_sql)
            with_rescue = label_with_context(gen, gold, enable_rescue=True)[0]
            without = label_with_context(gen, gold, enable_rescue=False)[0]
            assert {n for n, lab in with_rescue.labels.items() if lab} <= {
                n for n, lab in without.labels.items() if lab}

    def test_rescue_off_overblames_documented_siblings(self):
        gen = parse_sql("SELECT * FROM t WHERE a = 1")
        gold = parse_sql("SELECT * FROM t WHERE a = 2")
        without = label_with_context(gen, gold, enable_rescue=False)[0]
        blamed = set(error_descriptors(gen, without))
        assert {("Star", None), ("Table", "t"), ("Column", "a")} <= blamed

    def test_rescue_off_identity_still_clean(self):
        gen = parse_sql("SELECT name FROM people")
        lm = label_with_context(gen, parse_sql("SELECT name FROM people"), enable_rescue=False)[0]
        assert set(lm.labels.values()) == {0}


class TestFirstPassLastWriteWins:
    """The first pass visits every generated x gold child pair, and the last
    visit to write a node decides it, so a node an identical gold sibling
    cleared can be blamed again by a later pair.  Rescue is off here so the
    first pass's own labels show."""

    @staticmethod
    def first_pass(gen_sql, gold_sql):
        gen = parse_sql(gen_sql)
        lm = label_with_context(gen, parse_sql(gold_sql), enable_rescue=False)[0]
        return [
            (n.kind.value, n.content, lm.labels[n.id], lm.provenance[n.id].value)
            for n in preorder(gen)
        ]

    def test_changed_literal_blames_the_other_clauses_leaves(self):
        assert self.first_pass(
            "SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"
        ) == [
            ("Select", None, 0, "Suppressed"),
            ("Column", "a", 1, "FirstPass"),
            ("Identifier", "a", 0, "FirstPass"),
            ("From", None, 0, "Suppressed"),
            ("Table", "t", 1, "FirstPass"),
            ("Identifier", "t", 0, "FirstPass"),
            ("Where", None, 0, "Suppressed"),
            ("Eq", None, 0, "Suppressed"),
            ("Column", "x", 1, "FirstPass"),
            ("Identifier", "x", 0, "FirstPass"),
            ("Literal", "1", 1, "FirstPass"),
        ]

    def test_swapped_projections_blame_columns_not_their_identifiers(self):
        assert self.first_pass("SELECT a, b FROM t", "SELECT b, a FROM t") == [
            ("Select", None, 0, "Suppressed"),
            ("Column", "a", 1, "FirstPass"),
            ("Identifier", "a", 0, "FirstPass"),
            ("Column", "b", 1, "FirstPass"),
            ("Identifier", "b", 0, "FirstPass"),
            ("From", None, 0, "FirstPass"),
            ("Table", "t", 0, "FirstPass"),
            ("Identifier", "t", 0, "FirstPass"),
        ]

    def test_identifier_no_pair_reaches_stays_initial(self):
        assert self.first_pass("SELECT a FROM t", "SELECT b FROM t") == [
            ("Select", None, 0, "Suppressed"),
            ("Column", "a", 1, "FirstPass"),
            ("Identifier", "a", 1, "Initial"),
            ("From", None, 0, "FirstPass"),
            ("Table", "t", 0, "FirstPass"),
            ("Identifier", "t", 0, "FirstPass"),
        ]


class TestEquivalenceCheckBounds:
    """Labeling cost as a count of memo misses, not as a time: wide and
    chained pairs stay within a few checks per generated node."""

    @staticmethod
    def misses_per_node(gen_sql, gold_sql):
        gen = parse_sql(gen_sql)
        lm, ctx = label_with_context(gen, parse_sql(gold_sql))
        return lm, gen, ctx.misses / len(preorder(gen))

    def test_wide_pair_with_one_literal_changed(self):
        cols = [f"c{i:03d}" for i in range(400)]
        preds = [f"{c} = {i}" for i, c in enumerate(cols)]
        gen_preds = list(preds)
        gen_preds[200] = f"{cols[200]} = 99999"

        def render(p):
            return f"SELECT {', '.join(cols)} FROM t WHERE {' AND '.join(p)}"

        lm, gen, per_node = self.misses_per_node(render(gen_preds), render(preds))
        assert per_node <= 4
        assert error_descriptors(gen, lm) == [("And", None), ("Literal", "99999")]

    def test_chain_with_a_misspelled_middle_term(self):
        terms = ["a"] * 150
        gold_sql = f"SELECT {' + '.join(terms)} FROM t"
        terms[75] = "ax"
        lm, gen, per_node = self.misses_per_node(f"SELECT {' + '.join(terms)} FROM t", gold_sql)
        assert per_node <= 4
        assert ("Column", "ax") in error_descriptors(gen, lm)
