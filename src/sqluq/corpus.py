"""Curated generated/gold SQL pairs with hand-checked node-level blame.

Each case pins down one behaviour of the labeling rules: early stop on
full-subtree equivalence, container suppression, operator symmetry and
anti-symmetry, alias normalization, insertion vs. omission handling, and
the global rescue pass.  Cases 2-6 depend on the rescue pass: running
them with rescue disabled must fail, while all other cases still pass.

Expected blame is expressed as (kind, content) descriptors.  A case may
list tolerated extras: nodes that a rescue-disabled run is allowed to
over-blame because they are equivalent to some gold node (the rescue
pass reclassifies them whenever it is enabled).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from sqluq import labeler
from sqluq.ast_core import parse_sql
from sqluq.labeler import LabelMap, error_descriptors

Descriptor = tuple[str, str | None]


@dataclass(frozen=True)
class CorpusCase:
    num: int
    name: str
    generated: str
    gold: str
    required: tuple[Descriptor, ...]
    tolerated_extras: tuple[Descriptor, ...] = ()
    needs_rescue: bool = False  # expected to fail when rescue is disabled


CASES: tuple[CorpusCase, ...] = (
    CorpusCase(
        num=1,
        name="perfect_match",
        generated="SELECT name FROM people",
        gold="SELECT name FROM people",
        required=(),
    ),
    CorpusCase(
        num=2,
        name="wrong_table_name",
        generated="SELECT name FROM artists",
        gold="SELECT name FROM artist",
        required=(("Table", "artists"), ("Identifier", "artists")),
        needs_rescue=True,
    ),
    CorpusCase(
        num=3,
        name="wrong_literal",
        generated="SELECT * FROM t WHERE a = 1",
        gold="SELECT * FROM t WHERE a = 2",
        required=(("Literal", "1"),),
        needs_rescue=True,
    ),
    CorpusCase(
        num=4,
        name="wrong_operator",
        generated="SELECT * FROM t WHERE a > 1",
        gold="SELECT * FROM t WHERE a = 1",
        required=(("Gt", None),),
        needs_rescue=True,
    ),
    CorpusCase(
        num=5,
        name="inserted_order_by",
        generated="SELECT * FROM t ORDER BY a",
        gold="SELECT * FROM t",
        required=(
            ("OrderBy", None),
            ("Ordered", None),
            ("Column", "a"),
            ("Identifier", "a"),
        ),
        needs_rescue=True,
    ),
    CorpusCase(
        num=6,
        name="omitted_order_by",
        generated="SELECT * FROM t",
        gold="SELECT * FROM t ORDER BY a",
        required=(),
        needs_rescue=True,
    ),
    CorpusCase(
        num=7,
        name="symmetric_operand_swap",
        generated="SELECT * FROM t WHERE a = b",
        gold="SELECT * FROM t WHERE b = a",
        required=(),
    ),
    CorpusCase(
        num=8,
        name="antisymmetric_operator_flip",
        generated="SELECT * FROM t WHERE a > b",
        gold="SELECT * FROM t WHERE b < a",
        required=(),
    ),
    CorpusCase(
        num=9,
        name="alias_renamed",
        generated="SELECT x.name FROM artist AS x",
        gold="SELECT a.name FROM artist AS a",
        required=(),
    ),
    CorpusCase(
        num=10,
        name="unused_alias_declaration",
        generated="SELECT name FROM artist AS a",
        gold="SELECT name FROM artist",
        required=(),
    ),
    CorpusCase(
        num=11,
        name="qualified_vs_unqualified_column",
        generated="SELECT a.name FROM artist AS a",
        gold="SELECT name FROM artist",
        required=(),
    ),
    CorpusCase(
        num=12,
        name="wrong_base_table_behind_alias",
        generated="SELECT name FROM albums AS a",
        gold="SELECT name FROM artist AS a",
        required=(("Table", "albums"), ("Identifier", "albums")),
        tolerated_extras=(("Column", "name"), ("Identifier", "name")),
    ),
    CorpusCase(
        num=13,
        name="wrong_alias_in_column_qualifier",
        generated="SELECT b.name FROM artist AS a",
        gold="SELECT a.name FROM artist AS a",
        required=(("Column", "name"), ("Identifier", "b")),
    ),
)


@dataclass
class CaseResult:
    case: CorpusCase
    blamed: tuple[Descriptor, ...]
    passed: bool
    exact: bool
    label_map: LabelMap


def check_case(case: CorpusCase, enable_rescue: bool = True) -> CaseResult:
    """Label one pair and compare the blamed set against the expectation."""
    gen = parse_sql(case.generated)
    gold = parse_sql(case.gold)
    label_map, _ = labeler.label_with_context(gen, gold, enable_rescue=enable_rescue)
    blamed = tuple(error_descriptors(gen, label_map))
    blamed_counts = Counter(blamed)
    required_counts = Counter(case.required)
    missing = required_counts - blamed_counts
    extras = blamed_counts - required_counts
    allowed = set(case.tolerated_extras)
    passed = not missing and all(d in allowed for d in extras)
    exact = blamed_counts == required_counts
    return CaseResult(case=case, blamed=blamed, passed=passed, exact=exact, label_map=label_map)


def run_corpus(enable_rescue: bool = True) -> list[CaseResult]:
    return [check_case(case, enable_rescue=enable_rescue) for case in CASES]
