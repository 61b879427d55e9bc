"""Synthetic corpora with planted node-level errors.

Gold queries are generated over a small fixed retail schema, then a
mutation (table typo, column swap, column typo, literal change, or
operator flip) is applied at a known site.  Each mutation uses content
that appears nowhere in the gold query, so the expected blamed node set
is fully determined: the mutated node plus, for name errors, its
identifier child.  This supports end-to-end checks of both the labeling
rules and the trained classifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from sqluq import labeler
from sqluq.ast_core import parse_sql, preorder
from sqluq.pipeline import DatasetRecord
from sqluq.schema import ColumnDef, DataType as _DT, Schema, TableDef

SYNTH_DB_ID = "retail_synth"


def _T(name: str, cols: list[tuple[str, _DT]]) -> TableDef:
    return TableDef(name=name, columns=tuple(ColumnDef(n, t) for n, t in cols))

SYNTH_SCHEMA = Schema(
    db_id=SYNTH_DB_ID,
    tables=(
        _T("store", [("store_id", _DT.NUMERIC), ("city", _DT.TEXT),
                     ("opened", _DT.DATE), ("size_sqm", _DT.NUMERIC)]),
        _T("product", [("product_id", _DT.NUMERIC), ("title", _DT.TEXT),
                       ("price", _DT.NUMERIC), ("category", _DT.TEXT)]),
        _T("sale", [("sale_id", _DT.NUMERIC), ("amount", _DT.NUMERIC),
                    ("sold_on", _DT.DATE), ("quantity", _DT.NUMERIC),
                    ("channel", _DT.TEXT)]),
        _T("customer", [("customer_id", _DT.NUMERIC), ("full_name", _DT.TEXT),
                        ("segment", _DT.TEXT), ("joined", _DT.DATE)]),
        _T("region", [("region_id", _DT.NUMERIC), ("label", _DT.TEXT),
                      ("population", _DT.NUMERIC)]),
    ),
)

_DEFAULT_WEIGHTS = {
    "none": 0.25,
    "table_typo": 0.19,
    "column_swap": 0.19,
    "column_typo": 0.15,
    "literal_break": 0.14,
    "literal_tweak": 0.04,
    "operator_flip": 0.04,
}

_OPS = ("=", ">", "<", ">=", "<=", "!=")
_OP_KIND = {"=": "Eq", "!=": "Neq", ">": "Gt", "<": "Lt", ">=": "Gte", "<=": "Lte"}
_AGGS = ("count", "sum", "avg", "min", "max")


@dataclass
class _Predicate:
    column: str
    op: str
    literal: str  # rendered SQL literal


@dataclass
class _QueryDraft:
    table: str
    projections: list[str]  # column names or "AGG(col)" / "count(*)"
    predicates: list[_Predicate] = field(default_factory=list)
    group_by: str | None = None
    order_by: str | None = None
    limit: int | None = None

    def render(self) -> str:
        parts = ["SELECT " + ", ".join(self.projections), f"FROM {self.table}"]
        if self.predicates:
            parts.append(
                "WHERE " + " AND ".join(f"{p.column} {p.op} {p.literal}" for p in self.predicates)
            )
        if self.group_by:
            parts.append(f"GROUP BY {self.group_by}")
        if self.order_by:
            parts.append(f"ORDER BY {self.order_by}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass
class PlantedPair:
    record: DatasetRecord
    mutation: str  # one of _DEFAULT_WEIGHTS's keys
    expected_error_ids: frozenset[int]  # node ids in the parsed generated tree


def _literal_for(schema: Schema, table: str, column: str, rng: random.Random) -> str:
    dtype = schema.column_type(table, column)
    if dtype is _DT.TEXT:
        return "'" + rng.choice(["north", "east", "retail", "online", "gold", "basic"]) + "'"
    if dtype is _DT.DATE:
        return f"'20{rng.randint(10, 24):02d}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}'"
    return str(rng.randint(1, 500))


def _draft_query(schema: Schema, rng: random.Random) -> _QueryDraft:
    table = rng.choice([t.name for t in schema.tables])
    columns = [c.name for c in schema.table(table).columns]
    rng.shuffle(columns)
    n_proj = rng.randint(1, min(3, len(columns)))
    proj_cols = columns[:n_proj]
    projections: list[str] = list(proj_cols)
    group_by = None
    if rng.random() < 0.3:
        numeric = [
            c.name
            for c in schema.table(table).columns
            if c.data_type is _DT.NUMERIC and c.name not in proj_cols
        ]
        if numeric:
            agg = rng.choice(_AGGS)
            projections.append("count(*)" if agg == "count" else f"{agg}({numeric[0]})")
            group_by = proj_cols[0]
    draft = _QueryDraft(table=table, projections=projections, group_by=group_by)
    remaining = [c for c in columns[n_proj:] if c not in draft.projections]
    for _ in range(rng.randint(0, 2)):
        if not remaining:
            break
        col = remaining.pop()
        draft.predicates.append(
            _Predicate(column=col, op=rng.choice(_OPS), literal=_literal_for(schema, table, col, rng))
        )
    if rng.random() < 0.35:
        draft.order_by = rng.choice(proj_cols)
    if rng.random() < 0.25:
        draft.limit = rng.randint(1, 20)
    return draft


def _gold_tokens(draft: _QueryDraft) -> set[str]:
    return set(draft.render().casefold().replace("(", " ").replace(")", " ").replace(",", " ").split())


def _mutate(
    draft: _QueryDraft, schema: Schema, rng: random.Random, kind: str
) -> tuple[_QueryDraft, str, tuple] | None:
    """Apply one mutation; returns (mutant, kind, locator) or None if the
    draft has no applicable site.  The locator finds the planted nodes in
    the parsed generated tree."""
    # a mutation replaces a predicate, never changes one, so the copy
    # shares them
    gen = replace(draft, projections=list(draft.projections), predicates=list(draft.predicates))
    used = _gold_tokens(draft)

    if kind == "table_typo":
        typo = draft.table + "zz"
        if typo in used:
            return None
        gen.table = typo
        return gen, kind, ("content", typo)

    if kind in ("column_typo", "column_swap"):
        sites = [(i, p) for i, p in enumerate(gen.projections) if "(" not in p]
        sites += [(("pred", i), p.column) for i, p in enumerate(gen.predicates)]
        if not sites:
            return None
        site, col = sites[rng.randrange(len(sites))]
        if kind == "column_typo":
            replacement = col + "x"
            if replacement in used or schema.has_column(replacement):
                return None
        else:
            foreign = [
                c.name
                for t in schema.tables
                if t.name != draft.table
                for c in t.columns
                if c.name.casefold() not in used and not schema.has_column(c.name, draft.table)
            ]
            if not foreign:
                return None
            replacement = rng.choice(sorted(set(foreign)))
        _apply_column(gen, site, replacement)
        return gen, kind, ("content", replacement)

    if kind in ("literal_break", "literal_tweak"):
        if not gen.predicates:
            return None
        i = rng.randrange(len(gen.predicates))
        pred = gen.predicates[i]
        if kind == "literal_break":
            # off-type literal: numbers become strings and vice versa
            new_lit = "'zzq'" if not pred.literal.startswith("'") else "987654"
        else:
            new_lit = "770077" if not pred.literal.startswith("'") else "'qqzz'"
        if new_lit.strip("'") in used:
            return None
        gen.predicates[i] = _Predicate(pred.column, pred.op, new_lit)
        return gen, kind, ("content", new_lit.strip("'"))

    if kind == "operator_flip":
        if not gen.predicates:
            return None
        i = rng.randrange(len(gen.predicates))
        pred = gen.predicates[i]
        flips = {"=": "!=", "!=": "=", ">": "<", "<": ">", ">=": "<=", "<=": ">="}
        new_op = flips[pred.op]
        # the flipped kind must be unique in the query so the planted node
        # is unambiguous, and absent from gold so rescue cannot clear it
        gold_ops = {p.op for p in draft.predicates}
        gen_ops = [p.op for j, p in enumerate(gen.predicates) if j != i]
        if new_op in gold_ops or new_op in gen_ops:
            return None
        gen.predicates[i] = _Predicate(pred.column, new_op, pred.literal)
        return gen, kind, ("op_kind", _OP_KIND[new_op])

    raise ValueError(f"unknown mutation kind {kind!r}")


def _apply_column(gen: _QueryDraft, site, new_name: str):
    if isinstance(site, tuple) and site[0] == "pred":
        pred = gen.predicates[site[1]]
        gen.predicates[site[1]] = _Predicate(new_name, pred.op, pred.literal)
    else:
        gen.projections[site] = new_name


def _locate_planted(generated_sql: str, locator: tuple) -> frozenset[int]:
    tree = parse_sql(generated_sql)
    how, needle = locator
    ids = set()
    for node in preorder(tree):
        if how == "content" and node.content == needle.casefold():
            ids.add(node.id)
        elif how == "op_kind" and node.kind.value == needle:
            ids.add(node.id)
    if not ids:
        raise AssertionError(f"planted site {locator!r} not found in {generated_sql!r}")
    return frozenset(ids)


def build_planted_corpus(
    n_pairs: int, seed: int = 0, weights: dict[str, float] | None = None
) -> list[PlantedPair]:
    """Generate gold queries and mutate a known node site in each pair."""
    weights = weights or _DEFAULT_WEIGHTS
    rng = random.Random(seed)
    kinds = sorted(weights)
    kind_weights = [weights[k] for k in kinds]
    pairs: list[PlantedPair] = []
    while len(pairs) < n_pairs:
        draft = _draft_query(SYNTH_SCHEMA, rng)
        gold_sql = draft.render()
        choice = rng.choices(kinds, weights=kind_weights, k=1)[0]
        if choice == "none":
            gen_sql, expected, mutation = gold_sql, frozenset(), "none"
        else:
            mutated = _mutate(draft, SYNTH_SCHEMA, rng, choice)
            if mutated is None:
                continue  # draft lacks a site for this mutation; redraw
            gen_draft, mutation, locator = mutated
            gen_sql = gen_draft.render()
            expected = _locate_planted(gen_sql, locator)
        record = DatasetRecord(
            query_id=f"q{len(pairs):05d}",
            db_id=SYNTH_SCHEMA.db_id,
            generated_sql=gen_sql,
            gold_sql=gold_sql,
        )
        pairs.append(PlantedPair(record=record, mutation=mutation, expected_error_ids=expected))
    return pairs


def planted_agreement(pairs: list[PlantedPair]) -> float:
    """Node-level agreement between the labeler and the planted truth."""
    agree = 0
    total = 0
    for pair in pairs:
        gen = parse_sql(pair.record.generated_sql)
        gold = parse_sql(pair.record.gold_sql)
        label_map, _ = labeler.label_with_context(gen, gold)
        for node in preorder(gen):
            expected = 1 if node.id in pair.expected_error_ids else 0
            agree += int(label_map.labels[node.id] == expected)
            total += 1
    return agree / total if total else 1.0
