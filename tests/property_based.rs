//! Property-based tests over the core invariants:
//!
//! * the pre/size/level encoding round-trips through serialization, and
//!   every node's slice of the memoized document text equals the node's
//!   subtree serialized row by row, over generated XMark and DBLP,
//! * axis predicates agree with naive tree navigation,
//! * B-tree range scans agree with sorted-vector filtering,
//! * randomly generated path queries evaluate identically through the
//!   interpreter, the stacked plan and the isolated join graph,
//! * join-edge semantics: NULL hash/probe keys never match, residual
//!   predicates filter *after* the join, and nested-loop and hash joins
//!   return identical binding sets for the same plan,
//! * hash-join build sides that carry pushed-down filters (a filtered
//!   `TBSCAN`, an `IXSCAN` with bounds and a residual) match the
//!   materializing oracle with typed and `Value` keys, in memory and
//!   Grace-partitioned,
//! * upward steps (`parent::`, `ancestor::`, `..`, attribute-to-owner value
//!   joins) agree with the interpreter where the optimizer closes their
//!   one-sided index range with a statistics-derived lower bound — at the
//!   window's edges, under same-name recursion, with names shared by
//!   elements and attributes, across two documents, and after a load that
//!   widens a name's extent — and nameless parent steps (`*`, `..`), whose
//!   probe the optimizer closes from the child's side with the parent-gap
//!   statistic, at that window's edge and after a load that widens a gap,
//! * value self-joins probed through dictionary-code runs return the
//!   B-tree's rids in the B-tree's order — with duplicate, NULL and absent
//!   values, across two documents, after a reload, and falling back when
//!   the probing alias reads another table.

use proptest::prelude::*;
use xqjg::data::{generate_dblp_encoded, generate_xmark_encoded, DblpConfig, XmarkConfig};
use xqjg::engine::{
    execute_materialized_with_stats, optimize, Access, Bounds, ExecStats, JoinMethod, JoinNode,
    PhysPlan, QueryRequest, SelectItem, SqlCmp, SqlExpr, SqlPredicate,
};
use xqjg::store::{BPlusTree, Database, ExecConfig, IndexDef, OpStats, Schema, Table, Value};
use xqjg::xml::{encode_document, parse_document, DocTable, NodeKind, Pre};
use xqjg::{Mode, Processor};

/// Result rows of `plan` under the environment-default knobs.
fn run_rows(plan: &PhysPlan, db: &Database) -> Table {
    QueryRequest::new(plan, db).expect_run().rows
}

/// Rows and counters of `plan` under pinned knobs.
fn run_plan(plan: &PhysPlan, db: &Database, cfg: &ExecConfig) -> (Table, ExecStats) {
    let out = QueryRequest::new(plan, db).config(cfg).expect_run();
    (out.rows, out.stats)
}

/// The per-join-level actuals the materializing oracle reports — label,
/// `rows_out`, `fetched`, `probes` — of every operator of `s` but the
/// pipeline's plan tail (the oracle has none).
fn join_levels(s: &ExecStats, pipeline: bool) -> Vec<(String, usize, usize, usize)> {
    let n = s.operators.len() - usize::from(pipeline);
    s.operators[..n]
        .iter()
        .map(|o| (o.name.clone(), o.rows_out, o.fetched, o.probes))
        .collect()
}

/// The batch capacities the pipeline ≡ materializing-oracle properties
/// are pinned at.
const PROBE_CAPACITIES: [usize; 3] = [1, 64, 1024];

/// Strategy producing a small random XML document built from a fixed
/// element vocabulary.
fn arb_xml(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0u32..100).prop_map(|n| format!("<v>{n}</v>")),
        Just("<item/>".to_string()),
        (0u32..5).prop_map(|n| format!("<name>n{n}</name>")),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arb_xml(depth - 1);
    prop_oneof![
        leaf,
        (prop::collection::vec(inner.clone(), 1..4), 0u32..3).prop_map(|(children, id)| {
            format!("<entry id=\"e{id}\">{}</entry>", children.join(""))
        }),
        prop::collection::vec(inner, 1..3)
            .prop_map(|children| format!("<group>{}</group>", children.join(""))),
    ]
    .boxed()
}

/// Strategy producing documents for the upward-step properties: `item`
/// and `category` name elements *and* attributes (their `(name, kind)`
/// groups must not alias), `parlist`/`listitem` nest recursively, and
/// subtree widths vary so the widest element of a name is sometimes the
/// one a step must reach.
fn arb_auction_xml() -> BoxedStrategy<String> {
    fn parlist(depth: u32) -> BoxedStrategy<String> {
        let leaf = prop_oneof![
            (0u32..6).prop_map(|n| format!("<v>{n}</v>")),
            (0u32..4).prop_map(|k| format!("<itemref item=\"i{k}\"/>")),
            (0u32..3).prop_map(|k| format!("<incategory category=\"c{k}\"/>")),
        ];
        let content = if depth == 0 {
            leaf.boxed()
        } else {
            prop_oneof![leaf, parlist(depth - 1)].boxed()
        };
        let listitem = prop::collection::vec(content, 1..3)
            .prop_map(|c| format!("<listitem>{}</listitem>", c.join("")));
        prop::collection::vec(listitem, 1..3)
            .prop_map(|l| format!("<parlist>{}</parlist>", l.join("")))
            .boxed()
    }
    let item =
        (0u32..4, 0u32..3, prop::collection::vec(parlist(2), 0..3)).prop_map(|(id, cat, body)| {
            format!(
                "<item id=\"i{id}\" category=\"c{cat}\">{}</item>",
                body.join("")
            )
        });
    let category =
        (0u32..3).prop_map(|k| format!("<category id=\"c{k}\"><name>n{k}</name></category>"));
    prop::collection::vec(prop_oneof![item.clone(), item, category, parlist(1)], 1..6)
        .prop_map(|parts| format!("<root>{}</root>", parts.join("")))
        .boxed()
}

/// Upward-step query shapes over document `uri`; `k` picks the literal.
/// The first [`STEP_SHAPES`] are path steps — named and nameless (`*`,
/// `..`) parents and ancestors — the last two value joins from an
/// attribute to its owner element.
fn upward_queries(uri: &str, k: u32) -> Vec<String> {
    let d = format!("doc(\"{uri}\")");
    vec![
        format!("{d}//v[. = {k}]/parent::listitem"),
        format!("{d}//v[. = {k}]/ancestor::parlist"),
        format!("{d}//v[. = {k}]/ancestor::item"),
        format!("{d}//v[. = {k}]/.."),
        format!("{d}//listitem/ancestor::listitem"),
        format!("{d}//item[@id = \"i{k}\"]/.."),
        format!("{d}//incategory[@category = \"c{k}\"]/ancestor::item"),
        format!("{d}//@category/.."),
        format!("{d}//*[@id = \"i{k}\"]"),
        format!("{d}//*[v = {k}]"),
        format!("{d}//v[. = {k}]/ancestor::*"),
        format!("for $r in {d}//itemref, $i in {d}//item where $r/@item = $i/@id return $i"),
        format!(
            "for $i in {d}//item, $c in {d}//category where $i/@category = $c/@id return $c/name"
        ),
    ]
}

const STEP_SHAPES: usize = 11;

/// Join graph ≡ interpreter (items and order) for `query`; returns the
/// join-graph outcome for further inspection.
fn assert_join_graph_matches_interpreter(p: &mut Processor, query: &str) -> xqjg::Outcome {
    let oracle = p.execute(query, Mode::Interpreter).unwrap().items;
    let joined = p.execute(query, Mode::JoinGraph).unwrap();
    assert_eq!(joined.items, oracle, "join graph differs for {query}");
    joined
}

/// Did the optimizer close the upward probe for elements named `name`
/// with a derived lower bound (`pre >= x - max(size)`)?
fn has_derived_window(out: &xqjg::Outcome, name: &str) -> bool {
    let group = format!("name = '{name}', kind = 'ELEM', pre >= ");
    out.explain()
        .iter()
        .any(|e| e.lines().any(|l| l.contains(&group) && l.contains(" - ")))
}

/// Did the optimizer close a nameless parent step from the child's side
/// with the parent-gap window `pre >= x - gap`?
fn has_child_window(out: &xqjg::Outcome, gap: i64) -> bool {
    let window = format!(".pre - {gap}, pre < ");
    out.explain().iter().any(|e| {
        e.lines()
            .any(|l| l.contains("IXSCAN p_nvkls (pre >= ") && l.contains(&window))
    })
}

/// A document of `items` `item`s, the `k`-th holding `k % 4` `<x/>`
/// children (`wide` extra ones for item `widest`) and, last, a `<w k=…/>`
/// — so `@k` is the final node of its item's subtree, exactly on the
/// `pre + size` edge, and `w` (size 1) sits exactly `max(size | w)` before
/// its attribute.
fn edge_xml(items: u32, widest: u32, wide: u32) -> String {
    let mut xml = String::from("<root>");
    for k in 0..items {
        xml.push_str(&format!("<item id=\"i{k}\">"));
        let xs = k % 4 + if k == widest { wide } else { 0 };
        xml.push_str(&"<x/>".repeat(xs as usize));
        xml.push_str(&format!("<w k=\"{k}\"/></item>"));
    }
    xml.push_str("</root>");
    xml
}

#[test]
fn derived_window_is_sound_at_its_edges() {
    let mut p = Processor::new();
    p.load_document("t.xml", &edge_xml(80, 17, 9)).unwrap();
    p.create_default_indexes();
    for k in [0, 3, 17, 79] {
        // @k -> w: every w has size 1 = max(size | w), so the owner sits
        // exactly on the inclusive lower edge `pre >= @k.pre - 1`.
        let w = assert_join_graph_matches_interpreter(
            &mut p,
            &format!("doc(\"t.xml\")//w[@k = \"{k}\"]"),
        );
        assert_eq!(w.items.len(), 1);
        assert!(has_derived_window(&w, "w"), "{}", w.explain()[0]);
        // ... -> item: for k = 17 the match is the widest item of all, and
        // its last node is the one probing for it.
        for axis in ["ancestor::item", "..", "../.."] {
            let up = assert_join_graph_matches_interpreter(
                &mut p,
                &format!("doc(\"t.xml\")//w[@k = \"{k}\"]/{axis}"),
            );
            assert_eq!(up.items.len(), 1, "{axis}");
            if axis == "ancestor::item" {
                assert!(has_derived_window(&up, "item"), "{}", up.explain()[0]);
            }
        }
    }
}

#[test]
fn a_load_that_widens_a_name_refreshes_the_window() {
    // t.xml's items are at most 5 nodes wide; u.xml's item 2 spans 40.
    // The same query text runs before and after u.xml is loaded: a window
    // (or a plan) surviving from the first catalog version would be too
    // narrow to reach the wide item.
    let mut p = Processor::new();
    p.load_document("t.xml", &edge_xml(60, 0, 0)).unwrap();
    p.create_default_indexes();
    let narrow = assert_join_graph_matches_interpreter(
        &mut p,
        "doc(\"t.xml\")//w[@k = \"7\"]/ancestor::item",
    );
    assert!(
        has_derived_window(&narrow, "item"),
        "{}",
        narrow.explain()[0]
    );
    let query = "doc(\"u.xml\")//w[@k = \"2\"]/ancestor::item";
    let before = p.execute(query, Mode::JoinGraph).unwrap();
    assert!(before.items.is_empty(), "u.xml is not loaded yet");

    p.load_document("u.xml", &edge_xml(60, 2, 36)).unwrap();
    p.create_default_indexes();
    let after = assert_join_graph_matches_interpreter(&mut p, query);
    assert_eq!(after.items.len(), 1, "the wide item is found");
    // (With the plan cache off — one CI leg — EXPLAIN prints neither.)
    assert!(
        !after.explain()[0].contains("plan_cache=hit"),
        "the catalog version moved: {}",
        after.explain()[0]
    );
    assert!(has_derived_window(&after, "item"), "{}", after.explain()[0]);
    // Both documents share the catalog and the (item, ELEM) group; the
    // first one still answers through the (now wider) window.
    assert_join_graph_matches_interpreter(&mut p, "doc(\"t.xml\")//w[@k = \"7\"]/ancestor::item");
}

#[test]
fn child_side_window_is_sound_at_its_edge() {
    // w is the last child of its item, after `@id` and the item's `x`s:
    // item 17 holds 1 + 9 of them, so its w sits 12 after it — the
    // largest (w, ELEM) parent gap, exactly on the inclusive edge.
    let mut p = Processor::new();
    p.load_document("t.xml", &edge_xml(80, 17, 9)).unwrap();
    p.create_default_indexes();
    for k in [0, 3, 17, 79] {
        for query in [
            format!("doc(\"t.xml\")//w[@k = \"{k}\"]/.."),
            format!("doc(\"t.xml\")//*[w/@k = \"{k}\"]"),
        ] {
            let up = assert_join_graph_matches_interpreter(&mut p, &query);
            assert_eq!(up.items.len(), 1, "{query}");
            assert!(has_child_window(&up, 12), "{}", up.explain()[0]);
        }
        // `*` over an attribute: the owner sits one before it.
        let owner = assert_join_graph_matches_interpreter(
            &mut p,
            &format!("doc(\"t.xml\")//*[@id = \"i{k}\"]"),
        );
        assert_eq!(owner.items.len(), 1);
        assert!(has_child_window(&owner, 1), "{}", owner.explain()[0]);
    }
    // No `level + 1`, no window: an ancestor step reaches past the parent.
    let all =
        assert_join_graph_matches_interpreter(&mut p, "doc(\"t.xml\")//w[@k = \"17\"]/ancestor::*");
    assert_eq!(all.items.len(), 2, "item and root");
}

#[test]
fn a_load_that_widens_a_parent_gap_refreshes_the_window() {
    // In t.xml a w sits at most 5 after its item; in u.xml item 2's w sits
    // 40 after it.  A window kept from the first catalog version could
    // not reach that item.
    let mut p = Processor::new();
    p.load_document("t.xml", &edge_xml(60, 0, 0)).unwrap();
    p.create_default_indexes();
    let narrow = assert_join_graph_matches_interpreter(&mut p, "doc(\"t.xml\")//w[@k = \"7\"]/..");
    assert!(has_child_window(&narrow, 5), "{}", narrow.explain()[0]);
    let query = "doc(\"u.xml\")//w[@k = \"2\"]/..";
    assert!(p.execute(query, Mode::JoinGraph).unwrap().items.is_empty());

    p.load_document("u.xml", &edge_xml(60, 2, 36)).unwrap();
    p.create_default_indexes();
    let after = assert_join_graph_matches_interpreter(&mut p, query);
    assert_eq!(after.items.len(), 1, "the far parent is found");
    assert!(has_child_window(&after, 40), "{}", after.explain()[0]);
    // Both documents share the (w, ELEM) group and its wider gap.
    let again = assert_join_graph_matches_interpreter(&mut p, "doc(\"t.xml\")//w[@k = \"7\"]/..");
    assert!(has_child_window(&again, 40), "{}", again.explain()[0]);
}

/// Strategy producing a nullable join key over a tiny domain (so matches,
/// collisions and NULLs all occur).
fn arb_key() -> BoxedStrategy<Option<i64>> {
    prop_oneof![
        Just(None),
        (0i64..4).prop_map(Some),
        (0i64..4).prop_map(Some),
    ]
    .boxed()
}

/// Two-table database for the join-edge properties: `l(k, v)` joins
/// `r(k2, w)` on `k = k2`.
fn join_db(left: &[(Option<i64>, i64)], right: &[(Option<i64>, Option<i64>)]) -> Database {
    let mut lt = Table::new(Schema::new(["k", "v"]));
    for (k, v) in left {
        lt.push(vec![Value::from(*k), Value::Int(*v)]);
    }
    let mut rt = Table::new(Schema::new(["k2", "w"]));
    for (k2, w) in right {
        rt.push(vec![Value::from(*k2), Value::from(*w)]);
    }
    let mut db = Database::new();
    db.create_table("l", lt);
    db.create_table("r", rt);
    db
}

/// A two-alias plan joining `l` and `r` on `l.k = r.k2`, optionally with
/// the residual `l.v <= r.w`, via either join method.
fn join_plan(method: JoinMethod, with_residual: bool) -> PhysPlan {
    let key_pred = SqlPredicate::new(SqlExpr::col("r", "k2"), SqlCmp::Eq, SqlExpr::col("l", "k"));
    let (access_preds, hash_keys) = match method {
        // Nested loop: the key predicate is evaluated per probed row.
        JoinMethod::NestedLoop => (vec![key_pred], vec![]),
        // Hash join: the key becomes the build/probe key.
        JoinMethod::Hash => (vec![], vec![(SqlExpr::col("l", "k"), "k2".to_string())]),
    };
    let residual = if with_residual {
        vec![SqlPredicate::new(
            SqlExpr::col("l", "v"),
            SqlCmp::Le,
            SqlExpr::col("r", "w"),
        )]
    } else {
        vec![]
    };
    PhysPlan {
        root: JoinNode::Join {
            outer: Box::new(JoinNode::Leaf {
                alias: "l".into(),
                table: "l".into(),
                access: Access::TableScan { preds: vec![] },
                est_rows: 0.0,
            }),
            alias: "r".into(),
            table: "r".into(),
            access: Access::TableScan {
                preds: access_preds,
            },
            method,
            hash_keys,
            residual,
            est_rows: 0.0,
        },
        select: vec![SelectItem::Star("l".into()), SelectItem::Star("r".into())],
        distinct: false,
        order_by: vec![],
        est_cost: 0.0,
        est_rows: 0.0,
    }
}

/// One build-side row of the pushed-down-work properties: `(k2, w, t, d)`
/// with a nullable integer key and range column, a nullable string over a
/// tiny domain, and a column mixing integers, decimals and NULL.
type BuildRow = (Option<i64>, Option<i64>, Option<&'static str>, Option<f64>);

fn arb_build_row() -> BoxedStrategy<BuildRow> {
    let w = prop_oneof![Just(None), (0i64..10).prop_map(Some)];
    let t = prop_oneof![
        Just(None),
        Just(Some("a")),
        Just(Some("b")),
        Just(Some("c"))
    ];
    let d = prop_oneof![
        Just(None),
        (0i64..4).prop_map(|n| Some(n as f64)),
        Just(Some(1.5))
    ];
    ((arb_key(), w), t, d)
        .prop_map(|((k2, w), t, d)| (k2, w, t, d))
        .boxed()
}

/// [`join_db`]'s `l` plus a build table `r(k2, w, t, d)`; `d` holds an
/// `Int` for whole values and a `Dec` otherwise, so it has no typed image.
/// `rtw` indexes `r` on `(t, w)`.
fn build_db(left: &[(Option<i64>, i64)], right: &[BuildRow]) -> Database {
    let mut db = join_db(left, &[]);
    let mut rt = Table::new(Schema::new(["k2", "w", "t", "d"]));
    for &(k2, w, t, d) in right {
        let d = match d {
            Some(x) if x.fract() == 0.0 => Value::Int(x as i64),
            Some(x) => Value::Dec(x),
            None => Value::Null,
        };
        rt.push(vec![
            Value::from(k2),
            Value::from(w),
            t.map(Value::str).unwrap_or(Value::Null),
            d,
        ]);
    }
    db.create_table("r", rt);
    db.create_index(IndexDef {
        name: "rtw".into(),
        table: "r".into(),
        key_columns: vec!["t".into(), "w".into()],
        include_columns: vec![],
        clustered: false,
    });
    db
}

/// A hash join of `l` and `r` on `key = r.k2` whose build side carries
/// pushed-down work: a `TBSCAN` filtered by integer, string and mixed-column
/// predicates over NULL-bearing columns, or an `IXSCAN` of `rtw` with
/// bounds and a residual.  `key` is `l.k` (typed key images) or `l.k + 0`
/// (a computed key, hashed as `Value`s).
fn build_plan(key: SqlExpr, index_build: bool) -> PhysPlan {
    let pred =
        |col: &str, op, v: Value| SqlPredicate::new(SqlExpr::col("r", col), op, SqlExpr::Lit(v));
    let access = if index_build {
        Access::IndexScan {
            index: "rtw".into(),
            bounds: Bounds {
                eq: vec![("t".into(), SqlExpr::lit("a"))],
                range_col: Some("w".into()),
                lower: Some((SqlExpr::lit(2i64), true)),
                upper: Some((SqlExpr::lit(8i64), false)),
            },
            residual: vec![pred("d", SqlCmp::Lt, Value::Int(3))],
        }
    } else {
        Access::TableScan {
            preds: vec![
                pred("w", SqlCmp::Ge, Value::Int(1)),
                pred("t", SqlCmp::Ne, Value::str("c")),
                pred("d", SqlCmp::Le, Value::Dec(2.5)),
            ],
        }
    };
    PhysPlan {
        root: JoinNode::Join {
            outer: Box::new(JoinNode::Leaf {
                alias: "l".into(),
                table: "l".into(),
                access: Access::TableScan { preds: vec![] },
                est_rows: 0.0,
            }),
            alias: "r".into(),
            table: "r".into(),
            access,
            method: JoinMethod::Hash,
            hash_keys: vec![(key, "k2".to_string())],
            residual: vec![SqlPredicate::new(
                SqlExpr::col("l", "v"),
                SqlCmp::Le,
                SqlExpr::col("r", "w"),
            )],
            est_rows: 0.0,
        },
        select: vec![SelectItem::Star("l".into()), SelectItem::Star("r".into())],
        distinct: false,
        order_by: vec![],
        est_cost: 0.0,
        est_rows: 0.0,
    }
}

proptest! {
    // Each case plans ~20 queries, two of them 10-way value joins: keep
    // the case count low enough for the debug-build CI legs.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn upward_steps_agree_with_the_interpreter_across_two_documents(
        first in arb_auction_xml(),
        second in arb_auction_xml(),
        k in 0u32..4,
    ) {
        // Two documents in one catalog: the second one's rows are shifted
        // behind the first's, and every (name, kind) group — hence every
        // derived window — spans both.
        let mut p = Processor::new();
        p.load_document("t.xml", &first).unwrap();
        p.load_document("u.xml", &second).unwrap();
        p.create_default_indexes();
        for (uri, shapes) in [("t.xml", STEP_SHAPES), ("u.xml", STEP_SHAPES + 2)] {
            for query in upward_queries(uri, k).into_iter().take(shapes) {
                let oracle = p.execute(&query, Mode::Interpreter).unwrap().items;
                let joined = p.execute(&query, Mode::JoinGraph).unwrap().items;
                prop_assert_eq!(&joined, &oracle, "{} over {} + {}", query, first, second);
            }
        }
    }
}

/// One `(name, value)` row of the code-run properties: `id` rows draw
/// values from `v0`–`v4`, the others from `v0`–`v7`, so some probed
/// strings are absent from the `(id, ATTR)` group; values repeat and are
/// sometimes NULL.  Every fourth `id` row is an `ELEM`, outside the group.
fn arb_value_row() -> BoxedStrategy<(&'static str, &'static str, Option<u32>)> {
    let value = |n: u32| {
        let some = move || (0..n).prop_map(Some);
        prop_oneof![Just(None), some(), some(), some()]
    };
    prop_oneof![
        (0u32..4, value(5)).prop_map(|(k, v)| ("id", if k == 0 { "ELEM" } else { "ATTR" }, v)),
        value(8).prop_map(|v| ("ref", "ATTR", v)),
        value(8).prop_map(|v| ("x", "ATTR", v)),
    ]
    .boxed()
}

/// Register `rows` as table `name` (`pre` = row number, `value` = `v<k>`
/// with `pad` distinct strings sorting before every `v<k>` in leading
/// `pad` rows, so two tables of equal rows code their strings apart)
/// under `vnkp (value, name, kind, pre)`.
fn create_value_table(
    db: &mut Database,
    name: &str,
    rows: &[(&str, &str, Option<u32>)],
    pad: usize,
) {
    let mut t = Table::new(Schema::new(["pre", "kind", "name", "value"]));
    let padding = (0..pad).map(|k| ("pad", "ELEM", Value::str(format!("a{k}"))));
    let body = rows.iter().map(|(n, kind, v)| {
        (
            *n,
            *kind,
            v.map_or(Value::Null, |v| Value::str(format!("v{v}"))),
        )
    });
    for (pre, (n, kind, value)) in padding.chain(body).enumerate() {
        t.push(vec![
            Value::Int(pre as i64),
            Value::str(kind),
            Value::str(n),
            value,
        ]);
    }
    db.create_table(name, t);
    db.create_index(IndexDef {
        name: if name == "doc" {
            "vnkp".into()
        } else {
            format!("vnkp_{name}")
        },
        table: name.into(),
        key_columns: ["value", "name", "kind", "pre"].map(String::from).to_vec(),
        include_columns: vec![],
        clustered: false,
    });
}

/// `o` (over `outer`) under `o.name = 'ref'`, joined by `NLJOIN`–`IXSCAN
/// vnkp (value = o.value, name = 'id', kind = 'ATTR')` to `i` over `doc`;
/// no ORDER BY, so rows come in probe order.
fn value_join_plan(outer: &str) -> PhysPlan {
    let name_is =
        |a: &str, n: &str| SqlPredicate::new(SqlExpr::col(a, "name"), SqlCmp::Eq, SqlExpr::lit(n));
    let item = |a: &str| SelectItem::Expr {
        expr: SqlExpr::col(a, "pre"),
        alias: a.to_string(),
    };
    PhysPlan {
        root: JoinNode::Join {
            outer: Box::new(JoinNode::Leaf {
                alias: "o".into(),
                table: outer.into(),
                access: Access::TableScan {
                    preds: vec![name_is("o", "ref")],
                },
                est_rows: 1.0,
            }),
            alias: "i".into(),
            table: "doc".into(),
            access: Access::IndexScan {
                index: "vnkp".into(),
                bounds: Bounds {
                    eq: vec![
                        ("value".into(), SqlExpr::col("o", "value")),
                        ("name".into(), SqlExpr::lit("id")),
                        ("kind".into(), SqlExpr::lit("ATTR")),
                    ],
                    range_col: None,
                    lower: None,
                    upper: None,
                },
                residual: vec![],
            },
            method: JoinMethod::NestedLoop,
            hash_keys: vec![],
            residual: vec![],
            est_rows: 1.0,
        },
        select: vec![item("o"), item("i")],
        distinct: false,
        order_by: vec![],
        est_cost: 0.0,
        est_rows: 0.0,
    }
}

/// [`value_join_plan`]'s rows by definition: per `ref` row of `outer` in
/// row order, the `(id, ATTR)` rows of `doc` with its non-NULL value, in
/// `pre` order.
fn value_join_reference(outer: &Table, doc: &Table) -> Vec<Vec<Value>> {
    let is = |t: &Table, r: usize, c: &str, v: &str| t.value(r, c) == &Value::str(v);
    let mut out = Vec::new();
    for o in (0..outer.len()).filter(|&o| is(outer, o, "name", "ref")) {
        let v = outer.value(o, "value");
        for i in 0..doc.len() {
            if !v.is_null()
                && doc.value(i, "value") == v
                && is(doc, i, "name", "id")
                && is(doc, i, "kind", "ATTR")
            {
                out.push(vec![
                    outer.value(o, "pre").clone(),
                    doc.value(i, "pre").clone(),
                ]);
            }
        }
    }
    out
}

/// Run [`value_join_plan`] over `outer` at several batch capacities and
/// check rows, order and per-join-level actuals against the reference and
/// the materializing oracle, which walks the B-tree on every probe (so
/// NULL must match nothing on that path too); returns the number of
/// probes.
fn check_value_join(db: &Database, outer: &str) -> usize {
    let plan = value_join_plan(outer);
    let expected = value_join_reference(db.table(outer).unwrap(), db.table("doc").unwrap());
    let (t_ref, s_ref) = execute_materialized_with_stats(&plan, db);
    prop_assert_eq!(t_ref.rows(), expected.as_slice(), "oracle over {}", outer);
    for cap in [1, 1024] {
        let cfg = ExecConfig::from_env().with_batch_capacity(cap);
        let (t, s) = run_plan(&plan, db, &cfg);
        prop_assert_eq!(t.rows(), expected.as_slice(), "{} cap {}", outer, cap);
        prop_assert_eq!(
            join_levels(&s, true),
            join_levels(&s_ref, false),
            "{} cap {}",
            outer,
            cap
        );
    }
    s_ref.probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn code_keyed_probes_match_the_btree_probes_exactly(
        rows in prop::collection::vec(arb_value_row(), 1..60),
        more in prop::collection::vec(arb_value_row(), 1..20),
        pad in 1usize..4,
    ) {
        let mut db = Database::new();
        create_value_table(&mut db, "doc", &rows, 0);
        // The same rows behind `pad` smaller strings: equal values, other
        // codes.  Probes from it must not read their codes as `doc`'s.
        create_value_table(&mut db, "other", &rows, pad);
        let probes = check_value_join(&db, "other");
        prop_assert_eq!(db.code_runs_built(), 0, "another table's codes are not keys");
        let probes_doc = check_value_join(&db, "doc");
        prop_assert_eq!(probes, probes_doc);
        prop_assert_eq!(db.code_runs_built(), usize::from(probes >= 2),
            "repeat probes share one run");
        // A reload replaces the table and its index: the next execution
        // must not read the old run's codes or rids.
        let grown: Vec<_> = more.iter().chain(&rows).copied().collect();
        create_value_table(&mut db, "doc", &grown, 0);
        prop_assert_eq!(db.code_runs_built(), 0, "DDL drops the run");
        check_value_join(&db, "doc");
    }

    #[test]
    fn value_joins_agree_with_the_interpreter_across_a_reload(
        first in arb_auction_xml(),
        second in arb_auction_xml(),
        third in arb_auction_xml(),
    ) {
        // Value joins of one document probe `vnkp` groups spanning every
        // loaded document; a load rebuilds the catalog under them.
        let mut p = Processor::new();
        p.load_document("t.xml", &first).unwrap();
        p.load_document("u.xml", &second).unwrap();
        for round in 0..2 {
            p.create_default_indexes();
            for uri in ["t.xml", "u.xml"] {
                for query in upward_queries(uri, 0).into_iter().skip(STEP_SHAPES) {
                    let oracle = p.execute(&query, Mode::Interpreter).unwrap().items;
                    let joined = p.execute(&query, Mode::JoinGraph).unwrap().items;
                    prop_assert_eq!(&joined, &oracle, "round {}: {}", round, query);
                }
            }
            p.load_document("v.xml", &third).unwrap();
        }
    }
}

/// Reference serializer: walks the subtree rooted at `pre` row by row,
/// as `serialize_subtree` did before it copied slices of a text image.
fn serialize_rows(table: &DocTable, pre: Pre, out: &mut String) {
    fn escaped(out: &mut String, s: &str, in_attribute: bool) {
        for c in s.chars() {
            match c {
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '&' => out.push_str("&amp;"),
                '"' if in_attribute => out.push_str("&quot;"),
                _ => out.push(c),
            }
        }
    }
    let children = |first: u32, out: &mut String| {
        let mut p = first;
        while p <= pre.0 + table.row(pre).size {
            serialize_rows(table, Pre(p), out);
            p += table.row(Pre(p)).size + 1;
        }
    };
    let row = table.row(pre);
    let value = row.value.as_deref().unwrap_or("");
    match row.kind {
        NodeKind::Document => children(pre.0 + 1, out),
        NodeKind::Element => {
            let name = row.name.as_deref().unwrap();
            out.push('<');
            out.push_str(name);
            let mut p = pre.0 + 1;
            while p <= pre.0 + row.size
                && table.row(Pre(p)).kind == NodeKind::Attribute
                && table.row(Pre(p)).level == row.level + 1
            {
                out.push(' ');
                serialize_rows(table, Pre(p), out);
                p += 1;
            }
            if p > pre.0 + row.size {
                out.push_str("/>");
            } else {
                out.push('>');
                children(p, out);
                out.push_str(&format!("</{name}>"));
            }
        }
        NodeKind::Attribute => {
            out.push_str(&format!("{}=\"", row.name.as_deref().unwrap()));
            escaped(out, value, true);
            out.push('"');
        }
        NodeKind::Text => escaped(out, value, false),
        NodeKind::Comment => out.push_str(&format!("<!--{value}-->")),
        NodeKind::ProcessingInstruction => {
            out.push_str("<?");
            out.push_str(row.name.as_deref().unwrap_or(""));
            if !value.is_empty() {
                out.push(' ');
                out.push_str(value);
            }
            out.push_str("?>");
        }
    }
}

#[test]
fn every_text_image_slice_matches_a_row_by_row_serialization() {
    let mut p = Processor::new();
    p.load_encoded(
        "auction.xml",
        generate_xmark_encoded("auction.xml", &XmarkConfig::with_scale(0.1)),
    );
    p.load_encoded(
        "dblp.xml",
        generate_dblp_encoded("dblp.xml", &DblpConfig::with_scale(0.1)),
    );
    let doc = p.doc();
    assert_eq!(doc.document_roots().len(), 2);
    let mut mismatches = Vec::new();
    for row in doc.rows() {
        let mut expected = String::new();
        serialize_rows(doc, Pre(row.pre), &mut expected);
        if p.serialize(&[Pre(row.pre)]) != expected {
            mismatches.push(row.pre);
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} rows differ, first at pre {:?}",
        mismatches.len(),
        doc.len(),
        mismatches.first()
    );
    let roots = doc.document_roots();
    let mut both = String::new();
    serialize_rows(doc, roots[0], &mut both);
    both.push('\n');
    serialize_rows(doc, roots[1], &mut both);
    assert_eq!(p.serialize(&roots), both);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encoding_round_trips_through_serialization(body in arb_xml(3)) {
        let xml = format!("<root>{body}</root>");
        let table = encode_document("t.xml", &xml).unwrap();
        let rendered = xqjg::xml::serialize_nodes(&table, &[Pre(0)]);
        let reparsed = DocTable::from_document("t.xml", &parse_document(&rendered).unwrap());
        prop_assert_eq!(table.len(), reparsed.len());
        for (a, b) in table.rows().zip(reparsed.rows()) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.size, b.size);
            prop_assert_eq!(a.level, b.level);
        }
    }

    #[test]
    fn encoding_structure_invariants(body in arb_xml(3)) {
        let xml = format!("<root>{body}</root>");
        let table = encode_document("t.xml", &xml).unwrap();
        // The document root spans the whole table; every subtree stays in bounds.
        prop_assert_eq!(table.row(Pre(0)).size as usize, table.len() - 1);
        for row in table.rows() {
            prop_assert!((row.pre as usize + row.size as usize) < table.len());
            if row.pre > 0 {
                prop_assert!(row.level >= 1);
            }
        }
    }

    #[test]
    fn btree_range_scan_matches_vector_filter(
        keys in prop::collection::vec(0i64..500, 1..300),
        lo in 0i64..500,
        width in 0i64..100,
    ) {
        let entries: Vec<(Vec<Value>, usize)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (vec![Value::Int(k)], i))
            .collect();
        let tree = BPlusTree::bulk_load(entries);
        let hi = lo + width;
        let lo_key = vec![Value::Int(lo)];
        let hi_key = vec![Value::Int(hi)];
        let mut got: Vec<usize> = tree
            .range(std::ops::Bound::Included(&lo_key), std::ops::Bound::Included(&hi_key))
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k >= lo && k <= hi)
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn random_path_queries_agree_across_evaluation_strategies(
        body in arb_xml(3),
        axis_choice in 0usize..3,
        name_choice in 0usize..3,
        with_pred in proptest::bool::ANY,
    ) {
        let xml = format!("<root>{body}</root>");
        let axis = ["descendant", "child", "descendant-or-self"][axis_choice];
        let name = ["entry", "group", "v"][name_choice];
        let pred = if with_pred { "[v > 10]" } else { "" };
        let query = format!("doc(\"t.xml\")/{axis}::{name}{pred}");

        let mut p = Processor::new();
        p.load_document("t.xml", &xml).unwrap();
        p.create_default_indexes();
        let oracle = p.execute(&query, Mode::Interpreter).unwrap().items;
        let stacked = p.execute(&query, Mode::Stacked).unwrap().items;
        let isolated = p.execute(&query, Mode::JoinGraph).unwrap().items;
        prop_assert_eq!(&stacked, &oracle, "stacked differs for {}", query);
        prop_assert_eq!(&isolated, &oracle, "isolated differs for {}", query);
    }

    #[test]
    fn join_edge_semantics_hold_for_both_join_methods(
        left in prop::collection::vec((arb_key(), 0i64..10), 0..12),
        right in prop::collection::vec((arb_key(), arb_key()), 0..12),
    ) {
        let db = join_db(&left, &right);
        // Nested-loop and hash join execute the same logical join edge.
        let mut hash_rows = run_rows(&join_plan(JoinMethod::Hash, true), &db).into_rows();
        let mut nl_rows = run_rows(&join_plan(JoinMethod::NestedLoop, true), &db).into_rows();
        hash_rows.sort();
        nl_rows.sort();
        prop_assert_eq!(&hash_rows, &nl_rows, "join methods must agree");

        // Reference semantics: NULL keys never match, residual (l.v <= r.w,
        // NULL-rejecting) filters the joined bindings.
        let mut expected: Vec<Vec<Value>> = Vec::new();
        for (lk, lv) in &left {
            let Some(lk) = lk else { continue };
            for (rk, w) in &right {
                if *rk != Some(*lk) {
                    continue;
                }
                if w.map(|w| *lv <= w) != Some(true) {
                    continue;
                }
                expected.push(vec![
                    Value::Int(*lk),
                    Value::Int(*lv),
                    Value::from(*rk),
                    Value::from(*w),
                ]);
            }
        }
        expected.sort();
        prop_assert_eq!(&hash_rows, &expected, "NULL-key and residual semantics");
        for row in &hash_rows {
            prop_assert!(!row[0].is_null() && !row[2].is_null(), "NULL key matched");
        }

        // Residual predicates apply after the join: dropping the residual
        // yields a superset, and re-applying it recovers the filtered set.
        let mut unfiltered = run_rows(&join_plan(JoinMethod::Hash, false), &db).into_rows();
        prop_assert!(unfiltered.len() >= hash_rows.len());
        unfiltered.retain(|row| match (row[1].as_i64(), row[3].as_i64()) {
            (Some(v), Some(w)) => v <= w,
            _ => false,
        });
        unfiltered.sort();
        prop_assert_eq!(unfiltered, hash_rows, "residual is a post-join filter");
    }

    #[test]
    fn pipeline_agrees_with_the_materializing_oracle_over_random_predicates(
        body in arb_xml(3),
        axis_choice in 0usize..3,
        name_choice in 0usize..3,
        pred_choice in 0usize..4,
    ) {
        // A random document, a random path query with a random value /
        // attribute predicate — optimized once, then executed at every
        // pinned batch capacity.  Rows, row order, aggregate counters and
        // per-join-level actuals must match the materializing executor;
        // every other per-operator actual but `batches` must match the
        // default-capacity run.
        let xml = format!("<root>{body}</root>");
        let axis = ["descendant", "child", "descendant-or-self"][axis_choice];
        let name = ["entry", "group", "v"][name_choice];
        let pred = ["", "[v > 10]", "[@id = \"e1\"]", "[v >= 3 and v < 42]"][pred_choice];
        let query = format!("doc(\"t.xml\")/{axis}::{name}{pred}");

        let mut p = Processor::new();
        p.load_document("t.xml", &xml).unwrap();
        p.create_default_indexes();
        // Not every generated predicate shape compiles to SQL; the
        // property is about executor parity, not frontend coverage.
        if let Ok(prepared) = p.prepare(&query) {
            let db = p.database();
            for b in &prepared.branches {
                let plan = optimize(&b.isolated.query, db).unwrap();
                let (t_ref, s_ref) = execute_materialized_with_stats(&plan, db);
                let sans_batches = |s: &ExecStats| -> Vec<OpStats> {
                    s.operators.iter().map(|o| OpStats { batches: 0, ..o.clone() }).collect()
                };
                let ops_ref = sans_batches(&run_plan(&plan, db, &ExecConfig::from_env()).1);
                for cap in PROBE_CAPACITIES {
                    let cfg = ExecConfig::from_env().with_batch_capacity(cap);
                    let (t_col, s_col) = run_plan(&plan, db, &cfg);
                    prop_assert_eq!(&t_col, &t_ref, "{} cap {}", query, cap);
                    prop_assert_eq!(
                        (s_col.index_rows, s_col.scan_rows, s_col.probes, s_col.bindings),
                        (s_ref.index_rows, s_ref.scan_rows, s_ref.probes, s_ref.bindings),
                        "{} cap {}: aggregate counters must match the oracle", query, cap);
                    prop_assert_eq!(join_levels(&s_col, true), join_levels(&s_ref, false),
                        "{} cap {}: per-join-level actuals must match the oracle", query, cap);
                    prop_assert_eq!(sans_batches(&s_col), ops_ref.clone(),
                        "{} cap {}: actuals must not depend on the capacity", query, cap);
                }
            }
        }
    }

    #[test]
    fn join_edge_matches_the_materializing_oracle_at_every_capacity(
        left in prop::collection::vec((arb_key(), 0i64..10), 0..12),
        right in prop::collection::vec((arb_key(), arb_key()), 0..12),
    ) {
        // NULL keys, hash collisions and residual predicates under both
        // join methods: the pipeline must reproduce the materializing
        // executor's rows *in order* at every batch capacity.
        let db = join_db(&left, &right);
        for method in [JoinMethod::Hash, JoinMethod::NestedLoop] {
            let plan = join_plan(method, true);
            let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
            for cap in PROBE_CAPACITIES {
                let (t, s) = run_plan(
                    &plan,
                    &db,
                    &ExecConfig::from_env().with_batch_capacity(cap),
                );
                prop_assert_eq!(&t, &t_ref, "{:?} cap {}", method, cap);
                prop_assert_eq!(s.probes, s_ref.probes, "{:?} cap {}", method, cap);
                prop_assert_eq!(s.bindings, s_ref.bindings, "{:?} cap {}", method, cap);
                prop_assert_eq!(s.scan_rows, s_ref.scan_rows, "{:?} cap {}", method, cap);
                prop_assert_eq!(s.index_rows, s_ref.index_rows, "{:?} cap {}", method, cap);
                prop_assert_eq!(join_levels(&s, true), join_levels(&s_ref, false),
                    "{:?} cap {}", method, cap);
            }
        }
    }

    #[test]
    fn build_sides_with_pushed_down_work_match_the_materializing_oracle(
        left in prop::collection::vec((arb_key(), 0i64..10), 0..12),
        right in prop::collection::vec(arb_build_row(), 0..16),
    ) {
        // The build side enumerates its filtered access path once; typed
        // and `Value` keys, in memory and Grace-partitioned (a 16-byte
        // budget spills the first build row), must reproduce the oracle's
        // rows in order and its per-level `fetched` and `probes`.
        let db = build_db(&left, &right);
        let keys = [SqlExpr::col("l", "k"), SqlExpr::col("l", "k") + SqlExpr::lit(0i64)];
        for (key, index_build) in keys.iter().flat_map(|k| [(k, false), (k, true)]) {
            let plan = build_plan(key.clone(), index_build);
            let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
            for (cap, budget) in [1, 1024].into_iter().flat_map(|c| [(c, None), (c, Some(16))]) {
                let cfg = ExecConfig::from_env().with_batch_capacity(cap).with_mem_budget(budget);
                let (t, s) = run_plan(&plan, &db, &cfg);
                let what = format!("key {key} index {index_build} cap {cap} budget {budget:?}");
                prop_assert_eq!(&t, &t_ref, "{}", what);
                prop_assert_eq!(join_levels(&s, true), join_levels(&s_ref, false), "{}", what);
                // Any build row at all spills under the tight budget.
                let build = &s.operators[1];
                prop_assert_eq!(
                    build.partitions > 0,
                    budget.is_some() && build.build_rows > 0,
                    "{}", what
                );
            }
        }
    }

    #[test]
    fn nested_for_loops_agree_across_strategies(body in arb_xml(2)) {
        let xml = format!("<root>{body}</root>");
        let query = "for $e in doc(\"t.xml\")//entry return $e/descendant::name";
        let mut p = Processor::new();
        p.load_document("t.xml", &xml).unwrap();
        p.create_default_indexes();
        let oracle = p.execute(query, Mode::Interpreter).unwrap().items;
        let isolated = p.execute(query, Mode::JoinGraph).unwrap().items;
        prop_assert_eq!(isolated, oracle);
    }
}
