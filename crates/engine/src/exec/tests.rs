//! Unit tests of the executor, compared against the materializing
//! reference where rows, order or work counters are at stake.

use super::build::{BuildBackend, BuildCache, JoinBuild};
use super::request::{run_sql, ExecCaches, ExecStats, QueryOutcome, QueryRequest};
use super::stage::{compile_stage, flatten_stages, CExpr, RunShape};
use crate::materialize::execute_materialized_with_stats;
use crate::optimizer::optimize;
use crate::physical::{Access, JoinNode, PhysPlan};
use crate::sql::{SqlCmp, SqlExpr, SqlPredicate};
use crate::sqlparse::parse_sql;
use std::collections::HashMap;
use xqjg_store::IndexDef;
use xqjg_store::{CancelToken, Database, ExecConfig, ExecError, OpStats, Schema, Table, Value};

/// Rows and counters of `plan` under pinned knobs.
fn run(plan: &PhysPlan, db: &Database, cfg: &ExecConfig) -> (Table, ExecStats) {
    let out = QueryRequest::new(plan, db).config(cfg).expect_run();
    (out.rows, out.stats)
}

/// [`run`] through a hash-join build cache (pinned on: the caller is
/// testing the cache, whatever `XQJG_BUILD_CACHE` the environment says).
fn run_cached(
    plan: &PhysPlan,
    db: &Database,
    cfg: &ExecConfig,
    cache: &BuildCache,
) -> (Table, ExecStats) {
    let cfg = cfg.clone().with_build_cache(true);
    let out = QueryRequest::new(plan, db)
        .config(&cfg)
        .build_cache(cache)
        .expect_run();
    (out.rows, out.stats)
}

/// Small XML-encoding-like database: one document with nested elements.
fn db() -> Database {
    let mut t = Table::new(Schema::new([
        "pre", "size", "level", "kind", "name", "value", "data",
    ]));
    type FixtureRow = (
        i64,
        i64,
        i64,
        &'static str,
        Option<&'static str>,
        Option<&'static str>,
    );
    let rows: Vec<FixtureRow> = vec![
        (0, 8, 0, "DOC", Some("a.xml"), None),
        (1, 7, 1, "ELEM", Some("site"), None),
        (2, 2, 2, "ELEM", Some("open_auction"), None),
        (3, 1, 3, "ELEM", Some("bidder"), None),
        (4, 0, 4, "TEXT", None, Some("10")),
        (5, 3, 2, "ELEM", Some("open_auction"), None),
        (6, 0, 3, "ELEM", Some("initial"), Some("15")),
        (7, 1, 3, "ELEM", Some("bidder"), None),
        (8, 0, 4, "TEXT", None, Some("20")),
    ];
    for (pre, size, level, kind, name, value) in rows {
        t.push(vec![
            Value::Int(pre),
            Value::Int(size),
            Value::Int(level),
            Value::str(kind),
            name.map(Value::str).unwrap_or(Value::Null),
            value.map(Value::str).unwrap_or(Value::Null),
            value
                .and_then(|v| v.parse::<f64>().ok())
                .map(Value::Dec)
                .unwrap_or(Value::Null),
        ]);
    }
    let mut db = Database::new();
    db.create_table("doc", t);
    db.create_index(IndexDef {
        name: "nkspl".into(),
        table: "doc".into(),
        key_columns: vec![
            "name".into(),
            "kind".into(),
            "size".into(),
            "pre".into(),
            "level".into(),
        ],
        include_columns: vec![],
        clustered: false,
    });
    db.create_index(IndexDef {
        name: "p".into(),
        table: "doc".into(),
        key_columns: vec!["pre".into()],
        include_columns: vec![],
        clustered: true,
    });
    db
}

const Q1_LIKE: &str = "SELECT DISTINCT d2.* \
    FROM doc AS d1, doc AS d2, doc AS d3 \
    WHERE d1.kind = 'DOC' AND d1.name = 'a.xml' \
      AND d2.kind = 'ELEM' AND d2.name = 'open_auction' \
      AND d2.pre > d1.pre AND d2.pre <= d1.pre + d1.size \
      AND d3.kind = 'ELEM' AND d3.name = 'bidder' \
      AND d3.pre > d2.pre AND d3.pre <= d2.pre + d2.size \
      AND d2.level + 1 = d3.level \
    ORDER BY d2.pre";

#[test]
fn executes_q1_join_graph() {
    let db = db();
    let q = parse_sql(Q1_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let result = QueryRequest::new(&plan, &db).expect_run().rows;
    // Both open_auction elements (pre 2 and 5) have a bidder child.
    assert_eq!(result.len(), 2);
    let pre_idx = result.schema().expect_index("pre");
    assert_eq!(result.rows()[0][pre_idx], Value::Int(2));
    assert_eq!(result.rows()[1][pre_idx], Value::Int(5));
}

#[test]
fn distinct_removes_duplicate_result_rows() {
    let db = db();
    // Without the level predicate, descendants at any depth qualify; the
    // DISTINCT on d2.* must still deliver each open_auction once.
    let sql = Q1_LIKE.replace(" AND d2.level + 1 = d3.level ", " ");
    let q = parse_sql(&sql).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let result = QueryRequest::new(&plan, &db).expect_run().rows;
    assert_eq!(result.len(), 2);
}

#[test]
fn order_by_descending_document_order_not_supported_but_asc_enforced() {
    let db = db();
    let q = parse_sql("SELECT d1.pre AS p FROM doc AS d1 WHERE d1.kind = 'ELEM' ORDER BY d1.pre")
        .unwrap();
    let plan = optimize(&q, &db).unwrap();
    let result = QueryRequest::new(&plan, &db).expect_run().rows;
    let pres: Vec<i64> = result
        .rows()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    let mut sorted = pres.clone();
    sorted.sort();
    assert_eq!(pres, sorted);
    assert_eq!(result.schema().columns(), &["p".to_string()]);
}

#[test]
fn run_sql_end_to_end() {
    let db = db();
    let t = run_sql(
        "SELECT d1.* FROM doc AS d1 WHERE d1.name = 'bidder' ORDER BY d1.pre",
        &db,
    )
    .unwrap();
    assert_eq!(t.len(), 2);
}

#[test]
fn run_sql_promotes_an_overflowing_sum_instead_of_wrapping() {
    let mut t = Table::new(Schema::new(["pre", "v"]));
    for (pre, v) in [(0, i64::MAX), (1, i64::MAX - 1), (2, 5)] {
        t.push(vec![Value::Int(pre), Value::Int(v)]);
    }
    let mut db = Database::new();
    db.create_table("doc", t);
    let out = run_sql(
        "SELECT d1.pre AS p, d1.v + 1 AS s FROM doc AS d1 ORDER BY d1.pre",
        &db,
    )
    .unwrap();
    let sums: Vec<Value> = out.rows().iter().map(|r| r[1].clone()).collect();
    assert_eq!(
        sums,
        [
            Value::Dec(i64::MAX as f64 + 1.0),
            Value::Int(i64::MAX),
            Value::Int(6)
        ]
    );
    // As a join predicate the overflowing row still compares numerically
    // (`MAX + 1 >= MAX`), as it does in the materializing oracle.
    let sql = "SELECT d1.pre AS a, d2.pre AS b FROM doc AS d1, doc AS d2 \
               WHERE d2.v + 1 >= d1.v AND d1.pre = 0 ORDER BY d2.pre";
    let plan = optimize(&parse_sql(sql).unwrap(), &db).unwrap();
    let (t, _) = run(&plan, &db, &ExecConfig::from_env());
    assert_eq!(t.len(), 2, "rows with v + 1 >= 2^63");
    assert_eq!(t, execute_materialized_with_stats(&plan, &db).0);
}

#[test]
fn exec_stats_count_probes_and_rows() {
    let db = db();
    let q = parse_sql(Q1_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let stats = QueryRequest::new(&plan, &db).expect_run().stats;
    assert!(stats.probes > 0);
    assert!(stats.index_rows + stats.scan_rows > 0);
}

#[test]
fn per_operator_stats_cover_the_whole_tree() {
    let db = db();
    let q = parse_sql(Q1_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let QueryOutcome {
        rows: result,
        stats,
        ..
    } = QueryRequest::new(&plan, &db).expect_run();
    // One leaf + two joins + the sort tail.
    assert_eq!(stats.operators.len(), 4);
    let tail = stats
        .operators
        .iter()
        .find(|o| o.name.starts_with("SORT"))
        .expect("sort tail reports stats");
    assert_eq!(tail.rows_out, result.len());
    assert!(tail.rows_in >= tail.rows_out);
    let joins = stats
        .operators
        .iter()
        .filter(|o| o.name.starts_with("NLJOIN") || o.name.starts_with("HSJOIN"))
        .count();
    assert_eq!(joins, 2);
    for op in &stats.operators {
        assert!(op.rows_out == 0 || op.batches > 0, "{}", op.name);
    }
}

#[test]
fn pipelined_executor_matches_materializing_baseline() {
    let db = db();
    for sql in [
        Q1_LIKE.to_string(),
        Q1_LIKE.replace(" AND d2.level + 1 = d3.level ", " "),
        "SELECT d1.pre AS p FROM doc AS d1 WHERE d1.kind = 'ELEM' ORDER BY d1.pre".to_string(),
        "SELECT d2.pre AS a, d3.pre AS b FROM doc AS d2, doc AS d3 \
         WHERE d2.name = 'open_auction' AND d3.name = 'bidder' \
           AND d3.pre > d2.pre AND d3.pre <= d2.pre + d2.size \
         ORDER BY d2.pre, d3.pre"
            .to_string(),
    ] {
        let q = parse_sql(&sql).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let (pipelined, pstats) = run(&plan, &db, &ExecConfig::from_env());
        let (materialized, mstats) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(pipelined, materialized, "{sql}");
        // Aggregate work accounting agrees between the two executors.
        assert_eq!(pstats.index_rows, mstats.index_rows, "{sql}");
        assert_eq!(pstats.scan_rows, mstats.scan_rows, "{sql}");
        assert_eq!(pstats.probes, mstats.probes, "{sql}");
        assert_eq!(pstats.bindings, mstats.bindings, "{sql}");
        // `fetched` is the per-operator split of those totals — leaf
        // scans, per-probe inners and hash-join builds all included.
        let fetched: usize = pstats.operators.iter().map(|o| o.fetched).sum();
        assert_eq!(fetched, pstats.index_rows + pstats.scan_rows, "{sql}");
    }
}

#[test]
fn batch_capacity_sweeps_change_only_batch_counts() {
    let db = db();
    let q = parse_sql(Q1_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let (t_ref, s_ref) = run(&plan, &db, &ExecConfig::from_env());
    for cap in [1, 2, 7] {
        let cfg = ExecConfig::from_env().with_batch_capacity(cap);
        let (t, s) = run(&plan, &db, &cfg);
        assert_eq!(t, t_ref, "rows differ at batch capacity {cap}");
        assert_eq!(s.index_rows, s_ref.index_rows);
        assert_eq!(s.probes, s_ref.probes);
        assert_eq!(s.bindings, s_ref.bindings);
        for (a, b) in s.operators.iter().zip(&s_ref.operators) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.rows_out, b.rows_out);
            assert_eq!(a.batches, a.rows_out.div_ceil(cap), "{}", a.name);
        }
    }
}

#[test]
fn value_predicates_via_index_or_scan() {
    let db = db();
    let t = run_sql(
        "SELECT d1.pre AS p FROM doc AS d1 WHERE d1.name = 'initial' AND d1.data >= 10 ORDER BY d1.pre",
        &db,
    )
    .unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.rows()[0][0], Value::Int(6));
}

#[test]
fn select_expressions_and_multiple_order_keys() {
    let db = db();
    let t = run_sql(
        "SELECT d2.pre AS a, d3.pre AS b FROM doc AS d2, doc AS d3 \
         WHERE d2.name = 'open_auction' AND d3.name = 'bidder' \
           AND d3.pre > d2.pre AND d3.pre <= d2.pre + d2.size \
         ORDER BY d2.pre, d3.pre",
        &db,
    )
    .unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.schema().columns(), &["a".to_string(), "b".to_string()]);
}

/// A value self-equijoin with no supporting index: the per-probe
/// alternative is a full scan, so the optimizer picks a hash join.
const HASH_LIKE: &str = "SELECT d1.pre AS a, d2.pre AS b \
    FROM doc AS d1, doc AS d2 \
    WHERE d1.kind = 'ELEM' AND d1.value = d2.value \
    ORDER BY d1.pre, d2.pre";

#[test]
fn build_cache_memoizes_hash_join_builds_and_invalidates_on_ddl() {
    let mut db = db();
    let q = parse_sql(HASH_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    fn has_hash(n: &crate::physical::JoinNode) -> bool {
        match n {
            crate::physical::JoinNode::Leaf { .. } => false,
            crate::physical::JoinNode::Join { outer, method, .. } => {
                *method == crate::physical::JoinMethod::Hash || has_hash(outer)
            }
        }
    }
    assert!(
        has_hash(&plan.root),
        "fixture plan must contain a hash join"
    );
    let cache = BuildCache::new();
    let cfg = ExecConfig::from_env();
    let (t1, s1) = run_cached(&plan, &db, &cfg, &cache);
    assert_eq!(cache.hits(), 0);
    assert!(cache.lookups() > 0);
    assert!(!cache.is_empty());
    let (t2, s2) = run_cached(&plan, &db, &cfg, &cache);
    assert_eq!(t1, t2, "cached build must not change results");
    assert!(cache.hits() > 0, "second run hits the cache");
    // The hit is visible in the per-operator actuals, and the skipped
    // build fetch is honestly absent from the aggregate counters.
    assert!(s2.operators.iter().any(|o| o.cache_hits > 0));
    assert!(s1.operators.iter().all(|o| o.cache_hits == 0));
    assert!(s2.index_rows + s2.scan_rows <= s1.index_rows + s1.scan_rows);
    // DDL invalidates: the next lookup rebuilds instead of hitting.
    let hits = cache.hits();
    db.create_index(xqjg_store::IndexDef {
        name: "fresh".into(),
        table: "doc".into(),
        key_columns: vec!["level".into()],
        include_columns: vec![],
        clustered: false,
    });
    let plan2 = optimize(&parse_sql(HASH_LIKE).unwrap(), &db).unwrap();
    let (t3, _) = run_cached(&plan2, &db, &cfg, &cache);
    assert_eq!(t1, t3);
    assert_eq!(cache.hits(), hits, "catalog change drops cached builds");
}

#[test]
fn build_cache_byte_bound_evicts_instead_of_growing() {
    // Regression: the session build cache used to grow without bound.
    // 64 synthetic builds at ~4 KiB each cannot all stay resident in a
    // 64 KiB cache (8 KiB per stripe); the bound must evict, not grow.
    let cache = BuildCache::with_capacity(64 * 1024);
    for i in 0..64 {
        let (_, hit) = cache
            .get_or_build(format!("build-{i}"), 1, || {
                Ok(JoinBuild {
                    key_cols: vec![],
                    backend: BuildBackend::Mem(HashMap::new()),
                    build_rows: 0,
                    fetched_scan: 0,
                    fetched_index: 0,
                    spill_runs: 0,
                    spill_bytes: 0,
                    partitions: 0,
                    retries: 0,
                    reserved: 4096,
                })
            })
            .unwrap();
        assert!(!hit, "distinct keys never hit");
    }
    assert!(cache.evictions() > 0, "byte bound must evict");
    assert!(cache.len() < 64, "cache must not hold every build");
    assert!(cache.bytes() <= 64 * 1024, "resident bytes respect the cap");
}

#[test]
fn postings_cache_preserves_results_and_actuals_and_hits_on_repeats() {
    let db = db();
    let q = parse_sql(Q1_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let pc = xqjg_store::PostingsCache::new();
    let caches = ExecCaches {
        builds: None,
        postings: Some(&pc),
    };
    let cfg = ExecConfig::from_env().with_postings_cache(true);
    let with = |caches: ExecCaches<'_>| {
        let out = QueryRequest::new(&plan, &db)
            .config(&cfg)
            .caches(caches)
            .expect_run();
        (out.rows, out.stats)
    };
    let (t0, s0) = with(ExecCaches::default());
    let (t1, s1) = with(caches);
    let (t2, s2) = with(caches);
    assert_eq!(t0, t1, "cold cached run matches uncached");
    assert_eq!(t1, t2, "warm run matches cold");
    assert_eq!(s0, s1, "actuals identical with the cache cold");
    assert_eq!(s1, s2, "actuals identical hit or miss");
    assert!(pc.hits() > 0, "repeated probes hit the postings cache");
    assert!(pc.lookups() > pc.hits(), "cold lookups missed first");
}

/// 3 000 outer rows `o` (even `pre`), each probing the inner `i` rows
/// (odd `pre`) of `nkp (name = 'i', kind = 'ELEM', pre > o.pre + 1,
/// pre <= upper)`: both bounds can land on an inner key.
/// `size` is NULL on every 97th and a decimal on every 89th row, so
/// `o.pre + o.size` is not an integer for those probes.
fn prefix_run_db() -> Database {
    let mut t = Table::new(Schema::new(["pre", "size", "level", "kind", "name"]));
    for pre in 0..6000i64 {
        let size = match pre {
            p if p % 97 == 0 => Value::Null,
            p if p % 89 == 0 => Value::Dec(3.5),
            p => Value::Int(p * 7 % 40),
        };
        t.push(vec![
            Value::Int(pre),
            size,
            Value::Int(pre % 4),
            Value::str(if pre % 5 == 0 { "TEXT" } else { "ELEM" }),
            Value::str(if pre % 2 == 0 { "o" } else { "i" }),
        ]);
    }
    let mut db = Database::new();
    db.create_table("doc", t);
    db.create_index(IndexDef {
        name: "nkp".into(),
        table: "doc".into(),
        key_columns: vec!["name".into(), "kind".into(), "pre".into()],
        include_columns: vec![],
        clustered: false,
    });
    db
}

/// `o` scanned under `leaf`, joined to `i` by the NLJOIN–IXSCAN above;
/// no ORDER BY, so the result order is the probe order.
fn prefix_run_plan(leaf: SqlPredicate, upper: SqlExpr, residual: Vec<SqlPredicate>) -> PhysPlan {
    use crate::physical::{Bounds, JoinMethod};
    use crate::sql::SelectItem;
    let outer = JoinNode::Leaf {
        alias: "o".into(),
        table: "doc".into(),
        access: Access::TableScan { preds: vec![leaf] },
        est_rows: 1.0,
    };
    let root = JoinNode::Join {
        outer: Box::new(outer),
        alias: "i".into(),
        table: "doc".into(),
        access: Access::IndexScan {
            index: "nkp".into(),
            bounds: Bounds {
                eq: vec![
                    ("name".into(), SqlExpr::lit("i")),
                    ("kind".into(), SqlExpr::lit("ELEM")),
                ],
                range_col: Some("pre".into()),
                lower: Some((SqlExpr::col("o", "pre") + SqlExpr::lit(1i64), false)),
                upper: Some((upper, true)),
            },
            residual: vec![],
        },
        method: JoinMethod::NestedLoop,
        hash_keys: vec![],
        residual,
        est_rows: 1.0,
    };
    let item = |a: &str| SelectItem::Expr {
        expr: SqlExpr::col(a, "pre"),
        alias: a.to_string(),
    };
    PhysPlan {
        root,
        select: vec![item("o"), item("i")],
        distinct: false,
        order_by: vec![],
        est_cost: 0.0,
        est_rows: 0.0,
    }
}

#[test]
fn prefix_run_probes_match_the_btree_probes_exactly() {
    let name_is_o = SqlPredicate::new(SqlExpr::col("o", "name"), SqlCmp::Eq, SqlExpr::lit("o"));
    let level = SqlPredicate::new(
        SqlExpr::col("i", "level"),
        SqlCmp::Gt,
        SqlExpr::col("o", "level"),
    );
    // Upper bounds: integer column + literal (every probe on the run),
    // and a mixed column (NULL and decimal probes fall back).
    let uppers = [
        SqlExpr::col("o", "pre") + SqlExpr::lit(9i64),
        SqlExpr::col("o", "pre") + SqlExpr::col("o", "size"),
    ];
    for upper in uppers {
        // Without a residual the probe has nothing to filter; with one,
        // its outer-dependent term joins the fused kernel pass.
        for residual in [vec![], vec![level.clone()]] {
            let db = prefix_run_db();
            let plan = prefix_run_plan(name_is_o.clone(), upper.clone(), residual);
            // The materializing oracle walks the B-tree on every probe.
            let (t_ref, agg_ref) = execute_materialized_with_stats(&plan, &db);
            assert!(agg_ref.probes >= 3000, "{}", agg_ref.probes);
            for cap in [1, 1024] {
                let cfg = ExecConfig::from_env().with_batch_capacity(cap);
                let (t, s) = run(&plan, &db, &cfg);
                let what = format!("{upper} cap {cap}");
                assert_eq!(t, t_ref, "{what}: rows and their order");
                assert_aggregates_match(&s, &agg_ref, &what);
                assert_join_levels_match(&s, &agg_ref, &what);
            }
            assert_eq!(
                db.prefix_runs_built(),
                1,
                "the run served the repeat probes"
            );
        }
    }
}

#[test]
fn a_run_stage_walks_the_btree_once_per_execution() {
    // 6 000 leaf rows feed 3 000 probes into one NLJOIN operator.
    let db = prefix_run_db();
    let name_is_o = SqlPredicate::new(SqlExpr::col("o", "name"), SqlCmp::Eq, SqlExpr::lit("o"));
    let upper = SqlExpr::col("o", "pre") + SqlExpr::lit(9i64);
    let plan = prefix_run_plan(name_is_o, upper, vec![]);
    let pc = xqjg_store::PostingsCache::new();
    let cfg = ExecConfig::from_env().with_postings_cache(true);
    for pass in ["cold", "warm"] {
        let out = QueryRequest::new(&plan, &db)
            .config(&cfg)
            .postings_cache(&pc)
            .expect_run();
        assert!(out.stats.probes >= 3000, "{}", out.stats.probes);
        assert_eq!(
            out.cache_actuals.postings_lookups, 1,
            "{pass}: only the first probe walks the B-tree"
        );
    }
    assert_eq!(db.prefix_runs_built(), 1, "one run for both executions");
}

#[test]
fn the_leaf_polls_cancellation_and_the_deadline() {
    // No hash build and no budget: the leaf's per-batch poll is the
    // only interrupt check this plan passes.
    let db = prefix_run_db();
    let name_is_o = SqlPredicate::new(SqlExpr::col("o", "name"), SqlCmp::Eq, SqlExpr::lit("o"));
    let upper = SqlExpr::col("o", "pre") + SqlExpr::lit(9i64);
    let plan = prefix_run_plan(name_is_o, upper, vec![]);
    let cfg = ExecConfig::from_env().with_mem_budget(None);
    let token = CancelToken::new();
    token.cancel();
    let run = |cfg: &ExecConfig| {
        QueryRequest::new(&plan, &db)
            .config(cfg)
            .cancel(&token)
            .run()
    };
    assert_eq!(run(&cfg).unwrap_err(), ExecError::Cancelled);
    token.clear();
    let expired = cfg
        .clone()
        .with_query_timeout(Some(std::time::Duration::from_nanos(1)));
    let err = run(&expired).unwrap_err();
    assert!(matches!(err, ExecError::Timeout { .. }), "{err}");
    assert!(run(&cfg).is_ok(), "a cleared token executes");
}

#[test]
fn a_single_probe_stage_never_builds_a_run() {
    let db = prefix_run_db();
    let pre_is_2 = SqlPredicate::new(SqlExpr::col("o", "pre"), SqlCmp::Eq, SqlExpr::lit(2i64));
    let plan = prefix_run_plan(
        pre_is_2,
        SqlExpr::col("o", "pre") + SqlExpr::lit(9i64),
        vec![],
    );
    let (t, s) = run(&plan, &db, &ExecConfig::from_env());
    assert_eq!(
        (s.probes, t.len()),
        (1, 3),
        "pre 7, 9 and 11 (3 is excluded, 5 is TEXT)"
    );
    assert_eq!(db.prefix_runs_built(), 0);
}

#[test]
fn postings_knob_off_bypasses_a_supplied_cache() {
    let db = db();
    let q = parse_sql(Q1_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let pc = xqjg_store::PostingsCache::new();
    let caches = ExecCaches {
        builds: None,
        postings: Some(&pc),
    };
    let cfg = ExecConfig::from_env().with_postings_cache(false);
    let req = QueryRequest::new(&plan, &db).config(&cfg).caches(caches);
    let (t1, t2) = (req.expect_run().rows, req.expect_run().rows);
    assert_eq!(t1, t2);
    assert_eq!(pc.lookups(), 0, "disabled cache is never consulted");
    assert!(pc.is_empty());
}

/// Assert `got` reports the materializing oracle's aggregate counters.
fn assert_aggregates_match(got: &ExecStats, oracle: &ExecStats, what: &str) {
    let aggregates = |s: &ExecStats| (s.index_rows, s.scan_rows, s.probes, s.bindings);
    assert_eq!(
        aggregates(got),
        aggregates(oracle),
        "{what}: (index_rows, scan_rows, probes, bindings)"
    );
}

/// Assert `got`'s join levels (every operator but the plan tail) report
/// the materializing oracle's per-level label, `rows_out`, `fetched`
/// and `probes`.
fn assert_join_levels_match(got: &ExecStats, oracle: &ExecStats, what: &str) {
    let levels = |ops: &[OpStats]| -> Vec<(String, usize, usize, usize)> {
        ops.iter()
            .map(|o| (o.name.clone(), o.rows_out, o.fetched, o.probes))
            .collect()
    };
    let (tail, joins) = got.operators.split_last().expect("a plan tail");
    assert!(matches!(
        tail.name.as_str(),
        "SORT(distinct)" | "SORT" | "RETURN"
    ));
    assert_eq!(
        levels(joins),
        levels(&oracle.operators),
        "{what}: per-join-level (label, rows_out, fetched, probes)"
    );
}

#[test]
fn pipeline_agrees_with_the_materializing_oracle_at_every_batch_capacity() {
    let db = db();
    for sql in [
        Q1_LIKE.to_string(),
        Q1_LIKE.replace(" AND d2.level + 1 = d3.level ", " "),
        "SELECT d1.pre AS p FROM doc AS d1 WHERE d1.kind = 'ELEM' ORDER BY d1.pre".to_string(),
    ] {
        let q = parse_sql(&sql).unwrap();
        let plan = optimize(&q, &db).unwrap();
        // Rows, row order, aggregate counters and per-join-level
        // actuals: the independent materializing executor.  Every
        // other actual but `batches`: the default-capacity run.
        let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
        let (_, ops_ref) = run(&plan, &db, &ExecConfig::from_env());
        for cap in [1, 64, 1024] {
            let cfg = ExecConfig::from_env().with_batch_capacity(cap);
            let (t, s) = run(&plan, &db, &cfg);
            let what = format!("{sql} cap {cap}");
            assert_eq!(t, t_ref, "{what}");
            assert_aggregates_match(&s, &s_ref, &what);
            assert_join_levels_match(&s, &s_ref, &what);
            for (a, b) in s.operators.iter().zip(&ops_ref.operators) {
                let (mut a, mut b) = (a.clone(), b.clone());
                (a.batches, b.batches) = (0, 0);
                assert_eq!(a, b, "{what}: per-operator actuals");
            }
            assert_eq!(s.operators.len(), ops_ref.operators.len());
        }
    }
}

/// A database with enough rows that a few-KB budget forces both the
/// SORT tail and a hash-join build side to spill.
fn big_db(rows: i64) -> Database {
    let mut t = Table::new(Schema::new(["pre", "grp", "payload"]));
    for i in 0..rows {
        t.push(vec![
            Value::Int(i),
            Value::Int(i % 97),
            Value::str(format!("row-{i:06}")),
        ]);
    }
    let mut db = Database::new();
    db.create_table("doc", t);
    db
}

/// A value self-equijoin with no supporting index: the optimizer picks
/// a hash join, and `ORDER BY` keeps the SORT tail honest.
const SPILL_SQL: &str = "SELECT d1.pre AS a, d2.pre AS b \
    FROM doc AS d1, doc AS d2 \
    WHERE d1.grp = d2.grp AND d1.pre <= 200 \
    ORDER BY d1.pre, d2.pre";

#[test]
fn tight_budget_spills_sort_and_hash_join_without_changing_results() {
    let db = big_db(2000);
    let q = parse_sql(SPILL_SQL).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let unlimited = ExecConfig::from_env().with_mem_budget(None);
    let (t_ref, s_ref) = run(&plan, &db, &unlimited);
    assert!(t_ref.len() > 1000, "fixture large enough to pressure 16K");

    let tight = ExecConfig::from_env().with_mem_budget(Some(16 * 1024));
    let (t, s) = run(&plan, &db, &tight);
    assert_eq!(t, t_ref, "spilled execution must return identical rows");

    // Actuals agree modulo the spill counters…
    let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
    let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
    assert_eq!(sans, sans_ref);
    // …and the unlimited run never spilled while the tight run spilled
    // on both pipeline breakers.
    assert!(s_ref.operators.iter().all(|o| o.spill_runs == 0));
    let hsjoin = s
        .operators
        .iter()
        .find(|o| o.name.starts_with("HSJOIN"))
        .expect("plan contains a hash join");
    assert!(hsjoin.spill_runs > 0, "build side spilled");
    assert!(hsjoin.spill_bytes > 0);
    assert!(hsjoin.partitions > 0, "Grace partitions reported");
    let sort = s
        .operators
        .iter()
        .find(|o| o.name.starts_with("SORT"))
        .expect("plan has a sort tail");
    assert!(sort.spill_runs > 0, "sort tail spilled runs");
    assert!(sort.spill_bytes > 0);
}

#[test]
fn spilled_executions_agree_across_budgets() {
    let db = big_db(1200);
    let q = parse_sql(SPILL_SQL).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let (t_ref, s_ref) = run(&plan, &db, &ExecConfig::from_env().with_mem_budget(None));
    for budget in [Some(8 * 1024), Some(64 * 1024), None] {
        let cfg = ExecConfig::from_env().with_mem_budget(budget);
        let (t, s) = run(&plan, &db, &cfg);
        assert_eq!(t, t_ref, "budget {budget:?}");
        let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
        let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
        assert_eq!(sans, sans_ref, "actuals modulo spill drifted");
    }
}

#[test]
fn spill_counters_identical_across_batch_capacities_at_fixed_budget() {
    let db = big_db(1500);
    let q = parse_sql(SPILL_SQL).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let budget = Some(16 * 1024);
    let reference = run(&plan, &db, &ExecConfig::from_env().with_mem_budget(budget));
    assert!(
        reference.1.operators.iter().any(|o| o.spill_runs > 0),
        "fixture must spill"
    );
    // Spill runs are cut from the row stream alone, however the rows
    // are batched.
    for cap in [1, 7] {
        let cfg = ExecConfig::from_env()
            .with_mem_budget(budget)
            .with_batch_capacity(cap);
        let got = run(&plan, &db, &cfg);
        assert_eq!(got.0, reference.0);
        let sans_batches = |s: &ExecStats| -> Vec<OpStats> {
            s.operators
                .iter()
                .map(|o| OpStats {
                    batches: 0,
                    ..o.clone()
                })
                .collect()
        };
        assert_eq!(
            sans_batches(&got.1),
            sans_batches(&reference.1),
            "full actuals but batches (spill counters included) at capacity {cap}"
        );
    }
    // Spilling changes where the rows wait, never which rows come back
    // or how much work found them: the in-memory oracle agrees.
    let (t_oracle, s_oracle) = execute_materialized_with_stats(&plan, &db);
    assert_eq!(reference.0, t_oracle);
    assert_aggregates_match(&reference.1, &s_oracle, "spilled run");
}

#[test]
fn dictionary_predicates_run_on_the_code_kernel() {
    let db = big_db(300);
    // `payload` is an all-string column, so its dictionary image is
    // live; sweep every comparison shape including absent literals.
    for (pred, engaged) in [
        ("d1.payload = 'row-000123'", true),
        ("d1.payload = 'absent'", true),
        ("d1.payload <> 'row-000123'", true),
        ("d1.payload < 'row-000100'", true),
        ("d1.payload <= 'row-0000995'", true),
        ("d1.payload > 'row-000200'", true),
        ("d1.payload >= 'row-000200'", true),
        ("'row-000100' <= d1.payload", true),
        // Mixed-type comparison stays on the untyped `Value` compare.
        ("d1.payload > 7", false),
    ] {
        let sql = format!("SELECT d1.pre AS p FROM doc AS d1 WHERE {pred} ORDER BY d1.pre");
        let q = parse_sql(&sql).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let (t, s) = run(&plan, &db, &ExecConfig::from_env());
        let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(t, t_ref, "{pred}");
        assert_join_levels_match(&s, &s_ref, pred);
        let leaf = &s.operators[0];
        assert_eq!(leaf.kernel_rows > 0, engaged, "{pred}");
    }
}

#[test]
fn nljoin_residual_and_access_terms_run_on_the_fused_kernel() {
    // Q1's inner probes carry `col ⋈ outer-expr` terms (`d2.pre > d1.pre`,
    // `d2.pre <= d1.pre + d1.size`, `d2.level + 1 = d3.level`): the fused
    // pass re-evaluates each right-hand side per probe and runs one
    // multi-term mask over the fetched rids, so the NLJOINs now report
    // kernel engagement instead of `kernel_rows: 0`.
    let db = db();
    let q = parse_sql(Q1_LIKE).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let (t, s) = run(&plan, &db, &ExecConfig::from_env());
    let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
    assert_eq!(t, t_ref);
    assert_aggregates_match(&s, &s_ref, "Q1-like");
    assert_join_levels_match(&s, &s_ref, "Q1-like");
    let nljoins: Vec<&OpStats> = s
        .operators
        .iter()
        .filter(|o| o.name.starts_with("NLJOIN"))
        .collect();
    assert!(!nljoins.is_empty(), "fixture plan nests at least one loop");
    assert!(
        nljoins.iter().any(|o| o.kernel_rows > 0),
        "probe terms engage the fused kernel: {nljoins:?}"
    );
}

/// The shipped catalog at benchmark scale 0.1: XMark and DBLP in one
/// `doc` table under the standing index set.
fn shipped_db() -> Database {
    use xqjg_data::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
    let xmark = XmarkConfig {
        scale: 0.1,
        seed: 2,
    };
    let dblp = DblpConfig {
        scale: 0.1,
        seed: 3,
    };
    let mut doc = xqjg_xml::DocTable::from_document("auction.xml", &generate_xmark(&xmark));
    doc.add_document("dblp.xml", &generate_dblp(&dblp));
    let mut db = Database::new();
    db.create_table("doc", xqjg_algebra::doc_relation(&doc));
    for (name, key, clustered) in [
        ("nkp", &["name", "kind", "pre"][..], false),
        ("nkdp", &["name", "kind", "data", "pre"][..], false),
        ("vnkp", &["value", "name", "kind", "pre"][..], false),
        ("p_nvkls", &["pre"][..], true),
    ] {
        let include: &[&str] = if clustered {
            &["name", "value", "kind", "level", "size"]
        } else {
            &[]
        };
        db.create_index(IndexDef {
            name: name.into(),
            table: "doc".into(),
            key_columns: key.iter().map(|c| c.to_string()).collect(),
            include_columns: include.iter().map(|c| c.to_string()).collect(),
            clustered,
        });
    }
    db
}

/// Is every leaf of `e` an integer literal or a column with an `i64`
/// image (NULL-bearing or not)?
fn integer_only(e: &CExpr, base: &Table, outer_tables: &[&Table]) -> bool {
    match e {
        CExpr::Lit(v) => matches!(v, Value::Int(_)),
        CExpr::Cur { col } => base.typed().int_col_nullable(*col).is_some(),
        CExpr::Outer { slot, col } => outer_tables[*slot].typed().int_col_nullable(*col).is_some(),
        CExpr::Add(a, b) => {
            integer_only(a, base, outer_tables) && integer_only(b, base, outer_tables)
        }
    }
}

#[test]
fn shipped_queries_leave_no_integer_nljoin_predicate_interpreted() {
    // Q1-Q6's isolated SQL, one block per `== Qn branch k` header.
    let golden = include_str!("../../../bench/tests/golden_isolated.txt");
    let db = shipped_db();
    let (mut blocks, mut computed) = (0, 0);
    for block in golden.split("== ").filter(|b| !b.is_empty()) {
        let (header, sql) = block.split_once('\n').expect("header line");
        let plan = optimize(&parse_sql(sql).unwrap(), &db).unwrap();
        blocks += 1;
        for (i, stage) in flatten_stages(&plan.root, &db).iter().enumerate() {
            let cs = compile_stage(i, stage, &db);
            if !cs.label.starts_with("NLJOIN") {
                continue;
            }
            for (split, preds) in [
                (&cs.nl_access, &cs.access_preds),
                (&cs.nl_residual, &cs.residual),
            ] {
                computed += split.computed.len();
                for &pi in &split.scalar {
                    let p = &preds[pi];
                    assert!(
                        !(integer_only(&p.lhs, cs.base, &cs.outer_tables)
                            && integer_only(&p.rhs, cs.base, &cs.outer_tables)),
                        "{header}: {} interprets an integer predicate",
                        cs.label
                    );
                }
            }
        }
    }
    assert!(blocks >= 6, "every shipped query compiled");
    assert!(
        computed > 0,
        "Q2's upward containment checks run on the images"
    );
}

#[test]
fn shipped_value_joins_probe_one_shared_code_run() {
    // Q2's two `vnkp (value = dX.value, name = 'id', kind = 'ATTR')`
    // probes are self-joins of `doc` on its dictionary-coded `value`
    // column: both compile to the coded run path, over the same terms.
    let golden = include_str!("../../../bench/tests/golden_isolated.txt");
    let block = golden
        .split("== ")
        .find(|b| b.starts_with("Q2 branch 0"))
        .expect("Q2 in the golden file");
    let sql = block.split_once('\n').expect("header line").1;
    let db = shipped_db();
    let plan = optimize(&parse_sql(sql).unwrap(), &db).unwrap();
    let stages = flatten_stages(&plan.root, &db);
    let mut coded = Vec::new();
    for (i, stage) in stages.iter().enumerate() {
        let cs = compile_stage(i, stage, &db);
        let vnkp = matches!(stage.access, Access::IndexScan { index, .. } if index == "vnkp");
        match cs.run.as_ref().map(|r| &r.shape) {
            Some(RunShape::Coded { terms, .. }) => {
                assert!(vnkp, "{} is coded", cs.label);
                coded.push(terms.clone());
            }
            _ => assert!(!vnkp, "{} probes vnkp off the coded path", cs.label),
        }
    }
    let terms = vec![None, Some(Value::str("id")), Some(Value::str("ATTR"))];
    assert_eq!(coded, [terms.clone(), terms], "both vnkp stages");
    let out = QueryRequest::new(&plan, &db)
        .config(&ExecConfig::from_env())
        .expect_run();
    assert!(!out.rows.is_empty());
    assert_eq!(db.code_runs_built(), 1, "one run serves both stages");
    let (oracle, _) = execute_materialized_with_stats(&plan, &db);
    assert_eq!(out.rows, oracle);
}

/// Rows with NULLs sprinkled through an `i64` column (`grp`) and a
/// dictionary column (`tag`): every typed image is masked, so this
/// fixture exercises the NULL-aware kernels end-to-end.
fn null_db(rows: i64) -> Database {
    let mut t = Table::new(Schema::new(["pre", "grp", "tag", "payload"]));
    for i in 0..rows {
        let grp = if i % 11 == 3 {
            Value::Null
        } else {
            Value::Int(i % 23)
        };
        let tag = if i % 13 == 7 {
            Value::Null
        } else {
            Value::str(format!("t{}", i % 5))
        };
        t.push(vec![
            Value::Int(i),
            grp,
            tag,
            Value::str(format!("row-{i:05}")),
        ]);
    }
    let mut db = Database::new();
    db.create_table("doc", t);
    db
}

#[test]
fn null_bearing_leaf_predicates_engage_masked_kernels() {
    let db = null_db(400);
    // Every comparison shape over the NULL-bearing int and dictionary
    // columns: the masked kernels must agree with the materializing
    // oracle's `Value` comparison, and NULL never satisfies a predicate
    // — not even `<>`.
    for pred in [
        "d1.grp = 5",
        "d1.grp <> 3",
        "d1.grp >= 15",
        "d1.grp < 4",
        "d1.tag = 't3'",
        "d1.tag <> 't3'",
        "d1.tag <> 'absent'",
        "d1.tag >= 't2'",
    ] {
        let sql = format!("SELECT d1.pre AS p FROM doc AS d1 WHERE {pred} ORDER BY d1.pre");
        let q = parse_sql(&sql).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let (t, s) = run(&plan, &db, &ExecConfig::from_env());
        let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(t, t_ref, "{pred}");
        assert_join_levels_match(&s, &s_ref, pred);
        assert!(s.operators[0].kernel_rows > 0, "{pred}: kernel engaged");
        // NULL rows never qualify: `pre % 11 == 3` rows have NULL grp,
        // `pre % 13 == 7` rows have NULL tag.
        let (m, r) = if pred.contains("grp") {
            (11, 3)
        } else {
            (13, 7)
        };
        assert!(
            t.rows().iter().all(|row| row[0].as_i64().unwrap() % m != r),
            "{pred}: NULL must not match"
        );
    }
}

/// A composite-key value equijoin (`i64` + dictionary key, both
/// NULL-bearing) with no supporting index: the optimizer picks a hash
/// join whose key image fuses both columns.
const COMPOSITE_SQL: &str = "SELECT d1.pre AS a, d2.pre AS b \
    FROM doc AS d1, doc AS d2 \
    WHERE d1.grp = d2.grp AND d1.tag = d2.tag AND d1.pre <= 150 \
    ORDER BY d1.pre, d2.pre";

#[test]
fn composite_null_keys_hash_join_matches_the_oracle_even_when_spilled() {
    let db = null_db(800);
    let q = parse_sql(COMPOSITE_SQL).unwrap();
    let plan = optimize(&q, &db).unwrap();
    // Oracle for rows, order, aggregate counters and per-join-level
    // actuals: the materializing executor (owned `Vec<Value>` keys, no
    // hashing kernels, no spill).  Every other actual: the run under no
    // budget.
    let (t_ref, agg_ref) = execute_materialized_with_stats(&plan, &db);
    let (t_mem, s_ref) = run(&plan, &db, &ExecConfig::from_env().with_mem_budget(None));
    assert_eq!(t_mem, t_ref);
    assert!(
        s_ref.operators.iter().any(|o| o.name.starts_with("HSJOIN")),
        "fixture plan must contain a hash join"
    );
    // NULL keys never join (no NULL = NULL matches).
    assert!(t_ref
        .rows()
        .iter()
        .all(|r| r[0].as_i64().unwrap() % 11 != 3 && r[0].as_i64().unwrap() % 13 != 7));
    let mut spilled = false;
    for budget in [None, Some(8 * 1024)] {
        let cfg = ExecConfig::from_env().with_mem_budget(budget);
        let (t, s) = run(&plan, &db, &cfg);
        let what = format!("budget {budget:?}");
        assert_eq!(t, t_ref, "{what}");
        assert_aggregates_match(&s, &agg_ref, &what);
        assert_join_levels_match(&s, &agg_ref, &what);
        let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
        let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
        assert_eq!(sans, sans_ref, "{what}");
        let hsjoin = s
            .operators
            .iter()
            .find(|o| o.name.starts_with("HSJOIN"))
            .unwrap();
        // The fused gather+hash pass engages — NULL-bearing keys
        // included — and its hashes route the spilled leg through the
        // same Grace partitions as the `Value` hash chain.
        assert!(hsjoin.kernel_rows > 0, "{what}");
        spilled |= hsjoin.partitions > 0;
    }
    assert!(spilled, "the tiny budget must exercise the spilled leg");
}

#[test]
fn sort_based_distinct_matches_the_dedup_set_exactly() {
    let db = big_db(2000);
    let sql = "SELECT DISTINCT d1.grp AS g FROM doc AS d1 ORDER BY d1.grp";
    let q = parse_sql(sql).unwrap();
    let plan = optimize(&q, &db).unwrap();
    assert!(plan.distinct);
    // The unbudgeted tail dedups in one hash pass; it and the
    // materializing oracle's dedup set are the references.
    let unlimited = ExecConfig::from_env().with_mem_budget(None);
    let (t_ref, s_ref) = run(&plan, &db, &unlimited);
    assert_eq!(t_ref.len(), 97);
    let (t_oracle, s_oracle) = execute_materialized_with_stats(&plan, &db);
    assert_eq!(t_ref, t_oracle);
    for budget in [Some(4 * 1024), Some(64 * 1024)] {
        // A limited budget engages the two-pass sort DISTINCT.
        let base = ExecConfig::from_env().with_mem_budget(budget);
        let (t_sort, s_sort) = run(&plan, &db, &base);
        assert_eq!(t_sort, t_ref, "budget {budget:?}");
        assert_join_levels_match(&s_sort, &s_oracle, &format!("budget {budget:?}"));
        let sans_sort: Vec<OpStats> = s_sort.operators.iter().map(OpStats::sans_spill).collect();
        let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
        assert_eq!(sans_sort, sans_ref);
    }
    // Under real pressure the sort DISTINCT spills.
    let tight = ExecConfig::from_env().with_mem_budget(Some(4 * 1024));
    let (_, s) = run(&plan, &db, &tight);
    let tail = s.operators.last().unwrap();
    assert_eq!(tail.name, "SORT(distinct)");
    assert!(tail.spill_runs > 0, "distinct tail spilled");
}

#[test]
fn cached_build_sides_charge_the_executing_budget() {
    let db = big_db(900);
    let q = parse_sql(SPILL_SQL).unwrap();
    let plan = optimize(&q, &db).unwrap();
    // A budget wide enough that the build side stays in memory (and so
    // cacheable) but tight enough that the SORT tail spills: the spill
    // pattern then depends on how much of the budget the build
    // occupies — which must be identical whether the build was made
    // fresh or fetched from the session cache.
    let budget = Some(256 * 1024);
    let cache = BuildCache::new();
    let cfg = ExecConfig::from_env().with_mem_budget(budget);
    let (t1, s1) = run_cached(&plan, &db, &cfg, &cache);
    assert_eq!(cache.hits(), 0);
    let (t2, s2) = run_cached(&plan, &db, &cfg, &cache);
    assert!(cache.hits() > 0, "second run hits the cache");
    assert_eq!(t1, t2);
    let sort1 = s1.operators.last().unwrap();
    let sort2 = s2.operators.last().unwrap();
    assert!(sort1.spill_runs > 0, "fixture pressures the sort tail");
    assert_eq!(
        (sort1.spill_runs, sort1.spill_bytes),
        (sort2.spill_runs, sort2.spill_bytes),
        "a cache hit must occupy the budget exactly like a fresh build"
    );
}

#[test]
fn spilled_builds_are_not_cached() {
    let db = big_db(2000);
    let q = parse_sql(SPILL_SQL).unwrap();
    let plan = optimize(&q, &db).unwrap();
    let cache = BuildCache::new();
    let tight = ExecConfig::from_env().with_mem_budget(Some(16 * 1024));
    let (t1, s1) = run_cached(&plan, &db, &tight, &cache);
    assert!(
        s1.operators.iter().any(|o| o.partitions > 0),
        "build must spill under the tight budget"
    );
    assert!(cache.lookups() > 0);
    assert!(
        cache.is_empty(),
        "a spilled build must not be memoized in the session cache"
    );
    let (t2, s2) = run_cached(&plan, &db, &tight, &cache);
    assert_eq!(t1, t2);
    assert_eq!(cache.hits(), 0, "second run rebuilds, it cannot hit");
    assert!(s2.operators.iter().all(|o| o.cache_hits == 0));
    // The same query under an unlimited budget is cached as before.
    let unlimited = ExecConfig::from_env().with_mem_budget(None);
    run_cached(&plan, &db, &unlimited, &cache);
    assert!(!cache.is_empty());
    let (_, s4) = run_cached(&plan, &db, &unlimited, &cache);
    assert!(s4.operators.iter().any(|o| o.cache_hits > 0));
}

#[test]
fn exec_stats_merge_folds_counters() {
    let mut a = ExecStats {
        index_rows: 1,
        scan_rows: 2,
        probes: 3,
        bindings: 4,
        operators: vec![OpStats::named("IXSCAN(d1)")],
    };
    let b = ExecStats {
        index_rows: 10,
        scan_rows: 20,
        probes: 30,
        bindings: 40,
        operators: vec![OpStats::named("SORT")],
    };
    a.merge(&b);
    assert_eq!(a.index_rows, 11);
    assert_eq!(a.scan_rows, 22);
    assert_eq!(a.probes, 33);
    assert_eq!(a.bindings, 44);
    assert_eq!(a.operators.len(), 2);
}
