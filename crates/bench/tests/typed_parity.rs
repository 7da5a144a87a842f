//! Typed-kernel parity suite: execution on the typed-column kernels must be
//! *observationally identical* to the untyped [`Value`] comparisons of the
//! materializing executor — identical result rows, identical row order,
//! identical aggregate counters and identical per-join-level actuals
//! (`rows_out`, `fetched`, `probes`) at batch capacities {1, 64, 1024} —
//! across the Table IX workload and a synthetic hash-join workload.  Every
//! other EXPLAIN actual must not move across budgets {unlimited, 256 KiB},
//! modulo the governor-dependent counters
//! (`spill_runs` / `spill_bytes` / `partitions` / `kernel_rows`).  A
//! deterministic-random property test sweeps random predicates, NULL
//! densities and budgets, and the NLJOIN predicate shapes that run on the
//! integer images: computed sums over the inner row, `cur.col + k =
//! outer.col`, and outer-only right-hand sides over NULL-bearing, decimal
//! and near-`i64::MAX` outer columns.
//!
//! [`Value`]: xqjg_store::Value

use proptest::prelude::*;
use xqjg_bench::{queries, Workload};
use xqjg_engine::{
    execute_materialized_with_stats, optimize, parse_sql, ExecStats, PhysPlan, QueryRequest,
};
use xqjg_store::{Database, ExecConfig, IndexDef, OpStats, Schema, Table, Value};

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

/// The oracle that is not the executor: at batch capacities {1, 64, 1024}
/// the pipeline under `cfg` must return the materializing executor's rows
/// in its order and report its aggregate work counters and per-join-level
/// actuals.
fn check_against_materializing_oracle(
    plan: &PhysPlan,
    db: &Database,
    cfg: &ExecConfig,
    what: &str,
) -> Result<(), String> {
    let (t_ref, s_ref) = execute_materialized_with_stats(plan, db);
    for cap in [1, 64, 1024] {
        let (t, s) = run_plan(plan, db, &cfg.clone().with_batch_capacity(cap));
        if t != t_ref {
            return Err(format!(
                "{what} cap {cap}: rows/order differ from the oracle"
            ));
        }
        let aggregates = |s: &ExecStats| (s.index_rows, s.scan_rows, s.probes, s.bindings);
        let (got, want) = (aggregates(&s), aggregates(&s_ref));
        if got != want {
            return Err(format!(
                "{what} cap {cap}: (index_rows, scan_rows, probes, bindings) {got:?} != oracle {want:?}"
            ));
        }
        let (got, want) = (join_levels(&s, true), join_levels(&s_ref, false));
        if got != want {
            return Err(format!(
                "{what} cap {cap}: per-join-level (label, rows_out, fetched, probes) {got:?} != oracle {want:?}"
            ));
        }
    }
    Ok(())
}

const UNLIMITED: Option<usize> = None;
const BOUNDED: Option<usize> = Some(256 * 1024);

/// Actuals must agree except for the governor-dependent counters; the
/// aggregate work counters must agree exactly (the budget changes where
/// rows wait, never how many were scanned, probed or bound).
fn assert_stats_match_modulo_spill(got: &ExecStats, reference: &ExecStats, what: &str) {
    assert_eq!(got.index_rows, reference.index_rows, "{what}: index_rows");
    assert_eq!(got.scan_rows, reference.scan_rows, "{what}: scan_rows");
    assert_eq!(got.probes, reference.probes, "{what}: probes");
    assert_eq!(got.bindings, reference.bindings, "{what}: bindings");
    let sans: Vec<OpStats> = got.operators.iter().map(OpStats::sans_spill).collect();
    let sans_ref: Vec<OpStats> = reference
        .operators
        .iter()
        .map(OpStats::sans_spill)
        .collect();
    assert_eq!(sans, sans_ref, "{what}: operator actuals modulo spill");
    // `sans_spill` keeps `fetched`, so the line above pins it per operator;
    // it must also still be the split of the totals on every path.
    let fetched: usize = got.operators.iter().map(|o| o.fetched).sum();
    assert_eq!(fetched, got.index_rows + got.scan_rows, "{what}: fetched");
}

/// Per-query optimized plans (one per decomposed SQL branch).
fn plans_for(workload: &mut Workload, q: &xqjg_bench::BenchQuery) -> Vec<PhysPlan> {
    let prepared = workload
        .processor(q)
        .prepare(q.text)
        .unwrap_or_else(|e| panic!("{} fails to prepare: {e}", q.id));
    let db: &Database = workload.processor(q).database();
    prepared
        .branches
        .iter()
        .map(|b| optimize(&b.isolated.query, db).expect("plan optimizes"))
        .collect()
}

#[test]
fn table9_queries_identical_across_budgets() {
    let mut workload = Workload::new(0.02);
    for q in queries() {
        let plans = plans_for(&mut workload, &q);
        let db: &Database = workload.processor(&q).database();
        let mut merged = ExecStats::default();
        for plan in &plans {
            let ref_cfg = ExecConfig::sequential().with_mem_budget(UNLIMITED);
            let reference = run_plan(plan, db, &ref_cfg);
            check_against_materializing_oracle(plan, db, &ref_cfg, q.id)
                .unwrap_or_else(|e| panic!("{e}"));
            let fetched: usize = reference.1.operators.iter().map(|o| o.fetched).sum();
            assert!(fetched > 0, "{}: no operator reports fetch work", q.id);
            for budget in [UNLIMITED, BOUNDED] {
                let cfg = ExecConfig::sequential().with_mem_budget(budget);
                let (t, s) = run_plan(plan, db, &cfg);
                let what = format!("{} budget {budget:?}", q.id);
                assert_eq!(t, reference.0, "{what}: rows/order differ");
                assert_stats_match_modulo_spill(&s, &reference.1, &what);
            }
            merged.merge(&reference.1);
        }
        assert!(!merged.operators.is_empty(), "{}: operators recorded", q.id);
    }
}

/// Synthetic value-equijoin workload over all-typed columns (`pre`/`grp`
/// are pure `i64`, `payload` is a pure string column): no supporting
/// index, so the optimizer picks a hash join, the leaf predicate runs on
/// the `i64` kernel, and `ORDER BY` keeps the SORT tail honest.
fn equijoin_fixture(rows: i64, distinct: bool) -> (Database, PhysPlan) {
    let mut t = Table::new(Schema::new(["pre", "grp", "payload"]));
    for i in 0..rows {
        t.push(vec![
            Value::Int(i),
            Value::Int(i % 53),
            Value::str(format!("payload-{i:05}")),
        ]);
    }
    let mut db = Database::new();
    db.create_table("doc", t);
    let sql = if distinct {
        "SELECT DISTINCT d1.grp AS g, d2.grp AS h FROM doc AS d1, doc AS d2 \
         WHERE d1.grp = d2.grp AND d1.pre <= 150 ORDER BY d1.grp"
    } else {
        "SELECT d1.pre AS a, d2.pre AS b FROM doc AS d1, doc AS d2 \
         WHERE d1.grp = d2.grp AND d1.pre <= 150 ORDER BY d1.pre, d2.pre"
    };
    let plan = optimize(&parse_sql(sql).unwrap(), &db).unwrap();
    (db, plan)
}

#[test]
fn hash_workload_identical_across_typed_toggle_and_engages_kernels() {
    for distinct in [false, true] {
        let (db, plan) = equijoin_fixture(900, distinct);
        let ref_cfg = ExecConfig::sequential().with_mem_budget(UNLIMITED);
        let reference = run_plan(&plan, &db, &ref_cfg);
        check_against_materializing_oracle(&plan, &db, &ref_cfg, "hash workload")
            .unwrap_or_else(|e| panic!("distinct {distinct}: {e}"));
        for budget in [UNLIMITED, BOUNDED, Some(8 * 1024)] {
            let cfg = ExecConfig::sequential().with_mem_budget(budget);
            let (t, s) = run_plan(&plan, &db, &cfg);
            let what = format!("distinct {distinct} budget {budget:?}");
            assert_eq!(t, reference.0, "{what}: rows/order differ");
            assert_stats_match_modulo_spill(&s, &reference.1, &what);
            let kernels = s.operators.iter().map(|o| o.kernel_rows).sum::<usize>();
            assert!(
                kernels > 0,
                "{what}: no kernel engaged — the suite is vacuous"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random predicate constants and budgets: the typed kernels and
    /// the materializing oracle's untyped `Value` comparisons must return
    /// identical rows in identical order, with identical aggregate counters
    /// and per-join-level actuals; every other actual must match the
    /// sequential unbudgeted run modulo the governor counters.
    #[test]
    fn typed_and_untyped_comparisons_agree_over_random_predicates(
        bound in 0i64..900,
        needle in 0usize..1000,
        budget_bytes in 4096usize..64 * 1024,
        unlimited in proptest::bool::ANY,
    ) {
        let budget = (!unlimited).then_some(budget_bytes);
        let mut t = Table::new(Schema::new(["pre", "grp", "payload"]));
        for i in 0..900i64 {
            t.push(vec![
                Value::Int(i),
                Value::Int(i % 37),
                Value::str(format!("payload-{:05}", i % 250)),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        let sql = format!(
            "SELECT d1.pre AS a, d2.pre AS b FROM doc AS d1, doc AS d2 \
             WHERE d1.grp = d2.grp AND d1.pre <= {bound} \
             AND d2.payload >= 'payload-{needle:05}' \
             ORDER BY d1.pre, d2.pre"
        );
        let plan = optimize(&parse_sql(&sql).unwrap(), &db).unwrap();
        let cfg = ExecConfig::sequential().with_mem_budget(budget);
        let oracle = check_against_materializing_oracle(&plan, &db, &cfg, &sql);
        prop_assert!(oracle.is_ok(), "{:?}", oracle);
        let (_, s) = run_plan(&plan, &db, &cfg);
        let (_, s_ref) = run_plan(&plan, &db, &ExecConfig::sequential().with_mem_budget(None));
        let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
        let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
        prop_assert_eq!(sans, sans_ref, "the budget changed actuals");
    }

    /// NULL-aware sweep: random NULL densities over an `i64` and a
    /// dictionary column, a composite (two-column, NULL-bearing) equijoin
    /// key, and a multi-term conjunctive residual — every configuration
    /// must return the materializing oracle's rows, order, aggregate
    /// counters and per-join-level actuals, spilled legs included.
    #[test]
    fn null_density_composite_keys_and_multi_term_predicates_match_the_oracle(
        rows in 150i64..500,
        grp_nulls in 2i64..12,
        tag_nulls in 2i64..12,
        bound in 0i64..500,
        lo in 0i64..25,
        tiny in proptest::bool::ANY,
    ) {
        let mut t = Table::new(Schema::new(["pre", "grp", "tag", "val"]));
        for i in 0..rows {
            let grp = if i % grp_nulls == 1 {
                Value::Null
            } else {
                Value::Int(i % 29)
            };
            let tag = if i % tag_nulls == 0 {
                Value::Null
            } else {
                Value::str(format!("t{}", i % 7))
            };
            t.push(vec![Value::Int(i), grp, tag, Value::Int(i % 41)]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        // Composite hash key over both NULL-bearing columns plus a
        // conjunction of imaged residual terms on each side.
        let sql = format!(
            "SELECT d1.pre AS a, d2.pre AS b FROM doc AS d1, doc AS d2 \
             WHERE d1.grp = d2.grp AND d1.tag = d2.tag \
             AND d1.pre <= {bound} AND d1.val >= {lo} AND d2.val <> {lo} \
             ORDER BY d1.pre, d2.pre"
        );
        let plan = optimize(&parse_sql(&sql).unwrap(), &db).unwrap();
        let budget = tiny.then_some(4 * 1024);
        let cfg = ExecConfig::sequential().with_mem_budget(budget);
        let oracle = check_against_materializing_oracle(&plan, &db, &cfg, "null sweep");
        prop_assert!(oracle.is_ok(), "{:?}", oracle);
    }

    /// NLJOIN predicates lowered onto the `i64` images — per-probe
    /// outer-only right-hand sides and per-rid computed checks — must agree
    /// with the interpreted `Value` path and the materializing oracle,
    /// including where the images cannot answer: NULL outer operands, a
    /// decimal outer column, and sums that overflow `i64`.
    #[test]
    fn nljoin_integer_predicates_match_the_interpreted_path_and_the_oracle(
        rows in 60i64..160,
        nulls in 2i64..9,
        bound in 0i64..40,
        k in -3i64..4,
        level_step in proptest::bool::ANY,
        null_rhs in proptest::bool::ANY,
        dec_rhs in proptest::bool::ANY,
        near_max in proptest::bool::ANY,
    ) {
        let mut t = Table::new(Schema::new(["pre", "size", "lvl", "grp", "dec", "big"]));
        for i in 0..rows {
            let grp = if i % nulls == 1 {
                Value::Null
            } else {
                Value::Int(i % 29)
            };
            t.push(vec![
                Value::Int(i),
                Value::Int((i * 7) % 13),
                Value::Int(i % 5),
                grp,
                Value::Dec(i as f64 / 2.0),
                Value::Int(i64::MAX - i % 50),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        // The document-order index makes the window an index probe, so the
        // equality below stays an NLJOIN predicate instead of a hash key.
        db.create_index(IndexDef {
            name: "p".into(),
            table: "doc".into(),
            key_columns: vec!["pre".into()],
            include_columns: vec![],
            clustered: true,
        });
        // A containment window with a computed sum over the inner row on
        // one side, plus the optional shapes.
        let mut preds = vec![
            format!("d1.pre <= {bound}"),
            "d1.pre < d2.pre".to_string(),
            "d1.pre <= d2.pre + d2.size".to_string(),
            "d2.pre <= d1.pre + d1.size + 20".to_string(),
        ];
        if level_step {
            preds.push(format!("d2.lvl + {k} = d1.lvl"));
        }
        if null_rhs {
            preds.push(format!("d2.pre > d1.grp + {k}"));
        }
        if dec_rhs {
            preds.push("d2.pre >= d1.dec + 1".to_string());
        }
        if near_max {
            preds.push(format!("d2.big + {} >= d1.big", 40 + k));
            preds.push(format!("d2.pre + {} <= d1.big + 1", 60 + k));
        }
        let sql = format!(
            "SELECT d1.pre AS a, d2.pre AS b FROM doc AS d1, doc AS d2 WHERE {} \
             ORDER BY d1.pre, d2.pre",
            preds.join(" AND ")
        );
        let plan = optimize(&parse_sql(&sql).unwrap(), &db).unwrap();
        let cfg = ExecConfig::sequential();
        let oracle = check_against_materializing_oracle(&plan, &db, &cfg, &sql);
        prop_assert!(oracle.is_ok(), "{:?}", oracle);
        let (_, s) = run_plan(&plan, &db, &cfg);
        let nljoin_kernels: usize = s
            .operators
            .iter()
            .filter(|o| o.name.starts_with("NLJOIN"))
            .map(|o| o.kernel_rows)
            .sum();
        prop_assert!(
            nljoin_kernels > 0,
            "the NLJOIN probe must run on the images: {} {:?}",
            &sql, &s.operators
        );
    }
}
