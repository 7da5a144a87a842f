//! Typed-kernel parity suite: execution with the typed-column kernels
//! (`XQJG_TYPED_KERNELS=1`, the default) must be *observationally
//! identical* to the untyped [`Value`] comparisons — identical result
//! rows, identical row order, and identical EXPLAIN actuals modulo the
//! governor-dependent counters (`spill_runs` / `spill_bytes` /
//! `partitions` / `kernel_rows`) — across the Table IX workload and a
//! synthetic hash-join workload, swept over typed {on, off} × DOP {1, 4}
//! × budget {unlimited, 256 KiB}.  Rows, order and the aggregate counters
//! are additionally checked against the materializing executor at batch
//! capacities {1, 64, 1024}.  A deterministic-random property test sweeps
//! random predicates, NULL densities and budgets, and the NLJOIN predicate
//! shapes that run on the integer images: computed sums over the inner
//! row, `cur.col + k = outer.col`, and outer-only right-hand sides over
//! NULL-bearing, decimal and near-`i64::MAX` outer columns.
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

/// The oracle that is not the executor: at batch capacities {1, 64, 1024}
/// the pipeline under `cfg` must return the materializing executor's rows
/// in its order and report its aggregate work counters.
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
    }
    Ok(())
}

const UNLIMITED: Option<usize> = None;
const BOUNDED: Option<usize> = Some(256 * 1024);

/// Actuals must agree except for the governor-dependent counters; the
/// aggregate work counters must agree exactly (the kernels change the
/// representation comparisons run on, never how many rows were scanned,
/// probed or bound).
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
fn table9_queries_identical_across_typed_toggle_dop_and_budget() {
    let mut workload = Workload::new(0.02);
    for q in queries() {
        let plans = plans_for(&mut workload, &q);
        let db: &Database = workload.processor(&q).database();
        for plan in &plans {
            let ref_cfg = ExecConfig::sequential()
                .with_typed_kernels(true)
                .with_mem_budget(UNLIMITED);
            let reference = run_plan(plan, db, &ref_cfg);
            check_against_materializing_oracle(plan, db, &ref_cfg, q.id)
                .unwrap_or_else(|e| panic!("{e}"));
            for typed in [true, false] {
                for budget in [UNLIMITED, BOUNDED] {
                    for threads in [1, 4] {
                        let cfg = ExecConfig::sequential()
                            .with_typed_kernels(typed)
                            .with_mem_budget(budget)
                            .with_threads(threads)
                            .with_morsel_size(16);
                        let (t, s) = run_plan(plan, db, &cfg);
                        let what =
                            format!("{} typed {typed} budget {budget:?} DOP {threads}", q.id);
                        assert_eq!(t, reference.0, "{what}: rows/order differ");
                        assert_stats_match_modulo_spill(&s, &reference.1, &what);
                    }
                }
            }
        }
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
        let ref_cfg = ExecConfig::sequential()
            .with_typed_kernels(true)
            .with_mem_budget(UNLIMITED);
        let reference = run_plan(&plan, &db, &ref_cfg);
        check_against_materializing_oracle(&plan, &db, &ref_cfg, "hash workload")
            .unwrap_or_else(|e| panic!("distinct {distinct}: {e}"));
        let mut engaged = false;
        for typed in [true, false] {
            for budget in [UNLIMITED, BOUNDED, Some(8 * 1024)] {
                for threads in [1, 4] {
                    let cfg = ExecConfig::sequential()
                        .with_typed_kernels(typed)
                        .with_mem_budget(budget)
                        .with_threads(threads)
                        .with_morsel_size(64);
                    let (t, s) = run_plan(&plan, &db, &cfg);
                    let what = format!(
                        "distinct {distinct} typed {typed} budget {budget:?} DOP {threads}"
                    );
                    assert_eq!(t, reference.0, "{what}: rows/order differ");
                    assert_stats_match_modulo_spill(&s, &reference.1, &what);
                    let kernels = s.operators.iter().map(|o| o.kernel_rows).sum::<usize>();
                    if typed {
                        engaged |= kernels > 0;
                    } else {
                        assert_eq!(kernels, 0, "{what}: kernels off must not engage");
                    }
                }
            }
        }
        assert!(
            engaged,
            "distinct {distinct}: the typed legs never engaged a kernel — the suite is vacuous"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random predicate constants, budgets and DOP: typed kernels and the
    /// untyped `Value` comparisons must return identical rows in identical
    /// order, with identical actuals modulo the governor counters.
    #[test]
    fn typed_and_untyped_comparisons_agree_over_random_predicates(
        bound in 0i64..900,
        needle in 0usize..1000,
        budget_bytes in 4096usize..64 * 1024,
        unlimited in proptest::bool::ANY,
        threads in 1usize..5,
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
        let cfg = ExecConfig::sequential()
            .with_mem_budget(budget)
            .with_threads(threads)
            .with_morsel_size(64);
        let (t_on, s_on) =
            run_plan(&plan, &db, &cfg.clone().with_typed_kernels(true));
        let (t_off, s_off) =
            run_plan(&plan, &db, &cfg.with_typed_kernels(false));
        prop_assert_eq!(&t_on, &t_off, "typed toggle changed rows");
        let sans_on: Vec<OpStats> = s_on.operators.iter().map(OpStats::sans_spill).collect();
        let sans_off: Vec<OpStats> = s_off.operators.iter().map(OpStats::sans_spill).collect();
        prop_assert_eq!(sans_on, sans_off, "typed toggle changed actuals");
        prop_assert_eq!(s_on.scan_rows, s_off.scan_rows);
        prop_assert_eq!(s_on.probes, s_off.probes);
        prop_assert_eq!(s_on.bindings, s_off.bindings);
    }

    /// NULL-aware sweep: random NULL densities over an `i64` and a
    /// dictionary column, a composite (two-column, NULL-bearing) equijoin
    /// key, and a multi-term conjunctive residual — every configuration
    /// must return the materializing oracle's rows, order and aggregate
    /// counters, and the per-operator actuals of the sequential kernels-off
    /// run, spilled legs included.
    #[test]
    fn null_density_composite_keys_and_multi_term_predicates_match_the_oracle(
        rows in 150i64..500,
        grp_nulls in 2i64..12,
        tag_nulls in 2i64..12,
        bound in 0i64..500,
        lo in 0i64..25,
        tiny in proptest::bool::ANY,
        four_way in proptest::bool::ANY,
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
        let threads = if four_way { 4 } else { 1 };
        let budget = tiny.then_some(4 * 1024);
        // Per-operator reference: sequential, kernels off.
        let (t_ref, s_ref) = run_plan(
            &plan,
            &db,
            &ExecConfig::sequential()
                .with_typed_kernels(false)
                .with_mem_budget(budget),
        );
        for typed in [true, false] {
            let cfg = ExecConfig::sequential()
                .with_typed_kernels(typed)
                .with_mem_budget(budget)
                .with_threads(threads)
                .with_morsel_size(32);
            let oracle = check_against_materializing_oracle(&plan, &db, &cfg, "null sweep");
            prop_assert!(oracle.is_ok(), "typed {}: {:?}", typed, oracle);
            let (t, s) = run_plan(&plan, &db, &cfg);
            prop_assert_eq!(&t, &t_ref, "typed {} diverged from kernels-off", typed);
            prop_assert_eq!(s.scan_rows, s_ref.scan_rows);
            prop_assert_eq!(s.probes, s_ref.probes);
            prop_assert_eq!(s.bindings, s_ref.bindings);
            let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
            let sans_ref: Vec<OpStats> =
                s_ref.operators.iter().map(OpStats::sans_spill).collect();
            prop_assert_eq!(sans, sans_ref, "typed {} changed actuals", typed);
        }
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
        four_way in proptest::bool::ANY,
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
        let threads = if four_way { 4 } else { 1 };
        let (t_ref, s_ref) = run_plan(
            &plan,
            &db,
            &ExecConfig::sequential().with_typed_kernels(false),
        );
        for typed in [true, false] {
            let cfg = ExecConfig::sequential()
                .with_typed_kernels(typed)
                .with_threads(threads)
                .with_morsel_size(16);
            let oracle = check_against_materializing_oracle(&plan, &db, &cfg, &sql);
            prop_assert!(oracle.is_ok(), "typed {}: {:?}", typed, oracle);
            let (t, s) = run_plan(&plan, &db, &cfg);
            prop_assert_eq!(&t, &t_ref, "typed {} diverged from kernels-off: {}", typed, &sql);
            let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
            let sans_ref: Vec<OpStats> =
                s_ref.operators.iter().map(OpStats::sans_spill).collect();
            prop_assert_eq!(sans, sans_ref, "typed {} changed actuals: {}", typed, &sql);
            let nljoin_kernels: usize = s
                .operators
                .iter()
                .filter(|o| o.name.starts_with("NLJOIN"))
                .map(|o| o.kernel_rows)
                .sum();
            prop_assert_eq!(
                nljoin_kernels > 0,
                typed,
                "typed {}: the NLJOIN probe must run on the images exactly when kernels are on: {} {:?}",
                typed,
                &sql, &s.operators
            );
        }
    }
}
