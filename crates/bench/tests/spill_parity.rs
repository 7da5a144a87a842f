//! Spill parity suite: execution under any memory budget must be
//! *observationally identical* to in-memory execution — identical result
//! rows, identical row order, and identical EXPLAIN actuals *modulo* the
//! spill counters (`spill_runs` / `spill_bytes` / `partitions`), across
//! budgets {tiny, medium, unlimited}; the unlimited
//! reference's rows, aggregate counters and per-join-level actuals are
//! themselves checked against the materializing executor.  A
//! deterministic-random property test additionally sweeps arbitrary
//! budgets.

use proptest::prelude::*;
use xqjg_bench::{queries, Workload};
use xqjg_engine::{
    execute_materialized_with_stats, optimize, parse_sql, ExecStats, PhysPlan, QueryRequest,
};
use xqjg_store::{Database, ExecConfig, OpStats, Schema, Table, Value};

/// Rows and counters of `plan` under pinned knobs.
fn run_plan(plan: &PhysPlan, db: &Database, cfg: &ExecConfig) -> (Table, ExecStats) {
    let out = QueryRequest::new(plan, db).config(cfg).expect_run();
    (out.rows, out.stats)
}

const TINY: Option<usize> = Some(1024);
const MEDIUM: Option<usize> = Some(1 << 20);
const UNLIMITED: Option<usize> = None;

/// Actuals must agree except for how much was spilled; the aggregate work
/// counters must agree exactly (spilling changes *where* rows live, never
/// how many were scanned, probed or bound).
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
    let mut spilled_somewhere = false;
    for q in queries() {
        let plans = plans_for(&mut workload, &q);
        let db: &Database = workload.processor(&q).database();
        for plan in &plans {
            let reference = run_plan(plan, db, &ExecConfig::from_env().with_mem_budget(UNLIMITED));
            assert!(
                reference.1.operators.iter().all(|o| o.spill_runs == 0),
                "{}: unlimited budget must never spill",
                q.id
            );
            let (t_oracle, s_oracle) = execute_materialized_with_stats(plan, db);
            assert_eq!(
                reference.0, t_oracle,
                "{}: rows differ from the oracle",
                q.id
            );
            let aggregates = |s: &ExecStats| (s.index_rows, s.scan_rows, s.probes, s.bindings);
            assert_eq!(
                aggregates(&reference.1),
                aggregates(&s_oracle),
                "{}: aggregate counters differ from the oracle",
                q.id
            );
            // One oracle entry per join level; the pipeline adds its tail.
            let levels = |ops: &[OpStats]| -> Vec<(String, usize, usize, usize)> {
                ops.iter()
                    .map(|o| (o.name.clone(), o.rows_out, o.fetched, o.probes))
                    .collect()
            };
            let (_, joins) = reference.1.operators.split_last().expect("a plan tail");
            assert_eq!(
                levels(joins),
                levels(&s_oracle.operators),
                "{}: per-join-level (label, rows_out, fetched, probes) differ from the oracle",
                q.id
            );
            for budget in [TINY, MEDIUM, UNLIMITED] {
                let cfg = ExecConfig::from_env().with_mem_budget(budget);
                let (t, s) = run_plan(plan, db, &cfg);
                let what = format!("{} budget {budget:?}", q.id);
                assert_eq!(t, reference.0, "{what}: rows/order differ");
                assert_stats_match_modulo_spill(&s, &reference.1, &what);
                spilled_somewhere |= s.operators.iter().any(|o| o.spill_runs > 0);
            }
        }
    }
    assert!(
        spilled_somewhere,
        "the tiny budget never engaged the spill path — the suite is vacuous"
    );
}

#[test]
fn spill_counters_are_batch_capacity_invariant_at_fixed_budget() {
    // At a fixed budget the actuals — spill counters included — must not
    // move with the batch capacity, batch counts aside: spill decisions
    // see only the row stream, not how it is cut into batches.
    let sans_batches = |s: &ExecStats| -> Vec<OpStats> {
        s.operators
            .iter()
            .map(|o| OpStats {
                batches: 0,
                ..o.clone()
            })
            .collect()
    };
    let mut workload = Workload::new(0.02);
    for q in queries() {
        let plans = plans_for(&mut workload, &q);
        let db: &Database = workload.processor(&q).database();
        for plan in &plans {
            let reference = run_plan(plan, db, &ExecConfig::from_env().with_mem_budget(TINY));
            for cap in [8, 64] {
                let cfg = ExecConfig::from_env()
                    .with_mem_budget(TINY)
                    .with_batch_capacity(cap);
                let got = run_plan(plan, db, &cfg);
                assert_eq!(got.0, reference.0, "{}: rows", q.id);
                assert_eq!(
                    sans_batches(&got.1),
                    sans_batches(&reference.1),
                    "{}: actuals at batch capacity {cap}",
                    q.id
                );
            }
        }
    }
}

/// Synthetic value-equijoin workload: no supporting index, so the
/// optimizer picks a hash join; `ORDER BY` keeps the SORT tail honest.
fn equijoin_fixture(rows: i64) -> (Database, PhysPlan) {
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
    let q = parse_sql(
        "SELECT d1.pre AS a, d2.pre AS b FROM doc AS d1, doc AS d2 \
         WHERE d1.grp = d2.grp AND d1.pre <= 150 ORDER BY d1.pre, d2.pre",
    )
    .unwrap();
    let plan = optimize(&q, &db).unwrap();
    (db, plan)
}

#[test]
fn tight_budget_spills_both_pipeline_breakers_on_the_hash_workload() {
    let (db, plan) = equijoin_fixture(1500);
    let (t_ref, s_ref) = run_plan(
        &plan,
        &db,
        &ExecConfig::from_env().with_mem_budget(UNLIMITED),
    );
    let (t, s) = run_plan(
        &plan,
        &db,
        &ExecConfig::from_env().with_mem_budget(Some(8 * 1024)),
    );
    assert_eq!(t, t_ref);
    assert_stats_match_modulo_spill(&s, &s_ref, "hash workload");
    let hsjoin = s
        .operators
        .iter()
        .find(|o| o.name.starts_with("HSJOIN"))
        .expect("hash join planned");
    assert!(hsjoin.spill_runs > 0 && hsjoin.spill_bytes > 0 && hsjoin.partitions > 0);
    let sort = s
        .operators
        .iter()
        .find(|o| o.name.starts_with("SORT"))
        .expect("sort tail present");
    assert!(sort.spill_runs > 0 && sort.spill_bytes > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random budgets (from absurdly tight to comfortably large) never
    /// change the result rows or their order.
    #[test]
    fn random_budgets_never_change_results(
        budget in 256usize..128 * 1024,
    ) {
        let (db, plan) = equijoin_fixture(600);
        let reference = run_plan(
            &plan,
            &db,
            &ExecConfig::from_env().with_mem_budget(UNLIMITED),
        );
        let cfg = ExecConfig::from_env().with_mem_budget(Some(budget));
        let (t, s) = run_plan(&plan, &db, &cfg);
        prop_assert_eq!(&t, &reference.0, "budget {} changed rows", budget);
        let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
        let sans_ref: Vec<OpStats> =
            reference.1.operators.iter().map(OpStats::sans_spill).collect();
        prop_assert_eq!(sans, sans_ref, "budget {} changed actuals", budget);
    }
}
