//! DOP parity suite: for every Table IX query, the morsel-parallel
//! executor must be *observationally identical* to sequential execution —
//! identical result rows (after SORT) and identical aggregated per-operator
//! actuals — at every degree of parallelism, morsel size and evaluation
//! path (relational join graph and the pureXML-style baseline).

use xqjg_bench::{queries, DataSet, Workload};
use xqjg_engine::{optimize, ExecStats, PhysPlan, QueryRequest};
use xqjg_purexml::{PureXmlStore, Storage};
use xqjg_store::{Database, ExecConfig, Table};
use xqjg_xquery::parse_and_normalize;

/// The old tuple-shaped entry point, expressed over the unified
/// [`QueryRequest`] API (the only execution path this suite drives).
fn execute_with_stats_config(
    plan: &PhysPlan,
    db: &Database,
    cfg: &ExecConfig,
) -> (Table, ExecStats) {
    let out = QueryRequest::new(plan, db).config(cfg).expect_run();
    (out.rows, out.stats)
}

const DOPS: [usize; 3] = [1, 2, 4];

/// A copy of `s` with every operator's `kernel_rows` zeroed — the one
/// counter allowed to differ between the vectorized executor (which runs
/// the typed kernels) and the scalar fallback (which does not).
fn sans_kernels(s: &ExecStats) -> ExecStats {
    let mut s = s.clone();
    for op in &mut s.operators {
        op.kernel_rows = 0;
    }
    s
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
fn join_graph_results_and_actuals_identical_across_dop() {
    let mut workload = Workload::new(0.02);
    for q in queries() {
        let plans = plans_for(&mut workload, &q);
        let db: &Database = workload.processor(&q).database();
        for plan in &plans {
            // One reference per evaluation path: the vectorized executor
            // runs the typed kernels (its `kernel_rows` count the fused
            // passes), the scalar row-at-a-time fallback runs none — so
            // each configuration must exactly match the reference of *its*
            // path, and the two references must agree on everything except
            // kernel engagement.
            let (t_ref, s_ref) =
                execute_with_stats_config(plan, db, &ExecConfig::sequential().with_vectorize(true));
            let (t_row, s_row) = execute_with_stats_config(
                plan,
                db,
                &ExecConfig::sequential().with_vectorize(false),
            );
            assert_eq!(t_row, t_ref, "{}: rows differ across executors", q.id);
            // `fetched` is an `OpStats` field, so the equalities below hold
            // it DOP-, morsel- and executor-invariant; here, that it is the
            // per-operator split of the query totals.
            let fetched: usize = s_ref.operators.iter().map(|o| o.fetched).sum();
            assert!(fetched > 0, "{}: no operator reports fetch work", q.id);
            assert_eq!(
                fetched,
                s_ref.index_rows + s_ref.scan_rows,
                "{}: per-operator fetched does not add up",
                q.id
            );
            assert_eq!(
                sans_kernels(&s_row),
                sans_kernels(&s_ref),
                "{}: executors differ beyond kernel engagement",
                q.id
            );
            for threads in DOPS {
                // A tiny morsel size forces genuine multi-morsel merging
                // even at this scale; the default exercises the
                // effective-morsel-size shrink path.  Both executors — the
                // vectorized columnar one and the scalar row-at-a-time
                // fallback — must match their sequential reference.
                for morsel_size in [3, xqjg_store::DEFAULT_MORSEL_SIZE] {
                    for vectorize in [true, false] {
                        let (exp_t, exp_s) = if vectorize {
                            (&t_ref, &s_ref)
                        } else {
                            (&t_row, &s_row)
                        };
                        let cfg = ExecConfig::sequential()
                            .with_threads(threads)
                            .with_morsel_size(morsel_size)
                            .with_vectorize(vectorize);
                        let (t, s) = execute_with_stats_config(plan, db, &cfg);
                        assert_eq!(
                            &t, exp_t,
                            "{}: rows differ at DOP {threads} (vectorize {vectorize})",
                            q.id
                        );
                        assert_eq!(
                            &s, exp_s,
                            "{}: aggregated OpStats differ at DOP {threads} \
                             (morsel {morsel_size}, vectorize {vectorize})",
                            q.id
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn join_graph_aggregate_counters_identical_across_dop() {
    let mut workload = Workload::new(0.02);
    for q in queries() {
        let plans = plans_for(&mut workload, &q);
        let db: &Database = workload.processor(&q).database();
        let run = |threads: usize| {
            let mut stats = ExecStats::default();
            let cfg = ExecConfig::sequential()
                .with_threads(threads)
                .with_morsel_size(5);
            for plan in &plans {
                stats.merge(&execute_with_stats_config(plan, db, &cfg).1);
            }
            stats
        };
        let reference = run(1);
        assert!(
            !reference.operators.is_empty(),
            "{}: operators recorded",
            q.id
        );
        for threads in DOPS {
            assert_eq!(run(threads), reference, "{}: DOP {threads}", q.id);
        }
    }
}

#[test]
fn purexml_results_and_actuals_identical_across_dop() {
    let workload = Workload::new(0.02);
    for q in queries() {
        // Q2's navigational evaluation is the harness's DNF case — skip it
        // here exactly as Table IX does.
        if q.id == "Q2" {
            continue;
        }
        let (doc, uri, depth) = workload.encoding(&q);
        let core = parse_and_normalize(q.text, Some(uri)).expect("query normalizes");
        for storage in [Storage::Whole, Storage::Segmented { depth }] {
            let mut store = PureXmlStore::new(doc, storage);
            store.create_pattern_index(&["person", "@id"]);
            store.create_pattern_index(&["closed_auction", "price"]);
            store.create_pattern_index(&["proceedings", "@key"]);
            store.create_pattern_index(&["phdthesis", "year"]);
            let reference = store.query(&core).config(&ExecConfig::sequential()).run();
            for threads in DOPS {
                let cfg = ExecConfig::sequential()
                    .with_threads(threads)
                    .with_morsel_size(2);
                let got = store.query(&core).config(&cfg).run();
                assert_eq!(
                    got.0, reference.0,
                    "{}: items differ at DOP {threads} ({storage:?})",
                    q.id
                );
                assert_eq!(
                    got.1, reference.1,
                    "{}: stats differ at DOP {threads} ({storage:?})",
                    q.id
                );
            }
        }
    }
}

#[test]
fn stacked_materialized_rows_metric_unaffected_by_parallel_knobs() {
    // The stacked evaluator runs DOP-independent (its DAG memoization is
    // inherently order-sensitive); its materialized-rows metric must not
    // move when the parallel executor is in play for the other modes.
    let mut workload = Workload::new(0.02);
    let q = queries()
        .into_iter()
        .find(|q| q.dataset == DataSet::Xmark)
        .unwrap();
    let prepared = workload.processor(&q).prepare(q.text).unwrap();
    let doc = workload.xmark_doc.clone();
    let rel = xqjg_algebra::doc_relation(&doc);
    let ctx = xqjg_algebra::EvalContext { doc: &rel };
    let branch = &prepared.branches[0];
    let a = xqjg_algebra::materialized_rows(&branch.stacked, &ctx);
    let b = xqjg_algebra::materialized_rows(&branch.stacked, &ctx);
    assert_eq!(a, b);
    assert!(a > 0);
}
