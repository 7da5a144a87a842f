//! Cost-model regression suite.
//!
//! PR 3 made plan choice deterministic, which exposed that the optimizer
//! ranked a ~60×-slower Q2 join order cheapest: each structural containment
//! window contributed two independent `OUTER_RANGE_SEL` factors, so
//! "somewhere inside the document root" looked like a 0.6% filter and the
//! DP happily crossed `category` against the `item` subtree before the
//! selective value joins, blowing the intermediate binding count to ~25 000
//! for an 11-row result.  The recalibrated model (containment groups with
//! tiling selectivity, one-row cardinality floor) must keep Q2 on a
//! blowup-free order — these tests pin that via the measured `OpStats`, so
//! they hold regardless of how aliases are numbered.
//!
//! They also pin the *complexity* of upward steps, not their milliseconds:
//! a step from an attribute or child up to its owner probes `nkp` with
//! `pre < x` and used to walk every same-named entry before `x` — rows
//! examined per Q2 result grew with the document (60 → 383 → 3 015 at
//! scale 0.1 / 1 / 8).  With the lower bound derived from the `max(size)`
//! extent statistic each such probe walks at most its window, so the ratio
//! is a constant of the query.

use xqjg_bench::{queries, Workload};
use xqjg_engine::{optimize, Access, ExecStats, JoinNode, PhysPlan, QueryRequest, SqlExpr};
use xqjg_store::{Database, ExecConfig, Value};

/// Optimize and run one Table VIII query sequentially: its plans (one per
/// SQL branch), result row count and merged work counters.
fn run(workload: &mut Workload, id: &str) -> (Vec<PhysPlan>, usize, ExecStats) {
    let q = queries().into_iter().find(|q| q.id == id).unwrap();
    let prepared = workload.processor(&q).prepare(q.text).expect("prepares");
    let db: &Database = workload.processor(&q).database();
    let mut plans = Vec::new();
    let mut rows = 0usize;
    let mut stats = ExecStats::default();
    for b in &prepared.branches {
        let plan = optimize(&b.isolated.query, db).expect("optimizes");
        let out = QueryRequest::new(&plan, db)
            .config(&ExecConfig::from_env())
            .expect_run();
        rows += out.rows.len();
        stats.merge(&out.stats);
        plans.push(plan);
    }
    (plans, rows, stats)
}

fn q2_stats(scale: f64) -> (usize, ExecStats) {
    let (_, rows, stats) = run(&mut Workload::new(scale), "Q2");
    (rows, stats)
}

/// The windows of a plan's derived-lower-bound probes, as `(operator
/// position, max(size) of the probed group)`: the optimizer spells the
/// derived bound `x + -max`.
fn derived_windows(plan: &PhysPlan) -> Vec<(usize, usize)> {
    fn walk(node: &JoinNode, out: &mut Vec<(usize, usize)>) -> usize {
        let JoinNode::Join { outer, access, .. } = node else {
            return 0;
        };
        let position = walk(outer, out) + 1;
        if let Access::IndexScan { bounds, .. } = access {
            if let Some((SqlExpr::Add(_, k), _)) = &bounds.lower {
                if let SqlExpr::Lit(Value::Int(neg_max)) = **k {
                    out.push((position, neg_max.unsigned_abs() as usize));
                }
            }
        }
        position
    }
    let mut out = Vec::new();
    walk(&plan.root, &mut out);
    out
}

/// Index rows Q2 may examine per result row, at any scale (measured: 9).
const Q2_INDEX_ROWS_PER_RESULT: usize = 16;

fn assert_upward_steps_cost_their_window(workload: &mut Workload) {
    let scale = workload.scale;
    let (plans, rows, stats) = run(workload, "Q2");
    assert!(rows > 0, "Q2 returns rows at scale {scale}");
    assert!(
        stats.index_rows <= rows * Q2_INDEX_ROWS_PER_RESULT,
        "Q2 at scale {scale}: {} index rows for {rows} results",
        stats.index_rows
    );
    // Every probe with a derived lower bound fetches at most the subtree
    // extent of its group, `max(size) + 1` entries — Q2 has two at least
    // (`item` and `category` from their `@id`).
    let windows = derived_windows(&plans[0]);
    assert!(windows.len() >= 2, "Q2 at scale {scale}: {windows:?}");
    for (position, max_size) in windows {
        let op = &stats.operators[position];
        assert!(
            op.fetched <= op.probes * (max_size + 1),
            "Q2 at scale {scale}: {} exceeds its window of {max_size}",
            op.render()
        );
    }
    // Q3 starts at `@id = "person0"` and walks up: a handful of probes
    // instead of one per person.
    let (_, rows, stats) = run(workload, "Q3");
    assert_eq!(rows, 1);
    assert!(
        stats.index_rows < 100,
        "Q3 at scale {scale}: {} index rows",
        stats.index_rows
    );
}

#[test]
fn upward_steps_cost_their_window_at_every_scale() {
    assert_upward_steps_cost_their_window(&mut Workload::new(0.1));
    assert_upward_steps_cost_their_window(&mut Workload::new(1.0));
}

#[test]
fn q2_join_order_avoids_cartesian_blowup() {
    let (rows, stats) = q2_stats(0.1);
    assert!(rows > 0, "Q2 returns rows at this scale");

    // The misranked order performed ~140 000 index probes and carried a
    // peak of ~25 000 bindings through five join levels; the good order
    // needs under a hundred probes.  A generous 20× headroom keeps the
    // test stable across data-generator tweaks while still catching any
    // return of the blowup order.
    assert!(
        stats.probes < 2_000,
        "Q2 probe count exploded: {} probes (cost model regression?)",
        stats.probes
    );
    let peak_bindings = stats
        .operators
        .iter()
        .filter(|o| o.name.starts_with("NLJOIN") || o.name.starts_with("HSJOIN"))
        .map(|o| o.rows_out)
        .max()
        .unwrap_or(0);
    assert!(
        peak_bindings <= rows * 100,
        "Q2 intermediate bindings exploded: peak {peak_bindings} for {rows} result rows"
    );
}

#[test]
fn q2_leaf_is_the_selective_price_predicate() {
    // The only sub-1%-selectivity entry point of Q2 is `price > 500`; a
    // healthy cost model anchors the pipeline there (or at the document
    // node), never at an unfiltered element scan.
    let mut workload = Workload::new(0.05);
    let q = queries().into_iter().find(|q| q.id == "Q2").unwrap();
    let prepared = workload.processor(&q).prepare(q.text).expect("Q2 prepares");
    let db: &Database = workload.processor(&q).database();
    for b in &prepared.branches {
        let plan = optimize(&b.isolated.query, db).expect("Q2 optimizes");
        let first = plan.join_order()[0].clone();
        // The leaf alias must carry a data-valued or document-level local
        // predicate — i.e. its local estimate is tiny compared to the
        // element population.
        fn leaf_est(node: &xqjg_engine::JoinNode) -> f64 {
            match node {
                xqjg_engine::JoinNode::Leaf { est_rows, .. } => *est_rows,
                xqjg_engine::JoinNode::Join { outer, .. } => leaf_est(outer),
            }
        }
        let leaf_rows = leaf_est(&plan.root);
        assert!(
            leaf_rows <= 64.0,
            "Q2 pipeline anchored at an unselective leaf {first:?} (est {leaf_rows} rows)"
        );
    }
}

/// Every plan of Q1–Q6 at scales 0.1 and 1.0, as recorded at the commit
/// before the join enumeration was rebuilt on bitsets, a step memo and
/// back-pointers: EXPLAIN text, the bit patterns of both estimates, and a
/// hash of the whole tree (`{:?}` — residual order and hash keys, which
/// EXPLAIN only counts).  Planner work that is meant to change a plan
/// regenerates the file with `UPDATE_GOLDEN=1` and reviews the diff.
const GOLDEN_PLANS: &str = "tests/golden_plans.txt";

fn render_golden_plans() -> String {
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut out = String::new();
    for scale in [0.1, 1.0] {
        let mut workload = Workload::new(scale);
        for q in queries() {
            let prepared = workload.processor(&q).prepare(q.text).expect("prepares");
            let db: &Database = workload.processor(&q).database();
            for (i, b) in prepared.branches.iter().enumerate() {
                let plan = optimize(&b.isolated.query, db).expect("optimizes");
                out.push_str(&format!(
                    "== {} scale {scale} branch {i} est_cost={:#018x} est_rows={:#018x} tree={:#018x}\n{}",
                    q.id,
                    plan.est_cost.to_bits(),
                    plan.est_rows.to_bits(),
                    fnv1a(&format!("{:?}", plan.root)),
                    xqjg_engine::explain(&plan)
                ));
            }
        }
    }
    out
}

#[test]
fn plans_match_the_golden_file_byte_for_byte() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PLANS);
    let actual = render_golden_plans();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file readable");
    if let Some((n, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "{GOLDEN_PLANS} line {}:\n  golden: {want}\n  actual: {got}",
            n + 1
        );
    }
    assert_eq!(golden.len(), actual.len(), "{GOLDEN_PLANS}: length differs");
}
