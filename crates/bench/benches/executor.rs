//! Pipelined vs. materializing executor on the paper's XMark join-graph
//! queries (Q1's structural triple self-join and Q2's value-join over
//! closed auctions, items and categories — the Q8-class shape of XMark).
//!
//! Both sides run the *same* optimized `PhysPlan`; the only difference is
//! the execution strategy: batch-at-a-time operator pipeline
//! ([`xqjg_engine::QueryRequest`]) vs. the seed's
//! materialize-every-join-level baseline
//! ([`xqjg_engine::execute_materialized`]).
//!
//! `tail/Q4` times the plan tail at the size where it dominates: Q4 at
//! XMark scale 8 binds 4 000 rows into `SELECT DISTINCT d1.pre … ORDER BY
//! d1.pre` (one select column) behind two index probes per row.
//! `serialize/Q1` times serializing Q1's answer on the same document:
//! 3 404 `open_auction` subtrees of the default-seed document.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xqjg_bench::{queries, Workload};
use xqjg_core::{Mode, Processor};
use xqjg_data::{generate_xmark_encoded, XmarkConfig};
use xqjg_engine::{execute_materialized, optimize, PhysPlan, QueryRequest};

/// The optimized plan of every SQL block of `text` on `p`.
fn optimized_plans(p: &mut Processor, text: &str) -> Vec<PhysPlan> {
    let prepared = p.prepare(text).expect("query prepares");
    let db = p.database();
    prepared
        .branches
        .iter()
        .map(|b| optimize(&b.isolated.query, db).expect("plan optimizes"))
        .collect()
}

fn run_pipelined(plans: &[PhysPlan], db: &xqjg_store::Database) -> usize {
    plans
        .iter()
        .map(|p| QueryRequest::new(p, db).expect_run().rows.len())
        .sum()
}

fn bench_executor(c: &mut Criterion) {
    let mut workload = Workload::new(0.1);
    let mut group = c.benchmark_group("executor");
    group.sample_size(10);
    for q in queries()
        .into_iter()
        .filter(|q| q.id == "Q1" || q.id == "Q2")
    {
        let plans = optimized_plans(workload.processor(&q), q.text);
        let db = workload.processor(&q).database();
        group.bench_with_input(BenchmarkId::new("pipelined", q.id), &plans, |b, plans| {
            b.iter(|| run_pipelined(plans, db))
        });
        group.bench_with_input(
            BenchmarkId::new("materializing", q.id),
            &plans,
            |b, plans| {
                b.iter(|| {
                    plans
                        .iter()
                        .map(|p| execute_materialized(p, db).len())
                        .sum::<usize>()
                })
            },
        );
    }

    let mut p = Processor::new();
    let doc = generate_xmark_encoded("auction.xml", &XmarkConfig::with_scale(8.0));
    p.load_encoded("auction.xml", doc);
    p.create_default_indexes();
    let q4 = queries()
        .into_iter()
        .find(|q| q.id == "Q4")
        .expect("Q4 ships");
    let plans = optimized_plans(&mut p, q4.text);
    let db = p.database();
    group.bench_with_input(BenchmarkId::new("tail", q4.id), &plans, |b, plans| {
        b.iter(|| run_pipelined(plans, db))
    });

    let q1 = queries()
        .into_iter()
        .find(|q| q.id == "Q1")
        .expect("Q1 ships");
    let items = p.execute(q1.text, Mode::JoinGraph).expect("Q1 runs").items;
    assert_eq!(
        items.len(),
        3_404,
        "Q1's answer at XMark scale 8, default seed"
    );
    group.bench_with_input(BenchmarkId::new("serialize", q1.id), &items, |b, items| {
        b.iter(|| p.serialize(items).len())
    });
    group.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
