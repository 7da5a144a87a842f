//! Join enumeration alone: `optimize` on every SQL branch of the Table VIII
//! queries with more than four aliases (Q2's 12-way self-join, Q3/Q5's 7,
//! Q6's three 7-alias branches) at scale 1.0, and on a 16-alias star —
//! 2¹⁵ DP states, the shape that multiplies states the way bushy or
//! interesting-order enumeration would.  The layer-level number to quote
//! for planner work; the end-to-end one is `uncached_mid` in `benchmark/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xqjg_bench::{queries, Workload};
use xqjg_engine::{optimize, parse_sql, SfwQuery};

/// The document node with one descendant step to each of fifteen XMark
/// element names.
fn star() -> SfwQuery {
    let names = [
        "site",
        "regions",
        "item",
        "location",
        "quantity",
        "name",
        "payment",
        "description",
        "shipping",
        "incategory",
        "mailbox",
        "people",
        "person",
        "open_auction",
        "bidder",
    ];
    let mut from = vec!["doc AS t0".to_string()];
    let mut conds = vec!["t0.kind = 'DOC' AND t0.name = 'auction.xml'".to_string()];
    for (s, name) in names.iter().enumerate().map(|(s, name)| (s + 1, name)) {
        from.push(format!("doc AS t{s}"));
        conds.push(format!(
            "t{s}.kind = 'ELEM' AND t{s}.name = '{name}' \
             AND t0.pre < t{s}.pre AND t{s}.pre <= t0.pre + t0.size"
        ));
    }
    parse_sql(&format!(
        "SELECT t0.pre AS item FROM {} WHERE {}",
        from.join(", "),
        conds.join(" AND ")
    ))
    .expect("star parses")
}

fn bench_optimizer(c: &mut Criterion) {
    let mut workload = Workload::new(1.0);
    let mut group = c.benchmark_group("optimizer");
    for q in queries()
        .into_iter()
        .filter(|q| ["Q2", "Q3", "Q5", "Q6"].contains(&q.id))
    {
        let prepared = workload
            .processor(&q)
            .prepare(q.text)
            .expect("query prepares");
        let db = workload.processor(&q).database();
        for (i, branch) in prepared.branches.iter().enumerate() {
            let id = format!("{}.{i}", q.id);
            let sfw = &branch.isolated.query;
            group.bench_with_input(BenchmarkId::new("optimize", id), sfw, |b, sfw| {
                b.iter(|| optimize(sfw, db).expect("plan optimizes").est_cost)
            });
        }
    }
    let (star, db) = (star(), workload.xmark.database());
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("optimize", "star16"), &star, |b, star| {
        b.iter(|| optimize(star, db).expect("star optimizes").est_cost)
    });
    group.finish();
}

criterion_group!(benches, bench_optimizer);
criterion_main!(benches);
