//! Benchmarks of the compiler front half: loop-lifting compilation,
//! simplification and join graph isolation (compile-time costs of the
//! technique itself), plus `simplify` alone — the Fig. 5 rewriter on every
//! branch of a query's stacked plans, each iteration on a fresh clone (the
//! clone is a few microseconds of the figure).  The layer-level number to
//! quote for rewriter work; the end-to-end one is `adhoc_small` in
//! `benchmark/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xqjg_bench::queries;
use xqjg_compiler::compile;
use xqjg_core::{isolate_sfw, simplify};
use xqjg_xquery::parse_and_normalize;

fn bench_isolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("isolation");
    for q in queries() {
        let uri = match q.dataset {
            xqjg_bench::DataSet::Xmark => "auction.xml",
            xqjg_bench::DataSet::Dblp => "dblp.xml",
        };
        let core = parse_and_normalize(q.text, Some(uri)).unwrap();
        let branches = xqjg_core::decompose_sequences(&core);
        let stacked: Vec<_> = branches
            .iter()
            .map(|branch| compile(branch).unwrap().plan)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("simplify", q.id),
            &stacked,
            |b, stacked| {
                b.iter(|| {
                    let mut ops_after = 0;
                    for plan in stacked {
                        ops_after += simplify(&mut plan.clone()).ops_after;
                    }
                    ops_after
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compile+isolate", q.id),
            &branches,
            |b, branches| {
                b.iter(|| {
                    let mut total_aliases = 0;
                    for branch in branches {
                        let mut plan = compile(branch).unwrap().plan;
                        simplify(&mut plan);
                        let iso = isolate_sfw(&plan).unwrap();
                        total_aliases += iso.query.from.len();
                    }
                    total_aliases
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_isolation);
criterion_main!(benches);
