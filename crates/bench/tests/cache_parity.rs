//! Cross-query cache parity suite: with the build, plan and postings
//! caches in the loop, every Table IX query must return *exactly* the
//! caches-off result — cold and warm, at every degree of parallelism and
//! memory budget — and every cache must drop its entries the moment the
//! catalog version moves (document loads, index DDL).  A property test
//! hammers the shared LRU from many threads to pin the concurrency
//! invariants.

use proptest::prelude::*;
use std::sync::Arc;
use xqjg_bench::{queries, DataSet, Workload};
use xqjg_core::{Mode, Processor, QueryCaches};
use xqjg_store::{ExecConfig, ShardedLru};
use xqjg_xml::DocTable;

/// A fresh processor over the given encoding, wired to `caches` and pinned
/// to `cfg` (no environment reads — the suite must not race on env).
fn processor_with(uri: &str, doc: &DocTable, caches: &QueryCaches, cfg: &ExecConfig) -> Processor {
    let mut p = Processor::with_caches(caches.clone());
    p.load_encoded(uri, doc.clone());
    p.create_default_indexes();
    p.set_exec_config(Some(cfg.clone()));
    p
}

/// The environment's configuration with all three caches pinned *on*: the
/// suite's subject, whatever `XQJG_*_CACHE` the environment carries (CI's
/// "caches off" leg sets all three to 0).
fn caches_on() -> ExecConfig {
    ExecConfig::from_env()
        .with_build_cache(true)
        .with_plan_cache(true)
        .with_postings_cache(true)
}

fn encoding(w: &Workload, ds: DataSet) -> (&'static str, &DocTable) {
    match ds {
        DataSet::Xmark => ("auction.xml", &w.xmark_doc),
        DataSet::Dblp => ("dblp.xml", &w.dblp_doc),
    }
}

#[test]
fn cold_and_warm_runs_match_caches_off_across_configs() {
    let workload = Workload::new(0.02);
    // Memory budget sweep.  The budget leg forces the spill-decision
    // path: cached builds re-book their reservations, so hit and miss runs
    // must make identical spill decisions.
    let configs: Vec<ExecConfig> = [None, Some(32usize << 20)]
        .iter()
        .map(|&budget| caches_on().with_mem_budget(budget))
        .collect();
    for q in queries() {
        let (uri, doc) = encoding(&workload, q.dataset);
        for cfg in &configs {
            let cfg_off = cfg
                .clone()
                .with_build_cache(false)
                .with_plan_cache(false)
                .with_postings_cache(false);
            let mut off = processor_with(uri, doc, &QueryCaches::new(), &cfg_off);
            let reference = off.execute(q.text, Mode::JoinGraph).expect("caches off");
            let caches = QueryCaches::new();
            let mut on = processor_with(uri, doc, &caches, cfg);
            let cold = on.execute(q.text, Mode::JoinGraph).expect("cold run");
            let warm = on.execute(q.text, Mode::JoinGraph).expect("warm run");
            assert_eq!(
                cold.items, reference.items,
                "{}: cold run diverges from caches-off (cfg {cfg:?})",
                q.id
            );
            assert_eq!(
                warm.items, reference.items,
                "{}: warm run diverges from caches-off (cfg {cfg:?})",
                q.id
            );
            assert_eq!(
                cold.serialized_nodes, reference.serialized_nodes,
                "{}",
                q.id
            );
            assert_eq!(
                warm.serialized_nodes, reference.serialized_nodes,
                "{}",
                q.id
            );
            // Cached postings are counted like fresh ones: per-operator
            // `fetched` never depends on cache state.  Only a hash join
            // whose build side came out of the build cache (on the warm
            // run, or from an earlier branch of the same query) did less
            // work — it enumerated nothing.
            let ops = |o: &xqjg_core::Outcome| o.exec_stats.clone().expect("join graph").operators;
            let ref_ops = ops(&reference);
            for (run, got) in [("cold", ops(&cold)), ("warm", ops(&warm))] {
                assert_eq!(got.len(), ref_ops.len(), "{}: {run}", q.id);
                for (g, r) in got.iter().zip(&ref_ops) {
                    let expected = if g.cache_hits > 0 { 0 } else { r.fetched };
                    assert_eq!(g.fetched, expected, "{}: {run} {}", q.id, g.name);
                }
            }
            for o in [&reference, &cold, &warm] {
                let s = o.exec_stats.as_ref().expect("join graph");
                let fetched: usize = s.operators.iter().map(|o| o.fetched).sum();
                assert_eq!(fetched, s.index_rows + s.scan_rows, "{}", q.id);
            }
            // The caches actually engaged: the repeat run served its plans
            // from the plan cache.
            assert!(
                caches.plans().hits() > 0,
                "{}: warm run never hit the plan cache (cfg {cfg:?})",
                q.id
            );
        }
    }
}

#[test]
fn catalog_bump_invalidates_plans_builds_and_postings() {
    let workload = Workload::new(0.02);
    let q = queries().into_iter().find(|q| q.id == "Q2").unwrap();
    let (uri, doc) = encoding(&workload, q.dataset);
    let caches = QueryCaches::new();
    let cfg = caches_on();
    let mut p = processor_with(uri, doc, &caches, &cfg);
    let first = p.execute(q.text, Mode::JoinGraph).expect("first run");
    let second = p.execute(q.text, Mode::JoinGraph).expect("second run");
    assert_eq!(first.items, second.items);
    assert!(caches.plans().hits() > 0, "repeat run warms the plan cache");
    let plan_hits = caches.plans().hits();
    let build_hits = caches.builds().hits();
    let postings_hits = caches.postings().hits();
    let postings_lookups = caches.postings().lookups();
    // DDL: loading another document (and re-indexing) moves the catalog
    // version, so *no* cache may serve a pre-DDL entry.
    p.load_document("other.xml", "<x><y/></x>").unwrap();
    p.create_default_indexes();
    let third = p.execute(q.text, Mode::JoinGraph).expect("post-DDL run");
    assert_eq!(first.items, third.items, "results stay right after DDL");
    assert_eq!(
        caches.plans().hits(),
        plan_hits,
        "stale plan served after catalog bump"
    );
    assert_eq!(
        caches.builds().hits(),
        build_hits,
        "stale build side served after catalog bump"
    );
    // The postings cache hits legitimately *within* one execution (probes
    // repeating identical bounds), so its hit counter is not frozen across
    // the post-DDL run.  The staleness invariant: every distinct key's
    // first lookup at the new catalog version must miss — so the run
    // cannot be all-hits, as a fully (stale-)warm run would be.
    let run_hits = caches.postings().hits() - postings_hits;
    let run_lookups = caches.postings().lookups() - postings_lookups;
    assert!(
        run_lookups == 0 || run_hits < run_lookups,
        "stale postings served after catalog bump ({run_hits}/{run_lookups})"
    );
    // And the post-DDL entries warm up again on the next repeat.
    let fourth = p.execute(q.text, Mode::JoinGraph).expect("post-DDL repeat");
    assert_eq!(first.items, fourth.items);
    assert!(
        caches.plans().hits() > plan_hits,
        "cache re-warms after DDL"
    );
}

#[test]
fn shared_caches_serve_multiple_processors() {
    let workload = Workload::new(0.02);
    let q = queries().into_iter().find(|q| q.id == "Q1").unwrap();
    let (uri, doc) = encoding(&workload, q.dataset);
    let caches = QueryCaches::new();
    let cfg = caches_on();
    let mut a = processor_with(uri, doc, &caches, &cfg);
    let mut b = processor_with(uri, doc, &caches, &cfg);
    let ra = a.execute(q.text, Mode::JoinGraph).expect("processor a");
    let rb = b.execute(q.text, Mode::JoinGraph).expect("processor b");
    assert_eq!(ra.items, rb.items);
    // Each processor's database got its own (process-unique) catalog
    // version, so entries never alias across processors — but both consult
    // the same shared handles.
    assert!(caches.plans().lookups() >= 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hammer one `ShardedLru` from several threads with overlapping key
    /// ranges and occasional version bumps.  Invariants: cached bytes never
    /// exceed capacity, hit counters never exceed lookups, and every value
    /// read is the deterministic function of its key (caching never
    /// corrupts data, whatever the interleaving).
    #[test]
    fn concurrent_sharded_lru_is_bounded_and_correct(
        keys in prop::collection::vec(0u32..64, 32..128),
        threads in 2usize..5,
        bump_every in 8usize..32,
    ) {
        let cache: Arc<ShardedLru<u32, Vec<u32>>> = Arc::new(ShardedLru::new(16 << 10));
        let keys = Arc::new(keys);
        let mut handles = Vec::new();
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let keys = Arc::clone(&keys);
            handles.push(std::thread::spawn(move || {
                let mut version = 1u64;
                for (i, &k) in keys.iter().enumerate() {
                    // Staggered version bumps: threads disagree about the
                    // current catalog version some of the time, exactly as
                    // racing DDL would make them.
                    if i % bump_every == t {
                        version += 1;
                    }
                    let value = vec![k; (k as usize % 7) + 1];
                    if let Some(got) = cache.get(version, &k) {
                        assert_eq!(got.as_slice(), value.as_slice(), "corrupt cache read");
                    } else {
                        cache.insert(version, k, Arc::new(value.clone()), value.len() * 4);
                    }
                    let (got, _hit) = cache
                        .get_or_try_insert::<()>(
                            version,
                            &k,
                            |v| v.len() * 4,
                            || Ok(Arc::new(value.clone())),
                        )
                        .expect("infallible build");
                    assert_eq!(got.as_slice(), value.as_slice(), "corrupt cache value");
                }
            }));
        }
        for h in handles {
            h.join().expect("no thread panicked");
        }
        prop_assert!(cache.bytes() <= cache.capacity(), "byte bound violated");
        prop_assert!(cache.hits() <= cache.lookups(), "hits exceed lookups");
    }
}
