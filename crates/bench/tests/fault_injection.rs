//! Chaos suite: deterministic fault injection over the spill machinery.
//!
//! Every named fault site is swept across trigger positions, degrees of
//! parallelism and memory budgets, asserting the failure contract of the
//! execution layer: faults surface as typed [`ExecError`]s (never panics),
//! no spill run or partition files leak, the memory budget drains to zero
//! on every exit path (enforced by a debug assertion inside the executor,
//! which this suite exercises by running in a debug build), and the same
//! plan re-executes successfully — byte-identical to an unfaulted run —
//! as soon as the fault is disarmed.
//!
//! Fault arming is process-global, so every test that performs spill I/O
//! (with or without a guard) serializes on one file-level lock; the pure
//! codec property tests touch no I/O and run unserialized.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;
use xqjg_bench::{queries, Workload};
use xqjg_core::{Mode, QueryError};
use xqjg_engine::{optimize, parse_sql, BuildCache, ExecStats, PhysPlan, QueryRequest};
use xqjg_store::fault::{self, FaultKind, FaultPlan, Trigger};
use xqjg_store::spill::{decode_row, decode_value, encode_row};
use xqjg_store::{CancelToken, Database, ExecConfig, ExecError, Schema, Table, Value};

/// Rows and counters of `plan` under pinned knobs, or the typed failure.
fn try_run(
    plan: &PhysPlan,
    db: &Database,
    cfg: &ExecConfig,
) -> Result<(Table, ExecStats), ExecError> {
    let out = QueryRequest::new(plan, db).config(cfg).run()?;
    Ok((out.rows, out.stats))
}

/// [`try_run`] with a session build cache and/or a cancellation token.
fn try_run_full(
    plan: &PhysPlan,
    db: &Database,
    cfg: &ExecConfig,
    cache: Option<&BuildCache>,
    cancel: Option<&CancelToken>,
) -> Result<(Table, ExecStats), ExecError> {
    let mut req = QueryRequest::new(plan, db).config(cfg);
    if let Some(c) = cache {
        req = req.build_cache(c);
    }
    if let Some(t) = cancel {
        req = req.cancel(t);
    }
    let out = req.run()?;
    Ok((out.rows, out.stats))
}

/// A budget that forces both pipeline breakers of the equijoin fixture —
/// the Grace hash build and the external sort — to spill.
const TIGHT: Option<usize> = Some(8 * 1024);
const UNLIMITED: Option<usize> = None;

/// Serializes every I/O-performing test in this binary: a fault armed by
/// one test must never bleed into another test's "unfaulted" run.
fn io_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh per-test spill directory (the executor creates it on demand).
fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xqjg-chaos-{tag}-{}-{n}", std::process::id()))
}

/// Spill files left behind in `dir` (a missing directory counts as clean —
/// unlimited-budget runs never create it).
fn leaked_files(dir: &PathBuf) -> Vec<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// A self-join whose hash build and sort tail both go external under
/// [`TIGHT`] — the same workload the spill parity suite leans on.
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
    .expect("fixture SQL parses");
    let plan = optimize(&q, &db).expect("fixture plan optimizes");
    (db, plan)
}

/// Set env vars for the duration of `f`, restoring previous values after.
fn with_env<R>(vars: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
    let prev: Vec<(String, Option<String>)> = vars
        .iter()
        .map(|(k, _)| (k.to_string(), std::env::var(k).ok()))
        .collect();
    for (k, v) in vars {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    let out = f();
    for (k, v) in prev {
        match v {
            Some(v) => std::env::set_var(&k, v),
            None => std::env::remove_var(&k),
        }
    }
    out
}

/// The core chaos sweep: every fault site × trigger {first, third, always}
/// × budget {tight, unlimited}, with an injected transient
/// I/O error.  Each combination must either fail with a typed error or
/// succeed (fault never reached, or absorbed by the bounded retry) with
/// results byte-identical to the unfaulted reference — and must always
/// leave the spill directory clean and recover fully once disarmed.
#[test]
fn chaos_sweep_every_site_trigger_budget() {
    let _guard = io_lock();
    let (db, plan) = equijoin_fixture(1500);
    let mut saw_error = false;
    let mut saw_ok_under_fault = false;
    for site in fault::ALL_SITES {
        for trigger in [Trigger::Nth(1), Trigger::Nth(3), Trigger::Always] {
            for budget in [TIGHT, UNLIMITED] {
                let dir = fresh_dir("sweep");
                let cfg = ExecConfig::sequential()
                    .with_mem_budget(budget)
                    .with_spill_dir(&dir);
                let what = format!("site {site} {trigger:?} budget {budget:?}");
                let reference = try_run(&plan, &db, &cfg)
                    .unwrap_or_else(|e| panic!("{what}: unfaulted reference fails: {e}"));
                let guard = FaultPlan::single(site, trigger, FaultKind::IoError).install();
                match try_run(&plan, &db, &cfg) {
                    Ok((table, _)) => {
                        saw_ok_under_fault = true;
                        assert_eq!(
                            table, reference.0,
                            "{what}: survived the fault but rows differ"
                        );
                    }
                    Err(e) => {
                        saw_error = true;
                        assert!(
                            matches!(e, ExecError::Io { .. } | ExecError::Corrupt { .. }),
                            "{what}: unexpected error class: {e}"
                        );
                    }
                }
                assert_eq!(
                    leaked_files(&dir),
                    Vec::<String>::new(),
                    "{what}: run files leaked under fault"
                );
                drop(guard);
                let (table, _) = try_run(&plan, &db, &cfg)
                    .unwrap_or_else(|e| panic!("{what}: retry after disarm fails: {e}"));
                assert_eq!(table, reference.0, "{what}: retry rows differ");
                assert_eq!(
                    leaked_files(&dir),
                    Vec::<String>::new(),
                    "{what}: run files leaked after retry"
                );
                let _ = std::fs::remove_dir(&dir);
            }
        }
    }
    assert!(saw_error, "no combination errored — the sweep is vacuous");
    assert!(
        saw_ok_under_fault,
        "no combination was absorbed — retry/skip coverage is vacuous"
    );
}

/// Corrupting and short-write faults on the write sites must surface as
/// typed errors (checksum mismatches name the file and offset), never as
/// panics, and never leak run files.
#[test]
fn corrupt_and_short_write_faults_error_not_panic() {
    let _guard = io_lock();
    let (db, plan) = equijoin_fixture(1500);
    let mut saw_corrupt = false;
    for site in [
        fault::SITE_RUN_WRITE,
        fault::SITE_PART_WRITE,
        fault::SITE_MERGE_WRITE,
    ] {
        for kind in [FaultKind::Corrupt, FaultKind::ShortWrite] {
            let dir = fresh_dir("corrupt");
            let cfg = ExecConfig::sequential()
                .with_mem_budget(TIGHT)
                .with_spill_dir(&dir);
            let what = format!("site {site} kind {kind:?}");
            let reference = try_run(&plan, &db, &cfg)
                .unwrap_or_else(|e| panic!("{what}: unfaulted reference fails: {e}"));
            let guard = FaultPlan::single(site, Trigger::Always, kind).install();
            match try_run(&plan, &db, &cfg) {
                Ok((table, _)) => assert_eq!(table, reference.0, "{what}: rows differ"),
                Err(e) => {
                    if let ExecError::Corrupt { file, .. } = &e {
                        assert!(!file.is_empty(), "{what}: corrupt error names no file");
                        saw_corrupt = true;
                    }
                }
            }
            assert_eq!(
                leaked_files(&dir),
                Vec::<String>::new(),
                "{what}: run files leaked"
            );
            drop(guard);
            let (table, _) = try_run(&plan, &db, &cfg)
                .unwrap_or_else(|e| panic!("{what}: retry after disarm fails: {e}"));
            assert_eq!(table, reference.0, "{what}: retry rows differ");
            let _ = std::fs::remove_dir(&dir);
        }
    }
    assert!(
        saw_corrupt,
        "no corrupting fault produced a located Corrupt error — vacuous"
    );
}

/// The acceptance sweep at the processor level: with any single armed
/// spill-site fault, every Table IX query under a 1k budget returns
/// `Err(QueryError::Exec(..))` or succeeds via retry — and the same query
/// re-executed immediately on the *same* processor (same session build
/// cache) succeeds byte-identical to the unfaulted run.
#[test]
fn table9_queries_fault_then_same_processor_retry() {
    let _guard = io_lock();
    let dir = fresh_dir("table9");
    with_env(
        &[
            ("XQJG_MEM_BUDGET", Some("1024")),
            ("XQJG_SPILL_DIR", Some(dir.to_str().expect("utf-8 path"))),
            ("XQJG_FAULTS", None),
        ],
        || {
            let mut workload = Workload::new(0.02);
            let mut saw_error = false;
            for q in queries() {
                let p = workload.processor(&q);
                let reference = p
                    .execute(q.text, Mode::JoinGraph)
                    .unwrap_or_else(|e| panic!("{}: unfaulted run fails: {e}", q.id));
                for site in fault::ALL_SITES {
                    let what = format!("{} site {site}", q.id);
                    let guard =
                        FaultPlan::single(site, Trigger::Always, FaultKind::IoError).install();
                    match p.execute(q.text, Mode::JoinGraph) {
                        Ok(out) => assert_eq!(
                            out.items, reference.items,
                            "{what}: survived but items differ"
                        ),
                        Err(e) => {
                            saw_error = true;
                            assert!(
                                matches!(e, QueryError::Exec(_)),
                                "{what}: expected a typed exec error, got: {e}"
                            );
                            assert_eq!(e.stage(), "exec", "{what}: wrong stage");
                        }
                    }
                    drop(guard);
                    let retried = p
                        .execute(q.text, Mode::JoinGraph)
                        .unwrap_or_else(|e| panic!("{what}: same-processor retry fails: {e}"));
                    assert_eq!(
                        retried.items, reference.items,
                        "{what}: retry items differ from the unfaulted run"
                    );
                }
                assert_eq!(
                    leaked_files(&dir),
                    Vec::<String>::new(),
                    "{}: run files leaked",
                    q.id
                );
            }
            assert!(saw_error, "no query errored under any fault — vacuous");
        },
    );
    let _ = std::fs::remove_dir(&dir);
}

/// Satellite regression: a hash-join build that fails mid-construction
/// must leave *no* entry in the session build cache — the next execution
/// performs a fresh (miss) lookup, rebuilds from scratch and succeeds.
#[test]
fn failed_build_leaves_no_cache_entry() {
    let _guard = io_lock();
    // Enough build rows to cross the in-build interrupt check (every 4096
    // rows), with an unlimited budget so the finished build *would* be
    // memoized — exactly the case where a partial entry could leak.
    let (db, plan) = equijoin_fixture(6000);
    let cfg = ExecConfig::sequential()
        .with_mem_budget(UNLIMITED)
        .with_build_cache(true);
    let reference = try_run(&plan, &db, &cfg).expect("unfaulted reference");
    let cache = BuildCache::new();
    let token = CancelToken::new();
    token.cancel();
    let failed = try_run_full(&plan, &db, &cfg, Some(&cache), Some(&token));
    assert_eq!(
        failed.expect_err("cancelled build must fail"),
        ExecError::Cancelled
    );
    assert!(
        cache.lookups() > 0,
        "the failing run never consulted the cache — assertion is vacuous"
    );
    token.clear();
    let (table, _) =
        try_run_full(&plan, &db, &cfg, Some(&cache), Some(&token)).expect("rebuild succeeds");
    assert_eq!(table, reference.0, "rebuild rows differ");
    assert_eq!(
        cache.hits(),
        0,
        "the failed build left a (partial) cached entry behind"
    );
    // The rebuilt entry is genuine: a third run hits it and still agrees.
    let (table, _) =
        try_run_full(&plan, &db, &cfg, Some(&cache), Some(&token)).expect("cached run");
    assert_eq!(table, reference.0, "cached-run rows differ");
    assert!(cache.hits() > 0, "the successful rebuild was not memoized");

    // Same regression through the spill path: a fault inside the Grace
    // partition writer fails the build mid-construction; once disarmed the
    // same cache serves a correct execution again.  A *fresh* cache keeps
    // the memoized in-memory build from above out of the way, so the
    // tight budget genuinely pushes this build through the Grace writer.
    let cache = BuildCache::new();
    let dir = fresh_dir("cache");
    let tight = ExecConfig::sequential()
        .with_mem_budget(TIGHT)
        .with_spill_dir(&dir);
    let tight_ref = try_run(&plan, &db, &tight).expect("tight reference");
    let guard =
        FaultPlan::single(fault::SITE_PART_WRITE, Trigger::Always, FaultKind::IoError).install();
    let failed = try_run_full(&plan, &db, &tight, Some(&cache), None);
    assert!(failed.is_err(), "partition-write fault must fail the build");
    drop(guard);
    assert_eq!(leaked_files(&dir), Vec::<String>::new(), "run files leaked");
    let (table, _) = try_run_full(&plan, &db, &tight, Some(&cache), None).expect("retry succeeds");
    assert_eq!(table, tight_ref.0, "post-fault retry rows differ");
    let _ = std::fs::remove_dir(&dir);
}

/// A pre-cancelled token fails the execution at its first interrupt check
/// with `ExecError::Cancelled`, leaking nothing; an (effectively) expired
/// deadline fails with `ExecError::Timeout`.
#[test]
fn cancellation_and_timeout_surface_typed_errors() {
    let _guard = io_lock();
    let (db, plan) = equijoin_fixture(1500);
    let dir = fresh_dir("cancel");
    let cfg = ExecConfig::sequential()
        .with_mem_budget(TIGHT)
        .with_spill_dir(&dir);
    let token = CancelToken::new();
    token.cancel();
    let err = try_run_full(&plan, &db, &cfg, None, Some(&token))
        .expect_err("pre-cancelled execution must fail");
    assert_eq!(err, ExecError::Cancelled);
    assert_eq!(leaked_files(&dir), Vec::<String>::new(), "cancel leaked");
    // Cleared token → the same plan executes fine.
    token.clear();
    try_run_full(&plan, &db, &cfg, None, Some(&token)).expect("cleared token executes");
    // A 1 ns deadline is in the past by the first interrupt check.
    let cfg_timeout = cfg
        .clone()
        .with_query_timeout(Some(Duration::from_nanos(1)));
    let err =
        try_run_full(&plan, &db, &cfg_timeout, None, None).expect_err("expired deadline must fail");
    assert!(
        matches!(err, ExecError::Timeout { .. }),
        "expected a timeout, got: {err}"
    );
    assert_eq!(leaked_files(&dir), Vec::<String>::new(), "timeout leaked");
    let _ = std::fs::remove_dir(&dir);
}

/// Graceful degradation: a budgeted execution whose spill directory cannot
/// be created ignores the budget and runs in memory instead of failing.
#[test]
fn unusable_spill_dir_degrades_to_in_memory() {
    let _guard = io_lock();
    let (db, plan) = equijoin_fixture(1500);
    // A path *under a regular file* can never become a directory.
    let blocker = std::env::temp_dir().join(format!("xqjg-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"x").expect("blocker file");
    let cfg = ExecConfig::sequential()
        .with_mem_budget(TIGHT)
        .with_spill_dir(blocker.join("sub"));
    let (degraded, stats) = try_run(&plan, &db, &cfg).expect("degraded run succeeds");
    assert!(
        stats.operators.iter().all(|o| o.spill_runs == 0),
        "degraded run must not spill"
    );
    let reference = try_run(
        &plan,
        &db,
        &ExecConfig::sequential().with_mem_budget(UNLIMITED),
    )
    .expect("reference");
    assert_eq!(degraded, reference.0, "degraded rows differ");
    let _ = std::fs::remove_file(&blocker);
}

// ---------------------------------------------------------------------
// Codec robustness: no byte stream may panic the spill record decoders.
// ---------------------------------------------------------------------

fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        prop::bool::ANY.prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Dec(n as f64 / 7.0)),
        prop::collection::vec(97u8..123, 0..16)
            .prop_map(|b| Value::Str(String::from_utf8_lossy(&b).into_owned())),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage never panics the decoders — they return `Err`
    /// (or, for byte streams that happen to parse, `Ok`).
    #[test]
    fn arbitrary_bytes_never_panic_decoders(bytes in prop::collection::vec(0u16..256, 1..256)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut pos = 0usize;
        let _ = decode_row(&bytes, &mut pos);
        let mut pos = 0usize;
        let _ = decode_value(&bytes, &mut pos);
    }

    /// Truncating or bit-flipping a valid encoding never panics: the
    /// decoder either detects the damage (`Err`) or yields some row.
    #[test]
    fn damaged_encodings_never_panic(
        row in prop::collection::vec(arb_value(), 1..6),
        cut in 0u64..u64::MAX,
        flip_byte in 0u64..u64::MAX,
        flip_bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        // Round-trip sanity on the pristine bytes.
        let mut pos = 0usize;
        let decoded = decode_row(&buf, &mut pos).expect("pristine encoding decodes");
        prop_assert_eq!(&decoded, &row);
        // Truncation.
        let cut_at = (cut as usize) % (buf.len() + 1);
        let mut pos = 0usize;
        let _ = decode_row(&buf[..cut_at], &mut pos);
        // Single-bit damage.
        if !buf.is_empty() {
            let i = (flip_byte as usize) % buf.len();
            let mut damaged = buf.clone();
            damaged[i] ^= 1 << flip_bit;
            let mut pos = 0usize;
            let _ = decode_row(&damaged, &mut pos);
        }
    }
}
