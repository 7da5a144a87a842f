//! Morsel-driven parallel execution layer.
//!
//! Following the HyPer design, parallelism enters the substrate at the
//! *leaf*: a scan's row-id domain (the table's rid range for `TBSCAN`, the
//! pre-fetched posting list for `IXSCAN`, the candidate segment list for
//! `XISCAN`) is split into fixed-size [`Morsel`]s, and a crew of
//! `std::thread::scope` workers pulls morsels from a shared [`MorselQueue`]
//! until it runs dry.  Each worker runs a private copy of the pipeline
//! fragment above the leaf — joins probe shared read-only build tables and
//! B-trees — and buffers its output per morsel, so the coordinator can
//! reassemble results *in morsel order*.  That ordering guarantee is what
//! makes parallel execution observationally identical to DOP = 1: the
//! concatenated rows arrive in exactly the sequential scan order, and the
//! per-worker [`crate::OpStats`] merge
//! ([`crate::merge_worker_stats`]) restores the sequential counters.
//!
//! Nothing here spawns unscoped threads or takes new dependencies: workers
//! borrow the plan, catalog and build tables for the duration of one
//! [`execute_morsels`] call.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of row ids per morsel.  Small enough that a skewed
/// pipeline (one morsel expanding into many join matches) still load
/// balances, large enough that per-morsel pipeline setup is noise.
pub const DEFAULT_MORSEL_SIZE: usize = 2048;

/// A contiguous slice `[start, end)` of a leaf scan's row-id domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First domain position covered (inclusive).
    pub start: usize,
    /// One past the last domain position covered.
    pub end: usize,
}

impl Morsel {
    /// Number of domain positions the morsel covers.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Does the morsel cover nothing?
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The covered positions as a range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

/// Split a domain of `domain` positions into morsels of at most
/// `morsel_size` positions.  Every position is covered by exactly one
/// morsel and morsels are contiguous and ordered.  An empty domain yields
/// one empty morsel so that exactly one pipeline instance still runs —
/// operators must report their (zeroed) counters even for empty inputs.
pub fn partition_morsels(domain: usize, morsel_size: usize) -> Vec<Morsel> {
    let size = morsel_size.max(1);
    if domain == 0 {
        return vec![Morsel { start: 0, end: 0 }];
    }
    (0..domain)
        .step_by(size)
        .map(|start| Morsel {
            start,
            end: (start + size).min(domain),
        })
        .collect()
}

/// Smallest morsel the automatic shrink will produce.  A domain below
/// `threads × 4 × MIN_MORSEL_SIZE` positions is too small for thread
/// spawn/join to pay off, so it stays on the inline single-morsel path.
/// An explicitly configured smaller morsel size (tests forcing merge
/// coverage) still wins.
pub const MIN_MORSEL_SIZE: usize = 64;

/// Shrink the configured morsel size so that a small leaf domain still
/// yields roughly four morsels per worker — without this, a narrow index
/// scan feeding an expensive join pipeline would collapse to a single
/// morsel and serialize the whole query.  The shrink floors at
/// [`MIN_MORSEL_SIZE`] so that micro-scans (a handful of rows) collapse to
/// one morsel and never spawn workers.
pub fn effective_morsel_size(domain: usize, threads: usize, configured: usize) -> usize {
    if threads <= 1 {
        return configured.max(1);
    }
    let target = domain.div_ceil(threads * 4).max(MIN_MORSEL_SIZE);
    target.min(configured.max(1))
}

/// A shared, lock-free dispenser of morsels: workers `take` until empty.
pub struct MorselQueue {
    morsels: Vec<Morsel>,
    next: AtomicUsize,
}

impl MorselQueue {
    /// A queue over the given morsels.
    pub fn new(morsels: Vec<Morsel>) -> Self {
        MorselQueue {
            morsels,
            next: AtomicUsize::new(0),
        }
    }

    /// Total number of morsels (taken or not).
    pub fn len(&self) -> usize {
        self.morsels.len()
    }

    /// Is the queue empty overall?
    pub fn is_empty(&self) -> bool {
        self.morsels.is_empty()
    }

    /// Claim the next morsel, returning its index and extent, or `None`
    /// once every morsel has been handed out.
    pub fn take(&self) -> Option<(usize, Morsel)> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.morsels.get(i).map(|m| (i, *m))
    }
}

/// Run `work` once per morsel on up to `threads` scoped workers, returning
/// the per-morsel results **in morsel order** (the order
/// [`partition_morsels`] produced).  With one thread (or one morsel) the
/// work runs inline on the caller's thread — no spawn, no atomics on the
/// hot path — which keeps the DOP = 1 configuration as cheap as the
/// pre-morsel executor.
pub fn execute_morsels<R, F>(threads: usize, morsels: Vec<Morsel>, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Morsel) -> R + Sync,
{
    let result: Result<Vec<R>, std::convert::Infallible> =
        try_execute_morsels(threads, morsels, |i, m| Ok(work(i, m)));
    match result {
        Ok(out) => out,
        Err(e) => match e {},
    }
}

/// The fallible morsel crew: run `work` once per morsel on up to `threads`
/// scoped workers; per-morsel results come back **in morsel order**.
///
/// Errors are *first-error-wins with queue drain*: the first `Err` a
/// worker produces flips a shared flag, every still-queued morsel is
/// claimed-and-skipped (no further work runs), all workers exit cleanly
/// and that first error is returned.  This is deliberately distinct from
/// a worker *panic*, which is still resumed on the caller — an `Err` is a
/// reported query failure, a panic is a bug.
pub fn try_execute_morsels<R, E, F>(
    threads: usize,
    morsels: Vec<Morsel>,
    work: F,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize, Morsel) -> Result<R, E> + Sync,
{
    if threads <= 1 || morsels.len() <= 1 {
        return morsels
            .into_iter()
            .enumerate()
            .map(|(i, m)| work(i, m))
            .collect();
    }
    let queue = MorselQueue::new(morsels);
    let failed = std::sync::atomic::AtomicBool::new(false);
    let first_err: std::sync::Mutex<Option<E>> = std::sync::Mutex::new(None);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(queue.len());
    slots.resize_with(queue.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(queue.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    while let Some((i, m)) = queue.take() {
                        if failed.load(Ordering::Relaxed) {
                            continue; // drain the queue without more work
                        }
                        match work(i, m) {
                            Ok(r) => produced.push((i, r)),
                            Err(e) => {
                                failed.store(true, Ordering::Relaxed);
                                first_err
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .get_or_insert(e);
                            }
                        }
                    }
                    produced
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    if let Some(e) = first_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|r| r.expect("every morsel was claimed and ran"))
        .collect())
}

/// Like [`execute_morsels`], but instead of collecting every per-morsel
/// result before returning, `consume` runs on the *caller's* thread for
/// each result **in morsel order, as soon as it is ready** — morsel `i`'s
/// result is consumed the moment morsels `0..=i` have all finished, while
/// workers keep producing `i+1..`.  This is what lets the coordinator
/// stream worker output straight into a pipeline breaker (the SORT tail's
/// [`crate::ExternalSorter`]) instead of holding every morsel's output
/// alive until the slowest worker finishes.
///
/// Ordering and determinism match [`execute_morsels`] exactly; with one
/// thread (or one morsel) produce and consume simply alternate inline.
/// A panicking worker is resumed on the caller after the crew drains.
pub fn execute_morsels_streaming<R, F, C>(
    threads: usize,
    morsels: Vec<Morsel>,
    work: F,
    mut consume: C,
) where
    R: Send,
    F: Fn(usize, Morsel) -> R + Sync,
    C: FnMut(usize, R),
{
    let result: Result<(), std::convert::Infallible> = try_execute_morsels_streaming(
        threads,
        morsels,
        |i, m| Ok(work(i, m)),
        |i, r| {
            consume(i, r);
            Ok(())
        },
    );
    match result {
        Ok(()) => {}
        Err(e) => match e {},
    }
}

/// The fallible streaming crew: like [`try_execute_morsels`], but each
/// ready result is handed to `consume` on the caller's thread **in morsel
/// order** while workers keep producing (see [`execute_morsels_streaming`]
/// for why).  The first `Err` — from `work` on any worker or from
/// `consume` on the coordinator — wins: the shared failure flag flips,
/// still-queued morsels are claimed-and-skipped, every worker exits
/// cleanly and that error is returned.  Worker panics are still resumed on
/// the caller, distinct from reported errors.
pub fn try_execute_morsels_streaming<R, E, F, C>(
    threads: usize,
    morsels: Vec<Morsel>,
    work: F,
    mut consume: C,
) -> Result<(), E>
where
    R: Send,
    E: Send,
    F: Fn(usize, Morsel) -> Result<R, E> + Sync,
    C: FnMut(usize, R) -> Result<(), E>,
{
    if threads <= 1 || morsels.len() <= 1 {
        for (i, m) in morsels.into_iter().enumerate() {
            consume(i, work(i, m)?)?;
        }
        return Ok(());
    }
    let queue = MorselQueue::new(morsels);
    let total = queue.len();
    // One slot per morsel; workers fill slots under the mutex and signal
    // the coordinator, which drains the ready prefix in order.  The state
    // is (filled slots, accounted count, first worker panic, first error).
    type SlotState<R, E> = (
        Vec<Option<R>>,
        usize,
        Option<Box<dyn std::any::Any + Send>>,
        Option<E>,
    );
    struct Shared<R, E> {
        slots: std::sync::Mutex<SlotState<R, E>>,
        ready: std::sync::Condvar,
        failed: std::sync::atomic::AtomicBool,
    }
    let mut init: Vec<Option<R>> = Vec::with_capacity(total);
    init.resize_with(total, || None);
    let shared = Shared {
        slots: std::sync::Mutex::new((init, 0, None, None)),
        ready: std::sync::Condvar::new(),
        failed: std::sync::atomic::AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        for _ in 0..threads.min(total) {
            scope.spawn(|| {
                while let Some((i, m)) = queue.take() {
                    if shared.failed.load(Ordering::Relaxed) {
                        // Drain: account for the claimed morsel without
                        // running more work after the first failure.
                        let mut g = shared.slots.lock().expect("streaming slots poisoned");
                        g.1 += 1;
                        drop(g);
                        shared.ready.notify_one();
                        continue;
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(i, m))) {
                        Ok(Ok(r)) => {
                            let mut g = shared.slots.lock().expect("streaming slots poisoned");
                            g.0[i] = Some(r);
                            g.1 += 1;
                            drop(g);
                            shared.ready.notify_one();
                        }
                        Ok(Err(e)) => {
                            shared.failed.store(true, Ordering::Relaxed);
                            let mut g = shared.slots.lock().expect("streaming slots poisoned");
                            g.3.get_or_insert(e);
                            g.1 += 1;
                            drop(g);
                            shared.ready.notify_one();
                        }
                        Err(panic) => {
                            shared.failed.store(true, Ordering::Relaxed);
                            let mut g = shared.slots.lock().expect("streaming slots poisoned");
                            g.2.get_or_insert(panic);
                            g.1 += 1;
                            drop(g);
                            shared.ready.notify_one();
                            return;
                        }
                    }
                }
            });
        }
        let mut next = 0usize;
        while next < total {
            let r = {
                let mut g = shared.slots.lock().expect("streaming slots poisoned");
                loop {
                    if let Some(panic) = g.2.take() {
                        // A worker died: its claimed morsel will never fill
                        // its slot.  Unwind on the caller; remaining workers
                        // drain the queue and exit at scope end.
                        drop(g);
                        std::panic::resume_unwind(panic);
                    }
                    if let Some(e) = g.3.take() {
                        // First reported error wins; workers drain via the
                        // failure flag and the crew exits at scope end.
                        return Err(e);
                    }
                    if let Some(r) = g.0[next].take() {
                        break r;
                    }
                    if g.1 >= total && g.0[next].is_none() {
                        // Every morsel is accounted for but this slot is
                        // empty — only possible after a worker panic or
                        // error, which the branches above surface.
                        drop(g);
                        panic!("streaming morsel {next} never produced a result");
                    }
                    g = shared.ready.wait(g).expect("streaming slots poisoned");
                }
            };
            if let Err(e) = consume(next, r) {
                shared.failed.store(true, Ordering::Relaxed);
                return Err(e);
            }
            next += 1;
        }
        Ok(())
    })
}

/// Runtime execution knobs shared by every evaluation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Degree of parallelism (number of worker threads), ≥ 1.
    pub threads: usize,
    /// Tuples per [`crate::Batch`] flowing between operators.
    pub batch_capacity: usize,
    /// Row-id domain positions per leaf [`Morsel`] (upper bound; shrunk by
    /// [`effective_morsel_size`] when the domain is small).
    pub morsel_size: usize,
    /// Memory budget in bytes for the pipeline breakers (SORT buffers,
    /// hash-join build sides, loaded probe partitions).  `None` never
    /// spills; any limit makes the breakers go external when their
    /// [`crate::MemBudget`] reservation fails (see [`crate::spill`]).
    pub mem_budget: Option<usize>,
    /// Directory spill runs are written to (`None` = the system temp
    /// directory).
    pub spill_dir: Option<PathBuf>,
    /// How many times a *transient* spill-write failure (an I/O error on a
    /// run or partition write) is retried with bounded backoff before it
    /// surfaces as [`crate::ExecError::Io`].  `0` fails on first error.
    pub spill_retries: usize,
    /// Wall-clock deadline for one execution; exceeding it fails the query
    /// with [`crate::ExecError::Timeout`] at the next morsel boundary or
    /// spill run.  `None` = no limit.
    pub query_timeout: Option<std::time::Duration>,
    /// Honor the session/shared hash-join build cache (`XQJG_BUILD_CACHE`;
    /// `false` rebuilds every build side from scratch).
    pub build_cache: bool,
    /// Honor the plan cache in front of the optimizer (`XQJG_PLAN_CACHE`;
    /// `false` re-runs DP join enumeration for every execution).
    pub plan_cache: bool,
    /// Memoize hot `IXSCAN` posting lists ([`crate::PostingsCache`];
    /// `XQJG_POSTINGS_CACHE`; `false` re-walks the B-tree on every probe).
    pub postings_cache: bool,
}

/// The `XQJG_*` execution knobs [`ExecConfig`] understands, in
/// documentation order.  [`ExecConfig::apply_knob`] accepts exactly these
/// names; [`ExecConfig::try_from_env`] reads exactly these variables.
pub const EXEC_KNOBS: &[&str] = &[
    "XQJG_THREADS",
    "XQJG_BATCH_CAPACITY",
    "XQJG_MORSEL_SIZE",
    "XQJG_MEM_BUDGET",
    "XQJG_SPILL_DIR",
    "XQJG_SPILL_RETRIES",
    "XQJG_QUERY_TIMEOUT",
    "XQJG_BUILD_CACHE",
    "XQJG_PLAN_CACHE",
    "XQJG_POSTINGS_CACHE",
];

/// A malformed configuration-knob value: which knob, what was supplied,
/// and what a well-formed value looks like.  This is the typed error every
/// knob-parsing path — environment reads, the serving layer's per-session
/// `SET` command — surfaces instead of silently falling back to a default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The knob (environment-variable spelling, e.g. `XQJG_THREADS`).
    pub var: String,
    /// The value that failed to parse.
    pub value: String,
    /// Human-readable description of the accepted syntax.
    pub expected: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid value {:?} for {}: expected {}",
            self.value, self.var, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    fn new(var: &str, value: &str, expected: &'static str) -> ConfigError {
        ConfigError {
            var: var.to_string(),
            value: value.to_string(),
            expected,
        }
    }
}

/// Strictly parse a positive integer knob; empty means "unset".
pub(crate) fn strict_usize(var: &str, value: &str) -> Result<Option<usize>, ConfigError> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .map(Some)
        .ok_or_else(|| ConfigError::new(var, value, "a positive integer"))
}

/// Upper bound on `XQJG_THREADS`: a query spawns up to this many scoped
/// workers, so a session `SET` must not be able to ask for a million.
pub const MAX_THREADS: usize = 256;

/// Upper bound on `XQJG_BATCH_CAPACITY`: batches preallocate their
/// capacity, so an unbounded value is an allocation that aborts the
/// process instead of a query error.
pub const MAX_BATCH_CAPACITY: usize = 1 << 20;

/// [`strict_usize`] that also rejects values above `max`.
fn strict_usize_at_most(
    var: &str,
    value: &str,
    max: usize,
    expected: &'static str,
) -> Result<Option<usize>, ConfigError> {
    match strict_usize(var, value) {
        Ok(Some(n)) if n > max => Err(ConfigError::new(var, value, expected)),
        Err(_) => Err(ConfigError::new(var, value, expected)),
        r => r,
    }
}

/// Strictly parse a boolean knob; empty means "unset".
pub(crate) fn strict_bool(var: &str, value: &str) -> Result<Option<bool>, ConfigError> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    if v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on") {
        Ok(Some(true))
    } else if v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off") {
        Ok(Some(false))
    } else {
        Err(ConfigError::new(
            var,
            value,
            "a boolean (0/1/true/false/on/off)",
        ))
    }
}

/// Strictly parse a byte-count knob (`k`/`m`/`g` suffixes); empty and `0`
/// mean "unset" (`0` is the documented way to disable a budget).
pub(crate) fn strict_bytes(var: &str, value: &str) -> Result<Option<usize>, ConfigError> {
    let v = value.trim();
    if v.is_empty() || v == "0" {
        return Ok(None);
    }
    parse_bytes(v)
        .map(Some)
        .ok_or_else(|| ConfigError::new(var, value, "a byte count (suffixes k/m/g, e.g. 256k)"))
}

/// Strictly parse a duration knob (`ms`/`s`/`m` suffixes, bare digits are
/// milliseconds); empty and `0` mean "unset".
pub(crate) fn strict_duration(
    var: &str,
    value: &str,
) -> Result<Option<std::time::Duration>, ConfigError> {
    let v = value.trim();
    if v.is_empty() || v == "0" {
        return Ok(None);
    }
    parse_duration(v)
        .map(Some)
        .ok_or_else(|| ConfigError::new(var, value, "a duration (suffixes ms/s/m, e.g. 500ms)"))
}

/// Strictly parse a non-negative integer knob (zero is meaningful); empty
/// means "unset".
pub(crate) fn strict_count(var: &str, value: &str) -> Result<Option<usize>, ConfigError> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse::<usize>()
        .ok()
        .map(Some)
        .ok_or_else(|| ConfigError::new(var, value, "a non-negative integer"))
}

impl ExecConfig {
    /// Apply one knob by its environment-variable name.  This is the *only*
    /// parser for `XQJG_*` execution knobs: [`ExecConfig::try_from_env`]
    /// folds it over [`EXEC_KNOBS`], and the serving layer's per-session
    /// `SET` command calls it directly — so environment, server and tests
    /// all agree on syntax and defaults.  An empty value resets the knob to
    /// its built-in default; a malformed value is a typed [`ConfigError`]
    /// (never a silent fallback); an unknown name is an error too.
    pub fn apply_knob(&mut self, var: &str, value: &str) -> Result<(), ConfigError> {
        match var {
            "XQJG_THREADS" => {
                self.threads = strict_usize_at_most(
                    var,
                    value,
                    MAX_THREADS,
                    "a positive integer of at most 256",
                )?
                .unwrap_or_else(default_threads)
            }
            "XQJG_BATCH_CAPACITY" => {
                self.batch_capacity = strict_usize_at_most(
                    var,
                    value,
                    MAX_BATCH_CAPACITY,
                    "a positive integer of at most 1048576",
                )?
                .unwrap_or(crate::BATCH_CAPACITY)
            }
            "XQJG_MORSEL_SIZE" => {
                self.morsel_size = strict_usize(var, value)?.unwrap_or(DEFAULT_MORSEL_SIZE)
            }
            "XQJG_MEM_BUDGET" => self.mem_budget = strict_bytes(var, value)?,
            "XQJG_SPILL_DIR" => {
                let v = value.trim();
                self.spill_dir = (!v.is_empty()).then(|| PathBuf::from(v));
            }
            "XQJG_SPILL_RETRIES" => {
                self.spill_retries =
                    strict_count(var, value)?.unwrap_or(crate::spill::DEFAULT_SPILL_RETRIES)
            }
            "XQJG_QUERY_TIMEOUT" => self.query_timeout = strict_duration(var, value)?,
            "XQJG_BUILD_CACHE" => self.build_cache = strict_bool(var, value)?.unwrap_or(true),
            "XQJG_PLAN_CACHE" => self.plan_cache = strict_bool(var, value)?.unwrap_or(true),
            "XQJG_POSTINGS_CACHE" => self.postings_cache = strict_bool(var, value)?.unwrap_or(true),
            _ => {
                return Err(ConfigError::new(
                    var,
                    value,
                    "a known XQJG_* execution knob (see EXEC_KNOBS)",
                ))
            }
        }
        Ok(())
    }

    /// Read every [`EXEC_KNOBS`] variable from the environment, failing on
    /// the first malformed value with a typed [`ConfigError`] naming the
    /// variable, the offending value and the accepted syntax.  Unset and
    /// empty variables take their built-in defaults (see [`ExecConfig::apply_knob`]
    /// for per-knob syntax: positive integers for sizes, booleans for
    /// switches, `k`/`m`/`g` byte suffixes for `XQJG_MEM_BUDGET`,
    /// `ms`/`s`/`m` duration suffixes for `XQJG_QUERY_TIMEOUT`).
    ///
    /// This is the canonical environment builder: long-lived services call
    /// it once at startup so a typo in a deployment manifest is a clean
    /// startup error rather than a silently-default knob.
    pub fn try_from_env() -> Result<Self, ConfigError> {
        let mut cfg = ExecConfig::default();
        for var in EXEC_KNOBS {
            if let Ok(value) = std::env::var(var) {
                cfg.apply_knob(var, &value)?;
            }
        }
        Ok(cfg)
    }

    /// Lenient twin of [`ExecConfig::try_from_env`] for the per-query
    /// default path: a malformed variable falls back to its default after
    /// a one-shot process warning (the seed silently ignored it).  Fresh
    /// code with a place to report errors — services, CLIs — should prefer
    /// [`ExecConfig::try_from_env`].
    pub fn from_env() -> Self {
        let mut cfg = ExecConfig::default();
        for var in EXEC_KNOBS {
            if let Ok(value) = std::env::var(var) {
                if let Err(e) = cfg.apply_knob(var, &value) {
                    static WARN: std::sync::Once = std::sync::Once::new();
                    WARN.call_once(|| eprintln!("xqjg: ignoring malformed knob: {e}"));
                }
            }
        }
        cfg
    }

    /// A sequential configuration with the default batch and morsel sizes.
    /// The other knobs (`XQJG_MEM_BUDGET`, `XQJG_SPILL_DIR`, the cache
    /// switches, ...) are still read from the environment, so the whole
    /// test suite can be pointed at a tight memory budget or at cold caches
    /// (the CI matrix does exactly that).
    pub fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            batch_capacity: crate::BATCH_CAPACITY,
            morsel_size: DEFAULT_MORSEL_SIZE,
            ..Self::from_env()
        }
    }

    /// Builder: set the degree of parallelism, clamped to
    /// `1..=`[`MAX_THREADS`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, MAX_THREADS);
        self
    }

    /// Builder: set the batch capacity, clamped to
    /// `1..=`[`MAX_BATCH_CAPACITY`].
    pub fn with_batch_capacity(mut self, cap: usize) -> Self {
        self.batch_capacity = cap.clamp(1, MAX_BATCH_CAPACITY);
        self
    }

    /// Builder: set the morsel size.
    pub fn with_morsel_size(mut self, size: usize) -> Self {
        self.morsel_size = size.max(1);
        self
    }

    /// Builder: set (or clear) the pipeline-breaker memory budget.
    pub fn with_mem_budget(mut self, bytes: Option<usize>) -> Self {
        self.mem_budget = bytes.filter(|&b| b > 0);
        self
    }

    /// Builder: set the spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builder: set the transient spill-write retry limit (`0` fails on
    /// the first error).
    pub fn with_spill_retries(mut self, retries: usize) -> Self {
        self.spill_retries = retries;
        self
    }

    /// Builder: set (or clear) the wall-clock query deadline.
    pub fn with_query_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.query_timeout = timeout.filter(|t| !t.is_zero());
        self
    }

    /// Builder: honor or bypass the shared hash-join build cache.
    pub fn with_build_cache(mut self, on: bool) -> Self {
        self.build_cache = on;
        self
    }

    /// Builder: honor or bypass the plan cache.
    pub fn with_plan_cache(mut self, on: bool) -> Self {
        self.plan_cache = on;
        self
    }

    /// Builder: honor or bypass `IXSCAN` posting-list memoization.
    pub fn with_postings_cache(mut self, on: bool) -> Self {
        self.postings_cache = on;
        self
    }

    /// Compact fingerprint of the knobs a cached physical plan may depend
    /// on, part of every plan-cache key: two sessions differing in these
    /// knobs never share a cached plan.  Execution-only knobs (threads,
    /// batch/morsel sizes — parity-invariant by construction) are
    /// deliberately excluded so DOP sweeps share the warm plan.
    pub fn cache_fingerprint(&self) -> String {
        format!(
            "m{}",
            self.mem_budget.map(|b| b.to_string()).unwrap_or_default()
        )
    }
}

/// The documented defaults (all cores, [`crate::BATCH_CAPACITY`],
/// [`DEFAULT_MORSEL_SIZE`], no budget, caches on) — deliberately *without*
/// the environment reads; use [`ExecConfig::from_env`] to honor the
/// `XQJG_*` knobs.
impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: default_threads(),
            batch_capacity: crate::BATCH_CAPACITY,
            morsel_size: DEFAULT_MORSEL_SIZE,
            mem_budget: None,
            spill_dir: None,
            spill_retries: crate::spill::DEFAULT_SPILL_RETRIES,
            query_timeout: None,
            build_cache: true,
            plan_cache: true,
            postings_cache: true,
        }
    }
}

/// The machine's available parallelism, at most [`MAX_THREADS`] (the
/// `XQJG_THREADS` default).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Parse a byte count with an optional `k`/`m`/`g` (binary) suffix; zero,
/// empty and malformed inputs mean "unset".
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&s[..i], 1usize << 10),
        (i, 'm') | (i, 'M') => (&s[..i], 1usize << 20),
        (i, 'g') | (i, 'G') => (&s[..i], 1usize << 30),
        _ => (s, 1),
    };
    digits
        .trim()
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .filter(|&n| n > 0)
}

/// Parse a duration with an optional `ms`/`s`/`m` suffix (bare digits are
/// milliseconds, matching the most common timeout granularity); zero,
/// empty and malformed inputs mean "unset", like [`parse_bytes`].
pub fn parse_duration(s: &str) -> Option<std::time::Duration> {
    let s = s.trim();
    let (digits, scale_ms) = if let Some(d) = s.strip_suffix("ms").or_else(|| s.strip_suffix("MS"))
    {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix(['s', 'S']) {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix(['m', 'M']) {
        (d, 60_000)
    } else {
        (s, 1)
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(scale_ms))
        .filter(|&n| n > 0)
        .map(std::time::Duration::from_millis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;

    #[test]
    fn partition_covers_domain_exactly_once() {
        let ms = partition_morsels(10, 4);
        assert_eq!(
            ms,
            vec![
                Morsel { start: 0, end: 4 },
                Morsel { start: 4, end: 8 },
                Morsel { start: 8, end: 10 },
            ]
        );
        let exact = partition_morsels(8, 4);
        assert_eq!(exact.len(), 2);
        assert!(exact.iter().all(|m| m.len() == 4));
    }

    #[test]
    fn empty_domain_yields_one_empty_morsel() {
        let ms = partition_morsels(0, 128);
        assert_eq!(ms, vec![Morsel { start: 0, end: 0 }]);
        assert!(ms[0].is_empty());
    }

    #[test]
    fn effective_morsel_size_targets_four_morsels_per_worker() {
        // Sequential: keep the configured size.
        assert_eq!(effective_morsel_size(100, 1, 2048), 2048);
        // Mid-size domain, DOP 4: shrink so all 16 target morsels exist.
        assert_eq!(effective_morsel_size(16_000, 4, 2048), 1000);
        // Large domain: the configured size already yields plenty.
        assert_eq!(effective_morsel_size(1 << 20, 4, 2048), 2048);
        // Micro-scan: the shrink floors at MIN_MORSEL_SIZE, so the whole
        // domain fits one morsel and no workers spawn.
        assert_eq!(effective_morsel_size(9, 4, 2048), MIN_MORSEL_SIZE);
        assert_eq!(effective_morsel_size(0, 4, 2048), MIN_MORSEL_SIZE);
        // An explicitly tiny configured size still wins (merge coverage
        // in tests relies on forcing many small morsels).
        assert_eq!(effective_morsel_size(9, 4, 1), 1);
    }

    #[test]
    fn queue_hands_out_each_morsel_once() {
        let q = MorselQueue::new(partition_morsels(100, 30));
        let mut seen = Vec::new();
        while let Some((i, m)) = q.take() {
            seen.push((i, m));
        }
        assert_eq!(seen.len(), 4);
        assert!(q.take().is_none());
        assert_eq!(
            seen[3].1,
            Morsel {
                start: 90,
                end: 100
            }
        );
    }

    #[test]
    fn execute_morsels_preserves_morsel_order() {
        for threads in [1, 2, 4, 8] {
            let morsels = partition_morsels(1000, 7);
            let out = execute_morsels(threads, morsels.clone(), |i, m| {
                (i, m.range().sum::<usize>())
            });
            assert_eq!(out.len(), morsels.len());
            for (i, (idx, sum)) in out.iter().enumerate() {
                assert_eq!(*idx, i, "slot order matches morsel order at DOP {threads}");
                assert_eq!(*sum, morsels[i].range().sum::<usize>());
            }
        }
    }

    #[test]
    fn streaming_consume_runs_in_morsel_order() {
        for threads in [1, 2, 4, 8] {
            let morsels = partition_morsels(1000, 7);
            let expect: Vec<usize> = morsels.iter().map(|m| m.range().sum()).collect();
            let mut got: Vec<(usize, usize)> = Vec::new();
            execute_morsels_streaming(
                threads,
                morsels,
                |_, m| m.range().sum::<usize>(),
                |i, r| got.push((i, r)),
            );
            assert_eq!(got.len(), expect.len());
            for (pos, (i, r)) in got.iter().enumerate() {
                assert_eq!(*i, pos, "consume order at DOP {threads}");
                assert_eq!(*r, expect[pos]);
            }
        }
    }

    #[test]
    fn streaming_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            execute_morsels_streaming(
                4,
                partition_morsels(1000, 7),
                |i, _| {
                    if i == 57 {
                        panic!("worker blew up");
                    }
                    i
                },
                |_, _| {},
            );
        });
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn execute_morsels_runs_work_concurrently_but_deterministically() {
        let domain = 5000;
        let sequential = execute_morsels(1, partition_morsels(domain, 13), |_, m| m.len());
        let parallel = execute_morsels(4, partition_morsels(domain, 13), |_, m| m.len());
        assert_eq!(sequential, parallel);
        assert_eq!(parallel.iter().sum::<usize>(), domain);
    }

    #[test]
    fn config_builders_clamp_to_one() {
        let cfg = ExecConfig::sequential()
            .with_threads(0)
            .with_batch_capacity(0)
            .with_morsel_size(0);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.batch_capacity, 1);
        assert_eq!(cfg.morsel_size, 1);
        // ...and thread counts and batch capacities to their upper bounds
        // (nothing here spawns a thread or allocates a batch).
        let cfg = ExecConfig::sequential()
            .with_threads(usize::MAX)
            .with_batch_capacity(usize::MAX);
        assert_eq!(cfg.threads, MAX_THREADS);
        assert_eq!(cfg.batch_capacity, MAX_BATCH_CAPACITY);
        assert!((1..=MAX_THREADS).contains(&default_threads()));
    }

    #[test]
    fn thread_and_capacity_knobs_reject_values_above_their_bounds() {
        let mut cfg = ExecConfig::default();
        for (var, max) in [
            ("XQJG_THREADS", MAX_THREADS),
            ("XQJG_BATCH_CAPACITY", MAX_BATCH_CAPACITY),
        ] {
            cfg.apply_knob(var, &max.to_string()).expect(var);
            for bad in [max + 1, 1 << 40, usize::MAX] {
                let err = cfg.apply_knob(var, &bad.to_string()).expect_err(var);
                assert_eq!(
                    (err.var.as_str(), err.value.clone()),
                    (var, bad.to_string())
                );
                assert!(err.expected.contains(&max.to_string()), "{}", err.expected);
            }
            // Malformed values keep the plain syntax error path.
            assert!(cfg.apply_knob(var, "0").is_err());
            assert!(cfg.apply_knob(var, "lots").is_err());
        }
        assert_eq!(cfg.threads, MAX_THREADS, "a rejected value changes nothing");
        assert_eq!(cfg.batch_capacity, MAX_BATCH_CAPACITY);
    }

    #[test]
    fn removed_and_unknown_knobs_are_config_errors() {
        let mut cfg = ExecConfig::default();
        for var in [
            "XQJG_VECTORIZE",
            "XQJG_TYPED_KERNELS",
            "XQJG_ADAPTIVE_BATCH",
            "XQJG_WARP_DRIVE",
            "threads",
        ] {
            let err = cfg.apply_knob(var, "0").expect_err(var);
            assert_eq!(err.var, var);
        }
        assert_eq!(
            cfg,
            ExecConfig::default(),
            "a rejected knob changes nothing"
        );
    }

    #[test]
    fn exec_knobs_lists_exactly_the_names_apply_knob_accepts() {
        assert_eq!(EXEC_KNOBS.len(), 10);
        // Every listed name is a match arm (an empty value resets it)…
        for var in EXEC_KNOBS {
            let mut cfg = ExecConfig::default();
            cfg.apply_knob(var, "").expect(var);
        }
        // …and every match arm is listed: the arms are the quoted
        // `"XQJG_*" =>` patterns of `apply_knob` in this file.
        let src = include_str!("morsel.rs");
        let body = src
            .split("pub fn apply_knob")
            .nth(1)
            .and_then(|s| s.split("pub fn try_from_env").next())
            .expect("apply_knob body");
        let arms: Vec<&str> = body.split('"').filter(|t| t.starts_with("XQJG_")).collect();
        assert_eq!(arms, EXEC_KNOBS.to_vec());
    }

    #[test]
    fn parse_bytes_accepts_binary_suffixes_and_rejects_junk() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes(" 256k "), Some(256 * 1024));
        assert_eq!(parse_bytes("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_bytes("1g"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_bytes("0"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("lots"), None);
    }

    #[test]
    fn budget_builder_filters_zero() {
        let cfg = ExecConfig::default().with_mem_budget(Some(0));
        assert_eq!(cfg.mem_budget, None);
        let cfg = cfg.with_mem_budget(Some(1 << 20)).with_spill_dir("/tmp/x");
        assert_eq!(cfg.mem_budget, Some(1 << 20));
        assert_eq!(
            cfg.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
    }

    #[test]
    fn try_execute_morsels_returns_first_error_and_drains() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let result: Result<Vec<usize>, String> =
                try_execute_morsels(threads, partition_morsels(1000, 7), |i, m| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 {
                        Err(format!("morsel {i} failed"))
                    } else {
                        Ok(m.len())
                    }
                });
            assert_eq!(result, Err("morsel 3 failed".into()), "at DOP {threads}");
            // The queue drains after the failure: at DOP 1 exactly the
            // prefix runs; in parallel some in-flight morsels may finish
            // but nothing close to the full crew's worth re-runs.
            if threads == 1 {
                assert_eq!(ran.load(Ordering::Relaxed), 4);
            }
        }
    }

    #[test]
    fn try_execute_morsels_ok_matches_infallible_shim() {
        let morsels = partition_morsels(1000, 7);
        let via_shim = execute_morsels(4, morsels.clone(), |_, m| m.len());
        let via_try: Result<Vec<usize>, std::convert::Infallible> =
            try_execute_morsels(4, morsels, |_, m| Ok(m.len()));
        assert_eq!(via_try, Ok(via_shim));
    }

    #[test]
    fn try_streaming_surfaces_worker_errors_without_hanging() {
        for threads in [1, 4] {
            let mut consumed = Vec::new();
            let result = try_execute_morsels_streaming(
                threads,
                partition_morsels(1000, 7),
                |i, m| {
                    if i == 57 {
                        Err(ExecError::Cancelled)
                    } else {
                        Ok(m.len())
                    }
                },
                |i, r| {
                    consumed.push((i, r));
                    Ok(())
                },
            );
            assert_eq!(result, Err(ExecError::Cancelled), "at DOP {threads}");
            // Whatever was consumed before the error is the ordered prefix.
            for (pos, (i, _)) in consumed.iter().enumerate() {
                assert_eq!(*i, pos);
            }
        }
    }

    #[test]
    fn try_streaming_surfaces_consume_errors() {
        for threads in [1, 4] {
            let result = try_execute_morsels_streaming(
                threads,
                partition_morsels(1000, 7),
                |_, m| Ok::<usize, ExecError>(m.len()),
                |i, _| {
                    if i == 5 {
                        Err(ExecError::Cancelled)
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(result, Err(ExecError::Cancelled), "at DOP {threads}");
        }
    }

    #[test]
    fn try_streaming_still_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            let _: Result<(), ExecError> = try_execute_morsels_streaming(
                4,
                partition_morsels(1000, 7),
                |i, _| {
                    if i == 57 {
                        panic!("worker blew up");
                    }
                    Ok(i)
                },
                |_, _| Ok(()),
            );
        });
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn parse_duration_accepts_suffixes_and_rejects_junk() {
        use std::time::Duration;
        assert_eq!(parse_duration("250"), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration(" 250ms "), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration("3s"), Some(Duration::from_secs(3)));
        assert_eq!(parse_duration("2m"), Some(Duration::from_secs(120)));
        assert_eq!(parse_duration("0"), None);
        assert_eq!(parse_duration(""), None);
        assert_eq!(parse_duration("soon"), None);
    }

    #[test]
    fn timeout_builder_filters_zero_and_defaults_are_off() {
        use std::time::Duration;
        let cfg = ExecConfig::default();
        assert_eq!(cfg.spill_retries, crate::spill::DEFAULT_SPILL_RETRIES);
        assert_eq!(cfg.query_timeout, None);
        let cfg = cfg
            .with_spill_retries(0)
            .with_query_timeout(Some(Duration::ZERO));
        assert_eq!(cfg.spill_retries, 0);
        assert_eq!(cfg.query_timeout, None);
        let cfg = cfg.with_query_timeout(Some(Duration::from_secs(1)));
        assert_eq!(cfg.query_timeout, Some(Duration::from_secs(1)));
    }
}
