//! The execution request and the loop that serves it: one
//! [`QueryRequest`] compiles the plan's stages, builds every hash join,
//! runs the single pipeline and finishes the plan tail
//! ([`run_with_caches`]).

use super::access::{stage_domain, LeafDomain, PostingsCtx};
use super::build::{Booked, BuildCache, DrainCheck, JoinBuild, SpillCtx};
use super::operators::{ColHashJoin, ColNLJoin, ColScanLeaf};
use super::stage::{compile_stage, flatten_stages, CStage};
use super::tail::{finish_tail, sort_distinct_two_pass, values_at, TailSpec};
use crate::explain::CacheActuals;
use crate::physical::PhysPlan;
use crate::sql::SelectItem;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use xqjg_store::{
    new_stats_sink, CancelToken, ColOperator, Database, ExecConfig, ExecError, ExternalSorter,
    Interrupt, MemBudget, OpStats, PostingsCache, Row, Schema, Table, Value,
};

/// Per-execution error slot.  The pull-based [`ColOperator`] protocol is
/// infallible, so an operator that fails mid-pipeline — the leaf on
/// cancellation or timeout, the hash-join probe over a *spilled* build
/// side on a partition read — records the first failure here and stops
/// producing; `run_with_caches` checks the slot after the pipeline closes and
/// fails the execution with that error.
pub(super) type ErrSlot = Rc<RefCell<Option<ExecError>>>;

/// Counters describing the work a query execution performed — used by the
/// benchmark harness to explain *why* one plan beats another.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Rows produced by index scans.
    pub index_rows: usize,
    /// Rows produced by table scans.
    pub scan_rows: usize,
    /// Index probes performed (NLJOIN inner lookups).
    pub probes: usize,
    /// Bindings (partial join results) produced.
    pub bindings: usize,
    /// Per-operator counters, upstream operators first (empty for the
    /// materializing baseline executor).
    pub operators: Vec<OpStats>,
}

impl ExecStats {
    /// Fold another execution's counters into this one (used when a query
    /// decomposes into several SQL blocks).
    pub fn merge(&mut self, other: &ExecStats) {
        self.index_rows += other.index_rows;
        self.scan_rows += other.scan_rows;
        self.probes += other.probes;
        self.bindings += other.bindings;
        self.operators.extend(other.operators.iter().cloned());
    }
}

/// Aggregate work counters of one plan execution.  Operators fold their
/// local counters in at `close`, so nothing touches it per tuple.
#[derive(Debug, Clone, Default)]
pub(super) struct Agg {
    pub(super) index_rows: usize,
    pub(super) scan_rows: usize,
    pub(super) probes: usize,
    pub(super) bindings: usize,
}

pub(super) type SharedAgg = Rc<RefCell<Agg>>;

/// The shared warm-path caches an execution may consult: hash-join build
/// sides and memoized `IXSCAN` posting lists.  Both are `Arc`-backed
/// handles a serving layer shares across `Processor` instances; `Default`
/// is no caching.  The `XQJG_BUILD_CACHE` / `XQJG_POSTINGS_CACHE` knobs
/// (see [`ExecConfig`]) gate each cache even when supplied.
#[derive(Clone, Copy, Default)]
pub struct ExecCaches<'a> {
    /// Hash-join build sides (see [`BuildCache`]).
    pub builds: Option<&'a BuildCache>,
    /// Memoized `IXSCAN` posting lists (see [`PostingsCache`]).
    pub postings: Option<&'a PostingsCache>,
}

/// One query execution, described declaratively: the plan and catalog are
/// mandatory; knobs, warm-path caches and cancellation are opt-in builder
/// state.  [`QueryRequest::run`] is the single execution entry point the
/// `Processor`, the serving layer, the bench harness and the tests all
/// share.
///
/// ```ignore
/// let outcome = QueryRequest::new(&plan, &db)
///     .config(&cfg)
///     .build_cache(&builds)
///     .cancel(&token)
///     .run()?;
/// ```
#[derive(Clone, Copy)]
pub struct QueryRequest<'a> {
    plan: &'a PhysPlan,
    db: &'a Database,
    config: Option<&'a ExecConfig>,
    caches: ExecCaches<'a>,
    cancel: Option<&'a CancelToken>,
}

/// Everything one [`QueryRequest::run`] produced: the result rows, the
/// deterministic work counters and the warm-path cache actuals of this
/// execution ([`CacheActuals::plan_cache`] stays `None` here — plan caching
/// happens in front of the executor, so the planning layer fills it in).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result table, byte-identical across every knob setting.
    pub rows: Table,
    /// Aggregate and per-operator work counters.
    pub stats: ExecStats,
    /// Warm-path cache telemetry of this execution.
    pub cache_actuals: CacheActuals,
}

impl<'a> QueryRequest<'a> {
    /// A request to execute `plan` against `db` with environment-default
    /// knobs, no warm-path caches and no cancellation.
    pub fn new(plan: &'a PhysPlan, db: &'a Database) -> QueryRequest<'a> {
        QueryRequest {
            plan,
            db,
            config: None,
            caches: ExecCaches::default(),
            cancel: None,
        }
    }

    /// Pin the execution knobs (default: [`ExecConfig::from_env`]).
    ///
    /// `batch_capacity` affects only the reported batch counts of the
    /// result's per-operator EXPLAIN actuals.
    pub fn config(mut self, cfg: &'a ExecConfig) -> QueryRequest<'a> {
        self.config = Some(cfg);
        self
    }

    /// Supply the full warm-path cache set at once.
    pub fn caches(mut self, caches: ExecCaches<'a>) -> QueryRequest<'a> {
        self.caches = caches;
        self
    }

    /// Consult (and populate) a hash-join build cache, subject to the
    /// `XQJG_BUILD_CACHE` knob.
    pub fn build_cache(mut self, cache: &'a BuildCache) -> QueryRequest<'a> {
        self.caches.builds = Some(cache);
        self
    }

    /// Memoize `IXSCAN` posting lists through the given cache, subject to
    /// the `XQJG_POSTINGS_CACHE` knob.
    pub fn postings_cache(mut self, cache: &'a PostingsCache) -> QueryRequest<'a> {
        self.caches.postings = Some(cache);
        self
    }

    /// Observe a cancellation token once per leaf batch and inside the
    /// spill machinery.
    pub fn cancel(mut self, token: &'a CancelToken) -> QueryRequest<'a> {
        self.cancel = Some(token);
        self
    }

    /// Execute the request.  Every failure — spill I/O, corrupt run
    /// records, budget exhaustion, cancellation, timeout — surfaces as a
    /// typed [`ExecError`]; on error all spill run files are deleted and
    /// every memory-budget reservation is released before returning, so
    /// the same plan can immediately be re-executed on the same session.
    pub fn run(self) -> Result<QueryOutcome, ExecError> {
        let default_cfg;
        let cfg = match self.config {
            Some(c) => c,
            None => {
                default_cfg = ExecConfig::from_env();
                &default_cfg
            }
        };
        // Postings counters live on the (shared, concurrent) cache, so the
        // actuals are before/after deltas — telemetry that may include
        // concurrent queries' traffic, not deterministic actuals.
        let postings = self.caches.postings.filter(|_| cfg.postings_cache);
        let postings0 = postings.map(|p| (p.hits(), p.lookups()));
        let (rows, stats) = run_with_caches(self.plan, self.db, cfg, self.caches, self.cancel)?;
        let (postings_hits, postings_lookups) = match (postings, postings0) {
            (Some(p), Some((h0, l0))) => (p.hits() - h0, p.lookups() - l0),
            _ => (0, 0),
        };
        let cache_actuals = CacheActuals {
            plan_cache: None,
            build_hits: stats.operators.iter().map(|o| o.cache_hits).sum(),
            postings_hits,
            postings_lookups,
        };
        Ok(QueryOutcome {
            rows,
            stats,
            cache_actuals,
        })
    }

    /// [`QueryRequest::run`] for callers that treat execution failure as
    /// fatal (the benchmark harness, examples, tests).
    pub fn expect_run(self) -> QueryOutcome {
        self.run()
            .unwrap_or_else(|e| panic!("query execution failed: {e}"))
    }
}

/// Probe whether `dir` can actually host spill runs: it must exist (or be
/// creatable) and accept a small write.  Probed once per call site because
/// the answer can change between executions (disk full, permissions).
fn spill_dir_usable(dir: &std::path::Path) -> bool {
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    static PROBE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = PROBE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let probe = dir.join(format!("xqjg-probe-{}-{n}.tmp", std::process::id()));
    match std::fs::write(&probe, b"xqjg") {
        Ok(()) => {
            let _ = std::fs::remove_file(&probe);
            true
        }
        Err(_) => false,
    }
}

/// The single execution implementation every public path funnels into
/// (see [`QueryRequest::run`]).  Each cache is consulted only when its
/// `ExecConfig` knob is on, and all lookups carry the catalog version
/// observed at entry, so DDL between executions invalidates without
/// coordination.  Results, row order and EXPLAIN actuals are
/// byte-identical with and without the caches.
fn run_with_caches(
    plan: &PhysPlan,
    db: &Database,
    cfg: &ExecConfig,
    caches: ExecCaches<'_>,
    cancel: Option<&CancelToken>,
) -> Result<(Table, ExecStats), ExecError> {
    let build_cache = if cfg.build_cache { caches.builds } else { None };
    let postings_ctx: PostingsCtx<'_> = if cfg.postings_cache {
        caches.postings.map(|p| (p, db.version()))
    } else {
        None
    };
    let cap = cfg.batch_capacity.max(1);
    let mut mem_budget = cfg.mem_budget;
    let dir = xqjg_store::spill_dir(cfg.spill_dir.as_deref());
    // Graceful degradation: a memory budget only matters because it makes
    // operators spill, and spilling needs a writable directory.  If the
    // spill dir is unusable, degrade to in-memory execution (warn once per
    // process) rather than failing every budgeted query at its first run
    // flush.
    if mem_budget.is_some() && !spill_dir_usable(&dir) {
        static WARN: std::sync::Once = std::sync::Once::new();
        WARN.call_once(|| {
            eprintln!(
                "xqjg: spill directory {} is not writable; \
                 ignoring memory budget and executing in memory",
                dir.display()
            );
        });
        mem_budget = None;
    }
    let budget = MemBudget::new(mem_budget);
    let _drain = DrainCheck(budget.clone());
    let interrupt = Interrupt::new(cancel.cloned(), cfg.query_timeout);
    let spill = SpillCtx {
        budget: budget.clone(),
        dir,
        interrupt: interrupt.clone(),
    };
    let stages = flatten_stages(&plan.root, db);
    let cstages: Vec<CStage<'_>> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| compile_stage(i, s, db))
        .collect();

    // Pre-phase: resolve the leaf domain and build (or fetch from the
    // session cache) all hash-join build sides once.
    let mut pre_agg = Agg::default();
    let domain = stage_domain(&cstages[0], postings_ctx);
    if let LeafDomain::Postings(rids) = &domain {
        pre_agg.index_rows += rids.len();
    }
    let mut build_hits = vec![false; stages.len()];
    // Every booking of this execution — the resident build footprints —
    // goes through one guard, so early error returns release it all
    // without bespoke cleanup code.
    let mut booked = Booked::new(budget.clone());
    let mut builds: Vec<Option<Arc<JoinBuild>>> = Vec::with_capacity(stages.len());
    for (i, (s, cs)) in stages.iter().zip(&cstages).enumerate() {
        if i == 0 || s.hash_keys.is_empty() {
            builds.push(None);
            continue;
        }
        let (build, hit) = match build_cache {
            Some(c) => c.get_or_build(JoinBuild::cache_key(s), db.version(), || {
                JoinBuild::build(cs, &spill)
            })?,
            None => (Arc::new(JoinBuild::build(cs, &spill)?), false),
        };
        build_hits[i] = hit;
        // A cache hit performs no fetch work, and the counters report the
        // work actually done.
        if !hit {
            pre_agg.scan_rows += build.fetched_scan;
            pre_agg.index_rows += build.fetched_index;
        }
        // The resident bucket table is memory of *this* execution whether
        // the build is fresh or cached: charge its footprint (forced — the
        // rows already exist) so hit and miss runs occupy the same budget
        // and downstream spill decisions are identical.  Spilled builds
        // have a zero footprint here; their probe-side partition loads
        // book transiently instead.
        booked.force(build.reserved);
        builds.push(Some(build));
    }

    let aliases: Vec<String> = stages.iter().map(|s| s.alias.to_string()).collect();
    let tables: Vec<&Table> = stages.iter().map(|s| s.base).collect();
    let spec = TailSpec::resolve(plan, &aliases, &tables);

    // One pipeline over the whole leaf domain; each batch is consumed as
    // it is produced.  Without a memory budget the batches are gathered
    // into the tail columns and the tail runs as one columnar pass at the
    // end ([`finish_tail`]).  Under a budget the sorter is the pipeline
    // breaker: every batch's rows go straight into it, so it can flush
    // sorted runs to disk while the leaf is still scanning (the run
    // boundaries depend only on the row stream and the budget).
    let budgeted = spill.budget.limit().is_some();
    let mut cols = spec.columns();
    let mut sorter = ExternalSorter::new(spill.budget.clone(), spill.dir.clone());
    sorter.set_interrupt(interrupt.clone());
    // Budgeted DISTINCT is sort-based and two-pass: pass 1 sorts by the
    // select row (original sequence as tie-break) and drops adjacent
    // duplicates with O(1) carry-over state, pass 2 re-sorts the survivors
    // by (order key, original sequence) — the first-occurrence rows and
    // order of a dedup set, with both passes free to spill.
    let sort_distinct = plan.distinct && budgeted;
    let mut seq = 0u64;
    let sink = new_stats_sink();
    let agg: SharedAgg = Rc::new(RefCell::new(pre_agg));
    let err: ErrSlot = Rc::new(RefCell::new(None));
    let mut op: Box<dyn ColOperator + '_> = Box::new(ColScanLeaf::new(
        &cstages[0],
        &domain,
        cap,
        sink.clone(),
        agg.clone(),
        interrupt.clone(),
        err.clone(),
    ));
    for (cstage, build) in cstages[1..].iter().zip(&builds[1..]) {
        op = match build {
            Some(b) => Box::new(ColHashJoin::new(
                op,
                cstage,
                b.as_ref(),
                &budget,
                cap,
                sink.clone(),
                agg.clone(),
                err.clone(),
            )),
            None => Box::new(ColNLJoin::new(
                op,
                cstage,
                cap,
                sink.clone(),
                agg.clone(),
                postings_ctx,
            )),
        };
    }
    op.open();
    let mut tail_rows_in = 0usize;
    while let Some(batch) = op.next_batch() {
        tail_rows_in += batch.live();
        if !budgeted {
            spec.gather(&batch, &tables, &mut cols);
            continue;
        }
        let mut chunk = spec.columns();
        spec.gather(&batch, &tables, &mut chunk);
        for i in 0..batch.live() {
            let sel = values_at(&chunk, &spec.select, i);
            let key = values_at(&chunk, &spec.order, i);
            if sort_distinct {
                // Pass-1 record: keyed by the select row; the payload
                // carries (original sequence, order key, select row).
                let mut payload: Row = Vec::with_capacity(1 + key.len() + sel.len());
                payload.push(Value::Int(seq as i64));
                payload.extend(key);
                payload.extend(sel.iter().cloned());
                sorter.push(sel, payload)?;
                seq += 1;
            } else {
                sorter.push(key, sel)?;
            }
        }
    }
    op.close();
    drop(op);
    if let Some(e) = err.take() {
        return Err(e);
    }
    let mut agg = agg.take();
    let mut operators = sink.take();
    // EXPLAIN reports each operator's batch count as `ceil(rows_out /
    // cap)`, its count of full batches: the leaf's filters thin its
    // batches and one join probe may overfill one, so raw counts
    // would move with how rows happen to fall into batches.
    for op in &mut operators {
        op.batches = op.rows_out.div_ceil(cap);
    }
    // Fetch work done before the pipeline ran — the IXSCAN leaf's range
    // scan, fresh hash-join build enumerations — belongs to its operator.
    if let (Some(leaf), LeafDomain::Postings(rids)) = (operators.first_mut(), &domain) {
        leaf.fetched += rids.len();
    }
    for (i, (op, build)) in operators.iter_mut().zip(&builds).enumerate() {
        if let Some(b) = build {
            if !build_hits[i] {
                op.fetched += b.fetched_scan + b.fetched_index;
            }
            op.build_rows += b.build_rows;
            op.spill_runs += b.spill_runs;
            op.spill_bytes += b.spill_bytes;
            op.partitions += b.partitions;
            op.retries += b.retries;
            if build_hits[i] {
                op.cache_hits += 1;
            }
        }
    }

    // The plan tail: DISTINCT over the select list, ORDER BY, RETURN.
    agg.bindings += tail_rows_in;
    let name = match (plan.distinct, plan.order_by.is_empty()) {
        (true, _) => "SORT(distinct)",
        (false, false) => "SORT",
        (false, true) => "RETURN",
    };
    let mut tail = OpStats::named(name);
    tail.rows_in = tail_rows_in;
    tail.build_rows = tail_rows_in;
    let rows: Vec<Row> = if !budgeted {
        let (rows, kernel_rows) = finish_tail(&spec, &cols, tail_rows_in, plan.distinct);
        tail.kernel_rows = kernel_rows;
        rows
    } else {
        let sorted = if sort_distinct {
            sort_distinct_two_pass(sorter, spec.order.len(), &spill)?
        } else {
            sorter.finish()?
        };
        tail.spill_runs = sorted.spill_runs;
        tail.spill_bytes = sorted.spill_bytes;
        tail.kernel_rows = sorted.typed_rows;
        tail.retries = sorted.retries;
        sorted.collect::<Result<_, _>>()?
    };

    // Output schema and table.
    let mut columns: Vec<String> = Vec::new();
    for item in &plan.select {
        match item {
            SelectItem::Star(alias) => {
                let slot = aliases
                    .iter()
                    .position(|a| a == alias)
                    .expect("alias bound");
                columns.extend(tables[slot].schema().columns().iter().cloned());
            }
            SelectItem::Expr { alias, .. } => columns.push(alias.clone()),
        }
    }
    let table = Table::from_rows(Schema::new(columns), rows);
    // `booked` (build footprints) and any sorter state release via their
    // guards' Drop impls — on this path and on every early `?` return
    // above; `_drain` then asserts the budget drained to zero.
    booked.clear();
    tail.rows_out = table.len();
    tail.batches = tail.rows_out.div_ceil(cap);
    operators.push(tail);
    let stats = ExecStats {
        index_rows: agg.index_rows,
        scan_rows: agg.scan_rows,
        probes: agg.probes,
        bindings: agg.bindings,
        operators,
    };
    Ok((table, stats))
}

/// Convenience: optimize and execute an SQL text against the database.
pub fn run_sql(sql: &str, db: &Database) -> Result<Table, Box<dyn std::error::Error>> {
    let query = crate::sqlparse::parse_sql(sql)?;
    let plan = crate::optimizer::optimize(&query, db)?;
    Ok(QueryRequest::new(&plan, db).run()?.rows)
}
