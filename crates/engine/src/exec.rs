//! Pipelined, columnar execution of physical plans.
//!
//! The executor implements the operator repertoire of Table VII as a tree
//! of discrete pull-based operators over the [`xqjg_store::ColOperator`]
//! substrate: index and table scan leaves, index nested-loop joins (the
//! inner access path is re-probed for every outer binding, with probe
//! bounds computed from the outer columns), build-once hash joins, and the
//! plan tail (select/order evaluation, duplicate-eliminating SORT,
//! RETURN).  Tuples flow between operators in [`ColumnBatch`]es of
//! *bindings* — one rid column per bound alias plus a selection vector —
//! so no join level ever materializes the full binding set (the sort tail,
//! a genuine pipeline breaker, is the only operator that buffers its
//! input).  Every predicate, hash key and probe bound is compiled once per
//! execution ([`CStage`]): schema offsets are resolved up front, and where
//! the operand columns carry typed images the comparison runs as a
//! branch-free kernel; columns without one keep the untyped [`Value`]
//! comparison inside the same operators.
//!
//! Each execution runs **one pipeline** over the scan leaf's whole row-id
//! domain on the calling thread: hash-join build sides are built once up
//! front, then the leaf, join and tail operators stream batches to the
//! SORT tail, which gathers them (or, under a memory budget, feeds them to
//! the external sorter) as they arrive.  Concurrency comes from running
//! several queries at once — the serving layer's connection workers —
//! never from splitting one query across threads.
//!
//! [`QueryRequest::run`] is the one way to execute a plan.  The seed's
//! materialize-everything executor is retained in [`crate::materialize`]
//! as the independent reference the tests compare this pipeline against
//! (and the baseline of the `executor` benchmark).

use crate::explain::CacheActuals;
use crate::physical::{Access, Bounds, JoinNode, PhysPlan};
use crate::sql::{SelectItem, SqlCmp, SqlExpr, SqlPredicate};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use xqjg_store::{
    gather_i64, gather_u32, hash_keys_typed, hash_values, mask_terms, new_stats_sink,
    sort_permutation_i64, sort_permutation_typed, BitMask, CancelToken, CodeRun, ColOperator,
    ColumnBatch, Database, ExecConfig, ExecError, ExternalSorter, GraceBuilder, HashKey, Interrupt,
    KernelCmp, MaskTerm, MemBudget, OpStats, PostingsCache, PostingsKey, PrefixRun, Row, Schema,
    SortKey, SortVals, SortedRows, SpilledPartitions, StatsSink, Table, TypedColumn, Value,
    BUILD_ENTRY_FOOTPRINT,
};

/// Per-execution error slot.  The pull-based [`ColOperator`] protocol is
/// infallible, so an operator that fails mid-pipeline — the leaf on
/// cancellation or timeout, the hash-join probe over a *spilled* build
/// side on a partition read — records the first failure here and stops
/// producing; the driver checks the slot after the pipeline closes and
/// fails the execution with that error.
type ErrSlot = Rc<RefCell<Option<ExecError>>>;

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
struct Agg {
    index_rows: usize,
    scan_rows: usize,
    probes: usize,
    bindings: usize,
}

type SharedAgg = Rc<RefCell<Agg>>;

/// One stage of the flattened left-deep join chain: the leaf scan (stage
/// 0) or one join level.
struct Stage<'a> {
    alias: &'a str,
    table_name: &'a str,
    base: &'a Table,
    access: &'a Access,
    hash_keys: &'a [(SqlExpr, String)],
    residual: &'a [SqlPredicate],
    /// Aliases bound by the stages below this one, outer-to-inner.
    outer_aliases: Vec<String>,
    /// Base tables of `outer_aliases`.
    outer_tables: Vec<&'a Table>,
}

/// Flatten the left-deep join tree into its stage sequence.
fn flatten_stages<'a>(node: &'a JoinNode, db: &'a Database) -> Vec<Stage<'a>> {
    match node {
        JoinNode::Leaf {
            alias,
            table,
            access,
            ..
        } => vec![Stage {
            alias,
            table_name: table,
            base: db.table(table).expect("table registered"),
            access,
            hash_keys: &[],
            residual: &[],
            outer_aliases: Vec::new(),
            outer_tables: Vec::new(),
        }],
        JoinNode::Join {
            outer,
            alias,
            table,
            access,
            hash_keys,
            residual,
            ..
        } => {
            let stages = flatten_stages(outer, db);
            let outer_aliases: Vec<String> = stages.iter().map(|s| s.alias.to_string()).collect();
            let outer_tables: Vec<&Table> = stages.iter().map(|s| s.base).collect();
            let mut stages = stages;
            stages.push(Stage {
                alias,
                table_name: table,
                base: db.table(table).expect("table registered"),
                access,
                hash_keys,
                residual,
                outer_aliases,
                outer_tables,
            });
            stages
        }
    }
}

/// A posting list handed to the operators: owned fresh off the B-tree, or
/// shared out of the [`PostingsCache`] (hit *and* insert paths — the cache
/// hands back an `Arc` either way).  Derefs to the rid slice, so consumers
/// never care which.
pub(crate) enum Postings {
    Owned(Vec<usize>),
    Shared(Arc<Vec<usize>>),
}

impl std::ops::Deref for Postings {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        match self {
            Postings::Owned(v) => v,
            Postings::Shared(v) => v,
        }
    }
}

/// The postings cache paired with the catalog version the execution
/// observed at entry (`None` = memoization off for this execution, either
/// no cache supplied or `XQJG_POSTINGS_CACHE=0`).
pub(crate) type PostingsCtx<'a> = Option<(&'a PostingsCache, u64)>;

/// `IXSCAN` probe bounds with every expression evaluated to a constant
/// composite key: the canonical form shared by the interpreted
/// ([`resolve_bounds`]) and compiled ([`resolve_cbounds`]) evaluators, and
/// — together with the index name — the [`PostingsKey`] of the memoized
/// range scan.  An unbounded side is the
/// empty key with its inclusive flag normalized to `true`, so every range
/// has exactly one spelling (cache keys must not alias).
struct ResolvedBounds {
    lower: Vec<Value>,
    lower_inc: bool,
    upper: Vec<Value>,
    upper_inc: bool,
}

impl ResolvedBounds {
    fn lower_bound(&self) -> Bound<&[Value]> {
        if self.lower.is_empty() {
            Bound::Unbounded
        } else if self.lower_inc {
            Bound::Included(self.lower.as_slice())
        } else {
            Bound::Excluded(self.lower.as_slice())
        }
    }

    fn upper_bound(&self) -> Bound<&[Value]> {
        if self.upper.is_empty() {
            Bound::Unbounded
        } else if self.upper_inc {
            Bound::Included(self.upper.as_slice())
        } else {
            Bound::Excluded(self.upper.as_slice())
        }
    }

    /// Does a bound compare against NULL?  Such a probe matches no entry
    /// (SQL three-valued logic), although the B-tree orders NULL keys like
    /// any other.
    fn binds_null(&self) -> bool {
        self.lower.iter().chain(&self.upper).any(Value::is_null)
    }

    fn into_key(self, index: &str) -> PostingsKey {
        PostingsKey {
            index: index.to_string(),
            lower: self.lower,
            lower_inc: self.lower_inc,
            upper: self.upper,
            upper_inc: self.upper_inc,
        }
    }
}

/// Run (or recall) the B-tree range scan for resolved bounds.  With a
/// postings context the scan is memoized under (index name, bounds) and
/// the catalog version; without one it walks the tree directly.  Hit or
/// miss, callers count `rids.len()` into their fetch accounting — the
/// EXPLAIN actuals never depend on cache state.  Bounds that compare
/// against NULL match nothing and consult neither.
fn cached_tree_range(
    tree: &xqjg_store::BPlusTree,
    rb: ResolvedBounds,
    index: &str,
    ctx: PostingsCtx<'_>,
) -> Postings {
    if rb.binds_null() {
        return Postings::Owned(Vec::new());
    }
    match ctx {
        Some((cache, version)) => {
            let (rids, _hit) = cache.get_or_compute(version, rb.into_key(index), |k| {
                tree.range_rids(k.lower_bound(), k.upper_bound())
            });
            Postings::Shared(rids)
        }
        None => Postings::Owned(tree.range_rids(rb.lower_bound(), rb.upper_bound())),
    }
}

/// The scan leaf's row-id domain, computed once before the pipeline runs.
enum LeafDomain {
    /// `TBSCAN`: the base table's full rid range `[0, n)`.
    Rids(usize),
    /// `IXSCAN`: the pre-fetched posting list (pre-residual).
    Postings(Postings),
}

impl LeafDomain {
    fn len(&self) -> usize {
        match self {
            LeafDomain::Rids(n) => *n,
            LeafDomain::Postings(rids) => rids.len(),
        }
    }
}

/// Everything the spill machinery of one execution needs: the shared
/// [`MemBudget`] accountant, the run directory, the transient-failure
/// retry allowance and the cancellation/deadline context.
#[derive(Clone)]
struct SpillCtx {
    budget: Arc<MemBudget>,
    dir: PathBuf,
    retries: usize,
    interrupt: Interrupt,
}

/// Bytes booked against the execution's budget, released when the guard
/// drops — success and error paths alike, so every early `?` return still
/// drains the budget to zero.
struct Booked {
    budget: Arc<MemBudget>,
    bytes: usize,
}

impl Booked {
    fn new(budget: Arc<MemBudget>) -> Booked {
        Booked { budget, bytes: 0 }
    }

    /// Book unconditionally (the memory already exists).
    fn force(&mut self, bytes: usize) {
        self.budget.reserve_force(bytes);
        self.bytes += bytes;
    }

    /// Book if the budget allows it.
    fn try_book(&mut self, bytes: usize) -> bool {
        if self.budget.try_reserve(bytes) {
            self.bytes += bytes;
            true
        } else {
            false
        }
    }

    /// Release everything booked so far.
    fn clear(&mut self) {
        self.budget.release(self.bytes);
        self.bytes = 0;
    }
}

impl Drop for Booked {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Declared first in [`run_with_caches`] so it drops last: by then every
/// operator, sorter, probe cache and booking guard has released its
/// reservations, and a non-zero balance is an accounting bug.
struct DrainCheck(Arc<MemBudget>);

impl Drop for DrainCheck {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            debug_assert_eq!(
                self.0.used(),
                0,
                "execution must drain its memory budget on every exit path"
            );
        }
    }
}

/// Where a hash-join build side lives.
enum BuildBackend {
    /// The classical in-memory bucket table.
    Mem(HashMap<u64, Vec<usize>>),
    /// Grace-style hash partitions on disk (the budget tripped during the
    /// build).  Probes route by hash and load one partition at a time.
    Spilled(SpilledPartitions),
}

/// A hash join's build side: enumerated and bucketed exactly once per
/// execution, before the pipeline runs, then probed read-only.
///
/// In-memory builds are pure functions of (table contents, pushed-down
/// access path, key columns), so a [`BuildCache`] may hand the same build
/// to several executions of a session.  Builds that spilled under the
/// memory budget are *not* cached: their partition files are per-execution
/// temp state, and memoizing them would defeat the budget.
pub(crate) struct JoinBuild {
    key_cols: Vec<usize>,
    backend: BuildBackend,
    build_rows: usize,
    /// Rows fetched through a table scan while enumerating the build side.
    fetched_scan: usize,
    /// Rows fetched through an index while enumerating the build side.
    fetched_index: usize,
    /// Partition files written while Grace-partitioning (0 for in-memory
    /// builds).
    spill_runs: usize,
    /// Bytes written while Grace-partitioning.
    spill_bytes: usize,
    /// Leaf partitions of a spilled build (0 for in-memory builds).
    partitions: usize,
    /// Transient write failures retried while Grace-partitioning.
    retries: usize,
    /// Footprint of the in-memory bucket table in bytes.  The build holds
    /// no reservation of its own (it may outlive its execution in a
    /// session cache): every execution that uses the build — fresh or
    /// cached — books this many bytes against *its* budget for its
    /// lifetime, so hit and miss runs make identical spill decisions.
    reserved: usize,
}

impl JoinBuild {
    fn build(stage: &Stage<'_>, db: &Database, spill: &SpillCtx) -> Result<JoinBuild, ExecError> {
        // No postings context here: the build cache memoizes the whole
        // finished build, so memoizing its enumeration scan too would
        // only duplicate the rid list in two caches.
        let (inner_rows, fetched) =
            exec_access(stage.access, stage.alias, stage.table_name, db, None, None);
        let (fetched_scan, fetched_index) = match fetched {
            Fetched::Scanned(n) => (n, 0),
            Fetched::Indexed(n) => (0, n),
        };
        let key_cols: Vec<usize> = stage
            .hash_keys
            .iter()
            .map(|(_, col)| stage.base.schema().expect_index(col))
            .collect();
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut build_rows = 0;
        // Build-time bookings release on every exit — the error paths out
        // of the Grace writers included — and on success just before the
        // caller re-books the finished table's footprint.
        let mut res = Booked::new(spill.budget.clone());
        let mut grace: Option<GraceBuilder> = None;
        for &rid in inner_rows.iter() {
            if build_rows % 4096 == 0 {
                spill.interrupt.check()?;
            }
            let row = &stage.base.rows()[rid];
            if key_cols.iter().any(|&c| row[c].is_null()) {
                continue;
            }
            let h = hash_values(key_cols.iter().map(|&c| &row[c]));
            build_rows += 1;
            if let Some(g) = &mut grace {
                g.add(h, rid)?;
                continue;
            }
            if res.try_book(BUILD_ENTRY_FOOTPRINT) {
                buckets.entry(h).or_default().push(rid);
                continue;
            }
            // The budget tripped: switch to a Grace-partitioned build.
            // The buckets gathered so far drain to the partition files
            // (per-hash rid order is preserved — every bucket keeps its
            // scan order, and loads group by hash — so probe results and
            // their order are identical to the in-memory backend).
            let mut g = GraceBuilder::new(spill.dir.clone())?;
            g.set_retries(spill.retries);
            g.set_interrupt(spill.interrupt.clone());
            for (bh, rids) in buckets.drain() {
                for brid in rids {
                    g.add(bh, brid)?;
                }
            }
            res.clear();
            g.add(h, rid)?;
            grace = Some(g);
        }
        let (backend, spill_runs, spill_bytes, partitions, retries) = match grace {
            Some(g) => {
                // A loaded partition should fit in half the budget so that
                // probe-side partition tables can rotate without thrashing
                // the whole allowance.
                let load_limit = spill
                    .budget
                    .limit()
                    .map(|l| (l / 2).max(BUILD_ENTRY_FOOTPRINT))
                    .unwrap_or(usize::MAX);
                let parts = g.finish(load_limit)?;
                let (runs, bytes, nparts, retried) = (
                    parts.spill_runs,
                    parts.spill_bytes,
                    parts.partitions(),
                    parts.retries,
                );
                (BuildBackend::Spilled(parts), runs, bytes, nparts, retried)
            }
            None => (BuildBackend::Mem(buckets), 0, 0, 0, 0),
        };
        let reserved = res.bytes;
        res.clear();
        Ok(JoinBuild {
            key_cols,
            backend,
            build_rows,
            fetched_scan,
            fetched_index,
            spill_runs,
            spill_bytes,
            partitions,
            retries,
            reserved,
        })
    }

    /// Did this build spill to Grace partitions?
    fn is_spilled(&self) -> bool {
        matches!(self.backend, BuildBackend::Spilled(_))
    }

    /// Cache key: the build is fully determined by the inner table, the key
    /// columns and the pushed-down access path (whose expressions are
    /// constant on a build side — it is resolved with no outer bindings).
    fn cache_key(stage: &Stage<'_>) -> String {
        let keys: Vec<&str> = stage.hash_keys.iter().map(|(_, c)| c.as_str()).collect();
        format!("{}|{}|{:?}", stage.table_name, keys.join(","), stage.access)
    }
}

/// Probe-side view of a Grace-partitioned build: a small cache of loaded
/// partition bucket tables, bounded by the shared [`MemBudget`].  Each
/// hash-join operator owns one — the [`SpilledPartitions`] are immutable,
/// so no locks are needed — and evicts FIFO when a new load does not
/// fit.  A single partition larger than what is left is loaded
/// anyway (progress guarantee); the overshoot shows in the budget's peak.
struct PartitionProbe<'a> {
    parts: &'a SpilledPartitions,
    budget: Arc<MemBudget>,
    loaded: HashMap<usize, LoadedPart>,
    fifo: VecDeque<usize>,
}

struct LoadedPart {
    buckets: HashMap<u64, Vec<usize>>,
    bytes: usize,
}

impl<'a> PartitionProbe<'a> {
    fn new(parts: &'a SpilledPartitions, budget: Arc<MemBudget>) -> Self {
        PartitionProbe {
            parts,
            budget,
            loaded: HashMap::new(),
            fifo: VecDeque::new(),
        }
    }

    /// The build candidates for probe hash `h`, loading (and possibly
    /// evicting) partitions as needed.  A failed partition read releases
    /// its booking before surfacing.
    fn candidates(&mut self, h: u64) -> Result<Option<&Vec<usize>>, ExecError> {
        let pid = self.parts.partition_of(h);
        if !self.loaded.contains_key(&pid) {
            let bytes = self.parts.load_footprint(pid);
            // Transient bookings: spill decisions elsewhere must not see
            // this cache, whose contents follow the probe order.
            let mut booked = self.budget.try_reserve_transient(bytes);
            while !booked {
                let Some(victim) = self.fifo.pop_front() else {
                    break;
                };
                if let Some(lp) = self.loaded.remove(&victim) {
                    self.budget.release_transient(lp.bytes);
                }
                booked = self.budget.try_reserve_transient(bytes);
            }
            if !booked {
                self.budget.reserve_transient_force(bytes);
            }
            let buckets = match self.parts.load(pid) {
                Ok(b) => b,
                Err(e) => {
                    self.budget.release_transient(bytes);
                    return Err(e);
                }
            };
            self.loaded.insert(pid, LoadedPart { buckets, bytes });
            self.fifo.push_back(pid);
        }
        Ok(self.loaded[&pid].buckets.get(&h))
    }

    /// Resolve a whole batch of probe hashes partition-by-partition: rows
    /// are grouped by their Grace partition (deterministic ascending pid
    /// order) and each group is resolved consecutively, so every partition
    /// is loaded at most once per batch regardless of how the probe rows
    /// interleave.  Returns the candidate rid list per input row, in input
    /// order — callers then probe rows in their original order, keeping
    /// output row order identical to per-row [`Self::candidates`] calls.
    fn spool(&mut self, hashes: &[Option<u64>]) -> Result<Vec<Vec<usize>>, ExecError> {
        let mut by_part: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, h) in hashes.iter().enumerate() {
            // NULL-keyed probe rows (no hash) match nothing — leave their
            // candidate lists empty without touching any partition.
            if let Some(h) = h {
                by_part
                    .entry(self.parts.partition_of(*h))
                    .or_default()
                    .push(i);
            }
        }
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); hashes.len()];
        for (_, rows) in by_part {
            for i in rows {
                let h = hashes[i].expect("only hashed rows were grouped");
                if let Some(c) = self.candidates(h)? {
                    out[i] = c.clone();
                }
            }
        }
        Ok(out)
    }
}

impl Drop for PartitionProbe<'_> {
    fn drop(&mut self) {
        for (_, lp) in self.loaded.drain() {
            self.budget.release_transient(lp.bytes);
        }
    }
}

/// Default [`BuildCache`] capacity in bytes.
pub const BUILD_CACHE_BYTES: usize = 64 << 20;

/// Fixed per-build charge covering the [`JoinBuild`] struct itself on top
/// of its bucket-table footprint.
const BUILD_BASE_COST: usize = 256;

/// Concurrent memo of hash-join build sides, keyed by (table, key
/// columns, pushed-down filters) and invalidated whenever the catalog
/// version moves (table or index DDL).  Built on the byte-bounded
/// [`ShardedLru`], so it is `Arc`-shared across `Processor` instances
/// (cloning the handle shares the cache) and bounded for long-lived
/// sessions: each build is charged its resident bucket-table footprint
/// and least-recently-used builds evict when the bound trips.  Repeated
/// queries skip re-enumerating and re-bucketing unchanged build sides;
/// hits surface as `cache_hits` in the operator's [`OpStats`].  The
/// cached builds are shared read-only (`Arc`) with each execution, which
/// still books `JoinBuild::reserved` against its
/// own budget — hit and miss runs make identical spill decisions.
#[derive(Clone)]
pub struct BuildCache {
    inner: Arc<xqjg_store::ShardedLru<String, JoinBuild>>,
}

impl Default for BuildCache {
    fn default() -> Self {
        BuildCache::new()
    }
}

impl BuildCache {
    /// A cache with the default byte capacity.
    pub fn new() -> Self {
        BuildCache::with_capacity(BUILD_CACHE_BYTES)
    }

    /// A cache bounded to `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        BuildCache {
            inner: Arc::new(xqjg_store::ShardedLru::new(bytes)),
        }
    }

    /// Number of lookups satisfied from the cache so far.
    pub fn hits(&self) -> usize {
        self.inner.hits()
    }

    /// Number of build-side lookups performed so far.
    pub fn lookups(&self) -> usize {
        self.inner.lookups()
    }

    /// Number of memoized build sides currently held.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Bytes currently charged against the capacity.
    pub fn bytes(&self) -> usize {
        self.inner.bytes()
    }

    /// Builds dropped (LRU eviction and version invalidation alike).
    pub fn evictions(&self) -> usize {
        self.inner.evictions()
    }

    /// Fetch the build for `key`, constructing it via `build` on a miss.
    /// Entries cached under a different catalog version never serve (the
    /// affected stripes drop lazily).  Returns the build and whether it
    /// was a cache hit.  Builds that spilled to disk are handed back but
    /// *not* memoized: their partition files are temp state of one
    /// execution, and pinning them would hold budget-sized bucket tables
    /// (or dead file handles) across queries.  A build that *fails*
    /// mid-construction surfaces its error without inserting anything —
    /// no poisoned or partial entry survives into the next lookup, which
    /// rebuilds from scratch.  Two sessions racing on one cold key may
    /// both build (the construction runs outside the stripe locks);
    /// builds are pure functions of key + catalog version, so either
    /// result is correct and last insert wins.
    fn get_or_build(
        &self,
        key: String,
        catalog_version: u64,
        build: impl FnOnce() -> Result<JoinBuild, ExecError>,
    ) -> Result<(Arc<JoinBuild>, bool), ExecError> {
        if let Some(b) = self.inner.get(catalog_version, &key) {
            return Ok((b, true));
        }
        let built = Arc::new(build()?);
        if !built.is_spilled() {
            self.inner.insert(
                catalog_version,
                key,
                built.clone(),
                BUILD_BASE_COST + built.reserved,
            );
        }
        Ok((built, false))
    }
}

// ---------------------------------------------------------------------
// Compiled expressions — every schema offset is resolved once per execution
// instead of once per row.
// ---------------------------------------------------------------------

/// An expression with alias slots and column offsets pre-resolved.
#[derive(Clone)]
enum CExpr {
    /// Literal value.
    Lit(Value),
    /// Column of a bound outer alias: slot into the stage's outer alias
    /// list and column offset in that alias's base table.
    Outer { slot: usize, col: usize },
    /// Column of the current stage's candidate row.
    Cur { col: usize },
    /// Numeric addition.
    Add(Box<CExpr>, Box<CExpr>),
}

/// A predicate over compiled expressions.
struct CPred {
    lhs: CExpr,
    op: SqlCmp,
    rhs: CExpr,
}

/// Compiled index probe bounds (the outer-dependent `IXSCAN` keys).
struct CBounds {
    eq: Vec<CExpr>,
    lower: Option<(CExpr, bool)>,
    upper: Option<(CExpr, bool)>,
}

/// One row of a columnar batch as an expression environment: the outer
/// tables, the batch's rid columns and the physical row index.
struct ColEnv<'a> {
    tables: &'a [&'a Table],
    cols: &'a [Vec<usize>],
    idx: usize,
}

const EMPTY_ENV: ColEnv<'static> = ColEnv {
    tables: &[],
    cols: &[],
    idx: 0,
};

/// Evaluate a compiled expression.  Column references borrow straight from
/// table storage — only computed expressions allocate.
fn ceval<'v>(e: &'v CExpr, env: &ColEnv<'v>, cur: Option<(&'v Table, usize)>) -> Cow<'v, Value> {
    match e {
        CExpr::Lit(v) => Cow::Borrowed(v),
        CExpr::Outer { slot, col } => {
            let rid = env.cols[*slot][env.idx];
            Cow::Borrowed(&env.tables[*slot].rows()[rid][*col])
        }
        CExpr::Cur { col } => {
            let (table, rid) = cur.expect("current row required");
            Cow::Borrowed(&table.rows()[rid][*col])
        }
        CExpr::Add(a, b) => Cow::Owned(ceval(a, env, cur).numeric_add(&ceval(b, env, cur))),
    }
}

/// Check a compiled predicate (SQL three-valued semantics: NULL fails).
#[inline]
fn cpred_holds(p: &CPred, env: &ColEnv<'_>, cur: Option<(&Table, usize)>) -> bool {
    let l = ceval(&p.lhs, env, cur);
    let r = ceval(&p.rhs, env, cur);
    match l.sql_cmp(&r) {
        Some(ord) => p.op.eval(ord),
        None => false,
    }
}

/// A leaf access predicate lowered onto the typed column images of the
/// base table.  `Scalar` keeps the interpreted [`CPred`] path (mixed-type
/// column, computed expression, or a literal the column image cannot
/// represent); the kernel variants become [`MaskTerm`]s of one fused
/// branch-free selection pass.  NULL-bearing columns carry their validity
/// mask: a cleared bit fails every comparison (SQL three-valued logic),
/// so the sentinel slot values never leak into results.
enum TypedPred<'a> {
    /// Fall back to the row-at-a-time compiled predicate.
    Scalar,
    /// `i64` column `op` integer literal.
    Int {
        vals: &'a [i64],
        validity: Option<&'a BitMask>,
        op: KernelCmp,
        rhs: i64,
    },
    /// Dictionary-coded string column `op` code boundary.  String order
    /// equals code order (the dictionary is sorted), so range predicates
    /// rewrite to boundary comparisons even for absent literals.
    Code {
        vals: &'a [u32],
        validity: Option<&'a BitMask>,
        op: KernelCmp,
        rhs: u32,
    },
    /// The predicate holds exactly where the column is non-NULL (e.g.
    /// `<> 'absent'` over a NULL-bearing column).
    Valid { validity: &'a BitMask },
    /// The predicate is constant over the whole column (e.g. `= 'absent'`
    /// over a column with no NULLs).
    Const(bool),
}

impl<'a> TypedPred<'a> {
    /// The fused-pass selection term of this lowering (`None` keeps the
    /// predicate on the interpreted path).
    fn term(&self) -> Option<MaskTerm<'a>> {
        match self {
            TypedPred::Scalar => None,
            TypedPred::Int {
                vals,
                validity,
                op,
                rhs,
            } => Some(MaskTerm::I64 {
                vals,
                validity: *validity,
                op: *op,
                rhs: *rhs,
            }),
            TypedPred::Code {
                vals,
                validity,
                op,
                rhs,
            } => Some(MaskTerm::Code {
                vals,
                validity: *validity,
                op: *op,
                rhs: *rhs,
            }),
            TypedPred::Valid { validity } => Some(MaskTerm::Valid { validity }),
            TypedPred::Const(v) => Some(MaskTerm::Const(*v)),
        }
    }
}

fn kcmp(op: SqlCmp) -> KernelCmp {
    match op {
        SqlCmp::Eq => KernelCmp::Eq,
        SqlCmp::Ne => KernelCmp::Ne,
        SqlCmp::Lt => KernelCmp::Lt,
        SqlCmp::Le => KernelCmp::Le,
        SqlCmp::Gt => KernelCmp::Gt,
        SqlCmp::Ge => KernelCmp::Ge,
    }
}

/// Lower one access predicate onto `base`'s typed columns, if its shape
/// (`cur.col op lit` or flipped) and the column image allow it.
fn compile_typed_pred<'a>(p: &CPred, base: &'a Table) -> TypedPred<'a> {
    let (col, op, lit) = match (&p.lhs, &p.rhs) {
        (CExpr::Cur { col }, CExpr::Lit(v)) => (*col, p.op, v),
        (CExpr::Lit(v), CExpr::Cur { col }) => (*col, p.op.flip(), v),
        _ => return TypedPred::Scalar,
    };
    match (base.typed().col(col), lit) {
        (Some(TypedColumn::Int { vals, validity }), Value::Int(rhs)) => TypedPred::Int {
            vals,
            validity: validity.as_ref(),
            op: kcmp(op),
            rhs: *rhs,
        },
        (
            Some(
                tc @ TypedColumn::Dict {
                    codes, validity, ..
                },
            ),
            Value::Str(s),
        ) => {
            let validity = validity.as_ref();
            let present = tc.code_of(s);
            let lower = tc.dict_boundary(s).expect("dict column has boundaries");
            let code = |op, rhs| TypedPred::Code {
                vals: codes,
                validity,
                op,
                rhs,
            };
            match op {
                SqlCmp::Eq => match present {
                    Some(c) => code(KernelCmp::Eq, c),
                    None => TypedPred::Const(false),
                },
                // `<> 'absent'` holds for every *non-NULL* row: with no
                // validity mask that is the whole column, otherwise
                // exactly the set bits of the mask.
                SqlCmp::Ne => match (present, validity) {
                    (Some(c), _) => code(KernelCmp::Ne, c),
                    (None, Some(validity)) => TypedPred::Valid { validity },
                    (None, None) => TypedPred::Const(true),
                },
                // Codes < lower  <=>  strings < s; codes >= lower + present
                // <=>  strings > s (`lower` counts strings strictly below
                // `s`, and `lower + 1` skips `s` itself when present).
                SqlCmp::Lt => code(KernelCmp::Lt, lower),
                SqlCmp::Ge => code(KernelCmp::Ge, lower),
                SqlCmp::Le => code(KernelCmp::Lt, lower + u32::from(present.is_some())),
                SqlCmp::Gt => code(KernelCmp::Ge, lower + u32::from(present.is_some())),
            }
        }
        _ => TypedPred::Scalar,
    }
}

/// Compile an expression for a stage: `cur_alias` columns become
/// [`CExpr::Cur`], bound outer alias columns become [`CExpr::Outer`].
fn compile_expr(
    e: &SqlExpr,
    cur_alias: &str,
    cur_table: &Table,
    outer_aliases: &[String],
    outer_tables: &[&Table],
) -> CExpr {
    match e {
        SqlExpr::Lit(v) => CExpr::Lit(v.clone()),
        SqlExpr::Col(c) => {
            if c.table == cur_alias {
                CExpr::Cur {
                    col: cur_table.schema().expect_index(&c.column),
                }
            } else {
                let slot = outer_aliases
                    .iter()
                    .position(|a| *a == c.table)
                    .unwrap_or_else(|| panic!("alias {:?} not bound", c.table));
                CExpr::Outer {
                    slot,
                    col: outer_tables[slot].schema().expect_index(&c.column),
                }
            }
        }
        SqlExpr::Add(a, b) => CExpr::Add(
            Box::new(compile_expr(
                a,
                cur_alias,
                cur_table,
                outer_aliases,
                outer_tables,
            )),
            Box::new(compile_expr(
                b,
                cur_alias,
                cur_table,
                outer_aliases,
                outer_tables,
            )),
        ),
    }
}

/// An integer expression lowered onto a stage's `i64` column images:
/// literals, bound outer columns, the candidate row's columns and sums of
/// them.  NLJOIN probe operands, computed containment checks and
/// [`PrefixRun`] bounds all evaluate through it, so a probe over integer
/// columns reads no [`Value`] row.  `Value` keeps an outer-only
/// subexpression the images cannot represent (a decimal literal, a mixed
/// `Int`/`Dec` column) on [`ceval`].
enum IntExpr<'a> {
    Lit(i64),
    Outer {
        slot: usize,
        vals: &'a [i64],
        validity: Option<&'a BitMask>,
    },
    Cur {
        vals: &'a [i64],
        validity: Option<&'a BitMask>,
    },
    Add(Box<IntExpr<'a>>, Box<IntExpr<'a>>),
    Value(CExpr),
}

/// The image slot `i`, or `None` when the validity mask marks it NULL.
#[inline]
fn image_at(vals: &[i64], validity: Option<&BitMask>, i: usize) -> Option<i64> {
    match validity {
        Some(m) if !m.get(i) => None,
        _ => Some(vals[i]),
    }
}

impl<'a> IntExpr<'a> {
    /// Lower `e` for a stage over `base`; `None` when it reads a
    /// candidate-row column that has no `i64` image.
    fn lower(e: &CExpr, base: &'a Table, outer_tables: &[&'a Table]) -> Option<IntExpr<'a>> {
        Some(match e {
            CExpr::Lit(Value::Int(k)) => IntExpr::Lit(*k),
            CExpr::Outer { slot, col } => {
                match outer_tables[*slot].typed().int_col_nullable(*col) {
                    Some((vals, validity)) => IntExpr::Outer {
                        slot: *slot,
                        vals,
                        validity,
                    },
                    None => IntExpr::Value(e.clone()),
                }
            }
            CExpr::Cur { col } => {
                let (vals, validity) = base.typed().int_col_nullable(*col)?;
                IntExpr::Cur { vals, validity }
            }
            CExpr::Add(a, b) => IntExpr::Add(
                Box::new(IntExpr::lower(a, base, outer_tables)?),
                Box::new(IntExpr::lower(b, base, outer_tables)?),
            ),
            CExpr::Lit(_) => IntExpr::Value(e.clone()),
        })
    }

    /// Does every leaf read an `i64` image or literal (no [`ceval`])?
    fn is_typed(&self) -> bool {
        match self {
            IntExpr::Lit(_) | IntExpr::Outer { .. } | IntExpr::Cur { .. } => true,
            IntExpr::Add(a, b) => a.is_typed() && b.is_typed(),
            IntExpr::Value(_) => false,
        }
    }

    /// The value for one outer row and candidate rid `cur` (required only
    /// when the expression reads the candidate row); `None` when it is not
    /// an integer — NULL, a decimal, an overflowing sum — and the caller
    /// falls back to [`ceval`] for this row.
    #[inline]
    fn eval(&self, env: &ColEnv<'_>, cur: Option<usize>) -> Option<i64> {
        match self {
            IntExpr::Lit(k) => Some(*k),
            IntExpr::Outer {
                slot,
                vals,
                validity,
            } => image_at(vals, *validity, env.cols[*slot][env.idx]),
            IntExpr::Cur { vals, validity } => {
                image_at(vals, *validity, cur.expect("candidate row required"))
            }
            IntExpr::Add(a, b) => a.eval(env, cur)?.checked_add(b.eval(env, cur)?),
            IntExpr::Value(e) => match ceval(e, env, None).as_ref() {
                Value::Int(k) => Some(*k),
                _ => None,
            },
        }
    }
}

/// One NLJOIN probe predicate kernelized over the inner column's `i64`
/// image: `cur.col op <outer-only expression>` (or flipped).  The rhs is
/// evaluated once per probe from the outer alias's image; an integer
/// result runs the compare kernel over the probe's candidate rids.  A
/// non-integer result re-evaluates the source predicate's outer side
/// (`pred` indexes the stage's predicate list) through [`ceval`]: NULL
/// fails the whole probe, anything else interprets the predicate for that
/// probe.
struct ProbeTerm<'a> {
    vals: &'a [i64],
    validity: Option<&'a BitMask>,
    op: KernelCmp,
    rhs: IntExpr<'a>,
    /// Index of the source predicate in the stage's list (scalar fallback).
    pred: usize,
}

/// An integer predicate whose operands read the candidate row through
/// computed expressions (`outer.pre <= cur.pre + cur.size`,
/// `cur.level + 1 = outer.level`): checked per candidate rid over the
/// images.  A row whose operands are not both integers falls back to
/// [`cpred_holds`] on the source predicate (`pred`).
struct IntPred<'a> {
    lhs: IntExpr<'a>,
    op: SqlCmp,
    rhs: IntExpr<'a>,
    pred: usize,
}

/// The NLJOIN lowering of one inner-side predicate list, split by what
/// each predicate needs: `static_terms` compare against constants (no
/// outer row required), `dynamic` terms re-resolve their rhs per probe and
/// join one fused mask pass, `computed` integer predicates are checked per
/// candidate rid, and `scalar` indexes the predicates left to the
/// interpreted path (strings, decimals and other non-`i64` operands).
#[derive(Default)]
struct NlSplit<'a> {
    static_terms: Vec<MaskTerm<'a>>,
    dynamic: Vec<ProbeTerm<'a>>,
    computed: Vec<IntPred<'a>>,
    scalar: Vec<usize>,
}

impl NlSplit<'_> {
    fn is_empty(&self) -> bool {
        self.static_terms.is_empty() && self.dynamic.is_empty() && self.computed.is_empty()
    }
}

/// Does the expression avoid the current stage's candidate row (literals
/// and bound outer columns only)?
fn outer_only(e: &CExpr) -> bool {
    match e {
        CExpr::Lit(_) | CExpr::Outer { .. } => true,
        CExpr::Cur { .. } => false,
        CExpr::Add(a, b) => outer_only(a) && outer_only(b),
    }
}

/// Lower one predicate to an NLJOIN [`ProbeTerm`], if its shape
/// (`cur.col op outer-only-expr` or flipped) and the column image allow.
fn compile_probe_term<'a>(
    p: &CPred,
    pi: usize,
    base: &'a Table,
    outer_tables: &[&'a Table],
) -> Option<ProbeTerm<'a>> {
    let (col, op, rhs) = match (&p.lhs, &p.rhs) {
        (CExpr::Cur { col }, r) if outer_only(r) => (*col, p.op, r),
        (l, CExpr::Cur { col }) if outer_only(l) => (*col, p.op.flip(), l),
        _ => return None,
    };
    let (vals, validity) = base.typed().int_col_nullable(col)?;
    Some(ProbeTerm {
        vals,
        validity,
        op: kcmp(op),
        rhs: IntExpr::lower(rhs, base, outer_tables)?,
        pred: pi,
    })
}

/// Lower one predicate to a per-rid [`IntPred`], if both sides are integer
/// expressions over `i64` images and literals.
fn compile_int_pred<'a>(
    p: &CPred,
    pi: usize,
    base: &'a Table,
    outer_tables: &[&'a Table],
) -> Option<IntPred<'a>> {
    let lhs = IntExpr::lower(&p.lhs, base, outer_tables)?;
    let rhs = IntExpr::lower(&p.rhs, base, outer_tables)?;
    (lhs.is_typed() && rhs.is_typed()).then_some(IntPred {
        lhs,
        op: p.op,
        rhs,
        pred: pi,
    })
}

/// Split an NLJOIN inner-side predicate list into its kernel lowerings.
fn split_nl_preds<'a>(preds: &[CPred], base: &'a Table, outer_tables: &[&'a Table]) -> NlSplit<'a> {
    let mut split = NlSplit::default();
    for (pi, p) in preds.iter().enumerate() {
        if let Some(t) = compile_typed_pred(p, base).term() {
            split.static_terms.push(t);
        } else if let Some(t) = compile_probe_term(p, pi, base, outer_tables) {
            split.dynamic.push(t);
        } else if let Some(t) = compile_int_pred(p, pi, base, outer_tables) {
            split.computed.push(t);
        } else {
            split.scalar.push(pi);
        }
    }
    split
}

/// One kernelized hash key: the outer side's gatherable image and the
/// inner side's comparable image.  Probe hashes chain through
/// [`hash_keys_typed`] bit-identically to [`hash_values`] over the
/// corresponding `Value`s, so bucket lookups, Grace partition routing and
/// [`BuildCache`] reuse are unchanged; NULL outer keys hash to `None` and
/// never probe (the build side skipped NULL keys symmetrically).
enum KeyImage<'a> {
    /// `i64` = `i64` equijoin key.
    Int {
        slot: usize,
        outer: &'a [i64],
        outer_validity: Option<&'a BitMask>,
        inner: &'a [i64],
    },
    /// String = string equijoin key over two dictionary images.  Hashes
    /// chain the *outer* dictionary's string; collisions resolve by
    /// translating the outer code into the inner dictionary (`xlat`,
    /// `-1` = the outer string does not occur on the inner side).
    Str {
        slot: usize,
        outer_codes: &'a [u32],
        outer_dict: &'a [String],
        outer_validity: Option<&'a BitMask>,
        inner_codes: &'a [u32],
        xlat: Vec<i64>,
    },
}

impl KeyImage<'_> {
    fn slot(&self) -> usize {
        match self {
            KeyImage::Int { slot, .. } | KeyImage::Str { slot, .. } => *slot,
        }
    }

    fn outer_validity(&self) -> Option<&BitMask> {
        match self {
            KeyImage::Int { outer_validity, .. } | KeyImage::Str { outer_validity, .. } => {
                *outer_validity
            }
        }
    }
}

/// One hash key's gathered outer values for a probe batch.
enum GatheredKey {
    I64(Vec<i64>),
    Code(Vec<u32>),
}

/// A [`Stage`] with every predicate, hash key and probe bound compiled.
/// Borrows only from the plan and the database (never from `Stage`), so it
/// lives alongside the stages inside [`ExecCtx`].
struct CStage<'a> {
    base: &'a Table,
    access: &'a Access,
    /// Operator label as EXPLAIN prints it.
    label: String,
    /// B-tree of an `IndexScan` access, pre-resolved.
    tree: Option<&'a xqjg_store::BPlusTree>,
    /// Compiled probe bounds of an `IndexScan` access.
    cbounds: Option<CBounds>,
    /// Compiled access-level predicates: the pushed-down filters of a
    /// `TableScan`, or the sargable residuals of an `IndexScan`.
    access_preds: Vec<CPred>,
    /// Kernel lowerings of `access_preds` (aligned; `Scalar` where the
    /// operands have no typed image).
    typed_preds: Vec<TypedPred<'a>>,
    /// Compiled join-level residual predicates.
    residual: Vec<CPred>,
    /// NLJOIN kernel split of `access_preds` (empty for leaf/hash
    /// stages).
    nl_access: NlSplit<'a>,
    /// NLJOIN kernel split of `residual`.
    nl_residual: NlSplit<'a>,
    /// Compiled hash keys: (outer expression, inner column offset).
    hash_keys: Vec<(CExpr, usize)>,
    /// Kernelized hash-key images, present only when *every* key is a
    /// plain outer column whose image type matches the inner column's
    /// ([`KeyImage`] per key — `i64` or dictionary string, NULL-bearing
    /// or not).  Any other shape (computed key, mixed `Int`/`Dec` column,
    /// type-mismatched sides) keeps the scalar [`Value`] path, which is
    /// the semantics of record for cross-type equality.
    typed_keys: Option<Vec<KeyImage<'a>>>,
    /// Base tables of the bound outer aliases (slot order).
    outer_tables: Vec<&'a Table>,
    /// Set when this NLJOIN stage's probes may search a [`PrefixRun`].
    run: Option<RunSpec<'a>>,
}

/// An NLJOIN `IndexScan` stage whose probes all read one memoized run of
/// index entries instead of walking the B-tree.
struct RunSpec<'a> {
    db: &'a Database,
    index: &'a str,
    shape: RunShape<'a>,
}

enum RunShape<'a> {
    /// The equality prefix is all literals and there is at least one range
    /// bound: every probe reads the prefix's [`PrefixRun`] and
    /// binary-searches its integer image.  The range bounds are lowered to
    /// [`IntExpr`]s once, at compile time.
    Prefix {
        prefix: Vec<Value>,
        lower: Option<(IntExpr<'a>, bool)>,
        upper: Option<(IntExpr<'a>, bool)>,
    },
    /// The bounds are equality-only, one term is a column of an outer
    /// alias over the stage's own table and the rest are literals, and the
    /// index column it binds has a dictionary image: the outer row's code
    /// in that image is a key of the terms' [`CodeRun`] as it stands.
    Coded {
        /// The equality terms, `None` at the outer column's position.
        terms: Vec<Option<Value>>,
        /// Outer alias slot and its column's code image (the inner's own).
        slot: usize,
        codes: &'a [u32],
        validity: Option<&'a BitMask>,
    },
}

impl<'a> RunSpec<'a> {
    /// The run shape of an NLJOIN stage over `index`, if any.
    fn compile(
        db: &'a Database,
        index: &'a str,
        cb: &CBounds,
        stage: &Stage<'a>,
    ) -> Option<RunSpec<'a>> {
        let literal = |e: &CExpr| match e {
            CExpr::Lit(v) if !v.is_null() => Some(v.clone()),
            _ => None,
        };
        let shape = if cb.lower.is_some() || cb.upper.is_some() {
            // Probe bounds never read the candidate row, so they lower.
            let int_bound = |b: &Option<(CExpr, bool)>| {
                b.as_ref().map(|(e, inc)| {
                    let e = IntExpr::lower(e, stage.base, &stage.outer_tables);
                    (e.expect("probe bounds are outer-only"), *inc)
                })
            };
            RunShape::Prefix {
                prefix: cb.eq.iter().map(literal).collect::<Option<_>>()?,
                lower: int_bound(&cb.lower),
                upper: int_bound(&cb.upper),
            }
        } else {
            let mut open = None;
            let mut terms = Vec::with_capacity(cb.eq.len());
            for (i, e) in cb.eq.iter().enumerate() {
                match e {
                    CExpr::Outer { slot, col } if open.is_none() => {
                        open = Some((i, *slot, *col));
                        terms.push(None);
                    }
                    e => terms.push(Some(literal(e)?)),
                }
            }
            let (pos, slot, col) = open?;
            // The outer code is a key of the run only when it is a code of
            // the same image: the same column of the same table.
            let key_col = &db.index(index)?.def.key_columns[pos];
            if !std::ptr::eq(stage.outer_tables[slot], stage.base)
                || stage.base.schema().index_of(key_col) != Some(col)
            {
                return None;
            }
            let (codes, _, validity) = stage.base.typed().col(col)?.as_dict_nullable()?;
            RunShape::Coded {
                terms,
                slot,
                codes,
                validity,
            }
        };
        Some(RunSpec { db, index, shape })
    }
}

fn compile_stage<'a>(index: usize, stage: &Stage<'a>, db: &'a Database) -> CStage<'a> {
    let cc = |e: &SqlExpr| {
        compile_expr(
            e,
            stage.alias,
            stage.base,
            &stage.outer_aliases,
            &stage.outer_tables,
        )
    };
    let cp = |p: &SqlPredicate| CPred {
        lhs: cc(&p.lhs),
        op: p.op,
        rhs: cc(&p.rhs),
    };
    let (label, tree, cbounds, access_preds) = match stage.access {
        Access::TableScan { preds } => {
            let label = if index == 0 {
                format!("TBSCAN({})", stage.alias)
            } else {
                String::new()
            };
            (label, None, None, preds.iter().map(cp).collect::<Vec<_>>())
        }
        Access::IndexScan {
            index: ix_name,
            bounds,
            residual,
        } => {
            let label = if index == 0 {
                format!("IXSCAN({} ix={ix_name})", stage.alias)
            } else {
                String::new()
            };
            let tree = &db.index(ix_name).expect("index registered").tree;
            let cbounds = CBounds {
                eq: bounds.eq.iter().map(|(_, e)| cc(e)).collect(),
                lower: bounds.lower.as_ref().map(|(e, inc)| (cc(e), *inc)),
                upper: bounds.upper.as_ref().map(|(e, inc)| (cc(e), *inc)),
            };
            (
                label,
                Some(tree),
                Some(cbounds),
                residual.iter().map(cp).collect(),
            )
        }
    };
    let label = if index == 0 {
        label
    } else if stage.hash_keys.is_empty() {
        format!("NLJOIN({})", stage.alias)
    } else {
        format!("HSJOIN({})", stage.alias)
    };
    let typed_preds: Vec<TypedPred<'a>> = access_preds
        .iter()
        .map(|p| compile_typed_pred(p, stage.base))
        .collect();
    let hash_keys: Vec<(CExpr, usize)> = stage
        .hash_keys
        .iter()
        .map(|(e, col)| (cc(e), stage.base.schema().expect_index(col)))
        .collect();
    let typed_keys = if !hash_keys.is_empty() {
        hash_keys
            .iter()
            .map(|(e, col)| {
                let CExpr::Outer { slot, col: ocol } = e else {
                    return None;
                };
                let outer_tc = stage.outer_tables[*slot].typed().col(*ocol)?;
                let inner_tc = stage.base.typed().col(*col)?;
                match (outer_tc, inner_tc) {
                    (
                        TypedColumn::Int {
                            vals: outer,
                            validity,
                        },
                        TypedColumn::Int { vals: inner, .. },
                    ) => Some(KeyImage::Int {
                        slot: *slot,
                        outer,
                        outer_validity: validity.as_ref(),
                        inner,
                    }),
                    (
                        TypedColumn::Dict {
                            codes: outer_codes,
                            dict: outer_dict,
                            validity,
                        },
                        TypedColumn::Dict {
                            codes: inner_codes,
                            dict: inner_dict,
                            ..
                        },
                    ) => {
                        // Outer code -> inner code (both dictionaries are
                        // sorted, so a binary search per outer entry).
                        let xlat: Vec<i64> = outer_dict
                            .iter()
                            .map(|s| match inner_dict.binary_search(s) {
                                Ok(c) => c as i64,
                                Err(_) => -1,
                            })
                            .collect();
                        Some(KeyImage::Str {
                            slot: *slot,
                            outer_codes,
                            outer_dict,
                            outer_validity: validity.as_ref(),
                            inner_codes,
                            xlat,
                        })
                    }
                    _ => None,
                }
            })
            .collect()
    } else {
        None
    };
    let residual: Vec<CPred> = stage.residual.iter().map(cp).collect();
    let nested_loop = index > 0 && hash_keys.is_empty();
    let run = match (stage.access, &cbounds) {
        (Access::IndexScan { index, .. }, Some(cb)) if nested_loop => {
            RunSpec::compile(db, index, cb, stage)
        }
        _ => None,
    };
    // NLJOIN stages (non-leaf, no hash keys) additionally split their
    // predicate lists into static / per-probe / per-rid / scalar lowerings.
    let (nl_access, nl_residual) = if nested_loop {
        (
            split_nl_preds(&access_preds, stage.base, &stage.outer_tables),
            split_nl_preds(&residual, stage.base, &stage.outer_tables),
        )
    } else {
        (NlSplit::default(), NlSplit::default())
    };
    CStage {
        base: stage.base,
        access: stage.access,
        label,
        tree,
        cbounds,
        access_preds,
        typed_preds,
        residual,
        nl_access,
        nl_residual,
        hash_keys,
        typed_keys,
        outer_tables: stage.outer_tables.clone(),
        run,
    }
}

/// Evaluate compiled probe bounds against one outer row into their
/// canonical resolved form (the compiled twin of [`resolve_bounds`]).
fn resolve_cbounds(bounds: &CBounds, env: &ColEnv<'_>) -> ResolvedBounds {
    let eq_vals: Vec<Value> = bounds
        .eq
        .iter()
        .map(|e| ceval(e, env, None).into_owned())
        .collect();
    let (lower, lower_inc) = match &bounds.lower {
        Some((e, inc)) => {
            let mut k = eq_vals.clone();
            k.push(ceval(e, env, None).into_owned());
            (k, *inc)
        }
        None => (eq_vals.clone(), true),
    };
    let (upper, upper_inc) = match &bounds.upper {
        Some((e, inc)) => {
            let mut k = eq_vals.clone();
            k.push(ceval(e, env, None).into_owned());
            (k, *inc)
        }
        None => (eq_vals, true),
    };
    ResolvedBounds {
        lower,
        lower_inc,
        upper,
        upper_inc,
    }
}

/// Perform (or recall) the B-tree range scan described by compiled probe
/// bounds for one outer row ([`resolve_cbounds`] + [`cached_tree_range`]),
/// replacing the contents of `out`.
fn cindex_range(
    tree: &xqjg_store::BPlusTree,
    bounds: &CBounds,
    env: &ColEnv<'_>,
    index: &str,
    ctx: PostingsCtx<'_>,
    out: &mut Vec<usize>,
) {
    let rb = resolve_cbounds(bounds, env);
    out.clear();
    if rb.binds_null() {
        return;
    }
    match ctx {
        Some(_) => out.extend_from_slice(&cached_tree_range(tree, rb, index, ctx)),
        None => tree.range_rids_into(rb.lower_bound(), rb.upper_bound(), out),
    }
}

/// One operator instance's run probe: the memoized run of the stage's
/// [`RunSpec`], searched with the spec's lowered range bounds or the outer
/// row's dictionary code.
enum RunProbe<'a> {
    Prefix {
        run: Arc<PrefixRun>,
        lower: &'a Option<(IntExpr<'a>, bool)>,
        upper: &'a Option<(IntExpr<'a>, bool)>,
    },
    Coded {
        run: Arc<CodeRun>,
        slot: usize,
        codes: &'a [u32],
        validity: Option<&'a BitMask>,
    },
}

impl<'a> RunProbe<'a> {
    /// `None` when the stage is not eligible or its run does not exist
    /// (a non-integer range column under the prefix).
    fn resolve(stage: &'a CStage<'a>) -> Option<RunProbe<'a>> {
        let spec = stage.run.as_ref()?;
        Some(match &spec.shape {
            RunShape::Prefix {
                prefix,
                lower,
                upper,
            } => RunProbe::Prefix {
                run: spec.db.prefix_run(spec.index, prefix)?,
                lower,
                upper,
            },
            RunShape::Coded {
                terms,
                slot,
                codes,
                validity,
            } => RunProbe::Coded {
                run: spec.db.code_run(spec.index, terms)?,
                slot: *slot,
                codes,
                validity: *validity,
            },
        })
    }

    /// The probe's rids — exactly the B-tree range scan's, in its order —
    /// or `None` when a range bound is not an integer for this outer row.
    /// A NULL outer code matches nothing (SQL equality).
    fn rids(&self, env: &ColEnv<'_>) -> Option<&[usize]> {
        match self {
            RunProbe::Prefix { run, lower, upper } => {
                let bound = |b: &Option<(IntExpr<'_>, bool)>| {
                    Some(match b {
                        None => Bound::Unbounded,
                        Some((e, true)) => Bound::Included(e.eval(env, None)?),
                        Some((e, false)) => Bound::Excluded(e.eval(env, None)?),
                    })
                };
                Some(run.range(bound(lower)?, bound(upper)?))
            }
            RunProbe::Coded {
                run,
                slot,
                codes,
                validity,
            } => {
                let rid = env.cols[*slot][env.idx];
                Some(match validity {
                    Some(m) if !m.get(rid) => &[],
                    _ => run.rids_of(codes[rid]),
                })
            }
        }
    }
}

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
        retries: cfg.spill_retries,
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
    let leaf = &stages[0];
    let domain = match leaf.access {
        Access::TableScan { .. } => LeafDomain::Rids(leaf.base.len()),
        Access::IndexScan { index, bounds, .. } => {
            let ix = db.index(index).expect("index registered");
            let rb = resolve_bounds(bounds, leaf.alias, None);
            let rids = cached_tree_range(&ix.tree, rb, index, postings_ctx);
            pre_agg.index_rows += rids.len();
            LeafDomain::Postings(rids)
        }
    };
    let mut build_hits = vec![false; stages.len()];
    // Every booking of this execution — the resident build footprints —
    // goes through one guard, so early error returns release it all
    // without bespoke cleanup code.
    let mut booked = Booked::new(budget.clone());
    let mut builds: Vec<Option<Arc<JoinBuild>>> = Vec::with_capacity(stages.len());
    for (i, s) in stages.iter().enumerate() {
        if i == 0 || s.hash_keys.is_empty() {
            builds.push(None);
            continue;
        }
        let (build, hit) = match build_cache {
            Some(c) => c.get_or_build(JoinBuild::cache_key(s), db.version(), || {
                JoinBuild::build(s, db, &spill)
            })?,
            None => (Arc::new(JoinBuild::build(s, db, &spill)?), false),
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
    sorter.set_retries(cfg.spill_retries);
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
                let table = alias_table(&plan.root, alias, db);
                columns.extend(table.schema().columns().iter().cloned());
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

/// The budgeted sort-based DISTINCT (see `run_with_caches`): `pass1` holds
/// pass-1 records keyed by the select row; survivors re-sort by their
/// order key (`kw` columns) under their original sequence.
fn sort_distinct_two_pass(
    pass1: ExternalSorter,
    kw: usize,
    spill: &SpillCtx,
) -> Result<SortedRows, ExecError> {
    // Pass 1: rows come back grouped by select row (ties in original
    // sequence order); adjacent duplicates drop with one carried row.
    let pass1 = pass1.finish()?;
    let (runs1, bytes1, typed1, retries1) = (
        pass1.spill_runs,
        pass1.spill_bytes,
        pass1.typed_rows,
        pass1.retries,
    );
    let mut resort = ExternalSorter::new(spill.budget.clone(), spill.dir.clone());
    resort.set_retries(spill.retries);
    resort.set_interrupt(spill.interrupt.clone());
    let mut prev_sel: Option<Row> = None;
    for payload in pass1 {
        let mut payload = payload?;
        let sel: Row = payload.split_off(1 + kw);
        let key: Row = payload.split_off(1);
        if prev_sel.as_ref() == Some(&sel) {
            continue;
        }
        let oseq = match payload[0] {
            Value::Int(s) => s as u64,
            _ => unreachable!("pass-1 payload starts with the sequence"),
        };
        prev_sel = Some(sel.clone());
        // Pass 2: survivors re-sort by (order key, original sequence)
        // — the explicit sequence reproduces first-occurrence tie order.
        resort.push_with_seq(oseq, key, sel)?;
    }
    let mut sorted = resort.finish()?;
    sorted.spill_runs += runs1;
    sorted.spill_bytes += bytes1;
    sorted.typed_rows += typed1;
    sorted.retries += retries1;
    Ok(sorted)
}

// ---------------------------------------------------------------------
// The plan tail — DISTINCT, ORDER BY, RETURN — over gathered columns.
// ---------------------------------------------------------------------

/// Where one tail column's values come from, resolved once per execution.
enum TailSource<'a> {
    /// Column `col` of the alias in batch column `slot`, which has an
    /// integer image: rows gather `i64`s straight out of it (plus its
    /// validity bits when the column bears NULLs).
    I64 {
        slot: usize,
        col: usize,
        vals: &'a [i64],
        validity: Option<&'a BitMask>,
    },
    /// Everything else — strings, decimals, mixed columns, computed
    /// expressions — evaluated to `Value`s through the compiled
    /// expression.
    Value(CExpr),
}

impl TailSource<'_> {
    /// Does this source read exactly column `col` of the alias in `slot`?
    fn reads(&self, slot: usize, col: usize) -> bool {
        match self {
            TailSource::I64 {
                slot: s, col: c, ..
            } => (*s, *c) == (slot, col),
            TailSource::Value(CExpr::Outer { slot: s, col: c }) => (*s, *c) == (slot, col),
            TailSource::Value(_) => false,
        }
    }
}

/// The plan tail's columns: every select item (`alias.*` expanded to its
/// columns) and every order column is an index into `sources`, and a
/// column named more than once is gathered once.
struct TailSpec<'a> {
    sources: Vec<TailSource<'a>>,
    select: Vec<usize>,
    order: Vec<usize>,
}

impl<'a> TailSpec<'a> {
    /// Resolve the tail of `plan` against the stage aliases and their base
    /// tables (batch column order).
    fn resolve(plan: &PhysPlan, aliases: &[String], tables: &[&'a Table]) -> TailSpec<'a> {
        let mut spec = TailSpec {
            sources: Vec::new(),
            select: Vec::new(),
            order: Vec::new(),
        };
        // No stage is current here: every column compiles to an outer one.
        let cc = |e: &SqlExpr| compile_expr(e, "", tables[0], aliases, tables);
        for item in &plan.select {
            match item {
                SelectItem::Star(alias) => {
                    let slot = aliases
                        .iter()
                        .position(|a| a == alias)
                        .unwrap_or_else(|| panic!("alias {alias:?} not bound"));
                    for col in 0..tables[slot].schema().len() {
                        let i = spec.source(CExpr::Outer { slot, col }, tables);
                        spec.select.push(i);
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    let i = spec.source(cc(expr), tables);
                    spec.select.push(i);
                }
            }
        }
        for c in &plan.order_by {
            let i = spec.source(cc(&SqlExpr::Col(c.clone())), tables);
            spec.order.push(i);
        }
        spec
    }

    /// The index of the source computing `e`, added unless `e` is a column
    /// some source already reads.
    fn source(&mut self, e: CExpr, tables: &[&'a Table]) -> usize {
        if let CExpr::Outer { slot, col } = e {
            if let Some(i) = self.sources.iter().position(|s| s.reads(slot, col)) {
                return i;
            }
            if let Some((vals, validity)) = tables[slot].typed().int_col_nullable(col) {
                self.sources.push(TailSource::I64 {
                    slot,
                    col,
                    vals,
                    validity,
                });
                return self.sources.len() - 1;
            }
        }
        self.sources.push(TailSource::Value(e));
        self.sources.len() - 1
    }

    /// Empty columns, one per source.
    fn columns(&self) -> Vec<TailCol> {
        self.sources
            .iter()
            .map(|s| match s {
                TailSource::I64 { validity, .. } => TailCol::I64 {
                    vals: Vec::new(),
                    validity: validity.map(|_| BitMask::new()),
                },
                TailSource::Value(_) => TailCol::Value(Vec::new()),
            })
            .collect()
    }

    /// Append the live rows of `batch` to `cols` (aligned with `sources`).
    fn gather(&self, batch: &ColumnBatch, tables: &[&Table], cols: &mut [TailCol]) {
        for (src, col) in self.sources.iter().zip(cols) {
            match (src, col) {
                (
                    TailSource::I64 {
                        slot,
                        vals,
                        validity,
                        ..
                    },
                    TailCol::I64 {
                        vals: out,
                        validity: out_validity,
                    },
                ) => {
                    let rids = batch.col(*slot);
                    match batch.sel() {
                        None => gather_i64(vals, rids, out),
                        Some(sel) => out.extend(sel.iter().map(|&i| vals[rids[i as usize]])),
                    }
                    if let (Some(m), Some(out_m)) = (validity, out_validity) {
                        for i in 0..batch.live() {
                            out_m.push(m.get(rids[batch.phys(i)]));
                        }
                    }
                }
                (TailSource::Value(e), TailCol::Value(out)) => {
                    for i in 0..batch.live() {
                        let env = ColEnv {
                            tables,
                            cols: batch.cols(),
                            idx: batch.phys(i),
                        };
                        out.push(ceval(e, &env, None).into_owned());
                    }
                }
                _ => unreachable!("tail columns are built from their sources"),
            }
        }
    }
}

/// Row `i` of the tail columns `which` (indices into `cols`) as `Value`s.
fn values_at(cols: &[TailCol], which: &[usize], i: usize) -> Row {
    which.iter().map(|&c| cols[c].value(i)).collect()
}

/// One tail column's gathered values: one batch's under a budget, else
/// the whole execution's.
enum TailCol {
    /// Integers; a cleared validity bit is a NULL (its slot holds the
    /// image's sentinel).
    I64 {
        vals: Vec<i64>,
        validity: Option<BitMask>,
    },
    Value(Vec<Value>),
}

/// The NULL slot's contribution to a row hash.
const NULL_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of the row hash (FxHash's combine).
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl TailCol {
    #[inline]
    fn is_valid(validity: &Option<BitMask>, i: usize) -> bool {
        validity.as_ref().is_none_or(|m| m.get(i))
    }

    /// Row `i` as a `Value`.
    fn value(&self, i: usize) -> Value {
        match self {
            TailCol::I64 { vals, validity } if Self::is_valid(validity, i) => Value::Int(vals[i]),
            TailCol::I64 { .. } => Value::Null,
            TailCol::Value(vals) => vals[i].clone(),
        }
    }

    /// Rows `a` and `b` in `Value::cmp` order (NULL first).
    #[inline]
    fn cmp_at(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            TailCol::I64 { vals, validity } => {
                match (Self::is_valid(validity, a), Self::is_valid(validity, b)) {
                    (true, true) => vals[a].cmp(&vals[b]),
                    (va, vb) => va.cmp(&vb),
                }
            }
            TailCol::Value(vals) => vals[a].cmp(&vals[b]),
        }
    }

    /// Fold every row's value into its running row hash.  Equal values
    /// hash equally (`Value`'s `Hash` agrees with its `Eq`).
    fn hash_into(&self, hashes: &mut [u64]) {
        match self {
            TailCol::I64 { vals, validity } => {
                for (i, (h, &v)) in hashes.iter_mut().zip(vals).enumerate() {
                    let x = if Self::is_valid(validity, i) {
                        v as u64
                    } else {
                        NULL_HASH
                    };
                    *h = mix(*h, x);
                }
            }
            TailCol::Value(vals) => {
                for (h, v) in hashes.iter_mut().zip(vals) {
                    *h = mix(*h, hash_values(std::iter::once(v)));
                }
            }
        }
    }

    /// Is every value of `rows` an integer or NULL — the keys the
    /// sorter's typed finish accepts?
    fn int_or_null(&self, rows: &[u32]) -> bool {
        match self {
            TailCol::I64 { .. } => true,
            TailCol::Value(vals) => rows
                .iter()
                .all(|&r| matches!(vals[r as usize], Value::Int(_) | Value::Null)),
        }
    }
}

/// The unbudgeted plan tail over the `n` gathered rows of `cols`.  DISTINCT
/// keeps the first occurrence of each select tuple (NULL equals NULL, as in
/// a `HashSet<Row>`); ORDER BY is a stable sort by the order columns, NULL
/// first, so ties stay in arrival order — the `(key, seq)` order of the
/// [`ExternalSorter`].  `Value` rows are built for the emitted rows only.
/// Also returns the SORT's `kernel_rows`: the rows sorted when every order
/// value is an integer or NULL, exactly what the sorter's typed finish
/// reports.
fn finish_tail(
    spec: &TailSpec<'_>,
    cols: &[TailCol],
    n: usize,
    distinct: bool,
) -> (Vec<Row>, usize) {
    let mut rows: Vec<u32> = if distinct {
        let select: Vec<&TailCol> = spec.select.iter().map(|&c| &cols[c]).collect();
        first_occurrences(&select, n)
    } else {
        (0..n as u32).collect()
    };
    let order: Vec<&TailCol> = spec.order.iter().map(|&c| &cols[c]).collect();
    let mut kernel_rows = 0;
    if !order.is_empty() {
        rows = sort_rows(&order, rows);
        if !rows.is_empty() && order.iter().all(|c| c.int_or_null(&rows)) {
            kernel_rows = rows.len();
        }
    }
    let out = rows
        .iter()
        .map(|&r| values_at(cols, &spec.select, r as usize))
        .collect();
    (out, kernel_rows)
}

/// The rows (ascending) whose tuple over `cols` did not occur earlier:
/// open addressing over precomputed row hashes, no per-row allocation.
/// Colliding tuples cost probe steps, never answers — every candidate is
/// compared column by column.
fn first_occurrences(cols: &[&TailCol], n: usize) -> Vec<u32> {
    let mut hashes = vec![0u64; n];
    for c in cols {
        c.hash_into(&mut hashes);
    }
    // At least twice as many slots as rows; a slot holds a row index.
    let bits = (2 * n.max(1)).next_power_of_two().trailing_zeros();
    let mask = (1usize << bits) - 1;
    let mut slots = vec![u32::MAX; mask + 1];
    let mut keep = Vec::new();
    'rows: for (i, &h) in hashes.iter().enumerate() {
        let mut pos = (h >> (64 - bits)) as usize;
        loop {
            match slots[pos] {
                u32::MAX => {
                    slots[pos] = i as u32;
                    keep.push(i as u32);
                    continue 'rows;
                }
                s if hashes[s as usize] == h
                    && cols.iter().all(|c| c.cmp_at(s as usize, i).is_eq()) =>
                {
                    continue 'rows
                }
                _ => pos = (pos + 1) & mask,
            }
        }
    }
    keep
}

/// Stable sort of `rows` by the order columns.  All-integer keys go
/// through the permutation-sort kernels over compact key columns; any
/// `Value` column sorts with the per-column comparator.
fn sort_rows(order: &[&TailCol], mut rows: Vec<u32>) -> Vec<u32> {
    if order.iter().any(|c| matches!(c, TailCol::Value(_))) {
        rows.sort_by(|&a, &b| {
            order
                .iter()
                .map(|c| c.cmp_at(a as usize, b as usize))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        return rows;
    }
    let mut keys: Vec<Vec<i64>> = Vec::with_capacity(order.len());
    let mut masks: Vec<Option<BitMask>> = Vec::with_capacity(order.len());
    for c in order {
        let TailCol::I64 { vals, validity } = c else {
            unreachable!("checked above")
        };
        keys.push(rows.iter().map(|&r| vals[r as usize]).collect());
        masks.push(
            validity
                .as_ref()
                .map(|m| BitMask::from_bools(rows.iter().map(|&r| m.get(r as usize)))),
        );
    }
    let perm = if masks.iter().all(Option::is_none) {
        sort_permutation_i64(&keys, rows.len())
    } else {
        let sort_keys: Vec<SortKey<'_>> = keys
            .iter()
            .zip(&masks)
            .map(|(k, m)| SortKey {
                vals: SortVals::I64(k),
                validity: m.as_ref(),
            })
            .collect();
        sort_permutation_typed(&sort_keys, rows.len())
    };
    perm.iter().map(|&p| rows[p as usize]).collect()
}

// ---------------------------------------------------------------------
// The columnar operator repertoire.
// ---------------------------------------------------------------------

/// Columnar scan leaf: fills one rid column directly from the leaf domain
/// (a bulk extend, not a per-tuple push), then evaluates each pushed-down
/// predicate column-at-a-time into the selection vector.  Each call scans
/// `cap` domain positions, and each scan first polls the interrupt, so a
/// cancelled or timed-out query stops within one batch of leaf work.
struct ColScanLeaf<'a> {
    stage: &'a CStage<'a>,
    domain: &'a LeafDomain,
    /// Next domain position to scan.
    pos: usize,
    cap: usize,
    /// Rows surviving the pushed-down filters (TBSCAN accounting).
    scan_rows: usize,
    /// Every typed-lowered access predicate as one fused-pass term: the
    /// whole conjunction evaluates in a single gather over the batch's
    /// rids instead of one selection pass per predicate.
    kernel_terms: Vec<MaskTerm<'a>>,
    /// Indices of the access predicates left to the interpreted path.
    scalar_preds: Vec<usize>,
    /// Scratch: live rids gathered for one kernel pass (reused per batch).
    rid_buf: Vec<usize>,
    /// Scratch: packed keep bits of one kernel pass.
    keep: BitMask,
    stats: OpStats,
    sink: StatsSink,
    agg: SharedAgg,
    interrupt: Interrupt,
    /// Where a cancellation or timeout is reported; the leaf then stops.
    err: ErrSlot,
}

impl<'a> ColScanLeaf<'a> {
    fn new(
        stage: &'a CStage<'a>,
        domain: &'a LeafDomain,
        cap: usize,
        sink: StatsSink,
        agg: SharedAgg,
        interrupt: Interrupt,
        err: ErrSlot,
    ) -> Self {
        let mut kernel_terms: Vec<MaskTerm<'a>> = Vec::new();
        let mut scalar_preds: Vec<usize> = Vec::new();
        for (pi, tp) in stage.typed_preds.iter().enumerate() {
            match tp.term() {
                Some(t) => kernel_terms.push(t),
                None => scalar_preds.push(pi),
            }
        }
        ColScanLeaf {
            stage,
            domain,
            pos: 0,
            cap,
            scan_rows: 0,
            kernel_terms,
            scalar_preds,
            rid_buf: Vec::new(),
            keep: BitMask::default(),
            stats: OpStats::named(stage.label.clone()),
            sink,
            agg,
            interrupt,
            err,
        }
    }
}

impl ColOperator for ColScanLeaf<'_> {
    fn open(&mut self) {}

    fn next_batch(&mut self) -> Option<ColumnBatch> {
        let base = self.stage.base;
        loop {
            if let Err(e) = self.interrupt.check() {
                self.err.borrow_mut().get_or_insert(e);
                return None;
            }
            let (start, n) = (self.pos, self.cap.min(self.domain.len() - self.pos));
            if n == 0 {
                return None;
            }
            self.pos += n;
            let mut out = ColumnBatch::new(1, self.cap);
            match self.domain {
                LeafDomain::Rids(_) => out.col_mut(0).extend(start..start + n),
                LeafDomain::Postings(rids) => {
                    out.col_mut(0).extend_from_slice(&rids[start..start + n])
                }
            }
            // Column-at-a-time filtering: every typed-lowered predicate
            // evaluates in ONE fused selection pass (single gather over
            // the batch's rids, conjunction folded word-wise), then the
            // interpreted remainder refines per live row.  Dropped rows
            // are never materialized.
            if !self.kernel_terms.is_empty() {
                out.gather_col(0, &mut self.rid_buf);
                mask_terms(&self.kernel_terms, true, &self.rid_buf, &mut self.keep);
                self.stats.kernel_rows += self.rid_buf.len() * self.kernel_terms.len();
                out.retain_by_mask(&self.keep);
            }
            for &pi in &self.scalar_preds {
                let pred = &self.stage.access_preds[pi];
                out.retain_by_col(0, |rid| cpred_holds(pred, &EMPTY_ENV, Some((base, rid))));
            }
            if out.is_empty() {
                continue;
            }
            if matches!(self.stage.access, Access::TableScan { .. }) {
                self.scan_rows += out.live();
            }
            self.stats.rows_out += out.live();
            self.stats.batches += 1;
            return Some(out);
        }
    }

    fn close(&mut self) {
        self.agg.borrow_mut().scan_rows += self.scan_rows;
        self.stats.fetched = self.scan_rows;
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Append one extended binding to a join's output batch: the outer columns
/// are copied value-by-value into the output columns and the inner rid
/// goes into the last column — no per-binding `Vec` is ever allocated.
#[inline]
fn emit_extended(batch: &ColumnBatch, phys: usize, rid: usize, out: &mut ColumnBatch) {
    let arity = batch.arity();
    for j in 0..arity {
        let v = batch.col(j)[phys];
        out.col_mut(j).push(v);
    }
    out.col_mut(arity).push(rid);
}

/// Drop the rids whose keep bit is cleared, preserving order.
fn retain_rids(rids: &mut Vec<usize>, keep: &BitMask) {
    let mut w = 0;
    for i in keep.ones() {
        rids[w] = rids[i];
        w += 1;
    }
    rids.truncate(w);
}

/// Columnar index/scan nested-loop join: consumes outer batches whole,
/// probing the inner access path once per live outer row through compiled
/// bounds and predicates (no schema lookups, no value clones on the
/// comparison path).  When the stage carries NLJOIN kernel lowerings
/// ([`NlSplit`]), each probe runs as selection kernels over the inner
/// column images instead of per-row interpretation: constant-rhs
/// predicates pre-materialize one survivor rid list per `TBSCAN` inner
/// (shared by every probe of this operator instance), outer-dependent
/// `i64` comparisons fuse into one multi-term mask pass per probe, and
/// computed integer checks (`outer.pre <= cur.pre + cur.size`) run per
/// candidate rid over the images.  An
/// `IXSCAN` inner under a literal equality prefix fetches by two binary
/// searches over the prefix's [`PrefixRun`], and a value self-join's by
/// two over the outer row's code in a [`CodeRun`] (see
/// [`ColNLJoin::fetch_index`]).
struct ColNLJoin<'a> {
    input: Box<dyn ColOperator + 'a>,
    stage: &'a CStage<'a>,
    cur: Option<(ColumnBatch, usize)>,
    cap: usize,
    fetched_scan: usize,
    fetched_index: usize,
    /// Rids of a `TBSCAN` inner surviving the static kernel terms,
    /// computed on the first kernelized probe and reused by the rest.
    static_list: Option<Vec<usize>>,
    /// Scratch: the probe's candidate rids (reused across probes).
    rid_buf: Vec<usize>,
    /// Scratch: the mask terms of one fused pass.
    terms: Vec<MaskTerm<'a>>,
    /// Scratch: packed keep bits of one fused pass.
    keep: BitMask,
    stats: OpStats,
    sink: StatsSink,
    agg: SharedAgg,
    /// Postings memoization context for `IXSCAN` inner probes.
    postings: PostingsCtx<'a>,
    /// The stage's prefix-run probe, resolved at the second probe.
    run: Option<RunProbe<'a>>,
}

impl<'a> ColNLJoin<'a> {
    fn new(
        input: Box<dyn ColOperator + 'a>,
        stage: &'a CStage<'a>,
        cap: usize,
        sink: StatsSink,
        agg: SharedAgg,
        postings: PostingsCtx<'a>,
    ) -> Self {
        ColNLJoin {
            input,
            stage,
            cur: None,
            cap,
            fetched_scan: 0,
            fetched_index: 0,
            static_list: None,
            rid_buf: Vec::new(),
            terms: Vec::new(),
            keep: BitMask::default(),
            stats: OpStats::named(stage.label.clone()),
            sink,
            agg,
            postings,
            run: None,
        }
    }

    /// Fill `rid_buf` with one `IXSCAN` probe's index entries (index
    /// order) and count them as fetched.  From its second probe on, an
    /// operator over a [`RunSpec`] stage searches the stage's run — by
    /// its integer range bounds ([`PrefixRun`]) or by the outer row's
    /// dictionary code ([`CodeRun`]); the first probe, a probe whose
    /// range bounds are not integers, and every other stage walk the
    /// B-tree through the postings context.  Waiting
    /// for the second probe keeps single-probe stages from building runs
    /// they would read once.
    fn fetch_index(&mut self, env: &ColEnv<'_>) {
        let stage = self.stage;
        if self.stats.probes == 2 {
            self.run = RunProbe::resolve(stage);
        }
        match self.run.as_ref().and_then(|r| r.rids(env)) {
            Some(rids) => {
                self.rid_buf.clear();
                self.rid_buf.extend_from_slice(rids);
            }
            None => {
                let Access::IndexScan { index, .. } = stage.access else {
                    unreachable!("index fetch on a table-scan stage");
                };
                cindex_range(
                    stage.tree.expect("index resolved"),
                    stage.cbounds.as_ref().expect("bounds compiled"),
                    env,
                    index,
                    self.postings,
                    &mut self.rid_buf,
                );
            }
        }
        self.fetched_index += self.rid_buf.len();
    }

    fn probe(&mut self, batch: &ColumnBatch, phys: usize, out: &mut ColumnBatch) {
        self.stats.probes += 1;
        let stage = self.stage;
        let base = stage.base;
        let env = ColEnv {
            tables: &stage.outer_tables,
            cols: batch.cols(),
            idx: phys,
        };
        if !stage.nl_access.is_empty() || !stage.nl_residual.is_empty() {
            return self.probe_kernel(batch, phys, &env, out);
        }
        match stage.access {
            Access::TableScan { .. } => {
                let mut fetched = 0usize;
                for rid in 0..base.len() {
                    let cur = Some((base, rid));
                    if !stage.access_preds.iter().all(|p| cpred_holds(p, &env, cur)) {
                        continue;
                    }
                    fetched += 1;
                    if stage.residual.iter().all(|p| cpred_holds(p, &env, cur)) {
                        emit_extended(batch, phys, rid, out);
                    }
                }
                self.fetched_scan += fetched;
            }
            Access::IndexScan { .. } => {
                self.fetch_index(&env);
                for &rid in &self.rid_buf {
                    let cur = Some((base, rid));
                    if !stage.access_preds.iter().all(|p| cpred_holds(p, &env, cur)) {
                        continue;
                    }
                    if stage.residual.iter().all(|p| cpred_holds(p, &env, cur)) {
                        emit_extended(batch, phys, rid, out);
                    }
                }
            }
        }
    }

    /// Resolve one probe's dynamic terms against the outer row and run the
    /// fused kernel pass over `rid_buf`, then the interpreted remainder.
    /// Returns `false` when a dynamic rhs is NULL (no rid can match).
    fn apply_split(
        &mut self,
        split: &NlSplit<'a>,
        extra_static: &[MaskTerm<'a>],
        preds: &[CPred],
        env: &ColEnv<'_>,
    ) -> bool {
        let base = self.stage.base;
        let terms = &mut self.terms;
        terms.clear();
        terms.extend_from_slice(extra_static);
        let mut fallback: Vec<usize> = Vec::new();
        for t in &split.dynamic {
            let Some(rhs) = t.rhs.eval(env, None) else {
                // Not an integer for this outer row.  A NULL comparand
                // fails every row (SQL three-valued logic); anything else
                // (a decimal, an overflowing sum) interprets this
                // predicate for this probe only.
                let p = &preds[t.pred];
                let side = if outer_only(&p.rhs) { &p.rhs } else { &p.lhs };
                if ceval(side, env, None).is_null() {
                    return false;
                }
                fallback.push(t.pred);
                continue;
            };
            terms.push(MaskTerm::I64 {
                vals: t.vals,
                validity: t.validity,
                op: t.op,
                rhs,
            });
        }
        if !terms.is_empty() {
            mask_terms(terms, true, &self.rid_buf, &mut self.keep);
            self.stats.kernel_rows += self.rid_buf.len() * terms.len();
            retain_rids(&mut self.rid_buf, &self.keep);
        }
        for t in &split.computed {
            self.stats.kernel_rows += self.rid_buf.len();
            let p = &preds[t.pred];
            self.rid_buf.retain(|&rid| {
                match (t.lhs.eval(env, Some(rid)), t.rhs.eval(env, Some(rid))) {
                    (Some(l), Some(r)) => t.op.eval(l.cmp(&r)),
                    _ => cpred_holds(p, env, Some((base, rid))),
                }
            });
        }
        for &pi in split.scalar.iter().chain(&fallback) {
            let p = &preds[pi];
            self.rid_buf
                .retain(|&rid| cpred_holds(p, env, Some((base, rid))));
        }
        true
    }

    /// The kernelized probe: candidate rids flow through the access-level
    /// and residual-level [`NlSplit`]s as packed-mask passes.  Emission
    /// order, `fetched_*` accounting and `probes` are identical to the
    /// interpreted probe; only `kernel_rows` reports the engagement.
    fn probe_kernel(
        &mut self,
        batch: &ColumnBatch,
        phys: usize,
        env: &ColEnv<'_>,
        out: &mut ColumnBatch,
    ) {
        let stage = self.stage;
        // 1. Candidate rids: the static survivor list of a `TBSCAN` inner
        //    (constant-rhs predicates hold for every probe, so the list is
        //    computed once per operator instance), or the B-tree fetch of
        //    an `IXSCAN` inner.  Index-scan static terms join the fused
        //    pass below instead — their candidate set changes per probe.
        let mut index_static: &[MaskTerm<'a>] = &[];
        match stage.access {
            Access::TableScan { .. } => {
                let static_terms = &stage.nl_access.static_terms;
                let list = self.static_list.get_or_insert_with(|| {
                    let all: Vec<usize> = (0..stage.base.len()).collect();
                    if static_terms.is_empty() {
                        return all;
                    }
                    let mut keep = BitMask::default();
                    mask_terms(static_terms, true, &all, &mut keep);
                    keep.ones().map(|i| all[i]).collect()
                });
                self.rid_buf.clear();
                self.rid_buf.extend_from_slice(list);
                if !static_terms.is_empty() {
                    // Per-probe accounting: each probe consumes the
                    // kernel-built list.
                    self.stats.kernel_rows += self.rid_buf.len();
                }
            }
            Access::IndexScan { .. } => {
                // The buffer is a scratch the split passes mutate below, so
                // a shared list (cached postings, a prefix run) is copied
                // in, never aliased.
                self.fetch_index(env);
                index_static = &stage.nl_access.static_terms;
            }
        }
        // 2. Access-level filtering (fused kernel pass + interpreted
        //    remainder), then the fetch accounting of a `TBSCAN` inner:
        //    rows surviving ALL access predicates, residuals not yet seen.
        let survived = self.apply_split(&stage.nl_access, index_static, &stage.access_preds, env);
        if !survived {
            self.rid_buf.clear();
        }
        if matches!(stage.access, Access::TableScan { .. }) {
            self.fetched_scan += self.rid_buf.len();
        }
        if self.rid_buf.is_empty() {
            return;
        }
        // 3. Residual filtering and emission (ascending/fetch rid order,
        //    same as the interpreted probe).  Residual static terms join
        //    the fused pass — there is no shared candidate list to bake
        //    them into.
        if !self.apply_split(
            &stage.nl_residual,
            &stage.nl_residual.static_terms,
            &stage.residual,
            env,
        ) {
            return;
        }
        let rids = std::mem::take(&mut self.rid_buf);
        for &rid in &rids {
            emit_extended(batch, phys, rid, out);
        }
        self.rid_buf = rids;
    }
}

impl ColOperator for ColNLJoin<'_> {
    fn open(&mut self) {
        self.input.open();
        self.cur = None;
    }

    fn next_batch(&mut self) -> Option<ColumnBatch> {
        let arity = self.stage.outer_tables.len();
        let mut out = ColumnBatch::new(arity + 1, self.cap);
        loop {
            if out.live() >= self.cap {
                break;
            }
            match self.cur.take() {
                Some((batch, mut pos)) => {
                    while pos < batch.live() && out.live() < self.cap {
                        self.probe(&batch, batch.phys(pos), &mut out);
                        pos += 1;
                    }
                    if pos < batch.live() {
                        self.cur = Some((batch, pos));
                    }
                }
                None => match self.input.next_batch() {
                    Some(b) => {
                        self.stats.rows_in += b.live();
                        self.cur = Some((b, 0));
                    }
                    None => break,
                },
            }
        }
        if out.is_empty() {
            return None;
        }
        self.stats.rows_out += out.live();
        self.stats.batches += 1;
        Some(out)
    }

    fn close(&mut self) {
        self.input.close();
        self.stats.fetched = self.fetched_scan + self.fetched_index;
        {
            let mut agg = self.agg.borrow_mut();
            agg.probes += self.stats.probes;
            agg.bindings += self.stats.rows_out;
            agg.scan_rows += self.fetched_scan;
            agg.index_rows += self.fetched_index;
        }
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Per-batch probe state of the columnar hash join: the key expressions
/// are evaluated column-at-a-time into one flattened buffer (column-major,
/// key `k` of row `i` at `k·live + i`) and all probe hashes are computed
/// in a single pass — one allocation per batch, not one key vector per
/// probe.
struct ProbeState {
    batch: ColumnBatch,
    keys: Vec<Value>,
    /// Gathered kernelized key columns (one per hash key, aligned with the
    /// stage's `typed_keys`); filled instead of `keys` when the stage
    /// carries key images.
    gkeys: Vec<GatheredKey>,
    hashes: Vec<Option<u64>>,
    /// Pre-resolved build candidates per probe row, when the probe side of
    /// a spilled build was spooled into Grace-partition order at prepare
    /// time (each partition loaded at most once per batch).
    cands: Option<Vec<Vec<usize>>>,
    pos: usize,
}

/// Columnar hash-join probe over a shared (possibly cached) build side.
/// A spilled build is probed through the operator's [`PartitionProbe`]
/// cache.
struct ColHashJoin<'a> {
    input: Box<dyn ColOperator + 'a>,
    stage: &'a CStage<'a>,
    build: &'a JoinBuild,
    parts: Option<PartitionProbe<'a>>,
    cur: Option<ProbeState>,
    cap: usize,
    stats: OpStats,
    sink: StatsSink,
    agg: SharedAgg,
    /// The execution's first failure (a partition load here, or the
    /// leaf's interrupt); once set the operator stops producing batches.
    err: ErrSlot,
}

impl<'a> ColHashJoin<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        input: Box<dyn ColOperator + 'a>,
        stage: &'a CStage<'a>,
        build: &'a JoinBuild,
        budget: &Arc<MemBudget>,
        cap: usize,
        sink: StatsSink,
        agg: SharedAgg,
        err: ErrSlot,
    ) -> Self {
        let parts = match &build.backend {
            BuildBackend::Mem(_) => None,
            BuildBackend::Spilled(p) => Some(PartitionProbe::new(p, budget.clone())),
        };
        ColHashJoin {
            input,
            stage,
            build,
            parts,
            cur: None,
            cap,
            stats: OpStats::named(stage.label.clone()),
            sink,
            agg,
            err,
        }
    }

    /// The vectorized key pass over a freshly pulled batch.  With
    /// kernelized keys the pass gathers each key's flat column (`i64`
    /// values or dictionary codes), folds the keys' validity masks into
    /// one per-row NULL gate, and hashes every composite key in one fused
    /// loop ([`hash_keys_typed`] is bit-identical to [`hash_values`] over
    /// the corresponding `Value`s, so bucket lookups and Grace partition
    /// routing are unchanged).  NULL-keyed rows hash to `None` and are
    /// never probed — exactly the untyped `Value` branch's behavior.
    fn prepare(&mut self, batch: ColumnBatch) -> ProbeState {
        let nk = self.stage.hash_keys.len();
        let live = batch.live();
        if let Some(tk) = &self.stage.typed_keys {
            let mut rid_buf: Vec<usize> = Vec::new();
            let mut gkeys: Vec<GatheredKey> = Vec::with_capacity(nk);
            let mut valid: Option<BitMask> = None;
            for ki in tk {
                batch.gather_col(ki.slot(), &mut rid_buf);
                match ki {
                    KeyImage::Int { outer, .. } => {
                        let mut vals = Vec::new();
                        gather_i64(outer, &rid_buf, &mut vals);
                        gkeys.push(GatheredKey::I64(vals));
                    }
                    KeyImage::Str { outer_codes, .. } => {
                        let mut codes = Vec::new();
                        gather_u32(outer_codes, &rid_buf, &mut codes);
                        gkeys.push(GatheredKey::Code(codes));
                    }
                }
                if let Some(ov) = ki.outer_validity() {
                    let m = valid.get_or_insert_with(|| BitMask::filled(live, true));
                    for (i, &rid) in rid_buf.iter().enumerate() {
                        if !ov.get(rid) {
                            m.set(i, false);
                        }
                    }
                }
            }
            let hkeys: Vec<HashKey<'_>> = tk
                .iter()
                .zip(&gkeys)
                .map(|(ki, gk)| match (ki, gk) {
                    (KeyImage::Int { .. }, GatheredKey::I64(v)) => HashKey::I64(v),
                    (KeyImage::Str { outer_dict, .. }, GatheredKey::Code(c)) => HashKey::Str {
                        codes: c,
                        dict: outer_dict,
                    },
                    _ => unreachable!("gathered keys align with the key images"),
                })
                .collect();
            let mut hashes: Vec<Option<u64>> = Vec::new();
            hash_keys_typed(&hkeys, valid.as_ref(), live, &mut hashes);
            self.stats.kernel_rows += live;
            // Probe side of a spilled build: group this batch's rows by
            // Grace partition up front so each partition file is read at
            // most once per batch.  A failed partition load parks its
            // error in the slot and leaves this batch candidate-less —
            // `next_batch` stops producing on the next poll.
            let cands = match self.parts.as_mut() {
                Some(parts) => match parts.spool(&hashes) {
                    Ok(c) => Some(c),
                    Err(e) => {
                        self.err.borrow_mut().get_or_insert(e);
                        Some(vec![Vec::new(); hashes.len()])
                    }
                },
                None => None,
            };
            ProbeState {
                batch,
                keys: Vec::new(),
                gkeys,
                hashes,
                cands,
                pos: 0,
            }
        } else {
            let mut keys: Vec<Value> = Vec::with_capacity(nk * live);
            for (expr, _) in &self.stage.hash_keys {
                for i in 0..live {
                    let env = ColEnv {
                        tables: &self.stage.outer_tables,
                        cols: batch.cols(),
                        idx: batch.phys(i),
                    };
                    keys.push(ceval(expr, &env, None).into_owned());
                }
            }
            let mut hashes = Vec::with_capacity(live);
            for i in 0..live {
                if (0..nk).any(|k| keys[k * live + i].is_null()) {
                    hashes.push(None);
                } else {
                    hashes.push(Some(hash_values((0..nk).map(|k| &keys[k * live + i]))));
                }
            }
            ProbeState {
                batch,
                keys,
                gkeys: Vec::new(),
                hashes,
                cands: None,
                pos: 0,
            }
        }
    }

    fn probe(&mut self, st: &ProbeState, i: usize, out: &mut ColumnBatch) {
        self.stats.probes += 1;
        let Some(h) = st.hashes[i] else { return };
        let build = self.build;
        let stage = self.stage;
        let candidates: &[usize] = match &st.cands {
            // Pre-spooled at prepare time (typed probe of a spilled build).
            Some(c) => &c[i],
            None => match &build.backend {
                BuildBackend::Mem(buckets) => buckets.get(&h).map_or(&[][..], Vec::as_slice),
                BuildBackend::Spilled(_) => {
                    let parts = self
                        .parts
                        .as_mut()
                        .expect("partition cache for spilled build");
                    match parts.candidates(h) {
                        Ok(c) => c.map_or(&[][..], Vec::as_slice),
                        Err(e) => {
                            self.err.borrow_mut().get_or_insert(e);
                            return;
                        }
                    }
                }
            },
        };
        let live = st.hashes.len();
        let phys = st.batch.phys(i);
        let base = stage.base;
        let env = ColEnv {
            tables: &stage.outer_tables,
            cols: st.batch.cols(),
            idx: phys,
        };
        for &rid in candidates {
            // Resolve hash collisions by comparing the key values: over
            // kernelized keys a primitive compare against the inner column
            // image (codes translate through `xlat`; build-side NULL keys
            // never entered the buckets, so inner sentinel slots cannot
            // appear here), otherwise the borrowed `Value` compare.
            let keys_match = match &stage.typed_keys {
                Some(tk) => tk.iter().zip(&st.gkeys).all(|(ki, gk)| match (ki, gk) {
                    (KeyImage::Int { inner, .. }, GatheredKey::I64(v)) => inner[rid] == v[i],
                    (
                        KeyImage::Str {
                            inner_codes, xlat, ..
                        },
                        GatheredKey::Code(c),
                    ) => xlat[c[i] as usize] == inner_codes[rid] as i64,
                    _ => unreachable!("gathered keys align with the key images"),
                }),
                None => {
                    let row = &base.rows()[rid];
                    build
                        .key_cols
                        .iter()
                        .enumerate()
                        .all(|(k, &c)| row[c] == st.keys[k * live + i])
                }
            };
            if !keys_match {
                continue;
            }
            if stage
                .residual
                .iter()
                .all(|p| cpred_holds(p, &env, Some((base, rid))))
            {
                emit_extended(&st.batch, phys, rid, out);
            }
        }
    }
}

impl ColOperator for ColHashJoin<'_> {
    fn open(&mut self) {
        self.input.open();
        self.cur = None;
    }

    fn next_batch(&mut self) -> Option<ColumnBatch> {
        if self.err.borrow().is_some() {
            return None;
        }
        let arity = self.stage.outer_tables.len();
        let mut out = ColumnBatch::new(arity + 1, self.cap);
        loop {
            if out.live() >= self.cap || self.err.borrow().is_some() {
                break;
            }
            match self.cur.take() {
                Some(mut st) => {
                    while st.pos < st.hashes.len()
                        && out.live() < self.cap
                        && self.err.borrow().is_none()
                    {
                        let i = st.pos;
                        st.pos += 1;
                        self.probe(&st, i, &mut out);
                    }
                    if st.pos < st.hashes.len() {
                        self.cur = Some(st);
                    }
                }
                None => match self.input.next_batch() {
                    Some(b) => {
                        self.stats.rows_in += b.live();
                        let st = self.prepare(b);
                        self.cur = Some(st);
                    }
                    None => break,
                },
            }
        }
        if out.is_empty() {
            return None;
        }
        self.stats.rows_out += out.live();
        self.stats.batches += 1;
        Some(out)
    }

    fn close(&mut self) {
        self.input.close();
        {
            let mut agg = self.agg.borrow_mut();
            agg.probes += self.stats.probes;
            agg.bindings += self.stats.rows_out;
        }
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Find the base table of an alias used in the join tree.
pub(crate) fn alias_table<'a>(node: &JoinNode, alias: &str, db: &'a Database) -> &'a Table {
    fn table_name<'n>(node: &'n JoinNode, alias: &str) -> Option<&'n str> {
        match node {
            JoinNode::Leaf {
                alias: a, table, ..
            } => (a == alias).then_some(table.as_str()),
            JoinNode::Join {
                outer,
                alias: a,
                table,
                ..
            } => {
                if a == alias {
                    Some(table.as_str())
                } else {
                    table_name(outer, alias)
                }
            }
        }
    }
    let name = table_name(node, alias).unwrap_or_else(|| panic!("alias {alias:?} not in plan"));
    db.table(name).expect("table registered")
}

/// Evaluation environment: one bound row per alias.
pub(crate) struct Env<'a> {
    pub(crate) aliases: &'a [String],
    pub(crate) tables: &'a [&'a Table],
    pub(crate) binding: &'a [usize],
}

impl<'a> Env<'a> {
    pub(crate) fn lookup(&self, alias: &str) -> (&'a Table, usize) {
        let idx = self
            .aliases
            .iter()
            .position(|a| a == alias)
            .unwrap_or_else(|| panic!("alias {alias:?} not bound"));
        (self.tables[idx], self.binding[idx])
    }

    pub(crate) fn eval(&self, expr: &SqlExpr) -> Value {
        match expr {
            SqlExpr::Lit(v) => v.clone(),
            SqlExpr::Col(c) => {
                let (table, rid) = self.lookup(&c.table);
                table.rows()[rid][table.schema().expect_index(&c.column)].clone()
            }
            SqlExpr::Add(a, b) => self.eval(a).numeric_add(&self.eval(b)),
        }
    }
}

/// Evaluate an expression that may reference the current alias's candidate
/// row (`current`) or outer aliases through `outer`.
pub(crate) fn eval_expr(
    expr: &SqlExpr,
    current_alias: &str,
    current: Option<(&Table, usize)>,
    outer: Option<&Env<'_>>,
) -> Value {
    match expr {
        SqlExpr::Lit(v) => v.clone(),
        SqlExpr::Col(c) => {
            if c.table == current_alias {
                let (table, rid) = current.expect("current row required");
                table.rows()[rid][table.schema().expect_index(&c.column)].clone()
            } else {
                outer
                    .expect("outer environment required")
                    .eval(&SqlExpr::Col(c.clone()))
            }
        }
        SqlExpr::Add(a, b) => eval_expr(a, current_alias, current, outer).numeric_add(&eval_expr(
            b,
            current_alias,
            current,
            outer,
        )),
    }
}

pub(crate) fn pred_holds(
    pred: &SqlPredicate,
    current_alias: &str,
    current: Option<(&Table, usize)>,
    outer: Option<&Env<'_>>,
) -> bool {
    let l = eval_expr(&pred.lhs, current_alias, current, outer);
    let r = eval_expr(&pred.rhs, current_alias, current, outer);
    match l.sql_cmp(&r) {
        Some(ord) => pred.op.eval(ord),
        None => false,
    }
}

/// How many rows an access-path execution fetched, and through which path
/// (table scans report the post-filter count, index scans the pre-residual
/// fetch count — the quantities Table IX's work accounting uses).
pub(crate) enum Fetched {
    /// Rows surviving a full scan's pushed-down filters.
    Scanned(usize),
    /// Rows fetched from a B-tree range scan (before residual filtering).
    Indexed(usize),
}

/// Execute an access path, returning the matching row ids and the fetch
/// accounting.  An `IndexScan` consults the postings context (if any) for
/// its B-tree range; the residual-free fast path hands the shared list
/// straight through without copying.
pub(crate) fn exec_access(
    access: &Access,
    alias: &str,
    table_name: &str,
    db: &Database,
    outer: Option<&Env<'_>>,
    postings: PostingsCtx<'_>,
) -> (Postings, Fetched) {
    let base = db.table(table_name).expect("table registered");
    match access {
        Access::TableScan { preds } => {
            let mut out = Vec::new();
            for rid in 0..base.len() {
                let ok = preds
                    .iter()
                    .all(|p| pred_holds(p, alias, Some((base, rid)), outer));
                if ok {
                    out.push(rid);
                }
            }
            let n = out.len();
            (Postings::Owned(out), Fetched::Scanned(n))
        }
        Access::IndexScan {
            index,
            bounds,
            residual,
        } => {
            let ix = db.index(index).expect("index registered");
            let rb = resolve_bounds(bounds, alias, outer);
            let rows = cached_tree_range(&ix.tree, rb, index, postings);
            let fetched = rows.len();
            if residual.is_empty() {
                return (rows, Fetched::Indexed(fetched));
            }
            let out: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|&rid| {
                    residual
                        .iter()
                        .all(|p| pred_holds(p, alias, Some((base, rid)), outer))
                })
                .collect();
            (Postings::Owned(out), Fetched::Indexed(fetched))
        }
    }
}

/// Evaluate probe bounds against the outer environment into their
/// canonical resolved form (empty side = unbounded, inclusive).
fn resolve_bounds(bounds: &Bounds, alias: &str, outer: Option<&Env<'_>>) -> ResolvedBounds {
    let eq_vals: Vec<Value> = bounds
        .eq
        .iter()
        .map(|(_, e)| eval_expr(e, alias, None, outer))
        .collect();
    let (lower, lower_inc) = match &bounds.lower {
        Some((e, inclusive)) => {
            let mut k = eq_vals.clone();
            k.push(eval_expr(e, alias, None, outer));
            (k, *inclusive)
        }
        None => (eq_vals.clone(), true),
    };
    let (upper, upper_inc) = match &bounds.upper {
        Some((e, inclusive)) => {
            let mut k = eq_vals.clone();
            k.push(eval_expr(e, alias, None, outer));
            (k, *inclusive)
        }
        None => (eq_vals, true),
    };
    ResolvedBounds {
        lower,
        lower_inc,
        upper,
        upper_inc,
    }
}

/// Convenience: optimize and execute an SQL text against the database.
pub fn run_sql(sql: &str, db: &Database) -> Result<Table, Box<dyn std::error::Error>> {
    let query = crate::sqlparse::parse_sql(sql)?;
    let plan = crate::optimizer::optimize(&query, db)?;
    Ok(QueryRequest::new(&plan, db).run()?.rows)
}

/// Check a predicate operator against an ordering (exposed for reuse).
pub fn cmp_eval(op: SqlCmp, ord: std::cmp::Ordering) -> bool {
    op.eval(ord)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::execute_materialized_with_stats;
    use crate::optimizer::optimize;
    use crate::sqlparse::parse_sql;
    use xqjg_store::IndexDef;

    /// Rows and counters of `plan` under pinned knobs.
    fn run(plan: &PhysPlan, db: &Database, cfg: &ExecConfig) -> (Table, ExecStats) {
        let out = QueryRequest::new(plan, db).config(cfg).expect_run();
        (out.rows, out.stats)
    }

    /// [`run`] through a hash-join build cache (pinned on: the caller is
    /// testing the cache, whatever `XQJG_BUILD_CACHE` the environment says).
    fn run_cached(
        plan: &PhysPlan,
        db: &Database,
        cfg: &ExecConfig,
        cache: &BuildCache,
    ) -> (Table, ExecStats) {
        let cfg = cfg.clone().with_build_cache(true);
        let out = QueryRequest::new(plan, db)
            .config(&cfg)
            .build_cache(cache)
            .expect_run();
        (out.rows, out.stats)
    }

    /// Small XML-encoding-like database: one document with nested elements.
    fn db() -> Database {
        let mut t = Table::new(Schema::new([
            "pre", "size", "level", "kind", "name", "value", "data",
        ]));
        type FixtureRow = (
            i64,
            i64,
            i64,
            &'static str,
            Option<&'static str>,
            Option<&'static str>,
        );
        let rows: Vec<FixtureRow> = vec![
            (0, 8, 0, "DOC", Some("a.xml"), None),
            (1, 7, 1, "ELEM", Some("site"), None),
            (2, 2, 2, "ELEM", Some("open_auction"), None),
            (3, 1, 3, "ELEM", Some("bidder"), None),
            (4, 0, 4, "TEXT", None, Some("10")),
            (5, 3, 2, "ELEM", Some("open_auction"), None),
            (6, 0, 3, "ELEM", Some("initial"), Some("15")),
            (7, 1, 3, "ELEM", Some("bidder"), None),
            (8, 0, 4, "TEXT", None, Some("20")),
        ];
        for (pre, size, level, kind, name, value) in rows {
            t.push(vec![
                Value::Int(pre),
                Value::Int(size),
                Value::Int(level),
                Value::str(kind),
                name.map(Value::str).unwrap_or(Value::Null),
                value.map(Value::str).unwrap_or(Value::Null),
                value
                    .and_then(|v| v.parse::<f64>().ok())
                    .map(Value::Dec)
                    .unwrap_or(Value::Null),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        db.create_index(IndexDef {
            name: "nkspl".into(),
            table: "doc".into(),
            key_columns: vec![
                "name".into(),
                "kind".into(),
                "size".into(),
                "pre".into(),
                "level".into(),
            ],
            include_columns: vec![],
            clustered: false,
        });
        db.create_index(IndexDef {
            name: "p".into(),
            table: "doc".into(),
            key_columns: vec!["pre".into()],
            include_columns: vec![],
            clustered: true,
        });
        db
    }

    const Q1_LIKE: &str = "SELECT DISTINCT d2.* \
        FROM doc AS d1, doc AS d2, doc AS d3 \
        WHERE d1.kind = 'DOC' AND d1.name = 'a.xml' \
          AND d2.kind = 'ELEM' AND d2.name = 'open_auction' \
          AND d2.pre > d1.pre AND d2.pre <= d1.pre + d1.size \
          AND d3.kind = 'ELEM' AND d3.name = 'bidder' \
          AND d3.pre > d2.pre AND d3.pre <= d2.pre + d2.size \
          AND d2.level + 1 = d3.level \
        ORDER BY d2.pre";

    #[test]
    fn executes_q1_join_graph() {
        let db = db();
        let q = parse_sql(Q1_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let result = QueryRequest::new(&plan, &db).expect_run().rows;
        // Both open_auction elements (pre 2 and 5) have a bidder child.
        assert_eq!(result.len(), 2);
        let pre_idx = result.schema().expect_index("pre");
        assert_eq!(result.rows()[0][pre_idx], Value::Int(2));
        assert_eq!(result.rows()[1][pre_idx], Value::Int(5));
    }

    #[test]
    fn distinct_removes_duplicate_result_rows() {
        let db = db();
        // Without the level predicate, descendants at any depth qualify; the
        // DISTINCT on d2.* must still deliver each open_auction once.
        let sql = Q1_LIKE.replace(" AND d2.level + 1 = d3.level ", " ");
        let q = parse_sql(&sql).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let result = QueryRequest::new(&plan, &db).expect_run().rows;
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn order_by_descending_document_order_not_supported_but_asc_enforced() {
        let db = db();
        let q =
            parse_sql("SELECT d1.pre AS p FROM doc AS d1 WHERE d1.kind = 'ELEM' ORDER BY d1.pre")
                .unwrap();
        let plan = optimize(&q, &db).unwrap();
        let result = QueryRequest::new(&plan, &db).expect_run().rows;
        let pres: Vec<i64> = result
            .rows()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        let mut sorted = pres.clone();
        sorted.sort();
        assert_eq!(pres, sorted);
        assert_eq!(result.schema().columns(), &["p".to_string()]);
    }

    #[test]
    fn run_sql_end_to_end() {
        let db = db();
        let t = run_sql(
            "SELECT d1.* FROM doc AS d1 WHERE d1.name = 'bidder' ORDER BY d1.pre",
            &db,
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn run_sql_promotes_an_overflowing_sum_instead_of_wrapping() {
        let mut t = Table::new(Schema::new(["pre", "v"]));
        for (pre, v) in [(0, i64::MAX), (1, i64::MAX - 1), (2, 5)] {
            t.push(vec![Value::Int(pre), Value::Int(v)]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        let out = run_sql(
            "SELECT d1.pre AS p, d1.v + 1 AS s FROM doc AS d1 ORDER BY d1.pre",
            &db,
        )
        .unwrap();
        let sums: Vec<Value> = out.rows().iter().map(|r| r[1].clone()).collect();
        assert_eq!(
            sums,
            [
                Value::Dec(i64::MAX as f64 + 1.0),
                Value::Int(i64::MAX),
                Value::Int(6)
            ]
        );
        // As a join predicate the overflowing row still compares numerically
        // (`MAX + 1 >= MAX`), as it does in the materializing oracle.
        let sql = "SELECT d1.pre AS a, d2.pre AS b FROM doc AS d1, doc AS d2 \
                   WHERE d2.v + 1 >= d1.v AND d1.pre = 0 ORDER BY d2.pre";
        let plan = optimize(&parse_sql(sql).unwrap(), &db).unwrap();
        let (t, _) = run(&plan, &db, &ExecConfig::sequential());
        assert_eq!(t.len(), 2, "rows with v + 1 >= 2^63");
        assert_eq!(t, execute_materialized_with_stats(&plan, &db).0);
    }

    #[test]
    fn exec_stats_count_probes_and_rows() {
        let db = db();
        let q = parse_sql(Q1_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let stats = QueryRequest::new(&plan, &db).expect_run().stats;
        assert!(stats.probes > 0);
        assert!(stats.index_rows + stats.scan_rows > 0);
    }

    #[test]
    fn per_operator_stats_cover_the_whole_tree() {
        let db = db();
        let q = parse_sql(Q1_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let QueryOutcome {
            rows: result,
            stats,
            ..
        } = QueryRequest::new(&plan, &db).expect_run();
        // One leaf + two joins + the sort tail.
        assert_eq!(stats.operators.len(), 4);
        let tail = stats
            .operators
            .iter()
            .find(|o| o.name.starts_with("SORT"))
            .expect("sort tail reports stats");
        assert_eq!(tail.rows_out, result.len());
        assert!(tail.rows_in >= tail.rows_out);
        let joins = stats
            .operators
            .iter()
            .filter(|o| o.name.starts_with("NLJOIN") || o.name.starts_with("HSJOIN"))
            .count();
        assert_eq!(joins, 2);
        for op in &stats.operators {
            assert!(op.rows_out == 0 || op.batches > 0, "{}", op.name);
        }
    }

    #[test]
    fn pipelined_executor_matches_materializing_baseline() {
        let db = db();
        for sql in [
            Q1_LIKE.to_string(),
            Q1_LIKE.replace(" AND d2.level + 1 = d3.level ", " "),
            "SELECT d1.pre AS p FROM doc AS d1 WHERE d1.kind = 'ELEM' ORDER BY d1.pre".to_string(),
            "SELECT d2.pre AS a, d3.pre AS b FROM doc AS d2, doc AS d3 \
             WHERE d2.name = 'open_auction' AND d3.name = 'bidder' \
               AND d3.pre > d2.pre AND d3.pre <= d2.pre + d2.size \
             ORDER BY d2.pre, d3.pre"
                .to_string(),
        ] {
            let q = parse_sql(&sql).unwrap();
            let plan = optimize(&q, &db).unwrap();
            let (pipelined, pstats) = run(&plan, &db, &ExecConfig::from_env());
            let (materialized, mstats) = execute_materialized_with_stats(&plan, &db);
            assert_eq!(pipelined, materialized, "{sql}");
            // Aggregate work accounting agrees between the two executors.
            assert_eq!(pstats.index_rows, mstats.index_rows, "{sql}");
            assert_eq!(pstats.scan_rows, mstats.scan_rows, "{sql}");
            assert_eq!(pstats.probes, mstats.probes, "{sql}");
            assert_eq!(pstats.bindings, mstats.bindings, "{sql}");
            // `fetched` is the per-operator split of those totals — leaf
            // scans, per-probe inners and hash-join builds all included.
            let fetched: usize = pstats.operators.iter().map(|o| o.fetched).sum();
            assert_eq!(fetched, pstats.index_rows + pstats.scan_rows, "{sql}");
        }
    }

    #[test]
    fn batch_capacity_sweeps_change_only_batch_counts() {
        let db = db();
        let q = parse_sql(Q1_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let (t_ref, s_ref) = run(&plan, &db, &ExecConfig::sequential());
        for cap in [1, 2, 7] {
            let cfg = ExecConfig::sequential().with_batch_capacity(cap);
            let (t, s) = run(&plan, &db, &cfg);
            assert_eq!(t, t_ref, "rows differ at batch capacity {cap}");
            assert_eq!(s.index_rows, s_ref.index_rows);
            assert_eq!(s.probes, s_ref.probes);
            assert_eq!(s.bindings, s_ref.bindings);
            for (a, b) in s.operators.iter().zip(&s_ref.operators) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.rows_out, b.rows_out);
                assert_eq!(a.batches, a.rows_out.div_ceil(cap), "{}", a.name);
            }
        }
    }

    #[test]
    fn value_predicates_via_index_or_scan() {
        let db = db();
        let t = run_sql(
            "SELECT d1.pre AS p FROM doc AS d1 WHERE d1.name = 'initial' AND d1.data >= 10 ORDER BY d1.pre",
            &db,
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(6));
    }

    #[test]
    fn select_expressions_and_multiple_order_keys() {
        let db = db();
        let t = run_sql(
            "SELECT d2.pre AS a, d3.pre AS b FROM doc AS d2, doc AS d3 \
             WHERE d2.name = 'open_auction' AND d3.name = 'bidder' \
               AND d3.pre > d2.pre AND d3.pre <= d2.pre + d2.size \
             ORDER BY d2.pre, d3.pre",
            &db,
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().columns(), &["a".to_string(), "b".to_string()]);
    }

    /// A value self-equijoin with no supporting index: the per-probe
    /// alternative is a full scan, so the optimizer picks a hash join.
    const HASH_LIKE: &str = "SELECT d1.pre AS a, d2.pre AS b \
        FROM doc AS d1, doc AS d2 \
        WHERE d1.kind = 'ELEM' AND d1.value = d2.value \
        ORDER BY d1.pre, d2.pre";

    #[test]
    fn build_cache_memoizes_hash_join_builds_and_invalidates_on_ddl() {
        let mut db = db();
        let q = parse_sql(HASH_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        fn has_hash(n: &crate::physical::JoinNode) -> bool {
            match n {
                crate::physical::JoinNode::Leaf { .. } => false,
                crate::physical::JoinNode::Join { outer, method, .. } => {
                    *method == crate::physical::JoinMethod::Hash || has_hash(outer)
                }
            }
        }
        assert!(
            has_hash(&plan.root),
            "fixture plan must contain a hash join"
        );
        let cache = BuildCache::new();
        let cfg = ExecConfig::sequential();
        let (t1, s1) = run_cached(&plan, &db, &cfg, &cache);
        assert_eq!(cache.hits(), 0);
        assert!(cache.lookups() > 0);
        assert!(!cache.is_empty());
        let (t2, s2) = run_cached(&plan, &db, &cfg, &cache);
        assert_eq!(t1, t2, "cached build must not change results");
        assert!(cache.hits() > 0, "second run hits the cache");
        // The hit is visible in the per-operator actuals, and the skipped
        // build fetch is honestly absent from the aggregate counters.
        assert!(s2.operators.iter().any(|o| o.cache_hits > 0));
        assert!(s1.operators.iter().all(|o| o.cache_hits == 0));
        assert!(s2.index_rows + s2.scan_rows <= s1.index_rows + s1.scan_rows);
        // DDL invalidates: the next lookup rebuilds instead of hitting.
        let hits = cache.hits();
        db.create_index(xqjg_store::IndexDef {
            name: "fresh".into(),
            table: "doc".into(),
            key_columns: vec!["level".into()],
            include_columns: vec![],
            clustered: false,
        });
        let plan2 = optimize(&parse_sql(HASH_LIKE).unwrap(), &db).unwrap();
        let (t3, _) = run_cached(&plan2, &db, &cfg, &cache);
        assert_eq!(t1, t3);
        assert_eq!(cache.hits(), hits, "catalog change drops cached builds");
    }

    #[test]
    fn build_cache_byte_bound_evicts_instead_of_growing() {
        // Regression: the session build cache used to grow without bound.
        // 64 synthetic builds at ~4 KiB each cannot all stay resident in a
        // 64 KiB cache (8 KiB per stripe); the bound must evict, not grow.
        let cache = BuildCache::with_capacity(64 * 1024);
        for i in 0..64 {
            let (_, hit) = cache
                .get_or_build(format!("build-{i}"), 1, || {
                    Ok(JoinBuild {
                        key_cols: vec![],
                        backend: BuildBackend::Mem(HashMap::new()),
                        build_rows: 0,
                        fetched_scan: 0,
                        fetched_index: 0,
                        spill_runs: 0,
                        spill_bytes: 0,
                        partitions: 0,
                        retries: 0,
                        reserved: 4096,
                    })
                })
                .unwrap();
            assert!(!hit, "distinct keys never hit");
        }
        assert!(cache.evictions() > 0, "byte bound must evict");
        assert!(cache.len() < 64, "cache must not hold every build");
        assert!(cache.bytes() <= 64 * 1024, "resident bytes respect the cap");
    }

    #[test]
    fn postings_cache_preserves_results_and_actuals_and_hits_on_repeats() {
        let db = db();
        let q = parse_sql(Q1_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let pc = xqjg_store::PostingsCache::new();
        let caches = ExecCaches {
            builds: None,
            postings: Some(&pc),
        };
        let cfg = ExecConfig::sequential().with_postings_cache(true);
        let with = |caches: ExecCaches<'_>| {
            let out = QueryRequest::new(&plan, &db)
                .config(&cfg)
                .caches(caches)
                .expect_run();
            (out.rows, out.stats)
        };
        let (t0, s0) = with(ExecCaches::default());
        let (t1, s1) = with(caches);
        let (t2, s2) = with(caches);
        assert_eq!(t0, t1, "cold cached run matches uncached");
        assert_eq!(t1, t2, "warm run matches cold");
        assert_eq!(s0, s1, "actuals identical with the cache cold");
        assert_eq!(s1, s2, "actuals identical hit or miss");
        assert!(pc.hits() > 0, "repeated probes hit the postings cache");
        assert!(pc.lookups() > pc.hits(), "cold lookups missed first");
    }

    /// 3 000 outer rows `o` (even `pre`), each probing the inner `i` rows
    /// (odd `pre`) of `nkp (name = 'i', kind = 'ELEM', pre > o.pre + 1,
    /// pre <= upper)`: both bounds can land on an inner key.
    /// `size` is NULL on every 97th and a decimal on every 89th row, so
    /// `o.pre + o.size` is not an integer for those probes.
    fn prefix_run_db() -> Database {
        let mut t = Table::new(Schema::new(["pre", "size", "level", "kind", "name"]));
        for pre in 0..6000i64 {
            let size = match pre {
                p if p % 97 == 0 => Value::Null,
                p if p % 89 == 0 => Value::Dec(3.5),
                p => Value::Int(p * 7 % 40),
            };
            t.push(vec![
                Value::Int(pre),
                size,
                Value::Int(pre % 4),
                Value::str(if pre % 5 == 0 { "TEXT" } else { "ELEM" }),
                Value::str(if pre % 2 == 0 { "o" } else { "i" }),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        db.create_index(IndexDef {
            name: "nkp".into(),
            table: "doc".into(),
            key_columns: vec!["name".into(), "kind".into(), "pre".into()],
            include_columns: vec![],
            clustered: false,
        });
        db
    }

    /// `o` scanned under `leaf`, joined to `i` by the NLJOIN–IXSCAN above;
    /// no ORDER BY, so the result order is the probe order.
    fn prefix_run_plan(
        leaf: SqlPredicate,
        upper: SqlExpr,
        residual: Vec<SqlPredicate>,
    ) -> PhysPlan {
        use crate::physical::JoinMethod;
        use crate::sql::SelectItem;
        let outer = JoinNode::Leaf {
            alias: "o".into(),
            table: "doc".into(),
            access: Access::TableScan { preds: vec![leaf] },
            est_rows: 1.0,
        };
        let root = JoinNode::Join {
            outer: Box::new(outer),
            alias: "i".into(),
            table: "doc".into(),
            access: Access::IndexScan {
                index: "nkp".into(),
                bounds: Bounds {
                    eq: vec![
                        ("name".into(), SqlExpr::lit("i")),
                        ("kind".into(), SqlExpr::lit("ELEM")),
                    ],
                    range_col: Some("pre".into()),
                    lower: Some((SqlExpr::col("o", "pre") + SqlExpr::lit(1i64), false)),
                    upper: Some((upper, true)),
                },
                residual: vec![],
            },
            method: JoinMethod::NestedLoop,
            hash_keys: vec![],
            residual,
            est_rows: 1.0,
        };
        let item = |a: &str| SelectItem::Expr {
            expr: SqlExpr::col(a, "pre"),
            alias: a.to_string(),
        };
        PhysPlan {
            root,
            select: vec![item("o"), item("i")],
            distinct: false,
            order_by: vec![],
            est_cost: 0.0,
            est_rows: 0.0,
        }
    }

    #[test]
    fn prefix_run_probes_match_the_btree_probes_exactly() {
        let name_is_o = SqlPredicate::new(SqlExpr::col("o", "name"), SqlCmp::Eq, SqlExpr::lit("o"));
        let level = SqlPredicate::new(
            SqlExpr::col("i", "level"),
            SqlCmp::Gt,
            SqlExpr::col("o", "level"),
        );
        // Upper bounds: integer column + literal (every probe on the run),
        // and a mixed column (NULL and decimal probes fall back).
        let uppers = [
            SqlExpr::col("o", "pre") + SqlExpr::lit(9i64),
            SqlExpr::col("o", "pre") + SqlExpr::col("o", "size"),
        ];
        for upper in uppers {
            // Without a residual the probe runs interpreted; with one, on
            // the kernel path.
            for residual in [vec![], vec![level.clone()]] {
                let db = prefix_run_db();
                let plan = prefix_run_plan(name_is_o.clone(), upper.clone(), residual);
                // The materializing oracle walks the B-tree on every probe.
                let (t_ref, agg_ref) = execute_materialized_with_stats(&plan, &db);
                assert!(agg_ref.probes >= 3000, "{}", agg_ref.probes);
                for cap in [1, 1024] {
                    let cfg = ExecConfig::sequential().with_batch_capacity(cap);
                    let (t, s) = run(&plan, &db, &cfg);
                    let what = format!("{upper} cap {cap}");
                    assert_eq!(t, t_ref, "{what}: rows and their order");
                    assert_aggregates_match(&s, &agg_ref, &what);
                    assert_join_levels_match(&s, &agg_ref, &what);
                }
                assert_eq!(
                    db.prefix_runs_built(),
                    1,
                    "the run served the repeat probes"
                );
            }
        }
    }

    #[test]
    fn a_run_stage_walks_the_btree_once_per_execution() {
        // 6 000 leaf rows feed 3 000 probes into one NLJOIN operator.
        let db = prefix_run_db();
        let name_is_o = SqlPredicate::new(SqlExpr::col("o", "name"), SqlCmp::Eq, SqlExpr::lit("o"));
        let upper = SqlExpr::col("o", "pre") + SqlExpr::lit(9i64);
        let plan = prefix_run_plan(name_is_o, upper, vec![]);
        let pc = xqjg_store::PostingsCache::new();
        let cfg = ExecConfig::sequential().with_postings_cache(true);
        for pass in ["cold", "warm"] {
            let out = QueryRequest::new(&plan, &db)
                .config(&cfg)
                .postings_cache(&pc)
                .expect_run();
            assert!(out.stats.probes >= 3000, "{}", out.stats.probes);
            assert_eq!(
                out.cache_actuals.postings_lookups, 1,
                "{pass}: only the first probe walks the B-tree"
            );
        }
        assert_eq!(db.prefix_runs_built(), 1, "one run for both executions");
    }

    #[test]
    fn the_leaf_polls_cancellation_and_the_deadline() {
        // No hash build and no budget: the leaf's per-batch poll is the
        // only interrupt check this plan passes.
        let db = prefix_run_db();
        let name_is_o = SqlPredicate::new(SqlExpr::col("o", "name"), SqlCmp::Eq, SqlExpr::lit("o"));
        let upper = SqlExpr::col("o", "pre") + SqlExpr::lit(9i64);
        let plan = prefix_run_plan(name_is_o, upper, vec![]);
        let cfg = ExecConfig::sequential().with_mem_budget(None);
        let token = CancelToken::new();
        token.cancel();
        let run = |cfg: &ExecConfig| {
            QueryRequest::new(&plan, &db)
                .config(cfg)
                .cancel(&token)
                .run()
        };
        assert_eq!(run(&cfg).unwrap_err(), ExecError::Cancelled);
        token.clear();
        let expired = cfg
            .clone()
            .with_query_timeout(Some(std::time::Duration::from_nanos(1)));
        let err = run(&expired).unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "{err}");
        assert!(run(&cfg).is_ok(), "a cleared token executes");
    }

    #[test]
    fn a_single_probe_stage_never_builds_a_run() {
        let db = prefix_run_db();
        let pre_is_2 = SqlPredicate::new(SqlExpr::col("o", "pre"), SqlCmp::Eq, SqlExpr::lit(2i64));
        let plan = prefix_run_plan(
            pre_is_2,
            SqlExpr::col("o", "pre") + SqlExpr::lit(9i64),
            vec![],
        );
        let (t, s) = run(&plan, &db, &ExecConfig::sequential());
        assert_eq!(
            (s.probes, t.len()),
            (1, 3),
            "pre 7, 9 and 11 (3 is excluded, 5 is TEXT)"
        );
        assert_eq!(db.prefix_runs_built(), 0);
    }

    #[test]
    fn postings_knob_off_bypasses_a_supplied_cache() {
        let db = db();
        let q = parse_sql(Q1_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let pc = xqjg_store::PostingsCache::new();
        let caches = ExecCaches {
            builds: None,
            postings: Some(&pc),
        };
        let cfg = ExecConfig::sequential().with_postings_cache(false);
        let req = QueryRequest::new(&plan, &db).config(&cfg).caches(caches);
        let (t1, t2) = (req.expect_run().rows, req.expect_run().rows);
        assert_eq!(t1, t2);
        assert_eq!(pc.lookups(), 0, "disabled cache is never consulted");
        assert!(pc.is_empty());
    }

    /// Assert `got` reports the materializing oracle's aggregate counters.
    fn assert_aggregates_match(got: &ExecStats, oracle: &ExecStats, what: &str) {
        let aggregates = |s: &ExecStats| (s.index_rows, s.scan_rows, s.probes, s.bindings);
        assert_eq!(
            aggregates(got),
            aggregates(oracle),
            "{what}: (index_rows, scan_rows, probes, bindings)"
        );
    }

    /// Assert `got`'s join levels (every operator but the plan tail) report
    /// the materializing oracle's per-level label, `rows_out`, `fetched`
    /// and `probes`.
    fn assert_join_levels_match(got: &ExecStats, oracle: &ExecStats, what: &str) {
        let levels = |ops: &[OpStats]| -> Vec<(String, usize, usize, usize)> {
            ops.iter()
                .map(|o| (o.name.clone(), o.rows_out, o.fetched, o.probes))
                .collect()
        };
        let (tail, joins) = got.operators.split_last().expect("a plan tail");
        assert!(matches!(
            tail.name.as_str(),
            "SORT(distinct)" | "SORT" | "RETURN"
        ));
        assert_eq!(
            levels(joins),
            levels(&oracle.operators),
            "{what}: per-join-level (label, rows_out, fetched, probes)"
        );
    }

    #[test]
    fn pipeline_agrees_with_the_materializing_oracle_at_every_batch_capacity() {
        let db = db();
        for sql in [
            Q1_LIKE.to_string(),
            Q1_LIKE.replace(" AND d2.level + 1 = d3.level ", " "),
            "SELECT d1.pre AS p FROM doc AS d1 WHERE d1.kind = 'ELEM' ORDER BY d1.pre".to_string(),
        ] {
            let q = parse_sql(&sql).unwrap();
            let plan = optimize(&q, &db).unwrap();
            // Rows, row order, aggregate counters and per-join-level
            // actuals: the independent materializing executor.  Every
            // other actual but `batches`: the default-capacity run.
            let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
            let (_, ops_ref) = run(&plan, &db, &ExecConfig::sequential());
            for cap in [1, 64, 1024] {
                let cfg = ExecConfig::sequential().with_batch_capacity(cap);
                let (t, s) = run(&plan, &db, &cfg);
                let what = format!("{sql} cap {cap}");
                assert_eq!(t, t_ref, "{what}");
                assert_aggregates_match(&s, &s_ref, &what);
                assert_join_levels_match(&s, &s_ref, &what);
                for (a, b) in s.operators.iter().zip(&ops_ref.operators) {
                    let (mut a, mut b) = (a.clone(), b.clone());
                    (a.batches, b.batches) = (0, 0);
                    assert_eq!(a, b, "{what}: per-operator actuals");
                }
                assert_eq!(s.operators.len(), ops_ref.operators.len());
            }
        }
    }

    /// A database with enough rows that a few-KB budget forces both the
    /// SORT tail and a hash-join build side to spill.
    fn big_db(rows: i64) -> Database {
        let mut t = Table::new(Schema::new(["pre", "grp", "payload"]));
        for i in 0..rows {
            t.push(vec![
                Value::Int(i),
                Value::Int(i % 97),
                Value::str(format!("row-{i:06}")),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        db
    }

    /// A value self-equijoin with no supporting index: the optimizer picks
    /// a hash join, and `ORDER BY` keeps the SORT tail honest.
    const SPILL_SQL: &str = "SELECT d1.pre AS a, d2.pre AS b \
        FROM doc AS d1, doc AS d2 \
        WHERE d1.grp = d2.grp AND d1.pre <= 200 \
        ORDER BY d1.pre, d2.pre";

    #[test]
    fn tight_budget_spills_sort_and_hash_join_without_changing_results() {
        let db = big_db(2000);
        let q = parse_sql(SPILL_SQL).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let unlimited = ExecConfig::sequential().with_mem_budget(None);
        let (t_ref, s_ref) = run(&plan, &db, &unlimited);
        assert!(t_ref.len() > 1000, "fixture large enough to pressure 16K");

        let tight = ExecConfig::sequential().with_mem_budget(Some(16 * 1024));
        let (t, s) = run(&plan, &db, &tight);
        assert_eq!(t, t_ref, "spilled execution must return identical rows");

        // Actuals agree modulo the spill counters…
        let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
        let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
        assert_eq!(sans, sans_ref);
        // …and the unlimited run never spilled while the tight run spilled
        // on both pipeline breakers.
        assert!(s_ref.operators.iter().all(|o| o.spill_runs == 0));
        let hsjoin = s
            .operators
            .iter()
            .find(|o| o.name.starts_with("HSJOIN"))
            .expect("plan contains a hash join");
        assert!(hsjoin.spill_runs > 0, "build side spilled");
        assert!(hsjoin.spill_bytes > 0);
        assert!(hsjoin.partitions > 0, "Grace partitions reported");
        let sort = s
            .operators
            .iter()
            .find(|o| o.name.starts_with("SORT"))
            .expect("plan has a sort tail");
        assert!(sort.spill_runs > 0, "sort tail spilled runs");
        assert!(sort.spill_bytes > 0);
    }

    #[test]
    fn spilled_executions_agree_across_budgets() {
        let db = big_db(1200);
        let q = parse_sql(SPILL_SQL).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let (t_ref, s_ref) = run(&plan, &db, &ExecConfig::sequential().with_mem_budget(None));
        for budget in [Some(8 * 1024), Some(64 * 1024), None] {
            let cfg = ExecConfig::sequential().with_mem_budget(budget);
            let (t, s) = run(&plan, &db, &cfg);
            assert_eq!(t, t_ref, "budget {budget:?}");
            let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
            let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
            assert_eq!(sans, sans_ref, "actuals modulo spill drifted");
        }
    }

    #[test]
    fn spill_counters_identical_across_batch_capacities_at_fixed_budget() {
        let db = big_db(1500);
        let q = parse_sql(SPILL_SQL).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let budget = Some(16 * 1024);
        let reference = run(
            &plan,
            &db,
            &ExecConfig::sequential().with_mem_budget(budget),
        );
        assert!(
            reference.1.operators.iter().any(|o| o.spill_runs > 0),
            "fixture must spill"
        );
        // Spill runs are cut from the row stream alone, however the rows
        // are batched.
        for cap in [1, 7] {
            let cfg = ExecConfig::sequential()
                .with_mem_budget(budget)
                .with_batch_capacity(cap);
            let got = run(&plan, &db, &cfg);
            assert_eq!(got.0, reference.0);
            let sans_batches = |s: &ExecStats| -> Vec<OpStats> {
                s.operators
                    .iter()
                    .map(|o| OpStats {
                        batches: 0,
                        ..o.clone()
                    })
                    .collect()
            };
            assert_eq!(
                sans_batches(&got.1),
                sans_batches(&reference.1),
                "full actuals but batches (spill counters included) at capacity {cap}"
            );
        }
        // Spilling changes where the rows wait, never which rows come back
        // or how much work found them: the in-memory oracle agrees.
        let (t_oracle, s_oracle) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(reference.0, t_oracle);
        assert_aggregates_match(&reference.1, &s_oracle, "spilled run");
    }

    #[test]
    fn dictionary_predicates_run_on_the_code_kernel() {
        let db = big_db(300);
        // `payload` is an all-string column, so its dictionary image is
        // live; sweep every comparison shape including absent literals.
        for (pred, engaged) in [
            ("d1.payload = 'row-000123'", true),
            ("d1.payload = 'absent'", true),
            ("d1.payload <> 'row-000123'", true),
            ("d1.payload < 'row-000100'", true),
            ("d1.payload <= 'row-0000995'", true),
            ("d1.payload > 'row-000200'", true),
            ("d1.payload >= 'row-000200'", true),
            ("'row-000100' <= d1.payload", true),
            // Mixed-type comparison stays on the untyped `Value` compare.
            ("d1.payload > 7", false),
        ] {
            let sql = format!("SELECT d1.pre AS p FROM doc AS d1 WHERE {pred} ORDER BY d1.pre");
            let q = parse_sql(&sql).unwrap();
            let plan = optimize(&q, &db).unwrap();
            let (t, s) = run(&plan, &db, &ExecConfig::sequential());
            let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
            assert_eq!(t, t_ref, "{pred}");
            assert_join_levels_match(&s, &s_ref, pred);
            let leaf = &s.operators[0];
            assert_eq!(leaf.kernel_rows > 0, engaged, "{pred}");
        }
    }

    #[test]
    fn nljoin_residual_and_access_terms_run_on_the_fused_kernel() {
        // Q1's inner probes carry `col ⋈ outer-expr` terms (`d2.pre > d1.pre`,
        // `d2.pre <= d1.pre + d1.size`, `d2.level + 1 = d3.level`): the fused
        // pass re-evaluates each right-hand side per probe and runs one
        // multi-term mask over the fetched rids, so the NLJOINs now report
        // kernel engagement instead of `kernel_rows: 0`.
        let db = db();
        let q = parse_sql(Q1_LIKE).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let (t, s) = run(&plan, &db, &ExecConfig::sequential());
        let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(t, t_ref);
        assert_aggregates_match(&s, &s_ref, "Q1-like");
        assert_join_levels_match(&s, &s_ref, "Q1-like");
        let nljoins: Vec<&OpStats> = s
            .operators
            .iter()
            .filter(|o| o.name.starts_with("NLJOIN"))
            .collect();
        assert!(!nljoins.is_empty(), "fixture plan nests at least one loop");
        assert!(
            nljoins.iter().any(|o| o.kernel_rows > 0),
            "probe terms engage the fused kernel: {nljoins:?}"
        );
    }

    /// The shipped catalog at benchmark scale 0.1: XMark and DBLP in one
    /// `doc` table under the standing index set.
    fn shipped_db() -> Database {
        use xqjg_data::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
        let xmark = XmarkConfig {
            scale: 0.1,
            seed: 2,
        };
        let dblp = DblpConfig {
            scale: 0.1,
            seed: 3,
        };
        let mut doc = xqjg_xml::DocTable::from_document("auction.xml", &generate_xmark(&xmark));
        doc.add_document("dblp.xml", &generate_dblp(&dblp));
        let mut db = Database::new();
        db.create_table("doc", xqjg_algebra::doc_relation(&doc));
        for (name, key, clustered) in [
            ("nkp", &["name", "kind", "pre"][..], false),
            ("nkdp", &["name", "kind", "data", "pre"][..], false),
            ("vnkp", &["value", "name", "kind", "pre"][..], false),
            ("p_nvkls", &["pre"][..], true),
        ] {
            let include: &[&str] = if clustered {
                &["name", "value", "kind", "level", "size"]
            } else {
                &[]
            };
            db.create_index(IndexDef {
                name: name.into(),
                table: "doc".into(),
                key_columns: key.iter().map(|c| c.to_string()).collect(),
                include_columns: include.iter().map(|c| c.to_string()).collect(),
                clustered,
            });
        }
        db
    }

    /// Is every leaf of `e` an integer literal or a column with an `i64`
    /// image (NULL-bearing or not)?
    fn integer_only(e: &CExpr, base: &Table, outer_tables: &[&Table]) -> bool {
        match e {
            CExpr::Lit(v) => matches!(v, Value::Int(_)),
            CExpr::Cur { col } => base.typed().int_col_nullable(*col).is_some(),
            CExpr::Outer { slot, col } => {
                outer_tables[*slot].typed().int_col_nullable(*col).is_some()
            }
            CExpr::Add(a, b) => {
                integer_only(a, base, outer_tables) && integer_only(b, base, outer_tables)
            }
        }
    }

    #[test]
    fn shipped_queries_leave_no_integer_nljoin_predicate_interpreted() {
        // Q1-Q6's isolated SQL, one block per `== Qn branch k` header.
        let golden = include_str!("../../bench/tests/golden_isolated.txt");
        let db = shipped_db();
        let (mut blocks, mut computed) = (0, 0);
        for block in golden.split("== ").filter(|b| !b.is_empty()) {
            let (header, sql) = block.split_once('\n').expect("header line");
            let plan = optimize(&parse_sql(sql).unwrap(), &db).unwrap();
            blocks += 1;
            for (i, stage) in flatten_stages(&plan.root, &db).iter().enumerate() {
                let cs = compile_stage(i, stage, &db);
                if !cs.label.starts_with("NLJOIN") {
                    continue;
                }
                for (split, preds) in [
                    (&cs.nl_access, &cs.access_preds),
                    (&cs.nl_residual, &cs.residual),
                ] {
                    computed += split.computed.len();
                    for &pi in &split.scalar {
                        let p = &preds[pi];
                        assert!(
                            !(integer_only(&p.lhs, cs.base, &cs.outer_tables)
                                && integer_only(&p.rhs, cs.base, &cs.outer_tables)),
                            "{header}: {} interprets an integer predicate",
                            cs.label
                        );
                    }
                }
            }
        }
        assert!(blocks >= 6, "every shipped query compiled");
        assert!(
            computed > 0,
            "Q2's upward containment checks run on the images"
        );
    }

    #[test]
    fn shipped_value_joins_probe_one_shared_code_run() {
        // Q2's two `vnkp (value = dX.value, name = 'id', kind = 'ATTR')`
        // probes are self-joins of `doc` on its dictionary-coded `value`
        // column: both compile to the coded run path, over the same terms.
        let golden = include_str!("../../bench/tests/golden_isolated.txt");
        let block = golden
            .split("== ")
            .find(|b| b.starts_with("Q2 branch 0"))
            .expect("Q2 in the golden file");
        let sql = block.split_once('\n').expect("header line").1;
        let db = shipped_db();
        let plan = optimize(&parse_sql(sql).unwrap(), &db).unwrap();
        let stages = flatten_stages(&plan.root, &db);
        let mut coded = Vec::new();
        for (i, stage) in stages.iter().enumerate() {
            let cs = compile_stage(i, stage, &db);
            let vnkp = matches!(stage.access, Access::IndexScan { index, .. } if index == "vnkp");
            match cs.run.as_ref().map(|r| &r.shape) {
                Some(RunShape::Coded { terms, .. }) => {
                    assert!(vnkp, "{} is coded", cs.label);
                    coded.push(terms.clone());
                }
                _ => assert!(!vnkp, "{} probes vnkp off the coded path", cs.label),
            }
        }
        let terms = vec![None, Some(Value::str("id")), Some(Value::str("ATTR"))];
        assert_eq!(coded, [terms.clone(), terms], "both vnkp stages");
        let out = QueryRequest::new(&plan, &db)
            .config(&ExecConfig::sequential())
            .expect_run();
        assert!(!out.rows.is_empty());
        assert_eq!(db.code_runs_built(), 1, "one run serves both stages");
        let (oracle, _) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(out.rows, oracle);
    }

    /// Rows with NULLs sprinkled through an `i64` column (`grp`) and a
    /// dictionary column (`tag`): every typed image is masked, so this
    /// fixture exercises the NULL-aware kernels end-to-end.
    fn null_db(rows: i64) -> Database {
        let mut t = Table::new(Schema::new(["pre", "grp", "tag", "payload"]));
        for i in 0..rows {
            let grp = if i % 11 == 3 {
                Value::Null
            } else {
                Value::Int(i % 23)
            };
            let tag = if i % 13 == 7 {
                Value::Null
            } else {
                Value::str(format!("t{}", i % 5))
            };
            t.push(vec![
                Value::Int(i),
                grp,
                tag,
                Value::str(format!("row-{i:05}")),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        db
    }

    #[test]
    fn null_bearing_leaf_predicates_engage_masked_kernels() {
        let db = null_db(400);
        // Every comparison shape over the NULL-bearing int and dictionary
        // columns: the masked kernels must agree with the materializing
        // oracle's `Value` comparison, and NULL never satisfies a predicate
        // — not even `<>`.
        for pred in [
            "d1.grp = 5",
            "d1.grp <> 3",
            "d1.grp >= 15",
            "d1.grp < 4",
            "d1.tag = 't3'",
            "d1.tag <> 't3'",
            "d1.tag <> 'absent'",
            "d1.tag >= 't2'",
        ] {
            let sql = format!("SELECT d1.pre AS p FROM doc AS d1 WHERE {pred} ORDER BY d1.pre");
            let q = parse_sql(&sql).unwrap();
            let plan = optimize(&q, &db).unwrap();
            let (t, s) = run(&plan, &db, &ExecConfig::sequential());
            let (t_ref, s_ref) = execute_materialized_with_stats(&plan, &db);
            assert_eq!(t, t_ref, "{pred}");
            assert_join_levels_match(&s, &s_ref, pred);
            assert!(s.operators[0].kernel_rows > 0, "{pred}: kernel engaged");
            // NULL rows never qualify: `pre % 11 == 3` rows have NULL grp,
            // `pre % 13 == 7` rows have NULL tag.
            let (m, r) = if pred.contains("grp") {
                (11, 3)
            } else {
                (13, 7)
            };
            assert!(
                t.rows().iter().all(|row| row[0].as_i64().unwrap() % m != r),
                "{pred}: NULL must not match"
            );
        }
    }

    /// A composite-key value equijoin (`i64` + dictionary key, both
    /// NULL-bearing) with no supporting index: the optimizer picks a hash
    /// join whose key image fuses both columns.
    const COMPOSITE_SQL: &str = "SELECT d1.pre AS a, d2.pre AS b \
        FROM doc AS d1, doc AS d2 \
        WHERE d1.grp = d2.grp AND d1.tag = d2.tag AND d1.pre <= 150 \
        ORDER BY d1.pre, d2.pre";

    #[test]
    fn composite_null_keys_hash_join_matches_the_oracle_even_when_spilled() {
        let db = null_db(800);
        let q = parse_sql(COMPOSITE_SQL).unwrap();
        let plan = optimize(&q, &db).unwrap();
        // Oracle for rows, order, aggregate counters and per-join-level
        // actuals: the materializing executor (owned `Vec<Value>` keys, no
        // hashing kernels, no spill).  Every other actual: the run under no
        // budget.
        let (t_ref, agg_ref) = execute_materialized_with_stats(&plan, &db);
        let (t_mem, s_ref) = run(&plan, &db, &ExecConfig::sequential().with_mem_budget(None));
        assert_eq!(t_mem, t_ref);
        assert!(
            s_ref.operators.iter().any(|o| o.name.starts_with("HSJOIN")),
            "fixture plan must contain a hash join"
        );
        // NULL keys never join (no NULL = NULL matches).
        assert!(t_ref
            .rows()
            .iter()
            .all(|r| r[0].as_i64().unwrap() % 11 != 3 && r[0].as_i64().unwrap() % 13 != 7));
        let mut spilled = false;
        for budget in [None, Some(8 * 1024)] {
            let cfg = ExecConfig::sequential().with_mem_budget(budget);
            let (t, s) = run(&plan, &db, &cfg);
            let what = format!("budget {budget:?}");
            assert_eq!(t, t_ref, "{what}");
            assert_aggregates_match(&s, &agg_ref, &what);
            assert_join_levels_match(&s, &agg_ref, &what);
            let sans: Vec<OpStats> = s.operators.iter().map(OpStats::sans_spill).collect();
            let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
            assert_eq!(sans, sans_ref, "{what}");
            let hsjoin = s
                .operators
                .iter()
                .find(|o| o.name.starts_with("HSJOIN"))
                .unwrap();
            // The fused gather+hash pass engages — NULL-bearing keys
            // included — and its hashes route the spilled leg through the
            // same Grace partitions as the `Value` hash chain.
            assert!(hsjoin.kernel_rows > 0, "{what}");
            spilled |= hsjoin.partitions > 0;
        }
        assert!(spilled, "the tiny budget must exercise the spilled leg");
    }

    #[test]
    fn sort_based_distinct_matches_the_dedup_set_exactly() {
        let db = big_db(2000);
        let sql = "SELECT DISTINCT d1.grp AS g FROM doc AS d1 ORDER BY d1.grp";
        let q = parse_sql(sql).unwrap();
        let plan = optimize(&q, &db).unwrap();
        assert!(plan.distinct);
        // The unbudgeted tail dedups in one hash pass; it and the
        // materializing oracle's dedup set are the references.
        let unlimited = ExecConfig::sequential().with_mem_budget(None);
        let (t_ref, s_ref) = run(&plan, &db, &unlimited);
        assert_eq!(t_ref.len(), 97);
        let (t_oracle, s_oracle) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(t_ref, t_oracle);
        for budget in [Some(4 * 1024), Some(64 * 1024)] {
            // A limited budget engages the two-pass sort DISTINCT.
            let base = ExecConfig::sequential().with_mem_budget(budget);
            let (t_sort, s_sort) = run(&plan, &db, &base);
            assert_eq!(t_sort, t_ref, "budget {budget:?}");
            assert_join_levels_match(&s_sort, &s_oracle, &format!("budget {budget:?}"));
            let sans_sort: Vec<OpStats> =
                s_sort.operators.iter().map(OpStats::sans_spill).collect();
            let sans_ref: Vec<OpStats> = s_ref.operators.iter().map(OpStats::sans_spill).collect();
            assert_eq!(sans_sort, sans_ref);
        }
        // Under real pressure the sort DISTINCT spills.
        let tight = ExecConfig::sequential().with_mem_budget(Some(4 * 1024));
        let (_, s) = run(&plan, &db, &tight);
        let tail = s.operators.last().unwrap();
        assert_eq!(tail.name, "SORT(distinct)");
        assert!(tail.spill_runs > 0, "distinct tail spilled");
    }

    #[test]
    fn cached_build_sides_charge_the_executing_budget() {
        let db = big_db(900);
        let q = parse_sql(SPILL_SQL).unwrap();
        let plan = optimize(&q, &db).unwrap();
        // A budget wide enough that the build side stays in memory (and so
        // cacheable) but tight enough that the SORT tail spills: the spill
        // pattern then depends on how much of the budget the build
        // occupies — which must be identical whether the build was made
        // fresh or fetched from the session cache.
        let budget = Some(256 * 1024);
        let cache = BuildCache::new();
        let cfg = ExecConfig::sequential().with_mem_budget(budget);
        let (t1, s1) = run_cached(&plan, &db, &cfg, &cache);
        assert_eq!(cache.hits(), 0);
        let (t2, s2) = run_cached(&plan, &db, &cfg, &cache);
        assert!(cache.hits() > 0, "second run hits the cache");
        assert_eq!(t1, t2);
        let sort1 = s1.operators.last().unwrap();
        let sort2 = s2.operators.last().unwrap();
        assert!(sort1.spill_runs > 0, "fixture pressures the sort tail");
        assert_eq!(
            (sort1.spill_runs, sort1.spill_bytes),
            (sort2.spill_runs, sort2.spill_bytes),
            "a cache hit must occupy the budget exactly like a fresh build"
        );
    }

    #[test]
    fn spilled_builds_are_not_cached() {
        let db = big_db(2000);
        let q = parse_sql(SPILL_SQL).unwrap();
        let plan = optimize(&q, &db).unwrap();
        let cache = BuildCache::new();
        let tight = ExecConfig::sequential().with_mem_budget(Some(16 * 1024));
        let (t1, s1) = run_cached(&plan, &db, &tight, &cache);
        assert!(
            s1.operators.iter().any(|o| o.partitions > 0),
            "build must spill under the tight budget"
        );
        assert!(cache.lookups() > 0);
        assert!(
            cache.is_empty(),
            "a spilled build must not be memoized in the session cache"
        );
        let (t2, s2) = run_cached(&plan, &db, &tight, &cache);
        assert_eq!(t1, t2);
        assert_eq!(cache.hits(), 0, "second run rebuilds, it cannot hit");
        assert!(s2.operators.iter().all(|o| o.cache_hits == 0));
        // The same query under an unlimited budget is cached as before.
        let unlimited = ExecConfig::sequential().with_mem_budget(None);
        run_cached(&plan, &db, &unlimited, &cache);
        assert!(!cache.is_empty());
        let (_, s4) = run_cached(&plan, &db, &unlimited, &cache);
        assert!(s4.operators.iter().any(|o| o.cache_hits > 0));
    }

    #[test]
    fn exec_stats_merge_folds_counters() {
        let mut a = ExecStats {
            index_rows: 1,
            scan_rows: 2,
            probes: 3,
            bindings: 4,
            operators: vec![OpStats::named("IXSCAN(d1)")],
        };
        let b = ExecStats {
            index_rows: 10,
            scan_rows: 20,
            probes: 30,
            bindings: 40,
            operators: vec![OpStats::named("SORT")],
        };
        a.merge(&b);
        assert_eq!(a.index_rows, 11);
        assert_eq!(a.scan_rows, 22);
        assert_eq!(a.probes, 33);
        assert_eq!(a.bindings, 44);
        assert_eq!(a.operators.len(), 2);
    }
}
