//! Hash-join build sides and their spill glue: the build enumeration, its
//! Grace partitions and probe-side partition cache, the budget bookings
//! of one execution, and the cross-query [`BuildCache`].

use super::access::{stage_domain, AccessFilter};
use super::stage::{CStage, Stage};
use crate::physical::Access;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use xqjg_store::{
    hash_values, ExecError, GraceBuilder, Interrupt, MemBudget, SpilledPartitions,
    BUILD_ENTRY_FOOTPRINT,
};

/// Rids a hash-join build enumerates per step (one interrupt poll each).
const BUILD_CHUNK: usize = 4096;

/// Everything the spill machinery of one execution needs: the shared
/// [`MemBudget`] accountant, the run directory and the
/// cancellation/deadline context.
#[derive(Clone)]
pub(super) struct SpillCtx {
    pub(super) budget: Arc<MemBudget>,
    pub(super) dir: PathBuf,
    pub(super) interrupt: Interrupt,
}

/// Bytes booked against the execution's budget, released when the guard
/// drops — success and error paths alike, so every early `?` return still
/// drains the budget to zero.
pub(super) struct Booked {
    budget: Arc<MemBudget>,
    bytes: usize,
}

impl Booked {
    pub(super) fn new(budget: Arc<MemBudget>) -> Booked {
        Booked { budget, bytes: 0 }
    }

    /// Book unconditionally (the memory already exists).
    pub(super) fn force(&mut self, bytes: usize) {
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
    pub(super) fn clear(&mut self) {
        self.budget.release(self.bytes);
        self.bytes = 0;
    }
}

impl Drop for Booked {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Declared first in `run_with_caches` so it drops last: by then every
/// operator, sorter, probe cache and booking guard has released its
/// reservations, and a non-zero balance is an accounting bug.
pub(super) struct DrainCheck(pub(super) Arc<MemBudget>);

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
pub(super) enum BuildBackend {
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
    pub(super) key_cols: Vec<usize>,
    pub(super) backend: BuildBackend,
    pub(super) build_rows: usize,
    /// Rows fetched through a table scan while enumerating the build side.
    pub(super) fetched_scan: usize,
    /// Rows fetched through an index while enumerating the build side.
    pub(super) fetched_index: usize,
    /// Partition files written while Grace-partitioning (0 for in-memory
    /// builds).
    pub(super) spill_runs: usize,
    /// Bytes written while Grace-partitioning.
    pub(super) spill_bytes: usize,
    /// Leaf partitions of a spilled build (0 for in-memory builds).
    pub(super) partitions: usize,
    /// Transient write failures retried while Grace-partitioning.
    pub(super) retries: usize,
    /// Footprint of the in-memory bucket table in bytes.  The build holds
    /// no reservation of its own (it may outlive its execution in a
    /// session cache): every execution that uses the build — fresh or
    /// cached — books this many bytes against *its* budget for its
    /// lifetime, so hit and miss runs make identical spill decisions.
    pub(super) reserved: usize,
}

impl JoinBuild {
    pub(super) fn build(stage: &CStage<'_>, spill: &SpillCtx) -> Result<JoinBuild, ExecError> {
        // No postings context here: the build cache memoizes the whole
        // finished build, so memoizing its enumeration scan too would
        // only duplicate the rid list in two caches.
        let domain = stage_domain(stage, None);
        let mut filter = AccessFilter::new(stage);
        let scan = matches!(stage.access, Access::TableScan { .. });
        let (mut fetched_scan, fetched_index) = (0, if scan { 0 } else { domain.len() });
        let key_cols: Vec<usize> = stage.hash_keys.iter().map(|&(_, col)| col).collect();
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut build_rows = 0;
        // Build-time bookings release on every exit — the error paths out
        // of the Grace writers included — and on success just before the
        // caller re-books the finished table's footprint.
        let mut res = Booked::new(spill.budget.clone());
        let mut grace: Option<GraceBuilder> = None;
        let mut rids: Vec<usize> = Vec::new();
        for start in (0..domain.len()).step_by(BUILD_CHUNK) {
            spill.interrupt.check()?;
            domain.fill(start, BUILD_CHUNK, &mut rids);
            filter.retain(&mut rids);
            if scan {
                fetched_scan += rids.len();
            }
            for &rid in &rids {
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
                // scan order, and loads group by hash — so probe results
                // and their order are identical to the in-memory backend).
                let mut g = GraceBuilder::new(spill.dir.clone())?;
                g.set_interrupt(spill.interrupt.clone());
                for (bh, bucket) in buckets.drain() {
                    for brid in bucket {
                        g.add(bh, brid)?;
                    }
                }
                res.clear();
                g.add(h, rid)?;
                grace = Some(g);
            }
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
    pub(super) fn cache_key(stage: &Stage<'_>) -> String {
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
pub(super) struct PartitionProbe<'a> {
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
    pub(super) fn new(parts: &'a SpilledPartitions, budget: Arc<MemBudget>) -> Self {
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
    pub(super) fn spool(&mut self, hashes: &[Option<u64>]) -> Result<Vec<Vec<usize>>, ExecError> {
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
/// [`xqjg_store::ShardedLru`], so it is `Arc`-shared across `Processor`
/// instances (cloning the handle shares the cache) and bounded for
/// long-lived sessions: each build is charged its resident bucket-table
/// footprint and least-recently-used builds evict when the bound trips.
/// Repeated queries skip re-enumerating and re-bucketing unchanged build
/// sides; hits surface as `cache_hits` in the operator's
/// [`OpStats`](xqjg_store::OpStats).  The cached builds are shared
/// read-only (`Arc`) with each execution, which still books
/// `JoinBuild::reserved` against its own budget — hit and miss runs make
/// identical spill decisions.
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
    pub(super) fn get_or_build(
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
