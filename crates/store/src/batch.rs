//! The pipelined execution substrate: batches and the pull-based
//! [`Operator`] interface.
//!
//! The stacked-plan evaluator (`xqjg-algebra`) and the pureXML-style
//! navigational baseline (`xqjg-purexml`) execute as trees of operators
//! that exchange fixed-capacity [`Batch`]es through the classical `open` /
//! `next_batch` / `close` protocol; the isolated join graph
//! (`xqjg-engine`) runs the same protocol over columnar batches (see
//! [`crate::columnar`]) and shares the [`OpStats`] counters and the
//! [`StatsSink`] defined here.  Pipelining replaces
//! the materialize-everything evaluation the seed shipped with: an operator
//! only ever holds one batch of its input (plus whatever a genuine pipeline
//! breaker — hash build, sort — must buffer by nature).
//!
//! The batch capacity is a runtime parameter (defaulting to
//! [`BATCH_CAPACITY`], see [`crate::ExecConfig`]) so the tests can force
//! batch boundaries and the benchmark harness can sweep it.
//!
//! Every operator keeps its own [`OpStats`] work counters and reports them
//! into a shared [`StatsSink`] on `close`, children first, which is how
//! `EXPLAIN` output and the benchmark harness see per-operator rows
//! in/out, probe and batch counts.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Default number of tuples a [`Batch`] holds at most.  Small enough that a
/// batch of row ids stays cache-resident, large enough to amortize the
/// virtual dispatch of `next_batch` over many tuples.
pub const BATCH_CAPACITY: usize = 1024;

/// A fixed-capacity batch of tuples flowing between operators.
///
/// The tuple type is generic: the algebra evaluator moves computed value
/// rows, the navigational baseline moves node ranks.
#[derive(Debug, Clone)]
pub struct Batch<T> {
    items: Vec<T>,
    cap: usize,
}

impl<T> Batch<T> {
    /// An empty batch with room for [`BATCH_CAPACITY`] tuples.
    pub fn new() -> Self {
        Self::with_capacity(BATCH_CAPACITY)
    }

    /// An empty batch with room for `cap` tuples (`cap` ≥ 1).
    pub fn with_capacity(cap: usize) -> Self {
        debug_assert!(cap > 0, "batch capacity must be positive");
        Batch {
            items: Vec::with_capacity(cap.max(1)),
            cap: cap.max(1),
        }
    }

    /// Build a batch directly from a tuple vector.  The batch is sized to
    /// the default capacity, or to the vector's length when that is larger
    /// — producers slicing their own input never overflow.
    pub fn from_items(items: Vec<T>) -> Self {
        let cap = items.len().max(BATCH_CAPACITY);
        Batch { items, cap }
    }

    /// Append a tuple.
    ///
    /// Producers must check [`Batch::is_full`] and hand the batch
    /// downstream first; pushing into a full batch is a logic error
    /// (checked in debug builds only — this sits on the per-tuple hot
    /// path).
    pub fn push(&mut self, item: T) {
        debug_assert!(!self.is_full(), "batch overflow: push into a full batch");
        self.items.push(item);
    }

    /// Bulk-append tuples from a slice, up to the remaining capacity.
    /// Returns how many tuples were consumed — the caller advances its
    /// cursor by that amount.  This is the leaf-scan fast path: one
    /// `memcpy`-style extend instead of a per-tuple `push`.
    pub fn fill_from_slice(&mut self, src: &[T]) -> usize
    where
        T: Clone,
    {
        let n = (self.cap - self.items.len()).min(src.len());
        self.items.extend_from_slice(&src[..n]);
        n
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Has the batch reached capacity?
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.cap
    }

    /// The number of tuples this batch can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The buffered tuples.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Keep only the tuples whose index appears in the (ascending)
    /// selection vector.  Survivors are compacted in place — dropped
    /// tuples are never cloned or re-materialized, which is how the
    /// row-batch world consumes a selection vector computed over borrowed
    /// tuples (see the σ operator of the algebra evaluator).
    pub fn retain_selected(&mut self, sel: &[u32]) {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        let mut sel_pos = 0usize;
        let mut index = 0u32;
        self.items.retain(|_| {
            let keep = sel.get(sel_pos) == Some(&index);
            if keep {
                sel_pos += 1;
            }
            index += 1;
            keep
        });
    }
}

impl<T> Default for Batch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IntoIterator for Batch<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// Work counters of a single operator instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Operator label as it appears in EXPLAIN output (e.g. `IXSCAN(d2)`).
    pub name: String,
    /// Tuples pulled from the operator's input(s).
    pub rows_in: usize,
    /// Tuples handed to the operator's consumer.
    pub rows_out: usize,
    /// Batches handed to the operator's consumer.
    pub batches: usize,
    /// Probe operations performed (index nested-loop lookups, hash-table
    /// probes).
    pub probes: usize,
    /// Index entries plus table rows the operator's access path examined
    /// before its residual predicates ran: B-tree range-scan entries of an
    /// `IXSCAN` (leaf, per-probe inner, or hash-join build enumeration) and
    /// rows a `TBSCAN` kept past its pushed-down filters.  The per-operator
    /// split of the query totals `index_rows + scan_rows`.
    pub fetched: usize,
    /// Rows buffered by a pipeline breaker (hash-join build side, sort
    /// input).
    pub build_rows: usize,
    /// Build-side constructions satisfied from the session build cache
    /// instead of being recomputed (hash joins only).
    pub cache_hits: usize,
    /// Sorted runs / partition files the operator wrote to disk under
    /// memory pressure (SORT run generation, Grace build partitioning —
    /// repartitioning passes count, they are real I/O).
    pub spill_runs: usize,
    /// Bytes the operator wrote to disk under memory pressure.
    pub spill_bytes: usize,
    /// Leaf partitions of a Grace-partitioned (spilled) hash-join build
    /// side; zero for in-memory builds.
    pub partitions: usize,
    /// Transient spill-write failures the operator retried past (at most
    /// [`crate::DEFAULT_SPILL_RETRIES`] per write); zero on a healthy disk.
    pub retries: usize,
    /// Rows the operator pushed through the typed-column kernels (compare/
    /// hash/sort over `i64` or dictionary-code images) instead of scalar
    /// [`crate::Value`] operations.  Zero when the relevant columns are not
    /// uniformly typed, or — on the SORT tail — when the sorter went
    /// external (spilled runs merge through the scalar record comparator).
    /// Deterministic for a fixed configuration: the
    /// engagement decision is per operator, never per batch, so the counter
    /// is invariant across batch sizing like every other actual.
    pub kernel_rows: usize,
}

impl OpStats {
    /// A zeroed counter set for the named operator.
    pub fn named(name: impl Into<String>) -> Self {
        OpStats {
            name: name.into(),
            ..OpStats::default()
        }
    }

    /// A copy with the memory-governor-dependent counters zeroed — the
    /// equality the spill-parity suite uses: execution under any memory
    /// budget must match the unlimited-budget actuals *modulo* how much was
    /// spilled.  `kernel_rows` is zeroed too: the SORT tail's typed kernel
    /// only engages when the sorter stayed in memory, so kernel engagement
    /// is itself a governor effect (and the typed-parity suite compares the
    /// typed and scalar paths through this same normalization).
    pub fn sans_spill(&self) -> OpStats {
        OpStats {
            spill_runs: 0,
            spill_bytes: 0,
            partitions: 0,
            retries: 0,
            kernel_rows: 0,
            ..self.clone()
        }
    }

    /// One-line rendering used by EXPLAIN and the bench harness.
    pub fn render(&self) -> String {
        let mut parts = vec![
            format!("rows_out={}", self.rows_out),
            format!("batches={}", self.batches),
        ];
        if self.rows_in > 0 {
            parts.insert(0, format!("rows_in={}", self.rows_in));
        }
        if self.probes > 0 {
            parts.push(format!("probes={}", self.probes));
        }
        if self.fetched > 0 {
            parts.push(format!("fetched={}", self.fetched));
            if self.probes > 0 {
                parts.push(format!(
                    "fetched/probe={:.1}",
                    self.fetched as f64 / self.probes as f64
                ));
            }
        }
        if self.build_rows > 0 {
            parts.push(format!("build_rows={}", self.build_rows));
        }
        if self.cache_hits > 0 {
            parts.push(format!("cache_hits={}", self.cache_hits));
        }
        if self.spill_runs > 0 {
            parts.push(format!("spill_runs={}", self.spill_runs));
        }
        if self.spill_bytes > 0 {
            parts.push(format!("spill_bytes={}", self.spill_bytes));
        }
        if self.partitions > 0 {
            parts.push(format!("partitions={}", self.partitions));
        }
        if self.retries > 0 {
            parts.push(format!("retries={}", self.retries));
        }
        if self.kernel_rows > 0 {
            parts.push(format!("kernel_rows={}", self.kernel_rows));
        }
        if self.rows_in > 0 {
            parts.push(format!(
                "sel={:.3}",
                self.rows_out as f64 / self.rows_in as f64
            ));
        }
        if self.batches > 0 {
            parts.push(format!(
                "avg_vec={:.1}",
                self.rows_out as f64 / self.batches as f64
            ));
        }
        format!("{}: {}", self.name, parts.join(" "))
    }
}

/// Shared collection point for per-operator counters: every operator pushes
/// its [`OpStats`] here when it is closed (children before parents).
/// Deliberately *not* thread-safe: one operator tree runs on one thread.
pub type StatsSink = Rc<RefCell<Vec<OpStats>>>;

/// A fresh, empty stats sink.
pub fn new_stats_sink() -> StatsSink {
    Rc::new(RefCell::new(Vec::new()))
}

/// The pull-based physical operator interface (volcano-style, but a batch
/// of tuples per call instead of one).
pub trait Operator {
    /// The tuple type this operator produces.
    type Item;

    /// Prepare for producing tuples (build hash tables, position scans).
    fn open(&mut self);

    /// Produce the next batch, or `None` once the input is exhausted.
    /// Returned batches are non-empty.
    fn next_batch(&mut self) -> Option<Batch<Self::Item>>;

    /// Release resources and report counters to the stats sink.
    fn close(&mut self);

    /// The operator's current work counters.
    fn stats(&self) -> OpStats;
}

/// A heap-allocated operator, the form operator trees are composed from.
pub type BoxedOperator<'a, T> = Box<dyn Operator<Item = T> + 'a>;

/// Drive an operator tree to completion: `open`, pull every batch, `close`,
/// returning all produced tuples.
pub fn drain<T>(op: &mut dyn Operator<Item = T>) -> Vec<T> {
    op.open();
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch() {
        out.extend(batch);
    }
    op.close();
    out
}

/// Fill a batch (of the default [`BATCH_CAPACITY`]) from a pending queue,
/// invoking `refill` to replenish the queue — one input step per call —
/// whenever it runs dry.  `refill` returns `false` once the input is
/// exhausted.  This is the shared produce-consume loop of every expanding
/// row operator (algebra joins probing an outer binding into several
/// matches, traversals expanding a segment into its result nodes).
pub fn fill_from_pending<T>(
    pending: &mut VecDeque<T>,
    mut refill: impl FnMut(&mut VecDeque<T>) -> bool,
) -> Option<Batch<T>> {
    let mut out: Batch<T> = Batch::with_capacity(BATCH_CAPACITY);
    while !out.is_full() {
        if let Some(item) = pending.pop_front() {
            out.push(item);
            continue;
        }
        if !refill(pending) {
            break;
        }
    }
    (!out.is_empty()).then_some(out)
}

/// A source operator emitting an owned vector of tuples in batches.  The
/// universal leaf for pre-computed inputs (memoized sub-plans, literal
/// tables, index postings).
pub struct VecSource<T> {
    items: Vec<T>,
    pos: usize,
    cap: usize,
    stats: OpStats,
    sink: Option<StatsSink>,
}

impl<T> VecSource<T> {
    /// Create a source over the given tuples.
    pub fn new(name: impl Into<String>, items: Vec<T>, sink: Option<StatsSink>) -> Self {
        VecSource {
            items,
            pos: 0,
            cap: BATCH_CAPACITY,
            stats: OpStats::named(name),
            sink,
        }
    }

    /// Emit batches of at most `cap` tuples instead of the default
    /// [`BATCH_CAPACITY`].
    pub fn with_batch_capacity(mut self, cap: usize) -> Self {
        self.cap = cap.max(1);
        self
    }
}

impl<T: Clone> Operator for VecSource<T> {
    type Item = T;

    fn open(&mut self) {
        self.pos = 0;
    }

    fn next_batch(&mut self) -> Option<Batch<T>> {
        if self.pos >= self.items.len() {
            return None;
        }
        let mut batch = Batch::with_capacity(self.cap);
        self.pos += batch.fill_from_slice(&self.items[self.pos..]);
        self.stats.rows_out += batch.len();
        self.stats.batches += 1;
        Some(batch)
    }

    fn close(&mut self) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().push(self.stats.clone());
        }
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_capacity_enforced() {
        let mut b: Batch<usize> = Batch::new();
        for i in 0..BATCH_CAPACITY {
            b.push(i);
        }
        assert!(b.is_full());
        assert_eq!(b.len(), BATCH_CAPACITY);
        assert_eq!(b.capacity(), BATCH_CAPACITY);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "overflow check is debug-only")]
    #[should_panic(expected = "batch overflow")]
    fn batch_overflow_panics_in_debug_builds() {
        let mut b: Batch<usize> = Batch::new();
        for i in 0..=BATCH_CAPACITY {
            b.push(i);
        }
    }

    #[test]
    fn runtime_capacity_bounds_the_batch() {
        let mut b: Batch<usize> = Batch::with_capacity(3);
        assert_eq!(b.capacity(), 3);
        b.push(1);
        b.push(2);
        assert!(!b.is_full());
        b.push(3);
        assert!(b.is_full());
    }

    #[test]
    fn fill_from_slice_respects_capacity_and_reports_consumption() {
        let mut b: Batch<usize> = Batch::with_capacity(4);
        b.push(0);
        let src: Vec<usize> = (1..10).collect();
        let n = b.fill_from_slice(&src);
        assert_eq!(n, 3);
        assert_eq!(b.items(), &[0, 1, 2, 3]);
        assert!(b.is_full());
        assert_eq!(b.fill_from_slice(&src), 0);
    }

    #[test]
    fn retain_selected_compacts_in_place() {
        let mut b = Batch::from_items((0..8).collect::<Vec<_>>());
        b.retain_selected(&[1, 4, 7]);
        assert_eq!(b.items(), &[1, 4, 7]);
        b.retain_selected(&[]);
        assert!(b.is_empty());
    }

    #[test]
    fn from_items_grows_capacity_to_fit() {
        let b = Batch::from_items((0..BATCH_CAPACITY + 5).collect::<Vec<_>>());
        assert_eq!(b.len(), BATCH_CAPACITY + 5);
        assert!(b.is_full());
    }

    #[test]
    fn vec_source_emits_in_batches_and_reports_stats() {
        let n = BATCH_CAPACITY * 2 + 7;
        let sink = new_stats_sink();
        let mut src = VecSource::new("SRC", (0..n).collect::<Vec<_>>(), Some(sink.clone()));
        let out = drain(&mut src);
        assert_eq!(out.len(), n);
        assert_eq!(out[0], 0);
        assert_eq!(out[n - 1], n - 1);
        let stats = sink.borrow();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].rows_out, n);
        assert_eq!(stats[0].batches, 3);
    }

    #[test]
    fn vec_source_honors_runtime_batch_capacity() {
        let mut src =
            VecSource::new("SRC", (0..10).collect::<Vec<_>>(), None).with_batch_capacity(4);
        let mut batches = 0;
        src.open();
        while let Some(b) = src.next_batch() {
            assert!(b.len() <= 4);
            batches += 1;
        }
        src.close();
        assert_eq!(batches, 3);
    }

    #[test]
    fn empty_source_produces_no_batches() {
        let mut src: VecSource<usize> = VecSource::new("SRC", vec![], None);
        assert!(drain(&mut src).is_empty());
        assert_eq!(src.stats().batches, 0);
    }

    #[test]
    fn fill_from_pending_drains_queue_then_refills() {
        let mut pending: VecDeque<usize> = VecDeque::from(vec![1, 2]);
        let mut inputs = vec![vec![3, 4], vec![], vec![5]].into_iter();
        let mut collected = Vec::new();
        while let Some(batch) = fill_from_pending(&mut pending, |p| match inputs.next() {
            Some(items) => {
                p.extend(items);
                true
            }
            None => false,
        }) {
            collected.extend(batch);
        }
        assert_eq!(collected, vec![1, 2, 3, 4, 5]);
        assert!(pending.is_empty());
    }

    #[test]
    fn opstats_render_mentions_counters() {
        let mut s = OpStats::named("HSJOIN(d2)");
        s.rows_in = 10;
        s.rows_out = 4;
        s.batches = 1;
        s.probes = 10;
        s.build_rows = 6;
        let r = s.render();
        assert!(r.contains("HSJOIN(d2)"));
        assert!(r.contains("rows_in=10"));
        assert!(r.contains("probes=10"));
        assert!(r.contains("build_rows=6"));
        assert!(!r.contains("fetched"), "zero fetch work is not printed");
        s.fetched = 25;
        assert!(s
            .render()
            .contains("probes=10 fetched=25 fetched/probe=2.5"));
        // A leaf examines entries without probing anything.
        s.probes = 0;
        assert!(s.render().contains("fetched=25"));
        assert!(!s.render().contains("fetched/probe"));
    }
}
