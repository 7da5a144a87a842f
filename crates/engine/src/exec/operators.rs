//! The three pipeline operators: the scan leaf, the nested-loop join and
//! the hash-join probe.

use super::access::{cindex_range, retain_rids, AccessFilter, LeafDomain, PostingsCtx, RunProbe};
use super::build::{BuildBackend, JoinBuild, PartitionProbe};
use super::request::{ErrSlot, SharedAgg};
use super::stage::{
    ceval, cpred_holds, outer_only, CPred, CStage, ColEnv, GatheredKey, KeyImage, NlSplit,
};
use crate::physical::Access;
use std::sync::Arc;
use xqjg_store::{
    gather_i64, gather_u32, hash_keys_typed, hash_values, mask_terms, BitMask, ColOperator,
    ColumnBatch, HashKey, Interrupt, MaskTerm, MemBudget, OpStats, StatsSink, Value,
};

/// Columnar scan leaf: fills one rid column directly from the leaf domain
/// (a bulk extend, not a per-tuple push), then filters it through the
/// stage's [`AccessFilter`].  Each call scans `cap` domain positions, and
/// each scan first polls the interrupt, so a cancelled or timed-out query
/// stops within one batch of leaf work.
pub(super) struct ColScanLeaf<'a> {
    stage: &'a CStage<'a>,
    domain: &'a LeafDomain,
    /// Next domain position to scan.
    pos: usize,
    cap: usize,
    /// Rows surviving the pushed-down filters (TBSCAN accounting).
    scan_rows: usize,
    filter: AccessFilter<'a>,
    stats: OpStats,
    sink: StatsSink,
    agg: SharedAgg,
    interrupt: Interrupt,
    /// Where a cancellation or timeout is reported; the leaf then stops.
    err: ErrSlot,
}

impl<'a> ColScanLeaf<'a> {
    pub(super) fn new(
        stage: &'a CStage<'a>,
        domain: &'a LeafDomain,
        cap: usize,
        sink: StatsSink,
        agg: SharedAgg,
        interrupt: Interrupt,
        err: ErrSlot,
    ) -> Self {
        ColScanLeaf {
            stage,
            domain,
            pos: 0,
            cap,
            scan_rows: 0,
            filter: AccessFilter::new(stage),
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
        loop {
            if let Err(e) = self.interrupt.check() {
                self.err.borrow_mut().get_or_insert(e);
                return None;
            }
            if self.pos == self.domain.len() {
                return None;
            }
            let mut out = ColumnBatch::new(1, self.cap);
            let rids = out.col_mut(0);
            self.domain.fill(self.pos, self.cap, rids);
            self.pos += rids.len();
            // Dropped rows are never materialized.
            self.stats.kernel_rows += self.filter.retain(rids);
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

/// Columnar index/scan nested-loop join: consumes outer batches whole,
/// probing the inner access path once per live outer row through compiled
/// bounds and predicates (no schema lookups, no value clones on the
/// comparison path).  Every probe runs the stage's NLJOIN lowerings
/// ([`NlSplit`]) as selection kernels over the inner column images:
/// constant-rhs predicates pre-materialize one survivor rid list per
/// `TBSCAN` inner (shared by every probe of this operator instance),
/// outer-dependent `i64` comparisons fuse into one multi-term mask pass
/// per probe, computed integer checks (`outer.pre <= cur.pre + cur.size`)
/// run per candidate rid over the images, and the rest (strings,
/// decimals) interprets per candidate rid.  An `IXSCAN` inner under a
/// literal equality prefix fetches by two binary searches over the
/// prefix's `PrefixRun`, and a value self-join's by two over the outer
/// row's code in a `CodeRun` (see [`ColNLJoin::fetch_index`]).
pub(super) struct ColNLJoin<'a> {
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
    pub(super) fn new(
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
    /// operator over a `RunSpec` stage searches the stage's run — by
    /// its integer range bounds (`PrefixRun`) or by the outer row's
    /// dictionary code (`CodeRun`); the first probe, a probe whose
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

    /// One probe: candidate rids flow through the access-level and
    /// residual-level [`NlSplit`]s as packed-mask passes and the
    /// interpreted remainder, then extend the outer row in fetch order.
    fn probe(&mut self, batch: &ColumnBatch, phys: usize, out: &mut ColumnBatch) {
        self.stats.probes += 1;
        let stage = self.stage;
        let env = &ColEnv {
            tables: &stage.outer_tables,
            cols: batch.cols(),
            idx: phys,
        };
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
        // 3. Residual filtering and emission (ascending/fetch rid order).
        //    Residual static terms join the fused pass — there is no
        //    shared candidate list to bake them into.
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
    /// Pre-resolved build candidates per probe row of a spilled build,
    /// spooled into Grace-partition order at prepare time (each partition
    /// loaded at most once per batch).
    cands: Option<Vec<Vec<usize>>>,
    pos: usize,
}

/// Columnar hash-join probe over a shared (possibly cached) build side.
/// A spilled build is probed through the operator's [`PartitionProbe`]
/// cache, one batch of probe hashes at a time.
pub(super) struct ColHashJoin<'a> {
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
    pub(super) fn new(
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
            let cands = self.spool(&hashes);
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
            let cands = self.spool(&hashes);
            ProbeState {
                batch,
                keys,
                gkeys: Vec::new(),
                hashes,
                cands,
                pos: 0,
            }
        }
    }

    /// Probe side of a spilled build: group a batch's rows by Grace
    /// partition up front so each partition file is read at most once per
    /// batch (`None` for an in-memory build).  A failed partition load
    /// parks its error in the slot and leaves the batch candidate-less —
    /// `next_batch` stops producing on the next poll.
    fn spool(&mut self, hashes: &[Option<u64>]) -> Option<Vec<Vec<usize>>> {
        let parts = self.parts.as_mut()?;
        Some(parts.spool(hashes).unwrap_or_else(|e| {
            self.err.borrow_mut().get_or_insert(e);
            vec![Vec::new(); hashes.len()]
        }))
    }

    fn probe(&mut self, st: &ProbeState, i: usize, out: &mut ColumnBatch) {
        self.stats.probes += 1;
        let Some(h) = st.hashes[i] else { return };
        let build = self.build;
        let stage = self.stage;
        let candidates: &[usize] = match (&st.cands, &build.backend) {
            // Spooled at prepare time (probe of a spilled build).
            (Some(c), _) => &c[i],
            (None, BuildBackend::Mem(buckets)) => buckets.get(&h).map_or(&[][..], Vec::as_slice),
            (None, BuildBackend::Spilled(_)) => unreachable!("spilled probes are spooled"),
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
