//! The plan tail — DISTINCT, ORDER BY, RETURN — over gathered columns,
//! and the two-pass sort-based DISTINCT of a budgeted execution.

use super::build::SpillCtx;
use super::stage::{ceval, compile_expr, CExpr, ColEnv};
use crate::physical::PhysPlan;
use crate::sql::{SelectItem, SqlExpr};
use xqjg_store::{
    gather_i64, hash_values, sort_permutation_i64, sort_permutation_typed, BitMask, ColumnBatch,
    ExecError, ExternalSorter, Row, SortKey, SortVals, SortedRows, Table, Value,
};

/// The budgeted sort-based DISTINCT (see `run_with_caches`): `pass1` holds
/// pass-1 records keyed by the select row; survivors re-sort by their
/// order key (`kw` columns) under their original sequence.
pub(super) fn sort_distinct_two_pass(
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
pub(super) struct TailSpec<'a> {
    sources: Vec<TailSource<'a>>,
    pub(super) select: Vec<usize>,
    pub(super) order: Vec<usize>,
}

impl<'a> TailSpec<'a> {
    /// Resolve the tail of `plan` against the stage aliases and their base
    /// tables (batch column order).
    pub(super) fn resolve(
        plan: &PhysPlan,
        aliases: &[String],
        tables: &[&'a Table],
    ) -> TailSpec<'a> {
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
    pub(super) fn columns(&self) -> Vec<TailCol> {
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
    pub(super) fn gather(&self, batch: &ColumnBatch, tables: &[&Table], cols: &mut [TailCol]) {
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
pub(super) fn values_at(cols: &[TailCol], which: &[usize], i: usize) -> Row {
    which.iter().map(|&c| cols[c].value(i)).collect()
}

/// One tail column's gathered values: one batch's under a budget, else
/// the whole execution's.
pub(super) enum TailCol {
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
pub(super) fn finish_tail(
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
