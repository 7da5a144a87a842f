//! Columnar batches with selection vectors — the substrate of the
//! join-graph executor (`xqjg-engine`).
//!
//! A [`ColumnBatch`] of join bindings is one contiguous rid column per
//! bound alias, all columns the same length, plus a *selection vector*
//! naming the rows that are still alive.  Filters refine the selection
//! vector instead of materializing survivors, so a dropped row costs one
//! skipped index — no move, no clone, no allocation.  Operators that
//! expand (joins) write directly into the output columns: no per-binding
//! `Vec` is ever allocated.
//!
//! The row-oriented [`crate::Operator`] protocol carries the other two
//! evaluators (stacked algebra plans, the pureXML baseline);
//! [`ColumnBatch::to_rows`] / [`ColumnBatch::from_rows`] convert between
//! the layouts.

use crate::batch::OpStats;
use crate::mask::BitMask;

/// A batch of join bindings in columnar layout: one rid column per bound
/// alias plus a selection vector.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    /// One column per alias, outer-to-inner; all columns have equal length.
    cols: Vec<Vec<usize>>,
    /// Indices of live rows (ascending); `None` means all rows are live.
    sel: Option<Vec<u32>>,
    /// Target number of live rows per batch (advisory, not a hard bound:
    /// an expanding operator may overshoot by one probe's matches).
    cap: usize,
}

impl ColumnBatch {
    /// An empty batch of `arity` columns targeting `cap` live rows.  The
    /// columns start unallocated and grow on demand, so a one-row point
    /// query does not pay for `arity × cap` slots at every join level.
    pub fn new(arity: usize, cap: usize) -> Self {
        let cap = cap.max(1);
        ColumnBatch {
            cols: (0..arity.max(1)).map(|_| Vec::new()).collect(),
            sel: None,
            cap,
        }
    }

    /// Number of alias columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Physical row count (live and filtered-out rows alike).
    pub fn rows(&self) -> usize {
        self.cols[0].len()
    }

    /// Number of live (selected) rows.
    pub fn live(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows(),
        }
    }

    /// Is the batch devoid of live rows?
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// The advisory live-row target.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// A column's rids (physical order — index through the selection).
    pub fn col(&self, i: usize) -> &[usize] {
        &self.cols[i]
    }

    /// Mutable column access (operators fill columns directly).
    pub fn col_mut(&mut self, i: usize) -> &mut Vec<usize> {
        &mut self.cols[i]
    }

    /// All columns at once (the expand loop of a join reads the outer
    /// columns while writing its own — split via `split_at_mut` upstream).
    pub fn cols(&self) -> &[Vec<usize>] {
        &self.cols
    }

    /// The selection vector, if any row has been filtered out.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Physical index of the `i`-th live row.
    #[inline]
    pub fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// Append one row (used by [`ColumnBatch::from_rows`] and the join
    /// expand loops via direct column access; arity checked in debug).
    pub fn push_row(&mut self, row: &[usize]) {
        debug_assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        debug_assert!(self.sel.is_none(), "push into a filtered batch");
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Install a selection vector (indices must be ascending physical rows).
    pub fn set_sel(&mut self, sel: Vec<u32>) {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        debug_assert!(sel.last().is_none_or(|&i| (i as usize) < self.rows()));
        self.sel = Some(sel);
    }

    /// Refine the selection: keep only live rows whose *physical* index
    /// satisfies the predicate.  This is the column-at-a-time filter
    /// primitive — dropped rows are never moved or materialized.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let next = match self.sel.take() {
            Some(s) => s.into_iter().filter(|&i| keep(i as usize)).collect(),
            None => (0..self.rows() as u32)
                .filter(|&i| keep(i as usize))
                .collect(),
        };
        self.sel = Some(next);
    }

    /// Refine the selection by a predicate over one column's *values*:
    /// keep the live rows whose rid in column `col` satisfies `keep`.
    /// This is the leaf-filter fast path — the closure sees the rid
    /// directly, so a pushed-down σ never touches the batch structure.
    pub fn retain_by_col(&mut self, col: usize, mut keep: impl FnMut(usize) -> bool) {
        let column = std::mem::take(&mut self.cols[col]);
        // Not routed through `retain`: the physical row count must come
        // from the taken column, every column having the same length.
        let next: Vec<u32> = match self.sel.take() {
            Some(s) => s
                .into_iter()
                .filter(|&i| keep(column[i as usize]))
                .collect(),
            None => (0..column.len() as u32)
                .filter(|&i| keep(column[i as usize]))
                .collect(),
        };
        self.sel = Some(next);
        self.cols[col] = column;
    }

    /// Gather the rids of column `col` for the live rows, in live order —
    /// the input shape of the typed selection/hash kernels (which then run
    /// over a dense slice instead of chasing the selection vector).
    pub fn gather_col(&self, col: usize, out: &mut Vec<usize>) {
        out.clear();
        match &self.sel {
            Some(s) => out.extend(s.iter().map(|&i| self.cols[col][i as usize])),
            None => out.extend_from_slice(&self.cols[col]),
        }
    }

    /// Refine the selection by a packed keep mask aligned with the
    /// current *live* rows (bit `i` decides the `i`-th live row) — the
    /// output shape of the typed selection kernels.  The set-bit walk
    /// costs proportional to the survivor count, not the batch size.
    pub fn retain_by_mask(&mut self, keep: &BitMask) {
        debug_assert_eq!(keep.len(), self.live(), "mask/live-row mismatch");
        let next: Vec<u32> = match self.sel.take() {
            Some(s) => keep.ones().map(|i| s[i]).collect(),
            None => keep.ones().map(|i| i as u32).collect(),
        };
        self.sel = Some(next);
    }

    /// Drop filtered-out rows for real, clearing the selection vector.
    pub fn compact(&mut self) {
        let Some(sel) = self.sel.take() else { return };
        for col in &mut self.cols {
            for (slot, &i) in sel.iter().enumerate() {
                col[slot] = col[i as usize];
            }
            col.truncate(sel.len());
        }
    }

    /// Convert to row-major bindings (live rows only, batch order).
    pub fn to_rows(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(self.live());
        for i in 0..self.live() {
            let p = self.phys(i);
            out.push(self.cols.iter().map(|c| c[p]).collect());
        }
        out
    }

    /// Build a columnar batch from row-major bindings.
    ///
    /// # Panics
    /// Panics when the rows disagree on arity.
    pub fn from_rows(rows: &[Vec<usize>], cap: usize) -> Self {
        let arity = rows.first().map(|r| r.len()).unwrap_or(1);
        let mut batch = ColumnBatch::new(arity, cap.max(rows.len()).max(1));
        for row in rows {
            assert_eq!(row.len(), arity, "binding arity mismatch");
            batch.push_row(row);
        }
        batch
    }
}

/// The pull-based columnar operator protocol: the twin of
/// [`crate::Operator`] that exchanges [`ColumnBatch`]es instead of row
/// batches.  Work counters use the same [`OpStats`] currency as the row
/// operators.
pub trait ColOperator {
    /// Prepare for producing batches.
    fn open(&mut self);

    /// Produce the next batch, or `None` once exhausted.  Returned batches
    /// have at least one live row.
    fn next_batch(&mut self) -> Option<ColumnBatch>;

    /// Release resources and report counters to the stats sink.
    fn close(&mut self);

    /// The operator's current work counters.
    fn stats(&self) -> OpStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_batch_round_trips_rows() {
        let rows = vec![vec![1, 10], vec![2, 20], vec![3, 30]];
        let b = ColumnBatch::from_rows(&rows, 4);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.live(), 3);
        assert_eq!(b.col(0), &[1, 2, 3]);
        assert_eq!(b.col(1), &[10, 20, 30]);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn retain_refines_selection_without_moving_rows() {
        let rows: Vec<Vec<usize>> = (0..10).map(|i| vec![i]).collect();
        let mut b = ColumnBatch::from_rows(&rows, 16);
        b.retain(|i| i % 2 == 0);
        assert_eq!(b.rows(), 10, "physical rows untouched");
        assert_eq!(b.live(), 5);
        b.retain(|i| i >= 4);
        assert_eq!(b.live(), 3);
        assert_eq!(b.to_rows(), vec![vec![4], vec![6], vec![8]]);
        assert_eq!(b.sel(), Some(&[4u32, 6, 8][..]));
    }

    #[test]
    fn retain_by_col_filters_on_column_values() {
        let rows: Vec<Vec<usize>> = (0..8).map(|i| vec![i, 100 + i]).collect();
        let mut b = ColumnBatch::from_rows(&rows, 8);
        b.retain_by_col(1, |v| v % 2 == 1);
        assert_eq!(b.live(), 4);
        b.retain_by_col(0, |v| v > 3);
        assert_eq!(b.to_rows(), vec![vec![5, 105], vec![7, 107]]);
        assert_eq!(b.rows(), 8, "no rows were materialized away");
    }

    #[test]
    fn gather_and_mask_retain_mirror_retain_by_col() {
        let rows: Vec<Vec<usize>> = (0..8).map(|i| vec![i, 100 + i]).collect();
        let mut a = ColumnBatch::from_rows(&rows, 8);
        let mut b = a.clone();
        // Narrow both to even physical rows first.
        a.retain(|i| i % 2 == 0);
        b.retain(|i| i % 2 == 0);
        // a: closure filter; b: gather + kernel-style packed mask.
        a.retain_by_col(1, |v| v >= 104);
        let mut gathered = Vec::new();
        b.gather_col(1, &mut gathered);
        assert_eq!(gathered, vec![100, 102, 104, 106]);
        let mask = BitMask::from_bools(gathered.iter().map(|&v| v >= 104));
        b.retain_by_mask(&mask);
        assert_eq!(a.sel(), b.sel());
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn compact_materializes_the_selection() {
        let rows: Vec<Vec<usize>> = (0..6).map(|i| vec![i, i * 10]).collect();
        let mut b = ColumnBatch::from_rows(&rows, 8);
        b.retain(|i| i == 1 || i == 4);
        b.compact();
        assert_eq!(b.rows(), 2);
        assert!(b.sel().is_none());
        assert_eq!(b.to_rows(), vec![vec![1, 10], vec![4, 40]]);
        // Compacting an unfiltered batch is a no-op.
        b.compact();
        assert_eq!(b.rows(), 2);
    }
}
