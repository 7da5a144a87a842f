//! Table and column statistics.
//!
//! The paper's point in Section IV-A is that *ordinary* RDBMS statistics —
//! per-column cardinalities and value distributions gathered over the `doc`
//! encoding — are all the optimizer needs to reorder XPath steps and reverse
//! axes.  This module provides exactly that: row counts, per-column
//! distinct/null counts, min/max, most-common values (tag names are heavily
//! skewed) and an equi-width histogram for numeric columns — plus one
//! column-group statistic, [`GroupMax`]: the maximum of an integer column
//! within each group of an index's equality prefix, from which the
//! optimizer derives the missing side of one-sided range probes — and its
//! child-side twin [`ParentGap`], the farthest any member of a
//! `(name, kind)` group sits from its parent.

use crate::btree::BPlusTree;
use crate::kernel::agg_i64_masked;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::ops::Bound;

/// Number of most-common values tracked per column.
const MCV_LIMIT: usize = 32;
/// Number of buckets in numeric histograms.
const HISTOGRAM_BUCKETS: usize = 32;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Total number of rows (including NULLs).
    pub rows: usize,
    /// Number of NULL values.
    pub nulls: usize,
    /// Number of distinct non-NULL values.
    pub distinct: usize,
    /// Minimum non-NULL value.
    pub min: Option<Value>,
    /// Maximum non-NULL value.
    pub max: Option<Value>,
    /// Most common values with their frequencies.
    pub mcv: Vec<(Value, usize)>,
    /// Equi-width histogram over the numeric image of the column
    /// (`bucket[i]` counts values in the i-th slice of `[min, max]`).
    pub histogram: Vec<usize>,
    /// Mean of the numeric image of the column (`None` for non-numeric
    /// columns).  Standard RUNSTATS output; not consumed by the current
    /// cost model (containment selectivity uses the tiling estimate
    /// instead), but e.g. a mean-subtree-extent refinement would read the
    /// `size` column's mean from here.
    pub mean: Option<f64>,
}

impl ColumnStats {
    /// Estimated selectivity of `column = value`.
    pub fn eq_selectivity(&self, value: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        if let Some((_, freq)) = self.mcv.iter().find(|(v, _)| v == value) {
            return *freq as f64 / self.rows as f64;
        }
        // Value not among the MCVs: assume the remaining rows are spread
        // uniformly over the remaining distinct values.
        let mcv_rows: usize = self.mcv.iter().map(|(_, f)| f).sum();
        let rest_rows = self.rows.saturating_sub(mcv_rows + self.nulls);
        let rest_distinct = self.distinct.saturating_sub(self.mcv.len()).max(1);
        (rest_rows as f64 / rest_distinct as f64 / self.rows as f64).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of a range predicate over the column.
    pub fn range_selectivity(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let (min, max) = match (self.min.as_ref(), self.max.as_ref()) {
            (Some(a), Some(b)) => (a, b),
            _ => return 0.0,
        };
        let (min_f, max_f) = match (min.as_f64(), max.as_f64()) {
            (Some(a), Some(b)) if b > a => (a, b),
            // Non-numeric or single-valued column: fall back to a constant.
            _ => return default_range_selectivity(),
        };
        let lo = match lower {
            Bound::Unbounded => min_f,
            Bound::Included(v) | Bound::Excluded(v) => v.as_f64().unwrap_or(min_f),
        };
        let hi = match upper {
            Bound::Unbounded => max_f,
            Bound::Included(v) | Bound::Excluded(v) => v.as_f64().unwrap_or(max_f),
        };
        if hi <= lo {
            return 1.0 / self.rows as f64;
        }
        if self.histogram.is_empty() {
            return (((hi.min(max_f) - lo.max(min_f)) / (max_f - min_f)).clamp(0.0, 1.0))
                .max(1.0 / self.rows as f64);
        }
        // Histogram-based estimate.
        let width = (max_f - min_f) / self.histogram.len() as f64;
        let mut covered = 0.0;
        for (i, &count) in self.histogram.iter().enumerate() {
            let b_lo = min_f + i as f64 * width;
            let b_hi = b_lo + width;
            let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0) / width;
            covered += overlap.min(1.0) * count as f64;
        }
        (covered / self.rows as f64).clamp(1.0 / self.rows as f64, 1.0)
    }
}

/// Default selectivity for range predicates we cannot estimate.
pub fn default_range_selectivity() -> f64 {
    1.0 / 3.0
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count.
    pub rows: usize,
    /// Per-column statistics.
    pub columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Gather statistics over a table (a full "RUNSTATS" pass).
    ///
    /// Columns whose typed image is a (possibly NULL-masked) `i64` vector
    /// take a kernelized path: NULL/min/max/mean come from one masked
    /// column reduction ([`agg_i64_masked`], exact `i128` sum) and the
    /// frequency map runs over raw `i64` keys.  Every other column takes
    /// the row path; both produce the same `ColumnStats` for an integer
    /// column, and neither reads the process environment.
    pub fn collect(table: &Table) -> Self {
        let rows = table.len();
        let mut columns = HashMap::new();
        for (ci, name) in table.schema().columns().iter().enumerate() {
            let stats = match table.typed().int_col_nullable(ci) {
                Some((vals, validity)) => collect_int_column(rows, vals, validity),
                _ => collect_column_rows(table, ci, rows),
            };
            columns.insert(name.clone(), stats);
        }
        TableStats { rows, columns }
    }

    /// Statistics for a column, if collected.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }
}

/// Column-group extent statistic: `max(column)` within each group of rows
/// that agree on an index's leading `prefix_len` key columns.
///
/// It bounds how far a row's `R + W` can reach beyond its `R`: for rows of
/// one group, `X <= R + W` implies `R >= X - max(W | group)`, which turns a
/// one-sided index range `R < X` into a window.  Collected in one pass over
/// the index's already-sorted entries; the [`crate::Database`] memoizes it
/// per catalog version.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMax {
    /// `(group key, max)` in index key order.  `None` marks a group without
    /// a usable maximum: its column holds a non-integer value, or nothing
    /// but NULLs.
    groups: Vec<(Vec<Value>, Option<i64>)>,
}

impl GroupMax {
    /// Fold `table`'s `column` over the groups of `tree`'s leading
    /// `prefix_len` key columns (`tree` must index `table`).
    pub fn collect(tree: &BPlusTree, prefix_len: usize, table: &Table, column: usize) -> Self {
        let mut groups: Vec<(Vec<Value>, Option<i64>)> = Vec::new();
        let mut tainted = false;
        tree.for_each_entry(|key, rid| {
            let prefix = &key[..prefix_len];
            if groups.last().is_none_or(|(g, _)| g.as_slice() != prefix) {
                groups.push((prefix.to_vec(), None));
                tainted = false;
            }
            let max = &mut groups.last_mut().expect("group opened above").1;
            match &table.rows()[rid][column] {
                Value::Null => {}
                Value::Int(v) if !tainted => *max = Some(max.map_or(*v, |m| m.max(*v))),
                _ => {
                    tainted = true;
                    *max = None;
                }
            }
        });
        GroupMax { groups }
    }

    /// The group's maximum; `None` for an absent group or one without a
    /// usable maximum.
    pub fn max_for(&self, key: &[&Value]) -> Option<i64> {
        let at = self
            .groups
            .binary_search_by(|(g, _)| g.iter().cmp(key.iter().copied()))
            .ok()?;
        self.groups[at].1
    }
}

/// Child-side extent statistic of a tree encoding: `max(x.pre - p.pre)`
/// over the rows `x` of each `(name, kind)` group, `p` the parent of `x`.
///
/// It bounds how far a parent can sit before its child: for `y` with
/// `y.pre < x.pre <= y.pre + y.size` and `y.level + 1 = x.level`, `y` is
/// the parent of `x`, so `y.pre >= x.pre - max(gap | group of x)`.  That
/// closes an upward probe from the child's side when the parent's own
/// group is unknown (a nameless `*` step).  Collected in one pass over the
/// table's `pre`, `size`, `level`, `name` and `kind` columns, which also
/// validates the encoding the bound relies on; the [`crate::Database`]
/// memoizes it per catalog version.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentGap {
    /// `(name, kind, max gap)` in `(name, kind)` order; only groups with a
    /// member that has a parent appear.
    groups: Vec<(Value, Value, i64)>,
}

impl ParentGap {
    /// Fold the parent gaps of `table`'s rows into their `(name, kind)`
    /// groups.  `None` unless the rows, in table order, are a valid
    /// pre/size/level forest: the five columns exist, `pre`, `size` and
    /// `level` are non-NULL integers, `pre` strictly increases, every
    /// row's `(pre, pre + size]` nests inside its parent's — the innermost
    /// interval that contains its `pre` — and its `level` is the parent's
    /// plus one.
    pub fn collect(table: &Table) -> Option<Self> {
        let schema = table.schema();
        let col = |c| schema.index_of(c);
        let (pre, size, level) = (col("pre")?, col("size")?, col("level")?);
        let (name, kind) = (col("name")?, col("kind")?);
        let int = |row: &[Value], c: usize| match row[c] {
            Value::Int(v) => Some(v),
            _ => None,
        };
        let mut maxima: HashMap<(&Value, &Value), i64> = HashMap::new();
        // The open ancestors of the current row: `(pre, pre + size, level)`,
        // innermost last.
        let mut open: Vec<(i64, i64, i64)> = Vec::new();
        let mut last_pre = None;
        for row in table.rows() {
            let (p, s, l) = (int(row, pre)?, int(row, size)?, int(row, level)?);
            if last_pre.is_some_and(|q| p <= q) {
                return None;
            }
            last_pre = Some(p);
            let end = p.checked_add(s)?;
            while open.last().is_some_and(|&(_, e, _)| e < p) {
                open.pop();
            }
            if let Some(&(pp, pe, pl)) = open.last() {
                if end > pe || l != pl.checked_add(1)? {
                    return None;
                }
                let gap = p.checked_sub(pp)?;
                let max = maxima.entry((&row[name], &row[kind])).or_insert(gap);
                *max = (*max).max(gap);
            }
            open.push((p, end, l));
        }
        let mut groups: Vec<(Value, Value, i64)> = maxima
            .into_iter()
            .map(|((n, k), gap)| (n.clone(), k.clone(), gap))
            .collect();
        groups.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        Some(ParentGap { groups })
    }

    /// The largest distance between a member of the `(name, kind)` group
    /// and its parent; `None` when no member has a parent.
    pub fn max_for(&self, name: &Value, kind: &Value) -> Option<i64> {
        let at = self
            .groups
            .binary_search_by(|(n, k, _)| (n, k).cmp(&(name, kind)))
            .ok()?;
        Some(self.groups[at].2)
    }
}

/// Row-at-a-time statistics pass (the oracle path, and the only path for
/// columns without an `i64` image).
fn collect_column_rows(table: &Table, ci: usize, rows: usize) -> ColumnStats {
    let mut freq: HashMap<Value, usize> = HashMap::new();
    let mut nulls = 0usize;
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    let mut numeric_sum = 0.0f64;
    let mut numeric_count = 0usize;
    for row in table.rows() {
        let v = &row[ci];
        if v.is_null() {
            nulls += 1;
            continue;
        }
        if let Some(f) = v.as_f64() {
            numeric_sum += f;
            numeric_count += 1;
        }
        *freq.entry(v.clone()).or_insert(0) += 1;
        if min.as_ref().is_none_or(|m| v < m) {
            min = Some(v.clone());
        }
        if max.as_ref().is_none_or(|m| v > m) {
            max = Some(v.clone());
        }
    }
    let distinct = freq.len();
    let mut mcv: Vec<(Value, usize)> = freq.iter().map(|(v, f)| (v.clone(), *f)).collect();
    mcv.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    mcv.truncate(MCV_LIMIT);
    let histogram = build_histogram(table, ci, min.as_ref(), max.as_ref());
    let mean = (numeric_count > 0).then(|| numeric_sum / numeric_count as f64);
    ColumnStats {
        rows,
        nulls,
        distinct,
        min,
        max,
        mcv,
        histogram,
        mean,
    }
}

/// Kernelized statistics pass over an `i64` image: one masked reduction
/// for COUNT/SUM/MIN/MAX (mean = exact `i128` sum / count), then a raw
/// `i64` frequency map for distinct/MCV and an equi-width histogram.
fn collect_int_column(
    rows: usize,
    vals: &[i64],
    validity: Option<&crate::mask::BitMask>,
) -> ColumnStats {
    let agg = agg_i64_masked(vals, validity);
    let nulls = rows - agg.count;
    let min = agg.min.map(Value::Int);
    let max = agg.max.map(Value::Int);
    let mean = (agg.count > 0).then(|| agg.sum as f64 / agg.count as f64);
    let mut freq: HashMap<i64, usize> = HashMap::new();
    for (i, &v) in vals.iter().enumerate() {
        if validity.is_none_or(|m| m.get(i)) {
            *freq.entry(v).or_insert(0) += 1;
        }
    }
    let distinct = freq.len();
    let mut mcv: Vec<(Value, usize)> = freq.iter().map(|(&v, &f)| (Value::Int(v), f)).collect();
    mcv.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    mcv.truncate(MCV_LIMIT);
    let histogram = match (agg.min, agg.max) {
        (Some(lo), Some(hi)) if hi > lo => {
            let (min_f, max_f) = (lo as f64, hi as f64);
            let mut buckets = vec![0usize; HISTOGRAM_BUCKETS];
            let width = (max_f - min_f) / HISTOGRAM_BUCKETS as f64;
            for (i, &v) in vals.iter().enumerate() {
                if validity.is_none_or(|m| m.get(i)) {
                    let idx = (((v as f64 - min_f) / width) as usize).min(HISTOGRAM_BUCKETS - 1);
                    buckets[idx] += 1;
                }
            }
            buckets
        }
        _ => Vec::new(),
    };
    ColumnStats {
        rows,
        nulls,
        distinct,
        min,
        max,
        mcv,
        histogram,
        mean,
    }
}

fn build_histogram(
    table: &Table,
    column: usize,
    min: Option<&Value>,
    max: Option<&Value>,
) -> Vec<usize> {
    let (min_f, max_f) = match (min.and_then(Value::as_f64), max.and_then(Value::as_f64)) {
        (Some(a), Some(b)) if b > a => (a, b),
        _ => return Vec::new(),
    };
    let mut buckets = vec![0usize; HISTOGRAM_BUCKETS];
    let width = (max_f - min_f) / HISTOGRAM_BUCKETS as f64;
    for row in table.rows() {
        if let Some(f) = row[column].as_f64() {
            let mut idx = ((f - min_f) / width) as usize;
            if idx >= HISTOGRAM_BUCKETS {
                idx = HISTOGRAM_BUCKETS - 1;
            }
            buckets[idx] += 1;
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn skewed_table() -> Table {
        // A name-like column: "item" appears 80 times, 20 rare names once
        // each; plus a numeric column 0..99.
        let mut t = Table::new(Schema::new(["name", "price"]));
        for i in 0..100i64 {
            let name = if i < 80 {
                "item".to_string()
            } else {
                format!("rare{i}")
            };
            t.push(vec![Value::Str(name), Value::Int(i)]);
        }
        t
    }

    #[test]
    fn collects_basic_counts() {
        let stats = TableStats::collect(&skewed_table());
        assert_eq!(stats.rows, 100);
        let name = stats.column("name").unwrap();
        assert_eq!(name.distinct, 21);
        assert_eq!(name.nulls, 0);
        let price = stats.column("price").unwrap();
        assert_eq!(price.min, Some(Value::Int(0)));
        assert_eq!(price.max, Some(Value::Int(99)));
        assert!((price.mean.unwrap() - 49.5).abs() < 1e-9);
        assert_eq!(stats.column("name").unwrap().mean, None);
    }

    #[test]
    fn eq_selectivity_tracks_skew() {
        let stats = TableStats::collect(&skewed_table());
        let name = stats.column("name").unwrap();
        let common = name.eq_selectivity(&Value::str("item"));
        let rare = name.eq_selectivity(&Value::str("rare85"));
        assert!((common - 0.8).abs() < 1e-9);
        assert!(rare < 0.05);
        assert!(common > rare * 10.0);
    }

    #[test]
    fn eq_selectivity_for_unknown_value_is_small() {
        let stats = TableStats::collect(&skewed_table());
        let name = stats.column("name").unwrap();
        let unknown = name.eq_selectivity(&Value::str("nonexistent"));
        assert!(unknown <= 0.05);
    }

    #[test]
    fn range_selectivity_tracks_fraction() {
        let stats = TableStats::collect(&skewed_table());
        let price = stats.column("price").unwrap();
        let half = price.range_selectivity(Bound::Included(&Value::Int(50)), Bound::Unbounded);
        assert!(half > 0.35 && half < 0.65, "got {half}");
        let all = price.range_selectivity(Bound::Unbounded, Bound::Unbounded);
        assert!(all > 0.9);
        let none = price.range_selectivity(
            Bound::Included(&Value::Int(95)),
            Bound::Included(&Value::Int(99)),
        );
        assert!(none < 0.2);
    }

    #[test]
    fn range_selectivity_on_string_column_uses_default() {
        let stats = TableStats::collect(&skewed_table());
        let name = stats.column("name").unwrap();
        let s = name.range_selectivity(Bound::Included(&Value::str("a")), Bound::Unbounded);
        assert!((s - default_range_selectivity()).abs() < 1e-9);
    }

    #[test]
    fn nulls_are_counted() {
        let mut t = Table::new(Schema::new(["v"]));
        t.push(vec![Value::Null]);
        t.push(vec![Value::Int(1)]);
        let stats = TableStats::collect(&t);
        let c = stats.column("v").unwrap();
        assert_eq!(c.nulls, 1);
        assert_eq!(c.distinct, 1);
    }

    #[test]
    fn kernelized_int_stats_match_row_path() {
        // A NULL-bearing int column takes the masked-reduction path; every
        // ColumnStats field must agree with the row-at-a-time oracle.
        let mut t = Table::new(Schema::new(["v"]));
        for i in 0..500i64 {
            let v = if i % 7 == 3 {
                Value::Null
            } else {
                Value::Int(i % 40 - 10)
            };
            t.push(vec![v]);
        }
        let kernel = TableStats::collect(&t);
        let k = kernel.column("v").unwrap();
        let r = collect_column_rows(&t, 0, t.len());
        assert_eq!(k.rows, r.rows);
        assert_eq!(k.nulls, r.nulls);
        assert_eq!(k.distinct, r.distinct);
        assert_eq!(k.min, r.min);
        assert_eq!(k.max, r.max);
        assert_eq!(k.mcv, r.mcv);
        assert_eq!(k.histogram, r.histogram);
        assert!((k.mean.unwrap() - r.mean.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn group_max_folds_sorted_index_entries() {
        // Groups (g, k); `w` is NULL-bearing in one group, non-integer in
        // another, all-NULL in a third.
        let mut t = Table::new(Schema::new(["g", "k", "r", "w"]));
        let rows: [(&str, i64, Value); 8] = [
            ("a", 1, Value::Int(3)),
            ("a", 1, Value::Null),
            ("a", 1, Value::Int(7)),
            ("a", 2, Value::Int(-4)),
            ("b", 1, Value::Int(9)),
            ("b", 1, Value::Dec(0.5)),
            ("b", 1, Value::Int(11)),
            ("c", 1, Value::Null),
        ];
        for (r, (g, k, w)) in rows.into_iter().enumerate() {
            t.push(vec![Value::str(g), Value::Int(k), Value::Int(r as i64), w]);
        }
        let entries = t
            .rows()
            .iter()
            .enumerate()
            .map(|(rid, row)| (row[..3].to_vec(), rid))
            .collect();
        let tree = BPlusTree::bulk_load(entries);
        let by_gk = GroupMax::collect(&tree, 2, &t, 3);
        let key = |g: &str, k: i64| [Value::str(g), Value::Int(k)];
        let get = |gm: &GroupMax, k: &[Value]| gm.max_for(&k.iter().collect::<Vec<_>>());
        assert_eq!(get(&by_gk, &key("a", 1)), Some(7));
        assert_eq!(get(&by_gk, &key("a", 2)), Some(-4));
        assert_eq!(
            get(&by_gk, &key("b", 1)),
            None,
            "non-integer value taints the group"
        );
        assert_eq!(
            get(&by_gk, &key("c", 1)),
            None,
            "all-NULL group has no maximum"
        );
        assert_eq!(get(&by_gk, &key("a", 3)), None, "absent group");
        // A shorter prefix merges (a,1) and (a,2); the empty prefix is the
        // whole table, tainted by b's decimal.
        let by_g = GroupMax::collect(&tree, 1, &t, 3);
        assert_eq!(get(&by_g, &[Value::str("a")]), Some(7));
        assert_eq!(get(&GroupMax::collect(&tree, 0, &t, 3), &[]), None);
        assert_eq!(get(&GroupMax::collect(&tree, 0, &t, 2), &[]), Some(7));
    }

    /// Two documents as `(pre, size, level, kind, name)` rows: attributes,
    /// and in each document a last child farther from its parent than its
    /// earlier siblings.
    fn forest() -> Vec<[Value; 5]> {
        let row = |pre: i64, size: i64, level: i64, kind: &str, name: &str| {
            [
                Value::Int(pre),
                Value::Int(size),
                Value::Int(level),
                Value::str(kind),
                Value::str(name),
            ]
        };
        vec![
            row(0, 6, 0, "DOC", "a.xml"),
            row(1, 5, 1, "ELEM", "r"),
            row(2, 0, 2, "ATTR", "id"),
            row(3, 1, 2, "ELEM", "x"),
            row(4, 0, 3, "ATTR", "id"),
            row(5, 1, 2, "ELEM", "x"),
            row(6, 0, 3, "ELEM", "y"),
            row(7, 4, 0, "DOC", "b.xml"),
            row(8, 3, 1, "ELEM", "r"),
            row(9, 0, 2, "ATTR", "id"),
            row(10, 0, 2, "ELEM", "z"),
            row(11, 0, 2, "ELEM", "x"),
        ]
    }

    fn forest_table(rows: &[[Value; 5]]) -> Table {
        let mut t = Table::new(Schema::new(["pre", "size", "level", "kind", "name"]));
        for r in rows {
            t.push(r.to_vec());
        }
        t
    }

    #[test]
    fn parent_gap_is_the_farthest_member_of_each_group() {
        let gap = ParentGap::collect(&forest_table(&forest())).expect("a valid forest");
        let get = |name: &str, kind: &str| gap.max_for(&Value::str(name), &Value::str(kind));
        // x: 3 - 1, 5 - 1 (the last child of a.xml's r), 11 - 8.
        assert_eq!(get("x", "ELEM"), Some(4));
        assert_eq!(get("r", "ELEM"), Some(1));
        assert_eq!(get("id", "ATTR"), Some(1));
        // y's parent is x@5, not its grandparent r@1.
        assert_eq!(get("y", "ELEM"), Some(1));
        assert_eq!(get("z", "ELEM"), Some(2));
        // Roots have no parent; absent and cross-kind groups have no gap.
        assert_eq!(get("a.xml", "DOC"), None);
        assert_eq!(get("id", "ELEM"), None);
        assert_eq!(get("w", "ELEM"), None);
        // Column order does not matter, extra columns are ignored.
        let mut t = Table::new(Schema::new([
            "name", "value", "kind", "level", "size", "pre",
        ]));
        for [pre, size, level, kind, name] in forest() {
            t.push(vec![name, Value::Null, kind, level, size, pre]);
        }
        assert_eq!(ParentGap::collect(&t), Some(gap));
    }

    #[test]
    fn parent_gap_is_none_for_an_invalid_encoding() {
        let broken = |edit: &dyn Fn(&mut Vec<[Value; 5]>)| {
            let mut rows = forest();
            edit(&mut rows);
            ParentGap::collect(&forest_table(&rows))
        };
        assert!(broken(&|_| {}).is_some());
        // `pre` repeats, then goes backwards.
        assert_eq!(broken(&|r| r[6][0] = Value::Int(5)), None);
        assert_eq!(broken(&|r| r.swap(3, 4)), None);
        // x@5's interval (5, 7] leaves r's (1, 6].
        assert_eq!(broken(&|r| r[5][1] = Value::Int(2)), None);
        // y skips a level below x@5; id@2 claims r's level.
        assert_eq!(broken(&|r| r[6][2] = Value::Int(4)), None);
        assert_eq!(broken(&|r| r[2][2] = Value::Int(1)), None);
        // NULL or non-integer pre / size / level.
        for col in 0..3 {
            for bad in [Value::Null, Value::Dec(3.0), Value::str("3")] {
                assert_eq!(broken(&|r| r[3][col] = bad.clone()), None, "{col} {bad:?}");
            }
        }
        // A missing column.
        let mut t = Table::new(Schema::new(["pre", "size", "level", "kind"]));
        t.push(vec![
            Value::Int(0),
            Value::Int(0),
            Value::Int(0),
            Value::Null,
        ]);
        assert_eq!(ParentGap::collect(&t), None);
        // An empty table is a valid, empty forest.
        assert_eq!(
            broken(&|r| r.clear())
                .unwrap()
                .max_for(&Value::Null, &Value::Null),
            None
        );
    }

    #[test]
    fn empty_table_stats() {
        let t = Table::new(Schema::new(["v"]));
        let stats = TableStats::collect(&t);
        let c = stats.column("v").unwrap();
        assert_eq!(c.eq_selectivity(&Value::Int(1)), 0.0);
        assert_eq!(c.range_selectivity(Bound::Unbounded, Bound::Unbounded), 0.0);
    }
}
