//! The database catalog: named tables, their secondary B-tree indexes, and
//! their statistics.
//!
//! The catalog is deliberately tiny — the workload of this system consists
//! of self-joins over a single `doc` table — but it is structured like a
//! real catalog so the optimizer's index selection and statistics lookups
//! read naturally.

use crate::btree::{BPlusTree, CodeRun, Key, PrefixRun};
use crate::stats::{GroupMax, ParentGap, TableStats};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Definition of a secondary index.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Index name (e.g. `nkspl` in the paper's Table VI).
    pub name: String,
    /// Table the index is built over.
    pub table: String,
    /// Key columns, most significant first.
    pub key_columns: Vec<String>,
    /// Non-key columns carried on the leaf pages (DB2's `INCLUDE(...)`).
    pub include_columns: Vec<String>,
    /// Clustered indexes determine the base table's physical order.
    pub clustered: bool,
}

/// A built index: definition plus the backing B+tree.
#[derive(Debug, Clone)]
pub struct BuiltIndex {
    /// The index definition.
    pub def: IndexDef,
    /// The B+tree mapping key-column tuples to row ids of the base table.
    pub tree: BPlusTree,
}

impl BuiltIndex {
    /// Does the index key start with the given column sequence?
    pub fn key_prefix_matches(&self, columns: &[String]) -> bool {
        columns.len() <= self.def.key_columns.len()
            && self.def.key_columns[..columns.len()] == *columns
    }

    /// All columns retrievable from the index without touching the base
    /// table (key columns + include columns).
    pub fn covered_columns(&self) -> Vec<String> {
        let mut cols = self.def.key_columns.clone();
        cols.extend(self.def.include_columns.iter().cloned());
        cols
    }
}

/// One memoized [`GroupMax`]: `(index, prefix length, column, statistic)`.
type GroupMaxEntry = (String, usize, String, Arc<GroupMax>);

/// One memoized [`PrefixRun`]: `(index, literal prefix, run)`, the run
/// `None` when a range-column value under the prefix is not an integer.
type PrefixRunEntry = (String, Vec<Value>, Option<Arc<PrefixRun>>);

/// One memoized [`CodeRun`]: `(index, equality terms, run)`, the terms
/// literal but for the one open column, the run `None` when that column
/// has no dictionary image or the terms have another shape.
type CodeRunEntry = (String, Vec<Option<Value>>, Option<Arc<CodeRun>>);

/// One memoized [`ParentGap`]: `(table, statistic)`.
type ParentGapEntry = (String, Option<Arc<ParentGap>>);

/// An in-memory database: tables, indexes, statistics.
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    indexes: Vec<BuiltIndex>,
    stats: HashMap<String, TableStats>,
    /// Column-group extent statistics, `(index, prefix length, column)` →
    /// [`GroupMax`].  Which groupings matter depends on the queries, so
    /// each is collected on first request — one pass over the index's
    /// sorted entries — and kept until the next DDL, like every other
    /// statistic of a catalog version.  A handful of entries at most:
    /// linear search, no key allocation on the optimizer's lookup path.
    group_max: Mutex<Vec<GroupMaxEntry>>,
    /// Integer range runs, `(index, literal prefix)` → [`PrefixRun`]: the
    /// compact image an index nested-loop join probes when its equality
    /// prefix is constant.  Built on first request from the index's
    /// leaves and kept until the next DDL, like `group_max`.
    prefix_runs: Mutex<Vec<PrefixRunEntry>>,
    /// Dictionary-code runs, `(index, equality terms)` → [`CodeRun`]: the
    /// compact image an index nested-loop join probes when one equality
    /// term is a column of the probing row.  Built on first request and
    /// kept until the next DDL, like `group_max`.
    code_runs: Mutex<Vec<CodeRunEntry>>,
    /// Parent gaps, table → [`ParentGap`] (`None` when the table is not a
    /// valid pre/size/level forest).  Collected on first request and kept
    /// until the next DDL, like `group_max`.
    parent_gaps: Mutex<Vec<ParentGapEntry>>,
    /// Catalog version stamp, advanced on every DDL mutation.  Consumers
    /// caching derived physical structures (e.g. memoized hash-join build
    /// sides) compare stamps to detect staleness.  Stamps are drawn from a
    /// process-wide counter so two [`Database`] instances never reuse one.
    version: u64,
}

/// Process-wide catalog-version dispenser (see [`Database::version`]).
static CATALOG_VERSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The catalog's current version stamp.  Any DDL (table or index
    /// creation) moves the stamp to a value never handed out before, in
    /// this or any other [`Database`] of the process.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump_version(&mut self) {
        self.version = CATALOG_VERSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.group_max
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.prefix_runs
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.code_runs
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.parent_gaps
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Register (or replace) a table and collect its statistics.
    pub fn create_table(&mut self, name: impl Into<String>, table: Table) {
        let name = name.into();
        let stats = TableStats::collect(&table);
        self.stats.insert(name.clone(), stats);
        self.tables.insert(name, table);
        self.bump_version();
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Look up a table's statistics.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(name)
    }

    /// The maximum of `column` within each group of `index`'s leading
    /// `prefix_len` key columns (see [`GroupMax`]); `None` when the index,
    /// the prefix or the column does not exist.  Collected once per
    /// catalog version, on first request.
    pub fn group_max(&self, index: &str, prefix_len: usize, column: &str) -> Option<Arc<GroupMax>> {
        // Held across the collection so concurrent first requests compute
        // once.  The memo only ever grows by the final `push`, so a lock
        // poisoned by a panicking collector still guards valid data.
        let mut memo = self.group_max.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((.., gm)) = memo
            .iter()
            .find(|(i, p, c, _)| i == index && *p == prefix_len && c == column)
        {
            return Some(gm.clone());
        }
        let ix = self.index(index)?;
        let table = self.tables.get(&ix.def.table)?;
        let col = table.schema().index_of(column)?;
        if prefix_len > ix.def.key_columns.len() {
            return None;
        }
        let gm = Arc::new(GroupMax::collect(&ix.tree, prefix_len, table, col));
        memo.push((
            index.to_string(),
            prefix_len,
            column.to_string(),
            gm.clone(),
        ));
        Some(gm)
    }

    /// The entries of `index` under the literal key `prefix` as an integer
    /// run over the next key column (see [`PrefixRun`]); `None` when the
    /// index does not exist or that column holds a non-integer under the
    /// prefix.  Built once per catalog version, on first request — a
    /// `None` answer is memoized too.
    pub fn prefix_run(&self, index: &str, prefix: &[Value]) -> Option<Arc<PrefixRun>> {
        // Same locking discipline as `group_max`.
        let mut memo = self.prefix_runs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((.., run)) = memo
            .iter()
            .find(|(i, p, _)| i == index && p.as_slice() == prefix)
        {
            return run.clone();
        }
        let run = self.index(index)?.tree.prefix_run(prefix).map(Arc::new);
        memo.push((index.to_string(), prefix.to_vec(), run.clone()));
        run
    }

    /// The entries of `index` whose leading key columns equal `terms` —
    /// literals, but for one open column (`None`) — as a run keyed by the
    /// open column's codes in the base table's dictionary image (see
    /// [`CodeRun`]); `None` when the index does not exist, `terms` is not
    /// that shape, or the open column has no dictionary image.  Built once
    /// per catalog version, on first request — a `None` answer is memoized
    /// too.
    pub fn code_run(&self, index: &str, terms: &[Option<Value>]) -> Option<Arc<CodeRun>> {
        // Same locking discipline as `group_max`.
        let mut memo = self.code_runs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((.., run)) = memo
            .iter()
            .find(|(i, t, _)| i == index && t.as_slice() == terms)
        {
            return run.clone();
        }
        let ix = self.index(index)?;
        let run = self.build_code_run(ix, terms).map(Arc::new);
        memo.push((index.to_string(), terms.to_vec(), run.clone()));
        run
    }

    fn build_code_run(&self, ix: &BuiltIndex, terms: &[Option<Value>]) -> Option<CodeRun> {
        if terms.len() > ix.def.key_columns.len() {
            return None;
        }
        let open = &ix.def.key_columns[terms.iter().position(Option::is_none)?];
        let table = self.tables.get(&ix.def.table)?;
        let col = table.schema().index_of(open)?;
        let (codes, _, validity) = table.typed().col(col)?.as_dict_nullable()?;
        ix.tree.code_run(terms, codes, validity)
    }

    /// How far any member of a `(name, kind)` group of `table` sits from
    /// its parent (see [`ParentGap`]); `None` when the table does not exist
    /// or is not a valid pre/size/level forest.  Collected once per catalog
    /// version, on first request — a `None` answer is memoized too.
    pub fn parent_gap(&self, table: &str) -> Option<Arc<ParentGap>> {
        // Same locking discipline as `group_max`.
        let mut memo = self.parent_gaps.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, gap)) = memo.iter().find(|(t, _)| t == table) {
            return gap.clone();
        }
        let gap = ParentGap::collect(self.tables.get(table)?).map(Arc::new);
        memo.push((table.to_string(), gap.clone()));
        gap
    }

    /// Number of prefix runs (including memoized `None`s) built at this
    /// catalog version — how tests observe that a query built none.
    pub fn prefix_runs_built(&self) -> usize {
        self.prefix_runs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Number of code runs (including memoized `None`s) built at this
    /// catalog version.
    pub fn code_runs_built(&self) -> usize {
        self.code_runs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Build a B-tree index over `def.key_columns` of `def.table`.
    ///
    /// # Panics
    /// Panics when the table or one of the key columns does not exist —
    /// index DDL errors are programming errors in this system.
    pub fn create_index(&mut self, def: IndexDef) {
        let table = self
            .tables
            .get(&def.table)
            .unwrap_or_else(|| panic!("create_index: unknown table {}", def.table));
        let key_idx: Vec<usize> = def
            .key_columns
            .iter()
            .map(|c| table.schema().expect_index(c))
            .collect();
        let entries: Vec<(Key, usize)> = table
            .rows()
            .iter()
            .enumerate()
            .map(|(rid, row)| {
                let key: Key = key_idx.iter().map(|&i| row[i].clone()).collect();
                (key, rid)
            })
            .collect();
        let tree = BPlusTree::bulk_load(entries);
        // Replace an index with the same name (idempotent DDL).
        self.indexes.retain(|ix| ix.def.name != def.name);
        self.indexes.push(BuiltIndex { def, tree });
        self.bump_version();
    }

    /// All indexes built over a table.
    pub fn indexes_on(&self, table: &str) -> Vec<&BuiltIndex> {
        self.indexes
            .iter()
            .filter(|ix| ix.def.table == table)
            .collect()
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Option<&BuiltIndex> {
        self.indexes.iter().find(|ix| ix.def.name == name)
    }

    /// Fetch the row values of `table` at `row_id` for the given columns.
    pub fn fetch(&self, table: &str, row_id: usize, columns: &[String]) -> Vec<Value> {
        let t = &self.tables[table];
        columns
            .iter()
            .map(|c| t.rows()[row_id][t.schema().expect_index(c)].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::typed::TypedColumn;
    use std::ops::Bound;

    fn db() -> Database {
        let mut t = Table::new(Schema::new(["pre", "name", "kind"]));
        for i in 0..100i64 {
            let name = if i % 2 == 0 { "item" } else { "price" };
            t.push(vec![Value::Int(i), Value::str(name), Value::Int(1)]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        db.create_index(IndexDef {
            name: "np".to_string(),
            table: "doc".to_string(),
            key_columns: vec!["name".to_string(), "pre".to_string()],
            include_columns: vec![],
            clustered: false,
        });
        db
    }

    #[test]
    fn table_and_stats_registered() {
        let db = db();
        assert!(db.table("doc").is_some());
        assert_eq!(db.stats("doc").unwrap().rows, 100);
        assert_eq!(db.table_names(), vec!["doc"]);
    }

    #[test]
    fn ddl_advances_the_catalog_version_uniquely() {
        let mut a = db();
        let v0 = a.version();
        a.create_index(IndexDef {
            name: "extra".to_string(),
            table: "doc".to_string(),
            key_columns: vec!["pre".to_string()],
            include_columns: vec![],
            clustered: false,
        });
        assert!(a.version() > v0, "index DDL bumps the version");
        // A second database never reuses a stamp the first one held.
        let b = db();
        assert_ne!(a.version(), b.version());
        assert_ne!(v0, b.version());
    }

    #[test]
    fn group_max_is_memoized_per_catalog_version() {
        // pre doubles as the "extent" column: max(pre | name) is 98 / 99.
        let mut db = db();
        let gm = db
            .group_max("np", 1, "pre")
            .expect("index and column exist");
        assert_eq!(gm.max_for(&[&Value::str("item")]), Some(98));
        assert_eq!(gm.max_for(&[&Value::str("price")]), Some(99));
        assert_eq!(gm.max_for(&[&Value::str("absent")]), None);
        let again = db.group_max("np", 1, "pre").unwrap();
        assert!(Arc::ptr_eq(&gm, &again), "second request is the memo");
        assert!(db.group_max("nope", 1, "pre").is_none());
        assert!(db.group_max("np", 3, "pre").is_none());
        assert!(db.group_max("np", 1, "nope").is_none());
        // Replacing the table and rebuilding the index refreshes it.
        let mut t = Table::new(Schema::new(["pre", "name", "kind"]));
        t.push(vec![Value::Int(500), Value::str("item"), Value::Int(1)]);
        db.create_table("doc", t);
        db.create_index(IndexDef {
            name: "np".to_string(),
            table: "doc".to_string(),
            key_columns: vec!["name".to_string(), "pre".to_string()],
            include_columns: vec![],
            clustered: false,
        });
        let fresh = db.group_max("np", 1, "pre").unwrap();
        assert_eq!(fresh.max_for(&[&Value::str("item")]), Some(500));
        assert_eq!(fresh.max_for(&[&Value::str("price")]), None);
    }

    #[test]
    fn parent_gap_is_memoized_per_catalog_version() {
        // A root and `n` children; the last child sits `n` after the root.
        let forest = |n: i64| {
            let mut t = Table::new(Schema::new(["pre", "size", "level", "name", "kind"]));
            t.push(vec![
                Value::Int(0),
                Value::Int(n),
                Value::Int(0),
                Value::str("r"),
                Value::str("ELEM"),
            ]);
            for pre in 1..=n {
                t.push(vec![
                    Value::Int(pre),
                    Value::Int(0),
                    Value::Int(1),
                    Value::str("c"),
                    Value::str("ELEM"),
                ]);
            }
            t
        };
        let (c, elem) = (Value::str("c"), Value::str("ELEM"));
        let mut db = Database::new();
        db.create_table("doc", forest(3));
        let gap = db.parent_gap("doc").expect("a valid forest");
        assert_eq!(gap.max_for(&c, &elem), Some(3));
        assert!(
            Arc::ptr_eq(&gap, &db.parent_gap("doc").unwrap()),
            "memoized"
        );
        assert!(db.parent_gap("nope").is_none());
        // `db()`'s table has no size/level columns: `None`, memoized too.
        let mut flat = self::db();
        assert!(flat.parent_gap("doc").is_none());
        assert!(flat.parent_gap("doc").is_none());
        // Any DDL clears it: a wider load is seen, and so is a repair.
        db.create_table("doc", forest(9));
        let wide = db.parent_gap("doc").unwrap();
        assert_eq!(wide.max_for(&c, &elem), Some(9));
        flat.create_table("doc", forest(2));
        assert_eq!(flat.parent_gap("doc").unwrap().max_for(&c, &elem), Some(2));
        db.create_index(IndexDef {
            name: "p".to_string(),
            table: "doc".to_string(),
            key_columns: vec!["pre".to_string()],
            include_columns: vec![],
            clustered: true,
        });
        let again = db.parent_gap("doc").unwrap();
        assert!(!Arc::ptr_eq(&wide, &again));
        assert_eq!(*wide, *again);
    }

    #[test]
    fn prefix_runs_answer_range_probes_like_the_btree() {
        // (name, kind, pre, data): `data` is an integer everywhere but in
        // one (c, ELEM) row, which holds a decimal.
        let mut t = Table::new(Schema::new(["name", "kind", "pre", "data"]));
        let mut seed = 11u64;
        let mut below = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for pre in 0..600i64 {
            let (mut name, mut kind) = (
                ["a", "b", "c"][below(3) as usize],
                ["ELEM", "TEXT"][below(2) as usize],
            );
            let mut data = Value::Int(below(40) as i64);
            if pre == 300 {
                (name, kind, data) = ("c", "ELEM", Value::Dec(0.5));
            }
            t.push(vec![
                Value::str(name),
                Value::str(kind),
                Value::Int(pre),
                data,
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        for (name, cols) in [
            ("nkp", ["name", "kind", "pre"]),
            ("nkd", ["name", "kind", "data"]),
        ] {
            db.create_index(IndexDef {
                name: name.to_string(),
                table: "doc".to_string(),
                key_columns: cols.iter().map(|c| c.to_string()).collect(),
                include_columns: vec![],
                clustered: false,
            });
        }
        let bound = |b: u64, k: i64| match b {
            0 => Bound::Unbounded,
            1 => Bound::Included(k),
            _ => Bound::Excluded(k),
        };
        for _ in 0..500 {
            let index = ["nkp", "nkd"][below(2) as usize];
            let name = ["a", "b", "c", "absent"][below(4) as usize];
            let kind = ["ELEM", "TEXT"][below(2) as usize];
            let prefix = vec![Value::str(name), Value::str(kind)];
            let (lo, hi) = (below(620) as i64 - 10, below(620) as i64 - 10);
            let (lower, upper) = (bound(below(3), lo), bound(below(3), hi));
            // The B-tree probe: the prefix prepended to each present bound.
            let key = |b: Bound<i64>| {
                b.map(|k| {
                    let mut key = prefix.clone();
                    key.push(Value::Int(k));
                    key
                })
            };
            let (lkey, ukey) = (key(lower), key(upper));
            let via_tree = |l: Bound<&[Value]>, u: Bound<&[Value]>| {
                db.index(index).unwrap().tree.range_rids(l, u)
            };
            let expected = via_tree(
                match &lkey {
                    Bound::Unbounded => Bound::Included(prefix.as_slice()),
                    b => b.as_ref().map(Vec::as_slice),
                },
                match &ukey {
                    Bound::Unbounded => Bound::Included(prefix.as_slice()),
                    b => b.as_ref().map(Vec::as_slice),
                },
            );
            match db.prefix_run(index, &prefix) {
                Some(run) => assert_eq!(run.range(lower, upper), expected.as_slice()),
                None => assert_eq!((index, name, kind), ("nkd", "c", "ELEM")),
            }
        }
        // An absent prefix is an empty run; bounds past the data are an
        // empty slice of a non-empty one.
        let absent = [Value::str("absent"), Value::str("ELEM")];
        assert!(db.prefix_run("nkp", &absent).unwrap().keys.is_empty());
        let a = [Value::str("a"), Value::str("ELEM")];
        let run = db.prefix_run("nkp", &a).unwrap();
        assert!(!run.keys.is_empty());
        assert!(run
            .range(Bound::Excluded(1000), Bound::Unbounded)
            .is_empty());
        assert!(run
            .range(Bound::Included(50), Bound::Excluded(50))
            .is_empty());
        assert!(db.prefix_run("nope", &a).is_none());
        // Memoized: the same `Arc` comes back, and so does the `None` of a
        // mixed column, without another walk.
        assert!(Arc::ptr_eq(&run, &db.prefix_run("nkp", &a).unwrap()));
        let mixed = [Value::str("c"), Value::str("ELEM")];
        let built = db.prefix_runs_built();
        assert!(db.prefix_run("nkd", &mixed).is_none());
        assert_eq!(db.prefix_runs_built(), built, "None is memoized");
        // DDL clears the memo.
        assert!(db.prefix_runs_built() > 0);
        db.create_index(IndexDef {
            name: "p".to_string(),
            table: "doc".to_string(),
            key_columns: vec!["pre".to_string()],
            include_columns: vec![],
            clustered: true,
        });
        assert_eq!(db.prefix_runs_built(), 0);
        let fresh = db.prefix_run("nkp", &a).unwrap();
        assert!(!Arc::ptr_eq(&run, &fresh));
        assert_eq!(*run, *fresh);
    }

    #[test]
    fn code_runs_answer_equality_probes_like_the_btree() {
        // (value, name, kind, pre): `value` is a NULL-bearing string
        // column with duplicates; "z*" strings occur only outside the
        // (id, ATTR) group, so they have codes but no entries there.
        let mut t = Table::new(Schema::new(["value", "name", "kind", "pre", "num"]));
        let mut seed = 5u64;
        let mut below = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for pre in 0..800i64 {
            let name = ["id", "ref", "x"][below(3) as usize];
            let kind = ["ATTR", "ELEM"][below(2) as usize];
            let value = match below(8) {
                0 => Value::Null,
                v if name != "id" && v == 1 => Value::str(format!("z{}", below(4))),
                _ => Value::str(format!("v{}", below(30))),
            };
            t.push(vec![
                value,
                Value::str(name),
                Value::str(kind),
                Value::Int(pre),
                Value::Int(pre % 7),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        for (name, cols) in [
            ("vnkp", &["value", "name", "kind", "pre"][..]),
            ("nvkp", &["name", "value", "kind", "pre"][..]),
            ("nump", &["num", "pre"][..]),
        ] {
            db.create_index(IndexDef {
                name: name.to_string(),
                table: "doc".to_string(),
                key_columns: cols.iter().map(|c| c.to_string()).collect(),
                include_columns: vec![],
                clustered: false,
            });
        }
        let typed = db.table("doc").unwrap().typed();
        let TypedColumn::Dict { dict, .. } = typed.col(0).unwrap() else {
            panic!("value has a dictionary image");
        };
        let lit = |s: &str| Some(Value::str(s));
        for (index, terms) in [
            ("vnkp", vec![None, lit("id"), lit("ATTR")]),
            ("vnkp", vec![None, lit("ref")]),
            ("vnkp", vec![None]),
            ("nvkp", vec![lit("id"), None, lit("ATTR")]),
            ("nvkp", vec![lit("absent"), None]),
        ] {
            let run = db.code_run(index, &terms).expect("a dictionary column");
            assert!(run.codes.windows(2).all(|w| w[0] <= w[1]));
            for (code, s) in dict.iter().enumerate() {
                // The B-tree probe: the probed string in the open slot.
                let key: Vec<Value> = terms
                    .iter()
                    .map(|t| t.clone().unwrap_or(Value::str(s.as_str())))
                    .collect();
                let bound = Bound::Included(key.as_slice());
                let expected = db.index(index).unwrap().tree.range_rids(bound, bound);
                assert_eq!(run.rids_of(code as u32), expected, "{index} {terms:?} {s}");
            }
            assert!(run.rids_of(dict.len() as u32).is_empty());
        }
        let group = [None, lit("id"), lit("ATTR")];
        let run = db.code_run("vnkp", &group).unwrap();
        assert!(dict
            .iter()
            .enumerate()
            .filter(|(_, s)| s.starts_with('z'))
            .all(|(c, _)| run.rids_of(c as u32).is_empty()));
        // Not a dictionary column, no open column, two open columns, more
        // terms than key columns, no such index: no run.
        assert!(db.code_run("nump", &[None]).is_none());
        assert!(db.code_run("vnkp", &[lit("v1"), lit("id")]).is_none());
        assert!(db.code_run("vnkp", &[None, None]).is_none());
        assert!(db.code_run("nump", &[lit("a"), lit("b"), None]).is_none());
        assert!(db.code_run("nope", &group).is_none());
        // Memoized, `None`s included; DDL clears the memo.
        assert!(Arc::ptr_eq(&run, &db.code_run("vnkp", &group).unwrap()));
        let built = db.code_runs_built();
        assert!(db.code_run("nump", &[None]).is_none());
        assert_eq!(db.code_runs_built(), built, "None is memoized");
        db.create_index(IndexDef {
            name: "p".to_string(),
            table: "doc".to_string(),
            key_columns: vec!["pre".to_string()],
            include_columns: vec![],
            clustered: true,
        });
        assert_eq!(db.code_runs_built(), 0);
        let fresh = db.code_run("vnkp", &group).unwrap();
        assert!(!Arc::ptr_eq(&run, &fresh));
        assert_eq!(*run, *fresh);
    }

    #[test]
    fn index_lookup_returns_matching_rows() {
        let db = db();
        let ix = db.index("np").unwrap();
        let hits = ix.tree.lookup_prefix(&[Value::str("item")]);
        assert_eq!(hits.len(), 50);
        // Every returned row id indeed stores name = 'item'.
        for rid in hits {
            assert_eq!(
                db.fetch("doc", rid, &["name".to_string()])[0],
                Value::str("item")
            );
        }
    }

    #[test]
    fn index_range_scan_with_composite_bounds() {
        let db = db();
        let ix = db.index("np").unwrap();
        let lo = vec![Value::str("item"), Value::Int(10)];
        let hi = vec![Value::str("item"), Value::Int(20)];
        let hits = ix.tree.range(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(hits.len(), 6); // pre in {10,12,14,16,18,20}
    }

    #[test]
    fn key_prefix_matching_and_coverage() {
        let db = db();
        let ix = db.index("np").unwrap();
        assert!(ix.key_prefix_matches(&["name".to_string()]));
        assert!(ix.key_prefix_matches(&["name".to_string(), "pre".to_string()]));
        assert!(!ix.key_prefix_matches(&["pre".to_string()]));
        assert_eq!(
            ix.covered_columns(),
            vec!["name".to_string(), "pre".to_string()]
        );
    }

    #[test]
    fn recreating_an_index_replaces_it() {
        let mut db = db();
        db.create_index(IndexDef {
            name: "np".to_string(),
            table: "doc".to_string(),
            key_columns: vec!["pre".to_string()],
            include_columns: vec![],
            clustered: true,
        });
        assert_eq!(db.indexes_on("doc").len(), 1);
        assert_eq!(
            db.index("np").unwrap().def.key_columns,
            vec!["pre".to_string()]
        );
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn index_on_missing_table_panics() {
        let mut db = Database::new();
        db.create_index(IndexDef {
            name: "x".to_string(),
            table: "nope".to_string(),
            key_columns: vec!["a".to_string()],
            include_columns: vec![],
            clustered: false,
        });
    }
}
