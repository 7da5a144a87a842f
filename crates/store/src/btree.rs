//! A composite-key B+tree.
//!
//! This is the "vanilla B-tree" the paper's whole argument rests on: the
//! only index structure the relational back-end needs to act as an XQuery
//! runtime.  Keys are tuples of [`Value`]s (e.g. `(name, kind, pre + size,
//! level)` for the `nkspl` index of Table VI), entries map a key to the row
//! id of a `doc`-table row, and range scans support partially specified
//! bounds (key prefixes) — that is exactly the access pattern of the
//! half-open `(pre◦, pre◦ + size◦]` interval predicates of Fig. 3.
//!
//! The implementation is an arena-based B+tree with linked leaves, insert
//! and bulk-load paths, and point/range scan operations.  There is no
//! delete operation: the XML encoding is read-only after document shredding
//! (documents are replaced wholesale, as in the paper's setup).

use crate::mask::BitMask;
use crate::value::Value;
use std::cmp::Ordering;
use std::ops::Bound;

/// A composite index key.
pub type Key = Vec<Value>;

/// Maximum number of keys in a node before it splits.
const ORDER: usize = 64;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<Key>,
        rows: Vec<usize>,
        next: Option<usize>,
    },
    Internal {
        /// `separators[i]` is the smallest key reachable via `children[i+1]`.
        separators: Vec<Key>,
        children: Vec<usize>,
    },
}

/// A B+tree multi-map from composite keys to row ids.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
    height: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        BPlusTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                rows: Vec::new(),
                next: None,
            }],
            root: 0,
            len: 0,
            height: 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes ("pages") — input to the cost model.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bulk-load a tree from entries.  The entries are sorted internally;
    /// this is the preferred construction path after document shredding.
    pub fn bulk_load(mut entries: Vec<(Key, usize)>) -> Self {
        entries.sort_by(|a, b| cmp_key(&a.0, &b.0).then(a.1.cmp(&b.1)));
        let len = entries.len();
        if entries.is_empty() {
            return BPlusTree::new();
        }
        let mut nodes: Vec<Node> = Vec::new();
        // Build leaves.
        let mut leaf_ids: Vec<usize> = Vec::new();
        let mut first_keys: Vec<Key> = Vec::new();
        let per_leaf = ORDER.max(2);
        for chunk in entries.chunks(per_leaf) {
            let id = nodes.len();
            first_keys.push(chunk[0].0.clone());
            nodes.push(Node::Leaf {
                keys: chunk.iter().map(|(k, _)| k.clone()).collect(),
                rows: chunk.iter().map(|(_, r)| *r).collect(),
                next: None,
            });
            leaf_ids.push(id);
        }
        // Link leaves.
        for w in 0..leaf_ids.len().saturating_sub(1) {
            let next_id = leaf_ids[w + 1];
            if let Node::Leaf { next, .. } = &mut nodes[leaf_ids[w]] {
                *next = Some(next_id);
            }
        }
        // Build internal levels bottom-up.
        let mut level_ids = leaf_ids;
        let mut level_first_keys = first_keys;
        let mut height = 1;
        while level_ids.len() > 1 {
            let mut parent_ids = Vec::new();
            let mut parent_first_keys = Vec::new();
            for (chunk_ids, chunk_keys) in
                level_ids.chunks(ORDER).zip(level_first_keys.chunks(ORDER))
            {
                let id = nodes.len();
                parent_first_keys.push(chunk_keys[0].clone());
                nodes.push(Node::Internal {
                    separators: chunk_keys[1..].to_vec(),
                    children: chunk_ids.to_vec(),
                });
                parent_ids.push(id);
            }
            level_ids = parent_ids;
            level_first_keys = parent_first_keys;
            height += 1;
        }
        BPlusTree {
            root: level_ids[0],
            nodes,
            len,
            height,
        }
    }

    /// Insert an entry.
    pub fn insert(&mut self, key: Key, row: usize) {
        if let Some((sep, new_node)) = self.insert_rec(self.root, &key, row) {
            // Root split: create a new root.
            let old_root = self.root;
            let new_root = self.nodes.len();
            self.nodes.push(Node::Internal {
                separators: vec![sep],
                children: vec![old_root, new_node],
            });
            self.root = new_root;
            self.height += 1;
        }
        self.len += 1;
    }

    fn insert_rec(&mut self, node_id: usize, key: &Key, row: usize) -> Option<(Key, usize)> {
        if matches!(self.nodes[node_id], Node::Leaf { .. }) {
            let overflow = match &mut self.nodes[node_id] {
                Node::Leaf { keys, rows, .. } => {
                    let pos = keys.partition_point(|k| cmp_key(k, key) != Ordering::Greater);
                    keys.insert(pos, key.clone());
                    rows.insert(pos, row);
                    keys.len() > ORDER
                }
                Node::Internal { .. } => unreachable!(),
            };
            return if overflow {
                Some(self.split_leaf(node_id))
            } else {
                None
            };
        }
        let (child_idx, child) = match &self.nodes[node_id] {
            Node::Internal {
                separators,
                children,
            } => {
                let idx = separators.partition_point(|s| cmp_key(s, key) != Ordering::Greater);
                (idx, children[idx])
            }
            Node::Leaf { .. } => unreachable!(),
        };
        if let Some((sep, new_node)) = self.insert_rec(child, key, row) {
            let overflow = match &mut self.nodes[node_id] {
                Node::Internal {
                    separators,
                    children,
                } => {
                    separators.insert(child_idx, sep);
                    children.insert(child_idx + 1, new_node);
                    separators.len() > ORDER
                }
                Node::Leaf { .. } => unreachable!(),
            };
            if overflow {
                return Some(self.split_internal(node_id));
            }
        }
        None
    }

    fn split_leaf(&mut self, node_id: usize) -> (Key, usize) {
        let new_id = self.nodes.len();
        let (sep, new_node) = match &mut self.nodes[node_id] {
            Node::Leaf { keys, rows, next } => {
                let mid = keys.len() / 2;
                let right_keys: Vec<Key> = keys.split_off(mid);
                let right_rows: Vec<usize> = rows.split_off(mid);
                let sep = right_keys[0].clone();
                let right = Node::Leaf {
                    keys: right_keys,
                    rows: right_rows,
                    next: *next,
                };
                *next = Some(new_id);
                (sep, right)
            }
            _ => unreachable!("split_leaf on internal node"),
        };
        self.nodes.push(new_node);
        (sep, new_id)
    }

    fn split_internal(&mut self, node_id: usize) -> (Key, usize) {
        let new_id = self.nodes.len();
        let (sep, new_node) = match &mut self.nodes[node_id] {
            Node::Internal {
                separators,
                children,
            } => {
                let mid = separators.len() / 2;
                let sep = separators[mid].clone();
                let right_seps: Vec<Key> = separators.split_off(mid + 1);
                separators.pop(); // drop the separator promoted upward
                let right_children: Vec<usize> = children.split_off(mid + 1);
                (
                    sep,
                    Node::Internal {
                        separators: right_seps,
                        children: right_children,
                    },
                )
            }
            _ => unreachable!("split_internal on leaf"),
        };
        self.nodes.push(new_node);
        (sep, new_id)
    }

    /// Row ids whose key starts with the given prefix (equality lookup).
    pub fn lookup_prefix(&self, prefix: &[Value]) -> Vec<usize> {
        self.range_rids(Bound::Included(prefix), Bound::Included(prefix))
    }

    /// Range scan.  Bounds are key *prefixes*: a bound of length `m` is
    /// compared against the first `m` components of each stored key, so
    /// `Included([ELEM, "price"]) ..= Included([ELEM, "price"])` returns all
    /// entries of that name/kind partition regardless of the remaining key
    /// columns.
    pub fn range(&self, lower: Bound<&[Value]>, upper: Bound<&[Value]>) -> Vec<(Key, usize)> {
        self.entries(lower, upper)
            .map(|(k, r)| (k.clone(), r))
            .collect()
    }

    /// All entries in key order (full scan along the leaf chain).
    pub fn scan_all(&self) -> Vec<(Key, usize)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Visit every entry in key order along the leaf chain, without
    /// cloning keys (the sorted input of one-pass group statistics).
    pub fn for_each_entry(&self, mut f: impl FnMut(&[Value], usize)) {
        for (k, r) in self.entries(Bound::Unbounded, Bound::Unbounded) {
            f(k, r);
        }
    }

    /// [`Self::range`] returning only the row ids (key order), skipping
    /// the per-entry key clone — the shape every executor range scan
    /// actually consumes.
    pub fn range_rids(&self, lower: Bound<&[Value]>, upper: Bound<&[Value]>) -> Vec<usize> {
        let mut out = Vec::new();
        self.range_rids_into(lower, upper, &mut out);
        out
    }

    /// [`Self::range_rids`] appending to a caller-owned buffer, so a probe
    /// loop reuses one allocation across probes.
    pub fn range_rids_into(
        &self,
        lower: Bound<&[Value]>,
        upper: Bound<&[Value]>,
        out: &mut Vec<usize>,
    ) {
        out.extend(self.entries(lower, upper).map(|(_, r)| r));
    }

    /// The entries under a literal key prefix as a [`PrefixRun`] over the
    /// next key column, or `None` when any of them holds a non-integer
    /// there (or the key has no column after the prefix).  One walk over
    /// the prefix's leaves; no key is cloned.
    pub fn prefix_run(&self, prefix: &[Value]) -> Option<PrefixRun> {
        let mut run = PrefixRun::default();
        let bound = Bound::Included(prefix);
        for (k, r) in self.entries(bound, bound) {
            let Some(Value::Int(v)) = k.get(prefix.len()) else {
                return None;
            };
            run.keys.push(*v);
            run.rids.push(r);
        }
        Some(run)
    }

    /// The entries whose leading key columns match `terms` as a
    /// [`CodeRun`] keyed by the dictionary codes of the one column `terms`
    /// leaves open (its single `None`): `codes` is that column's image in
    /// the base table, indexed by rid, and `validity` its NULL mask.
    /// Entries with a NULL there are left out — SQL equality never matches
    /// them.  `None` when `terms` has no or several open columns, or when
    /// the codes do not ascend in index order (an image that does not
    /// belong to this index's column).  One walk over the literal prefix
    /// before the open column; no key is cloned.
    pub fn code_run(
        &self,
        terms: &[Option<Value>],
        codes: &[u32],
        validity: Option<&BitMask>,
    ) -> Option<CodeRun> {
        let open = terms.iter().position(Option::is_none)?;
        if terms[open + 1..].iter().any(Option::is_none) {
            return None;
        }
        let lead: Vec<Value> = terms[..open].iter().flatten().cloned().collect();
        let bound = Bound::Included(lead.as_slice());
        let mut run = CodeRun::default();
        for (k, r) in self.entries(bound, bound) {
            let tail_matches = terms[open + 1..]
                .iter()
                .zip(k.get(open + 1..)?)
                .all(|(t, v)| t.as_ref() == Some(v));
            if !tail_matches || k[open].is_null() || validity.is_some_and(|m| !m.get(r)) {
                continue;
            }
            let code = *codes.get(r)?;
            if run.codes.last().is_some_and(|&last| last > code) {
                return None;
            }
            run.codes.push(code);
            run.rids.push(r);
        }
        run.codes.shrink_to_fit();
        run.rids.shrink_to_fit();
        Some(run)
    }

    /// Entries within the bounds, in key order.  The descent picks the
    /// first leaf that may qualify and a binary search finds the first
    /// entry in it that passes `lower` (a leaf whose entries all fail it
    /// hands over to its successor); past that entry `lower` holds for
    /// every later key, so only `upper` is checked.
    fn entries<'t, 'b>(
        &'t self,
        lower: Bound<&[Value]>,
        upper: Bound<&'b [Value]>,
    ) -> Entries<'t, 'b> {
        let mut node_id = self.root;
        while let Node::Internal {
            separators,
            children,
        } = &self.nodes[node_id]
        {
            let idx = match lower {
                Bound::Unbounded => 0,
                Bound::Included(p) | Bound::Excluded(p) => {
                    separators.partition_point(|s| cmp_prefix(s, p) == Ordering::Less)
                }
            };
            node_id = children[idx.min(children.len() - 1)];
        }
        let mut current = Some(node_id);
        while let Some(id) = current {
            let (keys, rows, next) = self.leaf(id);
            let pos = keys.partition_point(|k| !lower_ok(k, lower));
            if pos < keys.len() {
                return Entries {
                    tree: self,
                    keys: &keys[pos..],
                    rows: &rows[pos..],
                    next,
                    upper,
                };
            }
            current = next;
        }
        Entries {
            tree: self,
            keys: &[],
            rows: &[],
            next: None,
            upper,
        }
    }

    fn leaf(&self, id: usize) -> (&[Key], &[usize], Option<usize>) {
        match &self.nodes[id] {
            Node::Leaf { keys, rows, next } => (keys, rows, *next),
            Node::Internal { .. } => unreachable!("leaf chain reached an internal node"),
        }
    }
}

/// Iterator behind every range scan: the rest of the current leaf, then
/// the leaf chain, until a key passes `upper`.
struct Entries<'t, 'b> {
    tree: &'t BPlusTree,
    keys: &'t [Key],
    rows: &'t [usize],
    next: Option<usize>,
    upper: Bound<&'b [Value]>,
}

impl<'t> Iterator for Entries<'t, '_> {
    type Item = (&'t Key, usize);

    fn next(&mut self) -> Option<Self::Item> {
        while self.keys.is_empty() {
            let (keys, rows, next) = self.tree.leaf(self.next?);
            (self.keys, self.rows, self.next) = (keys, rows, next);
        }
        let k = &self.keys[0];
        let beyond = match self.upper {
            Bound::Unbounded => false,
            Bound::Included(p) => cmp_prefix(k, p) == Ordering::Greater,
            Bound::Excluded(p) => cmp_prefix(k, p) != Ordering::Less,
        };
        if beyond {
            self.keys = &[];
            self.next = None;
            return None;
        }
        let r = self.rows[0];
        self.keys = &self.keys[1..];
        self.rows = &self.rows[1..];
        Some((k, r))
    }
}

/// The entries of one index under one literal equality prefix, in index
/// order, reduced to what an integer range probe reads: `keys[i]` is entry
/// `i`'s key column right after the prefix, `rids[i]` its row id.  A range
/// over that column is two binary searches and a slice — the same rids,
/// in the same order, as the B-tree range scan with the prefix prepended
/// to both bounds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrefixRun {
    /// The range column of every entry, ascending.
    pub keys: Vec<i64>,
    /// Row ids, aligned with `keys`.
    pub rids: Vec<usize>,
}

impl PrefixRun {
    /// Rids whose range column lies within the bounds.
    pub fn range(&self, lower: Bound<i64>, upper: Bound<i64>) -> &[usize] {
        let a = match lower {
            Bound::Unbounded => 0,
            Bound::Included(lo) => self.keys.partition_point(|&k| k < lo),
            Bound::Excluded(lo) => self.keys.partition_point(|&k| k <= lo),
        };
        let b = match upper {
            Bound::Unbounded => self.keys.len(),
            Bound::Included(hi) => self.keys.partition_point(|&k| k <= hi),
            Bound::Excluded(hi) => self.keys.partition_point(|&k| k < hi),
        };
        &self.rids[a..b.max(a)]
    }
}

/// The entries of one index under an equality prefix of literal terms
/// around one open column, in index order, reduced to what an equality
/// probe on that column reads: `codes[i]` is entry `i`'s open column as a
/// code of the base table's sorted dictionary image, `rids[i]` its row
/// id.  A sorted dictionary orders codes like the strings, so index order
/// is `(code, rest of the key)`, and the entries equal to one string are
/// the slice two binary searches find — the same rids, in the same order,
/// as the B-tree range scan under the full equality prefix.  A probe
/// whose value comes from the same column of the same table already holds
/// the code: it compares no string and reads no [`Value`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeRun {
    /// The open column's dictionary code of every entry, ascending.
    pub codes: Vec<u32>,
    /// Row ids, aligned with `codes`.
    pub rids: Vec<usize>,
}

impl CodeRun {
    /// Rids whose open column holds dictionary code `code`.
    pub fn rids_of(&self, code: u32) -> &[usize] {
        let a = self.codes.partition_point(|&c| c < code);
        let b = a + self.codes[a..].partition_point(|&c| c == code);
        &self.rids[a..b]
    }
}

fn lower_ok(key: &Key, lower: Bound<&[Value]>) -> bool {
    match lower {
        Bound::Unbounded => true,
        Bound::Included(p) => cmp_prefix(key, p) != Ordering::Less,
        Bound::Excluded(p) => cmp_prefix(key, p) == Ordering::Greater,
    }
}

/// Compare two full keys lexicographically.
pub fn cmp_key(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Compare a full key against a (possibly shorter) prefix: only the first
/// `prefix.len()` components participate.
pub fn cmp_prefix(key: &[Value], prefix: &[Value]) -> Ordering {
    for (x, y) in key.iter().zip(prefix.iter()) {
        let o = x.cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    if key.len() >= prefix.len() {
        Ordering::Equal
    } else {
        Ordering::Less
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Key {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut t = BPlusTree::new();
        for i in 0..500 {
            t.insert(key(&[i % 10, i]), i as usize);
        }
        assert_eq!(t.len(), 500);
        let hits = t.lookup_prefix(&key(&[3]));
        assert_eq!(hits.len(), 50);
        let exact = t.lookup_prefix(&key(&[3, 13]));
        assert_eq!(exact, vec![13]);
    }

    #[test]
    fn range_scan_with_prefix_bounds() {
        let mut t = BPlusTree::new();
        for i in 0..200i64 {
            t.insert(key(&[i]), i as usize);
        }
        let lo = key(&[50]);
        let hi = key(&[60]);
        let r = t.range(Bound::Excluded(&lo), Bound::Included(&hi));
        let rows: Vec<usize> = r.into_iter().map(|(_, r)| r).collect();
        assert_eq!(rows, (51..=60).collect::<Vec<usize>>());
    }

    #[test]
    fn range_rids_matches_range() {
        let mut t = BPlusTree::new();
        for i in 0..300i64 {
            t.insert(key(&[i % 9, i]), i as usize);
        }
        let lo = key(&[2]);
        let hi = key(&[5]);
        for (l, u) in [
            (
                Bound::Included(lo.as_slice()),
                Bound::Included(hi.as_slice()),
            ),
            (
                Bound::Excluded(lo.as_slice()),
                Bound::Excluded(hi.as_slice()),
            ),
            (Bound::Unbounded, Bound::Included(hi.as_slice())),
            (Bound::Included(lo.as_slice()), Bound::Unbounded),
            (Bound::Unbounded, Bound::Unbounded),
        ] {
            let with_keys: Vec<usize> = t.range(l, u).into_iter().map(|(_, r)| r).collect();
            assert_eq!(t.range_rids(l, u), with_keys);
        }
        assert!(BPlusTree::new()
            .range_rids(Bound::Unbounded, Bound::Unbounded)
            .is_empty());
    }

    /// splitmix64: a deterministic stream per seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn range_scans_match_a_sorted_vec_oracle() {
        // Composite keys over small domains (many duplicates), plus one
        // key repeated across several leaves, so the first qualifying
        // entry of an `Excluded` bound can sit leaves past the descent.
        let mut rng = Rng(7);
        let mut entries: Vec<(Key, usize)> = (0..3000)
            .map(|rid| {
                let k = key(&[
                    rng.below(4) as i64,
                    rng.below(20) as i64,
                    rng.below(5) as i64,
                ]);
                (k, rid)
            })
            .collect();
        entries.extend((3000..3300).map(|rid| (key(&[1, 7, 2]), rid)));
        let bulk = BPlusTree::bulk_load(entries.clone());
        let mut inc = BPlusTree::new();
        for (k, r) in &entries {
            inc.insert(k.clone(), *r);
        }
        let mut oracle = entries;
        oracle.sort_by(|a, b| cmp_key(&a.0, &b.0).then(a.1.cmp(&b.1)));
        let bound = |rng: &mut Rng, p: &[Value]| -> Bound<Vec<Value>> {
            let len = 1 + rng.below(3) as usize;
            match rng.below(3) {
                0 => Bound::Unbounded,
                1 => Bound::Included(p[..len].to_vec()),
                _ => Bound::Excluded(p[..len].to_vec()),
            }
        };
        for _ in 0..600 {
            // Bound keys from the stored domain (hits) or just outside it.
            let p = key(&[
                rng.below(5) as i64,
                rng.below(21) as i64 - 1,
                rng.below(6) as i64,
            ]);
            let q = if rng.below(2) == 0 {
                p.clone()
            } else {
                key(&[
                    rng.below(5) as i64,
                    rng.below(21) as i64,
                    rng.below(6) as i64,
                ])
            };
            let (lo, hi) = (bound(&mut rng, &p), bound(&mut rng, &q));
            let (l, u) = (
                lo.as_ref().map(Vec::as_slice),
                hi.as_ref().map(Vec::as_slice),
            );
            let expected: Vec<usize> = oracle
                .iter()
                .filter(|(k, _)| {
                    lower_ok(k, l)
                        && match u {
                            Bound::Unbounded => true,
                            Bound::Included(p) => cmp_prefix(k, p) != Ordering::Greater,
                            Bound::Excluded(p) => cmp_prefix(k, p) == Ordering::Less,
                        }
                })
                .map(|(_, r)| *r)
                .collect();
            assert_eq!(bulk.range_rids(l, u), expected, "{lo:?} .. {hi:?}");
            assert_eq!(
                inc.range_rids(l, u),
                expected,
                "insert-built: {lo:?} .. {hi:?}"
            );
            let keyed: Vec<usize> = bulk.range(l, u).into_iter().map(|(_, r)| r).collect();
            assert_eq!(keyed, expected);
        }
    }

    #[test]
    fn prefix_runs_hold_the_next_key_column() {
        let t = BPlusTree::bulk_load(
            (0..400i64)
                .map(|i| (key(&[i % 3, (i * 7) % 50, i]), i as usize))
                .collect(),
        );
        let run = t.prefix_run(&key(&[1])).expect("integer range column");
        let expected = t.lookup_prefix(&key(&[1]));
        assert_eq!(run.rids, expected);
        assert!(run.keys.windows(2).all(|w| w[0] <= w[1]));
        let lo = key(&[1, 10]);
        let hi = key(&[1, 20]);
        assert_eq!(
            run.range(Bound::Excluded(10), Bound::Included(20)),
            t.range_rids(Bound::Excluded(&lo), Bound::Included(&hi))
        );
        assert!(t.prefix_run(&key(&[9])).unwrap().rids.is_empty());
        assert!(t.prefix_run(&key(&[1, 17, 31])).is_none(), "no next column");
        let mixed = BPlusTree::bulk_load(vec![
            (vec![Value::Int(1), Value::Int(4)], 0),
            (vec![Value::Int(1), Value::Dec(4.5)], 1),
        ]);
        assert!(mixed.prefix_run(&key(&[1])).is_none());
    }

    #[test]
    fn bulk_load_equals_insert() {
        let entries: Vec<(Key, usize)> =
            (0..1000).map(|i| (key(&[i % 7, i]), i as usize)).collect();
        let bulk = BPlusTree::bulk_load(entries.clone());
        let mut inc = BPlusTree::new();
        for (k, r) in entries {
            inc.insert(k, r);
        }
        assert_eq!(bulk.len(), inc.len());
        assert_eq!(bulk.scan_all(), inc.scan_all());
        assert!(bulk.height() >= 2);
    }

    #[test]
    fn scan_all_is_sorted() {
        let mut t = BPlusTree::new();
        // Insert in reverse order.
        for i in (0..300i64).rev() {
            t.insert(key(&[i]), i as usize);
        }
        let all = t.scan_all();
        assert_eq!(all.len(), 300);
        for w in all.windows(2) {
            assert!(cmp_key(&w[0].0, &w[1].0) != Ordering::Greater);
        }
    }

    #[test]
    fn duplicate_keys_keep_all_postings() {
        let mut t = BPlusTree::new();
        for i in 0..100 {
            t.insert(key(&[7]), i);
        }
        assert_eq!(t.lookup_prefix(&key(&[7])).len(), 100);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = BPlusTree::new();
        assert!(t.is_empty());
        assert!(t.scan_all().is_empty());
        assert!(t.lookup_prefix(&key(&[1])).is_empty());
        let empty_bulk = BPlusTree::bulk_load(vec![]);
        assert!(empty_bulk.is_empty());
    }

    #[test]
    fn mixed_type_keys() {
        let mut t = BPlusTree::new();
        t.insert(vec![Value::str("price"), Value::Int(1)], 1);
        t.insert(vec![Value::str("price"), Value::Int(2)], 2);
        t.insert(vec![Value::str("item"), Value::Int(3)], 3);
        let hits = t.lookup_prefix(&[Value::str("price")]);
        assert_eq!(hits.len(), 2);
        let all = t.scan_all();
        assert_eq!(all[0].1, 3, "item sorts before price");
    }

    #[test]
    fn prefix_comparison_rules() {
        let k = key(&[5, 9]);
        assert_eq!(cmp_prefix(&k, &key(&[5])), Ordering::Equal);
        assert_eq!(cmp_prefix(&k, &key(&[6])), Ordering::Less);
        assert_eq!(cmp_prefix(&k, &key(&[5, 9, 1])), Ordering::Less);
        assert_eq!(cmp_key(&key(&[5]), &key(&[5, 1])), Ordering::Less);
    }

    #[test]
    fn unbounded_lower_with_upper() {
        let t = BPlusTree::bulk_load((0..50i64).map(|i| (key(&[i]), i as usize)).collect());
        let hi = key(&[4]);
        let r = t.range(Bound::Unbounded, Bound::Excluded(&hi));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn large_tree_height_grows_logarithmically() {
        let t = BPlusTree::bulk_load((0..100_000i64).map(|i| (key(&[i]), i as usize)).collect());
        assert_eq!(t.len(), 100_000);
        assert!(t.height() <= 4, "height {} too large", t.height());
        // Spot-check a middle range.
        let lo = key(&[42_000]);
        let hi = key(&[42_010]);
        let r = t.range(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(r.len(), 11);
    }
}
