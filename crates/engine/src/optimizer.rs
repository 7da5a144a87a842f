//! Cost-based optimization of SFW join-graph queries.
//!
//! The optimizer performs the two classical tasks the paper delegates to the
//! RDBMS (Section IV-A):
//!
//! * **access path selection** — match each alias's predicates against the
//!   available composite-key B-tree indexes (equality prefix + one range
//!   column), estimate selectivities from table statistics, or fall back to
//!   a table scan.  A range column bounded from one side only gets its
//!   other side from the catalog's column-group extent statistic when a
//!   containment partner allows it (see `Planner::implied_lower`) — the
//!   step that makes walking *up* from a selective leaf cost a window, not
//!   half an index partition.  A parent step whose own group is unknown (a
//!   nameless `*` or `..`) and which no index windows that way is closed
//!   from the bound child's side instead: the catalog's parent-gap
//!   statistic of the child's `(name, kind)` group bounds how far before
//!   the child its parent sits (see `Planner::child_window`) — and
//! * **join tree planning** — dynamic programming over connected sub-plans
//!   (Selinger-style, left-deep), choosing nested-loop (index probe) or hash
//!   joins per step.
//!
//! Because the join graph does not prescribe any XPath evaluation order, the
//! chosen join order freely reorders location steps and reverses axes — the
//! behaviour Figures 10 and 11 document for DB2.
//!
//! # What the enumeration is built from
//!
//! Planning should cost what it decides, so one `optimize` call builds three
//! structures and throws them away with its `Planner`:
//!
//! * **Predicate index** (`Planner::new`).  Aliases are bit positions of a
//!   `u64`.  Every WHERE predicate gets its alias mask once; every alias
//!   gets the ascending list of predicates that mention it and the mask of
//!   its *neighbours* (aliases it shares a predicate with).  "Which
//!   predicates can alias `i` apply once `bound` is joined" is then a mask
//!   test per entry of `i`'s own list, and predicates travel as indices
//!   into the WHERE clause until a winner is turned into a plan.
//! * **Step memo** (`Planner::step`).  Adding alias `i` to a bound set is
//!   described by a `Step`: join selectivity, the cheapest probe with its
//!   per-probe cost and leftover predicates, and the hash-join alternative.
//!   All of it is derived from the predicates of `i` that are available —
//!   those whose other aliases are all bound — and a predicate of `i`
//!   mentions nothing but `i` and neighbours of `i`.  Two bound sets with
//!   the same `bound ∩ neighbours(i)` therefore make the same predicates
//!   available and produce the same `Step`: `(i, bound ∩ neighbours(i))` is
//!   a complete key.  `(i, ∅)` is the constant-only step that also serves
//!   the DP's leaves, cross-product extensions and the build side of every
//!   hash join of `i`.  A 12-alias chain query makes ~1 600 extensions but
//!   only ~50 distinct steps; an extension is a lookup, the cost
//!   arithmetic and one comparison.
//! * **Back-pointer table** (`Planner::plan_joins`).  A DP state holds its
//!   cost, its cardinality and `(previous state, added alias, step, join
//!   method)`; the `JoinNode` spine is built once, for the winner, by
//!   walking the pointers back.
//!
//! Determinism: states of one size live in a `BTreeMap` and are visited in
//! ascending mask order, candidates in ascending alias order, and a
//! candidate replaces the incumbent of its state only when strictly
//! cheaper, or equally cheap with strictly fewer rows — so among exact ties
//! the first one visited wins, on every run.

use crate::physical::{Access, Bounds, JoinMethod, JoinNode, PhysPlan};
use crate::sql::{SfwQuery, SqlCmp, SqlExpr, SqlPredicate};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Bound;
use xqjg_store::Database;

/// Cost-model constants (arbitrary units; only relative magnitudes matter).
mod cost {
    /// Cost of touching one B-tree page (height traversal).  Calibrated
    /// against measured `OpStats` of the in-memory B-trees: one level of a
    /// descent costs about as much as scanning one leaf entry, not the
    /// disk-era multiple — overweighting it here made repeated
    /// NLJOIN–IXSCAN window probes look pricier than hash joins that
    /// rescan low-distinct buckets on every probe.
    pub const PAGE: f64 = 1.0;
    /// Cost per index entry scanned.
    pub const IX_ENTRY: f64 = 1.0;
    /// Cost per row scanned in a table scan.
    pub const TB_ROW: f64 = 0.4;
    /// Cost per residual predicate evaluation.
    pub const RESIDUAL: f64 = 0.05;
    /// Cost per row flowing through a hash join.
    pub const HASH_ROW: f64 = 0.6;
    /// Selectivity of a range predicate whose bounds depend on outer columns
    /// (e.g. the `(pre◦, pre◦+size◦]` axis intervals).
    pub const OUTER_RANGE_SEL: f64 = 0.08;
    /// Selectivity assumed for an equality with an outer column when the
    /// statistics give no distinct count.
    pub const FALLBACK_EQ_SEL: f64 = 0.001;
    /// Cap on the number of dynamic-programming states (of all sizes
    /// together — what the table holds) before falling back to greedy
    /// planning.
    pub const DP_STATE_LIMIT: usize = 60_000;
}

/// Optimizer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeError {
    /// Description.
    pub message: String,
}

impl OptimizeError {
    fn new(m: impl Into<String>) -> Self {
        OptimizeError { message: m.into() }
    }
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "optimizer error: {}", self.message)
    }
}

impl std::error::Error for OptimizeError {}

/// Optimize an SFW query against the given database.
pub fn optimize(query: &SfwQuery, db: &Database) -> Result<PhysPlan, OptimizeError> {
    if query.from.is_empty() {
        return Err(OptimizeError::new("empty FROM clause"));
    }
    for f in &query.from {
        if db.table(&f.table).is_none() {
            return Err(OptimizeError::new(format!("unknown table {:?}", f.table)));
        }
    }
    if query.from.len() > 63 {
        return Err(OptimizeError::new("too many FROM items (max 63)"));
    }

    let mut planner = Planner::new(query, db);
    let chain = planner.plan_joins()?;
    let last = chain.last().expect("FROM clause is not empty");
    Ok(PhysPlan {
        root: planner.materialize(&chain),
        select: query.select.clone(),
        distinct: query.distinct,
        order_by: query.order_by.iter().map(|o| o.col.clone()).collect(),
        est_cost: last.cost,
        est_rows: last.card,
    })
}

/// Mask bit standing for every alias a predicate mentions that is not in
/// the FROM clause.  `optimize` admits at most 63 aliases, so the bit is
/// never part of a bound set and such a predicate never becomes available.
const UNKNOWN: u64 = 1 << 63;

/// The set bits of a mask, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

struct AliasInfo<'a> {
    alias: &'a str,
    table: &'a str,
    /// Estimated rows after applying the alias's constant-only predicates.
    local_rows: f64,
    /// The WHERE predicates that mention the alias, ascending.
    preds: Vec<usize>,
    /// The other aliases those predicates mention.
    neighbours: u64,
}

/// What the predicate index keeps per WHERE predicate.
struct PredInfo {
    /// Aliases the predicate mentions.
    mask: u64,
    /// The alias of the first computed (`pre + size`-style) side that
    /// mentions exactly one alias — the container, when the predicate is
    /// part of a containment group.
    container: Option<usize>,
    /// Position of the first predicate equal to this one.  The index
    /// matcher consumes predicates by value: a repeated conjunct is
    /// covered by the bounds its first copy produced.
    canon: usize,
}

/// How an alias is read, by predicate index: the cheapest access path for
/// one set of available predicates.
#[derive(Debug, Clone, PartialEq)]
struct Probe<'a> {
    /// The index scanned; `None` is a table scan.
    index: Option<&'a str>,
    bounds: Bounds,
    /// Available predicates the bounds do not cover, checked per fetched
    /// row (for a table scan: all of them).
    residual: Vec<usize>,
    /// Cost of one probe.
    cost: f64,
    /// Rows one probe returns.
    rows: f64,
}

/// The hash-join alternative of a [`Step`]: build on the probe of the
/// alias's constant-only step, probe with the bound side.
#[derive(Debug, Clone, PartialEq)]
struct HashStep {
    /// The equality predicates that provide the keys (see [`hash_key`]).
    keys: Vec<usize>,
    /// Join predicates the keys do not cover.
    residual: Vec<usize>,
    /// Build-side entries one probe is expected to compare against.
    candidates: f64,
}

/// Everything about adding an alias to a bound set that does not depend on
/// the outer plan's cost and cardinality — the memoized unit.
#[derive(Debug, Clone, PartialEq)]
struct Step<'a> {
    /// Combined selectivity of the join predicates to the bound aliases.
    join_sel: f64,
    /// The nested-loop inner: cheapest access given the bound aliases.  It
    /// applies every available predicate, through bounds or per-row
    /// checks, so a nested-loop join has no residual of its own.
    probe: Probe<'a>,
    /// Present iff an equality key against the bound aliases exists.
    hash: Option<HashStep>,
}

/// A DP state: the cost and cardinality it won with, and how to rebuild it.
#[derive(Debug, Clone, Copy)]
struct DpEntry {
    cost: f64,
    card: f64,
    /// The state this one extends (0 for a single alias).
    prev: u64,
    /// The alias added last.
    alias: usize,
    /// Its [`Step`] in `Planner::steps`.
    step: usize,
    /// Joined by hash (else nested loop)?
    hash: bool,
}

impl DpEntry {
    /// Break exact cost ties by the smaller intermediate cardinality:
    /// equal-cost orders are common in this model, and the
    /// lower-cardinality one feeds fewer bindings to every operator above
    /// it.
    fn beats(&self, other: &DpEntry) -> bool {
        self.cost < other.cost || (self.cost == other.cost && self.card < other.card)
    }
}

struct Planner<'a> {
    query: &'a SfwQuery,
    db: &'a Database,
    aliases: Vec<AliasInfo<'a>>,
    preds: Vec<PredInfo>,
    /// The step memo.  `steps[i]` is the constant-only step of alias `i`;
    /// `memo` maps `(alias, bound ∩ neighbours)`, where that is not empty,
    /// to a position behind those.
    steps: Vec<Step<'a>>,
    memo: HashMap<(usize, u64), usize>,
    /// DP states created / extensions costed / steps computed: what one
    /// `optimize` call did, for the tests that pin its complexity.
    states: usize,
    extensions: usize,
    access_evaluations: usize,
}

impl<'a> Planner<'a> {
    fn new(query: &'a SfwQuery, db: &'a Database) -> Self {
        let bit: HashMap<&str, usize> = query
            .from
            .iter()
            .enumerate()
            .map(|(i, f)| (f.alias.as_str(), i))
            .collect();
        let mask_of = |e: &SqlExpr| {
            let mut m = 0u64;
            e.for_each_table(&mut |t| m |= bit.get(t).map_or(UNKNOWN, |&b| 1 << b));
            m
        };
        let where_clause = &query.where_clause;
        let preds: Vec<PredInfo> = where_clause
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let sides = [(&p.lhs, mask_of(&p.lhs)), (&p.rhs, mask_of(&p.rhs))];
                PredInfo {
                    mask: sides[0].1 | sides[1].1,
                    container: sides
                        .iter()
                        .find(|(e, m)| matches!(e, SqlExpr::Add(..)) && m.count_ones() == 1)
                        .map(|(_, m)| m.trailing_zeros() as usize),
                    canon: where_clause[..k].iter().position(|q| q == p).unwrap_or(k),
                }
            })
            .collect();
        let aliases = query
            .from
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mine = |k: &usize| preds[*k].mask & (1 << i) != 0;
                let local = (0..preds.len())
                    .filter(|&k| preds[k].mask == 1 << i || preds[k].mask == 0)
                    .map(|k| &where_clause[k]);
                AliasInfo {
                    alias: &f.alias,
                    table: &f.table,
                    local_rows: local_row_estimate(db, &f.alias, &f.table, local),
                    preds: (0..preds.len()).filter(mine).collect(),
                    neighbours: (0..preds.len())
                        .filter(mine)
                        .fold(0, |m, k| m | preds[k].mask)
                        & !(1 << i | UNKNOWN),
                }
            })
            .collect();
        let mut planner = Planner {
            query,
            db,
            aliases,
            preds,
            steps: Vec::new(),
            memo: HashMap::new(),
            states: 0,
            extensions: 0,
            access_evaluations: 0,
        };
        for i in 0..query.from.len() {
            let step = planner.compute_step(i, 0);
            planner.steps.push(step);
        }
        planner.access_evaluations = planner.steps.len();
        planner
    }

    fn pred(&self, k: usize) -> &'a SqlPredicate {
        &self.query.where_clause[k]
    }

    /// Dynamic programming over connected sub-plans; falls back to greedy
    /// when the state space explodes.  Returns the winning states, first
    /// alias first; the last one carries the cost the plan won with — the
    /// number EXPLAIN reports.
    fn plan_joins(&mut self) -> Result<Vec<DpEntry>, OptimizeError> {
        let n = self.aliases.len();
        // levels[k] holds the states of k + 1 aliases.  A `BTreeMap`
        // visits them in ascending mask order: hash order would otherwise
        // decide cost ties, making the chosen join order (and every
        // benchmark built on it) vary from run to run.
        let mut levels: Vec<BTreeMap<u64, DpEntry>> = Vec::with_capacity(n);
        levels.push((0..n).map(|i| (1 << i, self.leaf_entry(i))).collect());
        self.states = n;
        for size in 1..n {
            let mut next = BTreeMap::new();
            for (&mask, entry) in &levels[size - 1] {
                for i in bits(self.candidates(mask)) {
                    let candidate = self.extend(entry, mask, i);
                    match next.entry(mask | 1 << i) {
                        Entry::Vacant(slot) => {
                            if self.states >= cost::DP_STATE_LIMIT {
                                return self.plan_greedy();
                            }
                            self.states += 1;
                            slot.insert(candidate);
                        }
                        Entry::Occupied(mut slot) => {
                            if candidate.beats(slot.get()) {
                                slot.insert(candidate);
                            }
                        }
                    }
                }
            }
            levels.push(next);
        }

        let mut chain = Vec::with_capacity(n);
        let mut mask = (1u64 << n) - 1;
        while mask != 0 {
            let entry = levels[mask.count_ones() as usize - 1]
                .get(&mask)
                .ok_or_else(|| {
                    OptimizeError::new("join enumeration failed to cover all aliases")
                })?;
            chain.push(*entry);
            mask = entry.prev;
        }
        chain.reverse();
        Ok(chain)
    }

    /// Greedy fallback: start with the most selective alias, then
    /// repeatedly add the candidate yielding the smallest intermediate
    /// cardinality.
    fn plan_greedy(&mut self) -> Result<Vec<DpEntry>, OptimizeError> {
        let n = self.aliases.len();
        let by = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
        let stuck = || OptimizeError::new("greedy join planning found no alias to add");
        let first = (0..n)
            .min_by(|&a, &b| by(self.aliases[a].local_rows, self.aliases[b].local_rows))
            .ok_or_else(stuck)?;
        let mut chain = vec![self.leaf_entry(first)];
        let mut mask = 1u64 << first;
        while chain.len() < n {
            let entry = chain[chain.len() - 1];
            let best = bits(self.candidates(mask))
                .map(|i| self.extend(&entry, mask, i))
                .min_by(|a, b| by(a.card, b.card))
                .ok_or_else(stuck)?;
            mask |= 1 << best.alias;
            chain.push(best);
        }
        Ok(chain)
    }

    /// The single-alias plan the enumeration starts from: alias `i` through
    /// its cheapest constant-only access path.
    fn leaf_entry(&self, i: usize) -> DpEntry {
        DpEntry {
            cost: self.steps[i].probe.cost,
            card: self.aliases[i].local_rows.max(1.0),
            prev: 0,
            alias: i,
            step: i,
            hash: false,
        }
    }

    /// The aliases a state may grow by: those outside `mask` connected to
    /// it by a predicate, or — when there is none — every alias outside it
    /// (a cross product).
    fn candidates(&self, mask: u64) -> u64 {
        let outside = ((1u64 << self.aliases.len()) - 1) & !mask;
        let connected = bits(outside)
            .filter(|&i| self.aliases[i].neighbours & mask != 0)
            .fold(0, |m, i| m | 1 << i);
        if connected != 0 {
            connected
        } else {
            outside
        }
    }

    /// Extend the state `entry` (covering `mask`) with alias `i`, choosing
    /// the cheaper of nested-loop and hash join.
    fn extend(&mut self, entry: &DpEntry, mask: u64, i: usize) -> DpEntry {
        self.extensions += 1;
        let at = self.step(i, mask);
        let step = &self.steps[at];

        // Resulting cardinality (method independent).  Floored at one row:
        // letting estimates underflow towards zero made every downstream
        // probe look free, erasing the cost differences between join
        // orders (the DP then picked among ties).
        let card = (entry.card * self.aliases[i].local_rows * step.join_sel).max(1.0);

        // Nested loop with per-probe access.
        let nl_cost = entry.cost + entry.card * step.probe.cost;
        // Hash join: build once, then every probe walks its hash bucket —
        // charge the expected candidate comparisons.
        let hash_cost = step.hash.as_ref().map(|h| {
            let build = &self.steps[i].probe;
            entry.cost
                + build.cost
                + build.rows * cost::HASH_ROW
                + entry.card * cost::HASH_ROW
                + entry.card * h.candidates * cost::HASH_ROW
        });
        let (cost, hash) = match hash_cost {
            Some(hash_cost) if hash_cost < nl_cost => (hash_cost, true),
            _ => (nl_cost, false),
        };
        DpEntry {
            cost,
            card,
            prev: mask,
            alias: i,
            step: at,
            hash,
        }
    }

    /// Turn the winning states into the left-deep join tree: the only place
    /// predicates are cloned.
    fn materialize(&self, chain: &[DpEntry]) -> JoinNode {
        let own = |ks: &[usize]| ks.iter().map(|&k| self.pred(k).clone()).collect::<Vec<_>>();
        let access = |probe: &Probe| match probe.index {
            None => Access::TableScan {
                preds: own(&probe.residual),
            },
            Some(index) => Access::IndexScan {
                index: index.to_string(),
                bounds: probe.bounds.clone(),
                residual: own(&probe.residual),
            },
        };
        let mut spine: Option<JoinNode> = None;
        for e in chain {
            let info = &self.aliases[e.alias];
            let step = &self.steps[e.step];
            let (alias, table) = (info.alias.to_string(), info.table.to_string());
            spine = Some(match (spine, &step.hash) {
                (None, _) => JoinNode::Leaf {
                    alias,
                    table,
                    access: access(&step.probe),
                    est_rows: e.card,
                },
                (Some(outer), Some(h)) if e.hash => JoinNode::Join {
                    outer: Box::new(outer),
                    alias,
                    table,
                    access: access(&self.steps[e.alias].probe),
                    method: JoinMethod::Hash,
                    hash_keys: h
                        .keys
                        .iter()
                        .filter_map(|&k| hash_key(self.pred(k), info.alias))
                        .map(|(outer, col)| (outer.clone(), col.to_string()))
                        .collect(),
                    residual: own(&h.residual),
                    est_rows: e.card,
                },
                (Some(outer), _) => JoinNode::Join {
                    outer: Box::new(outer),
                    alias,
                    table,
                    access: access(&step.probe),
                    method: JoinMethod::NestedLoop,
                    hash_keys: vec![],
                    residual: vec![],
                    est_rows: e.card,
                },
            });
        }
        spine.expect("a plan has at least one alias")
    }

    /// The memoized [`Step`] of adding alias `i` to the bound set `bound`.
    fn step(&mut self, i: usize, bound: u64) -> usize {
        let key = (i, bound & self.aliases[i].neighbours);
        if key.1 == 0 {
            return i;
        }
        if let Some(&at) = self.memo.get(&key) {
            return at;
        }
        let at = self.steps.len();
        self.steps.push(self.compute_step(i, key.1));
        self.access_evaluations += 1;
        self.memo.insert(key, at);
        at
    }

    /// Derive the [`Step`] of alias `i` against `bound` from the predicate
    /// index (the constant-only steps must exist unless `bound` is empty).
    fn compute_step(&self, i: usize, bound: u64) -> Step<'a> {
        let info = &self.aliases[i];
        // All predicates that involve the alias and otherwise only bound
        // aliases or constants, and the join predicates among them.
        let reach = bound | 1 << i;
        let avail: Vec<usize> = (info.preds.iter().copied())
            .filter(|&k| self.preds[k].mask & !reach == 0)
            .collect();
        let joins: Vec<usize> = (avail.iter().copied())
            .filter(|&k| self.preds[k].mask.count_ones() >= 2)
            .collect();
        let join_sel =
            self.grouped_selectivity(i, &joins, |p| self.single_join_pred_selectivity(i, p));
        let probe = self.best_access(i, &avail);

        // Hash join: only when an equality key against the bound set exists.
        let (keys, residual): (Vec<usize>, Vec<usize>) = joins
            .iter()
            .partition(|&&k| hash_key(self.pred(k), info.alias).is_some());
        let hash = (!keys.is_empty()).then(|| {
            // `build_rows / Π distinct(key)` candidates per probe (NULL
            // keys never enter the build).  Without this term a
            // low-distinct key (e.g. the `level` column) looked as cheap
            // as a selective value key, and the model replaced tight
            // NLJOIN–IXSCAN windows with hash joins that rescan most of
            // the build side on every probe.
            let stats = self.db.stats(info.table);
            let mut candidates = self.steps[i].probe.rows;
            for (_, col) in keys
                .iter()
                .filter_map(|&k| hash_key(self.pred(k), info.alias))
            {
                match stats.and_then(|s| s.column(col)) {
                    Some(cs) => {
                        let non_null = (cs.rows - cs.nulls) as f64 / cs.rows.max(1) as f64;
                        candidates *= non_null / cs.distinct.max(1) as f64;
                    }
                    None => candidates *= cost::FALLBACK_EQ_SEL,
                }
            }
            HashStep {
                keys,
                residual,
                candidates,
            }
        });
        Step {
            join_sel,
            probe,
            hash,
        }
    }

    /// Estimated rows of an alias after its constant-only predicates (1.0
    /// when the alias is not part of this query).
    fn local_rows_of(&self, alias: usize) -> f64 {
        self.aliases.get(alias).map_or(1.0, |a| a.local_rows)
    }

    /// Fold the selectivities of a predicate list as seen from alias `i`;
    /// `single` estimates any predicate left ungrouped.
    ///
    /// Inequality predicates between the same pair of aliases are treated
    /// as one *containment group* (the `(pre◦, pre◦ + size◦]` axis windows
    /// of the encoding) and estimated together via
    /// [`Planner::containment_selectivity`]; everything else falls back to
    /// the per-predicate estimates.  Without the grouping, each window
    /// contributed two independent `OUTER_RANGE_SEL` factors — which rated
    /// "somewhere inside the document root" as a 0.6% filter when it
    /// filters nothing, the misestimate that made the DP rank a ~60×
    /// slower Q2 join order cheapest (see the measured `OpStats` in the
    /// cost-model regression test).
    fn grouped_selectivity(
        &self,
        i: usize,
        preds: &[usize],
        single: impl Fn(&SqlPredicate) -> f64,
    ) -> f64 {
        let inner_rows = self
            .db
            .stats(self.aliases[i].table)
            .map(|s| s.rows as f64)
            .unwrap_or(1.0)
            .max(1.0);
        // The single alias other than `i` a range predicate references.
        let partner = |k: usize| {
            let others = self.preds[k].mask & !(1 << i);
            (is_range_op(self.pred(k).op) && others.count_ones() == 1).then_some(others)
        };
        let mut sel = 1.0;
        let mut used = vec![false; preds.len()];
        for a in 0..preds.len() {
            let Some(with) = partner(preds[a]).filter(|_| !used[a]) else {
                continue;
            };
            let group: Vec<usize> = (a..preds.len())
                .filter(|&b| !used[b] && partner(preds[b]) == Some(with))
                .collect();
            let container = group.iter().find_map(|&b| self.preds[preds[b]].container);
            sel *= match container {
                Some(container) => self.containment_selectivity(container, inner_rows),
                // A lone one-sided ordering bound (`pre < pre◦`) keeps half
                // the rows on average; other shapes keep the old estimate.
                None if group.len() == 1 => 0.5,
                None => group.iter().map(|&b| single(self.pred(preds[b]))).product(),
            };
            for b in group {
                used[b] = true;
            }
        }
        for (a, &k) in preds.iter().enumerate() {
            if !used[a] {
                sel *= single(self.pred(k));
            }
        }
        sel
    }

    /// Selectivity of `inner.pre ∈ (container.pre, container.pre + size]`.
    ///
    /// Calibrated against measured `OpStats`: same-name XML elements tile
    /// the document (non-recursive element types nest disjointly), so the
    /// expected subtree extent of one of `local_rows(container)` qualifying
    /// containers is `rows / local_rows` — and the window keeps
    /// `1 / local_rows(container)` of the inner rows.  In particular a
    /// window anchored at the single document node keeps *everything*
    /// (selectivity 1.0), where the old per-predicate estimate claimed
    /// 0.64%.
    fn containment_selectivity(&self, container: usize, inner_rows: f64) -> f64 {
        (1.0 / self.local_rows_of(container).max(1.0)).clamp(1.0 / inner_rows, 1.0)
    }

    fn single_join_pred_selectivity(&self, i: usize, p: &SqlPredicate) -> f64 {
        let info = &self.aliases[i];
        let stats = self.db.stats(info.table);
        match p.op {
            SqlCmp::Eq => {
                // column = column: 1 / max distinct.  The alias's column
                // may sit inside a computed side: `a.level + 1 = b.level`
                // must estimate the same whether the step is planned from
                // `a` down or from `b` up (seen from `a` it used to fall
                // through to FALLBACK_EQ_SEL, rating every upward step
                // ~100x more selective than its downward twin).
                let col =
                    column_within(&p.lhs, info.alias).or_else(|| column_within(&p.rhs, info.alias));
                if let (Some(col), Some(stats)) = (col, stats) {
                    if let Some(cs) = stats.column(col) {
                        if cs.distinct > 0 {
                            return 1.0 / cs.distinct as f64;
                        }
                    }
                }
                cost::FALLBACK_EQ_SEL
            }
            SqlCmp::Ne => 0.9,
            _ => cost::OUTER_RANGE_SEL,
        }
    }

    /// Choose the cheapest access path for alias `i` given its available
    /// predicates.
    fn best_access(&self, i: usize, avail: &[usize]) -> Probe<'a> {
        let (alias, table) = (self.aliases[i].alias, self.aliases[i].table);
        let stats = self.db.stats(table);
        let total_rows = stats.map(|s| s.rows as f64).unwrap_or(1.0).max(1.0);
        let single = |p: &SqlPredicate| predicate_selectivity(self.db, table, alias, p);

        // Selectivity of *all* available predicates (they are all applied,
        // whether through bounds or residual checks).  Containment windows
        // are grouped here as well so per-probe row estimates agree with
        // the join-cardinality model.
        let overall_sel = self.grouped_selectivity(i, avail, single);
        let rows = (total_rows * overall_sel).max(1e-6);

        // Table scan baseline.
        let mut best = Probe {
            index: None,
            bounds: Bounds::default(),
            residual: avail.to_vec(),
            cost: total_rows * cost::TB_ROW + avail.len() as f64 * total_rows * cost::RESIDUAL,
            rows,
        };

        // Every index's bounds, with the ancestor-side window where the
        // extent statistic gives one.  The child-side window of a parent
        // step (`child_window`) is only the fallback when none does: the
        // cost model prices a window as if every `pre` in it belonged to
        // the group, so applied everywhere it would move parent steps that
        // `nkp` already windows onto `p_nvkls`, which walks more entries.
        let mut matches: Vec<_> = self
            .db
            .indexes_on(table)
            .into_iter()
            .filter_map(|ix| {
                let (mut bounds, consumed) =
                    match_index_bounds(alias, &ix.def.key_columns, &self.query.where_clause, avail);
                if bounds.matched_columns() == 0 {
                    return None;
                }
                let mut window = None;
                if let Some((lower, w)) = self.implied_lower(alias, &ix.def.name, &bounds, avail) {
                    bounds.lower = Some(lower);
                    window = Some(w);
                }
                Some((ix, bounds, consumed, window))
            })
            .collect();
        if matches.iter().all(|(.., window)| window.is_none()) {
            for (_, bounds, _, window) in &mut matches {
                if let Some((lower, gap)) = self.child_window(i, bounds, avail) {
                    bounds.lower = Some(lower);
                    *window = Some(gap);
                }
            }
        }

        for (ix, bounds, consumed, window) in matches {
            // Selectivity of the predicates folded into the bounds (again
            // with containment windows grouped — this is the NLJOIN
            // per-probe fetch estimate).
            let bound_sel = self.grouped_selectivity(i, &consumed, single);
            // A one-sided range closed by a window walks at most the
            // window, however large the group.
            let mut scanned_entries = (total_rows * bound_sel).max(1.0);
            if let Some(window) = window {
                scanned_entries = scanned_entries.min(window);
            }
            let covered =
                |k: usize| (consumed.iter()).any(|&c| self.preds[c].canon == self.preds[k].canon);
            let residual: Vec<usize> = avail.iter().copied().filter(|&k| !covered(k)).collect();
            let height = ix.tree.height() as f64;
            let ix_cost = height * cost::PAGE
                + scanned_entries * cost::IX_ENTRY
                + residual.len() as f64 * scanned_entries * cost::RESIDUAL;
            if ix_cost < best.cost {
                best = Probe {
                    index: Some(&ix.def.name),
                    bounds,
                    residual,
                    cost: ix_cost,
                    rows,
                };
            }
        }
        best
    }

    /// The lower bound a containment partner implies for a range column the
    /// available predicates bound only from above.
    ///
    /// Shape: the index's equality prefix is bound to literals, its range
    /// column `R` has `R < X` (or `<=`) but no lower bound, and `avail`
    /// holds `X' <= R + W` (or `<`) with `W` a column of the same alias —
    /// the upward half of a `(pre, pre + size]` containment window.  Every
    /// row of the prefix's group has `W <= max(W | prefix)`, so the partner
    /// implies `R >= X' - max(W | prefix)`.  The partner itself stays in
    /// the residual: the bound is a prefilter that cannot change answers,
    /// only how many index entries a probe walks.  Returns the bound and
    /// the number of `R` values it leaves (`max + 1`).
    fn implied_lower(
        &self,
        alias: &str,
        index: &str,
        bounds: &Bounds,
        avail: &[usize],
    ) -> Option<((SqlExpr, bool), f64)> {
        if bounds.lower.is_some() || bounds.upper.is_none() || bounds.eq.is_empty() {
            return None;
        }
        let range_col = bounds.range_col.as_deref()?;
        let group: Vec<&xqjg_store::Value> = bounds
            .eq
            .iter()
            .map(|(_, e)| match e {
                SqlExpr::Lit(v) => Some(v),
                _ => None,
            })
            .collect::<Option<_>>()?;
        avail.iter().find_map(|&k| {
            let p = self.pred(k);
            // Orient the predicate as `x op a + b`.
            let (x, op, a, b) = match (&p.lhs, &p.rhs) {
                (x, SqlExpr::Add(a, b)) => (x, p.op, a, b),
                (SqlExpr::Add(a, b), x) => (x, p.op.flip(), a, b),
                _ => return None,
            };
            if !matches!(op, SqlCmp::Lt | SqlCmp::Le) || x.mentions(alias) {
                return None;
            }
            let w = match (a.as_column_of(alias)?, b.as_column_of(alias)?) {
                (r, w) | (w, r) if r == range_col => w,
                _ => return None,
            };
            let max = self.db.group_max(index, group.len(), w)?.max_for(&group)?;
            let lower = x.clone() + SqlExpr::lit(max.checked_neg()?);
            Some(((lower, op == SqlCmp::Le), (max as f64 + 1.0).max(1.0)))
        })
    }

    /// The lower bound a parent step gets from its child's side.
    ///
    /// Shape: alias `i` is `y`, its range column is `pre` with `pre < x.pre`
    /// but no lower bound, `x` another alias of the same table, and `avail`
    /// holds the rest of "`y` is the parent of `x`": `x.pre <= y.pre +
    /// y.size` (or `<`) and `y.level + 1 = x.level`.  On a valid
    /// pre/size/level forest that `y` is unique, and the catalog's
    /// [`xqjg_store::ParentGap`] of `x`'s literal `(name, kind)` group
    /// bounds how far before `x` it sits, so `pre >= x.pre - gap`.  As in
    /// `implied_lower`, the partner predicates stay in the residual.
    /// Returns the bound and the number of `pre` values it leaves (`gap`).
    fn child_window(
        &self,
        i: usize,
        bounds: &Bounds,
        avail: &[usize],
    ) -> Option<((SqlExpr, bool), f64)> {
        let (y, table) = (self.aliases[i].alias, self.aliases[i].table);
        if bounds.lower.is_some() || bounds.range_col.as_deref() != Some("pre") {
            return None;
        }
        let (SqlExpr::Col(upper), false) = bounds.upper.as_ref()? else {
            return None;
        };
        let x = upper.table.as_str();
        let same_table = self
            .aliases
            .iter()
            .any(|a| a.alias == x && a.table == table);
        if upper.column != "pre" || x == y || !same_table {
            return None;
        }
        let col = |e: &SqlExpr, alias, column| e.as_column_of(alias) == Some(column);
        let plus = |e: &SqlExpr, f: &dyn Fn(&SqlExpr, &SqlExpr) -> bool| match e {
            SqlExpr::Add(a, b) => f(a, b) || f(b, a),
            _ => false,
        };
        // `x.pre <= y.pre + y.size`, either way round.
        let contained = |p: &SqlPredicate| {
            let (inner, op, sum) = match (&p.lhs, &p.rhs) {
                (inner, sum @ SqlExpr::Add(..)) => (inner, p.op, sum),
                (sum @ SqlExpr::Add(..), inner) => (inner, p.op.flip(), sum),
                _ => return false,
            };
            matches!(op, SqlCmp::Lt | SqlCmp::Le)
                && col(inner, x, "pre")
                && plus(sum, &|a, b| col(a, y, "pre") && col(b, y, "size"))
        };
        // `y.level + 1 = x.level`, either way round.
        let one_up = |p: &SqlPredicate| {
            let up = |a: &SqlExpr, b: &SqlExpr| {
                col(a, y, "level") && matches!(b, SqlExpr::Lit(xqjg_store::Value::Int(1)))
            };
            p.op == SqlCmp::Eq
                && [(&p.lhs, &p.rhs), (&p.rhs, &p.lhs)]
                    .iter()
                    .any(|(sum, child)| plus(sum, &up) && col(child, x, "level"))
        };
        let holds = |f: &dyn Fn(&SqlPredicate) -> bool| avail.iter().any(|&k| f(self.pred(k)));
        if !holds(&contained) || !holds(&one_up) {
            return None;
        }
        // `x`'s group: its literal `name` and `kind` equalities.
        let literal = |column| {
            self.query
                .where_clause
                .iter()
                .find_map(|p| match (&p.lhs, p.op, &p.rhs) {
                    (c, SqlCmp::Eq, SqlExpr::Lit(v)) | (SqlExpr::Lit(v), SqlCmp::Eq, c)
                        if col(c, x, column) =>
                    {
                        Some(v)
                    }
                    _ => None,
                })
        };
        let gap = self
            .db
            .parent_gap(table)?
            .max_for(literal("name")?, literal("kind")?)?;
        let lower = SqlExpr::col(x, "pre") + SqlExpr::lit(gap.checked_neg()?);
        Some(((lower, true), (gap as f64).max(1.0)))
    }
}

/// The hash key an equality predicate offers for `alias`: `(outer
/// expression, inner column)` when one side is a bare column of `alias` and
/// the other does not reference `alias` at all.
fn hash_key<'p>(p: &'p SqlPredicate, alias: &str) -> Option<(&'p SqlExpr, &'p str)> {
    if p.op != SqlCmp::Eq {
        return None;
    }
    [(&p.lhs, &p.rhs), (&p.rhs, &p.lhs)]
        .into_iter()
        .find_map(|(inner, outer)| {
            let col = inner.as_column_of(alias)?;
            (!outer.mentions(alias)).then_some((outer, col))
        })
}

/// The column of `alias` an expression compares on: the bare column, or the
/// one inside a computed side such as `level + 1`.
fn column_within<'e>(e: &'e SqlExpr, alias: &str) -> Option<&'e str> {
    match e {
        SqlExpr::Add(a, b) => column_within(a, alias).or_else(|| column_within(b, alias)),
        _ => e.as_column_of(alias),
    }
}

/// Is the comparison an inequality (range-style) operator?
fn is_range_op(op: SqlCmp) -> bool {
    matches!(op, SqlCmp::Lt | SqlCmp::Le | SqlCmp::Gt | SqlCmp::Ge)
}

/// Estimate the rows of `alias` after applying its constant-only predicates.
fn local_row_estimate<'p>(
    db: &Database,
    alias: &str,
    table: &str,
    local: impl Iterator<Item = &'p SqlPredicate>,
) -> f64 {
    let stats = match db.stats(table) {
        Some(s) => s,
        None => return 1.0,
    };
    let mut rows = stats.rows as f64;
    for p in local {
        rows *= predicate_selectivity(db, table, alias, p);
    }
    rows.max(1e-6)
}

/// Selectivity of a single predicate as seen from `alias`.
fn predicate_selectivity(db: &Database, table: &str, alias: &str, p: &SqlPredicate) -> f64 {
    let stats = match db.stats(table) {
        Some(s) => s,
        None => return 0.5,
    };
    // Identify "alias.column OP other" shape.
    let (col, op, other) = if let Some(c) = p.lhs.as_column_of(alias) {
        (c, p.op, &p.rhs)
    } else if let Some(c) = p.rhs.as_column_of(alias) {
        (c, p.op.flip(), &p.lhs)
    } else {
        // Computed column expressions (pre + size, level + 1): treat as a
        // generic range-style predicate.
        return cost::OUTER_RANGE_SEL;
    };
    let cs = match stats.column(col) {
        Some(cs) => cs,
        None => return 0.5,
    };
    match other {
        SqlExpr::Lit(v) => match op {
            SqlCmp::Eq => cs.eq_selectivity(v),
            SqlCmp::Ne => 1.0 - cs.eq_selectivity(v),
            SqlCmp::Lt | SqlCmp::Le => cs.range_selectivity(Bound::Unbounded, Bound::Included(v)),
            SqlCmp::Gt | SqlCmp::Ge => cs.range_selectivity(Bound::Included(v), Bound::Unbounded),
        },
        _ => match op {
            SqlCmp::Eq => {
                if cs.distinct > 0 {
                    1.0 / cs.distinct as f64
                } else {
                    cost::FALLBACK_EQ_SEL
                }
            }
            SqlCmp::Ne => 0.9,
            _ => cost::OUTER_RANGE_SEL,
        },
    }
}

/// Match the available predicates of an alias (`avail`, positions in
/// `preds`) against an index's key columns: a maximal equality prefix
/// followed by at most one range-bound column.  Returns the bounds plus
/// the predicates consumed by them, in the order they matched.
fn match_index_bounds(
    alias: &str,
    key_columns: &[String],
    preds: &[SqlPredicate],
    avail: &[usize],
) -> (Bounds, Vec<usize>) {
    // `key_col OP other` with `other` free of the alias, whichever way
    // round the predicate is written.
    let against = |p: &'_ SqlPredicate, key_col: &str| {
        if p.lhs.as_column_of(alias) == Some(key_col) && !p.rhs.mentions(alias) {
            Some((p.op, 1))
        } else if p.rhs.as_column_of(alias) == Some(key_col) && !p.lhs.mentions(alias) {
            Some((p.op.flip(), 0))
        } else {
            None
        }
    };
    let other = |k: usize, side: usize| [&preds[k].lhs, &preds[k].rhs][side].clone();
    let mut bounds = Bounds::default();
    let mut consumed = Vec::new();
    for key_col in key_columns {
        // Equality?
        let eq = avail
            .iter()
            .find_map(|&k| match against(&preds[k], key_col) {
                Some((SqlCmp::Eq, side)) => Some((k, side)),
                _ => None,
            });
        if let Some((k, side)) = eq {
            bounds.eq.push((key_col.clone(), other(k, side)));
            consumed.push(k);
            continue;
        }
        // Range bounds?
        for &k in avail {
            let Some((op, side)) = against(&preds[k], key_col) else {
                continue;
            };
            let slot = match op {
                SqlCmp::Gt | SqlCmp::Ge => &mut bounds.lower,
                SqlCmp::Lt | SqlCmp::Le => &mut bounds.upper,
                _ => continue,
            };
            if slot.is_none() {
                *slot = Some((other(k, side), matches!(op, SqlCmp::Ge | SqlCmp::Le)));
                consumed.push(k);
            }
        }
        if bounds.lower.is_some() || bounds.upper.is_some() {
            bounds.range_col = Some(key_col.clone());
        }
        // Whether or not a range matched, index matching stops at the first
        // non-equality key column.
        break;
    }
    (bounds, consumed)
}

// ---------------------------------------------------------------------
// Plan cache — repeat executions of a normalized query skip the DP
// enumeration entirely.
// ---------------------------------------------------------------------

/// Normalize SQL text for plan-cache keying: collapse every whitespace
/// run to a single space.  The decomposer and hand-written texts differ
/// only in layout; identifiers are case-sensitive, so case is preserved.
pub fn normalize_query_text(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Default [`PlanCache`] capacity in bytes.
pub const PLAN_CACHE_BYTES: usize = 8 << 20;

/// Rough per-join-node heap footprint of a [`PhysPlan`] (access path,
/// bounds expressions, residuals) used to charge the cache.
const PLAN_NODE_COST: usize = 512;

fn plan_nodes(node: &JoinNode) -> usize {
    match node {
        JoinNode::Leaf { .. } => 1,
        JoinNode::Join { outer, .. } => 1 + plan_nodes(outer),
    }
}

/// Concurrent memo of optimized physical plans, keyed by (normalized
/// query text, execution-knob fingerprint) and — like every warm-path
/// cache — invalidated by the catalog version stamp, since both access
/// paths and join orders are functions of the catalog's indexes and
/// statistics.  Cloning the handle shares the cache; `Arc`-share one
/// across `Processor` instances to serve repeated queries without DP
/// enumeration.
#[derive(Clone)]
pub struct PlanCache {
    inner: std::sync::Arc<xqjg_store::ShardedLru<String, PhysPlan>>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A cache with the default byte capacity.
    pub fn new() -> Self {
        PlanCache::with_capacity(PLAN_CACHE_BYTES)
    }

    /// A cache bounded to `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        PlanCache {
            inner: std::sync::Arc::new(xqjg_store::ShardedLru::new(bytes)),
        }
    }

    /// Lookups satisfied from the cache.
    pub fn hits(&self) -> usize {
        self.inner.hits()
    }

    /// Total lookups.
    pub fn lookups(&self) -> usize {
        self.inner.lookups()
    }

    /// Plans dropped (LRU eviction and version invalidation alike).
    pub fn evictions(&self) -> usize {
        self.inner.evictions()
    }

    /// Number of memoized plans.
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
}

/// [`optimize`] fronted by a [`PlanCache`]: the cache key is the
/// normalized query text joined with the caller's knob `fingerprint`
/// (see `ExecConfig::cache_fingerprint` — knobs that change physical
/// plan choice must key separately), looked up under the database's
/// current catalog version.  Returns the plan and whether it was a cache
/// hit.  A failed optimization caches nothing.
pub fn optimize_cached(
    query: &SfwQuery,
    db: &Database,
    cache: &PlanCache,
    fingerprint: &str,
) -> Result<(std::sync::Arc<PhysPlan>, bool), OptimizeError> {
    let key = format!(
        "{}\u{1f}{}",
        normalize_query_text(&query.to_sql()),
        fingerprint
    );
    cache.inner.get_or_try_insert(
        db.version(),
        &key,
        |plan| key.len() + plan_nodes(&plan.root) * PLAN_NODE_COST + 256,
        || optimize(query, db).map(std::sync::Arc::new),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ColRef;
    use crate::sql::{FromItem, OrderItem, SelectItem};
    use xqjg_store::{IndexDef, Schema, Table, Value};

    /// Build a toy doc-like database with name/kind skew and indexes.
    fn toy_db() -> Database {
        let mut t = Table::new(Schema::new([
            "pre", "size", "level", "kind", "name", "value", "data",
        ]));
        // One DOC row followed by many elements of various names.
        t.push(vec![
            Value::Int(0),
            Value::Int(1000),
            Value::Int(0),
            Value::str("DOC"),
            Value::str("auction.xml"),
            Value::Null,
            Value::Null,
        ]);
        for i in 1..=1000i64 {
            let name = match i % 10 {
                0 => "open_auction",
                1 => "bidder",
                2 => "price",
                _ => "filler",
            };
            t.push(vec![
                Value::Int(i),
                Value::Int(0),
                Value::Int(2),
                Value::str("ELEM"),
                Value::str(name),
                Value::Null,
                Value::Dec((i % 700) as f64),
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        db.create_index(IndexDef {
            name: "nksp".into(),
            table: "doc".into(),
            key_columns: vec!["name".into(), "kind".into(), "size".into(), "pre".into()],
            include_columns: vec![],
            clustered: false,
        });
        db.create_index(IndexDef {
            name: "pre_idx".into(),
            table: "doc".into(),
            key_columns: vec!["pre".into()],
            include_columns: vec![],
            clustered: true,
        });
        db
    }

    /// Bit position of an alias: its place in the FROM clause.
    fn bit(q: &SfwQuery, alias: &str) -> usize {
        q.from.iter().position(|f| f.alias == alias).unwrap()
    }

    fn simple_query() -> SfwQuery {
        SfwQuery {
            distinct: true,
            select: vec![SelectItem::Star("d2".into())],
            from: vec![
                FromItem {
                    table: "doc".into(),
                    alias: "d1".into(),
                },
                FromItem {
                    table: "doc".into(),
                    alias: "d2".into(),
                },
            ],
            where_clause: vec![
                SqlPredicate::new(SqlExpr::col("d1", "kind"), SqlCmp::Eq, SqlExpr::lit("DOC")),
                SqlPredicate::new(
                    SqlExpr::col("d1", "name"),
                    SqlCmp::Eq,
                    SqlExpr::lit("auction.xml"),
                ),
                SqlPredicate::new(
                    SqlExpr::col("d2", "name"),
                    SqlCmp::Eq,
                    SqlExpr::lit("open_auction"),
                ),
                SqlPredicate::new(
                    SqlExpr::col("d2", "pre"),
                    SqlCmp::Gt,
                    SqlExpr::col("d1", "pre"),
                ),
                SqlPredicate::new(
                    SqlExpr::col("d2", "pre"),
                    SqlCmp::Le,
                    SqlExpr::col("d1", "pre") + SqlExpr::col("d1", "size"),
                ),
            ],
            order_by: vec![OrderItem {
                col: ColRef::new("d2", "pre"),
            }],
        }
    }

    #[test]
    fn picks_index_access_for_selective_predicates() {
        let db = toy_db();
        let plan = optimize(&simple_query(), &db).unwrap();
        // The DOC-node alias must be accessed through the name/kind index.
        fn find_leaf(n: &JoinNode) -> &JoinNode {
            match n {
                JoinNode::Leaf { .. } => n,
                JoinNode::Join { outer, .. } => find_leaf(outer),
            }
        }
        let leaf = find_leaf(&plan.root);
        match leaf {
            JoinNode::Leaf { alias, access, .. } => {
                assert_eq!(alias, "d1");
                assert!(matches!(access, Access::IndexScan { index, .. } if index == "nksp"));
            }
            _ => unreachable!(),
        }
        assert_eq!(plan.join_order(), vec!["d1".to_string(), "d2".to_string()]);
        assert!(plan.distinct);
    }

    /// A document-shaped table with real subtree extents: a DOC root over
    /// `groups` `sec` elements, the i-th holding `1 + i % 4` `par` children
    /// (so `max(size | sec, ELEM)` is 4), each `par` carrying its ordinal
    /// in `data`.  Indexed like the default set: `nkp` and `nkdp`.
    fn extent_db(groups: i64) -> Database {
        let mut t = Table::new(Schema::new([
            "pre", "size", "level", "kind", "name", "value", "data",
        ]));
        let total: i64 = (0..groups).map(|i| 2 + i % 4).sum();
        let row = |pre: i64, size: i64, level: i64, kind: &str, name: &str, data: Value| {
            vec![
                Value::Int(pre),
                Value::Int(size),
                Value::Int(level),
                Value::str(kind),
                Value::str(name),
                Value::Null,
                data,
            ]
        };
        t.push(row(0, total, 0, "DOC", "d.xml", Value::Null));
        let (mut pre, mut ordinal) = (1, 0);
        for i in 0..groups {
            let kids = 1 + i % 4;
            t.push(row(pre, kids, 1, "ELEM", "sec", Value::Null));
            pre += 1;
            for _ in 0..kids {
                t.push(row(pre, 0, 2, "ELEM", "par", Value::Int(ordinal)));
                pre += 1;
                ordinal += 1;
            }
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        for (name, key) in [
            ("nkp", vec!["name", "kind", "pre"]),
            ("nkdp", vec!["name", "kind", "data", "pre"]),
        ] {
            db.create_index(IndexDef {
                name: name.into(),
                table: "doc".into(),
                key_columns: key.into_iter().map(String::from).collect(),
                include_columns: vec![],
                clustered: false,
            });
        }
        db
    }

    /// `sec` owners of the `par` with `data = ordinal`: selective at the
    /// bottom, so the cheap plan starts there and walks up.
    fn upward_query(ordinal: i64) -> SfwQuery {
        crate::sqlparse::parse_sql(&format!(
            "SELECT DISTINCT s.pre AS item FROM doc AS s, doc AS p \
             WHERE s.kind = 'ELEM' AND s.name = 'sec' \
               AND p.kind = 'ELEM' AND p.name = 'par' AND p.data = {ordinal} \
               AND s.pre < p.pre AND p.pre <= s.pre + s.size \
               AND s.level + 1 = p.level \
             ORDER BY s.pre"
        ))
        .unwrap()
    }

    #[test]
    fn upward_probe_gets_its_lower_bound_from_the_extent_statistic() {
        let db = extent_db(400);
        let q = upward_query(777);
        let plan = optimize(&q, &db).unwrap();
        assert_eq!(plan.join_order(), vec!["p".to_string(), "s".to_string()]);
        let JoinNode::Join {
            access:
                Access::IndexScan {
                    index,
                    bounds,
                    residual,
                },
            ..
        } = &plan.root
        else {
            panic!("expected an index probe, got {:?}", plan.root);
        };
        assert_eq!(index, "nkp");
        assert_eq!(
            bounds.upper,
            Some((SqlExpr::col("p", "pre"), false)),
            "the one-sided half the predicates give"
        );
        assert_eq!(
            bounds.lower,
            Some((SqlExpr::col("p", "pre") + SqlExpr::lit(-4i64), true)),
            "p.pre <= s.pre + s.size implies s.pre >= p.pre - max(size | sec, ELEM)"
        );
        // The bound is a prefilter: the partner is still checked per row.
        let partner = &q.where_clause[6];
        assert_eq!(partner.to_string(), "p.pre <= s.pre + s.size");
        assert!(residual.contains(partner), "{residual:?}");
        // One probe walks at most the window, and finds the one owner.
        let out = crate::exec::QueryRequest::new(&plan, &db).expect_run();
        assert_eq!(out.rows.len(), 1);
        let probe = &out.stats.operators[1];
        assert_eq!((probe.probes, probe.fetched), (1, 1), "{}", probe.render());
    }

    #[test]
    fn reloading_a_wider_table_refreshes_the_bound_and_misses_the_plan_cache() {
        fn lower_of(plan: &PhysPlan) -> Option<(SqlExpr, bool)> {
            match &plan.root {
                JoinNode::Join {
                    access: Access::IndexScan { bounds, .. },
                    ..
                } => bounds.lower.clone(),
                other => panic!("expected an index probe, got {other:?}"),
            }
        }
        let mut db = extent_db(400);
        let q = upward_query(777);
        let cache = PlanCache::new();
        let (plan, _) = optimize_cached(&q, &db, &cache, "fp").unwrap();
        let narrow = Some((SqlExpr::col("p", "pre") + SqlExpr::lit(-4i64), true));
        assert_eq!(lower_of(&plan), narrow);
        // Replace the table in place by one whose first `sec` holds 9
        // `par`s, and rebuild the indexes: same catalog object, new version.
        let mut rows = db.table("doc").unwrap().rows().to_vec();
        let shift = |row: &mut Vec<Value>, by: i64| {
            if let Value::Int(pre) = row[0] {
                row[0] = Value::Int(pre + by);
            }
        };
        rows.iter_mut().skip(3).for_each(|r| shift(r, 8));
        rows[0][1] = Value::Int(rows.len() as i64 + 7);
        rows[1][1] = Value::Int(9);
        let mut par = rows[2].clone();
        for extra in 1..=8 {
            shift(&mut par, 1);
            par[6] = Value::Int(10_000 + extra);
            rows.insert(2 + extra as usize, par.clone());
        }
        let schema = db.table("doc").unwrap().schema().clone();
        db.create_table("doc", Table::from_rows(schema, rows));
        for name in ["nkp", "nkdp"] {
            let def = db.index(name).unwrap().def.clone();
            db.create_index(def);
        }
        let (plan, hit) = optimize_cached(&q, &db, &cache, "fp").unwrap();
        assert!(!hit, "the catalog version moved");
        let wide = Some((SqlExpr::col("p", "pre") + SqlExpr::lit(-9i64), true));
        assert_eq!(lower_of(&plan), wide);
        // The last of the nine `par`s sits 9 behind its `sec`: only the
        // refreshed window reaches it.
        let q = upward_query(10_008);
        let plan = optimize(&q, &db).unwrap();
        assert_eq!(lower_of(&plan), wide);
        let out = crate::exec::QueryRequest::new(&plan, &db).expect_run();
        assert_eq!(out.rows.rows(), &[vec![Value::Int(1)]]);
    }

    #[test]
    fn no_implied_bound_without_a_literal_prefix_or_a_partner() {
        let db = extent_db(50);
        let planner_bounds = |sql: &str| {
            let q = crate::sqlparse::parse_sql(sql).unwrap();
            let planner = Planner::new(&q, &db);
            let probe = planner.compute_step(bit(&q, "s"), 1 << bit(&q, "p")).probe;
            assert!(
                probe.index.is_some(),
                "expected an index scan, got {probe:?}"
            );
            probe.bounds
        };
        // Ancestor-or-self style `<` partner: exclusive bound.
        let b = planner_bounds(
            "SELECT s.pre AS item FROM doc AS s, doc AS p \
             WHERE s.kind = 'ELEM' AND s.name = 'sec' \
               AND s.pre < p.pre AND s.pre + s.size > p.pre",
        );
        assert_eq!(
            b.lower,
            Some((SqlExpr::col("p", "pre") + SqlExpr::lit(-4i64), false))
        );
        // No partner: the range stays one-sided.
        let b = planner_bounds(
            "SELECT s.pre AS item FROM doc AS s, doc AS p \
             WHERE s.kind = 'ELEM' AND s.name = 'sec' AND s.pre < p.pre",
        );
        assert!(b.upper.is_some() && b.lower.is_none());
        // A prefix bound to an outer column has no group to look up.
        let b = planner_bounds(
            "SELECT s.pre AS item FROM doc AS s, doc AS p \
             WHERE s.kind = 'ELEM' AND s.name = p.name \
               AND s.pre < p.pre AND p.pre <= s.pre + s.size",
        );
        assert!(b.lower.is_none(), "{b:?}");
        // A name that does not occur has no extent (and no rows to miss).
        let b = planner_bounds(
            "SELECT s.pre AS item FROM doc AS s, doc AS p \
             WHERE s.kind = 'ELEM' AND s.name = 'absent' \
               AND s.pre < p.pre AND p.pre <= s.pre + s.size",
        );
        assert!(b.lower.is_none(), "{b:?}");
    }

    #[test]
    fn est_cost_is_the_dp_cost_and_grows_along_the_spine() {
        for (db, q) in [
            (toy_db(), simple_query()),
            (extent_db(400), upward_query(777)),
        ] {
            let plan = optimize(&q, &db).unwrap();
            // Re-extend the chosen order step by step: the cost never
            // shrinks, and ends at what EXPLAIN reports.
            let mut planner = Planner::new(&q, &db);
            let order = plan.join_order();
            let mut chain = vec![planner.leaf_entry(bit(&q, &order[0]))];
            let mut mask = 0;
            for alias in &order[1..] {
                let last = chain[chain.len() - 1];
                mask |= 1 << last.alias;
                chain.push(planner.extend(&last, mask, bit(&q, alias)));
            }
            let costs: Vec<f64> = chain.iter().map(|e| e.cost).collect();
            assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
            assert_eq!(plan.est_cost, *costs.last().unwrap(), "{costs:?}");
            assert_eq!(planner.materialize(&chain), plan.root);
        }
    }

    #[test]
    fn level_equality_estimates_the_same_from_either_side() {
        let db = extent_db(50);
        let q = upward_query(7);
        let planner = Planner::new(&q, &db);
        let level_eq = q
            .where_clause
            .iter()
            .find(|p| p.to_string() == "s.level + 1 = p.level")
            .unwrap();
        let down = planner.single_join_pred_selectivity(bit(&q, "p"), level_eq);
        let up = planner.single_join_pred_selectivity(bit(&q, "s"), level_eq);
        assert_eq!(down, up);
        assert!(up > cost::FALLBACK_EQ_SEL);
    }

    #[test]
    fn normalize_query_text_collapses_whitespace_only() {
        assert_eq!(
            normalize_query_text("SELECT  a\n  FROM\tt \n WHERE x = 'A  B'"),
            // Whitespace inside string literals is fair game for this
            // normalizer: the decomposer never emits multi-space literals,
            // and a false split only costs a cache miss, never a wrong plan.
            "SELECT a FROM t WHERE x = 'A B'"
        );
        assert_eq!(normalize_query_text("  SELECT 1  "), "SELECT 1");
    }

    #[test]
    fn plan_cache_serves_repeats_and_invalidates_on_ddl_and_fingerprint() {
        let mut db = toy_db();
        let q = simple_query();
        let cache = PlanCache::new();
        let (p1, hit) = optimize_cached(&q, &db, &cache, "fp-a").unwrap();
        assert!(!hit, "first optimization is a miss");
        let (p2, hit) = optimize_cached(&q, &db, &cache, "fp-a").unwrap();
        assert!(hit, "repeat serves from the cache");
        assert!(std::sync::Arc::ptr_eq(&p1, &p2), "same cached plan object");
        // A different knob fingerprint keys separately.
        let (_, hit) = optimize_cached(&q, &db, &cache, "fp-b").unwrap();
        assert!(!hit, "fingerprint participates in the key");
        // The cached plan equals a fresh optimization.
        let fresh = optimize(&q, &db).unwrap();
        assert_eq!(
            crate::explain::explain(&p1),
            crate::explain::explain(&fresh)
        );
        // DDL moves the catalog version: the same text re-optimizes (and
        // may now pick the new index).
        db.create_index(IndexDef {
            name: "fresh".into(),
            table: "doc".into(),
            key_columns: vec!["level".into()],
            include_columns: vec![],
            clustered: false,
        });
        let (_, hit) = optimize_cached(&q, &db, &cache, "fp-a").unwrap();
        assert!(!hit, "catalog version change invalidates cached plans");
        // Failed optimizations cache nothing.
        let bad = SfwQuery {
            from: vec![FromItem {
                table: "missing".into(),
                alias: "m".into(),
            }],
            ..simple_query()
        };
        assert!(optimize_cached(&bad, &db, &cache, "fp-a").is_err());
        assert!(optimize_cached(&bad, &db, &cache, "fp-a").is_err());
    }

    #[test]
    fn join_order_starts_with_most_selective_alias() {
        let db = toy_db();
        // Reverse the alias numbering so the selective DOC predicate sits on
        // the *second* FROM item: the optimizer must still start with it.
        let mut q = simple_query();
        q.from.reverse();
        let plan = optimize(&q, &db).unwrap();
        assert_eq!(plan.join_order()[0], "d1");
    }

    #[test]
    fn index_bounds_match_equality_prefix_then_range() {
        let avail = vec![
            SqlPredicate::new(SqlExpr::col("d", "name"), SqlCmp::Eq, SqlExpr::lit("price")),
            SqlPredicate::new(SqlExpr::col("d", "kind"), SqlCmp::Eq, SqlExpr::lit("ELEM")),
            SqlPredicate::new(SqlExpr::col("d", "data"), SqlCmp::Gt, SqlExpr::lit(500i64)),
        ];
        let keys = vec![
            "name".to_string(),
            "kind".to_string(),
            "data".to_string(),
            "pre".to_string(),
        ];
        let (bounds, consumed) = match_index_bounds("d", &keys, &avail, &[0, 1, 2]);
        assert_eq!(bounds.eq.len(), 2);
        assert_eq!(bounds.range_col.as_deref(), Some("data"));
        assert!(bounds.lower.is_some() && bounds.upper.is_none());
        assert_eq!(consumed.len(), 3);
    }

    #[test]
    fn a_repeated_conjunct_is_covered_by_the_bounds_of_its_first_copy() {
        let db = toy_db();
        let q = crate::sqlparse::parse_sql(
            "SELECT a.pre AS item FROM doc AS a \
             WHERE a.name = 'price' AND a.kind = 'ELEM' AND a.name = 'price'",
        )
        .unwrap();
        let probe = &Planner::new(&q, &db).steps[0].probe;
        assert_eq!(probe.index, Some("nksp"));
        assert_eq!(probe.bounds.eq.len(), 2);
        assert!(probe.residual.is_empty(), "{probe:?}");
    }

    #[test]
    fn index_matching_stops_at_gap() {
        // Key (name, kind, data): only a data predicate (no name) matches nothing.
        let avail = vec![SqlPredicate::new(
            SqlExpr::col("d", "data"),
            SqlCmp::Gt,
            SqlExpr::lit(500i64),
        )];
        let keys = vec!["name".to_string(), "kind".to_string(), "data".to_string()];
        let (bounds, _) = match_index_bounds("d", &keys, &avail, &[0]);
        assert_eq!(bounds.matched_columns(), 0);
    }

    #[test]
    fn errors_on_unknown_table() {
        let db = toy_db();
        let mut q = simple_query();
        q.from[0].table = "nope".into();
        assert!(optimize(&q, &db).is_err());
    }

    #[test]
    fn cross_product_queries_still_plan() {
        let db = toy_db();
        let q = SfwQuery {
            distinct: false,
            select: vec![SelectItem::Star("a".into()), SelectItem::Star("b".into())],
            from: vec![
                FromItem {
                    table: "doc".into(),
                    alias: "a".into(),
                },
                FromItem {
                    table: "doc".into(),
                    alias: "b".into(),
                },
            ],
            where_clause: vec![SqlPredicate::new(
                SqlExpr::col("a", "kind"),
                SqlCmp::Eq,
                SqlExpr::lit("DOC"),
            )],
            order_by: vec![],
        };
        let plan = optimize(&q, &db).unwrap();
        assert_eq!(plan.join_order().len(), 2);
    }

    #[test]
    fn hash_join_chosen_for_unselective_value_equijoin() {
        let db = toy_db();
        // Join on data = data with no useful index on the inner side's probe:
        // the optimizer should prefer a hash join over a per-probe scan.
        let q = SfwQuery {
            distinct: false,
            select: vec![SelectItem::Star("a".into())],
            from: vec![
                FromItem {
                    table: "doc".into(),
                    alias: "a".into(),
                },
                FromItem {
                    table: "doc".into(),
                    alias: "b".into(),
                },
            ],
            where_clause: vec![
                SqlPredicate::new(SqlExpr::col("a", "name"), SqlCmp::Eq, SqlExpr::lit("price")),
                SqlPredicate::new(
                    SqlExpr::col("a", "value"),
                    SqlCmp::Eq,
                    SqlExpr::col("b", "value"),
                ),
            ],
            order_by: vec![],
        };
        let plan = optimize(&q, &db).unwrap();
        let uses_hash = matches!(
            &plan.root,
            JoinNode::Join {
                method: JoinMethod::Hash,
                ..
            }
        );
        assert!(uses_hash, "expected a hash join, got {:?}", plan.root);
    }

    /// splitmix64: a deterministic stream per seed, so the random join
    /// graphs below are the same on every run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random join graph over 3–7 aliases of `doc`: a random tree over
    /// all but (sometimes) the last alias — which stays disconnected — a
    /// few extra edges, and local literal predicates.  Edges are
    /// equalities, one- and two-sided ranges, `pre + size` containment
    /// pairs and `<>`.
    fn random_query(rng: &mut Rng) -> SfwQuery {
        let n = 3 + rng.below(5);
        let col = |a: usize, c: &str| SqlExpr::col(format!("t{a}"), c);
        let mut preds = Vec::new();
        let connected = if rng.below(4) == 0 { n - 1 } else { n };
        let tree = (1..connected)
            .map(|b| (rng.below(b), b))
            .collect::<Vec<_>>();
        let extra = (0..rng.below(3)).map(|_| (rng.below(n), rng.below(n)));
        for (a, b) in tree.into_iter().chain(extra.collect::<Vec<_>>()) {
            if a == b {
                continue;
            }
            let p = SqlPredicate::new;
            match rng.below(8) {
                0 => preds.push(p(col(a, "value"), SqlCmp::Eq, col(b, "value"))),
                1 => preds.push(p(col(a, "data"), SqlCmp::Eq, col(b, "data"))),
                2 => preds.push(p(
                    col(a, "level") + SqlExpr::lit(1i64),
                    SqlCmp::Eq,
                    col(b, "level"),
                )),
                3 => preds.push(p(col(a, "pre"), SqlCmp::Lt, col(b, "pre"))),
                4 => {
                    preds.push(p(col(b, "pre"), SqlCmp::Gt, col(a, "pre")));
                    preds.push(p(col(b, "pre"), SqlCmp::Le, col(a, "data")));
                }
                5 => preds.push(p(col(a, "pre"), SqlCmp::Ne, col(b, "pre"))),
                // Containment, written the way the compiler writes it …
                6 => {
                    preds.push(p(col(a, "pre"), SqlCmp::Lt, col(b, "pre")));
                    preds.push(p(col(b, "pre"), SqlCmp::Le, col(a, "pre") + col(a, "size")));
                }
                // … and with the computed side on the left.
                _ => {
                    preds.push(p(col(a, "pre") + col(a, "size"), SqlCmp::Ge, col(b, "pre")));
                    preds.push(p(col(b, "pre"), SqlCmp::Gt, col(a, "pre")));
                }
            }
        }
        for a in 0..n {
            let lit = |c: &str, op, v: SqlExpr| SqlPredicate::new(col(a, c), op, v);
            match rng.below(7) {
                0 => {
                    preds.push(lit("kind", SqlCmp::Eq, SqlExpr::lit("DOC")));
                    preds.push(lit("name", SqlCmp::Eq, SqlExpr::lit("auction.xml")));
                }
                1 => {
                    preds.push(lit("kind", SqlCmp::Eq, SqlExpr::lit("ELEM")));
                    preds.push(lit("name", SqlCmp::Eq, SqlExpr::lit("price")));
                }
                2 => {
                    preds.push(lit("name", SqlCmp::Eq, SqlExpr::lit("bidder")));
                    preds.push(lit("data", SqlCmp::Gt, SqlExpr::lit(500i64)));
                }
                3 => preds.push(lit("kind", SqlCmp::Eq, SqlExpr::lit("ELEM"))),
                4 => preds.push(lit("pre", SqlCmp::Lt, SqlExpr::lit(300i64))),
                5 => {
                    preds.push(lit("kind", SqlCmp::Eq, SqlExpr::lit("ELEM")));
                    preds.push(lit("name", SqlCmp::Eq, SqlExpr::lit("sec")));
                }
                _ => {}
            }
        }
        // Predicate order is part of the input: shuffle it.
        for k in (1..preds.len()).rev() {
            preds.swap(k, rng.below(k + 1));
        }
        SfwQuery {
            distinct: true,
            select: vec![SelectItem::Star("t0".into())],
            from: (0..n)
                .map(|a| FromItem {
                    table: "doc".into(),
                    alias: format!("t{a}"),
                })
                .collect(),
            where_clause: preds,
            order_by: vec![],
        }
    }

    /// Nothing outside `bound ∩ neighbours` leaks into a step: for every
    /// alias and every subset of the other aliases, the memoized step is
    /// the step derived from scratch with the whole subset bound.
    #[test]
    fn memoized_steps_equal_steps_derived_from_the_full_bound_set() {
        let db = toy_db();
        let mut hashed = 0;
        for seed in 0..150 {
            let q = random_query(&mut Rng(seed));
            let mut planner = Planner::new(&q, &db);
            let n = q.from.len();
            for i in 0..n {
                for bound in (0..1u64 << n).filter(|b| b & (1 << i) == 0) {
                    let at = planner.step(i, bound);
                    let (memoized, scratch) = (&planner.steps[at], planner.compute_step(i, bound));
                    assert_eq!(
                        *memoized,
                        scratch,
                        "alias {i}, bound {bound:#b}\n{}",
                        q.to_sql()
                    );
                    for (a, b) in [
                        (memoized.join_sel, scratch.join_sel),
                        (memoized.probe.cost, scratch.probe.cost),
                        (memoized.probe.rows, scratch.probe.rows),
                    ] {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    hashed += usize::from(scratch.hash.is_some());
                }
            }
            // One evaluation per distinct key, however many bound sets
            // were asked for.
            assert_eq!(planner.access_evaluations, planner.steps.len());
            assert_eq!(planner.steps.len(), n + planner.memo.len());
        }
        assert!(hashed > 100, "the graphs exercise hash keys ({hashed})");
    }

    /// Every left-deep order that obeys the connected-first rule, costed by
    /// the planner's own `extend`: the cheapest total, and per alias set
    /// the smallest and largest cardinality it was reached with.
    fn brute_force(
        planner: &mut Planner,
        entry: DpEntry,
        mask: u64,
        cheapest: &mut f64,
        cards: &mut HashMap<u64, (f64, f64)>,
    ) {
        let (lo, hi) = cards.entry(mask).or_insert((entry.card, entry.card));
        (*lo, *hi) = (lo.min(entry.card), hi.max(entry.card));
        let candidates = planner.candidates(mask);
        if candidates == 0 {
            *cheapest = cheapest.min(entry.cost);
        }
        for i in bits(candidates) {
            let next = planner.extend(&entry, mask, i);
            brute_force(planner, next, mask | 1 << i, cheapest, cards);
        }
    }

    /// The table, the back-pointers and the visiting order lose no
    /// candidate.  Selinger DP is exact when the cardinality of an alias
    /// set does not depend on the order it was joined in.  In this model it
    /// can: the one-row floor applies per step, so the cheapest prefix may
    /// carry more rows than a dearer one and lose later — on these graphs
    /// the DP's plan costs up to 10⁴× the best left-deep order, exactly as
    /// it did before the enumeration was rebuilt (ROADMAP item 5).  What
    /// must hold: never below the brute-force minimum (the DP's plan is
    /// one of the orders), and equal to it wherever every alias set has one
    /// cardinality up to rounding.
    #[test]
    fn dp_finds_the_brute_force_minimum_when_cardinalities_are_order_independent() {
        let db = toy_db();
        let mut exact = 0;
        for seed in 1000..1400 {
            let q = random_query(&mut Rng(seed));
            let mut planner = Planner::new(&q, &db);
            let chain = planner.plan_joins().unwrap();
            let dp = chain[chain.len() - 1].cost;
            assert_eq!(optimize(&q, &db).unwrap().est_cost.to_bits(), dp.to_bits());

            let (mut cheapest, mut cards) = (f64::INFINITY, HashMap::new());
            for i in 0..q.from.len() {
                let leaf = planner.leaf_entry(i);
                brute_force(&mut planner, leaf, 1 << i, &mut cheapest, &mut cards);
            }
            assert!(dp >= cheapest, "{dp} < {cheapest}\n{}", q.to_sql());
            if cards.values().all(|(lo, hi)| hi / lo < 1.0 + 1e-9) {
                assert!(
                    dp <= cheapest * (1.0 + 1e-6),
                    "{dp} > {cheapest}\n{}",
                    q.to_sql()
                );
                exact += 1;
            }
        }
        assert!(exact >= 50, "only {exact} order-independent graphs");
    }

    /// The join graph of Table VIII's Q2 as the compiler emits it: twelve
    /// aliases, eleven containment steps (nine of them child steps with a
    /// level equation), two value joins.
    fn q2_shaped() -> SfwQuery {
        let steps = [
            (9, 8, false),
            (8, 10, true),
            (9, 5, false),
            (9, 2, false),
            (8, 7, true),
            (7, 6, true),
            (5, 11, true),
            (5, 4, true),
            (4, 3, true),
            (2, 12, true),
            (2, 1, true),
        ];
        let mut conds: Vec<String> = (1..=12).map(|d| format!("d{d}.kind = 'ELEM'")).collect();
        conds.push("d9.name = 'auction.xml'".into());
        conds.push("d10.name = 'price' AND d10.data > 500".into());
        conds.push("d6.value = d11.value AND d3.value = d12.value".into());
        for (up, down, child) in steps {
            conds.push(format!(
                "d{up}.pre < d{down}.pre AND d{down}.pre <= d{up}.pre + d{up}.size"
            ));
            if child {
                conds.push(format!("d{up}.level + 1 = d{down}.level"));
            }
        }
        let from: Vec<String> = (1..=12).map(|d| format!("doc AS d{d}")).collect();
        crate::sqlparse::parse_sql(&format!(
            "SELECT DISTINCT d1.pre AS item FROM {} WHERE {} ORDER BY d1.pre",
            from.join(", "),
            conds.join(" AND ")
        ))
        .unwrap()
    }

    /// The enumeration's work, derived from the query text alone with the
    /// string sets the predicate index replaced: reachable states,
    /// extensions, and the distinct `(alias, bound ∩ neighbours)` pairs
    /// among them (constant-only pairs included).
    fn expected_work(q: &SfwQuery) -> (usize, usize, usize) {
        let n = q.from.len();
        let mut neighbours = vec![0u64; n];
        for p in &q.where_clause {
            let mask = (p.tables().iter()).fold(0, |m, t| m | 1u64 << bit(q, t));
            bits(mask).for_each(|i| neighbours[i] |= mask & !(1 << i));
        }
        let mut states: std::collections::BTreeSet<u64> = (0..n).map(|i| 1 << i).collect();
        let mut keys: std::collections::BTreeSet<(usize, u64)> = (0..n).map(|i| (i, 0)).collect();
        let mut extensions = 0;
        let mut frontier: Vec<u64> = states.iter().copied().collect();
        while let Some(mask) = frontier.pop() {
            let outside: Vec<usize> = (0..n).filter(|i| mask & (1 << i) == 0).collect();
            let connected: Vec<usize> = (outside.iter().copied())
                .filter(|&i| neighbours[i] & mask != 0)
                .collect();
            for i in if connected.is_empty() {
                outside
            } else {
                connected
            } {
                extensions += 1;
                keys.insert((i, mask & neighbours[i]));
                if states.insert(mask | 1 << i) {
                    frontier.push(mask | 1 << i);
                }
            }
        }
        (states.len(), extensions, keys.len())
    }

    #[test]
    fn access_paths_are_evaluated_once_per_alias_and_bound_neighbours() {
        let db = toy_db();
        let q = q2_shaped();
        let work = |q: &SfwQuery| {
            let mut planner = Planner::new(q, &db);
            planner.plan_joins().unwrap();
            (
                planner.states,
                planner.extensions,
                planner.access_evaluations,
            )
        };
        let (states, extensions, evaluations) = work(&q);
        let expected = expected_work(&q);
        assert_eq!((states, extensions), (expected.0, expected.1));
        assert!(evaluations <= expected.2, "{evaluations} > {}", expected.2);
        // The numbers instrumentation measured on the real Q2 before the
        // memo existed: 1 593 extensions, each of which evaluated two
        // access paths, over 40 distinct keys (plus one leaf per alias).
        assert_eq!((states, extensions, evaluations), (471, 1593, 52));
        assert_eq!(work(&q), (states, extensions, evaluations), "counts repeat");
        // Evaluations follow the graph, not the enumeration: the random
        // graphs make up to a thousand extensions, never on more keys than
        // the graph has.
        for seed in 0..50 {
            let q = random_query(&mut Rng(seed));
            let (states, extensions, evaluations) = work(&q);
            assert_eq!(
                (states, extensions, evaluations),
                expected_work(&q),
                "{}",
                q.to_sql()
            );
        }
    }

    /// A hub `t0` with `spokes` children, every spoke a selective leaf.
    fn star(spokes: usize) -> SfwQuery {
        let mut conds = vec!["t0.kind = 'DOC'".to_string()];
        for s in 1..=spokes {
            conds.push(format!(
                "t{s}.name = 'price' AND t{s}.data > {} \
                 AND t0.pre < t{s}.pre AND t{s}.pre <= t0.pre + t0.size",
                40 * s
            ));
        }
        let from: Vec<String> = (0..=spokes).map(|t| format!("doc AS t{t}")).collect();
        crate::sqlparse::parse_sql(&format!(
            "SELECT t0.pre AS item FROM {} WHERE {}",
            from.join(", "),
            conds.join(" AND ")
        ))
        .unwrap()
    }

    #[test]
    fn sixteen_alias_star_plans_by_dp_and_no_worse_than_greedy() {
        let db = toy_db();
        let q = star(15);
        let mut planner = Planner::new(&q, &db);
        let dp = planner.plan_joins().unwrap();
        // Every subset that contains the hub, and the fifteen lone spokes.
        assert_eq!(planner.states, (1 << 15) + 15);
        assert!(planner.states < cost::DP_STATE_LIMIT);
        // A spoke sees the hub or nothing: two steps per spoke, and the
        // hub's 2¹⁵ neighbour sets.
        assert!(planner.access_evaluations <= (1 << 15) + 2 * 15);
        let greedy = Planner::new(&q, &db).plan_greedy().unwrap();
        assert!(
            dp[15].cost <= greedy[15].cost,
            "{} > {}",
            dp[15].cost,
            greedy[15].cost
        );
        let plan = optimize(&q, &db).unwrap();
        assert_eq!(plan.est_cost.to_bits(), dp[15].cost.to_bits());
    }

    #[test]
    fn twenty_alias_clique_falls_back_to_greedy_without_panic() {
        let db = toy_db();
        let mut conds = Vec::new();
        for a in 0..20 {
            for b in a + 1..20 {
                conds.push(format!("t{a}.pre <> t{b}.pre"));
            }
        }
        let from: Vec<String> = (0..20).map(|t| format!("doc AS t{t}")).collect();
        let q = crate::sqlparse::parse_sql(&format!(
            "SELECT t0.pre AS item FROM {} WHERE {}",
            from.join(", "),
            conds.join(" AND ")
        ))
        .unwrap();
        // 2²⁰ connected subsets: the table stops growing at the limit, not
        // a size class later.
        let mut planner = Planner::new(&q, &db);
        let chain = planner.plan_joins().unwrap();
        assert_eq!(planner.states, cost::DP_STATE_LIMIT);
        let greedy = Planner::new(&q, &db).plan_greedy().unwrap();
        assert_eq!(chain[19].cost.to_bits(), greedy[19].cost.to_bits());
        let mut order = optimize(&q, &db).unwrap().join_order();
        order.sort();
        let mut all: Vec<String> = (0..20).map(|t| format!("t{t}")).collect();
        all.sort();
        assert_eq!(order, all, "every alias exactly once");
    }
}
