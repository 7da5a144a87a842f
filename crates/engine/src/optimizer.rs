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
//!   containment partner allows it (see [`Planner::implied_lower`]) — the
//!   step that makes walking *up* from a selective leaf cost a window, not
//!   half an index partition — and
//! * **join tree planning** — dynamic programming over connected sub-plans
//!   (Selinger-style, left-deep), choosing nested-loop (index probe) or hash
//!   joins per step.
//!
//! Because the join graph does not prescribe any XPath evaluation order, the
//! chosen join order freely reorders location steps and reverses axes — the
//! behaviour Figures 10 and 11 document for DB2.

use crate::physical::{Access, Bounds, JoinMethod, JoinNode, PhysPlan};
use crate::sql::{SfwQuery, SqlCmp, SqlExpr, SqlPredicate};
use std::collections::{HashMap, HashSet};
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
    /// Cap on the number of dynamic-programming states before falling back
    /// to greedy planning.
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
    let n = query.from.len();
    if n > 63 {
        return Err(OptimizeError::new("too many FROM items (max 63)"));
    }

    let DpEntry { cost, card, plan } = Planner::new(query, db).plan_joins()?;
    Ok(PhysPlan {
        root: plan,
        select: query.select.clone(),
        distinct: query.distinct,
        order_by: query.order_by.iter().map(|o| o.col.clone()).collect(),
        est_cost: cost,
        est_rows: card,
    })
}

struct AliasInfo {
    alias: String,
    table: String,
    /// Estimated rows after applying the alias's constant-only predicates.
    local_rows: f64,
}

struct Planner<'a> {
    query: &'a SfwQuery,
    db: &'a Database,
    aliases: Vec<AliasInfo>,
    /// alias → bit position
    bit: HashMap<String, usize>,
}

#[derive(Clone)]
struct DpEntry {
    cost: f64,
    card: f64,
    plan: JoinNode,
}

impl<'a> Planner<'a> {
    fn new(query: &'a SfwQuery, db: &'a Database) -> Self {
        let mut aliases = Vec::new();
        let mut bit = HashMap::new();
        for (i, f) in query.from.iter().enumerate() {
            let local_rows = local_row_estimate(query, db, &f.alias, &f.table);
            bit.insert(f.alias.clone(), i);
            aliases.push(AliasInfo {
                alias: f.alias.clone(),
                table: f.table.clone(),
                local_rows,
            });
        }
        Planner {
            query,
            db,
            aliases,
            bit,
        }
    }

    /// Mask of aliases referenced by a predicate.
    fn pred_mask(&self, p: &SqlPredicate) -> u64 {
        let mut m = 0u64;
        for t in p.tables() {
            if let Some(&b) = self.bit.get(&t) {
                m |= 1 << b;
            }
        }
        m
    }

    /// Dynamic programming over connected sub-plans; falls back to greedy
    /// when the state space explodes.  The winning entry carries the cost
    /// it won with — the number EXPLAIN reports.
    fn plan_joins(&self) -> Result<DpEntry, OptimizeError> {
        let n = self.aliases.len();
        let full: u64 = if n == 64 { u64::MAX } else { (1 << n) - 1 };
        let mut table: HashMap<u64, DpEntry> = HashMap::new();

        // Seed with singletons.
        for i in 0..n {
            table.insert(1 << i, self.leaf_entry(i));
        }

        // Grow subsets one alias at a time.  Process states in sorted
        // order: `HashMap` iteration order would otherwise decide cost
        // ties, making the chosen join order (and every benchmark built on
        // it) vary from run to run.
        for size in 1..n {
            let mut states: Vec<u64> = table
                .keys()
                .copied()
                .filter(|m| m.count_ones() as usize == size)
                .collect();
            states.sort_unstable();
            if table.len() > cost::DP_STATE_LIMIT {
                return self.plan_greedy();
            }
            for mask in states {
                let entry = table.get(&mask).cloned().expect("state present");
                let connected = self.connected_extensions(mask);
                let candidates: Vec<usize> = if connected.is_empty() {
                    (0..n).filter(|i| mask & (1 << i) == 0).collect()
                } else {
                    connected
                };
                for i in candidates {
                    let new_mask = mask | (1 << i);
                    let candidate = self.extend(&entry, i);
                    // Break exact cost ties by the smaller intermediate
                    // cardinality: equal-cost orders are common in this
                    // model, and the lower-cardinality one feeds fewer
                    // bindings to every operator above it.
                    let better = match table.get(&new_mask) {
                        Some(existing) => {
                            candidate.cost < existing.cost
                                || (candidate.cost == existing.cost
                                    && candidate.card < existing.card)
                        }
                        None => true,
                    };
                    if better {
                        table.insert(new_mask, candidate);
                    }
                }
            }
        }

        table
            .remove(&full)
            .ok_or_else(|| OptimizeError::new("join enumeration failed to cover all aliases"))
    }

    /// Greedy fallback: repeatedly add the connected alias yielding the
    /// smallest intermediate cardinality.
    fn plan_greedy(&self) -> Result<DpEntry, OptimizeError> {
        let n = self.aliases.len();
        // Start with the most selective alias.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.aliases[a]
                .local_rows
                .partial_cmp(&self.aliases[b].local_rows)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let first = order[0];
        let mut entry = self.leaf_entry(first);
        let mut mask = 1u64 << first;
        while (mask.count_ones() as usize) < n {
            let connected = self.connected_extensions(mask);
            let candidates: Vec<usize> = if connected.is_empty() {
                (0..n).filter(|i| mask & (1 << i) == 0).collect()
            } else {
                connected
            };
            let best = candidates
                .into_iter()
                .map(|i| (i, self.extend(&entry, i)))
                .min_by(|a, b| {
                    a.1.card
                        .partial_cmp(&b.1.card)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one candidate");
            mask |= 1 << best.0;
            entry = best.1;
        }
        Ok(entry)
    }

    /// The single-alias plan the enumeration starts from: alias `i` through
    /// its cheapest constant-only access path.
    fn leaf_entry(&self, i: usize) -> DpEntry {
        let info = &self.aliases[i];
        let (access, cost, _) = self.best_access(&info.alias, &info.table, &HashSet::new());
        let card = info.local_rows.max(1.0);
        DpEntry {
            cost,
            card,
            plan: JoinNode::Leaf {
                alias: info.alias.clone(),
                table: info.table.clone(),
                access,
                est_rows: card,
            },
        }
    }

    /// Aliases outside `mask` connected to it by at least one join predicate.
    fn connected_extensions(&self, mask: u64) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, _) in self.aliases.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            let connected = self.query.where_clause.iter().any(|p| {
                let m = self.pred_mask(p);
                m & (1 << i) != 0 && m & mask != 0 && m.count_ones() > 1
            });
            if connected {
                out.push(i);
            }
        }
        out
    }

    /// Extend a DP entry with alias `i`, choosing the cheaper of nested-loop
    /// and hash join.
    fn extend(&self, entry: &DpEntry, i: usize) -> DpEntry {
        let info = &self.aliases[i];
        let bound: HashSet<String> = entry.plan.bound_aliases().into_iter().collect();

        // Resulting cardinality (method independent).  Floored at one row:
        // letting estimates underflow towards zero made every downstream
        // probe look free, erasing the cost differences between join
        // orders (the DP then picked among ties).
        let join_sel = self.join_selectivity(&info.alias, &bound);
        let card = (entry.card * info.local_rows * join_sel).max(1.0);

        // Nested loop with per-probe access.
        let (nl_access, nl_probe_cost, _) = self.best_access(&info.alias, &info.table, &bound);
        let nl_residual = self.residual_after_access(&info.alias, &bound, &nl_access);
        let nl_cost = entry.cost + entry.card * nl_probe_cost;

        // Hash join: only when an equality key against the bound set exists.
        let hash_keys = self.hash_keys(&info.alias, &bound);
        let (best_method, access, residual, total_cost, keys) = if hash_keys.is_empty() {
            (
                JoinMethod::NestedLoop,
                nl_access,
                nl_residual,
                nl_cost,
                vec![],
            )
        } else {
            let empty = HashSet::new();
            let (inner_access, inner_cost, inner_rows) =
                self.best_access(&info.alias, &info.table, &empty);
            let hash_residual = self.residual_after_hash(&info.alias, &bound, &hash_keys);
            // Every probe walks its hash bucket: charge the expected
            // candidate comparisons, `build_rows / Π distinct(key)` (NULL
            // keys never enter the build).  Without this term a
            // low-distinct key (e.g. the `level` column) looked as cheap
            // as a selective value key, and the model replaced tight
            // NLJOIN–IXSCAN windows with hash joins that rescan most of
            // the build side on every probe.
            let stats = self.db.stats(&info.table);
            let mut candidates = inner_rows;
            for (_, col) in &hash_keys {
                match stats.and_then(|s| s.column(col)) {
                    Some(cs) => {
                        let non_null = (cs.rows - cs.nulls) as f64 / cs.rows.max(1) as f64;
                        candidates *= non_null / cs.distinct.max(1) as f64;
                    }
                    None => candidates *= cost::FALLBACK_EQ_SEL,
                }
            }
            let hash_cost = entry.cost
                + inner_cost
                + inner_rows * cost::HASH_ROW
                + entry.card * cost::HASH_ROW
                + entry.card * candidates * cost::HASH_ROW;
            if hash_cost < nl_cost {
                (
                    JoinMethod::Hash,
                    inner_access,
                    hash_residual,
                    hash_cost,
                    hash_keys,
                )
            } else {
                (
                    JoinMethod::NestedLoop,
                    nl_access,
                    nl_residual,
                    nl_cost,
                    vec![],
                )
            }
        };

        DpEntry {
            cost: total_cost,
            card,
            plan: JoinNode::Join {
                outer: Box::new(entry.plan.clone()),
                alias: info.alias.clone(),
                table: info.table.clone(),
                access,
                method: best_method,
                hash_keys: keys,
                residual,
                est_rows: card,
            },
        }
    }

    /// Estimated rows of an alias after its constant-only predicates (1.0
    /// when the alias is not part of this query).
    fn local_rows_of(&self, alias: &str) -> f64 {
        self.aliases
            .iter()
            .find(|a| a.alias == alias)
            .map(|a| a.local_rows)
            .unwrap_or(1.0)
    }

    /// Combined selectivity of all join predicates connecting `alias` to the
    /// bound set.
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
    fn join_selectivity(&self, alias: &str, bound: &HashSet<String>) -> f64 {
        let preds: Vec<&SqlPredicate> = self
            .query
            .where_clause
            .iter()
            .filter(|p| {
                let ts = p.tables();
                ts.contains(alias)
                    && ts.len() >= 2
                    && ts.iter().all(|t| t == alias || bound.contains(t))
            })
            .collect();
        self.grouped_selectivity(alias, &preds, |p| {
            self.single_join_pred_selectivity(alias, p)
        })
    }

    /// Fold the selectivities of a predicate list, recognizing containment
    /// groups; `single` estimates any predicate left ungrouped.
    fn grouped_selectivity(
        &self,
        alias: &str,
        preds: &[&SqlPredicate],
        single: impl Fn(&SqlPredicate) -> f64,
    ) -> f64 {
        let inner_rows = self
            .aliases
            .iter()
            .find(|a| a.alias == alias)
            .and_then(|a| self.db.stats(&a.table))
            .map(|s| s.rows as f64)
            .unwrap_or(1.0)
            .max(1.0);
        let mut sel = 1.0;
        let mut used = vec![false; preds.len()];
        for i in 0..preds.len() {
            if used[i] || !is_range_op(preds[i].op) {
                continue;
            }
            let Some(partner) = single_partner(preds[i], alias) else {
                continue;
            };
            let mut group = vec![i];
            for (j, p) in preds.iter().enumerate().skip(i + 1) {
                if !used[j]
                    && is_range_op(p.op)
                    && single_partner(p, alias).as_deref() == Some(partner.as_str())
                {
                    group.push(j);
                }
            }
            let members: Vec<&SqlPredicate> = group.iter().map(|&k| preds[k]).collect();
            let factor = match group_container(&members) {
                Some(container) => self.containment_selectivity(&container, inner_rows),
                // A lone one-sided ordering bound (`pre < pre◦`) keeps half
                // the rows on average; other shapes keep the old estimate.
                None if members.len() == 1 => 0.5,
                None => members.iter().map(|p| single(p)).product(),
            };
            sel *= factor;
            for k in group {
                used[k] = true;
            }
        }
        for (i, p) in preds.iter().enumerate() {
            if !used[i] {
                sel *= single(p);
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
    fn containment_selectivity(&self, container: &str, inner_rows: f64) -> f64 {
        (1.0 / self.local_rows_of(container).max(1.0)).clamp(1.0 / inner_rows, 1.0)
    }

    fn single_join_pred_selectivity(&self, alias: &str, p: &SqlPredicate) -> f64 {
        let table = &self
            .aliases
            .iter()
            .find(|a| a.alias == alias)
            .expect("alias known")
            .table;
        let stats = self.db.stats(table);
        match p.op {
            SqlCmp::Eq => {
                // column = column: 1 / max distinct.  The alias's column
                // may sit inside a computed side: `a.level + 1 = b.level`
                // must estimate the same whether the step is planned from
                // `a` down or from `b` up (seen from `a` it used to fall
                // through to FALLBACK_EQ_SEL, rating every upward step
                // ~100x more selective than its downward twin).
                let col = column_within(&p.lhs, alias).or_else(|| column_within(&p.rhs, alias));
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

    /// Hash keys `(outer expression, inner column)` for equality predicates
    /// between `alias` and the bound set.
    fn hash_keys(&self, alias: &str, bound: &HashSet<String>) -> Vec<(SqlExpr, String)> {
        let mut keys = Vec::new();
        for p in &self.query.where_clause {
            if p.op != SqlCmp::Eq {
                continue;
            }
            let ts = p.tables();
            if !ts.contains(alias) || ts.len() < 2 {
                continue;
            }
            if !ts.iter().all(|t| t == alias || bound.contains(t)) {
                continue;
            }
            // inner side must be a bare column of `alias`, outer side must
            // not reference `alias` at all.
            if let Some(col) = p.lhs.as_column_of(alias) {
                if !expr_references(&p.rhs, alias) {
                    keys.push((p.rhs.clone(), col.to_string()));
                    continue;
                }
            }
            if let Some(col) = p.rhs.as_column_of(alias) {
                if !expr_references(&p.lhs, alias) {
                    keys.push((p.lhs.clone(), col.to_string()));
                }
            }
        }
        keys
    }

    /// Predicates involving `alias` and the bound set that are not consumed
    /// by the chosen access path.
    fn residual_after_access(
        &self,
        alias: &str,
        bound: &HashSet<String>,
        access: &Access,
    ) -> Vec<SqlPredicate> {
        let consumed: Vec<SqlPredicate> = match access {
            Access::TableScan { preds } => preds.clone(),
            Access::IndexScan { residual, .. } => {
                // Everything available is either in bounds or in residual;
                // residual predicates are checked by the scan itself.
                let mut v = residual.clone();
                v.extend(self.bounds_predicates(alias, bound, access));
                v
            }
        };
        self.available_predicates(alias, bound)
            .into_iter()
            .filter(|p| !consumed.contains(p))
            .collect()
    }

    fn bounds_predicates(
        &self,
        alias: &str,
        bound: &HashSet<String>,
        access: &Access,
    ) -> Vec<SqlPredicate> {
        // Reconstruct which of the available predicates were folded into the
        // index bounds, by re-running the matching.
        if let Access::IndexScan { index, .. } = access {
            if let Some(ix) = self.db.index(index) {
                let avail = self.available_predicates(alias, bound);
                let (_, consumed) = match_index_bounds(alias, &ix.def.key_columns, &avail);
                return consumed;
            }
        }
        Vec::new()
    }

    fn residual_after_hash(
        &self,
        alias: &str,
        bound: &HashSet<String>,
        keys: &[(SqlExpr, String)],
    ) -> Vec<SqlPredicate> {
        self.available_predicates(alias, bound)
            .into_iter()
            .filter(|p| {
                // Join-equality predicates covered by the hash keys and
                // constant-only local predicates (already applied by the
                // inner access) are not residual.
                if p.tables().len() <= 1 {
                    return false;
                }
                if p.op == SqlCmp::Eq {
                    let covered = keys.iter().any(|(outer, col)| {
                        (p.lhs.as_column_of(alias) == Some(col.as_str()) && p.rhs == *outer)
                            || (p.rhs.as_column_of(alias) == Some(col.as_str()) && p.lhs == *outer)
                    });
                    if covered {
                        return false;
                    }
                }
                true
            })
            .collect()
    }

    /// All predicates that involve `alias` and otherwise only bound aliases
    /// or constants.
    fn available_predicates(&self, alias: &str, bound: &HashSet<String>) -> Vec<SqlPredicate> {
        self.query
            .where_clause
            .iter()
            .filter(|p| {
                let ts = p.tables();
                ts.contains(alias) && ts.iter().all(|t| t == alias || bound.contains(t))
            })
            .cloned()
            .collect()
    }

    /// Choose the cheapest access path for `alias` given the bound aliases.
    /// Returns `(access, per_probe_cost, per_probe_rows)`.
    fn best_access(&self, alias: &str, table: &str, bound: &HashSet<String>) -> (Access, f64, f64) {
        let avail = self.available_predicates(alias, bound);
        let stats = self.db.stats(table);
        let total_rows = stats.map(|s| s.rows as f64).unwrap_or(1.0).max(1.0);

        // Selectivity of *all* available predicates (they are all applied,
        // whether through bounds or residual checks).  Containment windows
        // are grouped here as well so per-probe row estimates agree with
        // the join-cardinality model.
        let avail_refs: Vec<&SqlPredicate> = avail.iter().collect();
        let overall_sel = self.grouped_selectivity(alias, &avail_refs, |p| {
            predicate_selectivity(self.db, table, alias, p)
        });
        let out_rows = (total_rows * overall_sel).max(1e-6);

        // Table scan baseline.
        let scan_cost =
            total_rows * cost::TB_ROW + avail.len() as f64 * total_rows * cost::RESIDUAL;
        let mut best = (
            Access::TableScan {
                preds: avail.clone(),
            },
            scan_cost,
            out_rows,
        );

        for ix in self.db.indexes_on(table) {
            let (mut bounds, consumed) = match_index_bounds(alias, &ix.def.key_columns, &avail);
            if bounds.matched_columns() == 0 {
                continue;
            }
            // Selectivity of the predicates folded into the bounds (again
            // with containment windows grouped — this is the NLJOIN
            // per-probe fetch estimate).
            let consumed_refs: Vec<&SqlPredicate> = consumed.iter().collect();
            let bound_sel = self.grouped_selectivity(alias, &consumed_refs, |p| {
                predicate_selectivity(self.db, table, alias, p)
            });
            let mut scanned_entries = (total_rows * bound_sel).max(1.0);
            // A one-sided range closed by the extent statistic walks at
            // most the window, however large the group.
            if let Some((lower, window)) = self.implied_lower(alias, &ix.def.name, &bounds, &avail)
            {
                bounds.lower = Some(lower);
                scanned_entries = scanned_entries.min(window);
            }
            let residual: Vec<SqlPredicate> = avail
                .iter()
                .filter(|p| !consumed.contains(p))
                .cloned()
                .collect();
            let height = ix.tree.height() as f64;
            let ix_cost = height * cost::PAGE
                + scanned_entries * cost::IX_ENTRY
                + residual.len() as f64 * scanned_entries * cost::RESIDUAL;
            if ix_cost < best.1 {
                best = (
                    Access::IndexScan {
                        index: ix.def.name.clone(),
                        bounds,
                        residual,
                    },
                    ix_cost,
                    out_rows,
                );
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
        avail: &[SqlPredicate],
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
        avail.iter().find_map(|p| {
            // Orient the predicate as `x op a + b`.
            let (x, op, a, b) = match (&p.lhs, &p.rhs) {
                (x, SqlExpr::Add(a, b)) => (x, p.op, a, b),
                (SqlExpr::Add(a, b), x) => (x, p.op.flip(), a, b),
                _ => return None,
            };
            if !matches!(op, SqlCmp::Lt | SqlCmp::Le) || expr_references(x, alias) {
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
}

fn expr_references(e: &SqlExpr, alias: &str) -> bool {
    let mut ts = HashSet::new();
    e.tables(&mut ts);
    ts.contains(alias)
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

/// The single alias other than `alias` a predicate references, if there is
/// exactly one.
fn single_partner(p: &SqlPredicate, alias: &str) -> Option<String> {
    let mut partners: Vec<String> = p.tables().into_iter().filter(|t| t != alias).collect();
    (partners.len() == 1).then(|| partners.remove(0))
}

/// The container alias of a containment group: the one alias referenced by
/// a computed (`pre + size`-style) side of one of the group's predicates.
fn group_container(preds: &[&SqlPredicate]) -> Option<String> {
    for p in preds {
        for side in [&p.lhs, &p.rhs] {
            if matches!(side, SqlExpr::Add(..)) {
                let mut ts = HashSet::new();
                side.tables(&mut ts);
                if ts.len() == 1 {
                    return ts.into_iter().next();
                }
            }
        }
    }
    None
}

/// Estimate the rows of `alias` after applying its constant-only predicates.
fn local_row_estimate(query: &SfwQuery, db: &Database, alias: &str, table: &str) -> f64 {
    let stats = match db.stats(table) {
        Some(s) => s,
        None => return 1.0,
    };
    let mut rows = stats.rows as f64;
    for p in query.local_predicates(alias) {
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

/// Match the available predicates of an alias against an index's key
/// columns: a maximal equality prefix followed by at most one range-bound
/// column.  Returns the bounds plus the predicates consumed by them.
fn match_index_bounds(
    alias: &str,
    key_columns: &[String],
    avail: &[SqlPredicate],
) -> (Bounds, Vec<SqlPredicate>) {
    let mut bounds = Bounds::default();
    let mut consumed = Vec::new();
    for key_col in key_columns {
        // Equality?
        let eq = avail.iter().find(|p| {
            p.op == SqlCmp::Eq
                && ((p.lhs.as_column_of(alias) == Some(key_col.as_str())
                    && !expr_references(&p.rhs, alias))
                    || (p.rhs.as_column_of(alias) == Some(key_col.as_str())
                        && !expr_references(&p.lhs, alias)))
        });
        if let Some(p) = eq {
            let expr = if p.lhs.as_column_of(alias) == Some(key_col.as_str()) {
                p.rhs.clone()
            } else {
                p.lhs.clone()
            };
            bounds.eq.push((key_col.clone(), expr));
            consumed.push(p.clone());
            continue;
        }
        // Range bounds?
        let mut lower: Option<(SqlExpr, bool)> = None;
        let mut upper: Option<(SqlExpr, bool)> = None;
        for p in avail {
            let (op, other) = if p.lhs.as_column_of(alias) == Some(key_col.as_str())
                && !expr_references(&p.rhs, alias)
            {
                (p.op, p.rhs.clone())
            } else if p.rhs.as_column_of(alias) == Some(key_col.as_str())
                && !expr_references(&p.lhs, alias)
            {
                (p.op.flip(), p.lhs.clone())
            } else {
                continue;
            };
            match op {
                SqlCmp::Gt if lower.is_none() => {
                    lower = Some((other, false));
                    consumed.push(p.clone());
                }
                SqlCmp::Ge if lower.is_none() => {
                    lower = Some((other, true));
                    consumed.push(p.clone());
                }
                SqlCmp::Lt if upper.is_none() => {
                    upper = Some((other, false));
                    consumed.push(p.clone());
                }
                SqlCmp::Le if upper.is_none() => {
                    upper = Some((other, true));
                    consumed.push(p.clone());
                }
                _ => {}
            }
        }
        if lower.is_some() || upper.is_some() {
            bounds.range_col = Some(key_col.clone());
            bounds.lower = lower;
            bounds.upper = upper;
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
            let bound: HashSet<String> = ["p".to_string()].into();
            match planner.best_access("s", "doc", &bound).0 {
                Access::IndexScan { bounds, .. } => bounds,
                other => panic!("expected an index scan, got {other:?}"),
            }
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
            let planner = Planner::new(&q, &db);
            let order = plan.join_order();
            let mut entry = planner.leaf_entry(planner.bit[&order[0]]);
            let mut costs = vec![entry.cost];
            for alias in &order[1..] {
                entry = planner.extend(&entry, planner.bit[alias]);
                costs.push(entry.cost);
            }
            assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
            assert_eq!(plan.est_cost, *costs.last().unwrap(), "{costs:?}");
            assert_eq!(entry.plan, plan.root);
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
        let down = planner.single_join_pred_selectivity("p", level_eq);
        let up = planner.single_join_pred_selectivity("s", level_eq);
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
        let (bounds, consumed) = match_index_bounds("d", &keys, &avail);
        assert_eq!(bounds.eq.len(), 2);
        assert_eq!(bounds.range_col.as_deref(), Some("data"));
        assert!(bounds.lower.is_some() && bounds.upper.is_none());
        assert_eq!(consumed.len(), 3);
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
        let (bounds, _) = match_index_bounds("d", &keys, &avail);
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
}
