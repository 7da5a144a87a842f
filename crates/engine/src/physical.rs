//! Physical plans: DB2-style operator trees (Table VII).
//!
//! A physical plan is a left-deep join tree over the FROM aliases — each
//! join step adds one alias, accessed either through a B-tree index
//! (`IXSCAN`, probed per outer row for `NLJOIN`) or a table scan — topped by
//! the plan tail (`SORT` with duplicate elimination, `RETURN`).

use crate::sql::{ColRef, SelectItem, SqlExpr, SqlPredicate};

/// Index probe bounds: an equality-bound key prefix followed by at most one
/// range-bound key column.  The bound expressions may refer to aliases that
/// are already joined (index nested-loop probing) or to constants only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bounds {
    /// `key_column = expr` constraints, in index key order.
    pub eq: Vec<(String, SqlExpr)>,
    /// The range-bound key column following the equality prefix, if any.
    pub range_col: Option<String>,
    /// Lower bound `(expr, inclusive)` on `range_col`.
    pub lower: Option<(SqlExpr, bool)>,
    /// Upper bound `(expr, inclusive)` on `range_col`.
    pub upper: Option<(SqlExpr, bool)>,
}

impl Bounds {
    /// Number of key columns constrained by these bounds.
    pub fn matched_columns(&self) -> usize {
        self.eq.len() + usize::from(self.range_col.is_some())
    }
}

/// How one alias is accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Full scan of the base table with pushed-down filters (`TBSCAN`).
    TableScan {
        /// Predicates evaluated against each scanned row.
        preds: Vec<SqlPredicate>,
    },
    /// B-tree index scan (`IXSCAN`).
    IndexScan {
        /// Name of the index being scanned.
        index: String,
        /// Probe bounds.
        bounds: Bounds,
        /// Predicates not covered by the bounds, checked per fetched row.
        residual: Vec<SqlPredicate>,
    },
}

impl Access {
    /// A short label for EXPLAIN output.
    pub fn label(&self) -> String {
        match self {
            Access::TableScan { preds } => format!("TBSCAN [{} filter(s)]", preds.len()),
            Access::IndexScan {
                index,
                bounds,
                residual,
            } => format!(
                "IXSCAN ix={index} ({} key col(s) bound, {} residual)",
                bounds.matched_columns(),
                residual.len()
            ),
        }
    }
}

/// Join method used when adding an alias to the running join tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    /// Index / scan nested-loop join (the inner access is probed per outer
    /// row; with an `IndexScan` inner this is DB2's NLJOIN–IXSCAN pair).
    NestedLoop,
    /// Hash join on equality keys.
    Hash,
}

/// A node of the join tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinNode {
    /// The leftmost (first) alias.
    Leaf {
        /// Alias name.
        alias: String,
        /// Base table name.
        table: String,
        /// Access path.
        access: Access,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Join of the accumulated outer tree with one more alias.
    Join {
        /// The already-built outer tree.
        outer: Box<JoinNode>,
        /// The newly added alias.
        alias: String,
        /// Base table of the new alias.
        table: String,
        /// Access path for the new alias.
        access: Access,
        /// Join method.
        method: JoinMethod,
        /// For hash joins: `(outer expression, inner column)` equality keys.
        hash_keys: Vec<(SqlExpr, String)>,
        /// Predicates evaluated after the join (not covered by access/keys).
        residual: Vec<SqlPredicate>,
        /// Estimated output rows of this join.
        est_rows: f64,
    },
}

impl JoinNode {
    /// The alias introduced by this node.
    pub fn alias(&self) -> &str {
        match self {
            JoinNode::Leaf { alias, .. } | JoinNode::Join { alias, .. } => alias,
        }
    }

    /// Aliases bound by this subtree, outer-to-inner.
    pub fn bound_aliases(&self) -> Vec<String> {
        match self {
            JoinNode::Leaf { alias, .. } => vec![alias.clone()],
            JoinNode::Join { outer, alias, .. } => {
                let mut v = outer.bound_aliases();
                v.push(alias.clone());
                v
            }
        }
    }

    /// Estimated cardinality of the subtree.
    pub fn est_rows(&self) -> f64 {
        match self {
            JoinNode::Leaf { est_rows, .. } | JoinNode::Join { est_rows, .. } => *est_rows,
        }
    }
}

/// A complete physical plan: join tree plus plan tail.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysPlan {
    /// The join tree.
    pub root: JoinNode,
    /// Output expressions.
    pub select: Vec<SelectItem>,
    /// Duplicate elimination over the select list?
    pub distinct: bool,
    /// Ordering of the final result.
    pub order_by: Vec<ColRef>,
    /// The cost the plan won the join enumeration with (arbitrary units,
    /// cumulative over the left-deep spine).
    pub est_cost: f64,
    /// Optimizer's cardinality estimate for the join result.
    pub est_rows: f64,
}

impl PhysPlan {
    /// The chosen join order (alias names, first-accessed first) — the
    /// artifact Figures 10 and 11 visualize.
    pub fn join_order(&self) -> Vec<String> {
        self.root.bound_aliases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_matched_columns() {
        let b = Bounds {
            eq: vec![
                ("name".to_string(), SqlExpr::lit("price")),
                ("kind".to_string(), SqlExpr::lit("ELEM")),
            ],
            range_col: Some("data".to_string()),
            lower: Some((SqlExpr::lit(500i64), false)),
            upper: None,
        };
        assert_eq!(b.matched_columns(), 3);
        assert_eq!(Bounds::default().matched_columns(), 0);
    }

    #[test]
    fn join_node_alias_tracking() {
        let leaf = JoinNode::Leaf {
            alias: "d1".into(),
            table: "doc".into(),
            access: Access::TableScan { preds: vec![] },
            est_rows: 10.0,
        };
        let join = JoinNode::Join {
            outer: Box::new(leaf),
            alias: "d2".into(),
            table: "doc".into(),
            access: Access::IndexScan {
                index: "nksp".into(),
                bounds: Bounds::default(),
                residual: vec![],
            },
            method: JoinMethod::NestedLoop,
            hash_keys: vec![],
            residual: vec![],
            est_rows: 20.0,
        };
        assert_eq!(
            join.bound_aliases(),
            vec!["d1".to_string(), "d2".to_string()]
        );
        assert_eq!(join.alias(), "d2");
        assert_eq!(join.est_rows(), 20.0);
    }

    #[test]
    fn access_labels() {
        let a = Access::TableScan { preds: vec![] };
        assert!(a.label().contains("TBSCAN"));
        let b = Access::IndexScan {
            index: "nkspl".into(),
            bounds: Bounds::default(),
            residual: vec![],
        };
        assert!(b.label().contains("nkspl"));
    }
}
