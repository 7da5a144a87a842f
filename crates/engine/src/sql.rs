//! The SQL subset the join-graph-isolating compiler emits.
//!
//! A query is a single `SELECT [DISTINCT] … FROM … WHERE … ORDER BY …`
//! block over base-table aliases — no grouping, no aggregation, no nesting
//! (Section III-C / Fig. 8).  This module defines the AST plus a printer and
//! a parser for exactly this subset, so the XQuery front half and the
//! relational back half communicate through ordinary SQL text, as in the
//! paper's setup.

use std::collections::HashSet;
use std::fmt;
use xqjg_store::Value;

/// A column reference `alias.column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Table alias.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Build a column reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef {
            table: table.into(),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// A scalar SQL expression (column, literal, or sum).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference.
    Col(ColRef),
    /// Literal value.
    Lit(Value),
    /// `a + b`
    Add(Box<SqlExpr>, Box<SqlExpr>),
}

impl std::ops::Add for SqlExpr {
    type Output = SqlExpr;

    fn add(self, other: SqlExpr) -> Self {
        SqlExpr::Add(Box::new(self), Box::new(other))
    }
}

impl SqlExpr {
    /// Column expression helper.
    pub fn col(table: impl Into<String>, column: impl Into<String>) -> Self {
        SqlExpr::Col(ColRef::new(table, column))
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Self {
        SqlExpr::Lit(v.into())
    }

    /// Table aliases referenced by the expression.
    pub fn tables(&self, out: &mut HashSet<String>) {
        self.for_each_table(&mut |t| {
            out.insert(t.to_string());
        });
    }

    /// Call `f` with the table alias of every column reference, left to
    /// right (repeats included) — the allocation-free form of
    /// [`SqlExpr::tables`].
    pub(crate) fn for_each_table(&self, f: &mut dyn FnMut(&str)) {
        match self {
            SqlExpr::Col(c) => f(&c.table),
            SqlExpr::Lit(_) => {}
            SqlExpr::Add(a, b) => {
                a.for_each_table(f);
                b.for_each_table(f);
            }
        }
    }

    /// Does the expression reference a column of `alias`?
    pub(crate) fn mentions(&self, alias: &str) -> bool {
        let mut found = false;
        self.for_each_table(&mut |t| found |= t == alias);
        found
    }

    /// If the expression is a bare column of the given alias, return the
    /// column name.
    pub fn as_column_of(&self, alias: &str) -> Option<&str> {
        match self {
            SqlExpr::Col(c) if c.table == alias => Some(&c.column),
            _ => None,
        }
    }
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Col(c) => write!(f, "{c}"),
            SqlExpr::Lit(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            SqlExpr::Lit(v) => write!(f, "{v}"),
            SqlExpr::Add(a, b) => write!(f, "{a} + {b}"),
        }
    }
}

/// SQL comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlCmp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl SqlCmp {
    /// SQL syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            SqlCmp::Eq => "=",
            SqlCmp::Ne => "<>",
            SqlCmp::Lt => "<",
            SqlCmp::Le => "<=",
            SqlCmp::Gt => ">",
            SqlCmp::Ge => ">=",
        }
    }

    /// Operator with operand sides swapped.
    pub fn flip(self) -> SqlCmp {
        match self {
            SqlCmp::Lt => SqlCmp::Gt,
            SqlCmp::Le => SqlCmp::Ge,
            SqlCmp::Gt => SqlCmp::Lt,
            SqlCmp::Ge => SqlCmp::Le,
            other => other,
        }
    }

    /// Evaluate against an ordering.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            SqlCmp::Eq => ord == Equal,
            SqlCmp::Ne => ord != Equal,
            SqlCmp::Lt => ord == Less,
            SqlCmp::Le => ord != Greater,
            SqlCmp::Gt => ord == Greater,
            SqlCmp::Ge => ord != Less,
        }
    }
}

/// One conjunct of the `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlPredicate {
    /// Left operand.
    pub lhs: SqlExpr,
    /// Operator.
    pub op: SqlCmp,
    /// Right operand.
    pub rhs: SqlExpr,
}

impl SqlPredicate {
    /// Build a predicate.
    pub fn new(lhs: SqlExpr, op: SqlCmp, rhs: SqlExpr) -> Self {
        SqlPredicate { lhs, op, rhs }
    }

    /// Aliases referenced by the predicate.
    pub fn tables(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.lhs.tables(&mut out);
        self.rhs.tables(&mut out);
        out
    }
}

impl fmt::Display for SqlPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// An item of the `SELECT` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `alias.*`
    Star(String),
    /// `expr AS name`
    Expr {
        /// The selected expression.
        expr: SqlExpr,
        /// Output column name.
        alias: String,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias } => write!(f, "{expr} AS {alias}"),
        }
    }
}

/// A table reference in the `FROM` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem {
    /// Base table name.
    pub table: String,
    /// Alias.
    pub alias: String,
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} AS {}", self.table, self.alias)
    }
}

/// An `ORDER BY` item (always ascending in this workload).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderItem {
    /// The ordering column.
    pub col: ColRef,
}

/// A single `SELECT [DISTINCT] … FROM … WHERE … ORDER BY …` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SfwQuery {
    /// `DISTINCT`?
    pub distinct: bool,
    /// Select list.
    pub select: Vec<SelectItem>,
    /// From list.
    pub from: Vec<FromItem>,
    /// Conjunctive where clause.
    pub where_clause: Vec<SqlPredicate>,
    /// Order-by list.
    pub order_by: Vec<OrderItem>,
}

impl SfwQuery {
    /// Render the query as SQL text (the form shipped to the back-end,
    /// cf. Fig. 8 / Fig. 9).
    pub fn to_sql(&self) -> String {
        let mut out = String::from("SELECT ");
        if self.distinct {
            out.push_str("DISTINCT ");
        }
        let select: Vec<String> = self.select.iter().map(|s| s.to_string()).collect();
        out.push_str(&select.join(", "));
        out.push_str("\nFROM ");
        let from: Vec<String> = self.from.iter().map(|s| s.to_string()).collect();
        out.push_str(&from.join(", "));
        if !self.where_clause.is_empty() {
            out.push_str("\nWHERE ");
            let preds: Vec<String> = self.where_clause.iter().map(|p| p.to_string()).collect();
            out.push_str(&preds.join("\n  AND "));
        }
        if !self.order_by.is_empty() {
            out.push_str("\nORDER BY ");
            let order: Vec<String> = self.order_by.iter().map(|o| o.col.to_string()).collect();
            out.push_str(&order.join(", "));
        }
        out
    }

    /// The alias list of the FROM clause.
    pub fn aliases(&self) -> Vec<&str> {
        self.from.iter().map(|f| f.alias.as_str()).collect()
    }

    /// Predicates that only reference the given alias (and constants).
    pub fn local_predicates(&self, alias: &str) -> Vec<&SqlPredicate> {
        self.where_clause
            .iter()
            .filter(|p| {
                let ts = p.tables();
                ts.len() == 1 && ts.contains(alias) || ts.is_empty()
            })
            .collect()
    }

    /// Predicates that reference more than one alias (join predicates).
    pub fn join_predicates(&self) -> Vec<&SqlPredicate> {
        self.where_clause
            .iter()
            .filter(|p| p.tables().len() > 1)
            .collect()
    }
}

impl fmt::Display for SfwQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built rendition of QSQL1 (Fig. 8).
    pub(crate) fn q1_sql() -> SfwQuery {
        let axis = |outer: &str, inner: &str| -> Vec<SqlPredicate> {
            vec![
                SqlPredicate::new(
                    SqlExpr::col(inner, "pre"),
                    SqlCmp::Gt,
                    SqlExpr::col(outer, "pre"),
                ),
                SqlPredicate::new(
                    SqlExpr::col(inner, "pre"),
                    SqlCmp::Le,
                    SqlExpr::col(outer, "pre") + SqlExpr::col(outer, "size"),
                ),
            ]
        };
        let mut where_clause = vec![
            SqlPredicate::new(SqlExpr::col("d1", "kind"), SqlCmp::Eq, SqlExpr::lit("DOC")),
            SqlPredicate::new(
                SqlExpr::col("d1", "name"),
                SqlCmp::Eq,
                SqlExpr::lit("auction.xml"),
            ),
            SqlPredicate::new(SqlExpr::col("d2", "kind"), SqlCmp::Eq, SqlExpr::lit("ELEM")),
            SqlPredicate::new(
                SqlExpr::col("d2", "name"),
                SqlCmp::Eq,
                SqlExpr::lit("open_auction"),
            ),
        ];
        where_clause.extend(axis("d1", "d2"));
        where_clause.push(SqlPredicate::new(
            SqlExpr::col("d3", "kind"),
            SqlCmp::Eq,
            SqlExpr::lit("ELEM"),
        ));
        where_clause.push(SqlPredicate::new(
            SqlExpr::col("d3", "name"),
            SqlCmp::Eq,
            SqlExpr::lit("bidder"),
        ));
        where_clause.extend(axis("d2", "d3"));
        where_clause.push(SqlPredicate::new(
            SqlExpr::col("d2", "level") + SqlExpr::lit(1i64),
            SqlCmp::Eq,
            SqlExpr::col("d3", "level"),
        ));
        SfwQuery {
            distinct: true,
            select: vec![SelectItem::Star("d2".to_string())],
            from: (1..=3)
                .map(|i| FromItem {
                    table: "doc".to_string(),
                    alias: format!("d{i}"),
                })
                .collect(),
            where_clause,
            order_by: vec![OrderItem {
                col: ColRef::new("d2", "pre"),
            }],
        }
    }

    #[test]
    fn prints_fig8_style_sql() {
        let sql = q1_sql().to_sql();
        assert!(sql.starts_with("SELECT DISTINCT d2.*"));
        assert!(sql.contains("FROM doc AS d1, doc AS d2, doc AS d3"));
        assert!(sql.contains("d1.kind = 'DOC'"));
        assert!(sql.contains("d2.pre + d2.size"));
        assert!(sql.trim_end().ends_with("ORDER BY d2.pre"));
    }

    #[test]
    fn local_and_join_predicates_are_split() {
        let q = q1_sql();
        assert_eq!(q.local_predicates("d1").len(), 2);
        assert_eq!(q.local_predicates("d2").len(), 2);
        // 2 axis conjuncts per step + level conjunct = 5 join predicates.
        assert_eq!(q.join_predicates().len(), 5);
        assert_eq!(q.aliases(), vec!["d1", "d2", "d3"]);
    }

    #[test]
    fn expr_helpers() {
        let e = SqlExpr::col("d1", "pre") + SqlExpr::lit(1i64);
        let mut ts = HashSet::new();
        e.tables(&mut ts);
        assert!(ts.contains("d1"));
        assert_eq!(SqlExpr::col("d1", "pre").as_column_of("d1"), Some("pre"));
        assert_eq!(SqlExpr::col("d1", "pre").as_column_of("d2"), None);
        assert_eq!(e.to_string(), "d1.pre + 1");
        assert_eq!(SqlExpr::lit("o'hara").to_string(), "'o''hara'");
    }

    #[test]
    fn cmp_flip_and_eval() {
        use std::cmp::Ordering::*;
        assert_eq!(SqlCmp::Lt.flip(), SqlCmp::Gt);
        assert!(SqlCmp::Ge.eval(Equal));
        assert!(!SqlCmp::Ne.eval(Equal));
    }
}
