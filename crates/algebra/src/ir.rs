//! The table algebra of Table I as a DAG intermediate representation.
//!
//! Operators consume and produce *tables* (duplicate elimination is explicit
//! via `δ`), and plans are DAGs: the `doc` encoding table and the `loop`
//! relation are shared sub-plans.  The compiler (`xqjg-compiler`) builds
//! these DAGs; the rewriter (`xqjg-core`) transforms them; the evaluator
//! ([`crate::eval`]) executes them directly.

use std::collections::{HashMap, HashSet};
use std::fmt;
use xqjg_store::Value;

/// A scalar expression usable inside predicates: a column, a constant, or a
/// sum (the axis predicates of Fig. 3 need `pre + size`, `level + 1`).
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// Column reference.
    Col(String),
    /// Constant value.
    Const(Value),
    /// Sum of two scalars.
    Add(Box<Scalar>, Box<Scalar>),
}

impl std::ops::Add for Scalar {
    type Output = Scalar;

    fn add(self, other: Scalar) -> Scalar {
        Scalar::Add(Box::new(self), Box::new(other))
    }
}

impl Scalar {
    /// Column reference helper.
    pub fn col(name: impl Into<String>) -> Scalar {
        Scalar::Col(name.into())
    }

    /// Constant helper.
    pub fn cnst(v: impl Into<Value>) -> Scalar {
        Scalar::Const(v.into())
    }

    /// Columns mentioned by this scalar.
    pub fn cols(&self, out: &mut HashSet<String>) {
        match self {
            Scalar::Col(c) => {
                out.insert(c.clone());
            }
            Scalar::Const(_) => {}
            Scalar::Add(a, b) => {
                a.cols(out);
                b.cols(out);
            }
        }
    }

    /// Rename every column reference using the mapping (old name → new name).
    pub fn rename(&self, mapping: &HashMap<String, String>) -> Scalar {
        match self {
            Scalar::Col(c) => Scalar::Col(mapping.get(c).cloned().unwrap_or_else(|| c.clone())),
            Scalar::Const(v) => Scalar::Const(v.clone()),
            Scalar::Add(a, b) => {
                Scalar::Add(Box::new(a.rename(mapping)), Box::new(b.rename(mapping)))
            }
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Col(c) => write!(f, "{c}"),
            Scalar::Const(v) => write!(f, "{v}"),
            Scalar::Add(a, b) => write!(f, "{a} + {b}"),
        }
    }
}

/// Comparison operators of the XQuery general comparisons (and the axis
/// range predicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
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

impl CmpOp {
    /// SQL / display form.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The comparison with the operand sides swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    /// Apply the comparison to an ordering result.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Parse from the surface syntax.
    pub fn from_symbol(s: &str) -> Option<CmpOp> {
        Some(match s {
            "=" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// A single comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Left operand.
    pub lhs: Scalar,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Scalar,
}

impl Comparison {
    /// Build a comparison.
    pub fn new(lhs: Scalar, op: CmpOp, rhs: Scalar) -> Self {
        Comparison { lhs, op, rhs }
    }

    /// `col = const` helper.
    pub fn col_eq_const(col: impl Into<String>, v: impl Into<Value>) -> Self {
        Comparison::new(Scalar::col(col), CmpOp::Eq, Scalar::cnst(v))
    }

    /// `a = b` between two columns.
    pub fn col_eq_col(a: impl Into<String>, b: impl Into<String>) -> Self {
        Comparison::new(Scalar::col(a), CmpOp::Eq, Scalar::col(b))
    }

    /// Columns used by the comparison.
    pub fn cols(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.lhs.cols(&mut out);
        self.rhs.cols(&mut out);
        out
    }

    /// If this is a plain `column = column` equality, return the pair.
    pub fn as_col_eq_col(&self) -> Option<(&str, &str)> {
        match (&self.lhs, self.op, &self.rhs) {
            (Scalar::Col(a), CmpOp::Eq, Scalar::Col(b)) => Some((a, b)),
            _ => None,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// A conjunction of comparisons (the only predicate form the compiler
/// emits: the paper's join graphs are connected by *conjunctive* equality
/// and range predicates).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Predicate {
    /// The conjuncts.
    pub conjuncts: Vec<Comparison>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn truth() -> Self {
        Predicate { conjuncts: vec![] }
    }

    /// Single-comparison predicate.
    pub fn single(c: Comparison) -> Self {
        Predicate { conjuncts: vec![c] }
    }

    /// Conjunction of comparisons.
    pub fn all(cs: impl IntoIterator<Item = Comparison>) -> Self {
        Predicate {
            conjuncts: cs.into_iter().collect(),
        }
    }

    /// Columns referenced by the predicate (the paper's `cols(p)`).
    pub fn cols(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        for c in &self.conjuncts {
            out.extend(c.cols());
        }
        out
    }

    /// Conjoin another predicate.
    pub fn and(mut self, other: Predicate) -> Predicate {
        self.conjuncts.extend(other.conjuncts);
        self
    }

    /// Is the predicate a single `a = b` column equality?  (Rules (9)–(11)
    /// of Fig. 5 only fire for such joins.)
    pub fn as_single_col_eq(&self) -> Option<(&str, &str)> {
        if self.conjuncts.len() == 1 {
            self.conjuncts[0].as_col_eq_col()
        } else {
            None
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjuncts.is_empty() {
            return write!(f, "true");
        }
        let parts: Vec<String> = self.conjuncts.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

/// Identifier of an operator inside a [`Plan`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The operators of Table I.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Serialization point (plan root, `■` in the paper).
    Serialize {
        /// The plan producing the result encoding.
        input: OpId,
    },
    /// `π a1:b1,…,an:bn` — projection with renaming: `(new, old)` pairs.
    Project {
        /// Input plan.
        input: OpId,
        /// `(new_name, source_name)` pairs, in output order.
        cols: Vec<(String, String)>,
    },
    /// `σ p` — selection.
    Select {
        /// Input plan.
        input: OpId,
        /// Filter predicate.
        pred: Predicate,
    },
    /// `⋈ p` — join.
    Join {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
        /// Join predicate (conjunctive).
        pred: Predicate,
    },
    /// `×` — Cartesian product.
    Cross {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
    },
    /// `δ` — duplicate elimination.
    Distinct {
        /// Input plan.
        input: OpId,
    },
    /// `@ a:c` — attach a constant column.
    Attach {
        /// Input plan.
        input: OpId,
        /// New column name.
        col: String,
        /// Constant value.
        value: Value,
    },
    /// `# a` — attach an arbitrary unique row id.
    RowNum {
        /// Input plan.
        input: OpId,
        /// New column name.
        col: String,
    },
    /// `ϱ a:⟨b1,…,bn⟩` — attach the row rank in the given column order.
    Rank {
        /// Input plan.
        input: OpId,
        /// New column name.
        col: String,
        /// Ranking criteria (most significant first).
        order_by: Vec<String>,
    },
    /// Reference to the XML infoset encoding table `doc`.
    DocTable,
    /// A literal table (e.g. the singleton `loop` relation).
    Literal {
        /// Column names.
        columns: Vec<String>,
        /// Rows.
        rows: Vec<Vec<Value>>,
    },
}

impl OpKind {
    /// Short operator label for rendering.
    pub fn label(&self) -> String {
        match self {
            OpKind::Serialize { .. } => "serialize".to_string(),
            OpKind::Project { cols, .. } => {
                let parts: Vec<String> = cols
                    .iter()
                    .map(|(n, o)| {
                        if n == o {
                            n.clone()
                        } else {
                            format!("{n}:{o}")
                        }
                    })
                    .collect();
                format!("π {}", parts.join(","))
            }
            OpKind::Select { pred, .. } => format!("σ {pred}"),
            OpKind::Join { pred, .. } => format!("⋈ {pred}"),
            OpKind::Cross { .. } => "×".to_string(),
            OpKind::Distinct { .. } => "δ".to_string(),
            OpKind::Attach { col, value, .. } => format!("@ {col}:{value}"),
            OpKind::RowNum { col, .. } => format!("# {col}"),
            OpKind::Rank { col, order_by, .. } => format!("ϱ {col}:⟨{}⟩", order_by.join(",")),
            OpKind::DocTable => "doc".to_string(),
            OpKind::Literal { columns, rows } => {
                format!("lit ({}) [{} rows]", columns.join(","), rows.len())
            }
        }
    }

    /// Children of this operator.
    pub fn children(&self) -> Vec<OpId> {
        match self {
            OpKind::Serialize { input }
            | OpKind::Project { input, .. }
            | OpKind::Select { input, .. }
            | OpKind::Distinct { input }
            | OpKind::Attach { input, .. }
            | OpKind::RowNum { input, .. }
            | OpKind::Rank { input, .. } => vec![*input],
            OpKind::Join { left, right, .. } | OpKind::Cross { left, right } => {
                vec![*left, *right]
            }
            OpKind::DocTable | OpKind::Literal { .. } => vec![],
        }
    }

    /// Rewrite every child reference through the given mapping.
    pub fn map_children(&mut self, f: impl Fn(OpId) -> OpId) {
        match self {
            OpKind::Serialize { input }
            | OpKind::Project { input, .. }
            | OpKind::Select { input, .. }
            | OpKind::Distinct { input }
            | OpKind::Attach { input, .. }
            | OpKind::RowNum { input, .. }
            | OpKind::Rank { input, .. } => *input = f(*input),
            OpKind::Join { left, right, .. } | OpKind::Cross { left, right } => {
                *left = f(*left);
                *right = f(*right);
            }
            OpKind::DocTable | OpKind::Literal { .. } => {}
        }
    }

    /// Replace every child reference equal to `from` with `to`.
    pub fn replace_child(&mut self, from: OpId, to: OpId) {
        let patch = |id: &mut OpId| {
            if *id == from {
                *id = to;
            }
        };
        match self {
            OpKind::Serialize { input }
            | OpKind::Project { input, .. }
            | OpKind::Select { input, .. }
            | OpKind::Distinct { input }
            | OpKind::Attach { input, .. }
            | OpKind::RowNum { input, .. }
            | OpKind::Rank { input, .. } => patch(input),
            OpKind::Join { left, right, .. } | OpKind::Cross { left, right } => {
                patch(left);
                patch(right);
            }
            OpKind::DocTable | OpKind::Literal { .. } => {}
        }
    }
}

/// Column names of the `doc` relation (Fig. 2).
pub const DOC_COLUMNS: [&str; 7] = ["pre", "size", "level", "kind", "name", "value", "data"];

/// An algebraic plan: an operator arena with a designated root.
#[derive(Debug, Clone)]
pub struct Plan {
    ops: Vec<OpKind>,
    root: OpId,
}

impl Plan {
    /// Create an empty plan whose root will be set later.
    pub fn new() -> Self {
        Plan {
            ops: Vec::new(),
            root: OpId(0),
        }
    }

    /// Add an operator, returning its id.
    pub fn add(&mut self, op: OpKind) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push(op);
        id
    }

    /// Set the plan root.
    pub fn set_root(&mut self, root: OpId) {
        self.root = root;
    }

    /// The plan root.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// Number of operators in the arena (including unreachable ones left
    /// behind by rewrites).
    pub fn arena_len(&self) -> usize {
        self.ops.len()
    }

    /// Access an operator.
    pub fn op(&self, id: OpId) -> &OpKind {
        &self.ops[id.0]
    }

    /// Mutable access to an operator.
    pub fn op_mut(&mut self, id: OpId) -> &mut OpKind {
        &mut self.ops[id.0]
    }

    /// All operator ids reachable from the root.
    pub fn reachable(&self) -> Vec<OpId> {
        let mut seen = vec![false; self.ops.len()];
        let mut stack = vec![self.root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0], true) {
                continue;
            }
            out.push(id);
            stack.extend(self.op(id).children());
        }
        out
    }

    /// Number of operators reachable from the root.
    pub fn size(&self) -> usize {
        self.reachable().len()
    }

    /// Count reachable operators satisfying a predicate on their kind.
    pub fn count_ops(&self, mut f: impl FnMut(&OpKind) -> bool) -> usize {
        self.reachable()
            .iter()
            .filter(|id| f(self.op(**id)))
            .count()
    }

    /// Parents of each reachable node.
    pub fn parents(&self) -> HashMap<OpId, Vec<OpId>> {
        let mut map: HashMap<OpId, Vec<OpId>> = HashMap::new();
        for id in self.reachable() {
            for c in self.op(id).children() {
                map.entry(c).or_default().push(id);
            }
        }
        map
    }

    /// Is `target` reachable from `from` (the paper's `⇛` relation)?
    pub fn reaches(&self, from: OpId, target: OpId) -> bool {
        if from == target {
            return true;
        }
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            for c in self.op(id).children() {
                if c == target {
                    return true;
                }
                stack.push(c);
            }
        }
        false
    }

    /// Topological order of the reachable sub-DAG (children before parents).
    pub fn topo_order(&self) -> Vec<OpId> {
        let mut visited = vec![false; self.ops.len()];
        let mut out = Vec::new();
        fn visit(plan: &Plan, id: OpId, visited: &mut [bool], out: &mut Vec<OpId>) {
            if std::mem::replace(&mut visited[id.0], true) {
                return;
            }
            for c in plan.op(id).children() {
                visit(plan, c, visited, out);
            }
            out.push(id);
        }
        visit(self, self.root, &mut visited, &mut out);
        out
    }

    /// Output columns of the sub-plan rooted at `id` (the paper's
    /// `cols(e)`).
    pub fn output_cols(&self, id: OpId) -> Vec<String> {
        match self.op(id) {
            OpKind::Serialize { input } => self.output_cols(*input),
            OpKind::Project { cols, .. } => cols.iter().map(|(n, _)| n.clone()).collect(),
            OpKind::Select { input, .. } | OpKind::Distinct { input } => self.output_cols(*input),
            OpKind::Join { left, right, .. } | OpKind::Cross { left, right } => {
                let mut cols = self.output_cols(*left);
                for c in self.output_cols(*right) {
                    assert!(
                        !cols.contains(&c),
                        "join/cross with overlapping column {c:?}: the compiler must rename"
                    );
                    cols.push(c);
                }
                cols
            }
            OpKind::Attach { input, col, .. }
            | OpKind::RowNum { input, col }
            | OpKind::Rank { input, col, .. } => {
                let mut cols = self.output_cols(*input);
                cols.push(col.clone());
                cols
            }
            OpKind::DocTable => DOC_COLUMNS.iter().map(|s| s.to_string()).collect(),
            OpKind::Literal { columns, .. } => columns.clone(),
        }
    }

    /// Drop unreachable operators, renumbering ids (used after rewriting to
    /// keep rendering and statistics honest).
    pub fn garbage_collect(&mut self) {
        let reachable = {
            let mut order = self.topo_order();
            order.sort();
            order
        };
        let mut remap: HashMap<OpId, OpId> = HashMap::new();
        let mut new_ops = Vec::with_capacity(reachable.len());
        for (new_idx, old_id) in reachable.iter().enumerate() {
            remap.insert(*old_id, OpId(new_idx));
            new_ops.push(self.ops[old_id.0].clone());
        }
        for op in &mut new_ops {
            op.map_children(|child| remap[&child]);
        }
        self.root = remap[&self.root];
        self.ops = new_ops;
    }
}

impl Default for Plan {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan() -> (Plan, OpId, OpId, OpId) {
        // serialize(π_item:pre(σ_kind=ELEM(doc)))
        let mut p = Plan::new();
        let doc = p.add(OpKind::DocTable);
        let sel = p.add(OpKind::Select {
            input: doc,
            pred: Predicate::single(Comparison::col_eq_const("kind", "ELEM")),
        });
        let proj = p.add(OpKind::Project {
            input: sel,
            cols: vec![("item".to_string(), "pre".to_string())],
        });
        let root = p.add(OpKind::Serialize { input: proj });
        p.set_root(root);
        (p, doc, sel, proj)
    }

    #[test]
    fn schema_inference() {
        let (p, doc, sel, proj) = small_plan();
        assert_eq!(p.output_cols(doc).len(), 7);
        assert_eq!(p.output_cols(sel).len(), 7);
        assert_eq!(p.output_cols(proj), vec!["item".to_string()]);
    }

    #[test]
    fn reachability_and_size() {
        let (p, doc, _, proj) = small_plan();
        assert_eq!(p.size(), 4);
        assert!(p.reaches(p.root(), doc));
        assert!(p.reaches(proj, doc));
        assert!(!p.reaches(doc, proj));
    }

    #[test]
    fn topo_order_children_first() {
        let (p, doc, sel, _) = small_plan();
        let order = p.topo_order();
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(doc) < pos(sel));
        assert_eq!(*order.last().unwrap(), p.root());
    }

    #[test]
    fn replace_child_rewires() {
        let (mut p, doc, sel, _) = small_plan();
        let doc2 = p.add(OpKind::DocTable);
        p.op_mut(sel).replace_child(doc, doc2);
        assert_eq!(p.op(sel).children(), vec![doc2]);
    }

    #[test]
    fn garbage_collect_drops_unreachable() {
        let (mut p, _, _, _) = small_plan();
        // Add garbage.
        p.add(OpKind::DocTable);
        p.add(OpKind::DocTable);
        assert_eq!(p.arena_len(), 6);
        p.garbage_collect();
        assert_eq!(p.arena_len(), 4);
        assert_eq!(p.size(), 4);
        // Still well-formed.
        assert_eq!(p.output_cols(p.root()), vec!["item".to_string()]);
    }

    #[test]
    fn predicate_cols_and_display() {
        let pred = Predicate::all([
            Comparison::new(
                Scalar::col("pre0") + Scalar::cnst(0i64),
                CmpOp::Lt,
                Scalar::col("pre"),
            ),
            Comparison::new(
                Scalar::col("pre"),
                CmpOp::Le,
                Scalar::col("pre0") + Scalar::col("size0"),
            ),
        ]);
        let cols = pred.cols();
        assert!(cols.contains("pre0") && cols.contains("pre") && cols.contains("size0"));
        assert!(pred.to_string().contains("∧"));
        assert_eq!(Predicate::truth().to_string(), "true");
    }

    #[test]
    fn cmp_op_behaviour() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Le.eval(Equal));
        assert!(!CmpOp::Lt.eval(Equal));
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::from_symbol("<="), Some(CmpOp::Le));
        assert_eq!(CmpOp::from_symbol("=="), None);
    }

    #[test]
    fn single_col_eq_detection() {
        let p = Predicate::single(Comparison::col_eq_col("iter", "inner"));
        assert_eq!(p.as_single_col_eq(), Some(("iter", "inner")));
        let p2 = Predicate::single(Comparison::col_eq_const("iter", 1i64));
        assert_eq!(p2.as_single_col_eq(), None);
    }

    #[test]
    #[should_panic(expected = "overlapping column")]
    fn join_with_overlapping_columns_panics() {
        let mut p = Plan::new();
        let a = p.add(OpKind::DocTable);
        let b = p.add(OpKind::DocTable);
        let j = p.add(OpKind::Join {
            left: a,
            right: b,
            pred: Predicate::truth(),
        });
        p.set_root(j);
        let _ = p.output_cols(j);
    }

    #[test]
    fn scalar_rename() {
        let mut mapping = HashMap::new();
        mapping.insert("a".to_string(), "x".to_string());
        let s = Scalar::col("a") + Scalar::col("b");
        let r = s.rename(&mapping);
        let mut cols = HashSet::new();
        r.cols(&mut cols);
        assert!(cols.contains("x") && cols.contains("b") && !cols.contains("a"));
    }
}
