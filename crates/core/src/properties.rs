//! Plan property inference (Tables II–V).
//!
//! The peephole rewriting of Fig. 5 decides rule applicability by inspecting
//! these properties of each operator:
//!
//! * `icols` — columns required upstream (top-down, seeded `{pos, item}` at
//!   the serialization point, accumulated over all parents),
//! * `const` — columns known to hold a constant value (bottom-up; the rules
//!   only ask *whether* a column is constant, so the values are not kept),
//! * `set`   — whether the output is subject to duplicate elimination
//!   further up the plan (top-down, `false` only at the root).
//!
//! Table IV's fourth property, `key`, feeds rules 8–11 (moving the one
//! surviving `δ` and removing the FOR/IF equi-joins); this code realizes
//! those goals during join graph extraction in [`crate::sfw`], which needs
//! no key inference, so none is computed here.
//!
//! Each inference numbers the plan's column names once (a compiled plan
//! has a few dozen at most), records every operator's output columns
//! (`cols(e)`) as numbers, bottom-up, and keeps `icols` and `const` as
//! bitsets over those numbers.

use std::collections::HashMap;
use xqjg_algebra::{OpId, OpKind, Plan, DOC_COLUMNS};

/// Inferred properties for every reachable operator, indexed by operator
/// id (unreachable arena slots hold empty defaults).
#[derive(Debug, Clone)]
pub struct Properties {
    /// Column name → its number.
    numbers: HashMap<String, usize>,
    /// Column number → its name.
    names: Vec<String>,
    cols: Vec<Vec<usize>>,
    icols: Vec<ColSet>,
    consts: Vec<ColSet>,
    set: Vec<bool>,
}

/// A set of column numbers.
#[derive(Debug, Clone, Default)]
struct ColSet(Vec<u64>);

impl ColSet {
    fn insert(&mut self, c: usize) {
        if self.0.len() <= c / 64 {
            self.0.resize(c / 64 + 1, 0);
        }
        self.0[c / 64] |= 1 << (c % 64);
    }

    fn remove(&mut self, c: usize) {
        if let Some(word) = self.0.get_mut(c / 64) {
            *word &= !(1 << (c % 64));
        }
    }

    fn contains(&self, c: usize) -> bool {
        self.0
            .get(c / 64)
            .is_some_and(|word| word >> (c % 64) & 1 == 1)
    }

    fn union_with(&mut self, other: &ColSet) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    /// The members of `self` among `cols`.
    fn within(&self, cols: &[usize]) -> ColSet {
        let mut out = ColSet::default();
        for &c in cols.iter().filter(|&&c| self.contains(c)) {
            out.insert(c);
        }
        out
    }
}

impl Properties {
    /// Infer the properties for the reachable part of the plan.
    pub fn infer(plan: &Plan) -> Properties {
        let topo = plan.topo_order();
        let n = plan.arena_len();
        let mut props = Properties {
            numbers: HashMap::new(),
            names: Vec::new(),
            cols: vec![Vec::new(); n],
            icols: vec![ColSet::default(); n],
            consts: vec![ColSet::default(); n],
            set: vec![true; n],
        };

        // Bottom-up: output columns and const.
        for &id in &topo {
            props.cols[id.0] = props.output_cols(plan.op(id));
            props.consts[id.0] = props.infer_const(plan.op(id));
        }

        // Top-down: icols and set (walk in reverse topological order).
        let root = plan.root().0;
        let mut seed = ColSet::default();
        props.insert_names(&mut seed, ["pos", "item"]);
        props.icols[root] = seed;
        props.set[root] = false;
        for &id in topo.iter().rev() {
            for (child, child_icols, child_set) in props.infer_top_down(plan.op(id), id) {
                props.icols[child.0].union_with(&child_icols);
                props.set[child.0] &= child_set;
            }
        }
        props
    }

    /// The output columns of an operator (`cols(e)`).
    pub fn cols_of(&self, id: OpId) -> impl Iterator<Item = &str> {
        self.cols[id.0].iter().map(|&c| self.names[c].as_str())
    }

    /// Is `col` in the `icols` of an operator?
    pub fn needs(&self, id: OpId, col: &str) -> bool {
        self.number(col)
            .is_some_and(|c| self.icols[id.0].contains(c))
    }

    /// Is `col` constant in the output of an operator?
    pub fn is_const(&self, id: OpId, col: &str) -> bool {
        self.number(col)
            .is_some_and(|c| self.consts[id.0].contains(c))
    }

    /// The `set` property of an operator.
    pub fn set_of(&self, id: OpId) -> bool {
        self.set[id.0]
    }

    fn number(&self, name: &str) -> Option<usize> {
        self.numbers.get(name).copied()
    }

    /// The number of an output column name, numbering it if it is new.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(c) = self.number(name) {
            return c;
        }
        self.names.push(name.to_string());
        self.numbers.insert(name.to_string(), self.names.len() - 1);
        self.names.len() - 1
    }

    /// The output columns of one operator from those of its children — one
    /// level of [`Plan::output_cols`].
    fn output_cols(&mut self, op: &OpKind) -> Vec<usize> {
        match op {
            OpKind::Serialize { input }
            | OpKind::Select { input, .. }
            | OpKind::Distinct { input } => self.cols[input.0].clone(),
            OpKind::Project { cols, .. } => cols.iter().map(|(new, _)| self.intern(new)).collect(),
            OpKind::Join { left, right, .. } | OpKind::Cross { left, right } => {
                let mut out = self.cols[left.0].clone();
                out.extend_from_slice(&self.cols[right.0]);
                out
            }
            OpKind::Attach { input, col, .. }
            | OpKind::RowNum { input, col }
            | OpKind::Rank { input, col, .. } => {
                let mut out = self.cols[input.0].clone();
                out.push(self.intern(col));
                out
            }
            OpKind::DocTable => DOC_COLUMNS.iter().map(|c| self.intern(c)).collect(),
            OpKind::Literal { columns, .. } => columns.iter().map(|c| self.intern(c)).collect(),
        }
    }

    /// Bottom-up inference of `const` for a single operator (its output
    /// columns are numbered already).
    fn infer_const(&self, op: &OpKind) -> ColSet {
        let mut out = ColSet::default();
        match op {
            OpKind::DocTable => {}
            OpKind::Literal { columns, rows } => {
                if rows.len() == 1 {
                    self.insert_names(&mut out, columns);
                }
            }
            OpKind::Serialize { input }
            | OpKind::Select { input, .. }
            | OpKind::Distinct { input }
            | OpKind::RowNum { input, .. }
            | OpKind::Rank { input, .. } => out = self.consts[input.0].clone(),
            OpKind::Project { input, cols } => {
                for (new, old) in cols {
                    if self.is_const(*input, old) {
                        out.insert(self.numbers[new]);
                    }
                }
            }
            OpKind::Attach { input, col, .. } => {
                out = self.consts[input.0].clone();
                out.insert(self.numbers[col]);
            }
            OpKind::Join { left, right, .. } | OpKind::Cross { left, right } => {
                out = self.consts[left.0].clone();
                out.union_with(&self.consts[right.0]);
            }
        }
        out
    }

    /// Insert the numbers of `names` into `set`; names no operator outputs
    /// cannot be needed from a child and are skipped.
    fn insert_names<S: AsRef<str>>(&self, set: &mut ColSet, names: impl IntoIterator<Item = S>) {
        for c in names.into_iter().filter_map(|n| self.number(n.as_ref())) {
            set.insert(c);
        }
    }

    /// Top-down contributions `(child, icols, set)` of operator `id` to its
    /// children.
    fn infer_top_down(&self, op: &OpKind, id: OpId) -> Vec<(OpId, ColSet, bool)> {
        let icols = &self.icols[id.0];
        let set = self.set[id.0];
        match op {
            OpKind::Serialize { input } => {
                // The serialization point needs the sequence encoding columns.
                let mut need = icols.clone();
                self.insert_names(&mut need, ["pos", "item"]);
                vec![(*input, need.within(&self.cols[input.0]), false)]
            }
            OpKind::Project { input, cols } => {
                let mut need = ColSet::default();
                let olds = cols.iter().filter(|(new, _)| self.needs(id, new));
                self.insert_names(&mut need, olds.map(|(_, old)| old));
                vec![(*input, need, set)]
            }
            OpKind::Select { input, pred } => {
                let mut need = icols.clone();
                self.insert_names(&mut need, pred.cols());
                vec![(*input, need, set)]
            }
            OpKind::Join { left, right, pred } => {
                let mut need = icols.clone();
                self.insert_names(&mut need, pred.cols());
                vec![
                    (*left, need.within(&self.cols[left.0]), set),
                    (*right, need.within(&self.cols[right.0]), set),
                ]
            }
            OpKind::Cross { left, right } => vec![
                (*left, icols.within(&self.cols[left.0]), set),
                (*right, icols.within(&self.cols[right.0]), set),
            ],
            OpKind::Distinct { input } => vec![(*input, icols.clone(), true)],
            OpKind::Attach { input, col, .. } | OpKind::RowNum { input, col } => {
                let mut need = icols.clone();
                need.remove(self.numbers[col]);
                vec![(*input, need, set)]
            }
            OpKind::Rank {
                input,
                col,
                order_by,
            } => {
                let mut need = icols.clone();
                need.remove(self.numbers[col]);
                self.insert_names(&mut need, order_by);
                vec![(*input, need, set)]
            }
            OpKind::DocTable | OpKind::Literal { .. } => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqjg_algebra::{Comparison, Predicate};
    use xqjg_store::Value;

    /// serialize(π_pos,item(ϱ_pos:⟨item⟩(δ(π_iter,item(σ_kind=ELEM(doc))))))
    fn ddo_plan() -> Plan {
        let mut p = Plan::new();
        let doc = p.add(OpKind::DocTable);
        let sel = p.add(OpKind::Select {
            input: doc,
            pred: Predicate::single(Comparison::col_eq_const("kind", "ELEM")),
        });
        let proj = p.add(OpKind::Project {
            input: sel,
            cols: vec![
                ("iter".to_string(), "level".to_string()),
                ("item".to_string(), "pre".to_string()),
            ],
        });
        let dis = p.add(OpKind::Distinct { input: proj });
        let rank = p.add(OpKind::Rank {
            input: dis,
            col: "pos".to_string(),
            order_by: vec!["item".to_string()],
        });
        let root = p.add(OpKind::Serialize { input: rank });
        p.set_root(root);
        p
    }

    #[test]
    fn icols_seeded_and_propagated() {
        let p = ddo_plan();
        let props = Properties::infer(&p);
        // The rank's input needs item (for ordering and output) but not pos.
        let dis = OpId(3);
        assert!(props.needs(dis, "item"));
        assert!(!props.needs(dis, "pos"));
        // The doc leaf must supply pre (item source) and kind (selection
        // predicate) — but not level (iter is never required upstream) nor
        // value.
        let doc = OpId(0);
        assert!(props.needs(doc, "pre"));
        assert!(props.needs(doc, "kind"));
        assert!(!props.needs(doc, "level"));
        assert!(!props.needs(doc, "value"));
    }

    #[test]
    fn set_true_below_distinct_false_above() {
        let p = ddo_plan();
        let props = Properties::infer(&p);
        // Below the δ: duplicates are eliminated upstream.
        assert!(props.set_of(OpId(2)));
        assert!(props.set_of(OpId(0)));
        // The δ itself and the rank above feed the root without another δ.
        assert!(!props.set_of(OpId(3)));
        assert!(!props.set_of(OpId(4)));
    }

    #[test]
    fn consts_from_attach_and_literal() {
        let mut p = Plan::new();
        let lit = p.add(OpKind::Literal {
            columns: vec!["iter".to_string()],
            rows: vec![vec![Value::Int(1)]],
        });
        let att = p.add(OpKind::Attach {
            input: lit,
            col: "pos".to_string(),
            value: Value::Int(1),
        });
        let root = p.add(OpKind::Serialize { input: att });
        p.set_root(root);
        let props = Properties::infer(&p);
        assert!(props.is_const(lit, "iter"));
        assert!(props.is_const(att, "iter"));
        assert!(props.is_const(att, "pos"));
        assert!(!props.is_const(att, "item"));
    }

    #[test]
    fn cols_match_the_recursive_schema() {
        let p = ddo_plan();
        let props = Properties::infer(&p);
        for id in p.topo_order() {
            assert!(props
                .cols_of(id)
                .eq(p.output_cols(id).iter().map(String::as_str)));
        }
    }
}
