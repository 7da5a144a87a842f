//! XPath axes, node tests and their relational predicates (Fig. 3).
//!
//! Each axis maps to a conjunctive range predicate over the columns
//! `pre`, `size`, `level` of the context node (written `pre◦`, `size◦`,
//! `level◦` in the paper) and the candidate node.  Kind and name tests map
//! to equality predicates over `kind` and `name`.
//!
//! Besides the predicate *descriptions* (used by the compiler to build join
//! predicates), this module provides a naive direct evaluation
//! ([`step`]) over a [`DocTable`]; it is the semantics oracle the rest of
//! the system is tested against.

use crate::encoding::{DocTable, NodeKind, NodeRow, Pre};

/// The 12 XPath axes of the full axis feature, plus `attribute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `following::`
    Following,
    /// `preceding::`
    Preceding,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `self::`
    SelfAxis,
    /// `attribute::`
    Attribute,
}

impl Axis {
    /// All axes, useful for exhaustive tests.
    pub const ALL: [Axis; 12] = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::SelfAxis,
        Axis::Attribute,
    ];

    /// XPath surface syntax of the axis.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
        }
    }

    /// Parse an axis from its surface name.
    pub fn from_name(name: &str) -> Option<Axis> {
        Axis::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The dual axis obtained by swapping the roles of context node and
    /// result node — the basis of the "axis reversal" the optimizer performs
    /// (Section IV-A: `descendant` ↔ `ancestor`, `child` ↔ `parent`, …).
    pub fn dual(self) -> Axis {
        match self {
            Axis::Child => Axis::Parent,
            Axis::Parent => Axis::Child,
            Axis::Descendant => Axis::Ancestor,
            Axis::Ancestor => Axis::Descendant,
            Axis::DescendantOrSelf => Axis::AncestorOrSelf,
            Axis::AncestorOrSelf => Axis::DescendantOrSelf,
            Axis::Following => Axis::Preceding,
            Axis::Preceding => Axis::Following,
            Axis::FollowingSibling => Axis::PrecedingSibling,
            Axis::PrecedingSibling => Axis::FollowingSibling,
            Axis::SelfAxis => Axis::SelfAxis,
            // The attribute/owner relationship is its own dual in the
            // encoding (the paper exploits this for attribute-axis reversal).
            Axis::Attribute => Axis::Attribute,
        }
    }

    /// The principal node kind of the axis: name tests without an explicit
    /// kind select this kind (attributes for the attribute axis, elements
    /// everywhere else).
    pub fn principal_node_kind(self) -> NodeKind {
        match self {
            Axis::Attribute => NodeKind::Attribute,
            _ => NodeKind::Element,
        }
    }

    /// Does the structural predicate `axis(α)` of Fig. 3 hold between a
    /// context row `ctx` and a candidate row `cand`?
    ///
    /// The predicates are purely structural (`pre`/`size`/`level`); kind and
    /// name restrictions are the node test's business.  The only exception
    /// is the attribute axis / its complement: attribute rows are embedded
    /// in their owner's `pre` range, so the child/descendant-family axes
    /// must exclude `ATTR` rows, and `attribute::` selects exactly them.
    pub fn holds(self, ctx: &NodeRow, cand: &NodeRow) -> bool {
        let (p0, s0, l0) = (ctx.pre, ctx.size, ctx.level);
        let (p, s, l) = (cand.pre, cand.size, cand.level);
        let cand_is_attr = cand.kind == NodeKind::Attribute;
        match self {
            Axis::Child => p0 < p && p <= p0 + s0 && l0 + 1 == l && !cand_is_attr,
            Axis::Descendant => p0 < p && p <= p0 + s0 && !cand_is_attr,
            Axis::DescendantOrSelf => p0 <= p && p <= p0 + s0 && !(cand_is_attr && p != p0),
            Axis::Parent => p < p0 && p0 <= p + s && l + 1 == l0,
            Axis::Ancestor => p < p0 && p0 <= p + s,
            Axis::AncestorOrSelf => p <= p0 && p0 <= p + s,
            Axis::Following => p > p0 + s0 && !cand_is_attr,
            Axis::Preceding => p + s < p0 && !cand_is_attr && ctx.kind != NodeKind::Attribute,
            Axis::FollowingSibling => {
                p > p0 && l == l0 && p <= sibling_bound(ctx, cand) && !cand_is_attr
            }
            Axis::PrecedingSibling => {
                p < p0 && l == l0 && p0 <= sibling_bound(cand, ctx) && !cand_is_attr
            }
            Axis::SelfAxis => p == p0,
            Axis::Attribute => p0 < p && p <= p0 + s0 && l0 + 1 == l && cand_is_attr,
        }
    }
}

/// Helper for the sibling axes: a following sibling of `ctx` must still lie
/// inside `ctx`'s parent's subtree.  Because the encoding does not store the
/// parent's `pre` directly, the direct-evaluation path approximates the
/// bound as "any node with the same level that is not a descendant of an
/// intermediate node"; [`step`] falls back to a tree-accurate computation.
fn sibling_bound(_ctx: &NodeRow, cand: &NodeRow) -> u32 {
    cand.pre
}

/// An XPath node test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `node()` — any node.
    AnyKind,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// A name test: `*` when `None`, a specific QName otherwise.  The kind
    /// selected is the axis's principal node kind.
    Name(Option<String>),
    /// `element()` / `element(name)` kind test in sequence-type syntax.
    Element(Option<String>),
    /// `attribute()` / `attribute(name)` kind test.
    Attribute(Option<String>),
    /// `document-node()`
    DocumentNode,
}

impl NodeTest {
    /// A wildcard name test (`*`).
    pub fn any_name() -> Self {
        NodeTest::Name(None)
    }

    /// A specific name test.
    pub fn name(n: impl Into<String>) -> Self {
        NodeTest::Name(Some(n.into()))
    }

    /// Does the node test accept the row, in the context of `axis`?
    pub fn matches(&self, axis: Axis, row: &NodeRow) -> bool {
        match self {
            NodeTest::AnyKind => true,
            NodeTest::Text => row.kind == NodeKind::Text,
            NodeTest::Comment => row.kind == NodeKind::Comment,
            NodeTest::Pi => row.kind == NodeKind::ProcessingInstruction,
            NodeTest::DocumentNode => row.kind == NodeKind::Document,
            NodeTest::Name(n) => {
                row.kind == axis.principal_node_kind()
                    && n.as_deref().is_none_or(|n| row.name.as_deref() == Some(n))
            }
            NodeTest::Element(n) => {
                row.kind == NodeKind::Element
                    && n.as_deref().is_none_or(|n| row.name.as_deref() == Some(n))
            }
            NodeTest::Attribute(n) => {
                row.kind == NodeKind::Attribute
                    && n.as_deref().is_none_or(|n| row.name.as_deref() == Some(n))
            }
        }
    }

    /// The equality predicates of Fig. 3: returns `(kind, name)` constraints
    /// the relational plan has to apply (`None` = unconstrained).
    pub fn predicates(&self, axis: Axis) -> (Option<NodeKind>, Option<String>) {
        match self {
            NodeTest::AnyKind => (None, None),
            NodeTest::Text => (Some(NodeKind::Text), None),
            NodeTest::Comment => (Some(NodeKind::Comment), None),
            NodeTest::Pi => (Some(NodeKind::ProcessingInstruction), None),
            NodeTest::DocumentNode => (Some(NodeKind::Document), None),
            NodeTest::Name(n) => (Some(axis.principal_node_kind()), n.clone()),
            NodeTest::Element(n) => (Some(NodeKind::Element), n.clone()),
            NodeTest::Attribute(n) => (Some(NodeKind::Attribute), n.clone()),
        }
    }

    /// XPath surface syntax.
    pub fn render(&self) -> String {
        match self {
            NodeTest::AnyKind => "node()".to_string(),
            NodeTest::Text => "text()".to_string(),
            NodeTest::Comment => "comment()".to_string(),
            NodeTest::Pi => "processing-instruction()".to_string(),
            NodeTest::DocumentNode => "document-node()".to_string(),
            NodeTest::Name(None) | NodeTest::Element(None) => "*".to_string(),
            NodeTest::Name(Some(n)) | NodeTest::Element(Some(n)) => n.clone(),
            NodeTest::Attribute(None) => "@*".to_string(),
            NodeTest::Attribute(Some(n)) => format!("@{n}"),
        }
    }
}

/// Naive (context-node-at-a-time) evaluation of one location step over the
/// tabular encoding.  Results are returned in document order without
/// duplicates — i.e. with `fs:ddo` applied, matching the normalized XQuery
/// Core semantics.
///
/// For the sibling axes, which the range predicates of Fig. 3 only
/// approximate, this function computes the exact sibling relationship via
/// the ancestor structure, keeping it a faithful oracle.
pub fn step(table: &DocTable, contexts: &[Pre], axis: Axis, test: &NodeTest) -> Vec<Pre> {
    let mut out: Vec<Pre> = Vec::new();
    for &ctx in contexts {
        let ctx_row = table.row(ctx);
        match axis {
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                let parent = parent_of(table, ctx);
                if let Some(parent) = parent {
                    let siblings = children_of(table, parent);
                    for s in siblings {
                        let srow = table.row(s);
                        let ok = match axis {
                            Axis::FollowingSibling => srow.pre > ctx_row.pre,
                            _ => srow.pre < ctx_row.pre,
                        };
                        if ok && test.matches(axis, srow) {
                            out.push(s);
                        }
                    }
                }
            }
            _ => {
                // Range predicates are accurate for all remaining axes; scan
                // only the relevant pre range where it is contiguous.
                let (lo, hi) = scan_range(table, ctx_row, axis);
                for p in lo..=hi {
                    if p as usize >= table.len() {
                        break;
                    }
                    let cand = table.row(Pre(p));
                    if axis.holds(ctx_row, cand) && test.matches(axis, cand) {
                        out.push(Pre(p));
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The contiguous `pre` range that can possibly satisfy `axis` for context
/// row `ctx` (used to avoid full-table scans in the oracle evaluation).
fn scan_range(table: &DocTable, ctx: &NodeRow, axis: Axis) -> (u32, u32) {
    let last = (table.len().saturating_sub(1)) as u32;
    match axis {
        Axis::Child | Axis::Descendant | Axis::Attribute => (ctx.pre + 1, ctx.pre + ctx.size),
        Axis::DescendantOrSelf => (ctx.pre, ctx.pre + ctx.size),
        Axis::SelfAxis => (ctx.pre, ctx.pre),
        Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf | Axis::Preceding => (0, ctx.pre),
        Axis::Following => (ctx.pre + ctx.size, last),
        Axis::FollowingSibling | Axis::PrecedingSibling => (0, last),
    }
}

/// Parent of a node, computed via the ancestor predicate (closest ancestor).
pub fn parent_of(table: &DocTable, pre: Pre) -> Option<Pre> {
    let row = table.row(pre);
    let mut best: Option<Pre> = None;
    for p in (0..pre.0).rev() {
        let cand = table.row(Pre(p));
        if cand.pre < row.pre && row.pre <= cand.pre + cand.size && cand.level + 1 == row.level {
            best = Some(Pre(p));
            break;
        }
    }
    best
}

/// Children (non-attribute) of a node in document order.
pub fn children_of(table: &DocTable, pre: Pre) -> Vec<Pre> {
    let row = table.row(pre);
    (row.pre + 1..=row.pre + row.size)
        .filter(|&p| {
            let c = table.row(Pre(p));
            c.level == row.level + 1 && c.kind != NodeKind::Attribute
        })
        .map(Pre)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn table() -> DocTable {
        let xml = r#"<open_auction id="1"><initial>15</initial><bidder><time>18:43</time><increase>4.20</increase></bidder></open_auction>"#;
        DocTable::from_document("auction.xml", &parse_document(xml).unwrap())
    }

    #[test]
    fn paper_q0_child_text_step() {
        // Fig. 3 example: context {time, increase} (pre 6, 8), child::text()
        // yields pre {7, 9}.
        let t = table();
        let result = step(&t, &[Pre(6), Pre(8)], Axis::Child, &NodeTest::Text);
        assert_eq!(result, vec![Pre(7), Pre(9)]);
    }

    #[test]
    fn descendant_from_document_root() {
        let t = table();
        let result = step(&t, &[Pre(0)], Axis::Descendant, &NodeTest::name("bidder"));
        assert_eq!(result, vec![Pre(5)]);
    }

    #[test]
    fn child_excludes_attributes_but_attribute_axis_selects_them() {
        let t = table();
        let children = step(&t, &[Pre(1)], Axis::Child, &NodeTest::AnyKind);
        assert_eq!(children, vec![Pre(3), Pre(5)]);
        let attrs = step(&t, &[Pre(1)], Axis::Attribute, &NodeTest::any_name());
        assert_eq!(attrs, vec![Pre(2)]);
        let named = step(&t, &[Pre(1)], Axis::Attribute, &NodeTest::name("id"));
        assert_eq!(named, vec![Pre(2)]);
    }

    #[test]
    fn parent_and_ancestor() {
        let t = table();
        assert_eq!(
            step(&t, &[Pre(7)], Axis::Parent, &NodeTest::any_name()),
            vec![Pre(6)]
        );
        assert_eq!(
            step(&t, &[Pre(7)], Axis::Ancestor, &NodeTest::any_name()),
            vec![Pre(1), Pre(5), Pre(6)]
        );
        assert_eq!(
            step(&t, &[Pre(7)], Axis::AncestorOrSelf, &NodeTest::AnyKind),
            vec![Pre(0), Pre(1), Pre(5), Pre(6), Pre(7)]
        );
    }

    #[test]
    fn following_and_preceding() {
        let t = table();
        // following of initial (pre 3, size 1): nodes after pre 4.
        let fol = step(&t, &[Pre(3)], Axis::Following, &NodeTest::AnyKind);
        assert_eq!(fol, vec![Pre(5), Pre(6), Pre(7), Pre(8), Pre(9)]);
        let prec = step(&t, &[Pre(5)], Axis::Preceding, &NodeTest::AnyKind);
        assert_eq!(prec, vec![Pre(3), Pre(4)]);
    }

    #[test]
    fn sibling_axes() {
        let t = table();
        assert_eq!(
            step(&t, &[Pre(3)], Axis::FollowingSibling, &NodeTest::any_name()),
            vec![Pre(5)]
        );
        assert_eq!(
            step(&t, &[Pre(5)], Axis::PrecedingSibling, &NodeTest::any_name()),
            vec![Pre(3)]
        );
    }

    #[test]
    fn self_axis_and_node_tests() {
        let t = table();
        assert_eq!(
            step(&t, &[Pre(4)], Axis::SelfAxis, &NodeTest::Text),
            vec![Pre(4)]
        );
        assert_eq!(
            step(&t, &[Pre(4)], Axis::SelfAxis, &NodeTest::name("x")),
            vec![]
        );
    }

    #[test]
    fn duals_are_involutions() {
        for a in Axis::ALL {
            assert_eq!(a.dual().dual(), a);
        }
    }

    #[test]
    fn dual_axis_relates_swapped_rows() {
        let t = table();
        // descendant(ctx=1, cand=7) <=> ancestor(ctx=7, cand=1)
        assert!(Axis::Descendant.holds(t.row(Pre(1)), t.row(Pre(7))));
        assert!(Axis::Ancestor.holds(t.row(Pre(7)), t.row(Pre(1))));
    }

    #[test]
    fn node_test_predicates_follow_fig3() {
        let (k, n) = NodeTest::name("bidder").predicates(Axis::Child);
        assert_eq!(k, Some(NodeKind::Element));
        assert_eq!(n.as_deref(), Some("bidder"));
        let (k, n) = NodeTest::name("id").predicates(Axis::Attribute);
        assert_eq!(k, Some(NodeKind::Attribute));
        assert_eq!(n.as_deref(), Some("id"));
        let (k, n) = NodeTest::Text.predicates(Axis::Child);
        assert_eq!(k, Some(NodeKind::Text));
        assert_eq!(n, None);
        assert_eq!(NodeTest::AnyKind.predicates(Axis::Descendant), (None, None));
    }

    #[test]
    fn axis_names_roundtrip() {
        for a in Axis::ALL {
            assert_eq!(Axis::from_name(a.name()), Some(a));
        }
        assert_eq!(Axis::from_name("sideways"), None);
    }
}
