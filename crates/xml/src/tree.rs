//! In-memory XML infoset tree.
//!
//! The tree is the parser's output and the data structure the navigational
//! baseline (`xqjg-purexml`) and the reference interpreter operate on.  The
//! relational processor never touches it after shredding into the tabular
//! encoding of [`crate::encoding`].

use std::fmt;

/// Index of a node inside a [`Document`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// The kind of an infoset node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeNodeKind {
    /// The synthetic document root.
    Document,
    /// An element node.
    Element,
    /// An attribute node.
    Attribute,
    /// A text node.
    Text,
    /// A comment node (parsed but never matched by the queries we support).
    Comment,
    /// A processing instruction.
    ProcessingInstruction,
}

/// A single infoset node stored in a [`Document`] arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node kind.
    pub kind: TreeNodeKind,
    /// Tag name for elements, attribute name for attributes, target for PIs.
    pub name: Option<String>,
    /// Text content for text/comment nodes, attribute value for attributes.
    pub value: Option<String>,
    /// Parent node, `None` only for the document root.
    pub parent: Option<NodeId>,
    /// Child nodes in document order (elements, text, comments, PIs).
    pub children: Vec<NodeId>,
    /// Attribute nodes owned by this element.
    pub attributes: Vec<NodeId>,
}

impl Node {
    fn new(kind: TreeNodeKind) -> Self {
        Node {
            kind,
            name: None,
            value: None,
            parent: None,
            children: Vec::new(),
            attributes: Vec::new(),
        }
    }
}

/// An XML document: an arena of [`Node`]s rooted at [`Document::ROOT`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Document {
    /// The arena index of the document root node.
    pub const ROOT: NodeId = NodeId(0);

    /// Create an empty document containing only the document root node.
    pub fn new() -> Self {
        let mut nodes = Vec::with_capacity(16);
        nodes.push(Node::new(TreeNodeKind::Document));
        Document { nodes }
    }

    /// Number of nodes in the document (including the document root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the document only contains the root node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Append a fresh element node under `parent`.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        let id = self.push(Node {
            kind: TreeNodeKind::Element,
            name: Some(name.into()),
            ..Node::new(TreeNodeKind::Element)
        });
        self.nodes[id.0].parent = Some(parent);
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Append an attribute node to the element `owner`.
    pub fn add_attribute(
        &mut self,
        owner: NodeId,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> NodeId {
        let id = self.push(Node {
            kind: TreeNodeKind::Attribute,
            name: Some(name.into()),
            value: Some(value.into()),
            ..Node::new(TreeNodeKind::Attribute)
        });
        self.nodes[id.0].parent = Some(owner);
        self.nodes[owner.0].attributes.push(id);
        id
    }

    /// Append a text node under `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        let id = self.push(Node {
            kind: TreeNodeKind::Text,
            value: Some(text.into()),
            ..Node::new(TreeNodeKind::Text)
        });
        self.nodes[id.0].parent = Some(parent);
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Append a comment node under `parent`.
    pub fn add_comment(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        let id = self.push(Node {
            kind: TreeNodeKind::Comment,
            value: Some(text.into()),
            ..Node::new(TreeNodeKind::Comment)
        });
        self.nodes[id.0].parent = Some(parent);
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Append a processing-instruction node under `parent`.
    pub fn add_pi(
        &mut self,
        parent: NodeId,
        target: impl Into<String>,
        data: impl Into<String>,
    ) -> NodeId {
        let id = self.push(Node {
            kind: TreeNodeKind::ProcessingInstruction,
            name: Some(target.into()),
            value: Some(data.into()),
            ..Node::new(TreeNodeKind::ProcessingInstruction)
        });
        self.nodes[id.0].parent = Some(parent);
        self.nodes[parent.0].children.push(id);
        id
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// The (unique) top-level element of the document, if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.node(Self::ROOT)
            .children
            .iter()
            .copied()
            .find(|&c| self.node(c).kind == TreeNodeKind::Element)
    }

    /// Document-order iteration: a node, then its attributes, then its
    /// children recursively.  This matches the `pre` rank ordering used by
    /// the tabular encoding (Fig. 2 places the `id` attribute directly after
    /// its owner element).
    pub fn document_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.visit(Self::ROOT, &mut out);
        out
    }

    fn visit(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.push(id);
        let node = self.node(id);
        for &a in &node.attributes {
            out.push(a);
        }
        for &c in &node.children {
            self.visit(c, out);
        }
    }

    /// Number of nodes in the subtree rooted at `id` (excluding `id` itself,
    /// attributes included) — the `size` column of the encoding.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        let node = self.node(id);
        let mut n = node.attributes.len();
        for &c in &node.children {
            n += 1 + self.subtree_size(c);
        }
        n
    }

    /// Length of the path from `id` up to the document root — the `level`
    /// column of the encoding (the document root itself has level 0).
    pub fn level(&self, id: NodeId) -> usize {
        let mut level = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            level += 1;
            cur = p;
        }
        level
    }

    /// Untyped string value of a node: concatenation of all descendant text
    /// for elements, the literal value for attributes and text nodes.
    pub fn string_value(&self, id: NodeId) -> String {
        let node = self.node(id);
        match node.kind {
            TreeNodeKind::Attribute
            | TreeNodeKind::Text
            | TreeNodeKind::Comment
            | TreeNodeKind::ProcessingInstruction => node.value.clone().unwrap_or_default(),
            TreeNodeKind::Element | TreeNodeKind::Document => {
                let mut buf = String::new();
                self.collect_text(id, &mut buf);
                buf
            }
        }
    }

    fn collect_text(&self, id: NodeId, buf: &mut String) {
        let node = self.node(id);
        match node.kind {
            TreeNodeKind::Text => buf.push_str(node.value.as_deref().unwrap_or("")),
            TreeNodeKind::Element | TreeNodeKind::Document => {
                for &c in &node.children {
                    self.collect_text(c, buf);
                }
            }
            _ => {}
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let root = d.add_element(Document::ROOT, "open_auction");
        d.add_attribute(root, "id", "1");
        let initial = d.add_element(root, "initial");
        d.add_text(initial, "15");
        let bidder = d.add_element(root, "bidder");
        let time = d.add_element(bidder, "time");
        d.add_text(time, "18:43");
        (d, root, initial, bidder)
    }

    #[test]
    fn document_order_puts_attributes_right_after_owner() {
        let (d, root, _, _) = sample();
        let order = d.document_order();
        assert_eq!(order[0], Document::ROOT);
        assert_eq!(order[1], root);
        assert_eq!(d.node(order[2]).kind, TreeNodeKind::Attribute);
    }

    #[test]
    fn subtree_size_counts_attributes_and_descendants() {
        let (d, root, initial, bidder) = sample();
        assert_eq!(d.subtree_size(root), 6);
        assert_eq!(d.subtree_size(initial), 1);
        assert_eq!(d.subtree_size(bidder), 2);
        assert_eq!(d.subtree_size(Document::ROOT), 7);
    }

    #[test]
    fn levels() {
        let (d, root, initial, _) = sample();
        assert_eq!(d.level(Document::ROOT), 0);
        assert_eq!(d.level(root), 1);
        assert_eq!(d.level(initial), 2);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let (d, root, initial, _) = sample();
        assert_eq!(d.string_value(initial), "15");
        assert_eq!(d.string_value(root), "1518:43");
    }

    #[test]
    fn root_element_found() {
        let (d, root, _, _) = sample();
        assert_eq!(d.root_element(), Some(root));
    }
}
