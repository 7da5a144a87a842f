//! The tabular XML infoset encoding of Fig. 2.
//!
//! Every node of every loaded document becomes one row of the `doc` table
//! with schema
//!
//! ```text
//! pre | size | level | kind | name | value | data
//! ```
//!
//! * `pre`   — document order rank (unique key across the whole table),
//! * `size`  — number of nodes in the subtree below the node (attributes
//!   included),
//! * `level` — length of the path to the node's document root,
//! * `kind`  — DOC / ELEM / ATTR / TEXT / COMMENT / PI,
//! * `name`  — tag or attribute name; the document URI for DOC rows,
//! * `value` — untyped string value for nodes with `size <= 1`,
//! * `data`  — the `value` cast to `xs:decimal` where that cast succeeds.
//!
//! Several documents may live in one table (multiple DOC rows), exactly as
//! described in Section II-A of the paper.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::serialize::TextImage;
use crate::tree::{Document, TreeNodeKind};

/// Document order rank — the key column of the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pre(pub u32);

impl Pre {
    /// The rank as a `usize` index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pre {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The `kind` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// Document root (`DOC` in Fig. 2).
    Document,
    /// Element node (`ELEM`).
    Element,
    /// Attribute node (`ATTR`).
    Attribute,
    /// Text node (`TEXT`).
    Text,
    /// Comment node.
    Comment,
    /// Processing instruction.
    ProcessingInstruction,
}

impl NodeKind {
    /// Paper-style short label (used when rendering plans and SQL).
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Document => "DOC",
            NodeKind::Element => "ELEM",
            NodeKind::Attribute => "ATTR",
            NodeKind::Text => "TEXT",
            NodeKind::Comment => "COMMENT",
            NodeKind::ProcessingInstruction => "PI",
        }
    }

    /// Stable numeric code used when the kind is stored in a relational
    /// [`xqjg-store`] table or a B-tree key.
    pub fn code(self) -> i64 {
        match self {
            NodeKind::Document => 0,
            NodeKind::Element => 1,
            NodeKind::Attribute => 2,
            NodeKind::Text => 3,
            NodeKind::Comment => 4,
            NodeKind::ProcessingInstruction => 5,
        }
    }

    /// Inverse of [`NodeKind::code`].
    pub fn from_code(code: i64) -> Option<NodeKind> {
        Some(match code {
            0 => NodeKind::Document,
            1 => NodeKind::Element,
            2 => NodeKind::Attribute,
            3 => NodeKind::Text,
            4 => NodeKind::Comment,
            5 => NodeKind::ProcessingInstruction,
            _ => return None,
        })
    }
}

impl From<TreeNodeKind> for NodeKind {
    fn from(k: TreeNodeKind) -> Self {
        match k {
            TreeNodeKind::Document => NodeKind::Document,
            TreeNodeKind::Element => NodeKind::Element,
            TreeNodeKind::Attribute => NodeKind::Attribute,
            TreeNodeKind::Text => NodeKind::Text,
            TreeNodeKind::Comment => NodeKind::Comment,
            TreeNodeKind::ProcessingInstruction => NodeKind::ProcessingInstruction,
        }
    }
}

/// One row of the `doc` table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// Document order rank.
    pub pre: u32,
    /// Subtree size (number of nodes strictly below this node).
    pub size: u32,
    /// Distance to the owning document root.
    pub level: u32,
    /// Node kind.
    pub kind: NodeKind,
    /// Tag / attribute name, or the document URI for DOC rows.  Rows
    /// loaded by one [`DocTable::add_document`] call share one allocation
    /// per distinct name.
    pub name: Option<Arc<str>>,
    /// Untyped string value, populated for rows with `size <= 1`.
    pub value: Option<String>,
    /// `value` cast to decimal when the cast succeeds.
    pub data: Option<f64>,
}

/// The tabular encoding: a dense vector of [`NodeRow`]s indexed by `pre`.
///
/// The table also owns its serialized text (`TextImage`), built by the
/// first serialization and dropped whenever rows change.  It is part of
/// the document, like a column, so clones share it.
#[derive(Debug, Clone, Default)]
pub struct DocTable {
    rows: Vec<NodeRow>,
    image: OnceLock<Arc<TextImage>>,
}

impl DocTable {
    /// Create an empty table.
    pub fn new() -> Self {
        DocTable::default()
    }

    /// Build a table directly from pre-computed rows (rows must already be
    /// in `pre` order with `pre` values `0..n`).
    pub fn from_rows(rows: Vec<NodeRow>) -> Self {
        for (i, r) in rows.iter().enumerate() {
            debug_assert_eq!(r.pre as usize, i, "rows must be dense in pre order");
        }
        DocTable {
            rows,
            image: OnceLock::new(),
        }
    }

    /// Shred a parsed [`Document`] into a fresh table.
    pub fn from_document(uri: &str, doc: &Document) -> Self {
        let mut table = DocTable::new();
        table.add_document(uri, doc);
        table
    }

    /// Append another document to the table (the table then hosts multiple
    /// trees, distinguishable via their DOC rows).
    pub fn add_document(&mut self, uri: &str, doc: &Document) {
        self.image = OnceLock::new();
        let base = self.rows.len() as u32;
        let order = doc.document_order();
        self.rows.reserve(order.len());
        let mut names: HashMap<&str, Arc<str>> = HashMap::new();
        for (offset, node_id) in order.iter().enumerate() {
            let node = doc.node(*node_id);
            let kind = NodeKind::from(node.kind);
            let size = doc.subtree_size(*node_id) as u32;
            let level = doc.level(*node_id) as u32;
            let name = match kind {
                NodeKind::Document => Some(Arc::from(uri)),
                _ => node
                    .name
                    .as_deref()
                    .map(|n| names.entry(n).or_insert_with(|| Arc::from(n)).clone()),
            };
            let value = if size <= 1 && kind != NodeKind::Document {
                let v = doc.string_value(*node_id);
                if v.is_empty() && kind == NodeKind::Element {
                    None
                } else {
                    Some(v)
                }
            } else {
                None
            };
            let data = value.as_deref().and_then(parse_decimal);
            self.rows.push(NodeRow {
                pre: base + offset as u32,
                size,
                level,
                kind,
                name,
                value,
                data,
            });
        }
    }

    /// Number of rows (nodes) in the table.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no document has been loaded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Access the row with the given `pre` rank.
    ///
    /// # Panics
    /// Panics when the rank is out of range.
    pub fn row(&self, pre: Pre) -> &NodeRow {
        &self.rows[pre.idx()]
    }

    /// Access the row with the given `pre` rank, if it exists.
    pub fn get(&self, pre: Pre) -> Option<&NodeRow> {
        self.rows.get(pre.idx())
    }

    /// The serialized text of every tree in the table, built on first use.
    pub(crate) fn text_image(&self) -> &TextImage {
        self.image.get_or_init(|| Arc::new(TextImage::build(self)))
    }

    /// Iterate over all rows in `pre` order.
    pub fn rows(&self) -> impl Iterator<Item = &NodeRow> {
        self.rows.iter()
    }

    /// All `pre` ranks whose row satisfies `f`.
    pub fn filter(&self, mut f: impl FnMut(&NodeRow) -> bool) -> Vec<Pre> {
        self.rows
            .iter()
            .filter(|r| f(r))
            .map(|r| Pre(r.pre))
            .collect()
    }

    /// The DOC row for a given document URI.
    pub fn document_root(&self, uri: &str) -> Option<Pre> {
        self.rows
            .iter()
            .find(|r| r.kind == NodeKind::Document && r.name.as_deref() == Some(uri))
            .map(|r| Pre(r.pre))
    }

    /// All document roots hosted by the table.
    pub fn document_roots(&self) -> Vec<Pre> {
        self.filter(|r| r.kind == NodeKind::Document)
    }

    /// The document root that owns the node `pre` (the closest preceding DOC
    /// row that contains `pre` in its subtree).
    pub fn owning_root(&self, pre: Pre) -> Option<Pre> {
        self.rows[..=pre.idx()]
            .iter()
            .rev()
            .find(|r| r.kind == NodeKind::Document && r.pre + r.size >= pre.0)
            .map(|r| Pre(r.pre))
    }

    /// Untyped string value of an arbitrary node: the stored `value` for
    /// rows that carry one, otherwise the concatenation of descendant TEXT
    /// rows (needed for atomization of large elements).
    pub fn string_value(&self, pre: Pre) -> String {
        let row = self.row(pre);
        if let Some(v) = &row.value {
            return v.clone();
        }
        let lo = pre.0;
        let hi = pre.0 + row.size;
        self.rows[lo as usize..=hi as usize]
            .iter()
            .filter(|r| r.kind == NodeKind::Text)
            .filter_map(|r| r.value.as_deref())
            .collect()
    }

    /// Typed decimal value of a node (`data` column semantics extended to
    /// arbitrary nodes via string-value parsing).
    pub fn decimal_value(&self, pre: Pre) -> Option<f64> {
        let row = self.row(pre);
        if row.data.is_some() {
            return row.data;
        }
        parse_decimal(&self.string_value(pre))
    }
}

/// Parse an `xs:decimal`-compatible literal (also accepts plain integers and
/// simple floating point forms produced by the data generators).
pub fn parse_decimal(s: &str) -> Option<f64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    // Reject strings with non-numeric content so "18:43" does not become a
    // decimal (cf. Fig. 2 where `time` has no data value).
    let mut chars = t.chars().peekable();
    if matches!(chars.peek(), Some('+') | Some('-')) {
        chars.next();
    }
    let mut seen_digit = false;
    let mut seen_dot = false;
    for c in chars {
        match c {
            '0'..='9' => seen_digit = true,
            '.' if !seen_dot => seen_dot = true,
            _ => return None,
        }
    }
    if !seen_digit {
        return None;
    }
    t.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn auction_table() -> DocTable {
        let xml = r#"<open_auction id="1"><initial>15</initial><bidder><time>18:43</time><increase>4.20</increase></bidder></open_auction>"#;
        DocTable::from_document("auction.xml", &parse_document(xml).unwrap())
    }

    #[test]
    fn figure2_layout() {
        let t = auction_table();
        let expect: Vec<(u32, u32, u32, NodeKind)> = vec![
            (0, 9, 0, NodeKind::Document),
            (1, 8, 1, NodeKind::Element),
            (2, 0, 2, NodeKind::Attribute),
            (3, 1, 2, NodeKind::Element),
            (4, 0, 3, NodeKind::Text),
            (5, 4, 2, NodeKind::Element),
            (6, 1, 3, NodeKind::Element),
            (7, 0, 4, NodeKind::Text),
            (8, 1, 3, NodeKind::Element),
            (9, 0, 4, NodeKind::Text),
        ];
        for (pre, size, level, kind) in expect {
            let r = t.row(Pre(pre));
            assert_eq!((r.pre, r.size, r.level, r.kind), (pre, size, level, kind));
        }
    }

    #[test]
    fn figure2_values_and_data() {
        let t = auction_table();
        assert_eq!(t.row(Pre(2)).value.as_deref(), Some("1"));
        assert_eq!(t.row(Pre(2)).data, Some(1.0));
        assert_eq!(t.row(Pre(3)).value.as_deref(), Some("15"));
        assert_eq!(t.row(Pre(3)).data, Some(15.0));
        assert_eq!(t.row(Pre(6)).value.as_deref(), Some("18:43"));
        assert_eq!(t.row(Pre(6)).data, None);
        assert_eq!(t.row(Pre(5)).value, None, "bidder has size 4, no value");
        assert_eq!(t.row(Pre(9)).data, Some(4.2));
    }

    #[test]
    fn multiple_documents_share_a_table() {
        let mut t = auction_table();
        let second = parse_document("<dblp><phdthesis/></dblp>").unwrap();
        t.add_document("dblp.xml", &second);
        assert_eq!(t.document_roots().len(), 2);
        let root2 = t.document_root("dblp.xml").unwrap();
        assert_eq!(root2, Pre(10));
        assert_eq!(t.row(root2).size, 2);
        assert_eq!(t.owning_root(Pre(11)), Some(root2));
        assert_eq!(t.owning_root(Pre(4)), Some(Pre(0)));
    }

    #[test]
    fn one_document_shares_one_allocation_per_name() {
        let t = DocTable::from_document("t.xml", &parse_document("<a><b/><b/></a>").unwrap());
        let name = |pre| t.row(Pre(pre)).name.clone().unwrap();
        assert_eq!(&*name(2), "b");
        assert!(Arc::ptr_eq(&name(2), &name(3)));
    }

    #[test]
    fn string_value_of_inner_element() {
        let t = auction_table();
        // bidder (pre 5) has no stored value; string value concatenates text.
        assert_eq!(t.string_value(Pre(5)), "18:434.20");
        assert_eq!(t.string_value(Pre(3)), "15");
    }

    #[test]
    fn decimal_parsing_rules() {
        assert_eq!(parse_decimal("15"), Some(15.0));
        assert_eq!(parse_decimal(" 4.20 "), Some(4.2));
        assert_eq!(parse_decimal("-3.5"), Some(-3.5));
        assert_eq!(parse_decimal("18:43"), None);
        assert_eq!(parse_decimal("person0"), None);
        assert_eq!(parse_decimal(""), None);
        assert_eq!(parse_decimal("1.2.3"), None);
    }
}
