//! Serialization of query results back to XML text.
//!
//! The relational processor returns a sequence of `pre` ranks (the encoding
//! of the resulting XML node sequence).  Serializing the sequence means
//! emitting, for every result node, the full subtree below it — the paper
//! makes this explicit by appending a `descendant-or-self::node()` step and
//! scanning the `p|nvkls` index in `pre` order.  A subtree is the contiguous
//! `pre` range `[pre, pre + size]`, so its text is one contiguous byte range
//! of its document's text.  A `TextImage` writes every tree of a
//! [`DocTable`] once and records each node's byte span in that text; the
//! invariant is that the span of `pre` holds exactly the serialization of
//! the subtree rooted at `pre`:
//!
//! * an attribute's span starts after the space that separates it from its
//!   element, so a bare attribute reads `name="value"`;
//! * a document node's span is the concatenation of its children's.
//!
//! Serializing a node is then one slice copy.

use std::fmt;

use crate::encoding::{DocTable, NodeKind, Pre};

/// The serialized text of every tree of a [`DocTable`] plus the byte span
/// `(start, end)` of every node in it, indexed by `pre`.
///
/// Spans are `u32` offsets (8 bytes a node), so one table's text is limited
/// to 4 GiB; `TextImage::build` asserts the limit.
pub(crate) struct TextImage {
    text: String,
    span: Vec<(u32, u32)>,
}

impl TextImage {
    /// Write every tree of `table` in one pre-order walk over its top-level
    /// rows.
    pub(crate) fn build(table: &DocTable) -> TextImage {
        let mut image = TextImage {
            text: String::new(),
            span: vec![(0, 0); table.len()],
        };
        let mut p = 0;
        while (p as usize) < table.len() {
            image.write(table, Pre(p));
            p += table.row(Pre(p)).size + 1;
        }
        // Offsets recorded during the walk truncate silently past 4 GiB; the
        // text only grows, so checking its final length covers all of them.
        assert!(
            u32::try_from(image.text.len()).is_ok(),
            "serialized text of {} bytes exceeds the 4 GiB that u32 spans address",
            image.text.len()
        );
        image.text.shrink_to_fit();
        image
    }

    /// The serialization of the subtree rooted at `pre`.
    fn slice(&self, pre: Pre) -> &str {
        let (start, end) = self.span[pre.idx()];
        &self.text[start as usize..end as usize]
    }

    /// Append the subtree rooted at `pre`, recording its span and the spans
    /// of every node below it.
    fn write(&mut self, table: &DocTable, pre: Pre) {
        let start = self.text.len() as u32;
        let row = table.row(pre);
        match row.kind {
            NodeKind::Document => self.write_children(table, pre.0 + 1, pre.0 + row.size),
            NodeKind::Element => {
                let name = row.name.as_deref().unwrap_or("unnamed");
                self.text.push('<');
                self.text.push_str(name);
                // Attributes are the immediately following rows with
                // level = row.level + 1 and kind ATTR.
                let mut p = pre.0 + 1;
                let end = pre.0 + row.size;
                while p <= end {
                    let cand = table.row(Pre(p));
                    if cand.kind == NodeKind::Attribute && cand.level == row.level + 1 {
                        self.text.push(' ');
                        self.write(table, Pre(p));
                        p += 1;
                    } else {
                        break;
                    }
                }
                if p > end {
                    self.text.push_str("/>");
                } else {
                    self.text.push('>');
                    self.write_children(table, p, end);
                    self.text.push_str("</");
                    self.text.push_str(name);
                    self.text.push('>');
                }
            }
            NodeKind::Attribute => {
                self.text.push_str(row.name.as_deref().unwrap_or("attr"));
                self.text.push_str("=\"");
                push_escaped(&mut self.text, row.value.as_deref().unwrap_or(""), true);
                self.text.push('"');
            }
            NodeKind::Text => {
                push_escaped(&mut self.text, row.value.as_deref().unwrap_or(""), false);
            }
            NodeKind::Comment => {
                self.text.push_str("<!--");
                self.text.push_str(row.value.as_deref().unwrap_or(""));
                self.text.push_str("-->");
            }
            NodeKind::ProcessingInstruction => {
                self.text.push_str("<?");
                self.text.push_str(row.name.as_deref().unwrap_or(""));
                if let Some(v) = row.value.as_deref() {
                    if !v.is_empty() {
                        self.text.push(' ');
                        self.text.push_str(v);
                    }
                }
                self.text.push_str("?>");
            }
        }
        self.span[pre.idx()] = (start, self.text.len() as u32);
    }

    /// Append the sibling subtrees that start at `first` and end by `last`.
    fn write_children(&mut self, table: &DocTable, first: u32, last: u32) {
        let mut p = first;
        while p <= last {
            self.write(table, Pre(p));
            p += table.row(Pre(p)).size + 1;
        }
    }
}

/// Prints sizes only: the text of a large document runs to megabytes.
impl fmt::Debug for TextImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TextImage")
            .field("text_bytes", &self.text.len())
            .field("nodes", &self.span.len())
            .finish()
    }
}

/// Serialize a node sequence (in the given order) to XML text.
///
/// Adjacent result items are separated by newlines, mirroring the usual
/// XQuery serialization of top-level sequences.
pub fn serialize_nodes(table: &DocTable, nodes: &[Pre]) -> String {
    let image = table.text_image();
    let bytes: usize = nodes.iter().map(|&pre| image.slice(pre).len()).sum();
    let mut out = String::with_capacity(bytes + nodes.len().saturating_sub(1));
    for (i, &pre) in nodes.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(image.slice(pre));
    }
    out
}

/// Serialize the subtree rooted at `pre` into `out`.
pub fn serialize_subtree(table: &DocTable, pre: Pre, out: &mut String) {
    out.push_str(table.text_image().slice(pre));
}

/// Count the nodes delivered by serialization of the given result sequence —
/// i.e. the size of the `descendant-or-self::node()` closure.  Table IX's
/// "# nodes" column reports exactly this quantity.
pub fn serialized_node_count(table: &DocTable, nodes: &[Pre]) -> usize {
    nodes.iter().map(|&p| table.row(p).size as usize + 1).sum()
}

fn push_escaped(out: &mut String, s: &str, in_attribute: bool) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if in_attribute => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn table(xml: &str) -> DocTable {
        DocTable::from_document("t.xml", &parse_document(xml).unwrap())
    }

    #[test]
    fn roundtrip_simple_document() {
        let xml = "<a x=\"1\"><b>hi</b><c/></a>";
        let t = table(xml);
        let rendered = serialize_nodes(&t, &[Pre(0)]);
        assert_eq!(rendered, xml);
    }

    #[test]
    fn roundtrip_paper_example() {
        let xml = r#"<open_auction id="1"><initial>15</initial><bidder><time>18:43</time><increase>4.20</increase></bidder></open_auction>"#;
        let t = table(xml);
        assert_eq!(serialize_nodes(&t, &[Pre(1)]), xml);
    }

    #[test]
    fn serialize_inner_nodes_and_text() {
        let t = table("<a><b>x &amp; y</b></a>");
        let b = Pre(2);
        assert_eq!(serialize_nodes(&t, &[b]), "<b>x &amp; y</b>");
        let text = Pre(3);
        assert_eq!(serialize_nodes(&t, &[text]), "x &amp; y");
    }

    #[test]
    fn serialize_attribute_node() {
        let t = table("<a id=\"7\"/>");
        assert_eq!(serialize_nodes(&t, &[Pre(2)]), "id=\"7\"");
    }

    #[test]
    fn sequence_items_newline_separated() {
        let t = table("<a><b>1</b><b>2</b></a>");
        let out = serialize_nodes(&t, &[Pre(2), Pre(4)]);
        assert_eq!(out, "<b>1</b>\n<b>2</b>");
    }

    #[test]
    fn node_count_matches_subtree_sizes() {
        let t = table("<a><b>1</b><b>2</b></a>");
        assert_eq!(serialized_node_count(&t, &[Pre(1)]), 5);
        assert_eq!(serialized_node_count(&t, &[Pre(2), Pre(4)]), 4);
    }

    /// Comments, PIs, escapes in text and attributes, an element with only
    /// attributes, empty elements, mixed content — and a second document
    /// in the same table.
    const HAND_BUILT: &str = concat!(
        r#"<r a="x &quot;q&quot; &lt;&amp;&gt;" b="">"#,
        r#"<only k="1" l="2"/><e/><e></e><t>a &lt; b &amp;&amp; c &gt; d "q"</t>"#,
        r#"<!--inner--><?pi some data?><?bare?>mixed<m x="y">text<n/>tail</m></r>"#,
    );
    const SECOND: &str = r#"<dblp><phdthesis key="k"><title>T</title></phdthesis></dblp>"#;

    /// The writer run on its own from `pre`, outside any image.
    fn standalone(table: &DocTable, pre: Pre) -> String {
        let mut image = TextImage {
            text: String::new(),
            span: vec![(0, 0); table.len()],
        };
        image.write(table, pre);
        image.text
    }

    #[test]
    fn every_span_holds_a_standalone_write_of_its_node() {
        let mut t = table(HAND_BUILT);
        t.add_document("u.xml", &parse_document(SECOND).unwrap());
        let kinds: std::collections::HashSet<NodeKind> = t.rows().map(|r| r.kind).collect();
        assert_eq!(kinds.len(), 6, "every node kind occurs: {kinds:?}");
        for row in t.rows() {
            let pre = Pre(row.pre);
            assert_eq!(
                serialize_nodes(&t, &[pre]),
                standalone(&t, pre),
                "pre {pre}"
            );
        }
        let second = t.document_root("u.xml").unwrap();
        assert_eq!(serialize_nodes(&t, &[second]), SECOND);
        assert_eq!(
            serialize_nodes(&t, &[Pre(2)]),
            r#"a="x &quot;q&quot; &lt;&amp;&gt;""#
        );
    }

    #[test]
    fn add_document_drops_the_image() {
        let mut t = table("<a/>");
        assert_eq!(serialize_nodes(&t, &[Pre(0)]), "<a/>");
        t.add_document("u.xml", &parse_document("<b>x</b>").unwrap());
        assert_eq!(serialize_nodes(&t, &[Pre(0), Pre(2)]), "<a/>\n<b>x</b>");
    }

    #[test]
    fn clones_share_the_image_and_debug_prints_only_its_size() {
        let t = table("<a><b/></a>");
        assert_eq!(serialize_nodes(&t, &[Pre(0)]), "<a><b/></a>");
        assert!(std::ptr::eq(t.text_image(), t.clone().text_image()));
        let debug = format!("{t:?}");
        assert!(debug.contains("text_bytes: 11"), "{debug}");
        assert!(!debug.contains("<b/>"), "{debug}");
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let xml = "<site><people><person id=\"person0\"><name>Jo</name></person></people></site>";
        let t = table(xml);
        let rendered = serialize_nodes(&t, &[Pre(0)]);
        let t2 = table(&rendered);
        assert_eq!(t.len(), t2.len());
        for (a, b) in t.rows().zip(t2.rows()) {
            assert_eq!((a.kind, &a.name, &a.value), (b.kind, &b.name, &b.value));
        }
    }
}
