//! XML substrate for the join-graph-isolating XQuery processor.
//!
//! This crate provides everything the paper's Section II assumes about XML
//! document handling:
//!
//! * a parser for the well-formed XML subset the workloads need
//!   ([`parse_document`]),
//! * an in-memory infoset tree ([`tree::Document`], [`tree::NodeId`]),
//! * the schema-oblivious tabular encoding of Fig. 2 — one row per node with
//!   columns `pre | size | level | kind | name | value | data`
//!   ([`encoding::DocTable`], [`encoding::NodeRow`]),
//! * the XPath axis / kind-test / name-test predicates of Fig. 3
//!   ([`axis::Axis`], [`axis::NodeTest`]),
//! * serialization of a node-sequence result back to XML text, as byte-range
//!   copies out of a per-table text image ([`serialize::serialize_nodes`]).
//!
//! The encoding is the `doc` table every compiled plan joins against; all
//! higher layers (`xqjg-algebra`, `xqjg-engine`, `xqjg-core`) treat it as the
//! single shared base relation.

pub mod axis;
pub mod encoding;
pub mod error;
pub mod parser;
pub mod qname;
pub mod serialize;
pub mod tree;

pub use axis::{Axis, NodeTest};
pub use encoding::{DocTable, NodeKind, NodeRow, Pre};
pub use error::XmlError;
pub use parser::parse_document;
pub use serialize::{serialize_nodes, serialize_subtree, serialized_node_count};
pub use tree::{Document, Node, NodeId};

/// Parse XML text and immediately shred it into the tabular encoding.
///
/// The document URI is stored on the synthetic document root row (kind
/// `DOC`, column `name`), exactly as in Fig. 2 of the paper.
pub fn encode_document(uri: &str, text: &str) -> Result<DocTable, XmlError> {
    let doc = parse_document(text)?;
    Ok(DocTable::from_document(uri, &doc))
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn encode_paper_example() {
        let xml = r#"<open_auction id="1"><initial>15</initial><bidder><time>18:43</time><increase>4.20</increase></bidder></open_auction>"#;
        let table = encode_document("auction.xml", xml).unwrap();
        // Fig. 2 of the paper: 10 rows, pre 0..=9.
        assert_eq!(table.len(), 10);
        assert_eq!(table.row(Pre(0)).kind, NodeKind::Document);
        assert_eq!(table.row(Pre(0)).size, 9);
        assert_eq!(table.row(Pre(1)).name.as_deref(), Some("open_auction"));
        assert_eq!(table.row(Pre(2)).kind, NodeKind::Attribute);
        assert_eq!(table.row(Pre(2)).data, Some(1.0));
        assert_eq!(table.row(Pre(8)).value.as_deref(), Some("4.20"));
        assert_eq!(table.row(Pre(8)).data, Some(4.2));
    }
}
