//! Bridge between the XML-side encoding ([`xqjg_xml::DocTable`]) and the
//! relational-side `doc` relation ([`xqjg_store::Table`]).
//!
//! Column layout and naming follow Fig. 2; the `kind` column stores the
//! paper's textual labels (`DOC`, `ELEM`, `ATTR`, `TEXT`, …) so that the
//! emitted SQL reads exactly like Fig. 8 (`d1.kind = DOC`).

use xqjg_store::{Schema, Table, Value};
use xqjg_xml::{DocTable, NodeKind, Pre};

/// The canonical relational name of the encoding table.
pub const DOC_RELATION: &str = "doc";

/// Convert the XML encoding into a relational table with schema
/// `(pre, size, level, kind, name, value, data)`.
pub fn doc_relation(doc: &DocTable) -> Table {
    let schema = Schema::new(crate::ir::DOC_COLUMNS.iter().copied());
    let mut table = Table::new(schema);
    for row in doc.rows() {
        table.push(vec![
            Value::Int(row.pre as i64),
            Value::Int(row.size as i64),
            Value::Int(row.level as i64),
            Value::str(row.kind.label()),
            row.name.as_deref().map(Value::str).unwrap_or(Value::Null),
            row.value.clone().map(Value::Str).unwrap_or(Value::Null),
            row.data.map(Value::Dec).unwrap_or(Value::Null),
        ]);
    }
    table
}

/// Extract the node sequence encoded by a result table: the `item` column
/// interpreted as `pre` ranks, in row order.
pub fn result_items(result: &Table) -> Vec<Pre> {
    let idx = result
        .schema()
        .index_of("item")
        .expect("result table has no item column");
    result
        .rows()
        .iter()
        .filter_map(|r| r[idx].as_i64())
        .map(|i| Pre(i as u32))
        .collect()
}

/// The label of a node kind as stored in the relational `kind` column.
pub fn kind_label(kind: NodeKind) -> &'static str {
    kind.label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqjg_xml::parse_document;

    #[test]
    fn doc_relation_matches_encoding() {
        let xml = r#"<a id="1"><b>15</b></a>"#;
        let enc = DocTable::from_document("a.xml", &parse_document(xml).unwrap());
        let rel = doc_relation(&enc);
        assert_eq!(rel.len(), enc.len());
        assert_eq!(rel.schema().columns().len(), 7);
        assert_eq!(rel.value(0, "kind"), &Value::str("DOC"));
        assert_eq!(rel.value(0, "name"), &Value::str("a.xml"));
        assert_eq!(rel.value(2, "kind"), &Value::str("ATTR"));
        assert_eq!(rel.value(3, "name"), &Value::str("b"));
        assert_eq!(rel.value(4, "data"), &Value::Dec(15.0));
    }

    #[test]
    fn result_items_reads_item_column() {
        let mut t = Table::new(Schema::new(["pos", "item"]));
        t.push(vec![Value::Int(1), Value::Int(4)]);
        t.push(vec![Value::Int(2), Value::Int(9)]);
        assert_eq!(result_items(&t), vec![Pre(4), Pre(9)]);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(kind_label(NodeKind::Document), "DOC");
        assert_eq!(kind_label(NodeKind::Element), "ELEM");
    }
}
