//! A pureXML™-style navigational baseline.
//!
//! DB2's built-in XQuery processor (Section IV-B) stores XML documents as
//! native node trees — either one monolithic instance or many small
//! segments per row — and evaluates queries by combining
//!
//! * `XISCAN`: a lookup in an `XMLPATTERN` value index (typed values of the
//!   nodes selected by a fixed downward path), yielding the row ids of
//!   documents containing matching nodes, and
//! * `XSCAN`: a TurboXPath-style traversal of the fetched documents'
//!   node trees.
//!
//! This crate reproduces that execution model over the same infoset
//! encoding used elsewhere: value indexes are built per (path, value) over
//! segment roots; when a query carries an index-eligible value comparison,
//! only the matching segments are traversed, otherwise the traversal starts
//! at the document root and visits the whole instance.
//!
//! Both loops run as pull-based operators on the shared
//! [`xqjg_store::Operator`] substrate: [`XiScanOp`] emits candidate
//! segment ids batch-at-a-time and [`XScanOp`] pulls them and traverses
//! the corresponding node trees — the same `open` / `next_batch` / `close`
//! protocol (and the same [`OpStats`] work accounting) the relational
//! executor and the stacked-plan evaluator use, so Table IX compares three
//! strategies on one runtime.  Each evaluation is one XISCAN → XSCAN
//! pipeline over every candidate segment, on the calling thread.
//!
//! Limitation (shared with the paper's segmented setup): segmented
//! evaluation is segment-local, so queries joining nodes that live in
//! *different* segments (Q2's triple value join) must use [`Storage::Whole`]
//! — the Table IX harness reports them as DNF, as the paper does.

use std::collections::HashMap;
use xqjg_store::{
    drain, new_stats_sink, Batch, BoxedOperator, ExecConfig, OpStats, Operator, StatsSink,
    VecSource,
};
use xqjg_xml::axis::{children_of, step};
use xqjg_xml::{Axis, DocTable, NodeKind, NodeTest, Pre};
use xqjg_xquery::interp::{compare_atoms, Atom};
use xqjg_xquery::{Condition, CoreExpr, GenCmp, Literal, Operand};

/// How the XML instance is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// One monolithic document per instance ("whole" in Table IX).
    Whole,
    /// Many small segments: the subtrees at the given depth become separate
    /// rows ("segmented" in Table IX).
    Segmented {
        /// Depth (from the document root) at which subtrees are cut into
        /// segments; XMark uses 2 (the children of `open_auctions`,
        /// `people`, …), DBLP uses 1 (individual publications).
        depth: u32,
    },
}

/// An XMLPATTERN-style value index: the string values of all nodes reached
/// by a fixed downward path, mapped to the segments containing them.
#[derive(Debug, Clone)]
pub struct PatternIndex {
    /// The indexed path, as a sequence of element names; a leading `@` marks
    /// an attribute component (only valid in the last position).
    pub path: Vec<String>,
    map: HashMap<String, Vec<usize>>,
}

/// The pureXML-style store: segment roots plus value indexes.
#[derive(Debug)]
pub struct PureXmlStore<'a> {
    doc: &'a DocTable,
    storage: Storage,
    segments: Vec<Pre>,
    indexes: Vec<PatternIndex>,
}

/// One pureXML query evaluation, described declaratively — the mirror of
/// the relational engine's `QueryRequest` builder.  Obtained from
/// [`PureXmlStore::query`]; knobs are opt-in, and [`XmlQueryRequest::run`]
/// returns the result node sequence plus the per-operator counters.
#[derive(Clone, Copy)]
pub struct XmlQueryRequest<'q, 'a> {
    store: &'q PureXmlStore<'a>,
    core: &'q CoreExpr,
    config: Option<&'q ExecConfig>,
}

impl<'q, 'a> XmlQueryRequest<'q, 'a> {
    /// Pin the execution knobs (default: [`ExecConfig::from_env`]).
    pub fn config(mut self, cfg: &'q ExecConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Evaluate through the XISCAN → XSCAN operator pipeline, returning
    /// the result node sequence and the per-operator counters.
    pub fn run(self) -> (Vec<Pre>, Vec<OpStats>) {
        let default_cfg;
        let cfg = match self.config {
            Some(c) => c,
            None => {
                default_cfg = ExecConfig::from_env();
                &default_cfg
            }
        };
        self.store.run_pipeline(self.core, cfg)
    }
}

impl<'a> PureXmlStore<'a> {
    /// Build a store over an encoded instance.
    pub fn new(doc: &'a DocTable, storage: Storage) -> Self {
        let segments = match storage {
            Storage::Whole => doc.document_roots(),
            Storage::Segmented { depth } => {
                let segs: Vec<Pre> = doc
                    .rows()
                    .filter(|r| r.level == depth && r.kind == NodeKind::Element)
                    .map(|r| Pre(r.pre))
                    .collect();
                if segs.is_empty() {
                    doc.document_roots()
                } else {
                    segs
                }
            }
        };
        PureXmlStore {
            doc,
            storage,
            segments,
            indexes: Vec::new(),
        }
    }

    /// Number of segments (rows) the instance was cut into.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The storage mode.
    pub fn storage(&self) -> Storage {
        self.storage
    }

    /// Create an XMLPATTERN value index on the given path (element names;
    /// a final `@name` component indexes attribute values).
    pub fn create_pattern_index(&mut self, path: &[&str]) {
        let mut map: HashMap<String, Vec<usize>> = HashMap::new();
        for (seg_id, &root) in self.segments.iter().enumerate() {
            for node in nodes_matching_path(self.doc, root, path) {
                let value = self.doc.string_value(node);
                map.entry(value).or_default().push(seg_id);
            }
        }
        for postings in map.values_mut() {
            postings.dedup();
        }
        self.indexes.push(PatternIndex {
            path: path.iter().map(|s| s.to_string()).collect(),
            map,
        });
    }

    /// Evaluate a query.  Returns the result node sequence plus the number
    /// of segments whose trees were traversed (the XSCAN effort).
    pub fn evaluate(&self, core: &CoreExpr) -> (Vec<Pre>, usize) {
        let (items, stats) = self.query(core).run();
        let scanned = stats
            .iter()
            .find(|o| o.name.starts_with("XSCAN"))
            .map(|o| o.rows_in)
            .unwrap_or(0);
        (items, scanned)
    }

    /// Start an [`XmlQueryRequest`] for this store — the mirror of the
    /// relational engine's `QueryRequest` builder and the single execution
    /// entry point of the pureXML side.
    pub fn query<'q>(&'q self, core: &'q CoreExpr) -> XmlQueryRequest<'q, 'a> {
        XmlQueryRequest {
            store: self,
            core,
            config: None,
        }
    }

    /// The XISCAN → XSCAN pipeline behind [`XmlQueryRequest::run`]: one
    /// pipeline over every candidate segment.  Both operators fill each
    /// batch before handing it on, so their batch counts are
    /// `ceil(rows_out / batch_capacity)`, the rule the relational
    /// executor's EXPLAIN reports.
    fn run_pipeline(&self, core: &CoreExpr, cfg: &ExecConfig) -> (Vec<Pre>, Vec<OpStats>) {
        let cap = cfg.batch_capacity.max(1);
        // XISCAN: try to narrow the candidate segments via an eligible
        // value-index lookup.
        let (candidates, name) = match self.eligible_lookup(core) {
            Some(segs) => (segs, "XISCAN(value index)"),
            None => ((0..self.segments.len()).collect(), "XISCAN(all segments)"),
        };
        let sink = new_stats_sink();
        let xiscan: XiScanOp =
            VecSource::new(name, candidates, Some(sink.clone())).with_batch_capacity(cap);
        // XSCAN: traverse the candidate segments.
        let mut xscan = XScanOp {
            store: self,
            core,
            input: Box::new(xiscan),
            pending: Vec::new(),
            ppos: 0,
            cap,
            stats: OpStats::named("XSCAN"),
            sink: sink.clone(),
        };
        let mut out = drain(&mut xscan);
        let stats = sink.take();
        out.sort();
        out.dedup();
        (out, stats)
    }

    /// Find a value comparison in the query that an index is eligible for
    /// and return the matching segment ids.
    fn eligible_lookup(&self, core: &CoreExpr) -> Option<Vec<usize>> {
        let mut found: Option<Vec<usize>> = None;
        visit_conditions(core, &mut |cond| {
            if found.is_some() {
                return;
            }
            if let Condition::Compare { lhs, op, rhs } = cond {
                let (path_op, lit, op) = match (lhs, rhs) {
                    (Operand::Nodes(e), Operand::Literal(l)) => (e, l, *op),
                    (Operand::Literal(l), Operand::Nodes(e)) => (e, l, flip(*op)),
                    _ => return,
                };
                let Some(names) = trailing_names(path_op) else {
                    return;
                };
                for index in &self.indexes {
                    if !path_suffix_matches(&index.path, &names) {
                        continue;
                    }
                    let lit_atom = literal_atom(lit);
                    let mut segs: Vec<usize> = Vec::new();
                    for (value, postings) in &index.map {
                        let atom = Atom {
                            string: value.clone(),
                            decimal: xqjg_xml::encoding::parse_decimal(value),
                            numeric_literal: false,
                        };
                        if compare_atoms(&atom, op, &lit_atom) {
                            segs.extend(postings.iter().copied());
                        }
                    }
                    segs.sort_unstable();
                    segs.dedup();
                    found = Some(segs);
                    return;
                }
            }
        });
        found
    }
}

/// XISCAN as an operator: emits the ids of candidate segments — either the
/// postings of an eligible `XMLPATTERN` value-index lookup or every segment
/// of the instance.  The candidate list is precomputed, so the store's
/// generic [`VecSource`] is the exact operator shape.
pub type XiScanOp = VecSource<usize>;

/// XSCAN as an operator: pulls candidate segment ids from its input and
/// performs the TurboXPath-style traversal of each segment's node tree,
/// emitting matching nodes.  `rows_in` counts the segments traversed (the
/// XSCAN effort reported in Table IX).
pub struct XScanOp<'a> {
    store: &'a PureXmlStore<'a>,
    core: &'a CoreExpr,
    input: BoxedOperator<'a, usize>,
    /// Matches of already-traversed segments, drained by cursor — batches
    /// are filled from this buffer with one bulk slice copy instead of a
    /// per-node queue pop.
    pending: Vec<Pre>,
    ppos: usize,
    cap: usize,
    stats: OpStats,
    sink: StatsSink,
}

impl XScanOp<'_> {
    /// Traverse one segment, buffering its matches.
    fn traverse(&mut self, seg_id: usize) {
        self.stats.rows_in += 1;
        let root = self.store.segments[seg_id];
        let mut env = HashMap::new();
        if let Ok(items) = eval_over_segment(self.core, self.store.doc, root, &mut env) {
            self.pending.extend(items);
        }
    }
}

impl Operator for XScanOp<'_> {
    type Item = Pre;

    fn open(&mut self) {
        self.input.open();
        self.pending.clear();
        self.ppos = 0;
    }

    fn next_batch(&mut self) -> Option<Batch<Pre>> {
        let mut out: Batch<Pre> = Batch::with_capacity(self.cap);
        loop {
            if self.ppos < self.pending.len() {
                self.ppos += out.fill_from_slice(&self.pending[self.ppos..]);
                if out.is_full() {
                    break;
                }
            }
            self.pending.clear();
            self.ppos = 0;
            match self.input.next_batch() {
                Some(batch) => {
                    for seg_id in batch {
                        self.traverse(seg_id);
                    }
                }
                None => break,
            }
        }
        if out.is_empty() {
            return None;
        }
        self.stats.rows_out += out.len();
        self.stats.batches += 1;
        Some(out)
    }

    fn close(&mut self) {
        self.input.close();
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

fn flip(op: GenCmp) -> GenCmp {
    match op {
        GenCmp::Lt => GenCmp::Gt,
        GenCmp::Le => GenCmp::Ge,
        GenCmp::Gt => GenCmp::Lt,
        GenCmp::Ge => GenCmp::Le,
        other => other,
    }
}

fn literal_atom(lit: &Literal) -> Atom {
    match lit {
        Literal::String(s) => Atom {
            string: s.clone(),
            decimal: xqjg_xml::encoding::parse_decimal(s),
            numeric_literal: false,
        },
        Literal::Integer(i) => Atom {
            string: i.to_string(),
            decimal: Some(*i as f64),
            numeric_literal: true,
        },
        Literal::Decimal(d) => Atom {
            string: d.to_string(),
            decimal: Some(*d),
            numeric_literal: true,
        },
    }
}

/// Walk every condition of a Core expression.
fn visit_conditions(core: &CoreExpr, f: &mut impl FnMut(&Condition)) {
    match core {
        CoreExpr::For { seq, body, .. } => {
            visit_conditions(seq, f);
            visit_conditions(body, f);
        }
        CoreExpr::Let { value, body, .. } => {
            visit_conditions(value, f);
            visit_conditions(body, f);
        }
        CoreExpr::Ddo(e) => visit_conditions(e, f),
        CoreExpr::Step { input, .. } => visit_conditions(input, f),
        CoreExpr::If { cond, then } => {
            f(cond);
            if let Condition::Exists(e) = cond.as_ref() {
                visit_conditions(e, f);
            }
            visit_conditions(then, f);
        }
        CoreExpr::Seq(items) => {
            for i in items {
                visit_conditions(i, f);
            }
        }
        CoreExpr::Var(_) | CoreExpr::Doc(_) | CoreExpr::Empty => {}
    }
}

/// The trailing child/attribute name-test components of a path expression
/// (ignoring its context), e.g. `$x/itemref/@item` → `["itemref", "@item"]`.
fn trailing_names(e: &CoreExpr) -> Option<Vec<String>> {
    match e {
        CoreExpr::Ddo(inner) => trailing_names(inner),
        CoreExpr::Step { input, axis, test } => {
            let name = match test {
                NodeTest::Name(Some(n)) => n.clone(),
                _ => return None,
            };
            let component = match axis {
                Axis::Child | Axis::Descendant => name,
                Axis::Attribute => format!("@{name}"),
                _ => return None,
            };
            let mut prefix = match input.as_ref() {
                CoreExpr::Var(_) | CoreExpr::Doc(_) => Vec::new(),
                other => trailing_names(other)?,
            };
            prefix.push(component);
            Some(prefix)
        }
        _ => None,
    }
}

/// Does the query path match the indexed path as a suffix?
fn path_suffix_matches(index_path: &[String], query_path: &[String]) -> bool {
    if query_path.is_empty() || query_path.len() > index_path.len() {
        return false;
    }
    index_path[index_path.len() - query_path.len()..] == *query_path
}

/// All nodes below `root` (inclusive) reached by the downward path.
fn nodes_matching_path(doc: &DocTable, root: Pre, path: &[&str]) -> Vec<Pre> {
    // The first component may match the segment root itself or any
    // descendant (pattern paths are anchored at the document root but the
    // segment is a subtree).
    let mut contexts = vec![root];
    for (i, component) in path.iter().enumerate() {
        let (axis, test) = if let Some(attr) = component.strip_prefix('@') {
            (Axis::Attribute, NodeTest::name(attr))
        } else if i == 0 {
            (
                Axis::DescendantOrSelf,
                NodeTest::Element(Some(component.to_string())),
            )
        } else {
            (Axis::Child, NodeTest::name(*component))
        };
        contexts = step(doc, &contexts, axis, &test);
        if contexts.is_empty() {
            break;
        }
    }
    contexts
}

/// Evaluate a Core expression with all document / absolute references
/// rebound to the given segment root (the XSCAN traversal).
fn eval_over_segment(
    core: &CoreExpr,
    doc: &DocTable,
    segment_root: Pre,
    env: &mut HashMap<String, Vec<Pre>>,
) -> Result<Vec<Pre>, xqjg_xquery::InterpError> {
    // A segment behaves like a small document whose root still sits on the
    // original root path: steps naming one of the segment's ancestors are
    // satisfied by that spine, the first step reaching into the segment is
    // relaxed to descendant-or-self.
    let ancestors = ancestor_names(doc, segment_root);
    let rebound = rebind_doc(core, &ancestors).0;
    let mut scoped = env.clone();
    scoped.insert("#segment".to_string(), vec![segment_root]);
    xqjg_xquery::interp::evaluate_with_env(&rebound, doc, &mut scoped)
}

/// Names of the ancestors of a segment root (the retained "spine").
fn ancestor_names(doc: &DocTable, root: Pre) -> std::collections::HashSet<String> {
    let mut out = std::collections::HashSet::new();
    let mut cur = root;
    while let Some(parent) = xqjg_xml::axis::parent_of(doc, cur) {
        if let Some(name) = &doc.row(parent).name {
            out.insert(name.to_string());
        }
        cur = parent;
    }
    out
}

/// Replace `doc(...)` leaves by a reference to the segment variable, drop
/// leading child steps that name an ancestor of the segment root (they are
/// satisfied by the spine), and relax the first step that reaches into the
/// segment to descendant-or-self.  Returns the rewritten expression plus a
/// flag telling the caller whether the expression is still "leading" (its
/// value is the rebound document context itself).
fn rebind_doc(core: &CoreExpr, ancestors: &std::collections::HashSet<String>) -> (CoreExpr, bool) {
    match core {
        CoreExpr::Doc(_) => (CoreExpr::Var("#segment".to_string()), true),
        CoreExpr::For { var, seq, body } => (
            CoreExpr::For {
                var: var.clone(),
                seq: Box::new(rebind_doc(seq, ancestors).0),
                body: Box::new(rebind_doc(body, ancestors).0),
            },
            false,
        ),
        CoreExpr::Let { var, value, body } => (
            CoreExpr::Let {
                var: var.clone(),
                value: Box::new(rebind_doc(value, ancestors).0),
                body: Box::new(rebind_doc(body, ancestors).0),
            },
            false,
        ),
        CoreExpr::Ddo(e) => {
            let (inner, leading) = rebind_doc(e, ancestors);
            (CoreExpr::Ddo(Box::new(inner)), leading)
        }
        CoreExpr::Step { input, axis, test } => {
            let (new_input, leading) = rebind_doc(input, ancestors);
            if leading {
                // Drop steps naming an ancestor on the spine.
                if *axis == Axis::Child {
                    if let NodeTest::Name(Some(n)) = test {
                        if ancestors.contains(n) {
                            return (new_input, true);
                        }
                    }
                }
                // Relax the first step into the segment.
                let new_axis = match axis {
                    Axis::Child | Axis::Descendant => Axis::DescendantOrSelf,
                    other => *other,
                };
                (
                    CoreExpr::Step {
                        input: Box::new(new_input),
                        axis: new_axis,
                        test: test.clone(),
                    },
                    false,
                )
            } else {
                (
                    CoreExpr::Step {
                        input: Box::new(new_input),
                        axis: *axis,
                        test: test.clone(),
                    },
                    false,
                )
            }
        }
        CoreExpr::If { cond, then } => (
            CoreExpr::If {
                cond: Box::new(rebind_condition(cond, ancestors)),
                then: Box::new(rebind_doc(then, ancestors).0),
            },
            false,
        ),
        CoreExpr::Seq(items) => (
            CoreExpr::Seq(items.iter().map(|i| rebind_doc(i, ancestors).0).collect()),
            false,
        ),
        CoreExpr::Var(v) => (CoreExpr::Var(v.clone()), false),
        CoreExpr::Empty => (CoreExpr::Empty, false),
    }
}

fn rebind_condition(cond: &Condition, ancestors: &std::collections::HashSet<String>) -> Condition {
    match cond {
        Condition::Exists(e) => Condition::Exists(rebind_doc(e, ancestors).0),
        Condition::Compare { lhs, op, rhs } => Condition::Compare {
            lhs: rebind_operand(lhs, ancestors),
            op: *op,
            rhs: rebind_operand(rhs, ancestors),
        },
    }
}

fn rebind_operand(op: &Operand, ancestors: &std::collections::HashSet<String>) -> Operand {
    match op {
        Operand::Nodes(e) => Operand::Nodes(rebind_doc(e, ancestors).0),
        Operand::Literal(l) => Operand::Literal(l.clone()),
    }
}

/// Count the nodes of every segment — a sanity metric mirroring the paper's
/// segment-size discussion.
pub fn average_segment_size(doc: &DocTable, storage: Storage) -> f64 {
    let store = PureXmlStore::new(doc, storage);
    if store.segments.is_empty() {
        return 0.0;
    }
    let total: usize = store
        .segments
        .iter()
        .map(|&p| doc.row(p).size as usize + 1)
        .sum();
    total as f64 / store.segments.len() as f64
}

/// Children of a segment root (exposed for tests and the harness).
pub fn segment_children(doc: &DocTable, root: Pre) -> Vec<Pre> {
    children_of(doc, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqjg_xquery::parse_and_normalize;

    fn instance() -> DocTable {
        let xml = r#"<site>
            <people>
              <person id="person0"><name>Alice</name></person>
              <person id="person1"><name>Bob</name></person>
            </people>
            <closed_auctions>
              <closed_auction><price>600</price></closed_auction>
              <closed_auction><price>100</price></closed_auction>
            </closed_auctions>
          </site>"#;
        DocTable::from_document("auction.xml", &xqjg_xml::parse_document(xml).unwrap())
    }

    #[test]
    fn whole_vs_segmented_segment_counts() {
        let doc = instance();
        let whole = PureXmlStore::new(&doc, Storage::Whole);
        assert_eq!(whole.segment_count(), 1);
        let seg = PureXmlStore::new(&doc, Storage::Segmented { depth: 3 });
        assert_eq!(seg.segment_count(), 4);
        assert!(average_segment_size(&doc, Storage::Segmented { depth: 3 }) < 10.0);
    }

    #[test]
    fn evaluation_matches_reference_interpreter() {
        let doc = instance();
        let core =
            parse_and_normalize("//closed_auction[price > 500]", Some("auction.xml")).unwrap();
        let expected = xqjg_xquery::interpret(&core, &doc).unwrap();
        for storage in [Storage::Whole, Storage::Segmented { depth: 3 }] {
            let store = PureXmlStore::new(&doc, storage);
            let (got, _) = store.evaluate(&core);
            assert_eq!(got, expected, "{storage:?}");
        }
    }

    #[test]
    fn pattern_index_narrows_the_scan() {
        let doc = instance();
        let mut store = PureXmlStore::new(&doc, Storage::Segmented { depth: 3 });
        store.create_pattern_index(&["person", "@id"]);
        let core = parse_and_normalize(
            r#"/site/people/person[@id = "person0"]/name/text()"#,
            Some("auction.xml"),
        )
        .unwrap();
        let (items, scanned) = store.evaluate(&core);
        assert_eq!(items.len(), 1);
        assert_eq!(scanned, 1, "only the matching segment is traversed");
        // Without the index every segment is traversed.
        let bare = PureXmlStore::new(&doc, Storage::Segmented { depth: 3 });
        let (items2, scanned2) = bare.evaluate(&core);
        assert_eq!(items2, items);
        assert_eq!(scanned2, 4);
    }

    #[test]
    fn range_lookup_via_value_index() {
        let doc = instance();
        let mut store = PureXmlStore::new(&doc, Storage::Segmented { depth: 3 });
        store.create_pattern_index(&["closed_auction", "price"]);
        let core =
            parse_and_normalize("//closed_auction[price > 500]", Some("auction.xml")).unwrap();
        let (items, scanned) = store.evaluate(&core);
        assert_eq!(items.len(), 1);
        assert_eq!(scanned, 1);
    }

    #[test]
    fn operator_pipeline_reports_xiscan_and_xscan_stats() {
        let doc = instance();
        let mut store = PureXmlStore::new(&doc, Storage::Segmented { depth: 3 });
        store.create_pattern_index(&["closed_auction", "price"]);
        let core =
            parse_and_normalize("//closed_auction[price > 500]", Some("auction.xml")).unwrap();
        let (items, stats) = store.query(&core).run();
        assert_eq!(items.len(), 1);
        assert_eq!(stats.len(), 2, "XISCAN and XSCAN both report");
        let xiscan = &stats[0];
        let xscan = &stats[1];
        assert!(xiscan.name.starts_with("XISCAN(value index)"));
        assert_eq!(xiscan.rows_out, 1, "index narrows to one segment");
        assert_eq!(xscan.rows_in, 1, "one segment traversed");
        assert_eq!(xscan.rows_out, 1);
        assert!(xiscan.batches > 0 && xscan.batches > 0);
        // Without an index the XISCAN enumerates all segments.
        let bare = PureXmlStore::new(&doc, Storage::Segmented { depth: 3 });
        let (_, bare_stats) = bare.query(&core).run();
        assert!(bare_stats[0].name.starts_with("XISCAN(all segments)"));
        assert_eq!(bare_stats[0].rows_out, 4);
    }

    #[test]
    fn batch_capacity_changes_only_batch_counts() {
        let doc = instance();
        let mut store = PureXmlStore::new(&doc, Storage::Segmented { depth: 3 });
        store.create_pattern_index(&["closed_auction", "price"]);
        for query in [
            "//closed_auction[price > 500]",
            "/site/people/person/name/text()",
        ] {
            let core = parse_and_normalize(query, Some("auction.xml")).unwrap();
            let reference = store.query(&core).config(&ExecConfig::sequential()).run();
            // Capacity 1 puts every candidate segment in a batch of its own.
            let cfg = ExecConfig::sequential().with_batch_capacity(1);
            let got = store.query(&core).config(&cfg).run();
            assert_eq!(got.0, reference.0, "{query} items");
            let sans_batches = |ops: &[OpStats]| -> Vec<OpStats> {
                ops.iter()
                    .map(|o| OpStats {
                        batches: 0,
                        ..o.clone()
                    })
                    .collect()
            };
            assert_eq!(sans_batches(&got.1), sans_batches(&reference.1), "{query}");
            for op in &got.1 {
                assert_eq!(op.batches, op.rows_out, "{query} {}", op.name);
            }
        }
    }

    #[test]
    fn path_matching_helpers() {
        assert!(path_suffix_matches(
            &["person".into(), "@id".into()],
            &["@id".into()]
        ));
        assert!(!path_suffix_matches(
            &["person".into(), "@id".into()],
            &["name".into()]
        ));
        let doc = instance();
        let persons = nodes_matching_path(&doc, Pre(0), &["person", "@id"]);
        assert_eq!(persons.len(), 2);
    }
}
