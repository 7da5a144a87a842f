//! Pipelined evaluation of algebra plans.
//!
//! Historically every operator here materialized its full result table —
//! the staged execution (SORT → temporary table → scan) a relational
//! back-end falls back to for the compiler's *stacked* plans.  The
//! evaluator now runs on the same pull-based [`Operator`] substrate as the
//! join-graph executor: single-parent operator chains stream fixed-capacity
//! row [`Batch`]es (σ, π, `@`, `#`, δ all pipeline), and only genuine
//! pipeline breakers (ϱ, the serialization sort, join/cross build sides)
//! and *shared* DAG sub-plans buffer rows.  The evaluator still doubles as
//!
//! 1. the semantics reference for the rewriter (isolation must not change
//!    the evaluated result), and
//! 2. the "DB2 + Pathfinder, stacked" baseline column of Table IX — the
//!    per-operator [`OpStats`] reproduce the old materialized-row
//!    accounting exactly (each DAG node is counted once).

use crate::ir::{CmpOp, Comparison, OpId, OpKind, Plan, Predicate, Scalar};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use xqjg_store::{
    drain, fill_from_pending, hash_values, new_stats_sink, Batch, BoxedOperator, OpStats, Operator,
    Row, Schema, StatsSink, Table, Value,
};

/// Evaluation context: the base relations a plan may reference.
pub struct EvalContext<'a> {
    /// The XML infoset encoding relation (`doc`).
    pub doc: &'a Table,
}

/// One algebra-plan evaluation, described declaratively — the mirror of
/// the relational engine's `QueryRequest` builder for the stacked-plan
/// side.  [`AlgebraRequest::run`] returns the result table plus the
/// per-operator work counters (one entry per reachable DAG node, upstream
/// operators first).
#[derive(Clone, Copy)]
pub struct AlgebraRequest<'a> {
    plan: &'a Plan,
    ctx: &'a EvalContext<'a>,
}

impl<'a> AlgebraRequest<'a> {
    /// A request to evaluate `plan` against the base relations in `ctx`.
    pub fn new(plan: &'a Plan, ctx: &'a EvalContext<'a>) -> AlgebraRequest<'a> {
        AlgebraRequest { plan, ctx }
    }

    /// Evaluate the plan, returning the result table and the per-operator
    /// counters.
    pub fn run(self) -> (Table, Vec<OpStats>) {
        let sink = new_stats_sink();
        let mut builder = Builder::new(self.plan, self.ctx, sink.clone());
        let (schema, mut root) = builder.build(self.plan.root());
        let rows = drain(&mut *root);
        let stats = sink.borrow().clone();
        (Table::from_rows(schema, rows), stats)
    }
}

/// Evaluate a plan to its result table (the table produced at the
/// serialization point).
pub fn evaluate(plan: &Plan, ctx: &EvalContext<'_>) -> Table {
    AlgebraRequest::new(plan, ctx).run().0
}

/// Number of rows produced across all operators (a simple work metric used
/// by the benchmarks to contrast stacked and isolated plans).  Shared DAG
/// nodes are counted once, matching the memoized evaluation the metric was
/// defined over.
pub fn materialized_rows(plan: &Plan, ctx: &EvalContext<'_>) -> usize {
    AlgebraRequest::new(plan, ctx)
        .run()
        .1
        .iter()
        .map(|o| o.rows_out)
        .sum()
}

/// Operator-tree builder: walks the plan DAG, streaming along single-parent
/// edges and materializing each shared sub-plan exactly once.
struct Builder<'a> {
    plan: &'a Plan,
    ctx: &'a EvalContext<'a>,
    /// Nodes referenced by more than one parent edge.
    shared: HashSet<OpId>,
    /// Results of already-materialized shared nodes.
    memo: HashMap<OpId, (Schema, Rc<Vec<Row>>)>,
    sink: StatsSink,
}

impl<'a> Builder<'a> {
    fn new(plan: &'a Plan, ctx: &'a EvalContext<'a>, sink: StatsSink) -> Self {
        let shared = plan
            .parents()
            .into_iter()
            .filter(|(_, ps)| ps.len() > 1)
            .map(|(id, _)| id)
            .collect();
        Builder {
            plan,
            ctx,
            shared,
            memo: HashMap::new(),
            sink,
        }
    }

    /// Build the operator (sub)tree rooted at `id`, returning its output
    /// schema and root operator.
    fn build(&mut self, id: OpId) -> (Schema, BoxedOperator<'a, Row>) {
        if self.shared.contains(&id) {
            let (schema, rows) = self.materialize(id);
            let op = SharedSource {
                rows,
                pos: 0,
                stats: OpStats::named(format!("shared {}", self.plan.op(id).label())),
            };
            return (schema, Box::new(op));
        }
        self.build_fresh(id)
    }

    /// Evaluate a shared node once, caching its rows.  The node's own
    /// operators report their stats during this drain, so the metric counts
    /// it a single time no matter how many parents consume it.
    fn materialize(&mut self, id: OpId) -> (Schema, Rc<Vec<Row>>) {
        if let Some((schema, rows)) = self.memo.get(&id) {
            return (schema.clone(), rows.clone());
        }
        let (schema, mut op) = self.build_fresh(id);
        let rows = Rc::new(drain(&mut *op));
        self.memo.insert(id, (schema.clone(), rows.clone()));
        (schema, rows)
    }

    fn build_fresh(&mut self, id: OpId) -> (Schema, BoxedOperator<'a, Row>) {
        let kind = self.plan.op(id);
        let name = kind.label();
        match kind {
            OpKind::DocTable => {
                let op = SliceSource {
                    rows: self.ctx.doc.rows(),
                    pos: 0,
                    stats: OpStats::named(name),
                    sink: self.sink.clone(),
                };
                (self.ctx.doc.schema().clone(), Box::new(op))
            }
            OpKind::Literal { columns, rows } => {
                let op = SliceSource {
                    rows,
                    pos: 0,
                    stats: OpStats::named(name),
                    sink: self.sink.clone(),
                };
                (Schema::new(columns.clone()), Box::new(op))
            }
            OpKind::Select { input, pred } => {
                let (schema, child) = self.build(*input);
                let s = schema.clone();
                let op = Box::new(FilterOp {
                    input: child,
                    pred: Box::new(move |row: &Row| eval_predicate(pred, row, &s)),
                    sel: Vec::new(),
                    stats: OpStats::named(name),
                    sink: self.sink.clone(),
                });
                (schema, op)
            }
            OpKind::Project { input, cols } => {
                let (schema, child) = self.build(*input);
                let indices: Vec<usize> = cols
                    .iter()
                    .map(|(_, old)| schema.expect_index(old))
                    .collect();
                let out_schema = Schema::new(cols.iter().map(|(new, _)| new.clone()));
                let op = self.map_filter(name, child, move |row: Row| {
                    Some(indices.iter().map(|&i| row[i].clone()).collect())
                });
                (out_schema, op)
            }
            OpKind::Distinct { input } => {
                let (schema, child) = self.build(*input);
                let mut seen: HashSet<Row> = HashSet::new();
                let op = self.map_filter(name, child, move |row| {
                    seen.insert(row.clone()).then_some(row)
                });
                (schema, op)
            }
            OpKind::Attach { input, col, value } => {
                let (schema, child) = self.build(*input);
                let out_schema = append_column(&schema, col);
                let op = self.map_filter(name, child, move |mut row| {
                    row.push(value.clone());
                    Some(row)
                });
                (out_schema, op)
            }
            OpKind::RowNum { input, col } => {
                let (schema, child) = self.build(*input);
                let out_schema = append_column(&schema, col);
                let mut next = 0i64;
                let op = self.map_filter(name, child, move |mut row| {
                    next += 1;
                    row.push(Value::Int(next));
                    Some(row)
                });
                (out_schema, op)
            }
            OpKind::Rank {
                input,
                col,
                order_by,
            } => {
                let (schema, child) = self.build(*input);
                let key_idx: Vec<usize> = order_by.iter().map(|c| schema.expect_index(c)).collect();
                let out_schema = append_column(&schema, col);
                let op = Blocking {
                    input: child,
                    finalize: Some(Box::new(move |rows| rank_rows(rows, &key_idx))),
                    rows: Vec::new().into_iter(),
                    stats: OpStats::named(name),
                    sink: self.sink.clone(),
                };
                (out_schema, Box::new(op))
            }
            OpKind::Serialize { input } => {
                let (schema, child) = self.build(*input);
                // Order the encoding of the result: by iteration, then by
                // sequence position (only the columns that exist
                // participate).
                let key_idx: Vec<usize> = ["iter", "pos", "item"]
                    .iter()
                    .filter_map(|c| schema.index_of(c))
                    .collect();
                let op = Blocking {
                    input: child,
                    finalize: Some(Box::new(move |mut rows: Vec<Row>| {
                        rows.sort_by(|a, b| {
                            for &i in &key_idx {
                                let o = a[i].cmp(&b[i]);
                                if o != std::cmp::Ordering::Equal {
                                    return o;
                                }
                            }
                            std::cmp::Ordering::Equal
                        });
                        rows
                    })),
                    rows: Vec::new().into_iter(),
                    stats: OpStats::named(name),
                    sink: self.sink.clone(),
                };
                (schema, Box::new(op))
            }
            OpKind::Cross { left, right } => {
                let (ls, lop) = self.build(*left);
                let (rs, rop) = self.build(*right);
                let out_schema = concat_schemas(&ls, &rs);
                let op = JoinStream {
                    left: lop,
                    right: Some(rop),
                    left_schema: ls,
                    right_schema: rs,
                    right_rows: Vec::new(),
                    keys: None,
                    residual: Vec::new(),
                    buckets: HashMap::new(),
                    pending: VecDeque::new(),
                    stats: OpStats::named(name),
                    sink: self.sink.clone(),
                };
                (out_schema, Box::new(op))
            }
            OpKind::Join { left, right, pred } => {
                let (ls, lop) = self.build(*left);
                let (rs, rop) = self.build(*right);
                let out_schema = concat_schemas(&ls, &rs);
                // Split the predicate into hashable equi-conjuncts (left
                // column = right column) and the rest.
                let mut left_keys: Vec<usize> = Vec::new();
                let mut right_keys: Vec<usize> = Vec::new();
                let mut residual: Vec<Comparison> = Vec::new();
                for c in &pred.conjuncts {
                    if let Some((a, b)) = c.as_col_eq_col() {
                        match (ls.index_of(a), rs.index_of(b)) {
                            (Some(li), Some(ri)) => {
                                left_keys.push(li);
                                right_keys.push(ri);
                                continue;
                            }
                            _ => {
                                if let (Some(li), Some(ri)) = (ls.index_of(b), rs.index_of(a)) {
                                    left_keys.push(li);
                                    right_keys.push(ri);
                                    continue;
                                }
                            }
                        }
                    }
                    residual.push(c.clone());
                }
                let keys = (!left_keys.is_empty()).then_some((left_keys, right_keys));
                let op = JoinStream {
                    left: lop,
                    right: Some(rop),
                    left_schema: ls,
                    right_schema: rs,
                    right_rows: Vec::new(),
                    keys,
                    residual,
                    buckets: HashMap::new(),
                    pending: VecDeque::new(),
                    stats: OpStats::named(name),
                    sink: self.sink.clone(),
                };
                (out_schema, Box::new(op))
            }
        }
    }

    /// Wrap a streaming row transform (≤ 1 output row per input row) into
    /// an operator.
    fn map_filter(
        &self,
        name: String,
        input: BoxedOperator<'a, Row>,
        f: impl FnMut(Row) -> Option<Row> + 'a,
    ) -> BoxedOperator<'a, Row> {
        Box::new(MapFilter {
            input,
            f: Box::new(f),
            stats: OpStats::named(name),
            sink: self.sink.clone(),
        })
    }
}

fn append_column(schema: &Schema, col: &str) -> Schema {
    let mut columns: Vec<String> = schema.columns().to_vec();
    columns.push(col.to_string());
    Schema::new(columns)
}

fn concat_schemas(left: &Schema, right: &Schema) -> Schema {
    let mut columns: Vec<String> = left.columns().to_vec();
    columns.extend(right.columns().iter().cloned());
    Schema::new(columns)
}

/// Source over borrowed rows (the `doc` relation, literal tables).
struct SliceSource<'a> {
    rows: &'a [Row],
    pos: usize,
    stats: OpStats,
    sink: StatsSink,
}

impl Operator for SliceSource<'_> {
    type Item = Row;

    fn open(&mut self) {
        self.pos = 0;
    }

    fn next_batch(&mut self) -> Option<Batch<Row>> {
        if self.pos >= self.rows.len() {
            return None;
        }
        let mut batch: Batch<Row> = Batch::new();
        self.pos += batch.fill_from_slice(&self.rows[self.pos..]);
        self.stats.rows_out += batch.len();
        self.stats.batches += 1;
        Some(batch)
    }

    fn close(&mut self) {
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Source over the memoized rows of a shared sub-plan.  Does not report to
/// the stats sink: the shared node's own operators were counted when it was
/// materialized.
struct SharedSource {
    rows: Rc<Vec<Row>>,
    pos: usize,
    stats: OpStats,
}

impl Operator for SharedSource {
    type Item = Row;

    fn open(&mut self) {
        self.pos = 0;
    }

    fn next_batch(&mut self) -> Option<Batch<Row>> {
        if self.pos >= self.rows.len() {
            return None;
        }
        let mut batch: Batch<Row> = Batch::new();
        self.pos += batch.fill_from_slice(&self.rows[self.pos..]);
        self.stats.rows_out += batch.len();
        self.stats.batches += 1;
        Some(batch)
    }

    fn close(&mut self) {}

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Vectorized selection: evaluates the predicate over *borrowed* rows into
/// a reusable selection vector, then compacts the batch in place — the
/// batch allocation survives, surviving rows are moved at most once, and
/// dropped rows are never re-materialized (the row-batch analogue of the
/// engine's columnar selection vectors).
struct FilterOp<'a> {
    input: BoxedOperator<'a, Row>,
    #[allow(clippy::type_complexity)]
    pred: Box<dyn FnMut(&Row) -> bool + 'a>,
    /// Reusable selection vector.
    sel: Vec<u32>,
    stats: OpStats,
    sink: StatsSink,
}

impl Operator for FilterOp<'_> {
    type Item = Row;

    fn open(&mut self) {
        self.input.open();
    }

    fn next_batch(&mut self) -> Option<Batch<Row>> {
        loop {
            let mut batch = self.input.next_batch()?;
            self.stats.rows_in += batch.len();
            self.sel.clear();
            for (i, row) in batch.items().iter().enumerate() {
                if (self.pred)(row) {
                    self.sel.push(i as u32);
                }
            }
            // All rows surviving is the common case on XML predicates that
            // were already pushed into the scan: skip the compaction pass.
            if self.sel.len() < batch.len() {
                batch.retain_selected(&self.sel);
            }
            if !batch.is_empty() {
                self.stats.rows_out += batch.len();
                self.stats.batches += 1;
                return Some(batch);
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Streaming row transform: selection, projection, column attachment, row
/// numbering and duplicate elimination all produce at most one output row
/// per input row and pipeline without buffering.
struct MapFilter<'a> {
    input: BoxedOperator<'a, Row>,
    f: Box<dyn FnMut(Row) -> Option<Row> + 'a>,
    stats: OpStats,
    sink: StatsSink,
}

impl Operator for MapFilter<'_> {
    type Item = Row;

    fn open(&mut self) {
        self.input.open();
    }

    fn next_batch(&mut self) -> Option<Batch<Row>> {
        loop {
            let batch = self.input.next_batch()?;
            self.stats.rows_in += batch.len();
            let mut out: Batch<Row> = Batch::new();
            for row in batch {
                if let Some(r) = (self.f)(row) {
                    out.push(r);
                }
            }
            if !out.is_empty() {
                self.stats.rows_out += out.len();
                self.stats.batches += 1;
                return Some(out);
            }
        }
    }

    fn close(&mut self) {
        self.input.close();
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Pipeline breaker: buffers its whole input at `open`, applies a
/// finalization pass (rank assignment, the serialization sort) and emits
/// the result in batches.
struct Blocking<'a> {
    input: BoxedOperator<'a, Row>,
    #[allow(clippy::type_complexity)]
    finalize: Option<Box<dyn FnOnce(Vec<Row>) -> Vec<Row> + 'a>>,
    /// The finalized output, handed out by value batch-by-batch.
    rows: std::vec::IntoIter<Row>,
    stats: OpStats,
    sink: StatsSink,
}

impl Operator for Blocking<'_> {
    type Item = Row;

    fn open(&mut self) {
        self.input.open();
        let mut buf = Vec::new();
        while let Some(batch) = self.input.next_batch() {
            self.stats.rows_in += batch.len();
            buf.extend(batch);
        }
        self.stats.build_rows = buf.len();
        let finalize = self.finalize.take().expect("blocking operator opened once");
        self.rows = finalize(buf).into_iter();
    }

    fn next_batch(&mut self) -> Option<Batch<Row>> {
        // Move the buffered rows out — no second clone of the result set.
        let items: Vec<Row> = self
            .rows
            .by_ref()
            .take(xqjg_store::BATCH_CAPACITY)
            .collect();
        if items.is_empty() {
            return None;
        }
        let batch = Batch::from_items(items);
        self.stats.rows_out += batch.len();
        self.stats.batches += 1;
        Some(batch)
    }

    fn close(&mut self) {
        self.input.close();
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Join / cross product: the right (build) side is drained once at `open`
/// — bucketed by borrowed-key hash when equi-keys exist — and the left
/// (probe) side streams through.
struct JoinStream<'a> {
    left: BoxedOperator<'a, Row>,
    right: Option<BoxedOperator<'a, Row>>,
    left_schema: Schema,
    right_schema: Schema,
    right_rows: Vec<Row>,
    /// `(left key indices, right key indices)` for hash joins; `None`
    /// nested-loops over the buffered right side (theta join / cross).
    keys: Option<(Vec<usize>, Vec<usize>)>,
    residual: Vec<Comparison>,
    buckets: HashMap<u64, Vec<usize>>,
    pending: VecDeque<Row>,
    stats: OpStats,
    sink: StatsSink,
}

impl JoinStream<'_> {
    fn probe(&mut self, lr: &Row, pending: &mut VecDeque<Row>) {
        self.stats.probes += 1;
        match &self.keys {
            Some((left_keys, right_keys)) => {
                if left_keys.iter().any(|&k| lr[k].is_null()) {
                    return;
                }
                let h = hash_values(left_keys.iter().map(|&k| &lr[k]));
                let Some(candidates) = self.buckets.get(&h) else {
                    return;
                };
                for &ri in candidates {
                    let rr = &self.right_rows[ri];
                    // Resolve hash collisions by borrowed-value comparison.
                    let keys_match = left_keys
                        .iter()
                        .zip(right_keys)
                        .all(|(&lk, &rk)| lr[lk] == rr[rk]);
                    if !keys_match {
                        continue;
                    }
                    if join_residual_holds(
                        &self.residual,
                        lr,
                        &self.left_schema,
                        rr,
                        &self.right_schema,
                    ) {
                        let mut row = lr.clone();
                        row.extend(rr.iter().cloned());
                        pending.push_back(row);
                    }
                }
            }
            None => {
                for rr in &self.right_rows {
                    if join_residual_holds(
                        &self.residual,
                        lr,
                        &self.left_schema,
                        rr,
                        &self.right_schema,
                    ) {
                        let mut row = lr.clone();
                        row.extend(rr.iter().cloned());
                        pending.push_back(row);
                    }
                }
            }
        }
    }
}

impl Operator for JoinStream<'_> {
    type Item = Row;

    fn open(&mut self) {
        self.left.open();
        let mut right = self.right.take().expect("join opened once");
        self.right_rows = drain(&mut *right);
        self.stats.build_rows = self.right_rows.len();
        if let Some((_, right_keys)) = &self.keys {
            for (i, rr) in self.right_rows.iter().enumerate() {
                if right_keys.iter().any(|&k| rr[k].is_null()) {
                    continue;
                }
                let h = hash_values(right_keys.iter().map(|&k| &rr[k]));
                self.buckets.entry(h).or_default().push(i);
            }
        }
    }

    fn next_batch(&mut self) -> Option<Batch<Row>> {
        let mut pending = std::mem::take(&mut self.pending);
        let out = fill_from_pending(&mut pending, |p| match self.left.next_batch() {
            Some(batch) => {
                self.stats.rows_in += batch.len();
                for lr in batch {
                    self.probe(&lr, p);
                }
                true
            }
            None => false,
        });
        self.pending = pending;
        let out = out?;
        self.stats.rows_out += out.len();
        self.stats.batches += 1;
        Some(out)
    }

    fn close(&mut self) {
        self.left.close();
        self.sink.borrow_mut().push(self.stats.clone());
    }

    fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// RANK() OVER (ORDER BY keys) semantics: equal ranking keys receive the
/// same rank value; ranks are 1-based and not necessarily dense.  The
/// output retains the input row order with the rank column appended.
fn rank_rows(rows: Vec<Row>, key_idx: &[usize]) -> Vec<Row> {
    // Sort row indices by the ranking key (stable).
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| {
        for &i in key_idx {
            let o = rows[a][i].cmp(&rows[b][i]);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    // Assign RANK values.
    let mut ranks = vec![0i64; rows.len()];
    let mut current_rank = 0i64;
    for (pos, &row_idx) in order.iter().enumerate() {
        let same_as_prev = pos > 0
            && key_idx
                .iter()
                .all(|&i| rows[order[pos - 1]][i] == rows[row_idx][i]);
        if !same_as_prev {
            current_rank = pos as i64 + 1;
        }
        ranks[row_idx] = current_rank;
    }
    rows.into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            r.push(Value::Int(ranks[i]));
            r
        })
        .collect()
}

fn join_residual_holds(
    residual: &[Comparison],
    lr: &Row,
    ls: &Schema,
    rr: &Row,
    rs: &Schema,
) -> bool {
    residual.iter().all(|c| {
        let lhs = eval_scalar_two_sided(&c.lhs, lr, ls, rr, rs);
        let rhs = eval_scalar_two_sided(&c.rhs, lr, ls, rr, rs);
        match lhs.sql_cmp(&rhs) {
            Some(ord) => c.op.eval(ord),
            None => false,
        }
    })
}

/// Evaluate a scalar against the concatenation of a left and right row.
fn eval_scalar_two_sided(s: &Scalar, lr: &Row, ls: &Schema, rr: &Row, rs: &Schema) -> Value {
    match s {
        Scalar::Const(v) => v.clone(),
        Scalar::Col(c) => {
            if let Some(i) = ls.index_of(c) {
                lr[i].clone()
            } else if let Some(i) = rs.index_of(c) {
                rr[i].clone()
            } else {
                panic!("column {c:?} not found in join inputs {ls} / {rs}")
            }
        }
        Scalar::Add(a, b) => eval_scalar_two_sided(a, lr, ls, rr, rs)
            .numeric_add(&eval_scalar_two_sided(b, lr, ls, rr, rs)),
    }
}

/// Evaluate a scalar against a single row.
pub fn eval_scalar(s: &Scalar, row: &Row, schema: &Schema) -> Value {
    match s {
        Scalar::Const(v) => v.clone(),
        Scalar::Col(c) => row[schema.expect_index(c)].clone(),
        Scalar::Add(a, b) => eval_scalar(a, row, schema).numeric_add(&eval_scalar(b, row, schema)),
    }
}

/// Evaluate a conjunctive predicate against a single row (NULL comparisons
/// are false, as in SQL).
pub fn eval_predicate(pred: &Predicate, row: &Row, schema: &Schema) -> bool {
    pred.conjuncts.iter().all(|c| {
        let lhs = eval_scalar(&c.lhs, row, schema);
        let rhs = eval_scalar(&c.rhs, row, schema);
        match lhs.sql_cmp(&rhs) {
            Some(ord) => c.op.eval(ord),
            None => false,
        }
    })
}

/// Numeric addition with Int/Dec promotion; NULL-propagating (delegates to
/// [`Value::numeric_add`], the shared `+` semantics).
pub fn add_values(a: &Value, b: &Value) -> Value {
    a.numeric_add(b)
}

/// Evaluate a single comparison operator on two values (used by the
/// reference interpreter and the pureXML baseline as well).
pub fn compare_values(a: &Value, op: CmpOp, b: &Value) -> bool {
    match a.sql_cmp(b) {
        Some(ord) => op.eval(ord),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Comparison;

    fn doc_fixture() -> Table {
        // A tiny stand-in for the doc relation: pre, size, level, kind, name.
        let mut t = Table::new(Schema::new([
            "pre", "size", "level", "kind", "name", "value", "data",
        ]));
        type FixtureRow = (
            i64,
            i64,
            i64,
            &'static str,
            Option<&'static str>,
            Option<&'static str>,
            Option<f64>,
        );
        let rows: Vec<FixtureRow> = vec![
            (0, 3, 0, "DOC", Some("d.xml"), None, None),
            (1, 2, 1, "ELEM", Some("a"), None, None),
            (2, 1, 2, "ELEM", Some("b"), Some("7"), Some(7.0)),
            (3, 0, 3, "TEXT", None, Some("7"), Some(7.0)),
        ];
        for (pre, size, level, kind, name, value, data) in rows {
            t.push(vec![
                Value::Int(pre),
                Value::Int(size),
                Value::Int(level),
                Value::str(kind),
                name.map(Value::str).unwrap_or(Value::Null),
                value.map(Value::str).unwrap_or(Value::Null),
                data.map(Value::Dec).unwrap_or(Value::Null),
            ]);
        }
        t
    }

    #[test]
    fn select_project_pipeline() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let d = p.add(OpKind::DocTable);
        let s = p.add(OpKind::Select {
            input: d,
            pred: Predicate::single(Comparison::col_eq_const("kind", "ELEM")),
        });
        let pr = p.add(OpKind::Project {
            input: s,
            cols: vec![("item".to_string(), "pre".to_string())],
        });
        let root = p.add(OpKind::Serialize { input: pr });
        p.set_root(root);
        let out = evaluate(&p, &EvalContext { doc: &doc });
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], vec![Value::Int(1)]);
    }

    #[test]
    fn join_with_range_predicate_implements_descendant() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let d1 = p.add(OpKind::DocTable);
        let ctx = p.add(OpKind::Select {
            input: d1,
            pred: Predicate::single(Comparison::col_eq_const("kind", "DOC")),
        });
        let ctx_proj = p.add(OpKind::Project {
            input: ctx,
            cols: vec![
                ("pre0".to_string(), "pre".to_string()),
                ("size0".to_string(), "size".to_string()),
            ],
        });
        let d2 = p.add(OpKind::DocTable);
        let join = p.add(OpKind::Join {
            left: d2,
            right: ctx_proj,
            pred: Predicate::all([
                Comparison::new(Scalar::col("pre0"), CmpOp::Lt, Scalar::col("pre")),
                Comparison::new(
                    Scalar::col("pre"),
                    CmpOp::Le,
                    Scalar::col("pre0") + Scalar::col("size0"),
                ),
            ]),
        });
        let root = p.add(OpKind::Serialize { input: join });
        p.set_root(root);
        let out = evaluate(&p, &EvalContext { doc: &doc });
        // Descendants of the DOC node: pre 1, 2, 3.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn hash_join_on_equality() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let lit = p.add(OpKind::Literal {
            columns: vec!["iter".to_string(), "item".to_string()],
            rows: vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Int(3)],
            ],
        });
        let d = p.add(OpKind::DocTable);
        let join = p.add(OpKind::Join {
            left: d,
            right: lit,
            pred: Predicate::single(Comparison::col_eq_col("pre", "item")),
        });
        let root = p.add(OpKind::Serialize { input: join });
        p.set_root(root);
        let out = evaluate(&p, &EvalContext { doc: &doc });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn rank_assigns_order_based_positions() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let lit = p.add(OpKind::Literal {
            columns: vec!["iter".to_string(), "item".to_string()],
            rows: vec![
                vec![Value::Int(1), Value::Int(30)],
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(10)],
            ],
        });
        let rank = p.add(OpKind::Rank {
            input: lit,
            col: "pos".to_string(),
            order_by: vec!["item".to_string()],
        });
        let root = p.add(OpKind::Serialize { input: rank });
        p.set_root(root);
        let out = evaluate(&p, &EvalContext { doc: &doc });
        // Both item=10 rows get rank 1; item=30 gets rank 3.
        let pos_idx = out.schema().expect_index("pos");
        let item_idx = out.schema().expect_index("item");
        for r in out.rows() {
            if r[item_idx] == Value::Int(10) {
                assert_eq!(r[pos_idx], Value::Int(1));
            } else {
                assert_eq!(r[pos_idx], Value::Int(3));
            }
        }
    }

    #[test]
    fn rownum_attach_distinct_cross() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let lit = p.add(OpKind::Literal {
            columns: vec!["x".to_string()],
            rows: vec![vec![Value::Int(5)], vec![Value::Int(5)]],
        });
        let dis = p.add(OpKind::Distinct { input: lit });
        let att = p.add(OpKind::Attach {
            input: dis,
            col: "c".to_string(),
            value: Value::str("k"),
        });
        let num = p.add(OpKind::RowNum {
            input: att,
            col: "id".to_string(),
        });
        let lit2 = p.add(OpKind::Literal {
            columns: vec!["y".to_string()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        });
        let cross = p.add(OpKind::Cross {
            left: num,
            right: lit2,
        });
        let root = p.add(OpKind::Serialize { input: cross });
        p.set_root(root);
        let out = evaluate(&p, &EvalContext { doc: &doc });
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().columns(), &["x", "c", "id", "y"]);
    }

    #[test]
    fn serialize_orders_by_iter_pos() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let lit = p.add(OpKind::Literal {
            columns: vec!["iter".to_string(), "pos".to_string(), "item".to_string()],
            rows: vec![
                vec![Value::Int(2), Value::Int(1), Value::Int(9)],
                vec![Value::Int(1), Value::Int(2), Value::Int(8)],
                vec![Value::Int(1), Value::Int(1), Value::Int(7)],
            ],
        });
        let root = p.add(OpKind::Serialize { input: lit });
        p.set_root(root);
        let out = evaluate(&p, &EvalContext { doc: &doc });
        let items: Vec<&Value> = out.rows().iter().map(|r| &r[2]).collect();
        assert_eq!(items, vec![&Value::Int(7), &Value::Int(8), &Value::Int(9)]);
    }

    #[test]
    fn null_comparisons_are_false() {
        let pred = Predicate::single(Comparison::new(
            Scalar::col("v"),
            CmpOp::Eq,
            Scalar::cnst(Value::Null),
        ));
        let schema = Schema::new(["v"]);
        assert!(!eval_predicate(&pred, &vec![Value::Int(1)], &schema));
        assert!(!eval_predicate(&pred, &vec![Value::Null], &schema));
    }

    #[test]
    fn add_values_promotes() {
        assert_eq!(add_values(&Value::Int(1), &Value::Int(2)), Value::Int(3));
        assert_eq!(
            add_values(&Value::Int(1), &Value::Dec(0.5)),
            Value::Dec(1.5)
        );
        assert_eq!(add_values(&Value::Null, &Value::Int(1)), Value::Null);
        assert_eq!(add_values(&Value::str("x"), &Value::Int(1)), Value::Null);
    }

    #[test]
    fn materialized_rows_counts_all_operators() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let d = p.add(OpKind::DocTable);
        let s = p.add(OpKind::Select {
            input: d,
            pred: Predicate::single(Comparison::col_eq_const("kind", "ELEM")),
        });
        let root = p.add(OpKind::Serialize { input: s });
        p.set_root(root);
        let total = materialized_rows(&p, &EvalContext { doc: &doc });
        // doc (4) + select (2) + serialize (2)
        assert_eq!(total, 8);
    }

    #[test]
    fn shared_subplans_are_materialized_and_counted_once() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        // The same δ(doc) node feeds both join inputs (through renaming
        // projections so the output columns stay disjoint).
        let d = p.add(OpKind::DocTable);
        let dis = p.add(OpKind::Distinct { input: d });
        let left = p.add(OpKind::Project {
            input: dis,
            cols: vec![("lp".to_string(), "pre".to_string())],
        });
        let right = p.add(OpKind::Project {
            input: dis,
            cols: vec![("rp".to_string(), "pre".to_string())],
        });
        let join = p.add(OpKind::Join {
            left,
            right,
            pred: Predicate::single(Comparison::col_eq_col("lp", "rp")),
        });
        let root = p.add(OpKind::Serialize { input: join });
        p.set_root(root);
        let (out, stats) = AlgebraRequest::new(&p, &EvalContext { doc: &doc }).run();
        assert_eq!(out.len(), 4, "self-equi-join over pre");
        // doc and δ are counted exactly once despite feeding two parents.
        let doc_entries = stats.iter().filter(|o| o.name == "doc").count();
        assert_eq!(doc_entries, 1);
        // doc(4) + δ(4) + two π(4 each) + join(4) + serialize(4)
        let total: usize = stats.iter().map(|o| o.rows_out).sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn per_operator_stats_record_batches_and_probes() {
        let doc = doc_fixture();
        let mut p = Plan::new();
        let lit = p.add(OpKind::Literal {
            columns: vec!["item".to_string()],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(3)]],
        });
        let d = p.add(OpKind::DocTable);
        let join = p.add(OpKind::Join {
            left: d,
            right: lit,
            pred: Predicate::single(Comparison::col_eq_col("pre", "item")),
        });
        let root = p.add(OpKind::Serialize { input: join });
        p.set_root(root);
        let (_, stats) = AlgebraRequest::new(&p, &EvalContext { doc: &doc }).run();
        let join_stats = stats
            .iter()
            .find(|o| o.name.starts_with('⋈'))
            .expect("join reports stats");
        assert_eq!(join_stats.probes, 4, "one probe per left row");
        assert_eq!(join_stats.build_rows, 2, "right side buffered once");
        assert_eq!(join_stats.rows_out, 2);
        assert!(stats.iter().all(|o| o.rows_out == 0 || o.batches > 0));
    }
}
