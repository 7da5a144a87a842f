//! Pipelined, columnar execution of physical plans.
//!
//! The executor implements the operator repertoire of Table VII as a tree
//! of discrete pull-based operators over the [`xqjg_store::ColOperator`]
//! substrate: index and table scan leaves, index nested-loop joins (the
//! inner access path is re-probed for every outer binding, with probe
//! bounds computed from the outer columns), build-once hash joins, and the
//! plan tail (select/order evaluation, duplicate-eliminating SORT,
//! RETURN).  Tuples flow between operators in
//! [`ColumnBatch`](xqjg_store::ColumnBatch)es of *bindings* — one rid
//! column per bound alias plus a selection vector — so no join level ever
//! materializes the full binding set (the sort tail, a genuine pipeline
//! breaker, is the only operator that buffers its input).
//!
//! Every predicate, hash key and probe bound is compiled once per
//! execution into the stage form (`CStage`), and that form is the only
//! way the executor evaluates anything: the scan leaf's bounds and
//! filters, each NLJOIN probe, each hash-join build side and the tail.
//! Schema offsets are resolved up front, and where the operand columns
//! carry typed images the comparison runs as a branch-free kernel; columns
//! without one keep the untyped [`Value`](xqjg_store::Value) comparison
//! inside the same operators.
//!
//! Each execution runs **one pipeline** over the scan leaf's whole row-id
//! domain on the calling thread: hash-join build sides are built once up
//! front, then the leaf, join and tail operators stream batches to the
//! SORT tail, which gathers them (or, under a memory budget, feeds them to
//! the external sorter) as they arrive.  Concurrency comes from running
//! several queries at once — the serving layer's connection workers —
//! never from splitting one query across threads.
//!
//! [`QueryRequest::run`] is the one way to execute a plan.  The seed's
//! materialize-everything executor is retained in [`crate::materialize`]
//! as the independent reference the tests compare this pipeline against
//! (and the baseline of the `executor` benchmark); it has its own
//! row-at-a-time interpreter and shares no evaluation code with this
//! module.
//!
//! The module is split along its seams:
//!
//! * `request` — [`QueryRequest`], [`QueryOutcome`], [`ExecStats`] and the
//!   execution loop that compiles the stages, builds the hash joins, runs
//!   the pipeline and finishes the tail;
//! * `stage` — stage compilation: compiled expressions and predicates,
//!   their typed-kernel lowerings (`IntExpr`, `NlSplit`, key images) and
//!   the run shape of an NLJOIN index probe (`RunSpec`);
//! * `access` — access paths: resolved bounds, the postings cache, the
//!   leaf domain, the access-predicate filter and run probes;
//! * `operators` — the scan leaf, the nested-loop join and the hash join;
//! * `build` — hash-join build sides, Grace partition probes, budget
//!   bookings and the [`BuildCache`];
//! * `tail` — DISTINCT, ORDER BY and RETURN over gathered columns, in
//!   memory or through the external sorter.

mod access;
mod build;
mod operators;
mod request;
mod stage;
mod tail;
#[cfg(test)]
mod tests;

pub use build::{BuildCache, BUILD_CACHE_BYTES};
pub use request::{run_sql, ExecCaches, ExecStats, QueryOutcome, QueryRequest};
