//! The table algebra dialect of Table I, as a DAG IR with a direct
//! evaluator and rendering support.
//!
//! * [`ir`] — operators (`π`, `σ`, `⋈`, `×`, `δ`, `@`, `#`, `ϱ`, `doc`,
//!   literal tables, serialization point), predicates, plans, schema
//!   inference and DAG utilities.
//! * [`eval`] — pipelined, batch-at-a-time evaluation over the shared
//!   `Operator` substrate (the "stacked plan" baseline of Table IX and the
//!   semantics reference for the rewriter).
//! * [`render`] — text/DOT plan rendering and operator histograms
//!   (reproducing Figures 4 and 7).
//! * [`bridge`] — conversion between the XML encoding and the relational
//!   `doc` table, and extraction of result node sequences.

pub mod bridge;
pub mod eval;
pub mod ir;
pub mod render;

pub use bridge::{doc_relation, result_items, DOC_RELATION};
pub use eval::{evaluate, materialized_rows, AlgebraRequest, EvalContext};
pub use ir::{CmpOp, Comparison, OpId, OpKind, Plan, Predicate, Scalar, DOC_COLUMNS};
pub use render::{histogram, render_dot, render_text, OperatorHistogram};
