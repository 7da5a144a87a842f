//! Relational storage substrate.
//!
//! This crate is the part of the "30+ years of relational technology" the
//! paper leans on: typed scalar [`Value`]s, row [`Table`]s with named
//! [`Schema`]s, composite-key [`BPlusTree`] indexes with range scans, and
//! [`TableStats`] (cardinalities, most-common values, histograms, and the
//! per-index-prefix [`GroupMax`] extents and per-`(name, kind)`
//! [`ParentGap`]s) feeding the cost-based optimizer
//! in `xqjg-engine`.  A small [`Database`] catalog
//! ties tables, indexes and statistics together, and the [`batch`] module
//! provides the row-oriented pipelined execution substrate —
//! fixed-capacity [`Batch`]es and the pull-based [`Operator`] protocol —
//! of the stacked-plan evaluator and the pureXML baseline.  The
//! [`columnar`] module is its columnar twin, the substrate of the
//! join-graph executor: [`ColumnBatch`]es carry one rid column per bound
//! alias plus a selection vector, so filters refine indices instead of
//! materializing survivors.  The
//! [`config`] module holds the [`ExecConfig`] knobs every evaluation path
//! reads; each query runs as one pipeline on the calling thread.  The
//! [`spill`] module makes the
//! pipeline breakers memory-governed: a shared [`MemBudget`] accountant,
//! an [`ExternalSorter`] (sorted runs + loser-tree merge) and Grace-style
//! hash partitions ([`GraceBuilder`] / [`SpilledPartitions`]) let sorts
//! and hash builds go external when `XQJG_MEM_BUDGET` trips.  The
//! [`typed`] module adds lazily-built typed column images ([`TypedColumns`]:
//! flat `i64` columns and sorted-dictionary string columns) and [`kernel`]
//! the branch-free chunked compare/hash/sort kernels over them — the
//! representation the executor's hot paths run on.
//!
//! Nothing in this crate knows about XML or XQuery — it is a generic (if
//! deliberately compact) relational kernel.

pub mod admission;
pub mod batch;
pub mod btree;
pub mod cache;
pub mod catalog;
pub mod columnar;
pub mod config;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod mask;
pub mod schema;
pub mod spill;
pub mod stats;
pub mod table;
pub mod typed;
pub mod value;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionPermit, AdmissionStats, DEFAULT_MAX_SESSIONS,
    DEFAULT_QUEUE_TIMEOUT,
};
pub use batch::{
    drain, fill_from_pending, new_stats_sink, Batch, BoxedOperator, OpStats, Operator, StatsSink,
    VecSource, BATCH_CAPACITY,
};
pub use btree::{BPlusTree, CodeRun, Key, PrefixRun};
pub use cache::{
    PostingsCache, PostingsKey, ShardedLru, CACHE_ENTRY_OVERHEAD, POSTINGS_CACHE_BYTES,
};
pub use catalog::{BuiltIndex, Database, IndexDef};
pub use columnar::{ColOperator, ColumnBatch};
pub use config::{
    parse_bytes, parse_duration, ConfigError, ExecConfig, EXEC_KNOBS, MAX_BATCH_CAPACITY,
};
pub use error::{CancelToken, ExecError, Interrupt};
pub use fault::{FaultGuard, FaultKind, FaultPlan, FaultSpec, Trigger};
pub use kernel::{
    agg_i64_masked, gather_i64, gather_u32, hash_keys_i64, hash_keys_typed, mask_cmp_i64,
    mask_cmp_u32, mask_const, mask_terms, sort_permutation_i64, sort_permutation_typed, HashKey,
    KernelCmp, MaskTerm, MaskedAgg, SortKey, SortVals,
};
pub use mask::{BitMask, MASK_WORD_BITS};
pub use schema::Schema;
pub use spill::{
    record_checksum, row_footprint, spill_dir, ExternalSorter, GraceBuilder, MemBudget, SortedRows,
    SpilledPartitions, BUILD_ENTRY_FOOTPRINT, DEFAULT_SPILL_RETRIES, GRACE_FANOUT,
};
pub use stats::{ColumnStats, GroupMax, ParentGap, TableStats};
pub use table::{Row, Table};
pub use typed::{TypedColumn, TypedColumns};
pub use value::{cmp_f64_total, hash_values, Value};
