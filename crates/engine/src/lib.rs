//! The relational query engine: the "off-the-shelf RDBMS" half of the
//! system.
//!
//! It consumes the SQL join-graph queries emitted by `xqjg-core` and runs
//! them through the classical pipeline the paper relies on:
//!
//! 1. [`sqlparse::parse_sql`] — parse the `SELECT DISTINCT … FROM … WHERE …
//!    ORDER BY …` block,
//! 2. [`optimizer::optimize`] — cost-based access-path selection and join
//!    tree planning over the catalog's B-tree indexes and statistics,
//! 3. [`exec::QueryRequest`] — the one execution entry point: pipelined,
//!    columnar execution, one pipeline per query, through a tree of pull-based
//!    operators (scan leaves, index nested-loop and build-once hash joins,
//!    the duplicate-eliminating SORT plan tail); the seed's
//!    materialize-everything strategy survives as the [`materialize`]
//!    reference the tests compare against,
//! 4. [`explain::explain`] — DB2-visual-explain-style plan rendering
//!    (Figures 10 and 11),
//! 5. [`advisor::advise`] — the `db2advis` stand-in that proposes the
//!    B-tree index set of Table VI from a workload.

pub mod advisor;
pub mod exec;
pub mod explain;
pub mod materialize;
pub mod optimizer;
pub mod physical;
pub mod sql;
pub mod sqlparse;

pub use advisor::{advise, deploy, IndexProposal};
pub use exec::{
    run_sql, BuildCache, ExecCaches, ExecStats, QueryOutcome, QueryRequest, BUILD_CACHE_BYTES,
};
pub use explain::{explain, explain_with_caches, explain_with_stats, CacheActuals};
pub use materialize::{execute_materialized, execute_materialized_with_stats};
pub use optimizer::{
    normalize_query_text, optimize, optimize_cached, OptimizeError, PlanCache, PLAN_CACHE_BYTES,
};
pub use physical::{Access, Bounds, JoinMethod, JoinNode, PhysPlan};
pub use sql::{ColRef, FromItem, OrderItem, SelectItem, SfwQuery, SqlCmp, SqlExpr, SqlPredicate};
pub use sqlparse::{parse_sql, SqlParseError};
