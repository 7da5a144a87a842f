//! EXPLAIN rendering of physical plans.
//!
//! The output format mirrors the DB2 visual-explain style plans reproduced
//! in Figures 10 and 11: a `RETURN` root, a duplicate-eliminating `SORT`,
//! and a left-deep chain of `NLJOIN` / `HSJOIN` operators whose inner legs
//! are `IXSCAN`s over the advisor-proposed B-trees (or `TBSCAN`s).
//!
//! [`explain_with_stats`] appends the per-operator *actuals* recorded by
//! the executor.  Besides the raw counters (`rows_in`, `rows_out`,
//! `batches`, `probes`, `build_rows`, `cache_hits`), each line shows the
//! access-path work
//!
//! * `fetched` — index entries plus table rows the operator examined
//!   before its residual predicates ran (an `IXSCAN`'s range-scan entries
//!   — leaf, per-probe inner or hash-join build enumeration alike — and
//!   the rows a `TBSCAN` kept past its pushed-down filters); over all
//!   operators it sums to the query totals `index_rows + scan_rows`.  A
//!   build side served from the build cache fetched nothing, and
//! * `fetched/probe` — `fetched / probes` for probing operators: how many
//!   entries one probe of the inner access path walks.  A containment
//!   window (`pre > x, pre <= x + size`, or an upward step's `pre >= x -
//!   max(size), pre < x`) keeps this at the subtree extent; a one-sided
//!   bound shows up here as thousands,
//!
//! the memory-governor counters when the operator went external
//!
//! * `spill_runs` — sorted runs (SORT tail) or partition files (Grace
//!   hash-join build, repartitioning passes included) written to disk
//!   because the `XQJG_MEM_BUDGET` tripped,
//! * `spill_bytes` — bytes written across those runs, and
//! * `partitions` — leaf partitions of a Grace-partitioned build side, and
//! * `retries` — transient spill-write failures the operator survived by
//!   retrying (at most `DEFAULT_SPILL_RETRIES`, 2, per write); shown only
//!   when a retry actually rescued a write,
//!
//! the typed-kernel engagement counter when a kernel ran
//!
//! * `kernel_rows` — rows the operator pushed through a branch-free
//!   typed-column kernel instead of the untyped `Value` comparison; `0`
//!   when the operand columns have no typed image.  Each kernel pass
//!   counts once per (row, term): a leaf or NLJOIN fusing a k-term
//!   conjunction over n fetched rows adds `n·k`, an NLJOIN's static
//!   pre-masked inner list adds its surviving length once per probe, a
//!   hash join's composite gather+hash pass adds one per probe row
//!   (NULL-keyed rows included — the NULL gate is part of the pass), and
//!   the SORT tail reports the rows it ordered when every order value is
//!   an integer or NULL (0 without `ORDER BY`, for any other key, and
//!   when the budgeted sorter went external).  The meaning is the same on
//!   both tail paths: the unbudgeted tail sorts row indices over gathered
//!   `i64` columns without a sorter, the budgeted one counts its sorter's
//!   typed finish.  Masked
//!   aggregate reductions feeding `TableStats` run outside any operator
//!   and are not counted here,
//!
//! and derives
//!
//! * `sel` — the operator's measured selectivity (`rows_out / rows_in`;
//!   values above 1 mean the operator expands, as joins do), and
//! * `avg_vec` — the average vector length (`rows_out / batches`).
//!
//! The actuals are deterministic, the spill counters included: spill
//! decisions depend only on the row stream and the budget.  `batches` is
//! reported as `ceil(rows_out / batch_capacity)`, the count of full
//! batches (a filtered leaf really ships shorter ones), so the batch
//! capacity moves nothing else.  Per join level,
//! `rows_out`, `fetched` and `probes` equal what the materializing
//! executor reports (the typed parity suite).  Across *budgets* the
//! actuals additionally agree modulo the spill counters (the spill parity
//! suite).
//!
//! [`explain_with_caches`] additionally appends one warm-path cache line
//!
//! * `plan_cache=hit|miss` — whether this plan came out of the plan cache
//!   (skipping DP enumeration) or was freshly optimized; omitted when the
//!   plan cache is off,
//! * `cache_hits=N` — hash-join build sides served from the build cache
//!   (the sum of the per-operator `cache_hits` actuals), and
//! * `postings=H/L` — memoized `IXSCAN` posting-list hits over lookups
//!   *during this execution*.  Only probes that walk the B-tree count:
//!   the leaf scan, hash-join builds, each NLJOIN operator's first probe
//!   (once per execution), and probes whose equality prefix depends on the outer
//!   row or whose bounds are not integers.  Repeat probes under a literal
//!   prefix search the index's prefix run instead and look nothing up
//!   (see `ColNLJoin::fetch_index`).  Unlike every counter above these are
//!   **cache-wide deltas, not per-operator actuals**: the cache is shared
//!   by concurrent queries, so another session's probes can warm a key
//!   or count into the delta, even though results and every `OpStats`
//!   line stay byte-identical.  Treat `postings=` as telemetry, not as a
//!   parity-checked actual.

use crate::exec::ExecStats;
use crate::physical::{Access, JoinMethod, JoinNode, PhysPlan};
use crate::sql::SqlExpr;
use xqjg_store::Value;

/// Render a plan as an indented operator tree.
pub fn explain(plan: &PhysPlan) -> String {
    let mut out = String::new();
    out.push_str("RETURN\n");
    let order: Vec<String> = plan.order_by.iter().map(|c| c.to_string()).collect();
    let sort_label = match (plan.distinct, order.is_empty()) {
        (true, false) => format!("SORT (distinct, order by {})", order.join(", ")),
        (true, true) => "SORT (distinct)".to_string(),
        (false, false) => format!("SORT (order by {})", order.join(", ")),
        (false, true) => "TBSCAN (temp)".to_string(),
    };
    out.push_str(&format!("  {sort_label}\n"));
    render_join(&plan.root, 2, &mut out);
    out.push_str(&format!(
        "-- estimated cost: {:.1}, estimated rows: {:.1}, join order: {}\n",
        plan.est_cost,
        plan.est_rows,
        plan.join_order().join(" -> ")
    ));
    out
}

/// Render a plan together with the per-operator work counters an execution
/// recorded — the "actuals" column DB2's explain facility prints next to
/// the optimizer's estimates.
pub fn explain_with_stats(plan: &PhysPlan, stats: &ExecStats) -> String {
    let mut out = explain(plan);
    if stats.operators.is_empty() {
        return out;
    }
    out.push_str("-- operator stats (upstream first):\n");
    for op in &stats.operators {
        out.push_str(&format!("--   {}\n", op.render()));
    }
    out
}

/// Warm-path cache telemetry of one execution, rendered by
/// [`explain_with_caches`] (see the module docs for the semantics of each
/// field — the postings counters are cache-wide deltas, not
/// per-execution actuals).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheActuals {
    /// `Some(true)` = plan served from the plan cache, `Some(false)` =
    /// freshly optimized, `None` = plan cache off (field omitted).
    pub plan_cache: Option<bool>,
    /// Hash-join build sides served from the build cache.
    pub build_hits: usize,
    /// Memoized posting-list hits during this execution.
    pub postings_hits: usize,
    /// Posting-list lookups during this execution.
    pub postings_lookups: usize,
}

impl CacheActuals {
    /// Is there anything to print?  All-off executions render no line, so
    /// caches-off EXPLAIN output is byte-identical to the pre-cache format.
    fn is_empty(&self) -> bool {
        self == &CacheActuals::default()
    }
}

/// [`explain_with_stats`] plus the warm-path cache line (`plan_cache=`,
/// `cache_hits=`, `postings=`).  With caching entirely off the line is
/// suppressed and the output equals [`explain_with_stats`].
pub fn explain_with_caches(plan: &PhysPlan, stats: &ExecStats, caches: &CacheActuals) -> String {
    let mut out = explain_with_stats(plan, stats);
    if caches.is_empty() {
        return out;
    }
    let mut parts = Vec::new();
    if let Some(hit) = caches.plan_cache {
        parts.push(format!("plan_cache={}", if hit { "hit" } else { "miss" }));
    }
    parts.push(format!("cache_hits={}", caches.build_hits));
    if caches.postings_lookups > 0 {
        parts.push(format!(
            "postings={}/{}",
            caches.postings_hits, caches.postings_lookups
        ));
    }
    out.push_str(&format!("-- caches: {}\n", parts.join(" ")));
    out
}

fn render_join(node: &JoinNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match node {
        JoinNode::Leaf {
            alias,
            table,
            access,
            est_rows,
        } => {
            out.push_str(&format!(
                "{indent}{} [{table} as {alias}, est {est_rows:.1} rows]\n",
                access_label(access)
            ));
        }
        JoinNode::Join {
            outer,
            alias,
            table,
            access,
            method,
            residual,
            est_rows,
            ..
        } => {
            let join_label = match method {
                JoinMethod::NestedLoop => "NLJOIN",
                JoinMethod::Hash => "HSJOIN",
            };
            let residual_note = if residual.is_empty() {
                String::new()
            } else {
                format!(", {} residual pred(s)", residual.len())
            };
            out.push_str(&format!(
                "{indent}{join_label} [est {est_rows:.1} rows{residual_note}]\n"
            ));
            render_join(outer, depth + 1, out);
            out.push_str(&format!(
                "{indent}  {} [{table} as {alias}]\n",
                access_label(access)
            ));
        }
    }
}

fn access_label(access: &Access) -> String {
    match access {
        Access::TableScan { preds } => {
            if preds.is_empty() {
                "TBSCAN".to_string()
            } else {
                let ps: Vec<String> = preds.iter().map(|p| p.to_string()).collect();
                format!("TBSCAN filter({})", ps.join(" AND "))
            }
        }
        Access::IndexScan {
            index,
            bounds,
            residual,
        } => {
            let mut parts = Vec::new();
            for (col, expr) in &bounds.eq {
                parts.push(format!("{col} = {expr}"));
            }
            if let Some(rc) = &bounds.range_col {
                if let Some((e, inc)) = &bounds.lower {
                    let op = if *inc { ">=" } else { ">" };
                    parts.push(format!("{rc} {op} {}", bound_expr(e)));
                }
                if let Some((e, inc)) = &bounds.upper {
                    let op = if *inc { "<=" } else { "<" };
                    parts.push(format!("{rc} {op} {}", bound_expr(e)));
                }
            }
            let mut s = format!("IXSCAN {index} ({})", parts.join(", "));
            if !residual.is_empty() {
                s.push_str(&format!(" +{} sarg", residual.len()));
            }
            s
        }
    }
}

/// A probe-bound expression; `x + -15` (how the optimizer spells the lower
/// bound it derives from an extent statistic) reads as `x - 15`.
fn bound_expr(e: &SqlExpr) -> String {
    match e {
        SqlExpr::Add(x, k) => match **k {
            SqlExpr::Lit(Value::Int(n)) if n < 0 => format!("{x} - {}", n.unsigned_abs()),
            _ => e.to_string(),
        },
        _ => e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::Bounds;
    use crate::sql::{ColRef, SelectItem};

    fn sample_plan() -> PhysPlan {
        let leaf = JoinNode::Leaf {
            alias: "d1".into(),
            table: "doc".into(),
            access: Access::IndexScan {
                index: "nksp".into(),
                bounds: Bounds {
                    eq: vec![
                        ("name".into(), SqlExpr::lit("auction.xml")),
                        ("kind".into(), SqlExpr::lit("DOC")),
                    ],
                    range_col: None,
                    lower: None,
                    upper: None,
                },
                residual: vec![],
            },
            est_rows: 1.0,
        };
        let join = JoinNode::Join {
            outer: Box::new(leaf),
            alias: "d2".into(),
            table: "doc".into(),
            access: Access::IndexScan {
                index: "nkspl".into(),
                bounds: Bounds {
                    eq: vec![("name".into(), SqlExpr::lit("open_auction"))],
                    range_col: Some("pre".into()),
                    lower: Some((SqlExpr::col("d1", "pre"), false)),
                    upper: Some((SqlExpr::col("d1", "pre") + SqlExpr::col("d1", "size"), true)),
                },
                residual: vec![],
            },
            method: JoinMethod::NestedLoop,
            hash_keys: vec![],
            residual: vec![],
            est_rows: 120.0,
        };
        PhysPlan {
            root: join,
            select: vec![SelectItem::Star("d2".into())],
            distinct: true,
            order_by: vec![ColRef::new("d2", "pre")],
            est_cost: 42.0,
            est_rows: 120.0,
        }
    }

    #[test]
    fn explain_shows_fig10_style_structure() {
        let text = explain(&sample_plan());
        assert!(text.starts_with("RETURN"));
        assert!(text.contains("SORT (distinct, order by d2.pre)"));
        assert!(text.contains("NLJOIN"));
        assert!(text.contains("IXSCAN nksp"));
        assert!(text.contains("IXSCAN nkspl"));
        assert!(text.contains("pre > d1.pre"));
        assert!(text.contains("join order: d1 -> d2"));
    }

    #[test]
    fn derived_lower_bounds_render_as_subtraction() {
        let mut p = sample_plan();
        if let JoinNode::Join {
            access: Access::IndexScan { bounds, .. },
            ..
        } = &mut p.root
        {
            bounds.lower = Some((SqlExpr::col("d1", "pre") + SqlExpr::lit(-15i64), true));
            bounds.upper = Some((SqlExpr::col("d1", "pre"), false));
        }
        let text = explain(&p);
        assert!(text.contains("pre >= d1.pre - 15, pre < d1.pre"), "{text}");
        assert_eq!(
            bound_expr(&(SqlExpr::col("d1", "pre") + SqlExpr::lit(2i64))),
            "d1.pre + 2"
        );
    }

    #[test]
    fn explain_without_order_by() {
        let mut p = sample_plan();
        p.order_by.clear();
        p.distinct = false;
        let text = explain(&p);
        assert!(text.contains("TBSCAN (temp)"));
    }

    #[test]
    fn explain_with_stats_appends_operator_counters() {
        use xqjg_store::OpStats;
        let plan = sample_plan();
        let mut op = OpStats::named("NLJOIN(d2)");
        op.rows_in = 1;
        op.rows_out = 120;
        op.batches = 1;
        op.probes = 1;
        let stats = ExecStats {
            operators: vec![op],
            ..ExecStats::default()
        };
        let text = explain_with_stats(&plan, &stats);
        assert!(text.contains("operator stats"));
        assert!(text.contains("NLJOIN(d2): rows_in=1 rows_out=120 batches=1 probes=1"));
        // Derived selectivity / vector-length actuals.
        assert!(text.contains("sel=120.000"));
        assert!(text.contains("avg_vec=120.0"));
        // Without per-operator counters the output is the plain explain.
        assert_eq!(
            explain_with_stats(&plan, &ExecStats::default()),
            explain(&plan)
        );
    }

    #[test]
    fn explain_with_caches_appends_cache_line() {
        let plan = sample_plan();
        let stats = ExecStats::default();
        let caches = CacheActuals {
            plan_cache: Some(true),
            build_hits: 2,
            postings_hits: 3,
            postings_lookups: 5,
        };
        let text = explain_with_caches(&plan, &stats, &caches);
        assert!(text.contains("-- caches: plan_cache=hit cache_hits=2 postings=3/5\n"));
        let miss = CacheActuals {
            plan_cache: Some(false),
            ..CacheActuals::default()
        };
        assert!(explain_with_caches(&plan, &stats, &miss).contains("plan_cache=miss cache_hits=0"));
        // Zero-lookup postings are omitted; all-off suppresses the line
        // entirely so caches-off output matches the pre-cache format.
        assert!(!explain_with_caches(&plan, &stats, &miss).contains("postings="));
        assert_eq!(
            explain_with_caches(&plan, &stats, &CacheActuals::default()),
            explain_with_stats(&plan, &stats)
        );
    }
}
