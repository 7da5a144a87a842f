//! The two ways the harness runs one query in-process: through the
//! `Processor` entry points a user calls (untraced), and through the same
//! public calls `Processor::prepare` / `execute_prepared_shared` compose,
//! each wrapped in a span (traced).  The traced path must return the bytes
//! the untraced one does; the caller checks.

use std::hint::black_box;
use std::sync::Arc;

use xqjg_compiler::compile;
use xqjg_core::{
    decompose_sequences, isolate_sfw, isolated_plan, result_items_from_sql, simplify, Mode,
    Outcome, Prepared, PreparedBranch, Processor, QueryCaches,
};
use xqjg_engine::{
    explain_with_caches, optimize, optimize_cached, ExecCaches, ExecStats, PhysPlan, QueryRequest,
};
use xqjg_store::{CancelToken, ExecConfig};
use xqjg_xml::{serialize_nodes, serialized_node_count, Pre};
use xqjg_xquery::{normalize, parse};

use crate::trace::Tracer;

/// Work counters both paths can report (the untraced one from
/// `Outcome::exec_stats`), summed over the queries of a cycle.  For a fixed
/// seed they must agree between the paths and repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    pub index_probes: u64,
    /// `index_rows + scan_rows + bindings`.
    pub rows_examined: u64,
    pub build_cache_hits: u64,
    pub kernel_rows: u64,
    pub operator_rows_in: u64,
    pub spill_runs: u64,
    pub items: u64,
    pub bytes: u64,
}

impl ExecCounts {
    fn add_stats(&mut self, s: &ExecStats) {
        self.index_probes += s.probes as u64;
        self.rows_examined += (s.index_rows + s.scan_rows + s.bindings) as u64;
        for op in &s.operators {
            self.build_cache_hits += op.cache_hits as u64;
            self.kernel_rows += op.kernel_rows as u64;
            self.operator_rows_in += op.rows_in as u64;
            self.spill_runs += op.spill_runs as u64;
        }
    }

    fn add_result(&mut self, items: &[Pre], xml: &str) {
        self.items += items.len() as u64;
        self.bytes += xml.len() as u64;
    }

    /// Fold in one untraced execution.
    pub fn add_outcome(&mut self, out: &Outcome, xml: &str) {
        if let Some(s) = &out.exec_stats {
            self.add_stats(s);
        }
        self.add_result(&out.items, xml);
    }
}

/// [`ExecCounts`] plus what only the layered path can see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub exec: ExecCounts,
    pub stacked_ops: u64,
    pub simplified_ops: u64,
    pub rewrite_applications: u64,
    pub joingraph_aliases: u64,
    pub plan_lookups: u64,
    pub plan_hits: u64,
    pub postings_lookups: u64,
    pub postings_hits: u64,
}

/// Query text in, serialized result out, as a library user runs it.
pub fn run_text(p: &mut Processor, text: &str) -> Result<(Outcome, String), String> {
    let out = p
        .execute(text, Mode::JoinGraph)
        .map_err(|e| e.to_string())?;
    let xml = p.serialize(&out.items);
    Ok((out, xml))
}

/// Prepared handle in, serialized result out.
pub fn run_prepared(p: &mut Processor, prepared: &Prepared) -> Result<(Outcome, String), String> {
    let out = p
        .execute_prepared(prepared, Mode::JoinGraph)
        .map_err(|e| e.to_string())?;
    let xml = p.serialize(&out.items);
    Ok((out, xml))
}

/// What the layered path needs besides the processor.
pub struct Layered<'a> {
    pub tracer: &'a mut Tracer,
    pub counts: &'a mut LayerCounts,
    pub cfg: &'a ExecConfig,
    /// Shared handles of the processor's own caches (`Processor::caches`).
    pub caches: &'a QueryCaches,
    pub cancel: &'a CancelToken,
}

impl Layered<'_> {
    /// [`run_text`], layer by layer.
    pub fn run_text(&mut self, p: &mut Processor, text: &str) -> Result<String, String> {
        let root = self.tracer.enter("query");
        let out = self
            .front_end(p, text)
            .and_then(|prepared| self.back_end(p, &prepared));
        self.tracer.exit(root);
        out
    }

    /// [`run_prepared`], layer by layer.
    pub fn run_prepared(
        &mut self,
        p: &mut Processor,
        prepared: &Prepared,
    ) -> Result<String, String> {
        let root = self.tracer.enter("query");
        let out = self.back_end(p, prepared);
        self.tracer.exit(root);
        out
    }

    /// The body of `Processor::prepare`.
    fn front_end(&mut self, p: &Processor, text: &str) -> Result<Prepared, String> {
        let t = &mut *self.tracer;
        let ast = t
            .leaf("xquery.parse", || parse(text))
            .map_err(|e| format!("parse error: {e}"))?;
        let core = t
            .leaf("xquery.normalize", || normalize(&ast, p.default_document()))
            .map_err(|e| format!("normalize error: {e}"))?;
        let branch_cores = t.leaf("core.decompose", || decompose_sequences(&core));
        let mut branches = Vec::with_capacity(branch_cores.len());
        for bc in branch_cores {
            let stacked = t
                .leaf("compiler.compile", || compile(&bc))
                .map_err(|e| format!("compile error: {e}"))?
                .plan;
            let (simplified, rewrite_report) = t.leaf("core.simplify", || {
                let mut simplified = stacked.clone();
                let report = simplify(&mut simplified);
                (simplified, report)
            });
            let isolated = t
                .leaf("core.isolate", || isolate_sfw(&simplified))
                .map_err(|e| format!("isolate error: {e}"))?;
            let iso_plan = t.leaf("core.isolated_plan", || isolated_plan(&isolated));
            self.counts.stacked_ops += stacked.size() as u64;
            self.counts.simplified_ops += simplified.size() as u64;
            self.counts.rewrite_applications += rewrite_report.applications as u64;
            self.counts.joingraph_aliases += isolated.query.from.len() as u64;
            branches.push(PreparedBranch {
                core: bc,
                stacked,
                simplified,
                rewrite_report,
                isolated,
                isolated_plan: iso_plan,
            });
        }
        Ok(Prepared { core, branches })
    }

    /// The join-graph arm of `Processor::execute_prepared_shared`, then
    /// `Processor::serialize`.
    fn back_end(&mut self, p: &mut Processor, prepared: &Prepared) -> Result<String, String> {
        let t = &mut *self.tracer;
        let cfg = self.cfg;
        let mut items = Vec::new();
        let explains: Vec<String> = {
            let db = p.database();
            let fingerprint = cfg.cache_fingerprint();
            let mut plans: Vec<(Arc<PhysPlan>, Option<bool>)> =
                Vec::with_capacity(prepared.branches.len());
            for b in &prepared.branches {
                let planned = t
                    .leaf("engine.optimize", || {
                        if cfg.plan_cache {
                            optimize_cached(
                                &b.isolated.query,
                                db,
                                self.caches.plans(),
                                &fingerprint,
                            )
                            .map(|(plan, hit)| (plan, Some(hit)))
                        } else {
                            optimize(&b.isolated.query, db).map(|plan| (Arc::new(plan), None))
                        }
                    })
                    .map_err(|e| format!("optimize error: {e}"))?;
                if let Some(hit) = planned.1 {
                    self.counts.plan_lookups += 1;
                    self.counts.plan_hits += u64::from(hit);
                }
                plans.push(planned);
            }
            let exec_caches = ExecCaches {
                builds: Some(self.caches.builds()),
                postings: Some(self.caches.postings()),
            };
            let mut actuals = Vec::with_capacity(plans.len());
            for (b, (plan, plan_hit)) in prepared.branches.iter().zip(&plans) {
                let out = t
                    .leaf("engine.execute", || {
                        QueryRequest::new(plan, db)
                            .config(cfg)
                            .caches(exec_caches)
                            .cancel(self.cancel)
                            .run()
                    })
                    .map_err(|e| format!("exec error: {e}"))?;
                let mut cache_actuals = out.cache_actuals;
                cache_actuals.plan_cache = *plan_hit;
                self.counts.exec.add_stats(&out.stats);
                self.counts.postings_lookups += cache_actuals.postings_lookups as u64;
                self.counts.postings_hits += cache_actuals.postings_hits as u64;
                items.extend(t.leaf("core.decode", || {
                    result_items_from_sql(&out.rows, &b.isolated)
                }));
                actuals.push((out.stats, cache_actuals));
            }
            t.leaf("engine.explain", || {
                plans
                    .iter()
                    .zip(&actuals)
                    .map(|((plan, _), (stats, caches))| explain_with_caches(plan, stats, caches))
                    .collect()
            })
        };
        let nodes = t.leaf("xml.node_count", || serialized_node_count(p.doc(), &items));
        black_box((nodes, explains));
        let xml = t.leaf("xml.serialize", || serialize_nodes(p.doc(), &items));
        self.counts.exec.add_result(&items, &xml);
        Ok(xml)
    }
}
