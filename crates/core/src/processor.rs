//! The end-to-end XQuery processor.
//!
//! [`Processor`] owns the XML encoding (the `doc` table on both the XML and
//! the relational side), the B-tree index set, and the full query pipeline:
//!
//! ```text
//! parse → normalize → (sequence decomposition) → loop-lifting compilation
//!       → simplification → join graph isolation → SQL → cost-based
//!         optimization → index-driven execution → node sequence
//! ```
//!
//! Three execution modes are exposed so the evaluation of Table IX can be
//! reproduced: the reference interpreter, direct evaluation of the *stacked*
//! plan, and the isolated *join graph* executed by the relational engine.

use crate::rewrite::{simplify, RewriteReport};
use crate::sfw::{isolate_sfw, isolated_plan, result_items_from_sql, Isolated};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xqjg_algebra::{doc_relation, evaluate as eval_plan, result_items, EvalContext, Plan};
use xqjg_compiler::compile;
use xqjg_engine::{
    advise, deploy, explain_with_caches, optimize, optimize_cached, BuildCache, CacheActuals,
    ExecCaches, ExecStats, IndexProposal, PhysPlan, PlanCache, QueryRequest, SfwQuery,
};
use xqjg_store::{CancelToken, Database, ExecConfig, ExecError, IndexDef, PostingsCache};
use xqjg_xml::{encode_document, serialize_nodes, serialized_node_count, DocTable, Pre};
use xqjg_xquery::{interpret, normalize, parse, CoreExpr};

/// How a query should be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The tree-walking reference interpreter (correctness oracle).
    Interpreter,
    /// Direct operator-at-a-time evaluation of the stacked plan
    /// ("DB2 + Pathfinder, stacked" in Table IX).
    Stacked,
    /// Join graph isolation + relational execution
    /// ("DB2 + Pathfinder, join graph" in Table IX).
    JoinGraph,
}

/// Error raised anywhere in the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A compilation-pipeline stage failed (parse, normalize, compile,
    /// isolate, optimize, interpret).
    Stage {
        /// Pipeline stage that failed.
        stage: &'static str,
        /// Description.
        message: String,
    },
    /// Relational execution failed with a typed runtime error: spill I/O,
    /// corrupt spill data, budget exhaustion, cancellation or timeout.
    /// The query can be retried on the same [`Processor`] — execution
    /// releases its memory reservations and deletes its run files on
    /// every error path.
    Exec(ExecError),
}

impl QueryError {
    fn new(stage: &'static str, message: impl fmt::Display) -> Self {
        QueryError::Stage {
            stage,
            message: message.to_string(),
        }
    }

    /// The pipeline stage that failed (`"exec"` for runtime errors).
    pub fn stage(&self) -> &'static str {
        match self {
            QueryError::Stage { stage, .. } => stage,
            QueryError::Exec(_) => "exec",
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Stage { stage, message } => write!(f, "{stage} error: {message}"),
            QueryError::Exec(e) => write!(f, "exec error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ExecError> for QueryError {
    fn from(e: ExecError) -> Self {
        QueryError::Exec(e)
    }
}

/// A fully prepared query branch (after sequence decomposition).
#[derive(Debug, Clone)]
pub struct PreparedBranch {
    /// The normalized Core expression of this branch.
    pub core: CoreExpr,
    /// The initial stacked plan (Fig. 4 artifact).
    pub stacked: Plan,
    /// The simplified plan (after the Fig. 5 house-cleaning rules).
    pub simplified: Plan,
    /// Statistics of the simplification pass.
    pub rewrite_report: RewriteReport,
    /// The isolated join graph (SQL block, Fig. 8 / 9 artifact).
    pub isolated: Isolated,
    /// The isolated plan reconstructed as an algebra DAG (Fig. 7 artifact).
    pub isolated_plan: Plan,
}

/// A prepared query: one branch per item of a top-level comma sequence.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The normalized Core expression of the whole query.
    pub core: CoreExpr,
    /// The branches (usually exactly one).
    pub branches: Vec<PreparedBranch>,
}

impl Prepared {
    /// SQL text of every branch.
    pub fn sql(&self) -> Vec<String> {
        self.branches.iter().map(|b| b.isolated.sql()).collect()
    }
}

/// The outcome of executing a query.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The resulting node sequence (`pre` ranks in sequence order).
    pub items: Vec<Pre>,
    /// Number of nodes a full serialization of the result would emit
    /// (the "# nodes" column of Table IX).
    pub serialized_nodes: usize,
    /// Wall-clock execution time (excludes compilation).
    pub elapsed: Duration,
    /// Relational execution work counters (join-graph mode only).
    pub exec_stats: Option<ExecStats>,
    /// What EXPLAIN renders from, per executed SQL block (join-graph mode
    /// only): the plan, its actuals and its cache telemetry.
    branches: Vec<(Arc<PhysPlan>, ExecStats, CacheActuals)>,
}

impl Outcome {
    /// EXPLAIN text per executed SQL block (join-graph mode only),
    /// rendered on request rather than on every execution.
    pub fn explain(&self) -> Vec<String> {
        self.branches
            .iter()
            .map(|(plan, stats, caches)| explain_with_caches(plan, stats, caches))
            .collect()
    }
}

/// The cross-query caches of a query service: hash-join build sides,
/// optimized physical plans, and hot IXSCAN posting lists.
///
/// All three are concurrent, byte-bounded, LRU-evicting maps; a
/// `QueryCaches` value is a set of shared handles (`Clone` shares, never
/// copies), so many [`Processor`] instances — including ones on different
/// threads — can warm each other.  Every cached entry is stamped with the
/// catalog version of the database it was computed against; catalog
/// versions are process-wide unique, so processors over *different*
/// documents can share one `QueryCaches` without cross-talk (each other's
/// entries simply evict on version mismatch).
#[derive(Clone, Default)]
pub struct QueryCaches {
    builds: BuildCache,
    plans: PlanCache,
    postings: PostingsCache,
}

impl QueryCaches {
    /// Create a fresh cache set with the default byte budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// The hash-join build-side cache.
    pub fn builds(&self) -> &BuildCache {
        &self.builds
    }

    /// The optimized-plan cache.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// The IXSCAN posting-list cache.
    pub fn postings(&self) -> &PostingsCache {
        &self.postings
    }
}

/// The purely relational XQuery processor.
pub struct Processor {
    doc: DocTable,
    default_doc: Option<String>,
    db: Option<Database>,
    /// Cross-query caches (build sides, plans, postings).  Defaults to a
    /// private set; [`Processor::with_caches`] shares one set across
    /// processors.  Entries are invalidated automatically when the catalog
    /// version moves — document loads, index DDL.
    caches: QueryCaches,
    /// Execution-knob override; `None` reads the `XQJG_*` environment on
    /// every execution (the seed behaviour).
    exec_config: Option<ExecConfig>,
    /// Cancellation token observed by join-graph executions; handed out via
    /// [`Processor::cancel_handle`] and re-armed before every execution.
    cancel: CancelToken,
}

impl Default for Processor {
    fn default() -> Self {
        Self::new()
    }
}

impl Processor {
    /// Create an empty processor with a private cache set.
    pub fn new() -> Self {
        Self::with_caches(QueryCaches::new())
    }

    /// Create an empty processor that reuses an existing cache set (warm
    /// plans, build sides and postings carry over from other processors
    /// sharing the same handles).
    pub fn with_caches(caches: QueryCaches) -> Self {
        Processor {
            doc: DocTable::new(),
            default_doc: None,
            db: None,
            caches,
            exec_config: None,
            cancel: CancelToken::new(),
        }
    }

    /// The processor's cache set (clone it to share with other processors).
    pub fn caches(&self) -> &QueryCaches {
        &self.caches
    }

    /// The session's hash-join build cache (hit counters are surfaced for
    /// benchmarks and tests).
    pub fn build_cache(&self) -> &BuildCache {
        self.caches.builds()
    }

    /// Pin the execution configuration instead of re-reading the `XQJG_*`
    /// environment on every execution (`None` restores the env-driven
    /// default).  This is how benchmarks flip cache knobs per-processor
    /// without racing on process environment.
    pub fn set_exec_config(&mut self, cfg: Option<ExecConfig>) {
        self.exec_config = cfg;
    }

    /// The configuration the next execution will run under.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_config
            .clone()
            .unwrap_or_else(ExecConfig::from_env)
    }

    /// A clonable handle that cancels the processor's in-flight join-graph
    /// execution from another thread.  The token is re-armed (cleared) at
    /// the start of every execution, so a handle can be kept and reused
    /// across queries; cancelling between queries does not poison the next
    /// one.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Parse and load an XML document under the given URI.  The first loaded
    /// document becomes the target of absolute paths (`/site/…`).
    pub fn load_document(&mut self, uri: &str, xml: &str) -> Result<(), QueryError> {
        let table = encode_document(uri, xml).map_err(|e| QueryError::new("parse", e))?;
        self.load_encoded(uri, table);
        Ok(())
    }

    /// Load an already-encoded document (used by the data generators).
    pub fn load_encoded(&mut self, uri: &str, table: DocTable) {
        if self.default_doc.is_none() {
            self.default_doc = Some(uri.to_string());
        }
        if self.doc.is_empty() {
            self.doc = table;
        } else {
            // Append the incoming rows with shifted pre ranks.
            let base = self.doc.len() as u32;
            let mut rows: Vec<xqjg_xml::NodeRow> = self.doc.rows().cloned().collect();
            rows.extend(table.rows().cloned().map(|mut r| {
                r.pre += base;
                r
            }));
            self.doc = DocTable::from_rows(rows);
        }
        self.db = None;
    }

    /// The XML-side encoding.
    pub fn doc(&self) -> &DocTable {
        &self.doc
    }

    /// The URI absolute paths refer to.
    pub fn default_document(&self) -> Option<&str> {
        self.default_doc.as_deref()
    }

    /// The relational database (built lazily from the encoding).
    pub fn database(&mut self) -> &Database {
        if self.db.is_none() {
            let mut db = Database::new();
            db.create_table("doc", doc_relation(&self.doc));
            self.db = Some(db);
        }
        self.db.as_ref().expect("database built")
    }

    /// Create the standing B-tree index set used throughout the evaluation
    /// (the deployed equivalent of Table VI): name/kind-prefixed structural
    /// indexes, a value-prefixed index for general comparisons, a
    /// data-prefixed index for numeric comparisons, and the clustered
    /// document-order index.
    pub fn create_default_indexes(&mut self) {
        self.database();
        let db = self.db.as_mut().expect("database built");
        let defs = vec![
            ("nkp", vec!["name", "kind", "pre"], false),
            ("nkdp", vec!["name", "kind", "data", "pre"], false),
            ("vnkp", vec!["value", "name", "kind", "pre"], false),
            ("p_nvkls", vec!["pre"], true),
        ];
        for (name, key, clustered) in defs {
            db.create_index(IndexDef {
                name: name.to_string(),
                table: "doc".to_string(),
                key_columns: key.into_iter().map(String::from).collect(),
                include_columns: if clustered {
                    vec!["name", "value", "kind", "level", "size"]
                        .into_iter()
                        .map(String::from)
                        .collect()
                } else {
                    vec![]
                },
                clustered,
            });
        }
    }

    /// Run the index advisor over a query workload and deploy its proposals
    /// (the `db2advis` experiment of Table VI).
    pub fn advise_and_deploy(
        &mut self,
        queries: &[&str],
    ) -> Result<Vec<IndexProposal>, QueryError> {
        let mut workload: Vec<SfwQuery> = Vec::new();
        for q in queries {
            let prepared = self.prepare(q)?;
            for b in &prepared.branches {
                workload.push(b.isolated.query.clone());
            }
        }
        self.database();
        let db = self.db.as_mut().expect("database built");
        let proposals = advise(&workload, db);
        deploy(&proposals, db);
        Ok(proposals)
    }

    /// Parse, normalize, compile and isolate a query without executing it.
    pub fn prepare(&self, query: &str) -> Result<Prepared, QueryError> {
        let ast = parse(query).map_err(|e| QueryError::new("parse", e))?;
        let core = normalize(&ast, self.default_doc.as_deref())
            .map_err(|e| QueryError::new("normalize", e))?;
        let branch_cores = decompose_sequences(&core);
        let mut branches = Vec::with_capacity(branch_cores.len());
        for bc in branch_cores {
            let stacked = compile(&bc)
                .map_err(|e| QueryError::new("compile", e))?
                .plan;
            let mut simplified = stacked.clone();
            let rewrite_report = simplify(&mut simplified);
            let isolated = isolate_sfw(&simplified).map_err(|e| QueryError::new("isolate", e))?;
            let iso_plan = isolated_plan(&isolated);
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

    /// Execute a query in the given mode.
    pub fn execute(&mut self, query: &str, mode: Mode) -> Result<Outcome, QueryError> {
        let prepared = self.prepare(query)?;
        self.execute_prepared(&prepared, mode)
    }

    /// Execute an already prepared query.
    pub fn execute_prepared(
        &mut self,
        prepared: &Prepared,
        mode: Mode,
    ) -> Result<Outcome, QueryError> {
        // Re-arm the cancellation token: a cancel aimed at a previous
        // (possibly already finished) execution must not abort this one.
        self.cancel.clear();
        if mode == Mode::JoinGraph {
            self.database();
        }
        let cfg = self.exec_config();
        let cancel = self.cancel.clone();
        self.execute_prepared_shared(prepared, mode, &cfg, &cancel)
    }

    /// The shared-session execution path: run an already prepared query
    /// *without mutating the processor*, so many server sessions can
    /// execute concurrently over one `Arc<Processor>` (and genuinely warm
    /// each other through the shared [`QueryCaches`]).  Each caller
    /// supplies its own pinned knobs and cancellation token — the serving
    /// layer's per-session state.
    ///
    /// Join-graph mode requires the relational catalog to exist already:
    /// call [`Processor::database`] (and deploy any indexes) *before*
    /// sharing the processor.  The mutating twin [`Processor::execute_prepared`]
    /// does exactly that and then delegates here.
    pub fn execute_prepared_shared(
        &self,
        prepared: &Prepared,
        mode: Mode,
        cfg: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<Outcome, QueryError> {
        match mode {
            Mode::Interpreter => {
                let start = Instant::now();
                let items = interpret(&prepared.core, &self.doc)
                    .map_err(|e| QueryError::new("interpret", e))?;
                let elapsed = start.elapsed();
                Ok(self.outcome(items, elapsed, None, vec![]))
            }
            Mode::Stacked => {
                let rel = doc_relation(&self.doc);
                let ctx = EvalContext { doc: &rel };
                let start = Instant::now();
                let mut items = Vec::new();
                for b in &prepared.branches {
                    let table = eval_plan(&b.stacked, &ctx);
                    items.extend(result_items(&table));
                }
                let elapsed = start.elapsed();
                Ok(self.outcome(items, elapsed, None, vec![]))
            }
            Mode::JoinGraph => {
                let db = self.db.as_ref().ok_or_else(|| {
                    QueryError::new(
                        "catalog",
                        "relational catalog not built; call database() before \
                         sharing the processor across sessions",
                    )
                })?;
                // Plan each branch, through the plan cache when enabled.
                // The cache key carries the knob fingerprint so plans tuned
                // under one configuration never serve another.
                let fingerprint = cfg.cache_fingerprint();
                let mut plans: Vec<(Arc<PhysPlan>, Option<bool>)> =
                    Vec::with_capacity(prepared.branches.len());
                for b in &prepared.branches {
                    if cfg.plan_cache {
                        let (plan, hit) = optimize_cached(
                            &b.isolated.query,
                            db,
                            self.caches.plans(),
                            &fingerprint,
                        )
                        .map_err(|e| QueryError::new("optimize", e))?;
                        plans.push((plan, Some(hit)));
                    } else {
                        let plan = optimize(&b.isolated.query, db)
                            .map_err(|e| QueryError::new("optimize", e))?;
                        plans.push((Arc::new(plan), None));
                    }
                }
                let start = Instant::now();
                let mut items = Vec::new();
                let mut stats = ExecStats::default();
                let mut branches = Vec::with_capacity(plans.len());
                let exec_caches = ExecCaches {
                    builds: Some(self.caches.builds()),
                    postings: Some(self.caches.postings()),
                };
                for (b, (plan, plan_hit)) in prepared.branches.iter().zip(plans) {
                    let out = QueryRequest::new(&plan, db)
                        .config(cfg)
                        .caches(exec_caches)
                        .cancel(cancel)
                        .run()
                        .map_err(QueryError::Exec)?;
                    let mut actuals = out.cache_actuals;
                    actuals.plan_cache = plan_hit;
                    stats.merge(&out.stats);
                    items.extend(result_items_from_sql(&out.rows, &b.isolated));
                    branches.push((plan, out.stats, actuals));
                }
                let elapsed = start.elapsed();
                Ok(self.outcome(items, elapsed, Some(stats), branches))
            }
        }
    }

    fn outcome(
        &self,
        items: Vec<Pre>,
        elapsed: Duration,
        exec_stats: Option<ExecStats>,
        branches: Vec<(Arc<PhysPlan>, ExecStats, CacheActuals)>,
    ) -> Outcome {
        let serialized_nodes = serialized_node_count(&self.doc, &items);
        Outcome {
            items,
            serialized_nodes,
            elapsed,
            exec_stats,
            branches,
        }
    }

    /// Serialize a node sequence back to XML text.
    pub fn serialize(&self, items: &[Pre]) -> String {
        serialize_nodes(&self.doc, items)
    }
}

/// Split a Core expression with a comma sequence under its `return` into one
/// expression per sequence item (the paper performs the analogous
/// `return-tuple` → XMLTABLE substitution for Q6).
pub fn decompose_sequences(core: &CoreExpr) -> Vec<CoreExpr> {
    match core {
        CoreExpr::Seq(items) => items.iter().flat_map(decompose_sequences).collect(),
        CoreExpr::For { var, seq, body } => decompose_sequences(body)
            .into_iter()
            .map(|b| CoreExpr::For {
                var: var.clone(),
                seq: seq.clone(),
                body: Box::new(b),
            })
            .collect(),
        CoreExpr::Let { var, value, body } => decompose_sequences(body)
            .into_iter()
            .map(|b| CoreExpr::Let {
                var: var.clone(),
                value: value.clone(),
                body: Box::new(b),
            })
            .collect(),
        CoreExpr::If { cond, then } => decompose_sequences(then)
            .into_iter()
            .map(|t| CoreExpr::If {
                cond: cond.clone(),
                then: Box::new(t),
            })
            .collect(),
        other => vec![other.clone()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AUCTION: &str = r#"<site>
        <open_auctions>
          <open_auction id="a1"><initial>10</initial><bidder><increase>5</increase></bidder></open_auction>
          <open_auction id="a2"><initial>20</initial></open_auction>
          <open_auction id="a3"><initial>7</initial><bidder><increase>1</increase></bidder><bidder><increase>2</increase></bidder></open_auction>
        </open_auctions>
        <closed_auctions>
          <closed_auction><price>600</price><itemref item="i1"/></closed_auction>
          <closed_auction><price>100</price><itemref item="i2"/></closed_auction>
        </closed_auctions>
        <items>
          <item id="i1"><name>bike</name></item>
          <item id="i2"><name>car</name></item>
        </items>
        <categories>
          <category id="c1"><name>vehicles</name></category>
        </categories>
      </site>"#;

    fn processor() -> Processor {
        let mut p = Processor::new();
        p.load_document("auction.xml", AUCTION).unwrap();
        p.create_default_indexes();
        p
    }

    /// The environment's knobs with all three caches pinned on, for the
    /// tests whose subject is the caches (CI's "caches off" leg runs the
    /// suite with `XQJG_*_CACHE=0`).
    fn caches_on() -> ExecConfig {
        ExecConfig::from_env()
            .with_build_cache(true)
            .with_plan_cache(true)
            .with_postings_cache(true)
    }

    fn assert_all_modes_agree(p: &mut Processor, query: &str) -> usize {
        let oracle = p.execute(query, Mode::Interpreter).unwrap();
        let stacked = p.execute(query, Mode::Stacked).unwrap();
        let joined = p.execute(query, Mode::JoinGraph).unwrap();
        assert_eq!(stacked.items, oracle.items, "stacked vs oracle for {query}");
        assert_eq!(
            joined.items, oracle.items,
            "join graph vs oracle for {query}"
        );
        oracle.items.len()
    }

    #[test]
    fn a_load_after_serializing_shows_in_the_next_serialization() {
        let mut p = Processor::new();
        p.load_document("a.xml", "<a>1</a>").unwrap();
        assert_eq!(p.serialize(&[Pre(0)]), "<a>1</a>");
        p.load_document("b.xml", "<b>2</b>").unwrap();
        assert_eq!(p.serialize(&[Pre(0), Pre(3)]), "<a>1</a>\n<b>2</b>");
        let c = encode_document("c.xml", "<c/>").unwrap();
        p.load_encoded("c.xml", c);
        assert_eq!(p.serialize(&[Pre(6)]), "<c/>");
    }

    #[test]
    fn q1_all_modes_agree() {
        let mut p = processor();
        let n = assert_all_modes_agree(
            &mut p,
            r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
        );
        assert_eq!(n, 2);
    }

    #[test]
    fn path_queries_all_modes_agree() {
        let mut p = processor();
        assert_all_modes_agree(&mut p, "//closed_auction/price/text()");
        assert_all_modes_agree(&mut p, "/site/items/item[@id = \"i1\"]/name/text()");
        assert_all_modes_agree(&mut p, "//open_auction[initial > 8]");
    }

    #[test]
    fn q2_style_join_all_modes_agree() {
        let mut p = processor();
        let n = assert_all_modes_agree(
            &mut p,
            r#"let $a := doc("auction.xml")
               for $ca in $a//closed_auction[price > 500],
                   $i in $a//item
               where $ca/itemref/@item = $i/@id
               return $i/name"#,
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn sequence_return_decomposes_and_matches_as_multiset() {
        let mut p = processor();
        let q = r#"for $i in //item return ($i/name, $i/@id)"#;
        let oracle = p.execute(q, Mode::Interpreter).unwrap();
        let joined = p.execute(q, Mode::JoinGraph).unwrap();
        let mut a = oracle.items.clone();
        let mut b = joined.items.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "sequence results agree as multisets");
        assert_eq!(oracle.items.len(), 4);
    }

    #[test]
    fn prepare_exposes_all_artifacts() {
        let p = processor();
        let prepared = p
            .prepare(r#"doc("auction.xml")/descendant::open_auction[bidder]"#)
            .unwrap();
        assert_eq!(prepared.branches.len(), 1);
        let b = &prepared.branches[0];
        assert!(b.stacked.size() > b.simplified.size());
        assert!(b.isolated.sql().contains("SELECT DISTINCT"));
        assert_eq!(b.isolated.query.from.len(), 3);
        assert!(b.rewrite_report.applications > 0);
    }

    #[test]
    fn serialization_and_node_counts() {
        let mut p = processor();
        let out = p
            .execute("//item[@id = \"i1\"]/name", Mode::JoinGraph)
            .unwrap();
        assert_eq!(out.items.len(), 1);
        assert_eq!(out.serialized_nodes, 2);
        let xml = p.serialize(&out.items);
        assert_eq!(xml, "<name>bike</name>");
        let stats = out.exec_stats.as_ref().unwrap();
        assert!(
            !stats.operators.is_empty(),
            "per-operator counters recorded"
        );
        assert_eq!(out.explain().len(), 1);
        assert!(
            out.explain()[0].contains("operator stats"),
            "explain carries actuals: {}",
            out.explain()[0]
        );
    }

    #[test]
    fn session_build_cache_survives_repeats_and_catalog_changes() {
        // The tiny fixture mostly plans nested-loop joins (the engine crate
        // covers cache hits directly); at the session level the invariant
        // is that repeated executions — with the build cache in the loop —
        // keep returning identical results across catalog changes.
        let mut p = processor();
        let q = r#"let $a := doc("auction.xml")
                   for $ca in $a//closed_auction, $i in $a//item
                   where $ca/itemref/@item = $i/@id
                   return $i/name"#;
        let first = p.execute(q, Mode::JoinGraph).unwrap();
        let second = p.execute(q, Mode::JoinGraph).unwrap();
        assert_eq!(first.items, second.items);
        assert!(p.build_cache().hits() <= p.build_cache().lookups());
        // New document DDL moves the catalog version; results stay right.
        p.load_document("other.xml", "<x><y/></x>").unwrap();
        p.create_default_indexes();
        let third = p.execute(q, Mode::JoinGraph).unwrap();
        assert_eq!(first.items, third.items);
    }

    #[test]
    fn plan_cache_serves_repeated_queries_and_shows_in_explain() {
        let mut p = processor();
        p.set_exec_config(Some(caches_on()));
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        let cold = p.execute(q, Mode::JoinGraph).unwrap();
        assert!(
            cold.explain()[0].contains("plan_cache=miss"),
            "first run misses: {}",
            cold.explain()[0]
        );
        let warm = p.execute(q, Mode::JoinGraph).unwrap();
        assert_eq!(warm.items, cold.items);
        assert!(
            warm.explain()[0].contains("plan_cache=hit"),
            "repeat run hits: {}",
            warm.explain()[0]
        );
        assert!(p.caches().plans().hits() > 0);
        // DDL moves the catalog version: the cached plan is stale.
        p.create_default_indexes();
        let after_ddl = p.execute(q, Mode::JoinGraph).unwrap();
        assert_eq!(after_ddl.items, cold.items);
        assert!(
            after_ddl.explain()[0].contains("plan_cache=miss"),
            "catalog bump invalidates: {}",
            after_ddl.explain()[0]
        );
    }

    #[test]
    fn shared_caches_warm_across_processors() {
        let caches = QueryCaches::new();
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        let mut a = Processor::with_caches(caches.clone());
        a.set_exec_config(Some(caches_on()));
        a.load_document("auction.xml", AUCTION).unwrap();
        a.create_default_indexes();
        let first = a.execute(q, Mode::JoinGraph).unwrap();
        // A second processor over the *same* document sees the same catalog
        // only after building its own database — which gets a fresh catalog
        // version, so correctness never depends on sharing.  What must hold:
        // identical results, and the shared handles observing all traffic.
        let mut b = Processor::with_caches(caches.clone());
        b.set_exec_config(Some(caches_on()));
        b.load_document("auction.xml", AUCTION).unwrap();
        b.create_default_indexes();
        let second = b.execute(q, Mode::JoinGraph).unwrap();
        assert_eq!(first.items, second.items);
        // Both processors consulted the same shared handles.
        assert!(caches.plans().lookups() >= 2, "shared plan cache saw both");
        assert!(caches.postings().lookups() > 0 || caches.builds().lookups() > 0);
    }

    #[test]
    fn caches_off_config_restores_seed_explain_format() {
        let mut p = processor();
        let q = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
        let cfg = ExecConfig::from_env()
            .with_build_cache(false)
            .with_plan_cache(false)
            .with_postings_cache(false);
        p.set_exec_config(Some(cfg));
        let off = p.execute(q, Mode::JoinGraph).unwrap();
        assert!(
            !off.explain()[0].contains("-- caches:"),
            "caches off leaves the explain untouched: {}",
            off.explain()[0]
        );
        assert_eq!(p.caches().plans().lookups(), 0);
        assert_eq!(p.caches().postings().lookups(), 0);
        // Flip the knobs back on: the same processor starts caching.
        p.set_exec_config(Some(caches_on()));
        let on = p.execute(q, Mode::JoinGraph).unwrap();
        assert_eq!(on.items, off.items);
        assert!(
            on.explain()[0].contains("plan_cache="),
            "{}",
            on.explain()[0]
        );
    }

    #[test]
    fn advisor_proposes_and_deploys_indexes() {
        let mut p = Processor::new();
        p.load_document("auction.xml", AUCTION).unwrap();
        let proposals = p
            .advise_and_deploy(&[r#"doc("auction.xml")/descendant::open_auction[bidder]"#])
            .unwrap();
        assert!(!proposals.is_empty());
        // The deployed indexes are immediately usable.
        let out = p
            .execute(
                r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
                Mode::JoinGraph,
            )
            .unwrap();
        assert_eq!(out.items.len(), 2);
    }

    #[test]
    fn errors_are_reported_per_stage() {
        let mut p = processor();
        assert_eq!(
            p.execute("for $x in", Mode::JoinGraph).unwrap_err().stage(),
            "parse"
        );
        assert_eq!(
            p.execute("$undefined/a", Mode::JoinGraph)
                .unwrap_err()
                .stage(),
            "compile"
        );
    }

    #[test]
    fn stale_cancel_is_cleared_before_execution() {
        let mut p = processor();
        let handle = p.cancel_handle();
        handle.cancel();
        // The token is re-armed at the start of every execution, so a
        // cancel aimed at a previous (finished) query does not abort the
        // next one.
        let ok = p.execute("//item", Mode::JoinGraph);
        assert!(ok.is_ok(), "pre-armed cancel is cleared: {ok:?}");
    }

    #[test]
    fn exec_error_maps_to_exec_stage() {
        let e = QueryError::Exec(ExecError::Cancelled);
        assert_eq!(e.stage(), "exec");
        assert_eq!(e.to_string(), "exec error: query cancelled");
    }

    #[test]
    fn decompose_handles_nested_structures() {
        let core =
            xqjg_xquery::parse_and_normalize("for $a in doc(\"d\")//x return ($a/b, $a/c)", None)
                .unwrap();
        let branches = decompose_sequences(&core);
        assert_eq!(branches.len(), 2);
        for b in &branches {
            assert!(matches!(b, CoreExpr::For { .. }));
        }
    }
}
