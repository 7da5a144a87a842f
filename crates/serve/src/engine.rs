//! The service engine: one shared, prepared [`Processor`] (catalog +
//! cross-query caches), the global [`AdmissionController`], and the
//! session registry.  Every query of every protocol goes through
//! [`Engine::execute`] — admission, per-session knobs, cancellation and
//! the unified `QueryRequest` execution path underneath.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::response::{QueryResult, Response, ServeError};
use crate::session::Session;
use xqjg_core::{Outcome, Processor};
use xqjg_store::{
    AdmissionConfig, AdmissionController, AdmissionStats, CancelToken, ConfigError, ExecConfig,
};

/// Server-wide counters: the admission controller's tallies plus the
/// session registry and query outcome counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Admission-controller counters.
    pub admission: AdmissionStats,
    /// Currently open sessions.
    pub sessions: usize,
    /// Queries that returned a result.
    pub queries_ok: u64,
    /// Queries that returned an error (any kind, including admission).
    pub queries_err: u64,
}

/// The long-lived heart of the service.  `Engine` is `Send + Sync`;
/// sessions on any thread execute through `&self` — the processor's
/// catalog is immutable after construction and its caches are concurrent,
/// so sessions genuinely warm each other.
pub struct Engine {
    processor: Arc<Processor>,
    admission: Arc<AdmissionController>,
    defaults: ExecConfig,
    /// Session id → cancellation token.  Every update is one `insert` or
    /// `remove`, so a lock poisoned by a panicking request handler still
    /// guards a valid map, and the other workers keep using it.
    sessions: Mutex<HashMap<u64, CancelToken>>,
    next_session: AtomicU64,
    queries_ok: AtomicU64,
    queries_err: AtomicU64,
}

impl Engine {
    /// Wrap a loaded processor into a shareable engine.  Builds the
    /// relational catalog eagerly (the one mutation sessions would need),
    /// so concurrent sessions only ever see an immutable processor.
    /// Deploy any indexes (e.g. [`Processor::create_default_indexes`])
    /// *before* calling this.
    pub fn new(
        mut processor: Processor,
        defaults: ExecConfig,
        admission: AdmissionConfig,
    ) -> Arc<Engine> {
        processor.database();
        Arc::new(Engine {
            processor: Arc::new(processor),
            admission: AdmissionController::new(admission),
            defaults,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            queries_ok: AtomicU64::new(0),
            queries_err: AtomicU64::new(0),
        })
    }

    /// Build an engine from the environment: the strict knob parser for
    /// the execution defaults ([`ExecConfig::try_from_env`]) and the
    /// admission knobs (`XQJG_GLOBAL_BUDGET`, `XQJG_MAX_SESSIONS`,
    /// `XQJG_QUEUE_TIMEOUT`).  A malformed variable is a clean startup
    /// error, not a silently-default knob.
    pub fn from_env(processor: Processor) -> Result<Arc<Engine>, ConfigError> {
        Ok(Engine::new(
            processor,
            ExecConfig::try_from_env()?,
            AdmissionConfig::try_from_env()?,
        ))
    }

    /// The shared processor.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// The global admission controller (behind its `Arc` — admission
    /// takes `&Arc<Self>` so permits can hold their way home).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// The server-default execution knobs new sessions start from.
    pub fn defaults(&self) -> &ExecConfig {
        &self.defaults
    }

    /// Open a session: assign an id, register its cancellation token.
    pub fn open_session(&self) -> Session {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, cancel.clone());
        Session::new(id, self.defaults.clone(), cancel)
    }

    /// Close a session (deregisters its cancellation token).
    pub fn close_session(&self, id: u64) {
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    /// Cancel session `id`'s in-flight (or queued) query.  Returns whether
    /// the session exists.
    pub fn cancel(&self, id: u64) -> bool {
        let registry = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        match registry.get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Execute a query for a session and fold the outcome into the typed
    /// [`Response`].
    pub fn execute(&self, session: &Session, query: &str) -> Response {
        match self.run(session, query) {
            Ok((out, granted)) => {
                self.queries_ok.fetch_add(1, Ordering::Relaxed);
                Response::Result(QueryResult {
                    items: out.items,
                    serialized_nodes: out.serialized_nodes,
                    elapsed_us: out.elapsed.as_micros(),
                    granted,
                })
            }
            Err(e) => {
                self.queries_err.fetch_add(1, Ordering::Relaxed);
                Response::Error(e)
            }
        }
    }

    /// Execute a query and return its EXPLAIN blocks instead of rows.
    pub fn explain(&self, session: &Session, query: &str) -> Response {
        match self.run(session, query) {
            Ok((out, _)) => {
                self.queries_ok.fetch_add(1, Ordering::Relaxed);
                Response::Explain(out.explain())
            }
            Err(e) => {
                self.queries_err.fetch_add(1, Ordering::Relaxed);
                Response::Error(e)
            }
        }
    }

    /// The one execution path: re-arm the token, prepare, pass admission
    /// (the session's pinned `mem_budget` is the demand; the grant — which
    /// may be a *reduced* slice under global pressure, forcing a spill —
    /// replaces it), run shared, release the permit.
    fn run(&self, session: &Session, query: &str) -> Result<(Outcome, Option<usize>), ServeError> {
        session.cancel_token().clear();
        let prepared = self.processor.prepare(query).map_err(ServeError::from)?;
        let permit = self
            .admission
            .admit(session.config().mem_budget, Some(session.cancel_token()))
            .map_err(ServeError::from)?;
        let granted = permit.granted();
        let cfg = session.config().clone().with_mem_budget(granted);
        let out = self.processor.execute_prepared_shared(
            &prepared,
            session.mode(),
            &cfg,
            session.cancel_token(),
        );
        drop(permit);
        match out {
            Ok(o) => Ok((o, granted)),
            Err(e) => Err(e.into()),
        }
    }

    /// Server-wide counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admission: self.admission.stats(),
            sessions: self
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_err: self.queries_err.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
