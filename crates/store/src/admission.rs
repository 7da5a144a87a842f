//! Global admission control: apportioning one process-wide memory budget
//! across concurrent queries.
//!
//! The per-query [`crate::MemBudget`] governs *one* execution's pipeline
//! breakers.  A query service runs many executions at once, and their
//! budgets must sum to something the process can actually hold — that is
//! the [`AdmissionController`]'s job.  Every query asks for admission
//! before executing; the controller answers in one of three ways:
//!
//! 1. **Admit** — a session slot and a byte *grant* are available.  The
//!    grant (a slice of `XQJG_GLOBAL_BUDGET`) becomes the query's
//!    `mem_budget`, so an oversubscribed service *forces spill* instead of
//!    over-allocating: late arrivals receive smaller slices and their
//!    pipeline breakers go external (the machinery of `crate::spill`).
//! 2. **Queue** — no slot or no reasonable slice is free.  The query waits
//!    in a bounded FIFO queue (no overtaking) until capacity releases, its
//!    [`CancelToken`] fires ([`ExecError::Cancelled`] — the waiter's queue
//!    position is released immediately), or the configured queue timeout
//!    elapses ([`ExecError::Timeout`]).
//! 3. **Reject** — the wait queue itself is full ([`ExecError::Overloaded`]);
//!    the service is oversubscribed beyond what queueing absorbs.
//!
//! Grants are RAII: dropping the [`AdmissionPermit`] returns the slice and
//! the session slot and wakes the queue, so error paths cannot leak
//! capacity.  [`AdmissionController::drained`] is the shutdown assertion
//! — after the last query finishes, occupancy must be back to zero.

use crate::config::{strict_bytes, strict_duration, strict_usize, ConfigError};
use crate::error::{CancelToken, ExecError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default cap on concurrently admitted queries (`XQJG_MAX_SESSIONS`).
pub const DEFAULT_MAX_SESSIONS: usize = 16;

/// Default bound on queries waiting for admission, as a multiple of
/// `max_sessions`.
pub const QUEUE_DEPTH_PER_SESSION: usize = 4;

/// Default admission-queue timeout (`XQJG_QUEUE_TIMEOUT`).
pub const DEFAULT_QUEUE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a queued waiter sleeps between cancellation polls.  Releases
/// notify the condvar immediately; this bound only affects how fast a
/// cancel-while-queued is observed.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// The admission knobs (`XQJG_GLOBAL_BUDGET` / `XQJG_MAX_SESSIONS` /
/// `XQJG_QUEUE_TIMEOUT`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Process-wide memory budget apportioned across concurrent queries
    /// (`None` = unlimited: admission only gates session slots).
    pub global_budget: Option<usize>,
    /// Maximum concurrently admitted queries.
    pub max_sessions: usize,
    /// Maximum queries waiting in the admission queue before new arrivals
    /// are rejected with [`ExecError::Overloaded`].
    pub queue_depth: usize,
    /// How long one query may wait for admission before failing with
    /// [`ExecError::Timeout`].
    pub queue_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            global_budget: None,
            max_sessions: DEFAULT_MAX_SESSIONS,
            queue_depth: DEFAULT_MAX_SESSIONS * QUEUE_DEPTH_PER_SESSION,
            queue_timeout: DEFAULT_QUEUE_TIMEOUT,
        }
    }
}

impl AdmissionConfig {
    /// Read the admission knobs from the environment, failing on malformed
    /// values with a typed [`ConfigError`] (same strict syntax as
    /// [`crate::ExecConfig::try_from_env`]):
    ///
    /// * `XQJG_GLOBAL_BUDGET` — process-wide memory budget in bytes
    ///   (`k`/`m`/`g` suffixes; unset/`0` = unlimited),
    /// * `XQJG_MAX_SESSIONS` — concurrently admitted queries (positive
    ///   integer; default [`DEFAULT_MAX_SESSIONS`]),
    /// * `XQJG_QUEUE_TIMEOUT` — admission-queue wait limit (`ms`/`s`/`m`
    ///   suffixes, bare digits are milliseconds; default 10 s).
    pub fn try_from_env() -> Result<Self, ConfigError> {
        let mut cfg = AdmissionConfig::default();
        if let Ok(v) = std::env::var("XQJG_GLOBAL_BUDGET") {
            cfg.global_budget = strict_bytes("XQJG_GLOBAL_BUDGET", &v)?;
        }
        if let Ok(v) = std::env::var("XQJG_MAX_SESSIONS") {
            if let Some(n) = strict_usize("XQJG_MAX_SESSIONS", &v)? {
                cfg.max_sessions = n;
                cfg.queue_depth = n * QUEUE_DEPTH_PER_SESSION;
            }
        }
        if let Ok(v) = std::env::var("XQJG_QUEUE_TIMEOUT") {
            if let Some(t) = strict_duration("XQJG_QUEUE_TIMEOUT", &v)? {
                cfg.queue_timeout = t;
            }
        }
        Ok(cfg)
    }

    /// Builder: set (or clear) the global memory budget.
    pub fn with_global_budget(mut self, bytes: Option<usize>) -> Self {
        self.global_budget = bytes.filter(|&b| b > 0);
        self
    }

    /// Builder: set the concurrent-session cap (also resizes the default
    /// queue depth).
    pub fn with_max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n.max(1);
        self.queue_depth = self.max_sessions * QUEUE_DEPTH_PER_SESSION;
        self
    }

    /// Builder: set the admission-queue depth.
    pub fn with_queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Builder: set the admission-queue timeout.
    pub fn with_queue_timeout(mut self, t: Duration) -> Self {
        self.queue_timeout = t;
        self
    }

    /// The fair-share floor: the smallest slice worth admitting a query
    /// with when a global budget is set.  Admission waits until at least
    /// this much is free (rather than handing out ever-thinner slices to
    /// an unbounded number of queries).
    pub fn fair_share(&self) -> usize {
        self.global_budget
            .map(|g| (g / self.max_sessions).max(1))
            .unwrap_or(0)
    }
}

/// Queue + occupancy state behind the controller's mutex.
struct State {
    /// Bytes currently granted out of the global budget.
    in_use: usize,
    /// Queries currently admitted (not yet released).
    active: usize,
    /// FIFO wait queue of ticket numbers.
    queue: VecDeque<u64>,
    /// Next ticket to hand out.
    next_ticket: u64,
}

/// Monotonic counters describing everything the controller has decided.
/// Snapshot via [`AdmissionController::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted (immediately or after queueing).
    pub admitted: u64,
    /// Admissions that had to wait in the queue first.
    pub queued: u64,
    /// Waits that ended in [`ExecError::Timeout`].
    pub timeouts: u64,
    /// Waits that ended in [`ExecError::Cancelled`].
    pub cancelled: u64,
    /// Arrivals rejected because the queue was full.
    pub rejected: u64,
    /// Permits released so far.
    pub released: u64,
    /// Bytes of the global budget currently granted.
    pub in_use: usize,
    /// Queries currently admitted.
    pub active: usize,
    /// Queries currently waiting in the queue.
    pub waiting: usize,
    /// High-water mark of granted bytes.
    pub peak_in_use: usize,
}

/// The process-wide admission controller (see the module docs).  Shared
/// across sessions via `Arc`; every method takes `&self`.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    wake: Condvar,
    admitted: AtomicU64,
    queued: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    released: AtomicU64,
    peak_in_use: AtomicU64,
}

impl AdmissionController {
    /// A controller over the given knobs.
    pub fn new(cfg: AdmissionConfig) -> Arc<AdmissionController> {
        Arc::new(AdmissionController {
            cfg,
            state: Mutex::new(State {
                in_use: 0,
                active: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            wake: Condvar::new(),
            admitted: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            released: AtomicU64::new(0),
            peak_in_use: AtomicU64::new(0),
        })
    }

    /// The knobs this controller enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Can a query be admitted right now, given the current occupancy?
    fn admissible(&self, s: &State) -> bool {
        if s.active >= self.cfg.max_sessions {
            return false;
        }
        match self.cfg.global_budget {
            None => true,
            // First query in always gets whatever is configured; after
            // that, wait until at least a fair share is free.
            Some(g) => s.in_use == 0 || g - s.in_use >= self.cfg.fair_share(),
        }
    }

    /// The byte grant for a query wanting `want` (its session budget;
    /// `None` = as much as allowed), given current occupancy.
    fn grant(&self, s: &State, want: Option<usize>) -> Option<usize> {
        match self.cfg.global_budget {
            // No global budget: the session budget passes through.
            None => want,
            Some(g) => {
                let available = g - s.in_use;
                Some(want.unwrap_or(g).min(available).max(1))
            }
        }
    }

    /// Book an admission under the lock (caller has checked
    /// [`Self::admissible`]).
    fn book(self: &Arc<Self>, s: &mut State, want: Option<usize>) -> AdmissionPermit {
        let granted = self.grant(s, want);
        if self.cfg.global_budget.is_some() {
            s.in_use += granted.unwrap_or(0);
            let mut peak = self.peak_in_use.load(Ordering::Relaxed);
            while (s.in_use as u64) > peak {
                match self.peak_in_use.compare_exchange_weak(
                    peak,
                    s.in_use as u64,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => peak = seen,
                }
            }
        }
        s.active += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        AdmissionPermit {
            ctrl: self.clone(),
            granted,
            charged: self.cfg.global_budget.is_some(),
        }
    }

    /// Ask for admission.  `want` is the session's configured per-query
    /// memory budget (`None` = unbounded); the returned permit's
    /// [`AdmissionPermit::granted`] is the budget the query must execute
    /// under — under a global budget it is always `Some` slice, which is
    /// how oversubscription forces spill instead of memory blow-up.
    ///
    /// Blocks (FIFO, no overtaking) while the service is saturated;
    /// `cancel` aborts the wait with [`ExecError::Cancelled`], the
    /// configured queue timeout with [`ExecError::Timeout`], and a full
    /// queue rejects immediately with [`ExecError::Overloaded`].
    pub fn admit(
        self: &Arc<Self>,
        want: Option<usize>,
        cancel: Option<&CancelToken>,
    ) -> Result<AdmissionPermit, ExecError> {
        let deadline = Instant::now() + self.cfg.queue_timeout;
        let mut s = self.state.lock().expect("admission state poisoned");
        // Fast path: nobody waiting and capacity free.
        if s.queue.is_empty() && self.admissible(&s) {
            return Ok(self.book(&mut s, want));
        }
        if s.queue.len() >= self.cfg.queue_depth {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ExecError::Overloaded {
                queued: s.queue.len(),
                depth: self.cfg.queue_depth,
            });
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.queue.push_back(ticket);
        self.queued.fetch_add(1, Ordering::Relaxed);
        loop {
            // Only the queue head may admit — strict FIFO, deterministic
            // under load.
            if s.queue.front() == Some(&ticket) && self.admissible(&s) {
                s.queue.pop_front();
                let permit = self.book(&mut s, want);
                // The next waiter may also be admissible (e.g. two session
                // slots freed at once).
                self.wake.notify_all();
                return Ok(permit);
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                s.queue.retain(|&t| t != ticket);
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                self.wake.notify_all();
                return Err(ExecError::Cancelled);
            }
            let now = Instant::now();
            if now >= deadline {
                s.queue.retain(|&t| t != ticket);
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                self.wake.notify_all();
                return Err(ExecError::Timeout {
                    limit_ms: self.cfg.queue_timeout.as_millis() as u64,
                });
            }
            // Sleep until a release notifies, the deadline nears, or the
            // cancellation poll interval elapses.
            let wait = (deadline - now).min(CANCEL_POLL);
            let (guard, _) = self
                .wake
                .wait_timeout(s, wait)
                .expect("admission state poisoned");
            s = guard;
        }
    }

    /// Release a permit's grant (called from [`AdmissionPermit::drop`]).
    fn release(&self, granted: Option<usize>, charged: bool) {
        let mut s = self.state.lock().expect("admission state poisoned");
        if charged {
            let g = granted.unwrap_or(0);
            debug_assert!(s.in_use >= g, "releasing more than was granted");
            s.in_use -= g;
        }
        debug_assert!(s.active > 0, "releasing a permit with no active query");
        s.active -= 1;
        self.released.fetch_add(1, Ordering::Relaxed);
        drop(s);
        self.wake.notify_all();
    }

    /// Counter snapshot (monotonic totals plus current occupancy).
    pub fn stats(&self) -> AdmissionStats {
        let s = self.state.lock().expect("admission state poisoned");
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            in_use: s.in_use,
            active: s.active,
            waiting: s.queue.len(),
            peak_in_use: self.peak_in_use.load(Ordering::Relaxed) as usize,
        }
    }

    /// Is the controller fully drained — no active queries, no granted
    /// bytes, no waiters?  The clean-shutdown assertion of a serving
    /// layer.
    pub fn drained(&self) -> bool {
        let s = self.state.lock().expect("admission state poisoned");
        s.active == 0 && s.in_use == 0 && s.queue.is_empty()
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("config", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

/// An admission grant, RAII-released.  Execute the query with
/// [`AdmissionPermit::granted`] as its `mem_budget`, then drop the permit.
#[must_use = "dropping the permit releases the admission grant"]
#[derive(Debug)]
pub struct AdmissionPermit {
    ctrl: Arc<AdmissionController>,
    granted: Option<usize>,
    charged: bool,
}

impl AdmissionPermit {
    /// The memory budget the admitted query must execute under: a slice of
    /// the global budget when one is configured (possibly smaller than the
    /// session asked for — the spill machinery absorbs the difference), or
    /// the session's own budget when admission is slot-only.
    pub fn granted(&self) -> Option<usize> {
        self.granted
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.ctrl.release(self.granted, self.charged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny(global: usize, sessions: usize) -> Arc<AdmissionController> {
        AdmissionController::new(
            AdmissionConfig::default()
                .with_global_budget(Some(global))
                .with_max_sessions(sessions)
                .with_queue_timeout(Duration::from_millis(200)),
        )
    }

    #[test]
    fn first_query_gets_the_full_remaining_budget() {
        let c = tiny(1000, 4);
        let p = c.admit(None, None).unwrap();
        assert_eq!(p.granted(), Some(1000));
        drop(p);
        assert!(c.drained());
        assert_eq!(c.stats().released, 1);
    }

    #[test]
    fn session_budget_caps_the_grant() {
        let c = tiny(1000, 4);
        let p = c.admit(Some(100), None).unwrap();
        assert_eq!(p.granted(), Some(100));
        // The rest of the budget serves the next query.
        let q = c.admit(None, None).unwrap();
        assert_eq!(q.granted(), Some(900));
    }

    #[test]
    fn no_global_budget_passes_session_budget_through() {
        let c = AdmissionController::new(AdmissionConfig::default());
        let p = c.admit(Some(4096), None).unwrap();
        assert_eq!(p.granted(), Some(4096));
        let q = c.admit(None, None).unwrap();
        assert_eq!(q.granted(), None);
        assert_eq!(c.stats().in_use, 0, "slot-only admission books no bytes");
    }

    #[test]
    fn oversubscription_queues_and_release_unblocks_fifo() {
        let c = tiny(1000, 2);
        // Two holders take everything (fair share = 500).
        let a = c.admit(Some(500), None).unwrap();
        let b = c.admit(None, None).unwrap();
        assert_eq!(b.granted(), Some(500));
        // A third query must queue, then be admitted once a holder leaves.
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || c2.admit(Some(50), None).map(|p| p.granted()));
        while c.stats().waiting == 0 {
            std::thread::yield_now();
        }
        drop(a);
        assert_eq!(waiter.join().unwrap().unwrap(), Some(50));
        let s = c.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.queued, 1);
        assert_eq!(s.timeouts, 0);
        drop(b);
    }

    #[test]
    fn queue_timeout_surfaces_as_timeout_error() {
        let c = tiny(1000, 1);
        let _hold = c.admit(None, None).unwrap();
        let err = c.admit(None, None).unwrap_err();
        assert_eq!(err, ExecError::Timeout { limit_ms: 200 });
        assert_eq!(c.stats().timeouts, 1);
        assert_eq!(c.stats().waiting, 0, "timed-out waiter left the queue");
    }

    #[test]
    fn cancellation_while_queued_releases_the_slot() {
        let c = AdmissionController::new(
            AdmissionConfig::default()
                .with_max_sessions(1)
                .with_queue_timeout(Duration::from_secs(30)),
        );
        let hold = c.admit(None, None).unwrap();
        let token = CancelToken::new();
        let t2 = token.clone();
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || c2.admit(None, Some(&t2)).map(|_| ()));
        while c.stats().waiting == 0 {
            std::thread::yield_now();
        }
        token.cancel();
        assert_eq!(waiter.join().unwrap().unwrap_err(), ExecError::Cancelled);
        let s = c.stats();
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.waiting, 0, "cancelled waiter released its queue slot");
        // The freed position is immediately usable once the holder leaves.
        drop(hold);
        assert!(c.admit(None, None).is_ok());
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let c = AdmissionController::new(
            AdmissionConfig::default()
                .with_max_sessions(1)
                .with_queue_depth(0)
                .with_queue_timeout(Duration::from_millis(50)),
        );
        let _hold = c.admit(None, None).unwrap();
        let err = c.admit(None, None).unwrap_err();
        assert_eq!(
            err,
            ExecError::Overloaded {
                queued: 0,
                depth: 0
            }
        );
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn session_slots_gate_even_without_a_global_budget() {
        let c = AdmissionController::new(
            AdmissionConfig::default()
                .with_max_sessions(2)
                .with_queue_timeout(Duration::from_millis(100)),
        );
        let _a = c.admit(None, None).unwrap();
        let _b = c.admit(None, None).unwrap();
        assert!(matches!(
            c.admit(None, None),
            Err(ExecError::Timeout { .. })
        ));
    }

    #[test]
    fn concurrent_churn_never_leaks_capacity() {
        let c = tiny(10_000, 4);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for j in 0..50 {
                        let want = Some(500 + (i * 37 + j * 13) % 2000);
                        match c.admit(want, None) {
                            Ok(p) => {
                                assert!(p.granted().unwrap() >= 1);
                                drop(p);
                            }
                            Err(ExecError::Timeout { .. }) => {}
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                });
            }
        });
        assert!(c.drained(), "all grants returned: {:?}", c.stats());
        let s = c.stats();
        assert_eq!(s.admitted, s.released);
        assert!(s.peak_in_use <= 10_000, "never over-granted: {s:?}");
    }

    #[test]
    fn env_knobs_parse_strictly() {
        // No env mutation (tests run in parallel): exercise the strict
        // parsers the env reader is built from.
        assert_eq!(strict_bytes("XQJG_GLOBAL_BUDGET", "64k"), Ok(Some(65536)));
        assert_eq!(strict_bytes("XQJG_GLOBAL_BUDGET", ""), Ok(None));
        assert!(strict_bytes("XQJG_GLOBAL_BUDGET", "lots").is_err());
        assert_eq!(strict_usize("XQJG_MAX_SESSIONS", "8"), Ok(Some(8)));
        assert!(strict_usize("XQJG_MAX_SESSIONS", "0").is_err());
        assert_eq!(
            strict_duration("XQJG_QUEUE_TIMEOUT", "250ms"),
            Ok(Some(Duration::from_millis(250)))
        );
        assert!(strict_duration("XQJG_QUEUE_TIMEOUT", "soon").is_err());
    }

    #[test]
    fn fair_share_floor() {
        let cfg = AdmissionConfig::default()
            .with_global_budget(Some(1000))
            .with_max_sessions(4);
        assert_eq!(cfg.fair_share(), 250);
        assert_eq!(AdmissionConfig::default().fair_share(), 0);
    }
}
