//! Typed execution errors, cancellation and deadlines.
//!
//! The paper's argument is that join-graph isolation lets mature relational
//! machinery carry XQuery — and mature relational machinery survives I/O
//! faults, resource exhaustion and operator cancellation *per query*, not
//! per process.  [`ExecError`] is the query-scoped error every fallible
//! layer of the executor (spill I/O, the operator pipeline) propagates
//! instead of panicking; [`CancelToken`] and [`Interrupt`] carry the
//! cooperative cancellation / deadline signal that the leaf scan polls
//! once per batch and the spill paths once per run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A query-scoped execution failure.
///
/// Everything is owned plain data (`Clone + Send`) so the error can cross
/// thread boundaries (a serving worker) and be stored in caches or
/// higher-level error types without lifetime or `io::Error` cloning
/// headaches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An I/O operation on a spill path failed.  `site` names the fault
    /// site (e.g. `spill.run.write`) so operators and tests can tell
    /// *which* disk interaction died.
    Io {
        /// The named fault site that failed.
        site: &'static str,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A spill record failed its checksum or structural validation when
    /// read back — the file and byte offset identify the damage.
    Corrupt {
        /// Path of the damaged run file.
        file: String,
        /// Byte offset of the damaged record within the file.
        offset: u64,
        /// What exactly failed to validate.
        detail: String,
    },
    /// A memory reservation could not be satisfied and no spill path was
    /// available to shed it.
    Budget {
        /// Bytes the operator asked for.
        requested: usize,
        /// The configured budget limit.
        limit: usize,
    },
    /// The query was cancelled via its [`CancelToken`].
    Cancelled,
    /// The query ran past its configured deadline (`XQJG_QUERY_TIMEOUT`),
    /// or waited in the admission queue past `XQJG_QUEUE_TIMEOUT`.
    Timeout {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
    /// The global admission controller's bounded wait queue is full — the
    /// service is oversubscribed beyond what queueing absorbs.  Retry
    /// later; nothing about the query itself is wrong.
    Overloaded {
        /// Queries already waiting for admission.
        queued: usize,
        /// The configured queue depth.
        depth: usize,
    },
}

impl ExecError {
    /// Build an [`ExecError::Io`] from a raw I/O error at a named site.
    pub fn io(site: &'static str, err: &std::io::Error) -> ExecError {
        ExecError::Io {
            site,
            message: err.to_string(),
        }
    }

    /// Is this failure worth retrying (a possibly transient I/O hiccup)?
    /// Corruption, cancellation and deadlines are not: retrying cannot
    /// repair a damaged record and must not extend a cancelled query.
    pub fn is_transient(&self) -> bool {
        matches!(self, ExecError::Io { .. })
    }

    /// Anchor a record-relative [`ExecError::Corrupt`] to its file: the
    /// codec reports offsets within one record buffer, the reader knows
    /// which file and at which base offset that buffer came from.  Errors
    /// already carrying a file, and non-corruption errors, pass through.
    pub fn located(self, file: &std::path::Path, base: u64) -> ExecError {
        match self {
            ExecError::Corrupt {
                file: f,
                offset,
                detail,
            } if f.is_empty() => ExecError::Corrupt {
                file: file.display().to_string(),
                offset: base + offset,
                detail,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Io { site, message } => write!(f, "I/O failure at {site}: {message}"),
            ExecError::Corrupt {
                file,
                offset,
                detail,
            } => write!(
                f,
                "corrupt spill record in {file} at offset {offset}: {detail}"
            ),
            ExecError::Budget { requested, limit } => write!(
                f,
                "memory budget exhausted: requested {requested} bytes against a {limit}-byte limit"
            ),
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::Timeout { limit_ms } => {
                write!(f, "query timed out after {limit_ms} ms")
            }
            ExecError::Overloaded { queued, depth } => write!(
                f,
                "server overloaded: admission queue full ({queued} waiting, depth {depth})"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A shareable cancellation flag: clone it, hand a copy to another thread
/// (or keep one in a service layer), and [`CancelToken::cancel`] makes
/// every execution polling the token fail with [`ExecError::Cancelled`]
/// at its next leaf batch or spill run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation of every execution sharing this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Re-arm the token for the next statement (a cancel request applies
    /// to the statement it interrupted, not to every future one).
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The per-execution interruption context: an optional shared
/// [`CancelToken`] plus an optional absolute deadline.  Checked once per
/// leaf batch and once per spill run; both checks are a relaxed atomic
/// load (plus one `Instant::now` when a deadline is set), so the
/// uninterrupted path stays hot.
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    token: Option<CancelToken>,
    deadline: Option<Instant>,
    limit_ms: u64,
}

impl Interrupt {
    /// An interrupt context with the given token and time limit (the
    /// deadline starts counting now).
    pub fn new(token: Option<CancelToken>, timeout: Option<Duration>) -> Interrupt {
        Interrupt {
            token,
            deadline: timeout.map(|t| Instant::now() + t),
            limit_ms: timeout.map(|t| t.as_millis() as u64).unwrap_or(0),
        }
    }

    /// Fail fast when the execution has been cancelled or timed out.
    pub fn check(&self) -> Result<(), ExecError> {
        if self.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(ExecError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ExecError::Timeout {
                limit_ms: self.limit_ms,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ExecError::Io {
            site: "spill.run.write",
            message: "disk full".into(),
        };
        assert!(e.to_string().contains("spill.run.write"));
        assert!(ExecError::Cancelled.to_string().contains("cancelled"));
        let c = ExecError::Corrupt {
            file: "/tmp/x.run".into(),
            offset: 42,
            detail: "bad tag".into(),
        };
        assert!(c.to_string().contains("offset 42"));
    }

    #[test]
    fn transience_is_io_only() {
        assert!(ExecError::io("spill.run.create", &std::io::Error::other("x")).is_transient());
        assert!(!ExecError::Cancelled.is_transient());
        assert!(!ExecError::Timeout { limit_ms: 5 }.is_transient());
        assert!(!ExecError::Corrupt {
            file: String::new(),
            offset: 0,
            detail: String::new()
        }
        .is_transient());
    }

    #[test]
    fn cancel_token_is_shared_and_clearable() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled());
        let i = Interrupt::new(Some(t.clone()), None);
        assert_eq!(i.check(), Err(ExecError::Cancelled));
        t.clear();
        assert_eq!(i.check(), Ok(()));
    }

    #[test]
    fn elapsed_deadline_times_out() {
        let i = Interrupt::new(None, Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(i.check(), Err(ExecError::Timeout { limit_ms: 0 }));
        let relaxed = Interrupt::new(None, Some(Duration::from_secs(3600)));
        assert_eq!(relaxed.check(), Ok(()));
        assert_eq!(Interrupt::default().check(), Ok(()));
    }
}
