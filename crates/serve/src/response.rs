//! The single typed response every service entry point returns, with the
//! two wire renderings (line protocol and JSON) kept side by side so they
//! cannot drift apart.

use crate::engine::ServerStats;
use xqjg_core::QueryError;
use xqjg_store::{ConfigError, ExecError};
use xqjg_xml::Pre;

/// A successful query execution, ready for rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Result node sequence (`pre` ranks in sequence order) — the payload
    /// the byte-identical parity checks compare.
    pub items: Vec<Pre>,
    /// Number of nodes a full serialization would emit (Table IX's
    /// "# nodes" column).
    pub serialized_nodes: usize,
    /// Wall-clock execution time in microseconds (excludes compilation).
    pub elapsed_us: u128,
    /// Bytes of the global budget granted by admission (`None` when the
    /// server runs without a global budget and the session pinned none).
    pub granted: Option<usize>,
}

/// A service-level error: a stable machine-readable `kind` plus the
/// human-readable message.  Every error source of the stack — compilation
/// stages, typed runtime errors, admission verdicts, knob parsing and the
/// wire protocol itself — folds into this one shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Stable error class: a pipeline stage name (`parse`, `optimize`,
    /// `catalog`, …) or a runtime class (`io`, `corrupt`, `budget`,
    /// `cancelled`, `timeout`, `overloaded`, `config`, `protocol`,
    /// `session`, `internal`).
    pub kind: &'static str,
    /// Description (single logical message; newlines are collapsed on the
    /// line protocol).
    pub message: String,
}

impl ServeError {
    /// A protocol-level error (unknown command, malformed arguments).
    pub fn protocol(message: impl Into<String>) -> ServeError {
        ServeError {
            kind: "protocol",
            message: message.into(),
        }
    }

    /// A request handler panicked (the request is answered with this, its
    /// session closed, and the worker keeps serving).
    pub fn internal(message: impl Into<String>) -> ServeError {
        ServeError {
            kind: "internal",
            message: message.into(),
        }
    }

    /// A session-registry error (unknown session id).
    pub fn session(message: impl Into<String>) -> ServeError {
        ServeError {
            kind: "session",
            message: message.into(),
        }
    }
}

/// The runtime error class names used by [`ServeError::kind`]; shared with
/// `QueryError::Exec` folding so admission errors and in-flight execution
/// errors render identically.
fn exec_kind(e: &ExecError) -> &'static str {
    match e {
        ExecError::Io { .. } => "io",
        ExecError::Corrupt { .. } => "corrupt",
        ExecError::Budget { .. } => "budget",
        ExecError::Cancelled => "cancelled",
        ExecError::Timeout { .. } => "timeout",
        ExecError::Overloaded { .. } => "overloaded",
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> ServeError {
        ServeError {
            kind: exec_kind(&e),
            message: e.to_string(),
        }
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> ServeError {
        match e {
            QueryError::Stage { stage, message } => ServeError {
                kind: stage,
                message,
            },
            QueryError::Exec(e) => e.into(),
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> ServeError {
        ServeError {
            kind: "config",
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ServeError {}

/// The unified response enum: results, EXPLAIN output, server counters and
/// typed errors all flow through here, whichever protocol carried the
/// request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Simple acknowledgement (`SET`, `MODE`, `PING`, …) with a detail
    /// string.
    Ok(String),
    /// A query result.
    Result(QueryResult),
    /// EXPLAIN text, one block per executed SQL statement.
    Explain(Vec<String>),
    /// Server-wide counters (admission + session + query tallies).
    Stats(ServerStats),
    /// A typed error.
    Error(ServeError),
}

impl From<ServeError> for Response {
    fn from(e: ServeError) -> Response {
        Response::Error(e)
    }
}

/// Collapse a message to one physical line for the line protocol.
fn one_line(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

impl Response {
    /// Render for the line protocol.  Single-line responses are
    /// self-delimiting; multi-line payloads (`RESULT`, `EXPLAIN`) carry a
    /// trailing `END` sentinel, with free-form payload lines prefixed by
    /// `| ` so a client can never confuse them with framing.
    pub fn render_line(&self) -> String {
        match self {
            Response::Ok(detail) if detail.is_empty() => "OK\n".to_string(),
            Response::Ok(detail) => format!("OK {}\n", one_line(detail)),
            Response::Result(r) => {
                let granted = r.granted.map_or_else(|| "-".to_string(), |g| g.to_string());
                let mut s = format!(
                    "RESULT rows={} nodes={} elapsed_us={} granted={}\nITEMS",
                    r.items.len(),
                    r.serialized_nodes,
                    r.elapsed_us,
                    granted
                );
                for p in &r.items {
                    s.push(' ');
                    s.push_str(&p.0.to_string());
                }
                s.push_str("\nEND\n");
                s
            }
            Response::Explain(blocks) => {
                let mut s = format!("EXPLAIN blocks={}\n", blocks.len());
                for b in blocks {
                    for line in b.lines() {
                        s.push_str("| ");
                        s.push_str(line);
                        s.push('\n');
                    }
                }
                s.push_str("END\n");
                s
            }
            Response::Stats(st) => {
                let a = &st.admission;
                format!(
                    "STATS sessions={} ok={} err={} active={} waiting={} \
                     in_use={} peak={} admitted={} queued={} timeouts={} \
                     cancelled={} rejected={} released={}\n",
                    st.sessions,
                    st.queries_ok,
                    st.queries_err,
                    a.active,
                    a.waiting,
                    a.in_use,
                    a.peak_in_use,
                    a.admitted,
                    a.queued,
                    a.timeouts,
                    a.cancelled,
                    a.rejected,
                    a.released
                )
            }
            Response::Error(e) => format!("ERR {} {}\n", e.kind, one_line(&e.message)),
        }
    }

    /// Render as a JSON document (for the HTTP endpoints).
    pub fn render_json(&self) -> String {
        match self {
            Response::Ok(detail) => format!("{{\"ok\":true,\"detail\":{}}}", json_str(detail)),
            Response::Result(r) => {
                let items: Vec<String> = r.items.iter().map(|p| p.0.to_string()).collect();
                format!(
                    "{{\"rows\":{},\"nodes\":{},\"elapsed_us\":{},\"granted\":{},\"items\":[{}]}}",
                    r.items.len(),
                    r.serialized_nodes,
                    r.elapsed_us,
                    r.granted
                        .map_or_else(|| "null".to_string(), |g| g.to_string()),
                    items.join(",")
                )
            }
            Response::Explain(blocks) => {
                let blocks: Vec<String> = blocks.iter().map(|b| json_str(b)).collect();
                format!("{{\"blocks\":[{}]}}", blocks.join(","))
            }
            Response::Stats(st) => {
                let a = &st.admission;
                format!(
                    "{{\"sessions\":{},\"queries_ok\":{},\"queries_err\":{},\
                     \"admission\":{{\"active\":{},\"waiting\":{},\"in_use\":{},\
                     \"peak_in_use\":{},\"admitted\":{},\"queued\":{},\
                     \"timeouts\":{},\"cancelled\":{},\"rejected\":{},\
                     \"released\":{}}}}}",
                    st.sessions,
                    st.queries_ok,
                    st.queries_err,
                    a.active,
                    a.waiting,
                    a.in_use,
                    a.peak_in_use,
                    a.admitted,
                    a.queued,
                    a.timeouts,
                    a.cancelled,
                    a.rejected,
                    a.released
                )
            }
            Response::Error(e) => format!(
                "{{\"error\":{{\"kind\":{},\"message\":{}}}}}",
                json_str(e.kind),
                json_str(&e.message)
            ),
        }
    }

    /// HTTP status for this response.
    pub fn http_status(&self) -> (u16, &'static str) {
        match self {
            Response::Error(e) => match e.kind {
                "overloaded" => (503, "Service Unavailable"),
                "timeout" => (504, "Gateway Timeout"),
                "io" | "corrupt" | "budget" | "internal" => (500, "Internal Server Error"),
                // Compilation stages, config, protocol, session, cancelled:
                // the request itself was unservable as posed.
                _ => (400, "Bad Request"),
            },
            _ => (200, "OK"),
        }
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rendering_frames_multiline_payloads() {
        let r = Response::Result(QueryResult {
            items: vec![Pre(3), Pre(7)],
            serialized_nodes: 5,
            elapsed_us: 42,
            granted: Some(1024),
        });
        let s = r.render_line();
        assert!(s.starts_with("RESULT rows=2 nodes=5 elapsed_us=42 granted=1024\n"));
        assert!(s.contains("ITEMS 3 7\n"));
        assert!(s.ends_with("END\n"));

        let e = Response::Explain(vec!["line one\nEND".to_string()]);
        let s = e.render_line();
        // Payload lines are prefixed so a literal END in EXPLAIN text can
        // never terminate the frame early.
        assert!(s.contains("| END\n"));
        assert!(s.ends_with("\nEND\n"));
    }

    #[test]
    fn error_folding_keeps_kinds_stable() {
        let e: ServeError = ExecError::Overloaded {
            queued: 4,
            depth: 4,
        }
        .into();
        assert_eq!(e.kind, "overloaded");
        assert_eq!(Response::from(e).http_status().0, 503);

        let e: ServeError = ExecError::Timeout { limit_ms: 10 }.into();
        assert_eq!(e.kind, "timeout");

        let e: ServeError = QueryError::Stage {
            stage: "parse",
            message: "oops".into(),
        }
        .into();
        assert_eq!(e.kind, "parse");
        assert_eq!(Response::from(e).http_status().0, 400);
    }

    #[test]
    fn json_rendering_escapes() {
        let r = Response::Error(ServeError::protocol("bad \"quote\"\nline"));
        let s = r.render_json();
        assert!(s.contains("\\\"quote\\\""));
        assert!(s.contains("\\n"));
        assert!(!s.contains('\n'));
    }
}
