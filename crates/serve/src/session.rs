//! Per-session state: a pinned copy of the server's default execution
//! knobs (mutable through `SET`, parsed by the *same*
//! [`ExecConfig::apply_knob`] the environment goes through), the
//! evaluation mode, and the cancellation token registered with the engine
//! so other sessions can `CANCEL` this one's in-flight query.

use crate::response::ServeError;
use xqjg_core::Mode;
use xqjg_store::{CancelToken, ConfigError, ExecConfig};

/// One client session.  Sessions are plain data — the [`crate::Engine`]
/// owns the registry that maps session ids to cancellation tokens.
#[derive(Debug, Clone)]
pub struct Session {
    id: u64,
    mode: Mode,
    cfg: ExecConfig,
    cancel: CancelToken,
}

impl Session {
    pub(crate) fn new(id: u64, cfg: ExecConfig, cancel: CancelToken) -> Session {
        Session {
            id,
            mode: Mode::JoinGraph,
            cfg,
            cancel,
        }
    }

    /// The server-assigned session id (announced in the `HELLO` banner;
    /// the argument other sessions pass to `CANCEL`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The evaluation mode queries of this session run under.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The session's pinned knobs.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// The session's cancellation token (shared with the engine registry).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Apply one `SET` command.  Knob names accept both the full
    /// environment spelling (`XQJG_MEM_BUDGET`) and the bare suffix
    /// (`mem_budget`); values go through the one central parser, so the wire
    /// protocol and the environment agree on syntax, defaults and errors.
    pub fn set_knob(&mut self, var: &str, value: &str) -> Result<(), ConfigError> {
        let upper = var.to_ascii_uppercase();
        let full = if upper.starts_with("XQJG_") {
            upper
        } else {
            format!("XQJG_{upper}")
        };
        self.cfg.apply_knob(&full, value)
    }

    /// Switch the evaluation mode (`MODE` command).
    pub fn set_mode(&mut self, name: &str) -> Result<Mode, ServeError> {
        let mode = match name.to_ascii_lowercase().as_str() {
            "interpreter" => Mode::Interpreter,
            "stacked" => Mode::Stacked,
            "joingraph" | "join-graph" | "join_graph" => Mode::JoinGraph,
            other => {
                return Err(ServeError::protocol(format!(
                    "unknown mode {other:?}: expected interpreter, stacked or joingraph"
                )))
            }
        };
        self.mode = mode;
        Ok(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(1, ExecConfig::sequential(), CancelToken::new())
    }

    #[test]
    fn set_knob_accepts_both_spellings() {
        let mut s = session();
        s.set_knob("batch_capacity", "3").unwrap();
        assert_eq!(s.config().batch_capacity, 3);
        s.set_knob("XQJG_BATCH_CAPACITY", "5").unwrap();
        assert_eq!(s.config().batch_capacity, 5);
        s.set_knob("mem_budget", "64k").unwrap();
        assert_eq!(s.config().mem_budget, Some(64 << 10));
        // Same strict parser as the environment: malformed is typed.
        let err = s.set_knob("batch_capacity", "lots").unwrap_err();
        assert_eq!(err.var, "XQJG_BATCH_CAPACITY");
        // Unknown and removed knobs are errors, not silent no-ops.
        assert!(s.set_knob("bogus", "1").is_err());
        assert!(s.set_knob("threads", "2").is_err());
        assert!(s.set_knob("morsel_size", "64").is_err());
    }

    #[test]
    fn set_mode_parses() {
        let mut s = session();
        assert_eq!(s.set_mode("interpreter").unwrap(), Mode::Interpreter);
        assert_eq!(s.set_mode("JOINGRAPH").unwrap(), Mode::JoinGraph);
        assert_eq!(s.set_mode("stacked").unwrap(), Mode::Stacked);
        assert!(s.set_mode("vectorwise").is_err());
    }
}
