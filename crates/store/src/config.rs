//! Execution configuration: the [`ExecConfig`] knobs every evaluation
//! path reads, and the one strict parser of their `XQJG_*` spellings
//! ([`ExecConfig::apply_knob`]) that the environment, the serving layer's
//! per-session `SET` and the tests share.
//!
//! Every query executes as one pipeline on the calling thread; concurrency
//! comes from running several queries at once (the serving layer's
//! connection workers), never from splitting one query across threads.

use std::path::PathBuf;

/// Runtime execution knobs shared by every evaluation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Ignored: every query runs as one pipeline on the calling thread.
    /// The field stays only because the `benchmark/` package still assigns
    /// it; it goes together with that package's `Machine.threads`.
    pub threads: usize,
    /// Tuples per [`crate::Batch`] flowing between operators.
    pub batch_capacity: usize,
    /// Memory budget in bytes for the pipeline breakers (SORT buffers,
    /// hash-join build sides, loaded probe partitions).  `None` never
    /// spills; any limit makes the breakers go external when their
    /// [`crate::MemBudget`] reservation fails (see [`crate::spill`]).
    pub mem_budget: Option<usize>,
    /// Directory spill runs are written to (`None` = the system temp
    /// directory).
    pub spill_dir: Option<PathBuf>,
    /// Wall-clock deadline for one execution; exceeding it fails the query
    /// with [`crate::ExecError::Timeout`] at the next leaf batch or spill
    /// run.  `None` = no limit.
    pub query_timeout: Option<std::time::Duration>,
    /// Honor the session/shared hash-join build cache (`XQJG_BUILD_CACHE`;
    /// `false` rebuilds every build side from scratch).
    pub build_cache: bool,
    /// Honor the plan cache in front of the optimizer (`XQJG_PLAN_CACHE`;
    /// `false` re-runs DP join enumeration for every execution).
    pub plan_cache: bool,
    /// Memoize hot `IXSCAN` posting lists ([`crate::PostingsCache`];
    /// `XQJG_POSTINGS_CACHE`; `false` re-walks the B-tree on every probe).
    pub postings_cache: bool,
}

/// The `XQJG_*` execution knobs [`ExecConfig`] understands, in
/// documentation order.  [`ExecConfig::apply_knob`] accepts exactly these
/// names; [`ExecConfig::try_from_env`] reads exactly these variables.
pub const EXEC_KNOBS: &[&str] = &[
    "XQJG_BATCH_CAPACITY",
    "XQJG_MEM_BUDGET",
    "XQJG_SPILL_DIR",
    "XQJG_QUERY_TIMEOUT",
    "XQJG_BUILD_CACHE",
    "XQJG_PLAN_CACHE",
    "XQJG_POSTINGS_CACHE",
];

/// A malformed configuration-knob value: which knob, what was supplied,
/// and what a well-formed value looks like.  This is the typed error every
/// knob-parsing path — environment reads, the serving layer's per-session
/// `SET` command — surfaces instead of silently falling back to a default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The knob (environment-variable spelling, e.g. `XQJG_MEM_BUDGET`).
    pub var: String,
    /// The value that failed to parse.
    pub value: String,
    /// Human-readable description of the accepted syntax.
    pub expected: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid value {:?} for {}: expected {}",
            self.value, self.var, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    fn new(var: &str, value: &str, expected: &'static str) -> ConfigError {
        ConfigError {
            var: var.to_string(),
            value: value.to_string(),
            expected,
        }
    }
}

/// Strictly parse a positive integer knob; empty means "unset".
pub(crate) fn strict_usize(var: &str, value: &str) -> Result<Option<usize>, ConfigError> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .map(Some)
        .ok_or_else(|| ConfigError::new(var, value, "a positive integer"))
}

/// Upper bound on `XQJG_BATCH_CAPACITY`: batches preallocate their
/// capacity, so an unbounded value is an allocation that aborts the
/// process instead of a query error.
pub const MAX_BATCH_CAPACITY: usize = 1 << 20;

/// [`strict_usize`] that also rejects values above `max`.
fn strict_usize_at_most(
    var: &str,
    value: &str,
    max: usize,
    expected: &'static str,
) -> Result<Option<usize>, ConfigError> {
    match strict_usize(var, value) {
        Ok(Some(n)) if n > max => Err(ConfigError::new(var, value, expected)),
        Err(_) => Err(ConfigError::new(var, value, expected)),
        r => r,
    }
}

/// Strictly parse a boolean knob; empty means "unset".
pub(crate) fn strict_bool(var: &str, value: &str) -> Result<Option<bool>, ConfigError> {
    let v = value.trim();
    if v.is_empty() {
        return Ok(None);
    }
    if v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on") {
        Ok(Some(true))
    } else if v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off") {
        Ok(Some(false))
    } else {
        Err(ConfigError::new(
            var,
            value,
            "a boolean (0/1/true/false/on/off)",
        ))
    }
}

/// Strictly parse a byte-count knob (`k`/`m`/`g` suffixes); empty and `0`
/// mean "unset" (`0` is the documented way to disable a budget).
pub(crate) fn strict_bytes(var: &str, value: &str) -> Result<Option<usize>, ConfigError> {
    let v = value.trim();
    if v.is_empty() || v == "0" {
        return Ok(None);
    }
    parse_bytes(v)
        .map(Some)
        .ok_or_else(|| ConfigError::new(var, value, "a byte count (suffixes k/m/g, e.g. 256k)"))
}

/// Strictly parse a duration knob (`ms`/`s`/`m` suffixes, bare digits are
/// milliseconds); empty and `0` mean "unset".
pub(crate) fn strict_duration(
    var: &str,
    value: &str,
) -> Result<Option<std::time::Duration>, ConfigError> {
    let v = value.trim();
    if v.is_empty() || v == "0" {
        return Ok(None);
    }
    parse_duration(v)
        .map(Some)
        .ok_or_else(|| ConfigError::new(var, value, "a duration (suffixes ms/s/m, e.g. 500ms)"))
}

impl ExecConfig {
    /// Apply one knob by its environment-variable name.  This is the *only*
    /// parser for `XQJG_*` execution knobs: [`ExecConfig::try_from_env`]
    /// folds it over [`EXEC_KNOBS`], and the serving layer's per-session
    /// `SET` command calls it directly — so environment, server and tests
    /// all agree on syntax and defaults.  An empty value resets the knob to
    /// its built-in default; a malformed value is a typed [`ConfigError`]
    /// (never a silent fallback); an unknown name is an error too.
    pub fn apply_knob(&mut self, var: &str, value: &str) -> Result<(), ConfigError> {
        match var {
            "XQJG_BATCH_CAPACITY" => {
                self.batch_capacity = strict_usize_at_most(
                    var,
                    value,
                    MAX_BATCH_CAPACITY,
                    "a positive integer of at most 1048576",
                )?
                .unwrap_or(crate::BATCH_CAPACITY)
            }
            "XQJG_MEM_BUDGET" => self.mem_budget = strict_bytes(var, value)?,
            "XQJG_SPILL_DIR" => {
                let v = value.trim();
                self.spill_dir = (!v.is_empty()).then(|| PathBuf::from(v));
            }
            "XQJG_QUERY_TIMEOUT" => self.query_timeout = strict_duration(var, value)?,
            "XQJG_BUILD_CACHE" => self.build_cache = strict_bool(var, value)?.unwrap_or(true),
            "XQJG_PLAN_CACHE" => self.plan_cache = strict_bool(var, value)?.unwrap_or(true),
            "XQJG_POSTINGS_CACHE" => self.postings_cache = strict_bool(var, value)?.unwrap_or(true),
            _ => {
                return Err(ConfigError::new(
                    var,
                    value,
                    "a known XQJG_* execution knob (see EXEC_KNOBS)",
                ))
            }
        }
        Ok(())
    }

    /// Read every [`EXEC_KNOBS`] variable from the environment, failing on
    /// the first malformed value with a typed [`ConfigError`] naming the
    /// variable, the offending value and the accepted syntax.  Unset and
    /// empty variables take their built-in defaults (see [`ExecConfig::apply_knob`]
    /// for per-knob syntax: positive integers for sizes, booleans for
    /// switches, `k`/`m`/`g` byte suffixes for `XQJG_MEM_BUDGET`,
    /// `ms`/`s`/`m` duration suffixes for `XQJG_QUERY_TIMEOUT`).
    ///
    /// This is the canonical environment builder: long-lived services call
    /// it once at startup so a typo in a deployment manifest is a clean
    /// startup error rather than a silently-default knob.
    pub fn try_from_env() -> Result<Self, ConfigError> {
        let mut cfg = ExecConfig::default();
        for var in EXEC_KNOBS {
            if let Ok(value) = std::env::var(var) {
                cfg.apply_knob(var, &value)?;
            }
        }
        Ok(cfg)
    }

    /// Lenient twin of [`ExecConfig::try_from_env`] for the per-query
    /// default path: a malformed variable falls back to its default after
    /// a one-shot process warning (the seed silently ignored it).  Fresh
    /// code with a place to report errors — services, CLIs — should prefer
    /// [`ExecConfig::try_from_env`].
    pub fn from_env() -> Self {
        let mut cfg = ExecConfig::default();
        for var in EXEC_KNOBS {
            if let Ok(value) = std::env::var(var) {
                if let Err(e) = cfg.apply_knob(var, &value) {
                    static WARN: std::sync::Once = std::sync::Once::new();
                    WARN.call_once(|| eprintln!("xqjg: ignoring malformed knob: {e}"));
                }
            }
        }
        cfg
    }

    /// Builder: set the batch capacity, clamped to
    /// `1..=`[`MAX_BATCH_CAPACITY`].
    pub fn with_batch_capacity(mut self, cap: usize) -> Self {
        self.batch_capacity = cap.clamp(1, MAX_BATCH_CAPACITY);
        self
    }

    /// Builder: set (or clear) the pipeline-breaker memory budget.
    pub fn with_mem_budget(mut self, bytes: Option<usize>) -> Self {
        self.mem_budget = bytes.filter(|&b| b > 0);
        self
    }

    /// Builder: set the spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builder: set (or clear) the wall-clock query deadline.
    pub fn with_query_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.query_timeout = timeout.filter(|t| !t.is_zero());
        self
    }

    /// Builder: honor or bypass the shared hash-join build cache.
    pub fn with_build_cache(mut self, on: bool) -> Self {
        self.build_cache = on;
        self
    }

    /// Builder: honor or bypass the plan cache.
    pub fn with_plan_cache(mut self, on: bool) -> Self {
        self.plan_cache = on;
        self
    }

    /// Builder: honor or bypass `IXSCAN` posting-list memoization.
    pub fn with_postings_cache(mut self, on: bool) -> Self {
        self.postings_cache = on;
        self
    }

    /// Compact fingerprint of the knobs a cached physical plan may depend
    /// on, part of every plan-cache key: two sessions differing in these
    /// knobs never share a cached plan.  The batch capacity changes only
    /// batch counts, so it is deliberately excluded and capacity sweeps
    /// share the warm plan.
    pub fn cache_fingerprint(&self) -> String {
        format!(
            "m{}",
            self.mem_budget.map(|b| b.to_string()).unwrap_or_default()
        )
    }
}

/// The documented defaults ([`crate::BATCH_CAPACITY`], no budget, caches
/// on) — deliberately *without*
/// the environment reads; use [`ExecConfig::from_env`] to honor the
/// `XQJG_*` knobs.
impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            batch_capacity: crate::BATCH_CAPACITY,
            mem_budget: None,
            spill_dir: None,
            query_timeout: None,
            build_cache: true,
            plan_cache: true,
            postings_cache: true,
        }
    }
}

/// Parse a byte count with an optional `k`/`m`/`g` (binary) suffix; zero,
/// empty and malformed inputs mean "unset".
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&s[..i], 1usize << 10),
        (i, 'm') | (i, 'M') => (&s[..i], 1usize << 20),
        (i, 'g') | (i, 'G') => (&s[..i], 1usize << 30),
        _ => (s, 1),
    };
    digits
        .trim()
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .filter(|&n| n > 0)
}

/// Parse a duration with an optional `ms`/`s`/`m` suffix (bare digits are
/// milliseconds, matching the most common timeout granularity); zero,
/// empty and malformed inputs mean "unset", like [`parse_bytes`].
pub fn parse_duration(s: &str) -> Option<std::time::Duration> {
    let s = s.trim();
    let (digits, scale_ms) = if let Some(d) = s.strip_suffix("ms").or_else(|| s.strip_suffix("MS"))
    {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix(['s', 'S']) {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix(['m', 'M']) {
        (d, 60_000)
    } else {
        (s, 1)
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(scale_ms))
        .filter(|&n| n > 0)
        .map(std::time::Duration::from_millis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_clamp_to_one() {
        let cfg = ExecConfig::from_env().with_batch_capacity(0);
        assert_eq!(cfg.batch_capacity, 1);
        // ...and batch capacities to their upper bound (nothing here
        // allocates a batch).
        let cfg = ExecConfig::from_env().with_batch_capacity(usize::MAX);
        assert_eq!(cfg.batch_capacity, MAX_BATCH_CAPACITY);
    }

    #[test]
    fn capacity_knob_rejects_values_above_its_bound() {
        let mut cfg = ExecConfig::default();
        let (var, max) = ("XQJG_BATCH_CAPACITY", MAX_BATCH_CAPACITY);
        cfg.apply_knob(var, &max.to_string()).expect(var);
        for bad in [max + 1, 1 << 40, usize::MAX] {
            let err = cfg.apply_knob(var, &bad.to_string()).expect_err(var);
            assert_eq!(
                (err.var.as_str(), err.value.clone()),
                (var, bad.to_string())
            );
            assert!(err.expected.contains(&max.to_string()), "{}", err.expected);
        }
        // Malformed values keep the plain syntax error path.
        assert!(cfg.apply_knob(var, "0").is_err());
        assert!(cfg.apply_knob(var, "lots").is_err());
        assert_eq!(
            cfg.batch_capacity, MAX_BATCH_CAPACITY,
            "a rejected value changes nothing"
        );
    }

    #[test]
    fn removed_and_unknown_knobs_are_config_errors() {
        let mut cfg = ExecConfig::default();
        for var in [
            "XQJG_VECTORIZE",
            "XQJG_TYPED_KERNELS",
            "XQJG_ADAPTIVE_BATCH",
            "XQJG_THREADS",
            "XQJG_MORSEL_SIZE",
            "XQJG_SPILL_RETRIES",
            "XQJG_WARP_DRIVE",
            "threads",
        ] {
            let err = cfg.apply_knob(var, "1").expect_err(var);
            assert_eq!(err.var, var);
        }
        assert_eq!(
            cfg,
            ExecConfig::default(),
            "a rejected knob changes nothing"
        );
    }

    #[test]
    fn exec_knobs_lists_exactly_the_names_apply_knob_accepts() {
        assert_eq!(EXEC_KNOBS.len(), 7);
        // Every listed name is a match arm (an empty value resets it)…
        for var in EXEC_KNOBS {
            let mut cfg = ExecConfig::default();
            cfg.apply_knob(var, "").expect(var);
        }
        // …and every match arm is listed: the arms are the quoted
        // `"XQJG_*" =>` patterns of `apply_knob` in this file.
        let src = include_str!("config.rs");
        let body = src
            .split("pub fn apply_knob")
            .nth(1)
            .and_then(|s| s.split("pub fn try_from_env").next())
            .expect("apply_knob body");
        let arms: Vec<&str> = body.split('"').filter(|t| t.starts_with("XQJG_")).collect();
        assert_eq!(arms, EXEC_KNOBS.to_vec());
    }

    #[test]
    fn parse_bytes_accepts_binary_suffixes_and_rejects_junk() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes(" 256k "), Some(256 * 1024));
        assert_eq!(parse_bytes("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_bytes("1g"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_bytes("0"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("lots"), None);
    }

    #[test]
    fn budget_builder_filters_zero() {
        let cfg = ExecConfig::default().with_mem_budget(Some(0));
        assert_eq!(cfg.mem_budget, None);
        let cfg = cfg.with_mem_budget(Some(1 << 20)).with_spill_dir("/tmp/x");
        assert_eq!(cfg.mem_budget, Some(1 << 20));
        assert_eq!(
            cfg.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
    }

    #[test]
    fn parse_duration_accepts_suffixes_and_rejects_junk() {
        use std::time::Duration;
        assert_eq!(parse_duration("250"), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration(" 250ms "), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration("3s"), Some(Duration::from_secs(3)));
        assert_eq!(parse_duration("2m"), Some(Duration::from_secs(120)));
        assert_eq!(parse_duration("0"), None);
        assert_eq!(parse_duration(""), None);
        assert_eq!(parse_duration("soon"), None);
    }

    #[test]
    fn timeout_builder_filters_zero_and_defaults_are_off() {
        use std::time::Duration;
        let cfg = ExecConfig::default();
        assert_eq!(cfg.query_timeout, None);
        let cfg = cfg.with_query_timeout(Some(Duration::ZERO));
        assert_eq!(cfg.query_timeout, None);
        let cfg = cfg.with_query_timeout(Some(Duration::from_secs(1)));
        assert_eq!(cfg.query_timeout, Some(Duration::from_secs(1)));
    }
}
