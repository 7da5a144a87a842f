//! Spans recorded from outside the crates, around the calls into each
//! layer.  Kept in memory, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span without a parent.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// `cycle * queries + query`: the spans of one request share it.
    pub trace: u32,
    /// Index of the parent span; a span's own id is its index.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn is_root(&self) -> bool {
        self.parent == ROOT
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    trace: u32,
}

impl Tracer {
    /// `capacity` spans are allocated up front so recording does not
    /// reallocate inside a timed call.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Later spans belong to request `trace`.
    pub fn begin_trace(&mut self, trace: u32) {
        self.trace = trace;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// A span around one call.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if !s.is_root() {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time in ms per span name and cycle (`trace / per_cycle`):
    /// `name -> cycle -> ms`.
    pub fn self_ms_by_cycle(&self, per_cycle: u32) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name)
                .or_default()
                .entry(s.trace / per_cycle)
                .or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Duration in ms of the root spans called `name`, per cycle.
    pub fn root_ms_by_cycle(&self, name: &str, per_cycle: u32) -> BTreeMap<u32, f64> {
        let mut out: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.is_root() && s.name == name) {
            *out.entry(s.trace / per_cycle).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + header.len() + 32);
        let _ = write!(s, "{{{header},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"trace\":{},\"id\":{i},\"parent\":",
                sp.name, sp.trace
            );
            if sp.is_root() {
                s.push_str("null");
            } else {
                let _ = write!(s, "{}", sp.parent);
            }
            let _ = write!(
                s,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::with_capacity(4);
        t.begin_trace(7);
        let root = t.enter("query");
        t.leaf("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.leaf("b", || ());
        t.exit(root);
        let spans = t.spans();
        assert!(spans[0].is_root());
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].trace, 7);
        let own = t.self_times_ns();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own.iter().sum::<u64>(), total);
        assert!(own[1] >= 2_000_000);
        let by_cycle = t.self_ms_by_cycle(6);
        assert_eq!(by_cycle["a"].keys().copied().collect::<Vec<_>>(), [1]);
    }
}
