//! In-memory spans recorded by the benchmark around its calls into each
//! layer (traced runs only). A span holds its name, start, end, parent
//! span and statement id; spans are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, `u32::MAX` for a root.
    pub parent: u32,
    pub stmt: u64,
}

pub const ROOT: u32 = u32::MAX;

/// A span recorder. When disabled every call is a no-op, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, stmt: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, stmt });
        self.open.push((self.spans.len() - 1) as u32);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Move another tracer's spans (e.g. a client thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (span count, total time, self time) in µs. Self time
    /// is a span's duration minus the part of it its children cover
    /// (children never overlap one another: one thread records them).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e3;
            e.2 += total.saturating_sub(child) as f64 / 1e3;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"stmt\":{}}}",
                s.name, s.start_ns, s.end_ns, s.stmt
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("outer", 1);
        t.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let times = t.self_times();
        let (n, total, self_us) = times["outer"];
        let (_, inner_total, _) = times["inner"];
        assert_eq!(n, 1);
        assert!(inner_total >= 2000.0);
        assert!((total - self_us - inner_total).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter("x", 0);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
