//! Spans around calls into the workspace's layers, taken from outside.
//!
//! Every workload module is generic over [`Tracer`]. The timed runs use
//! [`Off`], whose methods compile to nothing, so the end-to-end figures
//! are measured with tracing off. The traced run uses [`On`], which
//! aggregates spans in memory: per span name the call count, total and
//! self time (duration minus the time covered by child spans), and every
//! duration for percentiles.

use std::collections::BTreeMap;
use std::time::Instant;

/// A span sink. `begin` opens a span; the matching `end` closes it and
/// names it. Spans nest: a span opened while another is open is its
/// child.
pub trait Tracer {
    /// Opens a span.
    fn begin(&mut self);
    /// Closes the innermost open span under `name`.
    fn end(&mut self, name: &'static str);

    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin();
        let out = f();
        self.end(name);
        out
    }
}

/// Tracing off: no clock reads, no state.
#[derive(Debug, Default)]
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn end(&mut self, _name: &'static str) {}
}

/// Aggregate of one span name.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Closed spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans), ns.
    pub self_ns: u64,
    /// Every duration, ns, for percentiles.
    pub durations: Vec<u64>,
}

impl SpanStats {
    /// Mean duration, ns (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile of the durations, ns.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let mut d = self.durations.clone();
        d.sort_unstable();
        match d.len() {
            0 => 0,
            n => d[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        }
    }
}

/// Tracing on: spans aggregated by name.
#[derive(Debug, Default)]
pub struct On {
    /// Open spans: start time and child time covered so far.
    stack: Vec<(Instant, u64)>,
    spans: BTreeMap<&'static str, SpanStats>,
}

impl Tracer for On {
    fn begin(&mut self) {
        self.stack.push((Instant::now(), 0));
    }

    fn end(&mut self, name: &'static str) {
        let (start, child_ns) = self.stack.pop().expect("end without begin");
        let dur = start.elapsed().as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.1 += dur;
        }
        let s = self.spans.entry(name).or_default();
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(child_ns);
        s.durations.push(dur);
    }
}

impl On {
    /// The aggregate for `name` (empty when the span never ran).
    pub fn get(&self, name: &str) -> SpanStats {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// Sum of self times over every span, ns: the traced wall time that
    /// some layer span covers.
    pub fn covered_ns(&self) -> u64 {
        self.spans.values().map(|s| s.self_ns).sum()
    }

    /// A table of every span (count, total, self, p50, p99), one line per
    /// span name, for the end of a traced run.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<22} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "p50_us", "p99_us"
        );
        for (name, s) in &self.spans {
            out += &format!(
                "{:<22} {:>10} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.percentile_ns(0.5) as f64 / 1e3,
                s.percentile_ns(0.99) as f64 / 1e3,
            );
        }
        out
    }
}
