//! What every workload module shares: the run's arguments, its outcome
//! record, output digests, repetition and medians.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload seed; every input of the run derives from it.
    pub seed: u64,
    /// Measuring time: operations repeat until it is spent.
    pub seconds: f64,
    /// Miniature sizes (the benchmark's own smoke test).
    pub mini: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The record of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or panicked.
    pub errors: u64,
    /// Output digest of every operation that completed, in order.
    pub digests: Vec<String>,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Runs `op` once as an attempted operation; an error or a panic
    /// counts as a failed one and yields `None`.
    pub fn attempt<R>(&mut self, op: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                eprintln!("operation failed: {e}");
                self.errors += 1;
                None
            }
            Err(_) => {
                eprintln!("operation panicked");
                self.errors += 1;
                None
            }
        }
    }

    /// Runs `op` as attempted operations until `seconds` have passed
    /// since the first began and at least `min_ops` were attempted.
    pub fn repeat<R>(
        &mut self,
        seconds: f64,
        min_ops: usize,
        mut op: impl FnMut() -> Result<R, String>,
    ) -> Vec<R> {
        let start = Instant::now();
        let mut done = Vec::new();
        let mut tried = 0;
        while tried < min_ops || start.elapsed().as_secs_f64() < seconds {
            tried += 1;
            done.extend(self.attempt(&mut op));
        }
        done
    }
}

/// FNV-1a over the text of a simulated output: a stable 64-bit digest.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Adds `text`, then a separator.
    pub fn add(&mut self, text: &str) -> &mut Self {
        for b in text.bytes().chain([b'\n']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `v` without its lowest and highest tenth (rounded up, and at
/// least the middle sample left); 0 if empty. The set-up metric uses it:
/// on a shared host, set-up samples fall into a fast and a slow mode, and
/// a median jumps from one mode to the other as the mix shifts, while
/// this mean follows the mix smoothly and still drops outliers.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len().div_ceil(10).min(s.len().saturating_sub(1) / 2);
    let mid = &s[k..s.len() - k];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Adds a network's cumulative `NetStats` and `EventCounts` to `d`,
/// field by field, so the digest does not follow `Debug` formatting.
pub fn add_totals(d: &mut Digest, r: &adaptnoc_sim::stats::EpochReport) {
    let s = &r.stats;
    let e = &r.events;
    d.add(&format!(
        "stats {} {} {} {} {} {:?} {} {} {} {} {} {} {} {} {} {}",
        s.packets,
        s.flits,
        s.network_latency_sum,
        s.queuing_latency_sum,
        s.hops_sum,
        s.by_kind,
        s.packets_offered,
        s.buffer_occupancy_sum,
        s.injection_queue_sum,
        s.flits_forwarded,
        s.cycles,
        s.max_network_latency,
        s.max_queuing_latency,
        s.nacks,
        s.retries,
        s.drops,
    ));
    d.add(&format!(
        "events {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        e.buffer_writes,
        e.buffer_reads,
        e.crossbar_traversals,
        e.va_grants,
        e.sa_grants,
        e.link_flit_hops,
        e.link_flit_mm.to_bits(),
        e.mux_traversals,
        e.interchip_crossings,
        e.ni_injections,
        e.bypass_injections,
        e.ni_ejections,
        e.credits_sent,
        e.rl_inferences,
    ));
}
