//! End-to-end and per-layer benchmark of the prfpga scheduler, its
//! scheduling daemon and its repair engine.
//!
//! One binary runs one workload per invocation (see `README.md` for why
//! each workload exists and which layer metric should move which
//! end-to-end metric):
//!
//! * [`workloads::pa_large`]: offline PA on 3,000-task graphs;
//! * [`workloads::paper_suite`]: PA on the paper's 10–100-task suite plus
//!   PA-R at a fixed iteration count;
//! * [`workloads::serve_mix`]: open-loop TCP traffic against the daemon;
//! * [`workloads::repair_stream`]: a seeded event stream through the
//!   repair engine.
//!
//! Every workload checks every schedule it receives and counts each
//! refusal by a validator as a failed operation.

pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::time::{Duration, Instant};

pub use report::Report;
use spans::Spans;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["pa_large", "paper_suite", "serve_mix", "repair_stream"];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Record spans and replay the kernels (the traced run).
    pub trace: bool,
    /// Toy-sized inputs, for the benchmark's own tests.
    pub toy: bool,
}

impl Opts {
    /// The measurement window as a duration.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Runs workload `name`; `None` for an unknown name.
///
/// A traced run is two runs on the same seed, each over half the window:
/// an untraced one, then the traced one. The traced report carries the
/// failures of both, and `trace.overhead_pct`, the traced operation median
/// over the untraced one, less 100%.
pub fn run(name: &str, opts: &Opts) -> Option<Report> {
    let run_once = |opts: &Opts| match name {
        "pa_large" => Some(workloads::pa_large::run(opts)),
        "paper_suite" => Some(workloads::paper_suite::run(opts)),
        "serve_mix" => Some(workloads::serve_mix::run(opts)),
        "repair_stream" => Some(workloads::repair_stream::run(opts)),
        _ => None,
    };
    if !opts.trace {
        return run_once(opts);
    }
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..*opts
    };
    let untraced = run_once(&Opts {
        trace: false,
        ..half
    })?;
    let mut traced = run_once(&half)?;
    traced.absorb_outcomes(&untraced);
    if let (Some(&plain), Some(&with_spans)) = (
        untraced.e2e.get("latency_p50_ms"),
        traced.layers.get("trace.latency_p50_ms"),
    ) {
        traced.layer("trace.overhead_pct", 100.0 * (with_spans / plain - 1.0));
    }
    Some(traced)
}

/// SplitMix64: a small seeded generator for arrival times, subsets and
/// probes (the program's own generators take the seed directly).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall-clock in seconds: set-up is timed as a median so one slow start
/// does not read as a regression. All of it is recorded as one `gen` span.
pub fn timed_setup<T>(reps: usize, spans: &mut Spans, mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        // Drop the previous result first, so a set-up that owns threads
        // or sockets never runs two copies at once.
        drop(out.take());
        let t0 = Instant::now();
        out = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    spans.record("gen", "inputs", None, start, start.elapsed());
    (out.expect("at least one set-up ran"), stats::median(&times))
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    prfpga_bench::peak_rss_kb() as f64 / 1024.0
}

/// One line naming the machine and the code: `nproc`, CPU model, kernel
/// and git commit (read from `.git` when the checkout has one).
pub fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "machine: nproc={nproc} cpu=\"{cpu}\" kernel={kernel} commit={}",
        git_commit()
    )
}

fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}
