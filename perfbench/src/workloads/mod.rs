//! The four workloads and what their traced runs share.

pub mod pa_large;
pub mod paper_suite;
pub mod repair_stream;
pub mod serve_mix;

use std::time::{Duration, Instant};

use crate::layers::SOLVE_SPAN;
use crate::report::{Report, LAYERS};
use crate::spans::Spans;
use crate::stats;

/// Runs `pass` (given its number) once, then again as long as another
/// pass of the last one's length still fits in `window`; returns the
/// number of passes.
pub(crate) fn repeat_passes(window: Duration, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut passes = 0;
    while passes == 0 || start.elapsed() + last <= window {
        let t = Instant::now();
        pass(passes);
        passes += 1;
        last = t.elapsed();
    }
    passes
}

/// Share of solve wall time the reported phases must cover before the
/// remainder is stated as a finding.
const COVERAGE_FINDING_PCT: f64 = 80.0;

/// Writes the trace-wide metrics of a traced run: the set-up's input
/// generation, each layer's self time, span count, the traced latency
/// median (which `crate::run` sets against an untraced run's
/// `latency_p50_ms` for `trace.overhead_pct`) and, when the run made
/// solves, the share of solve wall time their phases cover.
pub(crate) fn finish_trace(report: &mut Report, spans: &Spans, latencies_ms: &[f64], setup_s: f64) {
    if !spans.enabled() {
        return;
    }
    report.layer("gen.inputs_ms", setup_s * 1e3);
    let self_ms = spans.self_ms();
    for layer in LAYERS {
        let name = format!("{layer}.self_ms");
        report.layer(&name, self_ms.get(layer).copied().unwrap_or(0.0));
    }
    report.layer("trace.spans", spans.len() as f64);
    if !latencies_ms.is_empty() {
        report.layer("trace.latency_p50_ms", stats::median(latencies_ms));
    }
    let (solve_ns, covered_ns) = spans.coverage(SOLVE_SPAN);
    if solve_ns > 0 {
        let pct = 100.0 * covered_ns as f64 / solve_ns as f64;
        report.layer("trace.solve_coverage_pct", pct);
        if pct < COVERAGE_FINDING_PCT {
            report.notes.push(format!(
                "finding: the reported phases cover only {pct:.1}% of solve wall time; \
                 {:.1}% is spent outside every phase",
                100.0 - pct
            ));
        }
    }
}
