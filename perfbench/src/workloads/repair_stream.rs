//! `repair_stream`: one PA schedule of a 1k-task repair-corpus graph,
//! then a fixed set of standard-mix event traces in an order the seed
//! picks, each applied to the baseline one event at a time through
//! `RepairEngine::apply` with the default `RepairConfig` — the
//! configuration `prfpga replay` and the daemon use, so events that cross
//! the cascade threshold escalate to a full re-solve as they would there.
//!
//! It uses `dag` and `timeline` through incremental edits instead of
//! batch solves, so a change that speeds up batch CPM but slows the delta
//! path or the cascade shows here.

use prfpga_bench::repair_instance;
use prfpga_gen::{EventConfig, EventTraceGenerator};
use prfpga_model::{ProblemInstance, Schedule, ScheduleEvent};
use prfpga_sched::{PaScheduler, RepairConfig, RepairEngine, SchedulerConfig};

use crate::layers::{replay, KernelTotals};
use crate::spans::Spans;
use crate::{peak_rss_mb, stats, timed_setup, Opts, Report, Rng};

/// Event traces per run and events per trace.
const TRACES: usize = 10;
const EVENTS: usize = 16;

/// Generator seed of the first trace; trace `k` uses `TRACE_SEED + k`.
pub const TRACE_SEED: u64 = 0x7EAC_E000;

/// Inputs of one run: the graph, its PA baseline and the event traces.
pub struct Inputs {
    /// The 1k-task graph.
    pub inst: ProblemInstance,
    /// PA's schedule of it.
    pub baseline: Schedule,
    /// The event traces, each replayed from the baseline.
    pub traces: Vec<Vec<ScheduleEvent>>,
}

/// Builds the inputs: the graph is the corpus's; the traces are a fixed
/// set of `TRACES` standard-mix traces, ordered by the seed. Every run
/// replays the same events, so runs differ in timing and order, not in
/// which events escalate or how large their re-solves are.
pub fn inputs(seed: u64, toy: bool) -> Result<Inputs, String> {
    let (tasks, traces, events) = if toy {
        (60, 4, 8)
    } else {
        (1000, TRACES, EVENTS)
    };
    let inst = repair_instance(tasks);
    let baseline = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .map_err(|e| format!("baseline PA failed: {e}"))?;
    let mut order: Vec<u64> = (0..traces as u64).collect();
    Rng::new(seed, 6).shuffle(&mut order);
    let traces = order
        .into_iter()
        .map(|k| {
            EventTraceGenerator::new(TRACE_SEED + k)
                .generate(&inst, &baseline, &EventConfig::standard(events))
                .events
        })
        .collect();
    Ok(Inputs {
        inst,
        baseline,
        traces,
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("repair_stream");
    let mut spans = Spans::new(opts.trace);
    let (inputs, setup_s) = timed_setup(3, &mut spans, || inputs(opts.seed, opts.toy));
    let inputs = match inputs {
        Ok(i) => i,
        Err(e) => {
            report.outcome(Err(e));
            return report;
        }
    };

    let mut rng = Rng::new(opts.seed, 1);
    let mut kernels = KernelTotals::default();
    let mut latencies = Vec::new();
    let (mut delta_ms, mut escalated_ms) = (Vec::new(), Vec::new());
    let (mut frontier, mut moved) = (0u64, 0u64);
    // Tasks each repair (re)scheduled: a delta repair re-times its
    // frontier, an escalation re-solves every task of the revised instance.
    let mut rescheduled = 0u64;
    let mut makespans: Vec<u64> = Vec::new();
    // Every trace from the baseline, pass after pass.
    super::repeat_passes(opts.window(), |pass| {
        for (t, trace) in inputs.traces.iter().enumerate() {
            let mut engine = match RepairEngine::new(
                inputs.inst.clone(),
                inputs.baseline.clone(),
                RepairConfig::default(),
            ) {
                Ok(e) => e,
                Err(e) => {
                    report.outcome(Err(format!("engine refused the baseline: {e}")));
                    break;
                }
            };
            for (k, event) in trace.iter().enumerate() {
                let (result, wall, _) = spans.time("repair", "apply", None, || engine.apply(event));
                let outcome = match result {
                    Ok(o) => o,
                    Err(e) => {
                        report.outcome(Err(format!("trace {t} event {k} ({event:?}): {e}")));
                        continue;
                    }
                };
                let ms = wall.as_secs_f64() * 1e3;
                latencies.push(ms);
                if outcome.full_resolve {
                    escalated_ms.push(ms);
                    rescheduled += engine.instance().graph.len() as u64;
                } else {
                    delta_ms.push(ms);
                    rescheduled += outcome.frontier as u64;
                }
                frontier += outcome.frontier as u64;
                moved += outcome.moved as u64;
                let checked = kernels.validate(
                    engine.instance(),
                    engine.schedule(),
                    false,
                    &mut spans,
                    None,
                );
                report.outcome(checked.map_err(|e| format!("trace {t} after event {k}: {e}")));
                if pass == 0 {
                    makespans.push(outcome.makespan);
                }
            }
            if opts.trace {
                let checked = replay(
                    engine.instance(),
                    engine.schedule(),
                    &mut rng,
                    &mut kernels,
                    &mut spans,
                );
                report.outcome(checked.map_err(|e| format!("trace {t} final schedule: {e}")));
            }
        }
    });

    let events = latencies.len().max(1) as f64;
    let ms: Vec<f64> = makespans.iter().map(|&m| m as f64).collect();
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", stats::median(&latencies));
    report.set(
        "tasks_per_s",
        rescheduled as f64 / (latencies.iter().sum::<f64>() / 1e3).max(f64::MIN_POSITIVE),
    );
    report.set("makespan_geomean", stats::geomean(&ms));
    report.set("peak_rss_mb", peak_rss_mb());
    if stats::supports(latencies.len(), 90.0) {
        report.extra("latency_p90_ms", stats::percentile(&latencies, 90.0), "ms");
    }
    report.extra("events", latencies.len() as f64, "count");
    report.extra(
        "escalation_share",
        100.0 * escalated_ms.len() as f64 / events,
        "%",
    );
    if !delta_ms.is_empty() {
        report.extra("delta_p50_ms", stats::median(&delta_ms), "ms");
    }
    if !escalated_ms.is_empty() {
        report.extra("escalated_p50_ms", stats::median(&escalated_ms), "ms");
    }
    report.notes.push(format!(
        "baseline makespan {}; makespan after each event of the first pass, trace by trace: \
         {makespans:?}",
        inputs.baseline.makespan()
    ));

    if opts.trace {
        kernels.to_layers(&mut report);
        report.layer("repair.delta_us", stats::median(&delta_ms).max(0.0) * 1e3);
        report.layer("repair.resolve_ms", stats::median(&escalated_ms).max(0.0));
        report.layer(
            "repair.full_resolve_share",
            100.0 * escalated_ms.len() as f64 / events,
        );
        report.layer("repair.frontier_per_event", frontier as f64 / events);
        report.layer(
            "repair.moved_share",
            100.0 * moved as f64 / frontier.max(1) as f64,
        );
        super::finish_trace(&mut report, &spans, &latencies, setup_s);
    }
    report
}
