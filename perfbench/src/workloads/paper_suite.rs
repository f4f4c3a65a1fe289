//! `paper_suite`: PA on every instance of the paper's suite
//! (`SuiteConfig::default()`: 10 groups × 10 graphs of 10–100 tasks on
//! `zedboard_pr`), plus PA-R at a fixed iteration count on a seeded
//! subset.
//!
//! At this size floorplanning (phase H) is nearly all of PA's time and
//! phase F almost none, so floorplanner and feasibility-cache gains show
//! here and a CPM change predicts no change. It is also the paper's own
//! quality experiment: the makespans are printed.

use std::time::{Duration, Instant};

use prfpga_gen::SuiteConfig;
use prfpga_model::{Architecture, ProblemInstance};
use prfpga_sched::{PaRScheduler, PaScheduler, Phase, SchedulerConfig};

use crate::layers::{check_schedule, replay, KernelTotals, SolveTotals};
use crate::spans::Spans;
use crate::{peak_rss_mb, stats, timed_setup, Opts, Report, Rng};

/// PA-R runs per workload run, and iterations per PA-R run.
const PAR_RUNS: usize = 4;
const PAR_ITERATIONS: usize = 8;

/// The suite's instances, group by group. The suite is the paper's and
/// does not depend on the seed; the seed picks the PA-R subset.
pub fn inputs(toy: bool) -> Vec<ProblemInstance> {
    let suite = if toy {
        SuiteConfig {
            groups: vec![10, 20],
            graphs_per_group: 2,
            ..SuiteConfig::default()
        }
    } else {
        SuiteConfig::default()
    };
    suite
        .generate(&Architecture::zedboard_pr())
        .into_iter()
        .flatten()
        .collect()
}

/// Indices of the PA-R subset and the PA-R seed of each.
pub fn par_subset(seed: u64, suite_len: usize, toy: bool) -> Vec<(usize, u64)> {
    let mut rng = Rng::new(seed, 2);
    let runs = if toy { 1 } else { PAR_RUNS };
    (0..runs)
        .map(|_| (rng.below(suite_len as u64) as usize, rng.next_u64()))
        .collect()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("paper_suite");
    let mut spans = Spans::new(opts.trace);
    let (suite, setup_s) = timed_setup(15, &mut spans, || inputs(opts.toy));
    let subset = par_subset(opts.seed, suite.len(), opts.toy);

    let pa = PaScheduler::new(SchedulerConfig::default());
    let mut rng = Rng::new(opts.seed, 1);
    let mut totals = SolveTotals::default();
    let mut kernels = KernelTotals::default();
    let mut latencies = Vec::new();
    let mut tasks = 0usize;
    let mut pa_makespans: Vec<u64> = Vec::new();

    // PA over the whole suite, pass after pass.
    let passes = super::repeat_passes(opts.window(), |pass| {
        for inst in &suite {
            let t0 = Instant::now();
            let result = pa.schedule_detailed(inst);
            let wall = t0.elapsed();
            match result {
                Err(e) => report.outcome(Err(format!("{}: PA failed: {e}", inst.name))),
                Ok(r) => {
                    latencies.push(wall.as_secs_f64() * 1e3);
                    tasks += inst.graph.len();
                    totals.add(&r.trace, &mut spans, t0, wall);
                    let mut checked = check_schedule(inst, &r.schedule, true);
                    if opts.trace && checked.is_ok() {
                        checked = replay(inst, &r.schedule, &mut rng, &mut kernels, &mut spans);
                    }
                    report.outcome(checked.map_err(|e| format!("{}: {e}", inst.name)));
                    if pass == 0 {
                        pa_makespans.push(r.schedule.makespan());
                    }
                }
            }
        }
    });

    // PA-R at a fixed iteration count on the seeded subset.
    let mut par_iters = 0usize;
    let mut par_time = Duration::ZERO;
    let mut par_makespans = Vec::new();
    for &(idx, par_seed) in &subset {
        let inst = &suite[idx];
        let config = SchedulerConfig {
            max_iterations: if opts.toy { 2 } else { PAR_ITERATIONS },
            time_budget: Duration::from_secs(3600),
            seed: par_seed,
            ..SchedulerConfig::default()
        };
        let (result, _, _) = spans.time("sched", "par", None, || {
            PaRScheduler::new(config).schedule_detailed(inst)
        });
        match result {
            Err(e) => report.outcome(Err(format!("{}: PA-R failed: {e}", inst.name))),
            Ok(r) => {
                par_iters += r.iterations;
                par_time += r.elapsed;
                par_makespans.push(r.schedule.makespan());
                let checked = check_schedule(inst, &r.schedule, true);
                report.outcome(checked.map_err(|e| format!("{} (PA-R): {e}", inst.name)));
            }
        }
    }

    let solve_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let as_f64 = |v: &[u64]| v.iter().map(|&m| m as f64).collect::<Vec<_>>();
    let all: Vec<f64> = as_f64(&pa_makespans)
        .into_iter()
        .chain(as_f64(&par_makespans))
        .collect();
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", stats::median(&latencies));
    report.set("tasks_per_s", tasks as f64 / solve_s);
    report.set("makespan_geomean", stats::geomean(&all));
    report.set("peak_rss_mb", peak_rss_mb());
    if stats::supports(latencies.len(), 90.0) {
        report.extra("latency_p90_ms", stats::percentile(&latencies, 90.0), "ms");
    }
    report.extra(
        "par_iters_per_s",
        par_iters as f64 / par_time.as_secs_f64().max(f64::MIN_POSITIVE),
        "1/s",
    );
    report.extra("pa_passes", passes as f64, "count");
    report.extra("floorplan_stalled_solves", totals.stalls as f64, "count");
    report.extra(
        "pa_makespan_geomean",
        stats::geomean(&as_f64(&pa_makespans)),
        "ticks",
    );
    report.extra(
        "par_makespan_geomean",
        stats::geomean(&as_f64(&par_makespans)),
        "ticks",
    );
    report.notes.push(format!(
        "PA makespans of the suite, in suite order (a stalled solve may differ run to run): \
         {pa_makespans:?}"
    ));
    report.notes.push(format!(
        "PA-R ({} iterations each) on suite instances {:?}: makespans {par_makespans:?}",
        if opts.toy { 2 } else { PAR_ITERATIONS },
        subset.iter().map(|s| s.0).collect::<Vec<_>>()
    ));

    if opts.trace {
        totals.to_layers(&mut report);
        kernels.to_layers(&mut report);
        super::finish_trace(&mut report, &spans, &latencies, setup_s);
        report.notes.push(format!(
            "premise check: phase H takes {:.1}% of solve phase time, F takes {:.1}%",
            totals.share_pct(&[Phase::Floorplan]),
            totals.share_pct(&[Phase::SwMap]),
        ));
    }
    report
}
