//! `pa_large`: offline PA, one solve at a time, on 3,000-task graphs.
//!
//! At this size phases C and F take nearly all of a solve and
//! floorplanning a few milliseconds, so CPM, reachability and timeline
//! gains show here and floorplanner gains should not.

use std::time::Instant;

use prfpga_bench::scaling_instances;
use prfpga_model::ProblemInstance;
use prfpga_sched::{PaScheduler, Phase, SchedulerConfig};

use crate::layers::{check_schedule, replay, KernelTotals, SolveTotals};
use crate::spans::Spans;
use crate::{peak_rss_mb, stats, timed_setup, Opts, Report, Rng};

/// Schedules a traced run replays through the kernels.
const REPLAYS: u64 = 2;

/// The graphs of one run: the scaling corpus's first `count` graphs of
/// `tasks` tasks (`GraphConfig::standard`, `zedboard_pr`), ordered by the
/// run's seed. Every run solves the same graphs, like the paper's suite,
/// so runs differ in timing and order, not in the work they measure.
pub fn inputs(seed: u64, toy: bool) -> Vec<ProblemInstance> {
    let (tasks, count) = if toy { (60, 4) } else { (3000, 10) };
    let mut graphs = scaling_instances(tasks, count);
    Rng::new(seed, 5).shuffle(&mut graphs);
    graphs
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("pa_large");
    let mut spans = Spans::new(opts.trace);
    let (insts, setup_s) = timed_setup(9, &mut spans, || inputs(opts.seed, opts.toy));

    let scheduler = PaScheduler::new(SchedulerConfig::default());
    let mut rng = Rng::new(opts.seed, 1);
    let mut totals = SolveTotals::default();
    let mut kernels = KernelTotals::default();
    let mut latencies = Vec::new();
    let mut tasks = 0usize;
    let mut makespans: Vec<u64> = Vec::new();
    // Every graph once, then whole passes over them while another fits.
    super::repeat_passes(opts.window(), |pass| {
        for inst in &insts {
            let t0 = Instant::now();
            let result = scheduler.schedule_detailed(inst);
            let wall = t0.elapsed();
            match result {
                Err(e) => report.outcome(Err(format!("{}: PA failed: {e}", inst.name))),
                Ok(r) => {
                    latencies.push(wall.as_secs_f64() * 1e3);
                    tasks += inst.graph.len();
                    totals.add(&r.trace, &mut spans, t0, wall);
                    // Replaying a 3,000-task schedule costs about half a
                    // solve (incremental CPM dominates), so the traced run
                    // replays only the first few.
                    let checked = if opts.trace && totals.solves <= REPLAYS {
                        replay(inst, &r.schedule, &mut rng, &mut kernels, &mut spans)
                    } else {
                        check_schedule(inst, &r.schedule, false)
                    };
                    report.outcome(checked.map_err(|e| format!("{}: {e}", inst.name)));
                    if pass == 0 {
                        makespans.push(r.schedule.makespan());
                    }
                }
            }
        }
    });

    let solve_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let ms: Vec<f64> = makespans.iter().map(|&m| m as f64).collect();
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", stats::median(&latencies));
    report.set("tasks_per_s", tasks as f64 / solve_s);
    report.set("makespan_geomean", stats::geomean(&ms));
    report.set("peak_rss_mb", peak_rss_mb());
    report.extra("solves", latencies.len() as f64, "count");
    report.extra("floorplan_stalled_solves", totals.stalls as f64, "count");
    report.notes.push(format!(
        "deterministic PA makespans, in run order ({}): {makespans:?}",
        insts
            .iter()
            .map(|i| i.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));

    if opts.trace {
        totals.to_layers(&mut report);
        kernels.to_layers(&mut report);
        super::finish_trace(&mut report, &spans, &latencies, setup_s);
        report.notes.push(format!(
            "premise check: phases C+F take {:.1}% of solve phase time, H takes {:.1}%",
            totals.share_pct(&[Phase::Regions, Phase::SwMap]),
            totals.share_pct(&[Phase::Floorplan]),
        ));
    }
    report
}
