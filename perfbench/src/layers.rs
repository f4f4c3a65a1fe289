//! Measurements of single layers, taken from outside the program.
//!
//! [`SolveTotals`] accumulates what a PA solve reports about itself
//! (`PhaseTrace`). [`replay`] re-drives the `dag`, `timeline`, `floorplan`
//! and `sim` kernels over a returned schedule: it replays each core's task
//! sequence through incremental CPM and the reachability index, replays
//! every occupancy into a fresh timeline, re-checks the final region set
//! with the floorplanner and sweep-validates the schedule. Each replay is
//! also a consistency check, so a kernel that disagrees with the schedule
//! counts as a failed operation.

use std::time::{Duration, Instant};

use prfpga_dag::{CpmAnalysis, CpmScratch, Dag, ReachIndex};
use prfpga_floorplan::{FloorplanOutcome, Floorplanner, FloorplannerConfig};
use prfpga_model::{Placement, ProblemInstance, ResourceVec, Schedule, Time, TimeWindow};
use prfpga_sched::{Phase, PhaseTrace};
use prfpga_sim::{validate_schedule, validate_schedule_sweep};
use prfpga_timeline::{LaneId, Timeline};

use crate::report::Report;
use crate::spans::Spans;
use crate::Rng;

/// Sweep-validates `schedule`, and with `oracle` also runs the independent
/// pairwise validator. The error names the validator that refused.
pub fn check_schedule(
    inst: &ProblemInstance,
    schedule: &Schedule,
    oracle: bool,
) -> Result<(), String> {
    validate_schedule_sweep(inst, schedule).map_err(|e| format!("sweep validator: {e:?}"))?;
    if oracle {
        validate_schedule(inst, schedule).map_err(|e| format!("pairwise validator: {e:?}"))?;
    }
    Ok(())
}

/// True when a solve's phase-H time, summed over its attempts, reached the
/// floorplanner's own time limit: some exact search was cut by the wall
/// clock, so the solve's outcome depends on how busy the machine was. (A
/// search that does not time out takes milliseconds at every size the
/// benchmark runs, so attempts that only add up to the limit are rare.)
pub fn stalled(trace: &PhaseTrace) -> bool {
    trace.time(Phase::Floorplan) >= FloorplannerConfig::default().time_limit
}

/// Span name of a PA solve; its children are the phases it reported.
pub const SOLVE_SPAN: &str = "solve";

/// Per-solve counters summed over the solves of a run.
#[derive(Debug, Clone, Default)]
pub struct SolveTotals {
    /// Solves summed.
    pub(crate) solves: u64,
    /// Wall-clock per phase, summed.
    pub(crate) phase: [Duration; Phase::COUNT],
    /// Pipeline attempts, summed.
    pub(crate) attempts: u64,
    /// Solves that succeeded on their first attempt.
    pub(crate) first_attempt: u64,
    /// Timeline reservations of the returned runs, summed.
    pub(crate) reservations: u64,
    /// Timeline gap queries of the returned runs, summed.
    pub(crate) gap_queries: u64,
    /// Floorplan-cache hits, summed.
    pub(crate) fp_hits: u64,
    /// Floorplan-cache misses, summed.
    pub(crate) fp_misses: u64,
    /// Solves that stalled on the floorplanner time limit.
    pub(crate) stalls: u64,
}

impl SolveTotals {
    /// Adds one solve's trace, and records it as a span of `wall` with
    /// the phases it reported as children.
    pub fn add(&mut self, trace: &PhaseTrace, spans: &mut Spans, start: Instant, wall: Duration) {
        self.solves += 1;
        for p in Phase::ALL {
            self.phase[p.index()] += trace.time(p);
        }
        self.attempts += trace.attempts as u64;
        self.first_attempt += u64::from(trace.attempts == 1);
        self.reservations += trace.timeline_reservations;
        self.gap_queries += trace.timeline_gap_queries;
        self.fp_hits += trace.fp_cache_hits;
        self.fp_misses += trace.fp_cache_misses;
        self.stalls += u64::from(stalled(trace));
        let id = spans.record("sched", SOLVE_SPAN, None, start, wall);
        for (p, time, _) in trace.rows() {
            let layer = if p == Phase::Floorplan {
                "floorplan"
            } else {
                "sched"
            };
            spans.reported(layer, phase_letter(p), id, time);
        }
    }

    /// Writes the `sched.*` and phase-H metrics (means per solve).
    pub fn to_layers(&self, report: &mut Report) {
        let n = self.solves.max(1) as f64;
        let ms = |p: Phase| self.phase[p.index()].as_secs_f64() * 1e3 / n;
        for (p, name) in [
            (Phase::ImplSelect, "sched.phase_A_ms"),
            (Phase::CriticalPath, "sched.phase_B_ms"),
            (Phase::Partition, "sched.phase_P_ms"),
            (Phase::Regions, "sched.phase_C_ms"),
            (Phase::SwBalance, "sched.phase_D_ms"),
            (Phase::SwMap, "sched.phase_F_ms"),
            (Phase::Reconf, "sched.phase_G_ms"),
            (Phase::Floorplan, "floorplan.phase_H_ms"),
        ] {
            report.layer(name, ms(p));
        }
        report.layer("sched.attempts_per_solve", self.attempts as f64 / n);
        report.layer(
            "sched.first_attempt_share",
            100.0 * self.first_attempt as f64 / n,
        );
        report.layer("timeline.reservations", self.reservations as f64 / n);
        report.layer("timeline.gap_queries", self.gap_queries as f64 / n);
        report.layer("floorplan.stall_share", 100.0 * self.stalls as f64 / n);
        let lookups = (self.fp_hits + self.fp_misses).max(1) as f64;
        report.layer(
            "floorplan.cache_hit_share",
            100.0 * self.fp_hits as f64 / lookups,
        );
    }

    /// Share of solve time in each phase, percent.
    pub fn share_pct(&self, phases: &[Phase]) -> f64 {
        let total: Duration = self.phase.iter().sum();
        let part: Duration = phases.iter().map(|p| self.phase[p.index()]).sum();
        100.0 * part.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

fn phase_letter(p: Phase) -> &'static str {
    match p {
        Phase::ImplSelect => "phase_A",
        Phase::CriticalPath => "phase_B",
        Phase::Partition => "phase_P",
        Phase::Regions => "phase_C",
        Phase::SwBalance => "phase_D",
        Phase::SwMap => "phase_F",
        Phase::Reconf => "phase_G",
        Phase::Floorplan => "phase_H",
    }
}

/// Kernel timings summed over replays.
#[derive(Debug, Clone, Default)]
pub struct KernelTotals {
    replays: u64,
    cpm_run: Duration,
    apply_arc: (Duration, u64),
    reach_query: (Duration, u64),
    reach_add: (Duration, u64),
    reserve: (Duration, u64),
    earliest_fit: (Duration, u64),
    fp_check: (Duration, u64),
    validate: (Duration, u64),
}

fn per(total: (Duration, u64), scale: f64) -> f64 {
    total.0.as_secs_f64() * scale / total.1.max(1) as f64
}

impl KernelTotals {
    /// Times one sweep validation (also used outside replays, e.g. on
    /// daemon replies) and records it.
    pub fn validate(
        &mut self,
        inst: &ProblemInstance,
        schedule: &Schedule,
        oracle: bool,
        spans: &mut Spans,
        parent: Option<usize>,
    ) -> Result<(), String> {
        let (res, dur, _) = spans.time("sim", "validate", parent, || {
            check_schedule(inst, schedule, oracle)
        });
        self.validate.0 += dur;
        self.validate.1 += 1;
        res
    }

    /// Writes the `dag.*`, `timeline.*`, `floorplan.check_ms` and
    /// `sim.validate_sweep_ms` metrics.
    pub fn to_layers(&self, report: &mut Report) {
        let n = self.replays.max(1) as f64;
        report.layer("dag.cpm_run_ms", self.cpm_run.as_secs_f64() * 1e3 / n);
        report.layer("dag.apply_arc_us", per(self.apply_arc, 1e6));
        report.layer("dag.reach_query_ns", per(self.reach_query, 1e9));
        report.layer("dag.reach_add_edge_us", per(self.reach_add, 1e6));
        report.layer("timeline.reserve_ns", per(self.reserve, 1e9));
        report.layer("timeline.earliest_fit_ns", per(self.earliest_fit, 1e9));
        report.layer("floorplan.check_ms", per(self.fp_check, 1e3));
        report.layer("sim.validate_sweep_ms", per(self.validate, 1e3));
    }
}

/// Reachability probes timed per replay.
const REACH_QUERIES: usize = 4096;

/// Replays `schedule` through the kernels (see the module docs), adding
/// the timings to `totals`. `Err` names the first kernel that disagreed
/// with the schedule.
pub fn replay(
    inst: &ProblemInstance,
    schedule: &Schedule,
    rng: &mut Rng,
    totals: &mut KernelTotals,
    spans: &mut Spans,
) -> Result<(), String> {
    totals.replays += 1;
    let durations: Vec<Time> = schedule
        .assignments
        .iter()
        .map(|a| a.end - a.start)
        .collect();
    let core_arcs: Vec<(u32, u32)> = (0..inst.architecture.num_processors)
        .flat_map(|c| {
            let seq = schedule.tasks_on_core(c);
            seq.windows(2).map(|w| (w[0].0, w[1].0)).collect::<Vec<_>>()
        })
        .collect();

    // dag: a batch CPM pass, then the core sequences as incremental arcs.
    let t0 = Instant::now();
    let mut dag = Dag::from_taskgraph(&inst.graph).map_err(|e| format!("dag: {e:?}"))?;
    let (batch, dur, _) = spans.time("dag", "cpm_run", None, || {
        CpmAnalysis::run(&dag, &durations)
    });
    totals.cpm_run += dur;
    let mut cpm = CpmAnalysis::default();
    let mut scratch = CpmScratch::default();
    cpm.recompute(&dag, &durations, None, &mut scratch);
    let mut arc_time = Duration::ZERO;
    for &(a, b) in &core_arcs {
        dag.add_edge(a, b)
            .map_err(|e| format!("core sequence makes a cycle: {e:?}"))?;
        let t = Instant::now();
        cpm.apply_arc(&dag, &durations, a, b, &mut scratch);
        arc_time += t.elapsed();
    }
    totals.apply_arc.0 += arc_time;
    totals.apply_arc.1 += core_arcs.len() as u64;
    spans.record("dag", "apply_arc", None, t0, arc_time);
    if cpm.makespan < batch.makespan || cpm.makespan > schedule.makespan() {
        return Err(format!(
            "dag: CPM bound {} outside [{}, makespan {}]",
            cpm.makespan,
            batch.makespan,
            schedule.makespan()
        ));
    }

    // dag: reachability probes and insertions on a fresh graph.
    let mut dag = Dag::from_taskgraph(&inst.graph).map_err(|e| format!("dag: {e:?}"))?;
    let n = dag.len() as u64;
    if n > 0 && ReachIndex::fits(dag.len()) {
        let mut index = ReachIndex::new();
        index.sync(&dag, &dag.topo_order());
        let probes: Vec<(u32, u32)> = (0..REACH_QUERIES)
            .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
            .collect();
        let (hits, dur, _) = spans.time("dag", "reach_query", None, || {
            probes
                .iter()
                .filter(|&&(a, b)| std::hint::black_box(index.query(a, b)))
                .count()
        });
        std::hint::black_box(hits);
        totals.reach_query.0 += dur;
        totals.reach_query.1 += probes.len() as u64;
        let (res, dur, _) = spans.time("dag", "reach_add_edge", None, || {
            core_arcs
                .iter()
                .try_for_each(|&(a, b)| index.add_edge(&mut dag, a, b))
        });
        res.map_err(|e| format!("reach index refused a core arc: {e:?}"))?;
        totals.reach_add.0 += dur;
        totals.reach_add.1 += core_arcs.len() as u64;
    }

    // timeline: every occupancy, in start order, into a fresh timeline.
    replay_timeline(inst, schedule, totals, spans)?;

    // floorplan: re-check the final region set.
    let demands: Vec<ResourceVec> = schedule.regions.iter().map(|r| r.res).collect();
    let planner = Floorplanner::new(FloorplannerConfig::default());
    let (outcome, dur, _) = spans.time("floorplan", "check_device", None, || {
        planner.check_device(&inst.architecture.device, &demands)
    });
    totals.fp_check.0 += dur;
    totals.fp_check.1 += 1;
    // A timeout proves nothing either way; only a proof of infeasibility
    // contradicts the schedule.
    if outcome == FloorplanOutcome::Infeasible {
        return Err("floorplan: the returned region set is infeasible".into());
    }

    // sim: sweep validation.
    totals.validate(inst, schedule, false, spans, None)
}

fn replay_timeline(
    inst: &ProblemInstance,
    schedule: &Schedule,
    totals: &mut KernelTotals,
    spans: &mut Spans,
) -> Result<(), String> {
    let controllers = inst.architecture.num_reconfig_controllers;
    let mut timeline = Timeline::with_lanes(
        inst.architecture.num_processors,
        schedule.regions.len(),
        controllers,
    );
    // (start, end, lane) of every task and reconfiguration.
    let mut items: Vec<(Time, Time, LaneId)> = schedule
        .assignments
        .iter()
        .map(|a| {
            let lane = match a.placement {
                Placement::Core(c) => LaneId::core(c),
                Placement::Region(r) => LaneId::region(r.index()),
            };
            (a.start, a.end, lane)
        })
        .collect();
    for r in &schedule.reconfigurations {
        items.push((r.start, r.end, LaneId::region(r.region.index())));
        // Which controller a reconfiguration used is not recorded; with a
        // single controller it can only be lane 0.
        if controllers == 1 {
            items.push((r.start, r.end, LaneId::controller(0)));
        }
    }
    items.sort_by_key(|&(s, e, lane)| (s, e, lane.index));
    let t0 = Instant::now();
    let (mut fit_time, mut reserve_time) = (Duration::ZERO, Duration::ZERO);
    for &(start, end, lane) in &items {
        let t = Instant::now();
        let fit = timeline.earliest_fit(lane, start, end - start);
        let t1 = Instant::now();
        let reserved = timeline.reserve(lane, TimeWindow::new(start, end));
        reserve_time += t1.elapsed();
        fit_time += t1 - t;
        if fit != start || reserved.is_err() {
            return Err(format!(
                "timeline: window [{start}, {end}) on {lane:?} not free (fit {fit}, {reserved:?})"
            ));
        }
    }
    totals.earliest_fit.0 += fit_time;
    totals.earliest_fit.1 += items.len() as u64;
    totals.reserve.0 += reserve_time;
    totals.reserve.1 += items.len() as u64;
    spans.record("timeline", "replay", None, t0, fit_time + reserve_time);
    Ok(())
}
