//! The randomized scheduler variant PA-R (§VI, Algorithm 1).
//!
//! PA-R relaxes the fixed efficiency-index ordering for *non-critical*
//! hardware tasks during regions definition: each iteration draws a fresh
//! random ordering, runs the core pipeline (`doSchedule`), and — only when
//! the new schedule improves on the incumbent — pays for a floorplan
//! check. Floorplan-infeasible candidates are simply discarded (no
//! capacity-shrinking restarts, unlike the deterministic PA). The search
//! runs until a wall-clock budget or an iteration cap expires, whichever
//! comes first, and returns the best feasible schedule found.
//!
//! One search loop serves every thread count: the serial entry runs it
//! once, the parallel entry runs it on independent workers, each with its
//! own seed, iteration share, workspace and incumbent, and keeps the best
//! worker's result.

use std::time::{Duration, Instant};

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use prfpga_floorplan::{
    CacheStats, FeasibilityCache, FloorplanOutcome, Floorplanner, DEFAULT_CACHE_CAPACITY,
};
use prfpga_model::{CancelToken, ProblemInstance, Schedule, Time};

use crate::config::{OrderingPolicy, SchedulerConfig};
use crate::driver::{
    check_floorplan, do_schedule_in, ImplSelectMemo, PaScheduler, VirtualCapacity,
};
use crate::error::SchedError;
use crate::state::SchedWorkspace;
use crate::trace::ObserverHandle;

/// A point on PA-R's anytime-convergence curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergencePoint {
    /// Iteration (1-based) at which the improvement landed.
    pub iteration: usize,
    /// Wall-clock elapsed since the search started.
    pub elapsed: Duration,
    /// The improved (floorplan-feasible) makespan.
    pub makespan: Time,
}

/// Result of a PA-R run.
#[derive(Debug, Clone)]
pub struct PaRResult {
    /// Best floorplan-feasible schedule found.
    pub schedule: Schedule,
    /// Iterations executed (summed over the workers of a parallel run).
    pub iterations: usize,
    /// Every improvement, in order — the data behind the paper's Fig. 6.
    /// A parallel run reports the winning worker's improvements, numbered
    /// by that worker's own iterations.
    pub trace: Vec<ConvergencePoint>,
    /// Wall-clock of the whole search.
    pub elapsed: Duration,
    /// Pipeline runs that rewound the warm workspace instead of
    /// re-allocating (summed over the workers of a parallel run).
    pub workspace_reuses: u64,
    /// Floorplan-feasibility cache counters (all-zero when the device
    /// carries no geometry).
    pub fp_cache: CacheStats,
    /// True when the run's [`CancelToken`] fired mid-search: the returned
    /// schedule is the incumbent at cancellation time (or the degraded PA
    /// fallback if nothing feasible existed yet). Always `false` when no
    /// deadline was set; a naturally exhausted `time_budget` does not count
    /// as degradation.
    pub degraded: bool,
    /// Cancellation checkpoints this call polled on its token.
    pub cancel_polls: u64,
    /// Checkpoints that observed the fired deadline.
    pub deadline_hits: u64,
}

impl PaRResult {
    /// Search throughput in iterations per second (0 when the clock did
    /// not tick).
    pub fn iterations_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.iterations as f64 / secs
        } else {
            0.0
        }
    }
}

/// What one run of the search loop found.
#[derive(Debug)]
struct Search {
    /// Best floorplan-feasible schedule, if any.
    best: Option<Schedule>,
    /// Every improvement of `best`, in order.
    trace: Vec<ConvergencePoint>,
    iterations: usize,
    workspace_reuses: u64,
    /// True when the token fired mid-search.
    cancelled: bool,
}

impl Search {
    fn makespan(&self) -> Time {
        self.best.as_ref().map_or(Time::MAX, Schedule::makespan)
    }

    /// Folds the search of a later worker into this one: the incumbent
    /// (and its convergence trace) with the least makespan wins, ties
    /// going to the earlier worker; counters add up.
    fn merge(self, later: Search) -> Search {
        let (mut kept, other) = if later.makespan() < self.makespan() {
            (later, self)
        } else {
            (self, later)
        };
        kept.iterations += other.iterations;
        kept.workspace_reuses += other.workspace_reuses;
        kept.cancelled |= other.cancelled;
        kept
    }
}

/// The randomized scheduler (*PA-R*).
///
/// For a fixed `(seed, max_iterations, threads)` the result is
/// deterministic when the iteration cap, not the wall-clock budget or a
/// deadline, ends the search and no floorplan verdict ends on the
/// solver's wall-clock limit (a `Timeout`). Every other verdict is exact,
/// so the feasibility cache the workers share cannot change any worker's
/// trajectory; only its hit/miss counters depend on thread timing.
#[derive(Debug, Clone, Default)]
pub struct PaRScheduler {
    config: SchedulerConfig,
}

impl PaRScheduler {
    /// Creates a PA-R scheduler; `config.time_budget`, `config.max_iterations`
    /// and `config.seed` drive the search.
    pub fn new(config: SchedulerConfig) -> Self {
        PaRScheduler { config }
    }

    /// Schedules `inst`, returning only the best schedule.
    pub fn schedule(&self, inst: &ProblemInstance) -> Result<Schedule, SchedError> {
        self.schedule_detailed(inst).map(|r| r.schedule)
    }

    /// Runs the randomized search (Algorithm 1) with full diagnostics.
    pub fn schedule_detailed(&self, inst: &ProblemInstance) -> Result<PaRResult, SchedError> {
        self.schedule_with_cancel(inst, &CancelToken::never())
    }

    /// [`schedule_detailed`](Self::schedule_detailed) honouring a
    /// cooperative [`CancelToken`].
    ///
    /// PA-R is *anytime*: the search polls `cancel` once per iteration and
    /// around every floorplan check; when the token fires it returns the
    /// best feasible incumbent found so far flagged
    /// [`PaRResult::degraded`], or — if no feasible candidate exists yet —
    /// the deterministic PA's degraded fallback. With a never-firing token
    /// the result is byte-identical to
    /// [`schedule_detailed`](Self::schedule_detailed).
    pub fn schedule_with_cancel(
        &self,
        inst: &ProblemInstance,
        cancel: &CancelToken,
    ) -> Result<PaRResult, SchedError> {
        let mut ws = SchedWorkspace::new();
        self.schedule_with_cancel_in(inst, cancel, &mut ws)
    }

    /// [`schedule_with_cancel`](Self::schedule_with_cancel) against a
    /// caller-owned [`SchedWorkspace`]; every exit leaves `ws` rewound and
    /// reusable.
    pub fn schedule_with_cancel_in(
        &self,
        inst: &ProblemInstance,
        cancel: &CancelToken,
        ws: &mut SchedWorkspace,
    ) -> Result<PaRResult, SchedError> {
        inst.validate()
            .map_err(|e| SchedError::InvalidInstance(e.to_string()))?;
        let counters0 = (cancel.polls(), cancel.deadline_hits());
        let start = Instant::now();
        let cache = self.cache();
        let search = self.search(
            inst,
            cancel,
            self.config.seed,
            self.config.max_iterations,
            start,
            ws,
            &cache,
        );
        self.finish(inst, cancel, counters0, start, &cache, search)
    }

    /// Parallel PA-R: the search of
    /// [`schedule_with_cancel`](Self::schedule_with_cancel) on `threads`
    /// scoped workers (at least one).
    ///
    /// Worker `w` searches from seed `config.seed + w·0x9E37` for
    /// `max_iterations.div_ceil(threads)` iterations (unbounded when
    /// `max_iterations` is 0) against its own workspace and incumbent; all
    /// workers share one feasibility cache, one wall-clock budget and
    /// `cancel`. The call returns the incumbent with the least
    /// `(makespan, w)` together with that worker's convergence trace;
    /// `iterations` and `workspace_reuses` sum over the workers, and
    /// `degraded` is set when `cancel` stopped any of them. With no
    /// feasible incumbent anywhere, the deterministic PA runs once under
    /// the same token. With `threads == 1` the result equals
    /// [`schedule_with_cancel`](Self::schedule_with_cancel)'s.
    pub fn schedule_parallel_with_cancel(
        &self,
        inst: &ProblemInstance,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<PaRResult, SchedError> {
        inst.validate()
            .map_err(|e| SchedError::InvalidInstance(e.to_string()))?;
        let threads = threads.max(1);
        let counters0 = (cancel.polls(), cancel.deadline_hits());
        let start = Instant::now();
        let cache = self.cache();
        let cap = self.config.max_iterations.div_ceil(threads);
        let search = crossbeam::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let cache = &cache;
                    scope.spawn(move |_| {
                        let seed = self.config.seed.wrapping_add(w as u64 * 0x9E37);
                        let mut ws = SchedWorkspace::new();
                        self.search(inst, cancel, seed, cap, start, &mut ws, cache)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("PA-R worker panicked"))
                .reduce(Search::merge)
                .expect("at least one worker")
        })
        .expect("PA-R worker panicked");
        self.finish(inst, cancel, counters0, start, &cache, search)
    }

    /// The feasibility cache one call's searches share.
    fn cache(&self) -> FeasibilityCache {
        FeasibilityCache::new(
            Floorplanner::new(self.config.floorplan.clone()),
            DEFAULT_CACHE_CAPACITY,
        )
    }

    /// The search loop of Algorithm 1: from `seed`, for at most
    /// `max_iterations` iterations (0 = unbounded) and `config.time_budget`
    /// after `start`, against `ws`.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        inst: &ProblemInstance,
        cancel: &CancelToken,
        seed: u64,
        max_iterations: usize,
        start: Instant,
        ws: &mut SchedWorkspace,
        cache: &FeasibilityCache,
    ) -> Search {
        // Virtual capacity ratchet: Algorithm 1 discards floorplan-
        // infeasible candidates outright, but a pipeline run that packs the
        // fabric to 100% is *systematically* unplaceable on a column grid,
        // so repeating it at the same capacity would starve the search.
        // Whenever an improving candidate fails the floorplan, subsequent
        // iterations schedule against a shrunken virtual capacity — the
        // same lever the deterministic PA's restart loop uses (§V-H).
        let mut capacity = VirtualCapacity::of(inst);
        let mut shrinks_left = self.config.max_attempts.max(1);
        let deadline = start + self.config.time_budget;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        // One workspace and one phase-A memo persist across every
        // iteration; the cache's verdicts are exact, so it cannot perturb
        // the search trajectory.
        let mut memo = ImplSelectMemo::default();
        let noop = ObserverHandle::noop();

        let mut search = Search {
            best: None,
            trace: Vec::new(),
            iterations: 0,
            workspace_reuses: 0,
            cancelled: false,
        };
        loop {
            if max_iterations > 0 && search.iterations >= max_iterations {
                break;
            }
            // Always run at least one iteration so a zero budget still
            // returns a schedule.
            if search.iterations > 0 && Instant::now() >= deadline {
                break;
            }
            if cancel.is_cancelled() {
                search.cancelled = true;
                break;
            }
            search.iterations += 1;
            let order_seed: u64 = rng.random();
            let ordering = OrderingPolicy::RandomizedNonCritical(order_seed);
            let schedule = do_schedule_in(
                ws,
                inst,
                &capacity,
                &self.config,
                ordering,
                &noop,
                Some(&mut memo),
            );
            let makespan = schedule.makespan();
            if makespan < search.makespan() {
                // Pay for the floorplanner only on improvement (Algorithm 1).
                if let FloorplanOutcome::Feasible(_) =
                    check_floorplan(cache, inst, &schedule, cancel)
                {
                    search.best = Some(schedule);
                    search.trace.push(ConvergencePoint {
                        iteration: search.iterations,
                        elapsed: start.elapsed(),
                        makespan,
                    });
                } else {
                    // A non-feasible verdict caused by the token firing
                    // mid-solve is a Timeout, not a capacity statement:
                    // break before it can consume a ratchet shrink.
                    if cancel.is_cancelled() {
                        search.cancelled = true;
                        break;
                    }
                    if shrinks_left > 0 {
                        capacity.shrink(self.config.shrink_factor);
                        shrinks_left -= 1;
                    }
                }
            }
        }
        search.workspace_reuses = ws.reuses();
        search
    }

    /// Turns `search` into the call's result. Without a feasible
    /// incumbent — every random candidate was floorplan-infeasible, or the
    /// token fired before one could be checked — it falls back to the
    /// deterministic PA, whose shrinking loop always terminates with a
    /// feasible (possibly all-software, possibly degraded) schedule. The
    /// token is passed through, so a fired deadline short-circuits the
    /// fallback to PA's bounded degraded path.
    fn finish(
        &self,
        inst: &ProblemInstance,
        cancel: &CancelToken,
        (polls0, hits0): (u64, u64),
        start: Instant,
        cache: &FeasibilityCache,
        search: Search,
    ) -> Result<PaRResult, SchedError> {
        let fp_cache = cache.stats();
        let (schedule, degraded) = match search.best {
            Some(schedule) => (schedule, search.cancelled),
            None => {
                let pa =
                    PaScheduler::new(self.config.clone()).schedule_with_cancel(inst, cancel)?;
                (pa.schedule, search.cancelled || pa.degraded)
            }
        };
        Ok(PaRResult {
            schedule,
            iterations: search.iterations,
            trace: search.trace,
            elapsed: start.elapsed(),
            workspace_reuses: search.workspace_reuses,
            fp_cache,
            degraded,
            cancel_polls: cancel.polls() - polls0,
            deadline_hits: cancel.deadline_hits() - hits0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_gen::{GraphConfig, TaskGraphGenerator};
    use prfpga_model::Architecture;
    use prfpga_sim::validate_schedule;

    fn config_iters(iters: usize) -> SchedulerConfig {
        SchedulerConfig {
            max_iterations: iters,
            time_budget: Duration::from_secs(60),
            ..Default::default()
        }
    }

    fn instance(n: usize, seed: u64) -> ProblemInstance {
        TaskGraphGenerator::new(seed).generate(
            &format!("par{n}"),
            &GraphConfig::standard(n),
            Architecture::zedboard(),
        )
    }

    #[test]
    fn finds_valid_schedules() {
        let inst = instance(20, 11);
        let par = PaRScheduler::new(config_iters(8));
        let r = par.schedule_detailed(&inst).unwrap();
        assert_eq!(r.iterations, 8);
        assert!(!r.trace.is_empty());
        validate_schedule(&inst, &r.schedule).expect("valid");
    }

    #[test]
    fn trace_is_monotonically_improving() {
        let inst = instance(30, 13);
        let par = PaRScheduler::new(config_iters(12));
        let r = par.schedule_detailed(&inst).unwrap();
        for pair in r.trace.windows(2) {
            assert!(pair[1].makespan < pair[0].makespan);
            assert!(pair[1].iteration > pair[0].iteration);
        }
        assert_eq!(
            r.schedule.makespan(),
            r.trace.last().unwrap().makespan,
            "returned schedule is the last improvement"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed_and_iterations() {
        let inst = instance(25, 17);
        let par = PaRScheduler::new(config_iters(6));
        let a = par.schedule(&inst).unwrap();
        let b = par.schedule(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_iterations_never_hurt() {
        let inst = instance(40, 19);
        let short = PaRScheduler::new(config_iters(2))
            .schedule(&inst)
            .unwrap()
            .makespan();
        let long = PaRScheduler::new(config_iters(16))
            .schedule(&inst)
            .unwrap()
            .makespan();
        assert!(long <= short, "more search cannot worsen the incumbent");
    }

    #[test]
    fn parallel_variant_returns_valid_schedules() {
        let inst = instance(20, 23);
        let par = PaRScheduler::new(config_iters(8));
        let r = par
            .schedule_parallel_with_cancel(&inst, 4, &CancelToken::never())
            .unwrap();
        assert_eq!(r.iterations, 8, "four workers, two iterations each");
        validate_schedule(&inst, &r.schedule).expect("valid");
    }

    /// A geometry-free `zedboard_pr` instance: every floorplan verdict is
    /// exact, so parallel PA-R must be deterministic on it.
    fn geometry_free_instance() -> ProblemInstance {
        let mut inst = TaskGraphGenerator::new(3).generate(
            "par_oracle",
            &GraphConfig::standard(20),
            Architecture::zedboard_pr(),
        );
        inst.architecture.device.geometry = None;
        inst
    }

    fn convergence(r: &PaRResult) -> Vec<(usize, Time)> {
        r.trace.iter().map(|p| (p.iteration, p.makespan)).collect()
    }

    #[test]
    fn parallel_result_is_the_best_of_independent_serial_runs() {
        let inst = geometry_free_instance();
        let (threads, iters) = (4usize, 64usize);
        let config = config_iters(iters);
        // Oracle: worker w is the serial search from its own seed over its
        // share of the iterations; the least (makespan, w) wins.
        let serial: Vec<PaRResult> = (0..threads)
            .map(|w| {
                PaRScheduler::new(SchedulerConfig {
                    seed: config.seed.wrapping_add(w as u64 * 0x9E37),
                    max_iterations: iters.div_ceil(threads),
                    ..config.clone()
                })
                .schedule_detailed(&inst)
                .unwrap()
            })
            .collect();
        let winner = (0..threads)
            .min_by_key(|&w| (serial[w].schedule.makespan(), w))
            .unwrap();

        let par = PaRScheduler::new(config);
        for repeat in 0..5 {
            let r = par
                .schedule_parallel_with_cancel(&inst, threads, &CancelToken::never())
                .unwrap();
            assert_eq!(r.schedule, serial[winner].schedule, "repeat {repeat}");
            assert_eq!(convergence(&r), convergence(&serial[winner]));
            assert_eq!(r.iterations, serial.iter().map(|s| s.iterations).sum());
            assert!(!r.degraded);
        }
    }

    #[test]
    fn one_parallel_worker_is_the_serial_search() {
        let inst = geometry_free_instance();
        let par = PaRScheduler::new(config_iters(16));
        let serial = par.schedule_detailed(&inst).unwrap();
        let one = par
            .schedule_parallel_with_cancel(&inst, 1, &CancelToken::never())
            .unwrap();
        assert_eq!(one.schedule, serial.schedule);
        assert_eq!(one.iterations, serial.iterations);
        assert_eq!(convergence(&one), convergence(&serial));
    }

    #[test]
    fn reuse_counters_and_throughput_are_reported() {
        let inst = TaskGraphGenerator::new(31).generate(
            "counters",
            &GraphConfig::standard(30),
            Architecture::zedboard_pr(),
        );
        let r = PaRScheduler::new(config_iters(10))
            .schedule_detailed(&inst)
            .unwrap();
        assert_eq!(
            r.workspace_reuses, 9,
            "10 iterations over one instance rewind the workspace 9 times"
        );
        // The device carries geometry and at least one improvement was
        // floorplan-checked, so the cache saw traffic.
        assert!(r.fp_cache.hits + r.fp_cache.misses > 0);
        assert!(r.elapsed > Duration::ZERO);
        assert!(r.iterations_per_sec() > 0.0);
    }

    #[test]
    fn zero_budget_still_returns_a_schedule() {
        let inst = instance(15, 29);
        let cfg = SchedulerConfig {
            time_budget: Duration::ZERO,
            max_iterations: 0,
            ..Default::default()
        };
        let s = PaRScheduler::new(cfg).schedule(&inst).unwrap();
        validate_schedule(&inst, &s).expect("valid");
    }
}
