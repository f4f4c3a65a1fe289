//! Metric names, the result record and its two renderings: a table for
//! people and the one-line JSON object the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports in an untraced run, with
/// their units. `BENCHMARK.json` lists exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("tasks_per_s", "tasks/s"),
    ("makespan_geomean", "ticks"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, with their units. A layer a
/// workload does not exercise reads 0. `BENCHMARK.json` lists exactly
/// these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.inputs_ms", "ms"),
    ("gen.self_ms", "ms"),
    ("sched.phase_A_ms", "ms"),
    ("sched.phase_B_ms", "ms"),
    ("sched.phase_P_ms", "ms"),
    ("sched.phase_C_ms", "ms"),
    ("sched.phase_D_ms", "ms"),
    ("sched.phase_F_ms", "ms"),
    ("sched.phase_G_ms", "ms"),
    ("sched.attempts_per_solve", "count"),
    ("sched.first_attempt_share", "%"),
    ("sched.self_ms", "ms"),
    ("dag.cpm_run_ms", "ms"),
    ("dag.apply_arc_us", "us"),
    ("dag.reach_query_ns", "ns"),
    ("dag.reach_add_edge_us", "us"),
    ("dag.self_ms", "ms"),
    ("timeline.reserve_ns", "ns"),
    ("timeline.earliest_fit_ns", "ns"),
    ("timeline.reservations", "count"),
    ("timeline.gap_queries", "count"),
    ("timeline.self_ms", "ms"),
    ("floorplan.phase_H_ms", "ms"),
    ("floorplan.check_ms", "ms"),
    ("floorplan.stall_share", "%"),
    ("floorplan.cache_hit_share", "%"),
    ("floorplan.self_ms", "ms"),
    ("sim.validate_sweep_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("model.encode_us", "us"),
    ("model.decode_us", "us"),
    ("model.self_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.solve_ms", "ms"),
    ("server.queue_peak", "count"),
    ("server.ws_reuse_share", "%"),
    ("server.rejected", "count"),
    ("server.self_ms", "ms"),
    ("repair.delta_us", "us"),
    ("repair.resolve_ms", "ms"),
    ("repair.full_resolve_share", "%"),
    ("repair.frontier_per_event", "count"),
    ("repair.moved_share", "%"),
    ("repair.self_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.solve_coverage_pct", "%"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Layers whose self time the traced run reports as `<layer>.self_ms`.
pub const LAYERS: &[&str] = &[
    "gen",
    "sched",
    "dag",
    "timeline",
    "floorplan",
    "sim",
    "model",
    "server",
    "repair",
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// The gated end-to-end metrics (see [`END_TO_END`]).
    pub e2e: BTreeMap<String, f64>,
    /// Workload-specific end-to-end figures, printed in the table only.
    pub extra: Vec<Metric>,
    /// Per-layer metrics of a traced run (see [`PER_LAYER`]).
    pub layers: BTreeMap<String, f64>,
    /// Free-text lines: deterministic makespans, findings.
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked or failed validation.
    pub failed: u64,
    /// Requests the daemon refused at admission (`queue_full`,
    /// `deadline_unmeetable`): counted in `failed_pct` and as deadline
    /// misses, but not as failures of correctness.
    pub refused: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

fn unit_of(table: &[(&str, &str)], name: &str) -> Option<String> {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u.to_string())
}

impl Report {
    /// A report for `workload`.
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.into(),
            ..Report::default()
        }
    }

    /// Sets a gated end-to-end metric; panics on a name outside
    /// [`END_TO_END`] (a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(END_TO_END, name).is_some(), "unknown metric {name}");
        self.e2e.insert(name.into(), value);
    }

    /// Adds a workload-specific figure for the table.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Sets a per-layer metric; panics on a name outside [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(PER_LAYER, name).is_some(),
            "unknown layer metric {name}"
        );
        self.layers.insert(name.into(), value);
    }

    /// Records one operation's outcome.
    pub fn outcome(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(reason);
            }
        }
    }

    /// Failed or refused operations over attempted, percent.
    pub fn failed_pct(&self) -> f64 {
        100.0 * (self.failed + self.refused) as f64 / self.attempted.max(1) as f64
    }

    /// Adds the operations of `other`, a run of the same workload, to
    /// this report's counts and failure reasons.
    pub fn absorb_outcomes(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        for reason in &other.failures {
            if self.failures.len() < 8 {
                self.failures.push(reason.clone());
            }
        }
    }

    /// True when every output validated and every reported figure is a
    /// finite number (a missing or non-finite end-to-end metric is a
    /// benchmark bug and fails the run too).
    pub fn correct(&self, traced: bool) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics(traced).is_ok()
    }

    /// The metrics of the JSON line: every end-to-end metric (untraced) or
    /// every per-layer metric (traced), in table order.
    pub fn metrics(&self, traced: bool) -> Result<Vec<Metric>, String> {
        match self.measured(traced) {
            (metrics, None) => Ok(metrics),
            (_, Some(problem)) => Err(problem),
        }
    }

    /// The metrics of the JSON line that hold a usable value, and the
    /// first that does not: missing (end-to-end only), not finite, or an
    /// end-to-end value that is not positive.
    fn measured(&self, traced: bool) -> (Vec<Metric>, Option<String>) {
        let (table, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let mut problem = None;
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match (values.get(name), traced) {
                (Some(&v), _) => v,
                // A layer this workload does not exercise did no work.
                (None, true) => 0.0,
                (None, false) => {
                    problem.get_or_insert_with(|| format!("metric {name} was not measured"));
                    continue;
                }
            };
            if !value.is_finite() || (!traced && value <= 0.0) {
                problem.get_or_insert_with(|| {
                    format!("metric {name} = {value} is not a positive number")
                });
                continue;
            }
            metrics.push(Metric {
                name: name.into(),
                value,
                unit: unit.into(),
            });
        }
        (metrics, problem)
    }

    /// The human-readable table.
    pub fn render_table(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<30} {:>16}  unit", "metric", "value");
        let (table, values, unmeasured) = if traced {
            (PER_LAYER, &self.layers, 0.0)
        } else {
            (END_TO_END, &self.e2e, f64::NAN)
        };
        for &(name, unit) in table {
            let value = values.get(name).copied().unwrap_or(unmeasured);
            let _ = writeln!(out, "{name:<30} {value:>16.4}  {unit}");
        }
        let _ = writeln!(
            out,
            "{:<30} {:>16.4}  %  ({} failed, {} refused, of {} operations)",
            "failed_pct",
            self.failed_pct(),
            self.failed,
            self.refused,
            self.attempted
        );
        for m in &self.extra {
            let _ = writeln!(out, "{:<30} {:>16.4}  {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        if let Err(e) = self.metrics(traced) {
            let _ = writeln!(out, "FAILED: {e}");
        }
        out
    }

    /// The final JSON line. A run that is not correct still carries every
    /// metric that holds a usable value.
    pub fn render_json(&self, traced: bool) -> String {
        let correct = self.correct(traced);
        let mut metrics = String::new();
        for (i, m) in self.measured(traced).0.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_of_the_run_kind() {
        let mut r = Report::new("x");
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.outcome(Ok(()));
        assert!(r.correct(false));
        let json = r.render_json(false);
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{")), "{json}");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{json}");
        }
        // Traced: every per-layer metric, unexercised layers at 0.
        let traced = r.render_json(true);
        assert!(
            traced.contains("\"repair.delta_us\": {\"value\": 0,"),
            "{traced}"
        );
    }

    #[test]
    fn a_failed_operation_or_missing_metric_makes_the_run_incorrect() {
        let mut r = Report::new("x");
        for (name, _) in END_TO_END {
            r.set(name, 1.0);
        }
        r.outcome(Err("bad".into()));
        assert!(!r.correct(false));
        assert!(r.render_json(false).starts_with("{\"correct\": false"));

        let mut r = Report::new("x");
        r.outcome(Ok(()));
        assert!(!r.correct(false), "end-to-end metrics are missing");
    }

    #[test]
    fn an_unusable_metric_fails_the_run_but_the_others_are_still_printed() {
        let mut r = Report::new("x");
        for (name, _) in END_TO_END {
            r.set(name, 2.0);
        }
        r.set("latency_p50_ms", f64::INFINITY);
        r.outcome(Ok(()));
        assert!(!r.correct(false));
        let json = r.render_json(false);
        assert!(json.starts_with("{\"correct\": false"), "{json}");
        assert!(!json.contains("latency_p50_ms"), "{json}");
        assert!(json.contains("\"setup_s\": {\"value\": 2,"), "{json}");
    }
}
