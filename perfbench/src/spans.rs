//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! around the public calls it makes into `sched`, `dag`, `timeline`,
//! `floorplan`, `sim`, `model`, `server` and `sched::repair`. Where a call
//! returns its own breakdown (`PhaseTrace` rows, a reply's `service_us`
//! and `phases`), that breakdown is recorded as child spans of the call
//! with the durations the program reported. Spans stay in memory until
//! the run ends; a layer's self time is the summed duration of its spans
//! minus the part their children cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span belongs to (`sched`, `dag`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created (for children
    /// taken from a reported breakdown: the parent's start).
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// In-memory span store; records nothing when disabled.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every method a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span that started at `start` and lasted `dur`; returns
    /// its id for children (`None` when disabled).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            layer,
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a child of `parent` whose duration a called API reported.
    pub fn reported(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        dur: Duration,
    ) {
        let Some(p) = parent else { return };
        let start_ns = self.spans[p].start_ns;
        self.spans.push(Span {
            layer,
            name,
            parent: Some(p),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Times `f` and records it as a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, Option<usize>) {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        let id = self.record(layer, name, parent, t0, dur);
        (out, dur, id)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per-layer self time in milliseconds: each span's duration minus its
    /// children's, summed by layer.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0.0) += s.dur_ns.saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Summed duration of the spans named `name` and of their children,
    /// nanoseconds: `(parents, children)`.
    pub fn coverage(&self, name: &str) -> (u64, u64) {
        let mut parents = 0;
        let mut children = 0;
        for s in &self.spans {
            if s.name == name {
                parents += s.dur_ns;
            } else if let Some(p) = s.parent {
                if self.spans[p].name == name {
                    children += s.dur_ns;
                }
            }
        }
        (parents, children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        let t = Instant::now();
        let p = spans.record("sched", "solve", None, t, Duration::from_millis(10));
        spans.reported("sched", "phase", p, Duration::from_millis(6));
        spans.reported("floorplan", "phase_H", p, Duration::from_millis(3));
        let self_ms = spans.self_ms();
        assert!((self_ms["sched"] - 7.0).abs() < 1e-9);
        assert!((self_ms["floorplan"] - 3.0).abs() < 1e-9);
        assert_eq!(spans.coverage("solve"), (10_000_000, 9_000_000));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let (v, _, id) = spans.time("dag", "x", None, || 7);
        assert_eq!((v, id), (7, None));
        assert!(spans.is_empty());
    }
}
