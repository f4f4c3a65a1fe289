//! Tests of the benchmark itself, at toy sizes.

use std::process::Command;

use prfpga_model::Placement;
use prfpga_perfbench::layers::{check_schedule, replay, KernelTotals};
use prfpga_perfbench::report::{END_TO_END, PER_LAYER};
use prfpga_perfbench::spans::Spans;
use prfpga_perfbench::workloads::{pa_large, paper_suite, repair_stream, serve_mix};
use prfpga_perfbench::{run, Opts, Report, Rng, WORKLOADS};
use prfpga_sched::{PaScheduler, SchedulerConfig};
use serde_json::Value;

fn toy(trace: bool) -> Opts {
    Opts {
        seed: 7,
        seconds: 0.2,
        trace,
        toy: true,
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for &name in WORKLOADS {
        for trace in [false, true] {
            let report = run(name, &toy(trace)).expect("known workload");
            assert!(
                report.correct(trace),
                "{name} (trace {trace}) failed: {:?} {:?}",
                report.failures,
                report.metrics(trace)
            );
            let table = if trace { PER_LAYER } else { END_TO_END };
            let json = report.render_json(trace);
            let parsed: Value = serde_json::from_str(&json).expect("the last line is JSON");
            let metrics = parsed
                .as_object()
                .and_then(|o| o.get("metrics"))
                .and_then(Value::as_object)
                .expect("a metrics object");
            for (metric, unit) in table {
                let entry = metrics
                    .get(metric)
                    .and_then(Value::as_object)
                    .unwrap_or_else(|| panic!("{name}: {metric} missing from {json}"));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit));
                let value = entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("a number");
                assert!(trace || value > 0.0, "{name}: {metric} = {value}");
            }
            let rendered = report.render_table(trace);
            for (metric, unit) in table {
                assert!(
                    rendered
                        .lines()
                        .any(|l| l.starts_with(metric) && l.ends_with(unit)),
                    "{name}: table lacks {metric} [{unit}]:\n{rendered}"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_schedule_counts_as_a_failed_operation() {
    let inst = &pa_large::inputs(3, true)[0];
    let mut schedule = PaScheduler::new(SchedulerConfig::default())
        .schedule(inst)
        .expect("toy instance schedules");
    assert_eq!(check_schedule(inst, &schedule, true), Ok(()));

    // Move the last software task onto the start of its core's first task.
    let core_task = (0..inst.architecture.num_processors)
        .map(|c| schedule.tasks_on_core(c))
        .find(|seq| seq.len() >= 2)
        .expect("some core runs two tasks");
    let (first, last) = (core_task[0], *core_task.last().expect("two tasks"));
    let start = schedule.assignments[first.index()].start;
    let a = &mut schedule.assignments[last.index()];
    assert!(matches!(a.placement, Placement::Core(_)));
    (a.start, a.end) = (start, start + a.duration());

    let mut report = Report::new("corrupted");
    report.outcome(check_schedule(inst, &schedule, true));
    let mut kernels = KernelTotals::default();
    let mut spans = Spans::new(true);
    report.outcome(replay(
        inst,
        &schedule,
        &mut Rng::new(1, 1),
        &mut kernels,
        &mut spans,
    ));
    assert_eq!(report.failed, 2, "{:?}", report.failures);
    assert_eq!(report.failed_pct(), 100.0);
    assert!(!report.correct(false));
    assert!(report.render_json(false).starts_with("{\"correct\": false"));
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_makespans() {
    let pa = PaScheduler::new(SchedulerConfig::default());
    let graphs = |seed| pa_large::inputs(seed, true);
    assert_eq!(graphs(5), graphs(5));
    assert_ne!(graphs(5), graphs(6));
    let makespans = |seed| -> Vec<u64> {
        graphs(seed)
            .iter()
            .map(|g| pa.schedule(g).expect("schedules").makespan())
            .collect()
    };
    assert_eq!(makespans(5), makespans(5));

    assert_eq!(paper_suite::inputs(true), paper_suite::inputs(true));
    assert_eq!(
        paper_suite::par_subset(5, 100, false),
        paper_suite::par_subset(5, 100, false)
    );
    assert_ne!(
        paper_suite::par_subset(5, 100, false),
        paper_suite::par_subset(6, 100, false)
    );

    let stream = |seed| repair_stream::inputs(seed, true).expect("inputs build");
    let (a, b) = (stream(5), stream(5));
    assert_eq!(
        (&a.inst, &a.baseline, &a.traces),
        (&b.inst, &b.baseline, &b.traces)
    );
    assert_ne!(a.traces, stream(6).traces);

    let (p, q) = (
        serve_mix::profiles(true).expect("profiles build"),
        serve_mix::profiles(true).expect("profiles build"),
    );
    for (x, y) in p.iter().zip(&q) {
        assert_eq!(
            (x.seed, &x.inst, &x.events, &x.revised),
            (y.seed, &y.inst, &y.events, &y.revised)
        );
    }
    let schedule = |seed| {
        serve_mix::arrivals(&mut Rng::new(seed, 4), 20.0, 40, 4)
            .iter()
            .map(|a| (a.due, a.profile, a.algo))
            .collect::<Vec<_>>()
    };
    assert_eq!(schedule(5), schedule(5));
    assert_ne!(schedule(5), schedule(6));

    // Whole decks offer the same requests with the same gaps in every run,
    // in another order.
    let offered = |seed| {
        let deck = serve_mix::deck_len(4);
        let a = serve_mix::arrivals(&mut Rng::new(seed, 4), 20.0, 2 * deck, 4);
        let mut requests: Vec<(usize, String)> =
            a.iter().map(|a| (a.profile, a.algo.to_string())).collect();
        requests.sort();
        let mut gaps_us: Vec<u128> = std::iter::once(a[0].due)
            .chain(a.windows(2).map(|w| w[1].due - w[0].due))
            .map(|g| g.as_micros())
            .collect();
        gaps_us.sort_unstable();
        (requests, gaps_us)
    };
    let ((req5, gaps5), (req6, gaps6)) = (offered(5), offered(6));
    assert_eq!(req5, req6);
    assert!(gaps5.iter().zip(&gaps6).all(|(a, b)| a.abs_diff(*b) <= 1));
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("valid JSON");
    let root = json.as_object().expect("an object");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        root.get(key)
            .and_then(Value::as_array)
            .expect("a list")
            .iter()
            .map(|e| {
                let o = e.as_object().expect("an entry");
                let s = |k| o.get(k).and_then(Value::as_str).map(str::to_string);
                (s("name").expect("a name"), s("unit"))
            })
            .collect()
    };
    let expect = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(END_TO_END));
    assert_eq!(names("per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_prfpga-perfbench");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "pa_large", "--trace", "2"][..],
        &["--seed"][..],
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("\"correct\""), "{args:?}: {stdout}");
    }
}

/// Measures the daemon's capacity on the `serve_mix` mix, the figure
/// `serve_mix::CAPACITY_RPS` records. Run it by hand on the machine the
/// benchmark runs on:
/// `cargo test --release -- --ignored serve_mix_capacity --nocapture`.
#[test]
#[ignore = "a 30 s measurement, not a check"]
fn serve_mix_capacity() {
    let runs: Vec<f64> = (0..3)
        .map(|_| serve_mix::capacity(std::time::Duration::from_secs(10)).expect("daemon answers"))
        .collect();
    println!("serve_mix capacity, req/s, three 10 s runs: {runs:.2?}");
}
