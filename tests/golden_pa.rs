//! Golden schedules: the frozen reference every refactor of the
//! scheduling pipeline is checked against.
//!
//! Each entry pins a stable FNV-1a-64 digest of the canonical
//! `serde_json` serialization of a schedule (plus the counters named
//! below), so any change to the decisions of phases A–G shows up as a
//! digest mismatch, not just a different makespan.
//!
//! * Scaling corpus: the PA schedule and makespan of scaling-corpus graphs
//!   (`GraphConfig::standard`, `zedboard_pr`, seeded like
//!   `prfpga_bench::scaling_instances`), plus the deterministic
//!   `PhaseTrace` counters of the 1,000-task solves. Both take two
//!   attempts with a few milliseconds of floorplanning, so they pin the
//!   restart path too. The 3,000-task graphs are the `pa_large` benchmark
//!   corpus; their makespans match the deterministic list that workload
//!   prints. They are release-only (a debug PA solve at that size takes
//!   tens of seconds); `cargo test --release --test golden_pa` runs them.
//! * Differential corpus: two 20-task and two 40-task graphs on
//!   `zedboard_pr` without fabric geometry (with geometry the
//!   floorplanner's wall-clock limit decides some outcomes). Every
//!   scheduler entry point is pinned there: PA (schedule, attempts), PA-R
//!   (schedule, iterations, convergence), IS-1, the default portfolio
//!   (schedule, winner) and a repair-engine replay (every outcome and
//!   every repaired schedule). Each entry is checked bare and wrapped in a
//!   one-fabric `Platform::single`, against the same value.
//! * Multi-fabric corpus: two 40-task graphs on `Platform::dual_zedboard`
//!   and two on `Platform::alveo_u250`, geometry removed from every
//!   fabric as above. PA (schedule, attempts) and PA-R (schedule,
//!   iterations, convergence) are pinned there, so the per-fabric
//!   floorplan dispatch and the lockstep platform ratchet are covered.
//!
//! The values were frozen from the fresh-allocation, full-recompute,
//! adjacency-and-DFS, direct-realization pipeline and agree with the
//! pooled, incremental, closure-indexed, journaled one, so they are an
//! oracle independent of the machinery the scheduler runs today.

use std::time::Duration;

use prfpga::gen::GraphConfig;
use prfpga::prelude::*;
use prfpga::sched::{PaResult, PhaseTrace};

/// Seed of the scaling corpus (`prfpga_bench::scale::SCALING_SEED`).
const SCALING_SEED: u64 = 0x5CA_1E06;

/// FNV-1a, 64-bit: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from state `h`, for digests over several pieces.
fn fnv1a64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(schedule: &Schedule) -> u64 {
    fnv1a64(
        serde_json::to_string(schedule)
            .expect("schedules serialize")
            .as_bytes(),
    )
}

/// The configuration every scheduler in this file runs under.
fn config() -> SchedulerConfig {
    SchedulerConfig::default()
}

/// PA on corpus graph `index` of `tasks` tasks.
fn solve(tasks: usize, index: usize) -> PaResult {
    let inst = TaskGraphGenerator::new(SCALING_SEED).generate(
        &format!("scale_{tasks}_{index}"),
        &GraphConfig::standard(tasks),
        Architecture::zedboard_pr(),
    );
    PaScheduler::new(config())
        .schedule_detailed(&inst)
        .expect("corpus graphs are schedulable")
}

fn check(tasks: usize, golden: &[(usize, u64, u64)]) {
    let mut mismatches = Vec::new();
    for &(index, makespan, want) in golden {
        let schedule = solve(tasks, index).schedule;
        let got = (schedule.makespan(), digest(&schedule));
        if got != (makespan, want) {
            mismatches.push(format!(
                "scale_{tasks}_{index}: got (makespan {}, digest {:#018x}), \
                 golden (makespan {makespan}, digest {want:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The deterministic counters of a PA trace, in [`TRACE_FIELDS`] order
/// (wall-clock and cancellation counters excluded).
fn trace_counters(t: &PhaseTrace) -> [u64; 19] {
    [
        t.attempts as u64,
        t.regions as u64,
        t.hw_tasks as u64,
        t.sw_tasks as u64,
        t.balance_moves as u64,
        t.reconfigurations as u64,
        t.workspace_reuses,
        t.fp_cache_hits,
        t.fp_cache_misses,
        t.commits,
        t.commit_edits,
        t.timeline_reservations,
        t.timeline_gap_queries,
        t.cpm.arcs_applied,
        t.cpm.order_repairs,
        t.cpm.nodes_repositioned,
        t.cpm.forward_relaxations,
        t.cpm.backward_relaxations,
        t.cpm.full_recomputes,
    ]
}

const TRACE_FIELDS: [&str; 19] = [
    "attempts",
    "regions",
    "hw_tasks",
    "sw_tasks",
    "balance_moves",
    "reconfigurations",
    "workspace_reuses",
    "fp_cache_hits",
    "fp_cache_misses",
    "commits",
    "commit_edits",
    "timeline_reservations",
    "timeline_gap_queries",
    "cpm.arcs_applied",
    "cpm.order_repairs",
    "cpm.nodes_repositioned",
    "cpm.forward_relaxations",
    "cpm.backward_relaxations",
    "cpm.full_recomputes",
];

/// The differential corpus, without fabric geometry.
fn differential_corpus() -> Vec<ProblemInstance> {
    let mut corpus: Vec<ProblemInstance> = SuiteConfig {
        groups: vec![20, 40],
        graphs_per_group: 2,
        seed: 0xD1FF_2016,
    }
    .generate(&Architecture::zedboard_pr())
    .into_iter()
    .flatten()
    .collect();
    for inst in &mut corpus {
        inst.architecture.device.geometry = None;
    }
    corpus
}

/// Sweep-validates `s` against `target` and digests it; `name` labels a
/// failure.
fn checked_on(name: &str, target: &ProblemInstance, s: &Schedule) -> u64 {
    assert_eq!(
        validate_schedule_sweep(target, s),
        Ok(()),
        "{name}: invalid schedule"
    );
    digest(s)
}

/// A configuration that caps PA-R at `n` iterations, well inside its
/// wall-clock budget.
fn iterations(n: usize) -> SchedulerConfig {
    SchedulerConfig {
        max_iterations: n,
        time_budget: Duration::from_secs(120),
        ..config()
    }
}

/// PA (schedule, attempts) and PA-R@6 (schedule, iterations,
/// convergence) entries on `inst`, pushed onto `entries`; returns PA's
/// schedule.
fn pa_and_par_entries(inst: &ProblemInstance, entries: &mut Vec<(&'static str, u64)>) -> Schedule {
    let checked = |s: &Schedule| checked_on(&inst.name, inst, s);
    let pa = PaScheduler::new(config()).schedule_detailed(inst).unwrap();
    entries.push(("pa.schedule", checked(&pa.schedule)));
    entries.push(("pa.attempts", pa.attempts as u64));

    let par = PaRScheduler::new(iterations(6))
        .schedule_detailed(inst)
        .unwrap();
    entries.push(("par.schedule", checked(&par.schedule)));
    entries.push(("par.iterations", par.iterations as u64));
    let convergence: String = par
        .trace
        .iter()
        .map(|p| format!("{}:{};", p.iteration, p.makespan))
        .collect();
    entries.push(("par.convergence", fnv1a64(convergence.as_bytes())));
    pa.schedule
}

/// `(label, value)` entries of every scheduler entry point on `inst`;
/// schedules enter as digests, after a sweep validation.
fn corpus_entries(inst: &ProblemInstance) -> Vec<(&'static str, u64)> {
    let checked = |s: &Schedule| checked_on(&inst.name, inst, s);
    let mut entries = Vec::new();
    let pa_schedule = pa_and_par_entries(inst, &mut entries);

    let is1 = IsKScheduler::new(prfpga::baseline::IsKConfig::is1())
        .schedule(inst)
        .unwrap();
    entries.push(("is1.schedule", checked(&is1)));

    let race = Portfolio::new(PortfolioConfig {
        sched: iterations(4),
        ..Default::default()
    })
    .run(inst)
    .unwrap();
    entries.push(("portfolio.schedule", checked(&race.schedule)));
    entries.push((
        "portfolio.winner",
        fnv1a64(race.winner.to_string().as_bytes()),
    ));

    let trace = EventTraceGenerator::new(0x9A7F_0001).generate(
        inst,
        &pa_schedule,
        &EventConfig::standard(12),
    );
    let mut engine = RepairEngine::new(
        inst.clone(),
        pa_schedule,
        RepairConfig {
            sched: config(),
            ..Default::default()
        },
    )
    .unwrap();
    let mut replay = fnv1a64(b"");
    for event in &trace.events {
        let o = engine.apply(event).unwrap();
        let outcome = format!(
            "{} {} {} {} {};",
            o.frontier, o.moved, o.recs_replaced, o.full_resolve, o.makespan
        );
        replay = fnv1a64_from(replay, outcome.as_bytes());
        let repaired = checked_on(&inst.name, engine.instance(), engine.schedule());
        replay = fnv1a64_from(replay, &repaired.to_le_bytes());
    }
    entries.push(("repair.replay", replay));
    entries
}

#[test]
fn fnv1a64_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn pa_schedules_match_golden_1k() {
    check(1000, GOLDEN_1K);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "3k-task PA solves are release-only")]
fn pa_schedules_match_golden_3k() {
    check(3000, GOLDEN_3K);
}

#[test]
fn pa_trace_counters_match_golden_1k() {
    let mut mismatches = Vec::new();
    for &(index, golden) in GOLDEN_TRACE_1K {
        let t = solve(1000, index).trace;
        assert_eq!(
            t.cpm.full_recomputes, 0,
            "scale_1000_{index}: CPM recomputed"
        );
        assert_eq!(
            t.commits, t.attempts as u64,
            "scale_1000_{index}: one commit per run"
        );
        let got = trace_counters(&t);
        for ((field, got), want) in TRACE_FIELDS.iter().zip(got).zip(golden) {
            if got != want {
                mismatches.push(format!(
                    "scale_1000_{index}.{field}: got {got}, golden {want}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Compares `entries` of instance `name` against `golden`, pushing one
/// ready-to-paste line per mismatch onto `mismatches`.
fn compare(
    golden: &[(&str, &str, u64)],
    name: &str,
    target: &str,
    entries: Vec<(&'static str, u64)>,
    mismatches: &mut Vec<String>,
) -> usize {
    let seen = entries.len();
    for (label, got) in entries {
        let want = golden
            .iter()
            .find(|&&(n, l, _)| n == name && l == label)
            .map(|&(_, _, v)| v);
        if want != Some(got) {
            mismatches.push(format!(
                "(\"{name}\", \"{label}\", {got:#018x}), // {target}, golden {want:#x?}"
            ));
        }
    }
    seen
}

#[test]
fn differential_corpus_matches_golden() {
    let mut mismatches = Vec::new();
    let mut seen = 0;
    for inst in differential_corpus() {
        let mut wrapped = inst.clone();
        wrapped.architecture.platform = Some(Platform::single(inst.architecture.device.clone()));
        for (target, inst) in [("bare", &inst), ("wrapped", &wrapped)] {
            let entries = corpus_entries(inst);
            seen += compare(GOLDEN_CORPUS, &inst.name, target, entries, &mut mismatches);
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    assert_eq!(seen, 2 * GOLDEN_CORPUS.len(), "every golden entry checked");
}

/// The multi-fabric corpus: 40-task graphs on two catalog platforms,
/// without fabric geometry, named `<platform>_g40_i<k>`.
fn multi_fabric_corpus() -> Vec<ProblemInstance> {
    let mut corpus = Vec::new();
    for platform in [Platform::dual_zedboard(), Platform::alveo_u250()] {
        let platform_name = platform.name.clone();
        let arch = Architecture::on_platform(2, platform);
        let suite = SuiteConfig {
            groups: vec![40],
            graphs_per_group: 2,
            seed: 0xFAB_2016,
        };
        for mut inst in suite.generate(&arch).into_iter().flatten() {
            inst.name = format!("{platform_name}_{}", inst.name);
            inst.architecture.device.geometry = None;
            for fabric in &mut inst.architecture.platform.as_mut().unwrap().fabrics {
                fabric.geometry = None;
            }
            corpus.push(inst);
        }
    }
    corpus
}

#[test]
fn multi_fabric_corpus_matches_golden() {
    let mut mismatches = Vec::new();
    let mut seen = 0;
    for inst in multi_fabric_corpus() {
        let mut entries = Vec::new();
        pa_and_par_entries(&inst, &mut entries);
        seen += compare(
            GOLDEN_MULTI_FABRIC,
            &inst.name,
            "platform",
            entries,
            &mut mismatches,
        );
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    assert_eq!(
        seen,
        GOLDEN_MULTI_FABRIC.len(),
        "every golden entry checked"
    );
}

/// `(corpus index, makespan, digest)` for the 1,000-task graphs.
const GOLDEN_1K: &[(usize, u64, u64)] = &[
    (0, 4_451_530, 0xa102_0be5_10a3_ad48),
    (1, 4_330_226, 0x2490_a69b_4dd7_145f),
];

/// `(corpus index, makespan, digest)` for the `pa_large` graphs.
const GOLDEN_3K: &[(usize, u64, u64)] = &[
    (0, 15_979_103, 0x30da_fed5_9005_ccd5),
    (1, 14_714_055, 0xc195_d9cb_9baa_4224),
    (2, 16_010_399, 0xe6bf_f42b_2488_cf12),
    (3, 15_553_571, 0x9d25_6fef_cccb_982f),
    (4, 15_857_098, 0x2628_fc49_de86_e831),
    (5, 15_675_189, 0x9e7e_5c2f_2aa6_e51a),
    (6, 15_700_183, 0xcb23_8bb2_f491_d12a),
    (7, 16_368_776, 0xfa91_bcd1_2793_6cc5),
    (8, 15_545_187, 0x6d1f_ca2d_74e2_b1c1),
    (9, 15_482_192, 0x9278_520e_875c_7627),
];

/// `(corpus index, counters in TRACE_FIELDS order)` of the 1,000-task PA
/// traces.
const GOLDEN_TRACE_1K: &[(usize, [u64; 19])] = &[
    (
        0,
        [
            2, 33, 322, 678, 0, 289, 1, 0, 2, 2, 555, 967, 289, 1167, 535, 5298, 29834, 1000, 0,
        ],
    ),
    (
        1,
        [
            2, 31, 312, 688, 0, 281, 1, 0, 2, 2, 558, 969, 281, 1144, 550, 6639, 29243, 1000, 0,
        ],
    ),
];

/// `(instance, entry, value)` of the differential corpus.
const GOLDEN_CORPUS: &[(&str, &str, u64)] = &[
    ("g20_i0", "pa.schedule", 0x4196_c859_1b4b_83d3),
    ("g20_i0", "pa.attempts", 1),
    ("g20_i0", "par.schedule", 0xe70d_218f_6180_6718),
    ("g20_i0", "par.iterations", 6),
    ("g20_i0", "par.convergence", 0x1fba_7ad2_2242_4c65),
    ("g20_i0", "is1.schedule", 0xb346_a1aa_3e88_dfc5),
    ("g20_i0", "portfolio.schedule", 0x4196_c859_1b4b_83d3),
    ("g20_i0", "portfolio.winner", 0x0942_2707_b5d1_fe4a),
    ("g20_i0", "repair.replay", 0x30c4_5bfa_4897_b6c1),
    ("g20_i1", "pa.schedule", 0x0433_dfc1_581f_cd29),
    ("g20_i1", "pa.attempts", 1),
    ("g20_i1", "par.schedule", 0xfe56_5f61_6892_bc74),
    ("g20_i1", "par.iterations", 6),
    ("g20_i1", "par.convergence", 0x72e8_7253_6a97_8fda),
    ("g20_i1", "is1.schedule", 0xeaec_f742_89b5_9f88),
    ("g20_i1", "portfolio.schedule", 0xeaec_f742_89b5_9f88),
    ("g20_i1", "portfolio.winner", 0x7b14_f0d1_1e51_e6bb),
    ("g20_i1", "repair.replay", 0xd8fb_e1b5_585e_7f09),
    ("g40_i0", "pa.schedule", 0xa65c_548d_eebb_1b86),
    ("g40_i0", "pa.attempts", 1),
    ("g40_i0", "par.schedule", 0xf655_76cb_e42b_8a8a),
    ("g40_i0", "par.iterations", 6),
    ("g40_i0", "par.convergence", 0x24d5_6266_6447_fd30),
    ("g40_i0", "is1.schedule", 0x7788_9a5e_002e_6c5c),
    ("g40_i0", "portfolio.schedule", 0xf655_76cb_e42b_8a8a),
    ("g40_i0", "portfolio.winner", 0x18d5_de19_5005_9ed5),
    ("g40_i0", "repair.replay", 0xf08d_ad16_fdce_1e65),
    ("g40_i1", "pa.schedule", 0x2b63_278d_2e8b_67ef),
    ("g40_i1", "pa.attempts", 1),
    ("g40_i1", "par.schedule", 0x3901_a1bc_a4a1_23cd),
    ("g40_i1", "par.iterations", 6),
    ("g40_i1", "par.convergence", 0xee02_20eb_9568_1c74),
    ("g40_i1", "is1.schedule", 0x617d_ab32_97db_445e),
    ("g40_i1", "portfolio.schedule", 0x3901_a1bc_a4a1_23cd),
    ("g40_i1", "portfolio.winner", 0x18d5_de19_5005_9ed5),
    ("g40_i1", "repair.replay", 0xa17f_abfd_59c7_b0f1),
];

/// `(instance, entry, value)` of the multi-fabric corpus.
const GOLDEN_MULTI_FABRIC: &[(&str, &str, u64)] = &[
    ("dual-zedboard_g40_i0", "pa.schedule", 0xff4c_b693_bebd_2959),
    ("dual-zedboard_g40_i0", "pa.attempts", 1),
    (
        "dual-zedboard_g40_i0",
        "par.schedule",
        0x5fd7_6290_5e25_7773,
    ),
    ("dual-zedboard_g40_i0", "par.iterations", 6),
    (
        "dual-zedboard_g40_i0",
        "par.convergence",
        0x6af8_ea46_8ad8_6ceb,
    ),
    ("dual-zedboard_g40_i1", "pa.schedule", 0xd7b1_06ec_59ec_3049),
    ("dual-zedboard_g40_i1", "pa.attempts", 1),
    (
        "dual-zedboard_g40_i1",
        "par.schedule",
        0xc035_60cb_9da4_0f61,
    ),
    ("dual-zedboard_g40_i1", "par.iterations", 6),
    (
        "dual-zedboard_g40_i1",
        "par.convergence",
        0x8ac4_c1c3_4268_dbc5,
    ),
    ("alveo-u250_g40_i0", "pa.schedule", 0x90e3_f743_94d6_30dd),
    ("alveo-u250_g40_i0", "pa.attempts", 1),
    ("alveo-u250_g40_i0", "par.schedule", 0x801c_120b_dcf3_0553),
    ("alveo-u250_g40_i0", "par.iterations", 6),
    (
        "alveo-u250_g40_i0",
        "par.convergence",
        0xfa54_80cf_0e4e_7514,
    ),
    ("alveo-u250_g40_i1", "pa.schedule", 0xce52_58c6_a197_4935),
    ("alveo-u250_g40_i1", "pa.attempts", 1),
    ("alveo-u250_g40_i1", "par.schedule", 0xc923_0fed_dfff_b40d),
    ("alveo-u250_g40_i1", "par.iterations", 6),
    (
        "alveo-u250_g40_i1",
        "par.convergence",
        0xe402_1af2_c79f_216a,
    ),
];
