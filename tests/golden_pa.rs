//! Golden PA schedules on the scaling corpus.
//!
//! Each entry pins the makespan and a stable FNV-1a-64 digest of the
//! canonical `serde_json` serialization of the PA schedule for one
//! scaling-corpus graph (`GraphConfig::standard`, `zedboard_pr`, seeded
//! like `prfpga_bench::scaling_instances`). The values were frozen from
//! the batch/full-recompute CPM implementation, so they are an oracle
//! independent of the incremental CPM maintenance the scheduler runs
//! today: any change to the decisions of phases A–G shows up as a digest
//! mismatch, not just a different makespan.
//!
//! The 3,000-task graphs are the `pa_large` benchmark corpus; their
//! makespans match the deterministic list that workload prints. They are
//! release-only (a debug PA solve at that size takes tens of seconds);
//! `cargo test --release --test golden_pa` runs them.

use prfpga::gen::GraphConfig;
use prfpga::prelude::*;

/// Seed of the scaling corpus (`prfpga_bench::scale::SCALING_SEED`).
const SCALING_SEED: u64 = 0x5CA_1E06;

/// FNV-1a, 64-bit: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(makespan, digest)` of the PA schedule of corpus graph `index` of
/// `tasks` tasks.
fn solve(tasks: usize, index: usize) -> (u64, u64) {
    let inst = TaskGraphGenerator::new(SCALING_SEED).generate(
        &format!("scale_{tasks}_{index}"),
        &GraphConfig::standard(tasks),
        Architecture::zedboard_pr(),
    );
    let schedule = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .expect("corpus graphs are schedulable");
    let json = serde_json::to_string(&schedule).expect("schedules serialize");
    (schedule.makespan(), fnv1a64(json.as_bytes()))
}

fn check(tasks: usize, golden: &[(usize, u64, u64)]) {
    let mut mismatches = Vec::new();
    for &(index, makespan, digest) in golden {
        let got = solve(tasks, index);
        if got != (makespan, digest) {
            mismatches.push(format!(
                "scale_{tasks}_{index}: got (makespan {}, digest {:#018x}), \
                 golden (makespan {makespan}, digest {digest:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
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
