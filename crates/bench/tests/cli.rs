//! Bad option values are usage errors: the binary prints its usage line
//! and exits 2 before any simulation starts, instead of panicking.

use std::process::Command;

/// Runs `bin` with `args` and asserts it exits 2 with a `usage:` line on
/// stderr.
fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} should exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("usage:")),
        "{bin} {args:?} printed no usage line; stderr:\n{stderr}"
    );
}

#[test]
fn trace_capture_rejects_zero_capacity() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_trace_capture"),
        &["--smoke", "--capacity", "0"],
    );
}

#[test]
fn trace_capture_rejects_a_sampling_period_that_is_not_a_power_of_two() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_trace_capture"),
        &["--smoke", "--sampling", "3"],
    );
}

#[test]
fn throughput_rejects_zero_repeats() {
    assert_usage_exit(env!("CARGO_BIN_EXE_throughput"), &["--repeats", "0"]);
}

#[test]
fn throughput_rejects_an_out_path_that_is_a_directory() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_throughput"),
        &[
            "--budget",
            "2000",
            "--repeats",
            "1",
            "--skip-grid",
            "--out",
            env!("CARGO_MANIFEST_DIR"),
        ],
    );
}
