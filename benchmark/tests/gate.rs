//! The correctness gate end to end: a run whose outputs were corrupted
//! must exit non-zero without printing a single number, while the same
//! run left alone passes.

use std::process::{Command, Output};

fn smoke(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "serve-hot", "--smoke", "--trace", "0"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn assert_rejected(out: &Output, fault: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{fault}: the gate let it pass\n{stdout}"
    );
    assert!(
        !stdout.contains("goodput_rps") && !stdout.contains("\"correct\""),
        "{fault}: numbers were printed for a wrong run\n{stdout}"
    );
    assert!(
        stderr.contains("benchmark:"),
        "{fault}: no reason given\n{stderr}"
    );
}

#[test]
fn a_flipped_bit_fails_the_bit_identity_check() {
    let out = smoke(&["--inject-fault", "flip-bit"]);
    assert_rejected(&out, "flip-bit");
    assert!(String::from_utf8_lossy(&out.stderr).contains("bit-identity"));
}

#[test]
fn a_dropped_reply_fails_conservation() {
    let out = smoke(&["--inject-fault", "drop-reply"]);
    assert_rejected(&out, "drop-reply");
    assert!(String::from_utf8_lossy(&out.stderr).contains("conservation"));
}

#[test]
fn an_untouched_run_passes_and_ends_with_the_result_line() {
    let out = smoke(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"goodput_rps\":{"), "{last}");
}
