//! `speed` with a retired flag or a malformed number must stop with a
//! usage error — status 2, no panic — instead of measuring the default
//! path or unwinding through `.expect`.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_speed"))
        .args(args)
        .output()
        .expect("run speed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} measured before rejecting");
}

#[test]
fn speed_rejects_an_unknown_flag() {
    assert_usage_error(&["--cycles", "2000", "--full-sweep"]);
}

#[test]
fn speed_rejects_a_malformed_number() {
    assert_usage_error(&["--cycles", "abc"]);
}

#[test]
fn speed_rejects_a_flag_without_its_value() {
    assert_usage_error(&["--threads"]);
}
