//! `speed | head`: a reader that goes away early must end the binary
//! cleanly — status 0 and no "failed printing to stdout" panic.

use std::process::{Command, Stdio};

#[test]
fn speed_exits_cleanly_into_a_closed_reader() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_speed"))
        .args(["--cycles", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn speed");
    // Close the read end before the first line is printed.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for speed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
