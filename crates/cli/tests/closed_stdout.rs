//! `ustr … | head`: a reader that closes the pipe early ends the command
//! cleanly — no panic, no backtrace, exit 0.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    // The read end is gone before the child starts, so its first write
    // meets EPIPE whatever the timing.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_ustr"))
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
