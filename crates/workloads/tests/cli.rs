//! The generator binaries report a bad, missing or unknown flag the way
//! `salssa` does: an `error:` line and the usage text on stderr, exit status
//! 2, and no panic. A reader that closes `gen-module`'s output early ends it
//! quietly, as it ends `salssa`.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs `bin` with `args` and checks the bad-usage contract.
fn assert_usage_error(bin: &str, args: &[&str], expected: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{bin} {args:?}: no error line in {stderr}"
    );
    assert!(
        stderr.contains(expected),
        "{bin} {args:?}: {expected:?} not in {stderr}"
    );
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
}

#[test]
fn gen_corpus_reports_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_gen-corpus");
    // No `--out-dir` is ever given or reached, so nothing is written.
    assert_usage_error(bin, &["--tier", "X"], "unknown tier 'X'");
    assert_usage_error(bin, &["--modules", "abc"], "bad --modules");
    assert_usage_error(bin, &["--modules", "4"], "--out-dir <dir> is required");
    assert_usage_error(bin, &["--bogus"], "unknown option '--bogus'");
    assert_usage_error(bin, &["--seed"], "--seed requires a value");
    assert_usage_error(bin, &["--divergence", "wild"], "unknown divergence 'wild'");
}

#[test]
fn gen_module_exits_quietly_when_its_reader_closes_early() {
    let bin = env!("CARGO_BIN_EXE_gen-module");
    // Far more output than a pipe buffers, so the program is still writing
    // when the pipe closes.
    let mut child = Command::new(bin)
        .args(["--functions", "400"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let mut head = [0u8; 16];
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_exact(&mut head)
        .expect("gen-module prints a module");
    // The read end was dropped with the handle above.
    let out = child.wait_with_output().expect("gen-module exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn gen_module_reports_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_gen-module");
    assert_usage_error(bin, &["--functions", "abc"], "bad --functions");
    assert_usage_error(bin, &["--clone-fraction", "most"], "bad --clone-fraction");
    assert_usage_error(bin, &["--bogus"], "unknown option '--bogus'");
    assert_usage_error(bin, &["--seed"], "--seed requires a value");
}
