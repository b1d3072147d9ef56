//! The generator binaries report a bad, missing or unknown flag the way
//! `salssa` does: an `error:` line and the usage text on stderr, exit status
//! 2, and no panic.

use std::process::Command;

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
fn gen_module_reports_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_gen-module");
    assert_usage_error(bin, &["--functions", "abc"], "bad --functions");
    assert_usage_error(bin, &["--clone-fraction", "most"], "bad --clone-fraction");
    assert_usage_error(bin, &["--bogus"], "unknown option '--bogus'");
    assert_usage_error(bin, &["--seed"], "--seed requires a value");
}
