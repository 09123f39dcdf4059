//! `repro inspect` on bad trace input: a missing or malformed JSONL file
//! is reported on stderr with exit code 2 (the usage-error code), never
//! a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli").join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(out: &Path, args: &[&Path]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("--out").arg(out);
    cmd.args(args);
    cmd.arg("inspect").output().expect("run repro")
}

fn assert_reported(out: &Output, prefix: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with(prefix), "want {prefix:?}, got: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn missing_trace_is_a_read_error() {
    let dir = scratch("missing");
    let path = dir.join("absent.jsonl");
    let out = repro(&dir, &[Path::new("--trace"), &path]);
    assert_reported(&out, &format!("error: read {}: ", path.display()));
    let out = repro(&dir, &[Path::new("--diff"), &path, &path]);
    assert_reported(&out, &format!("error: read {}: ", path.display()));
}

#[test]
fn truncated_trace_line_is_a_parse_error() {
    let dir = scratch("truncated");
    let path = dir.join("truncated.jsonl");
    std::fs::write(&path, "{\"ph\":\"X\",\"name\":\"gc_round\",\"ts\":1").expect("write trace");
    let out = repro(&dir, &[Path::new("--trace"), &path]);
    assert_reported(&out, &format!("error: parse {}: ", path.display()));
    let out = repro(&dir, &[Path::new("--diff"), &path, &path]);
    assert_reported(&out, &format!("error: parse {}: ", path.display()));
}
