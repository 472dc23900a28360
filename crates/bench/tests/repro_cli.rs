//! Integration: the `repro` binary rejects bad options when it decodes
//! them — before any training — with exit code 1 and a message, never a
//! panic, on the command line and in `serve` jobs alike; a closed stdout
//! ends a run the same way.

use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scnn-repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn too_few_samples_exit_1_without_panicking() {
    for args in [
        ["extract", "--quick", "--samples", "0"],
        ["table1", "--quick", "--samples", "1"],
        ["frontier", "--quick", "--samples", "0"],
    ] {
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--samples needs a count of at least 2"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn huge_sample_counts_exit_1_without_allocating() {
    // Decoding rejects the count, so nothing reserves room for it: the
    // process exits with the message instead of aborting on allocation.
    for samples in ["1000001", "100000000000"] {
        let out = repro(&["table1", "--quick", "--samples", samples]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{samples}: {stderr}");
        assert!(
            stderr.contains("--samples allows at most 1000000 per category"),
            "{samples}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{samples}: nothing ran");
    }
}

#[test]
fn closed_stdout_exits_1_without_panicking() {
    // As `repro table1 | head -1` does once `head` has its line; here
    // the reader is gone before the first write, so the banner fails.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--quick", "--samples", "8", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("repro ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("stdout"), "{stderr}");
}

#[test]
fn zero_threads_is_rejected() {
    let out = repro(&["table1", "--quick", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn out_of_range_profile_fraction_is_rejected_before_training() {
    for frac in ["1.5", "0", "1", "-0.25", "NaN", "inf"] {
        let out = repro(&[
            "attack",
            "--quick",
            "--samples",
            "8",
            "--profile-frac",
            frac,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{frac}: {stderr}");
        assert!(
            stderr.contains("--profile-frac needs a fraction in (0,1)"),
            "{frac}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{frac}: nothing ran");
    }
}

#[test]
fn zero_workers_is_rejected() {
    let dir = scratch("workers");
    let jobs = dir.join("jobs.ndjson");
    std::fs::write(&jobs, "{\"id\":\"bye\",\"command\":\"shutdown\"}\n").unwrap();
    let out = repro(&["serve", "--jobs", jobs.to_str().unwrap(), "--workers", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--workers needs a count of at least 1"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no job was answered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_decode_options_like_flags() {
    let dir = scratch("jobs");
    let jobs = dir.join("jobs.ndjson");
    std::fs::write(
        &jobs,
        concat!(
            r#"{"id":"few","command":"table1","quick":true,"samples":1}"#,
            "\n",
            r#"{"id":"zero","command":"table1","quick":true,"samples":8,"threads":0}"#,
            "\n",
            r#"{"id":"frac","command":"attack","quick":true,"samples":8,"profile_frac":1.5}"#,
            "\n",
            r#"{"id":"huge","command":"table1","quick":true,"samples":100000000000}"#,
            "\n",
            r#"{"id":"bye","command":"shutdown"}"#,
            "\n",
        ),
    )
    .unwrap();
    let out = repro(&["serve", "--jobs", jobs.to_str().unwrap(), "--workers", "1"]);
    assert_eq!(out.status.code(), Some(0), "the service survives bad jobs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = |id: &str| {
        stdout
            .lines()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no response for {id}:\n{stdout}"))
            .to_owned()
    };
    let few = line("few");
    assert!(few.contains(r#""status":"error""#), "{few}");
    assert!(few.contains("at least 2"), "{few}");
    let zero = line("zero");
    assert!(zero.contains(r#""status":"error""#), "{zero}");
    assert!(zero.contains("threads"), "{zero}");
    let frac = line("frac");
    assert!(frac.contains(r#""status":"error""#), "{frac}");
    assert!(frac.contains("profile-frac"), "{frac}");
    let huge = line("huge");
    assert!(huge.contains(r#""status":"error""#), "{huge}");
    assert!(huge.contains("at most 1000000"), "{huge}");
    let _ = std::fs::remove_dir_all(&dir);
}
