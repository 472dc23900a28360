//! Integration: `lint <kind>` names the file it rejects, and rejects
//! with exit code 1 — never a panic (101) or an abort (134).

use std::process::Command;

#[test]
fn malformed_file_exits_1_naming_the_path_for_every_kind() {
    let dir = std::env::temp_dir().join(format!("scnn-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("truncated.json");
    std::fs::write(&bad, "{\"version\":1,").unwrap();
    let path = bad.to_str().unwrap();
    for kind in ["uarch", "telemetry", "extract", "frontier"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lint"))
            .args([kind, path])
            .output()
            .expect("lint starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{kind}: {stderr}");
        assert!(stderr.contains(path), "{kind} drops the path: {stderr}");
        assert!(stderr.contains("invalid JSON"), "{kind}: {stderr}");
        assert!(out.stdout.is_empty(), "{kind}: nothing passed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_kind_or_missing_files_print_usage() {
    for args in [&[][..], &["bogus", "x.json"], &["frontier"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(args)
            .output()
            .expect("lint starts");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: lint <uarch|"));
    }
}
