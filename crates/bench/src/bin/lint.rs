//! `lint` — validates the files `repro` reads and writes against their
//! documented invariants.
//!
//! ```text
//! lint uarch [config.json ...]        # no files: the presets embedded in the binary
//! lint telemetry telemetry.json [...] # repro --telemetry
//! lint extract extract.json [...]     # repro extract --out
//! lint frontier frontier.json [...]   # repro frontier --out
//! ```
//!
//! Each kind's rules live in scnn-core next to the document's writer,
//! shared with the tests: [`zoo::check_uarch`] (strict parse, validation
//! and canonical round-trip), [`json::check_telemetry`],
//! [`extract::check_json`] and [`frontier::check_json`]. For each file
//! this prints `path: ok (summary)`; it exits 1 on the first violation,
//! naming the file and the rule that failed.

use scnn_core::json::{self, Value};
use scnn_core::{extract, frontier, zoo, Error};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: lint <uarch|telemetry|extract|frontier> [file ...]";

/// Checks one document's text: a one-line summary, or the broken rule.
type Check = fn(&str) -> Result<String, String>;

/// Parses `src` as JSON, then applies a document checker to it.
fn parsed(src: &str, check: fn(&Value) -> Result<String, String>) -> Result<String, String> {
    check(&json::parse(src).map_err(|e| e.to_string())?)
}

fn run() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kind, paths) = args.split_first().ok_or_else(|| Error::msg(USAGE))?;
    let check: Check = match kind.as_str() {
        "uarch" => |src| zoo::check_uarch(src).map(|cfg| cfg.name),
        "telemetry" => |src| parsed(src, json::check_telemetry),
        "extract" => |src| parsed(src, extract::check_json),
        "frontier" => |src| parsed(src, frontier::check_json),
        _ => return Err(Error::msg(USAGE)),
    };
    // A closed stdout (`lint ... | head`) is an error, not a panic.
    let mut stdout = std::io::stdout().lock();
    let mut report = |line: String| writeln!(stdout, "{line}").map_err(|e| Error::io("stdout", e));
    if paths.is_empty() {
        if kind != "uarch" {
            return Err(Error::msg(USAGE));
        }
        // No files: lint the shipped zoo itself.
        for (name, src) in zoo::PRESETS {
            let description = zoo::check_preset(name, src)
                .map_err(|rule| Error::msg(format!("preset {name}: {rule}")))?;
            report(format!("preset {name}: ok ({description})"))?;
        }
    }
    for path in paths {
        let src = std::fs::read_to_string(path).map_err(|e| Error::io(path.clone(), e))?;
        let summary = check(&src).map_err(|rule| Error::msg(format!("{path}: {rule}")))?;
        report(format!("{path}: ok ({summary})"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::FAILURE
        }
    }
}
