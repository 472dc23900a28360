//! `frontier_lint` — validates frontier-outcome JSON files written by
//! `repro frontier --out`.
//!
//! ```text
//! frontier_lint frontier.json [more.json ...]
//! ```
//!
//! For each file: parses it with the in-tree strict JSON reader and
//! checks the outcome invariants — at least six arms, every row
//! carrying an arm name, leakage statistics and a positive overhead,
//! a baseline row with overhead exactly 1 and its alarm raised, at
//! least two protected arms that suppress the alarm, and a non-empty
//! Pareto set whose members all leak strictly less than the baseline
//! and never dominate one another. Exits nonzero on the first
//! violation, printing which file and which rule failed.

use scnn_core::json::{parse, Value};
use scnn_core::Error;
use std::process::ExitCode;

/// Checks one member list key, returning the array or an error.
fn section<'a>(root: &'a Value, key: &str) -> Result<&'a [Value], String> {
    root.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing or non-array {key:?} section"))
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric {key:?}"))
}

fn ratio(v: &Value, key: &str) -> Result<f64, String> {
    let n = number(v, key)?;
    if !(0.0..=1.0).contains(&n) {
        return Err(format!("{key:?} = {n} is outside [0, 1]"));
    }
    Ok(n)
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing boolean {key:?}"))
}

/// One row's lint-relevant facts, extracted and range-checked.
struct Arm {
    name: String,
    alarm: bool,
    leakage: f64,
    overhead: f64,
    pareto: bool,
}

fn arm(row: &Value) -> Result<Arm, String> {
    let name = row
        .get("arm")
        .and_then(Value::as_str)
        .ok_or("row missing string \"arm\"")?
        .to_owned();
    let inner = |e: String| format!("row {name:?}: {e}");
    let alarm = flag(row, "alarm").map_err(inner)?;
    let leakage = ratio(row, "leakage").map_err(inner)?;
    ratio(row, "extraction_overall").map_err(inner)?;
    let cycles = number(row, "mean_cycles").map_err(inner)?;
    if cycles <= 0.0 {
        return Err(format!(
            "row {name:?}: \"mean_cycles\" = {cycles} is not positive"
        ));
    }
    let overhead = number(row, "overhead").map_err(inner)?;
    if overhead <= 0.0 {
        return Err(format!(
            "row {name:?}: \"overhead\" = {overhead} is not positive"
        ));
    }
    let pareto = flag(row, "pareto").map_err(inner)?;
    Ok(Arm {
        name,
        alarm,
        leakage,
        overhead,
        pareto,
    })
}

/// All outcome invariants for one parsed document.
fn lint(root: &Value) -> Result<String, String> {
    let rows = section(root, "rows")?;
    if rows.len() < 6 {
        return Err(format!(
            "only {} arms; a full frontier has at least 6",
            rows.len()
        ));
    }
    let arms: Vec<Arm> = rows.iter().map(arm).collect::<Result<_, _>>()?;
    let baseline = arms
        .iter()
        .find(|a| a.name == "baseline")
        .ok_or("no \"baseline\" row")?;
    if baseline.overhead != 1.0 {
        return Err(format!(
            "baseline overhead is {}, expected exactly 1",
            baseline.overhead
        ));
    }
    if !baseline.alarm {
        return Err("the baseline must raise the leakage alarm".into());
    }
    let quiet = arms
        .iter()
        .filter(|a| a.name != "baseline" && !a.alarm)
        .count();
    if quiet < 2 {
        return Err(format!(
            "only {quiet} protected arms suppress the alarm; expected at least 2"
        ));
    }
    let pareto: Vec<&Arm> = arms.iter().filter(|a| a.pareto).collect();
    if pareto.is_empty() {
        return Err("empty Pareto set".into());
    }
    for a in &pareto {
        if a.name == "baseline" {
            return Err("the baseline can never be on the frontier".into());
        }
        if a.leakage >= baseline.leakage {
            return Err(format!(
                "Pareto arm {:?} leaks {} >= baseline {}",
                a.name, a.leakage, baseline.leakage
            ));
        }
    }
    for a in &pareto {
        for b in &pareto {
            let dominates = a.name != b.name
                && a.leakage <= b.leakage
                && a.overhead <= b.overhead
                && (a.leakage < b.leakage || a.overhead < b.overhead);
            if dominates {
                return Err(format!(
                    "Pareto arm {:?} is dominated by {:?}",
                    b.name, a.name
                ));
            }
        }
    }
    let names = section(root, "pareto")?;
    if names.len() != pareto.len() {
        return Err(format!(
            "\"pareto\" name list has {} entries but {} rows are marked",
            names.len(),
            pareto.len()
        ));
    }
    number(root, "calibrated_dummy_events")?;
    number(root, "target_t")?;
    flag(root, "converged")?;
    Ok(format!(
        "{} arms, {} on the frontier, {} alarm-quiet",
        arms.len(),
        pareto.len(),
        quiet
    ))
}

fn run() -> Result<(), Error> {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        return Err(Error::msg("usage: frontier_lint <frontier.json> [...]"));
    }
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| Error::io(path.clone(), e))?;
        let root = parse(&text).map_err(|e| Error::msg(format!("{path}: {e}")))?;
        let summary = lint(&root).map_err(|e| Error::msg(format!("{path}: {e}")))?;
        println!("{path}: ok ({summary})");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("frontier_lint: {e}");
            ExitCode::FAILURE
        }
    }
}
