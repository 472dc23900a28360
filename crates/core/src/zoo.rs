//! The microarchitecture zoo: JSON (de)serialization of
//! [`UarchConfig`] and the named presets embedded in the binary.
//!
//! `scnn-uarch` owns the config *type* and its validation; this module
//! owns its on-disk shape, read with the strict in-tree JSON parser
//! ([`crate::json::parse`]). The schema is flat and explicit (DESIGN.md
//! §13): per-level cache geometry and policies, latencies, prefetcher,
//! predictor, TLB and cycle model. Parsing is strict (`lint uarch`
//! checks files with [`check_uarch`]) — an unknown field is an error, a
//! missing required field is reported by its dotted name, and a bad
//! enum name lists the accepted spellings — because a silently ignored
//! typo in a platform file would quietly measure the wrong machine.
//!
//! The shipped presets live under `crates/core/presets/` and are
//! compiled in via `include_str!`, so `--uarch <name>` works without any
//! filesystem layout assumptions; `--uarch <path>` reads the same schema
//! from disk. The writer ([`ToJson`] on [`UarchConfig`]) emits exactly
//! this schema, and the canonical [`SimPmuConfig`] encoding built on it
//! is what [`crate::artifact`] digests into cache keys — every uarch
//! field is inside the key, so a sweep over the zoo resumes per preset.

use crate::json::{parse, write_str, JsonParseError, ObjectWriter, ToJson, Value};
use scnn_hpc::{SimPmuConfig, WarmupPolicy};
use scnn_uarch::{
    CacheConfig, CoreConfig, CycleModel, HierarchyConfig, LatencyModel, NoiseConfig, PredictorKind,
    PrefetcherKind, ReplacementPolicy, TlbConfig, UarchConfig, UarchConfigError, WritePolicy,
};
use std::fmt;

/// The shipped preset zoo: `(name, embedded JSON source)` pairs, in
/// display order. `xeon-like` is the default platform (identical to
/// [`UarchConfig::xeon_like`], pinned by a test).
pub const PRESETS: [(&str, &str); 4] = [
    ("xeon-like", include_str!("../presets/xeon-like.json")),
    ("mobile-like", include_str!("../presets/mobile-like.json")),
    (
        "embedded-like",
        include_str!("../presets/embedded-like.json"),
    ),
    ("xeon-plru", include_str!("../presets/xeon-plru.json")),
];

/// Names of the shipped presets, in display order.
pub fn preset_names() -> Vec<&'static str> {
    PRESETS.iter().map(|&(name, _)| name).collect()
}

/// The named preset, if it ships with the binary.
pub fn preset(name: &str) -> Option<UarchConfig> {
    let (_, src) = PRESETS.iter().find(|&&(n, _)| n == name)?;
    Some(parse_uarch(src).expect("embedded presets are validated by tests"))
}

/// Every shipped preset, parsed, in display order.
pub fn zoo() -> Vec<UarchConfig> {
    PRESETS
        .iter()
        .map(|&(name, _)| preset(name).expect("name comes from the table"))
        .collect()
}

/// Resolves a `--uarch` argument: a preset name first, otherwise a path
/// to a config file in the same schema.
///
/// # Errors
///
/// Returns [`UarchError`] when the file cannot be read or does not
/// parse/validate.
pub fn load_uarch(spec: &str) -> Result<UarchConfig, UarchError> {
    if let Some(cfg) = preset(spec) {
        return Ok(cfg);
    }
    let src = std::fs::read_to_string(spec).map_err(|e| UarchError::Io {
        path: spec.to_owned(),
        detail: e.to_string(),
    })?;
    parse_uarch(&src)
}

/// Why a uarch config document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum UarchError {
    /// The document is not JSON at all.
    Json(JsonParseError),
    /// The document is JSON but a value has the wrong shape.
    Shape {
        /// Dotted path of the offending value.
        field: String,
        /// What was expected there.
        detail: String,
    },
    /// A required field is absent.
    Missing {
        /// Dotted path of the absent field.
        field: String,
    },
    /// A field the schema does not define (strict mode: typos are
    /// errors, not silently-default values).
    Unknown {
        /// Dotted path of the unexpected field.
        field: String,
    },
    /// The document parsed but describes an uninstantiable platform.
    Invalid(UarchConfigError),
    /// The config file could not be read.
    Io {
        /// The path given.
        path: String,
        /// The OS error.
        detail: String,
    },
}

impl fmt::Display for UarchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UarchError::Json(e) => write!(f, "uarch config: {e}"),
            UarchError::Shape { field, detail } => {
                write!(f, "uarch config: field \"{field}\": {detail}")
            }
            UarchError::Missing { field } => {
                write!(f, "uarch config: missing field \"{field}\"")
            }
            UarchError::Unknown { field } => {
                write!(f, "uarch config: unknown field \"{field}\"")
            }
            UarchError::Invalid(e) => write!(f, "uarch config: {e}"),
            UarchError::Io { path, detail } => {
                write!(f, "uarch config {path:?}: {detail} (not a preset name either; shipped presets: {})",
                    preset_names().join(", "))
            }
        }
    }
}

impl std::error::Error for UarchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UarchError::Json(e) => Some(e),
            UarchError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// Parses one uarch config document (the `--uarch` file / preset
/// schema), validating it before returning.
///
/// # Errors
///
/// Returns [`UarchError`] pinpointing the first problem by dotted field
/// path.
pub fn parse_uarch(src: &str) -> Result<UarchConfig, UarchError> {
    let root = parse(src).map_err(UarchError::Json)?;
    let m = members(&root, "")?;
    known(
        m,
        "",
        &[
            "name",
            "description",
            "l1d",
            "l2",
            "l3",
            "latency",
            "prefetcher",
            "predictor",
            "tlb",
            "cycles",
        ],
    )?;
    let cfg = UarchConfig {
        name: str_at(m, "name")?.to_owned(),
        description: match get(m, "description") {
            Some(v) => as_str(v, "description")?.to_owned(),
            None => String::new(),
        },
        core: CoreConfig {
            hierarchy: HierarchyConfig {
                l1d: cache_at(m, "l1d")?,
                l2: cache_at(m, "l2")?,
                l3: cache_at(m, "l3")?,
                latency: latency_at(m, "latency")?,
                prefetcher: enum_at(
                    m,
                    "prefetcher",
                    &PrefetcherKind::ALL.map(|k| k.name()),
                    PrefetcherKind::from_name,
                )?,
            },
            predictor: predictor_kind_at(m)?,
            predictor_bits: predictor_bits_at(m)?,
            tlb: tlb_at(m, "tlb")?,
            cycles: match get(m, "cycles") {
                Some(v) => cycles_of(v)?,
                None => CycleModel::default(),
            },
        },
    };
    cfg.validate().map_err(UarchError::Invalid)?;
    Ok(cfg)
}

/// Checks a uarch document: it parses strictly and validates
/// ([`parse_uarch`]), and the canonical writer round-trips it —
/// `parse(write(parse(x)))` is the identical config, which pins the
/// writer to the schema and so the artifact-cache key encoding. The
/// error is the first rule the document breaks.
pub fn check_uarch(src: &str) -> Result<UarchConfig, String> {
    let cfg = parse_uarch(src).map_err(|e| e.to_string())?;
    let back = parse_uarch(&cfg.to_json())
        .map_err(|e| format!("canonical writer emitted an invalid document: {e}"))?;
    if back != cfg {
        return Err("config does not round-trip through the canonical writer".into());
    }
    Ok(cfg)
}

/// [`check_uarch`] for a shipped preset, which must also declare the
/// name it ships under (so `--uarch <name>` loads what it says).
/// Returns the preset's description, or the first rule it breaks.
pub fn check_preset(name: &str, src: &str) -> Result<String, String> {
    let cfg = check_uarch(src)?;
    if cfg.name != name {
        return Err(format!("declares mismatching name {:?}", cfg.name));
    }
    Ok(cfg.description)
}

// --- strict object walking helpers ---------------------------------

type Members = [(String, Value)];

fn dotted(path: &str, field: &str) -> String {
    if path.is_empty() {
        field.to_owned()
    } else {
        format!("{path}.{field}")
    }
}

fn members<'a>(v: &'a Value, path: &str) -> Result<&'a Members, UarchError> {
    match v {
        Value::Object(members) => Ok(members),
        _ => Err(UarchError::Shape {
            field: if path.is_empty() {
                "<root>".into()
            } else {
                path.into()
            },
            detail: "expected an object".into(),
        }),
    }
}

fn known(m: &Members, path: &str, allowed: &[&str]) -> Result<(), UarchError> {
    for (key, _) in m {
        if !allowed.contains(&key.as_str()) {
            return Err(UarchError::Unknown {
                field: dotted(path, key),
            });
        }
    }
    Ok(())
}

fn get<'a>(m: &'a Members, field: &str) -> Option<&'a Value> {
    m.iter().find(|(k, _)| k == field).map(|(_, v)| v)
}

fn require<'a>(m: &'a Members, path: &str, field: &str) -> Result<&'a Value, UarchError> {
    get(m, field).ok_or_else(|| UarchError::Missing {
        field: dotted(path, field),
    })
}

fn as_str<'a>(v: &'a Value, field: &str) -> Result<&'a str, UarchError> {
    v.as_str().ok_or_else(|| UarchError::Shape {
        field: field.to_owned(),
        detail: "expected a string".into(),
    })
}

fn str_at<'a>(m: &'a Members, field: &str) -> Result<&'a str, UarchError> {
    as_str(require(m, "", field)?, field)
}

fn f64_at(m: &Members, path: &str, field: &str) -> Result<f64, UarchError> {
    let full = dotted(path, field);
    require(m, path, field)?
        .as_f64()
        .ok_or_else(|| UarchError::Shape {
            field: full,
            detail: "expected a number".into(),
        })
}

/// A non-negative integer (counts, sizes, latencies). JSON numbers are
/// f64, so anything fractional, negative or above 2^53 is rejected.
fn uint_at(m: &Members, path: &str, field: &str) -> Result<u64, UarchError> {
    let n = f64_at(m, path, field)?;
    if n.fract() != 0.0 || !(0.0..9_007_199_254_740_992.0).contains(&n) {
        return Err(UarchError::Shape {
            field: dotted(path, field),
            detail: format!("expected a non-negative integer, got {n}"),
        });
    }
    Ok(n as u64)
}

fn usize_at(m: &Members, path: &str, field: &str) -> Result<usize, UarchError> {
    Ok(uint_at(m, path, field)? as usize)
}

fn enum_of<T>(
    v: &Value,
    field: &str,
    allowed: &[&str],
    lookup: impl Fn(&str) -> Option<T>,
) -> Result<T, UarchError> {
    let s = as_str(v, field)?;
    lookup(s).ok_or_else(|| UarchError::Shape {
        field: field.to_owned(),
        detail: format!("unknown name {s:?}; expected one of {}", allowed.join(", ")),
    })
}

fn enum_at<T>(
    m: &Members,
    field: &str,
    allowed: &[&str],
    lookup: impl Fn(&str) -> Option<T>,
) -> Result<T, UarchError> {
    enum_of(require(m, "", field)?, field, allowed, lookup)
}

// --- section parsers ------------------------------------------------

fn cache_at(m: &Members, path: &str) -> Result<CacheConfig, UarchError> {
    let m = members(require(m, "", path)?, path)?;
    known(
        m,
        path,
        &[
            "size_bytes",
            "assoc",
            "line_bytes",
            "policy",
            "write_policy",
        ],
    )?;
    let mut cfg = CacheConfig::new(
        usize_at(m, path, "size_bytes")?,
        usize_at(m, path, "assoc")?,
        usize_at(m, path, "line_bytes")?,
    );
    if let Some(v) = get(m, "policy") {
        cfg.policy = enum_of(
            v,
            &dotted(path, "policy"),
            &ReplacementPolicy::ALL.map(|p| p.name()),
            ReplacementPolicy::from_name,
        )?;
    }
    if let Some(v) = get(m, "write_policy") {
        cfg.write_policy = enum_of(
            v,
            &dotted(path, "write_policy"),
            &WritePolicy::ALL.map(|p| p.name()),
            WritePolicy::from_name,
        )?;
    }
    Ok(cfg)
}

fn latency_at(m: &Members, path: &str) -> Result<LatencyModel, UarchError> {
    let m = members(require(m, "", path)?, path)?;
    known(m, path, &["l1", "l2", "l3", "dram"])?;
    Ok(LatencyModel {
        l1: uint_at(m, path, "l1")?,
        l2: uint_at(m, path, "l2")?,
        l3: uint_at(m, path, "l3")?,
        dram: uint_at(m, path, "dram")?,
    })
}

fn predictor_members(m: &Members) -> Result<&Members, UarchError> {
    let pm = members(require(m, "", "predictor")?, "predictor")?;
    known(pm, "predictor", &["kind", "bits"])?;
    Ok(pm)
}

fn predictor_kind_at(m: &Members) -> Result<PredictorKind, UarchError> {
    let pm = predictor_members(m)?;
    enum_of(
        require(pm, "predictor", "kind")?,
        "predictor.kind",
        &PredictorKind::ALL.map(|k| k.name()),
        PredictorKind::from_name,
    )
}

fn predictor_bits_at(m: &Members) -> Result<u32, UarchError> {
    let pm = predictor_members(m)?;
    Ok(uint_at(pm, "predictor", "bits")? as u32)
}

fn tlb_at(m: &Members, path: &str) -> Result<TlbConfig, UarchError> {
    let m = members(require(m, "", path)?, path)?;
    known(m, path, &["entries", "assoc", "page_bytes"])?;
    Ok(TlbConfig {
        entries: usize_at(m, path, "entries")?,
        associativity: usize_at(m, path, "assoc")?,
        page_bytes: usize_at(m, path, "page_bytes")?,
    })
}

fn cycles_of(v: &Value) -> Result<CycleModel, UarchError> {
    let path = "cycles";
    let m = members(v, path)?;
    known(
        m,
        path,
        &[
            "base_ipc",
            "branch_miss_penalty",
            "tlb_miss_penalty",
            "memory_overlap",
            "bus_divider",
            "ref_ratio",
        ],
    )?;
    Ok(CycleModel {
        base_ipc: f64_at(m, path, "base_ipc")?,
        branch_miss_penalty: uint_at(m, path, "branch_miss_penalty")?,
        tlb_miss_penalty: uint_at(m, path, "tlb_miss_penalty")?,
        memory_overlap: f64_at(m, path, "memory_overlap")?,
        bus_divider: f64_at(m, path, "bus_divider")?,
        ref_ratio: f64_at(m, path, "ref_ratio")?,
    })
}

// --- writers: the same schema back out ------------------------------

impl ToJson for ReplacementPolicy {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.name());
    }
}

impl ToJson for WritePolicy {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.name());
    }
}

impl ToJson for PrefetcherKind {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.name());
    }
}

impl ToJson for PredictorKind {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.name());
    }
}

impl ToJson for CacheConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("size_bytes", &self.size_bytes)
            .field("assoc", &self.associativity)
            .field("line_bytes", &self.line_bytes)
            .field("policy", &self.policy)
            .field("write_policy", &self.write_policy);
        obj.finish();
    }
}

impl ToJson for LatencyModel {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("l1", &self.l1)
            .field("l2", &self.l2)
            .field("l3", &self.l3)
            .field("dram", &self.dram);
        obj.finish();
    }
}

impl ToJson for TlbConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("entries", &self.entries)
            .field("assoc", &self.associativity)
            .field("page_bytes", &self.page_bytes);
        obj.finish();
    }
}

impl ToJson for CycleModel {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("base_ipc", &self.base_ipc)
            .field("branch_miss_penalty", &self.branch_miss_penalty)
            .field("tlb_miss_penalty", &self.tlb_miss_penalty)
            .field("memory_overlap", &self.memory_overlap)
            .field("bus_divider", &self.bus_divider)
            .field("ref_ratio", &self.ref_ratio);
        obj.finish();
    }
}

/// Writes the core fields shared by [`CoreConfig`] and [`UarchConfig`]
/// (the latter prepends name/description).
fn core_fields(obj: &mut ObjectWriter<'_>, core: &CoreConfig) {
    struct Predictor {
        kind: PredictorKind,
        bits: u32,
    }
    impl ToJson for Predictor {
        fn write_json(&self, out: &mut String) {
            let mut obj = ObjectWriter::new(out);
            obj.field("kind", &self.kind).field("bits", &self.bits);
            obj.finish();
        }
    }
    obj.field("l1d", &core.hierarchy.l1d)
        .field("l2", &core.hierarchy.l2)
        .field("l3", &core.hierarchy.l3)
        .field("latency", &core.hierarchy.latency)
        .field("prefetcher", &core.hierarchy.prefetcher)
        .field(
            "predictor",
            &Predictor {
                kind: core.predictor,
                bits: core.predictor_bits,
            },
        )
        .field("tlb", &core.tlb)
        .field("cycles", &core.cycles);
}

impl ToJson for CoreConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        core_fields(&mut obj, self);
        obj.finish();
    }
}

impl ToJson for UarchConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("name", &self.name)
            .field("description", &self.description);
        core_fields(&mut obj, &self.core);
        obj.finish();
    }
}

// --- canonical PMU encoding (artifact cache keys) -------------------

impl ToJson for NoiseConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("interrupts_per_mcycle", &self.interrupts_per_mcycle)
            .field("interrupt_instructions", &self.interrupt_instructions)
            .field("interrupt_branch_fraction", &self.interrupt_branch_fraction)
            .field(
                "interrupt_branch_miss_ratio",
                &self.interrupt_branch_miss_ratio,
            )
            .field("interrupt_llc_misses", &self.interrupt_llc_misses)
            .field(
                "context_switches_per_mcycle",
                &self.context_switches_per_mcycle,
            )
            .field("context_switch_llc_misses", &self.context_switch_llc_misses)
            .field("cycle_jitter", &self.cycle_jitter)
            .field("counter_jitter", &self.counter_jitter);
        obj.finish();
    }
}

impl ToJson for WarmupPolicy {
    fn write_json(&self, out: &mut String) {
        write_str(
            out,
            match self {
                WarmupPolicy::ColdStart => "cold-start",
                WarmupPolicy::Warm => "warm",
            },
        );
    }
}

impl ToJson for SimPmuConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("core", &self.core)
            .field("noise", &self.noise)
            .field("warmup", &self.warmup)
            .field("clock_ghz", &self.clock_ghz);
        obj.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_preset_parses_validates_and_round_trips() {
        for (name, src) in PRESETS {
            check_preset(name, src).unwrap_or_else(|rule| panic!("preset {name}: {rule}"));
        }
        let err = check_preset("mobile-like", PRESETS[0].1).unwrap_err();
        assert!(err.contains("mismatching name \"xeon-like\""), "{err}");
    }

    #[test]
    fn zoo_has_distinct_names_and_xeon_matches_the_rust_default() {
        let zoo = zoo();
        assert!(zoo.len() >= 4, "three platforms plus a policy variant");
        let mut names: Vec<&str> = zoo.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), zoo.len(), "preset names are unique");
        assert_eq!(
            preset("xeon-like").unwrap(),
            UarchConfig::xeon_like(),
            "the embedded default preset is today's hard-coded platform"
        );
    }

    #[test]
    fn load_resolves_presets_then_paths() {
        assert_eq!(load_uarch("mobile-like").unwrap().name, "mobile-like");
        let dir = std::env::temp_dir().join(format!("scnn-zoo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("custom.json");
        let mut custom = preset("embedded-like").unwrap();
        custom.name = "my-board".to_owned();
        std::fs::write(&path, custom.to_json()).unwrap();
        let loaded = load_uarch(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, custom);
        assert!(matches!(
            load_uarch("no-such-preset-or-file"),
            Err(UarchError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn patch(src: &str, from: &str, to: &str) -> String {
        assert!(src.contains(from), "{from} not in preset source");
        src.replacen(from, to, 1)
    }

    #[test]
    fn bad_policy_name_lists_the_accepted_ones() {
        let src = patch(PRESETS[0].1, "\"policy\": \"lru\"", "\"policy\": \"plru\"");
        let err = parse_uarch(&src).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("l1d.policy"), "{msg}");
        assert!(msg.contains("\"plru\""), "{msg}");
        assert!(msg.contains("lru, fifo, tree-plru, random"), "{msg}");
    }

    #[test]
    fn zero_associativity_is_a_named_validation_error() {
        let src = patch(PRESETS[0].1, "\"assoc\": 8", "\"assoc\": 0");
        let err = parse_uarch(&src).unwrap_err();
        assert!(matches!(err, UarchError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("\"l1d\""), "{err}");
    }

    #[test]
    fn more_than_64_ways_is_a_named_validation_error() {
        let src = patch(PRESETS[0].1, "\"assoc\": 20", "\"assoc\": 128");
        let err = parse_uarch(&src).unwrap_err();
        assert!(matches!(err, UarchError::Invalid(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("\"l3\"") && msg.contains("assoc 128"), "{msg}");
    }

    #[test]
    fn oversized_geometries_are_named_validation_errors() {
        let src = patch(
            PRESETS[0].1,
            "\"size_bytes\": 20971520",
            "\"size_bytes\": 1099511627776",
        );
        let err = parse_uarch(&src).unwrap_err();
        assert!(matches!(err, UarchError::Invalid(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("\"l3\"") && msg.contains("size_bytes"),
            "{msg}"
        );

        let src = patch(PRESETS[0].1, "\"entries\": 64", "\"entries\": 1048576");
        let err = parse_uarch(&src).unwrap_err();
        assert!(matches!(err, UarchError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("\"tlb\": entries"), "{err}");
    }

    #[test]
    fn missing_field_is_named() {
        let src = patch(PRESETS[0].1, "\"line_bytes\": 64, ", "");
        let err = parse_uarch(&src).unwrap_err();
        assert_eq!(
            err,
            UarchError::Missing {
                field: "l1d.line_bytes".into()
            }
        );
        assert!(err.to_string().contains("l1d.line_bytes"), "{err}");

        let src = patch(
            PRESETS[0].1,
            "  \"predictor\": { \"kind\": \"tournament\", \"bits\": 14 },\n",
            "",
        );
        let err = parse_uarch(&src).unwrap_err();
        assert!(err.to_string().contains("\"predictor\""), "{err}");
    }

    #[test]
    fn unknown_fields_are_errors() {
        let src = patch(
            PRESETS[0].1,
            "\"prefetcher\": \"stride\"",
            "\"prefetcher\": \"stride\",\n  \"turbo\": true",
        );
        assert_eq!(
            parse_uarch(&src).unwrap_err(),
            UarchError::Unknown {
                field: "turbo".into()
            }
        );
        let src = patch(PRESETS[0].1, "\"entries\": 64", "\"entires\": 64");
        let err = parse_uarch(&src).unwrap_err();
        assert_eq!(
            err,
            UarchError::Unknown {
                field: "tlb.entires".into()
            }
        );
    }

    #[test]
    fn fractional_and_negative_counts_are_rejected() {
        let src = patch(PRESETS[0].1, "\"assoc\": 8", "\"assoc\": 8.5");
        assert!(parse_uarch(&src)
            .unwrap_err()
            .to_string()
            .contains("non-negative integer"));
        let src = patch(PRESETS[0].1, "\"l1\": 4", "\"l1\": -4");
        assert!(parse_uarch(&src).is_err());
    }

    #[test]
    fn description_and_cycles_are_optional() {
        let minimal = r#"{
            "name": "min",
            "l1d": { "size_bytes": 1024, "assoc": 2, "line_bytes": 64 },
            "l2": { "size_bytes": 4096, "assoc": 4, "line_bytes": 64 },
            "l3": { "size_bytes": 16384, "assoc": 4, "line_bytes": 64 },
            "latency": { "l1": 4, "l2": 12, "l3": 36, "dram": 200 },
            "prefetcher": "none",
            "predictor": { "kind": "static-taken", "bits": 8 },
            "tlb": { "entries": 8, "assoc": 2, "page_bytes": 4096 }
        }"#;
        let cfg = parse_uarch(minimal).unwrap();
        assert_eq!(cfg.description, "");
        assert_eq!(cfg.core.cycles, CycleModel::default());
        assert_eq!(cfg.core.hierarchy.l1d.policy, ReplacementPolicy::Lru);
        assert_eq!(
            cfg.core.hierarchy.l1d.write_policy,
            WritePolicy::WriteBackAllocate
        );
    }

    #[test]
    fn pmu_encoding_is_canonical_and_covers_every_uarch_field() {
        let a = SimPmuConfig::default();
        assert_eq!(a.to_json(), SimPmuConfig::default().to_json());

        // Any uarch field change must change the encoding (it feeds the
        // artifact cache keys).
        let mut b = a;
        b.core.hierarchy.l3.policy = ReplacementPolicy::Random;
        assert_ne!(a.to_json(), b.to_json());
        let mut c = a;
        c.core.predictor_bits += 1;
        assert_ne!(a.to_json(), c.to_json());
        let mut d = a;
        d.core.cycles.ref_ratio = 1.0;
        assert_ne!(a.to_json(), d.to_json());

        // The encoding is valid JSON and names the zoo schema sections.
        let v = parse(&a.to_json()).unwrap();
        assert!(v.get("core").unwrap().get("l1d").is_some());
        assert!(v.get("noise").is_some());
        assert_eq!(
            v.get("warmup").unwrap().as_str(),
            Some("cold-start"),
            "warmup policy is part of the key"
        );
    }
}
