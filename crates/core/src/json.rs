//! Machine-readable report output: a minimal, dependency-free JSON
//! writer and reader.
//!
//! The workspace builds hermetically, so instead of a serialization
//! framework this module hand-rolls exactly the JSON the tooling needs:
//! [`LeakageReport`] (the evaluator's full verdict), the per-category
//! [`Summary`] statistics inside it, raw [`CounterReading`]s, and the
//! observability layer's [`TelemetrySnapshot`]. The `repro` binary uses
//! it to emit results that downstream scripts can parse without scraping
//! the text tables, and [`parse`] reads any JSON document back into a
//! [`Value`] tree. [`check_telemetry`] and the checked accessors it
//! shares with the other outputs' checkers state each document's
//! invariants once, for `lint <kind>` and the golden tests alike.
//!
//! Numbers follow the JSON grammar strictly: non-finite floats (a t-test
//! on degenerate data can produce them) are emitted as `null` rather than
//! the invalid tokens `NaN`/`inf`.

use crate::evaluator::{Alarm, EvaluatorConfig, EventLeakage, LeakageReport};
use scnn_hpc::{CounterReading, HpcEvent};
use scnn_obs::{CounterSnapshot, HistogramSnapshot, SeriesSnapshot, SpanRecord, TelemetrySnapshot};
use scnn_stats::{DecisionRule, PairResult, PairwiseLeakage, Summary, TTestKind, TTestResult};
use std::fmt;

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);

    /// The value as a standalone JSON document.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Appends a JSON string literal with the mandatory escapes.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An object under construction; fields are comma-separated as added.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    pub(crate) fn field<T: ToJson + ?Sized>(&mut self, name: &str, value: &T) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, name);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    pub(crate) fn finish(self) {
        self.out.push('}');
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` round-trips f64 exactly and always includes enough
            // digits; its output is valid JSON for finite values.
            out.push_str(&format!("{self:?}"));
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl ToJson for HpcEvent {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.perf_name());
    }
}

impl ToJson for Summary {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("count", &self.count())
            .field("mean", &self.mean())
            .field("std", &self.sample_std())
            .field("min", &self.min())
            .field("max", &self.max());
        obj.finish();
    }
}

impl ToJson for TTestKind {
    fn write_json(&self, out: &mut String) {
        write_str(
            out,
            match self {
                TTestKind::Welch => "welch",
                TTestKind::Pooled => "pooled",
            },
        );
    }
}

impl ToJson for TTestResult {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("t", &self.t)
            .field("df", &self.df)
            .field("p", &self.p)
            .field("mean1", &self.mean1)
            .field("mean2", &self.mean2)
            .field("kind", &self.kind);
        obj.finish();
    }
}

impl ToJson for DecisionRule {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        match *self {
            DecisionRule::PValue { alpha } => {
                obj.field("rule", "p-value").field("alpha", &alpha);
            }
            DecisionRule::TThreshold { threshold } => {
                obj.field("rule", "t-threshold")
                    .field("threshold", &threshold);
            }
        }
        obj.finish();
    }
}

impl ToJson for PairResult {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("i", &self.i)
            .field("j", &self.j)
            .field("test", &self.test)
            .field("effect_size", &self.effect_size)
            .field("distinguishable", &self.distinguishable);
        obj.finish();
    }
}

impl ToJson for PairwiseLeakage {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("categories", &self.categories)
            .field("rule", &self.rule)
            .field("pairs", &self.pairs);
        obj.finish();
    }
}

impl ToJson for EventLeakage {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("event", &self.event)
            .field("leaks", &self.leaks())
            .field("summaries", &self.summaries)
            .field("pairwise", &self.pairwise)
            .field("holm", &self.holm)
            .field("second_order", &self.second_order);
        obj.finish();
    }
}

impl ToJson for Alarm {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("raised", &self.raised())
            .field("triggering_events", self.triggering_events());
        obj.finish();
    }
}

impl ToJson for EvaluatorConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("kind", &self.kind)
            .field("rule", &self.rule)
            .field("holm_alpha", &self.holm_alpha)
            .field("second_order", &self.second_order);
        obj.finish();
    }
}

impl ToJson for LeakageReport {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("categories", &self.categories)
            .field("config", &self.config)
            .field("alarm", &self.alarm())
            .field("per_event", &self.per_event);
        obj.finish();
    }
}

impl ToJson for CounterReading {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("event", &self.event)
            .field("raw", &self.raw)
            .field("time_enabled", &self.time_enabled)
            .field("time_running", &self.time_running)
            .field("scaled", &self.value());
        obj.finish();
    }
}

impl ToJson for u32 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

// ---------------------------------------------------------------------
// Experiment-config serialization: the canonical strings the artifact
// cache digests into keys (crate::artifact). Field sets deliberately
// exclude anything outside the determinism boundary — `threads` settings
// never appear, because results are bit-identical across thread counts
// (DESIGN.md §9) and must not fragment the cache.
// ---------------------------------------------------------------------

impl ToJson for crate::pipeline::DatasetKind {
    fn write_json(&self, out: &mut String) {
        write_str(
            out,
            match self {
                crate::pipeline::DatasetKind::Mnist => "mnist",
                crate::pipeline::DatasetKind::Cifar10 => "cifar10",
            },
        );
    }
}

impl ToJson for crate::pipeline::ModelScale {
    fn write_json(&self, out: &mut String) {
        write_str(
            out,
            match self {
                crate::pipeline::ModelScale::Tiny => "tiny",
                crate::pipeline::ModelScale::Paper => "paper",
            },
        );
    }
}

impl ToJson for crate::pipeline::Architecture {
    fn write_json(&self, out: &mut String) {
        write_str(
            out,
            match self {
                crate::pipeline::Architecture::Cnn => "cnn",
                crate::pipeline::Architecture::Mlp => "mlp",
            },
        );
    }
}

impl ToJson for crate::countermeasure::Countermeasure {
    fn write_json(&self, out: &mut String) {
        use crate::countermeasure::Countermeasure;
        let mut obj = ObjectWriter::new(out);
        match *self {
            Countermeasure::ConstantTime => {
                obj.field("kind", "constant-time");
            }
            Countermeasure::NoiseInjection { dummy_events } => {
                obj.field("kind", "noise-injection")
                    .field("dummy_events", &dummy_events);
            }
            Countermeasure::Combined { dummy_events } => {
                obj.field("kind", "combined")
                    .field("dummy_events", &dummy_events);
            }
            Countermeasure::Shuffle => {
                obj.field("kind", "shuffle");
            }
            Countermeasure::DecoyInference { decoys } => {
                obj.field("kind", "decoy-inference")
                    .field("decoys", &decoys);
            }
            Countermeasure::ObliviousShape => {
                obj.field("kind", "oblivious-shape");
            }
            Countermeasure::CalibratedNoise {
                target_t,
                dummy_events,
            } => {
                obj.field("kind", "calibrated-noise")
                    .field("target_t", &target_t)
                    .field("dummy_events", &dummy_events);
            }
        }
        obj.finish();
    }
}

impl ToJson for scnn_nn::train::TrainConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("epochs", &self.epochs)
            .field("base_lr", &self.schedule.base_lr)
            .field("gamma", &self.schedule.gamma)
            .field("every", &self.schedule.every)
            .field("momentum", &self.momentum)
            .field("weight_decay", &self.weight_decay)
            .field("seed", &self.seed)
            .field("batch_size", &self.batch_size);
        obj.finish();
    }
}

impl ToJson for crate::collect::CollectionConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("events", &self.events)
            .field("samples_per_category", &self.samples_per_category)
            .field("hw_counters", &self.hw_counters);
        obj.finish();
    }
}

// ---------------------------------------------------------------------
// Telemetry (scnn-obs) serialization. The snapshot shape is versioned;
// tests/telemetry.rs pins the stable keys.
// ---------------------------------------------------------------------

impl ToJson for SpanRecord {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("id", &self.id)
            .field("parent", &self.parent)
            .field("name", self.name)
            .field("index", &self.index)
            .field("thread", &self.thread)
            .field("depth", &self.depth)
            .field("start_ns", &self.start_ns)
            .field("duration_ns", &self.duration_ns);
        obj.finish();
    }
}

impl ToJson for CounterSnapshot {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("name", &self.name).field("value", &self.value);
        obj.finish();
    }
}

/// A `(f64, u64)` histogram bucket as `[upper_bound, count]`.
struct Bucket(f64, u64);

impl ToJson for Bucket {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl ToJson for HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        let buckets: Vec<Bucket> = self.buckets.iter().map(|&(le, c)| Bucket(le, c)).collect();
        let mut obj = ObjectWriter::new(out);
        obj.field("name", &self.name)
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("buckets", &buckets);
        obj.finish();
    }
}

/// An `(x, y)` series point as `[x, y]`.
struct Point(f64, f64);

impl ToJson for Point {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl ToJson for SeriesSnapshot {
    fn write_json(&self, out: &mut String) {
        let points: Vec<Point> = self.points.iter().map(|&(x, y)| Point(x, y)).collect();
        let mut obj = ObjectWriter::new(out);
        obj.field("name", &self.name).field("points", &points);
        obj.finish();
    }
}

impl ToJson for TelemetrySnapshot {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("version", &self.version)
            .field("spans", &self.spans)
            .field("counters", &self.counters)
            .field("histograms", &self.histograms)
            .field("series", &self.series);
        obj.finish();
    }
}

// ---------------------------------------------------------------------
// Reading JSON back: a strict recursive-descent parser into `Value`.
// ---------------------------------------------------------------------

/// A parsed JSON value.
///
/// Objects preserve key order (they are association lists, not maps);
/// duplicate keys are kept as-is, with [`Value::get`] returning the
/// first.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True when this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Error from [`parse`]: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a complete JSON document (one value plus optional surrounding
/// whitespace).
///
/// # Errors
///
/// Returns [`JsonParseError`] on any grammar violation, including
/// trailing garbage after the top-level value.
pub fn parse(input: &str) -> Result<Value, JsonParseError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Containers deeper than this are rejected (guards the recursive
/// parser's stack; real telemetry nests a handful of levels).
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected {keyword:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.expect_keyword("null").map(|()| Value::Null),
            Some(b't') => self.expect_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonParseError> {
        self.enter_container()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonParseError> {
        self.enter_container()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn enter_container(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the whole unescaped run at once. It ends at an
                    // ASCII byte or at the end of input, so it holds whole
                    // UTF-8 scalars (the input is a &str), and each byte
                    // is decoded once: a string parses in linear time.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the leading `\u` is
    /// consumed), combining UTF-16 surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: a low surrogate escape must follow.
            self.expect_keyword("\\u")
                .map_err(|_| self.error("high surrogate not followed by \\u escape"))?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("high surrogate followed by non-low surrogate"));
            }
            let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))
        } else {
            char::from_u32(high).ok_or_else(|| self.error("lone low surrogate"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number chars are ASCII by construction");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("number out of range"))
    }
}

// ---------------------------------------------------------------------
// Checking documents. Each output's invariants are stated once, as a
// plain function over `Value` next to its writer — [`check_telemetry`]
// here, `frontier::check_json`, `extract::check_json` — and shared by
// the `lint` binary and the integration tests. A checker returns a
// one-line summary, or the first rule the document breaks; the checked
// accessors below name the key that is missing or mistyped.
// ---------------------------------------------------------------------

/// Member `key` of `v` as an array.
pub fn section<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing or non-array {key:?} section"))
}

/// Member `key` of `v` as a number.
pub fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric {key:?}"))
}

/// Member `key` of `v` as a number in `[0, 1]`.
pub fn ratio(v: &Value, key: &str) -> Result<f64, String> {
    let n = number(v, key)?;
    if !(0.0..=1.0).contains(&n) {
        return Err(format!("{key:?} = {n} is outside [0, 1]"));
    }
    Ok(n)
}

/// Member `key` of `v` as a boolean.
pub fn flag(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing boolean {key:?}"))
}

/// Member `key` of `v` as a string.
pub fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

/// Checks a telemetry document (a [`TelemetrySnapshot`] as `repro
/// --telemetry` writes it): version 1; every span has numeric `id`,
/// `thread`, `depth`, `start_ns` and `duration_ns`, a string `name`,
/// and a `parent` that is `null` (at depth 0) or the id of a span
/// exactly one level shallower; counters are non-negative; histogram
/// buckets are `[upper_bound, count]` pairs whose counts sum to the
/// histogram's `count`; series points are `[x, y]` pairs. Returns a
/// summary, or the first rule the document breaks.
pub fn check_telemetry(root: &Value) -> Result<String, String> {
    let version = number(root, "version")?;
    if version != 1.0 {
        return Err(format!("unknown telemetry version {version}"));
    }

    let spans = section(root, "spans")?;
    // Span id -> depth, built once; the first span with an id wins.
    // `+ 0.0` folds -0 into 0, so keys compare like the numbers.
    let mut depths = std::collections::HashMap::with_capacity(spans.len());
    for span in spans {
        for key in ["id", "thread", "depth", "start_ns", "duration_ns"] {
            number(span, key)?;
        }
        let id = number(span, "id")? + 0.0;
        depths.entry(id.to_bits()).or_insert(number(span, "depth")?);
    }
    for span in spans {
        let name = text(span, "name").map_err(|e| format!("span {e}"))?;
        let depth = number(span, "depth")?;
        match span.get("parent") {
            None => return Err(format!("span {name:?} missing \"parent\"")),
            Some(Value::Null) if depth != 0.0 => {
                return Err(format!("root span {name:?} has nonzero depth {depth}"));
            }
            Some(Value::Null) => {}
            Some(parent) => {
                let parent_id = parent
                    .as_f64()
                    .ok_or_else(|| format!("span {name:?} parent is neither null nor an id"))?;
                let parent_depth = depths
                    .get(&(parent_id + 0.0).to_bits())
                    .ok_or_else(|| format!("span {name:?} parent {parent_id} does not exist"))?;
                if depth != parent_depth + 1.0 {
                    return Err(format!(
                        "span {name:?} depth {depth} is not its parent's depth {parent_depth} + 1"
                    ));
                }
            }
        }
    }

    let counters = section(root, "counters")?;
    for counter in counters {
        let value = number(counter, "value")?;
        if value < 0.0 {
            return Err(format!("counter with negative value {value}"));
        }
    }

    let histograms = section(root, "histograms")?;
    for histogram in histograms {
        let count = number(histogram, "count")?;
        let mut bucket_total = 0.0;
        for bucket in section(histogram, "buckets")? {
            bucket_total += bucket
                .as_array()
                .filter(|pair| pair.len() == 2)
                .and_then(|pair| pair[1].as_f64())
                .ok_or("histogram bucket is not an [upper_bound, count] pair")?;
        }
        if bucket_total != count {
            return Err(format!(
                "histogram bucket counts sum to {bucket_total}, total says {count}"
            ));
        }
    }

    let series = section(root, "series")?;
    for s in series {
        if section(s, "points")?
            .iter()
            .any(|p| p.as_array().map(<[Value]>::len) != Some(2))
        {
            return Err("series point is not an [x, y] pair".into());
        }
    }

    Ok(format!(
        "{} spans, {} counters, {} histograms, {} series",
        spans.len(),
        counters.len(),
        histograms.len(),
        series.len()
    ))
}

/// Test support for the checkers' negative tables: asserts that `valid`
/// passes `check`, then that each `(path, replacement, rule)` edit
/// breaks the named rule. `path` is `/`-separated object keys and array
/// indices; the replacement is JSON text, or `None` to delete.
#[cfg(test)]
pub(crate) fn assert_each_rule(
    check: fn(&Value) -> Result<String, String>,
    valid: &str,
    cases: &[(&str, Option<&str>, &str)],
) {
    let valid = parse(valid).expect("the valid document parses");
    check(&valid).expect("the valid document keeps every rule");
    for &(path, replacement, rule) in cases {
        let mut doc = valid.clone();
        let mut steps: Vec<&str> = path.split('/').collect();
        let last = steps.pop().unwrap();
        let parent = steps.into_iter().fold(&mut doc, |node, step| match node {
            Value::Object(members) => &mut members.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("{path}: {step} is not a container"),
        });
        let replacement = replacement.map(|text| parse(text).unwrap());
        match parent {
            Value::Object(members) => {
                members.retain(|(k, _)| k != last);
                members.extend(replacement.map(|v| (last.to_owned(), v)));
            }
            Value::Array(items) => {
                let i = last.parse::<usize>().unwrap();
                items.remove(i);
                items.splice(i..i, replacement);
            }
            _ => panic!("{path}: parent is not a container"),
        }
        let broken = check(&doc).expect_err(path);
        assert!(broken.contains(rule), "{path}: {broken:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CategoryObservations;
    use crate::evaluator::Evaluator;
    use std::collections::BTreeMap;

    fn report() -> LeakageReport {
        let obs: Vec<CategoryObservations> = (0..2)
            .map(|c| {
                let mut per_event = BTreeMap::new();
                per_event.insert(
                    HpcEvent::CacheMisses,
                    (0..30).map(|i| (c * 50) as f64 + (i % 5) as f64).collect(),
                );
                CategoryObservations {
                    category: c,
                    per_event,
                    predictions: vec![c; 30],
                }
            })
            .collect();
        Evaluator::default().evaluate(&obs).unwrap()
    }

    #[test]
    fn report_serializes_with_all_sections() {
        let json = report().to_json();
        parse(&json).expect("the writer emits valid JSON");
        for key in [
            "\"categories\":2",
            "\"alarm\"",
            "\"per_event\"",
            "\"cache-misses\"",
            "\"pairs\"",
            "\"distinguishable\":true",
            "\"raised\":true",
            "\"rule\":\"p-value\"",
            "\"kind\":\"welch\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn optional_sections_are_null_when_absent() {
        let json = report().to_json();
        assert!(json.contains("\"holm\":null"));
        assert!(json.contains("\"second_order\":null"));
        assert!(json.contains("\"holm_alpha\":null"));
    }

    #[test]
    fn counter_reading_serializes() {
        let r = CounterReading {
            event: HpcEvent::Branches,
            raw: 500,
            time_enabled: 100,
            time_running: 50,
        };
        let json = r.to_json();
        parse(&json).expect("the writer emits valid JSON");
        assert!(json.contains("\"event\":\"branches\""));
        assert!(json.contains("\"raw\":500"));
        assert!(
            json.contains("\"scaled\":1000"),
            "multiplexing extrapolated: {json}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        "a\"b\\c\nd\u{1}".write_json(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(1.5f64.to_json(), "1.5");
    }

    #[test]
    fn floats_round_trip_precision() {
        let x = 0.1f64 + 0.2f64;
        assert_eq!(x.to_json().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn config_json_is_canonical_and_thread_free() {
        use crate::countermeasure::Countermeasure;
        use crate::pipeline::{Architecture, DatasetKind, ModelScale};

        assert_eq!(DatasetKind::Mnist.to_json(), "\"mnist\"");
        assert_eq!(ModelScale::Paper.to_json(), "\"paper\"");
        assert_eq!(Architecture::Mlp.to_json(), "\"mlp\"");
        assert_eq!(
            Countermeasure::NoiseInjection { dummy_events: 9 }.to_json(),
            "{\"kind\":\"noise-injection\",\"dummy_events\":9}"
        );

        // The cache-key boundary: thread settings are not part of the
        // canonical config (results are bit-identical across counts).
        let train = scnn_nn::train::TrainConfig::default().to_json();
        parse(&train).expect("the writer emits valid JSON");
        assert!(!train.contains("thread"), "{train}");
        assert!(train.contains("\"epochs\":5"));
        let collect = crate::collect::CollectionConfig::default().to_json();
        parse(&collect).expect("the writer emits valid JSON");
        assert!(!collect.contains("thread"), "{collect}");
        assert!(collect.contains("\"cache-misses\""));

        // Identical configs serialize to byte-identical strings.
        assert_eq!(train, scnn_nn::train::TrainConfig::default().to_json());
    }

    #[test]
    fn parser_accepts_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            parse("\"hi\\n\\u0041\"").unwrap(),
            Value::String("hi\nA".into())
        );
    }

    #[test]
    fn parser_handles_surrogate_pairs() {
        assert_eq!(
            parse("\"\\ud83e\\udd80\"").unwrap(),
            Value::String("\u{1F980}".into())
        );
    }

    #[test]
    fn parser_preserves_object_order_and_nesting() {
        let v = parse(r#"{"b":[1,2,{"c":null}],"a":{"x":true}}"#).unwrap();
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert!(b[2].get("c").unwrap().is_null());
        assert_eq!(v.get("a").unwrap().get("x").unwrap().as_bool(), Some(true));
        match &v {
            Value::Object(members) => assert_eq!(members[0].0, "b"),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "01",
            "1.",
            "1e",
            "\"\\q\"",
            "tru",
            "[1]x",
            "\"\u{1}\"",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad:?} should fail");
        }
        // Error carries a usable offset.
        assert_eq!(parse("[1 2]").unwrap_err().offset, 3);
    }

    #[test]
    fn parser_decodes_a_mebibyte_string_in_one_pass() {
        // Each unit mixes ASCII, 2-, 3- and 4-byte scalars, the writer's
        // escapes and hand-written `\u` escapes (one a surrogate pair).
        let unit = "plain ASCII, é ü 漢字 🦀 \"q\" \\ \n\t";
        let mut encoded = String::new();
        unit.write_json(&mut encoded);
        let encoded = format!("{}\\u00e9\\ud83e\\udd80", &encoded[1..encoded.len() - 1]);
        let decoded = format!("{unit}é🦀");
        let reps = (1 << 20) / encoded.len() + 1;
        let doc = format!("\"{}\"", encoded.repeat(reps));
        assert!(doc.len() > 1 << 20);
        assert_eq!(parse(&doc).unwrap(), Value::String(decoded.repeat(reps)));
    }

    #[test]
    fn telemetry_checker_names_each_broken_rule() {
        let valid = r#"{"version":1,
            "spans":[{"id":1,"parent":null,"name":"run","index":null,"thread":0,"depth":0,"start_ns":0,"duration_ns":9},
                     {"id":2,"parent":1,"name":"step","index":0,"thread":0,"depth":1,"start_ns":1,"duration_ns":3}],
            "counters":[{"name":"c","value":3}],
            "histograms":[{"name":"h","count":3,"sum":6.0,"min":1.0,"max":3.0,"buckets":[[1.0,1],[4.0,2]]}],
            "series":[{"name":"s","points":[[0.0,0.5]]}]}"#;
        assert_each_rule(
            check_telemetry,
            valid,
            &[
                ("version", Some("2"), "unknown telemetry version 2"),
                ("version", None, "missing numeric \"version\""),
                ("spans", Some("{}"), "non-array \"spans\""),
                ("spans/1/start_ns", None, "missing numeric \"start_ns\""),
                ("spans/1/name", Some("7"), "span missing string \"name\""),
                ("spans/1/parent", None, "span \"step\" missing \"parent\""),
                ("spans/1/parent", Some("\"run\""), "neither null nor an id"),
                ("spans/1/parent", Some("5"), "parent 5 does not exist"),
                ("spans/1/depth", Some("2"), "not its parent's depth 0 + 1"),
                ("spans/0/depth", Some("1"), "nonzero depth 1"),
                ("counters/0/value", Some("-1"), "negative value -1"),
                ("histograms/0/count", Some("4"), "sum to 3, total says 4"),
                ("histograms/0/buckets", None, "non-array \"buckets\""),
                ("histograms/0/buckets/1", Some("[4.0]"), "count] pair"),
                ("series/0/points/0", Some("[0.5]"), "[x, y] pair"),
                ("series", None, "non-array \"series\""),
            ],
        );
    }

    #[test]
    fn parser_enforces_depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().message.contains("nesting"));
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn leakage_report_json_parses_back() {
        let report = report();
        let v = parse(&report.to_json()).expect("writer output must parse");
        assert_eq!(
            v.get("categories").and_then(Value::as_f64),
            Some(report.categories as f64)
        );
        let per_event = v.get("per_event").unwrap().as_array().unwrap();
        assert_eq!(per_event.len(), report.per_event.len());
    }

    #[test]
    fn telemetry_snapshot_round_trips() {
        let recorder = std::sync::Arc::new(scnn_obs::Recorder::new());
        scnn_obs::install(recorder.clone());
        {
            let _outer = scnn_obs::Span::enter("t.outer");
            let _inner = scnn_obs::Span::enter_indexed("t.inner", 3);
            scnn_obs::counter_add("t.count", 2);
            scnn_obs::histogram_record("t.hist", 4.0);
            scnn_obs::series_push("t.series", 0.0, 0.25);
        }
        scnn_obs::uninstall();
        let snapshot = recorder.snapshot();
        let v = parse(&snapshot.to_json()).expect("telemetry JSON must parse");
        check_telemetry(&v).expect("the writer's snapshot passes its checker");
        let spans = v.get("spans").unwrap().as_array().unwrap();
        let inner = spans
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some("t.inner"))
            .expect("t.inner span present");
        assert_eq!(inner.get("index").and_then(Value::as_f64), Some(3.0));
        assert!(inner.get("parent").unwrap().as_f64().is_some());
        let counters = v.get("counters").unwrap().as_array().unwrap();
        assert!(counters.iter().any(|c| {
            c.get("name").and_then(Value::as_str) == Some("t.count")
                && c.get("value").and_then(Value::as_f64) == Some(2.0)
        }));
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        let hist = hists
            .iter()
            .find(|h| h.get("name").and_then(Value::as_str) == Some("t.hist"))
            .unwrap();
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert!(!buckets.is_empty());
        let series = v.get("series").unwrap().as_array().unwrap();
        let s = series
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some("t.series"))
            .unwrap();
        assert_eq!(
            s.get("points").unwrap().as_array().unwrap()[0]
                .as_array()
                .unwrap()[1]
                .as_f64(),
            Some(0.25)
        );
    }
}
