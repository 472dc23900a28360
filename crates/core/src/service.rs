//! Fleet-scale evaluation service: the job protocol and serve loop
//! behind `repro serve`.
//!
//! The ROADMAP's "millions of users" direction needs the evaluator to
//! run as a long-lived **service** — thousands of submitted models
//! audited concurrently against one shared artifact cache — instead of
//! one CLI invocation per experiment. This module provides the
//! transport-agnostic half of that service:
//!
//! - a newline-delimited JSON **job protocol** ([`JobSpec`] in, one
//!   response line out), parsed and emitted with the in-tree
//!   [`crate::json`] reader/writer;
//! - the **serve loop** ([`serve`]) — the calling thread reads job
//!   lines from any [`BufRead`] (stdin, a Unix-socket connection, a
//!   file) while a bounded worker fleet ([`scnn_par::Pool::stream`])
//!   executes jobs and streams responses back as they complete;
//! - per-run accounting ([`ServiceReport`]): jobs/sec, p50/p99 job
//!   latency, queue depth and aggregated cache traffic
//!   ([`CacheTraffic`]) — the numbers `BENCH_service.json` records.
//!
//! What a job *does* is the caller's business: [`serve`] takes an
//! executor closure, so `repro serve` plugs in its CLI-equivalent
//! command runner (per-job stdout byte-identical to a direct `repro`
//! invocation) while tests and benches plug in synthetic executors. A
//! panicking executor fails that one job — the worker catches the
//! unwind and reports `status: "error"` — it never takes the service
//! down.
//!
//! # Protocol
//!
//! One JSON object per line in, one per line out. Requests:
//!
//! ```json
//! {"id":"job-1","command":"table1","quick":true,"samples":8}
//! {"id":"bye","command":"shutdown"}
//! ```
//!
//! `id` (a filename-safe slug, ≤ 64 chars) and `command` are required;
//! all other members are parameters interpreted by the executor. The
//! reserved command `shutdown` drains the queue and ends the serve loop
//! after responding. Responses carry the job id, `"status":"ok"` (with
//! the captured stdout and cache traffic) or `"status":"error"` (with a
//! message), and the job's wall-clock latency in milliseconds measured
//! from submission to completion — queueing included, because that is
//! the latency a submitter experiences. A line that fails to parse is
//! rejected with a response of id `null` (or the id, when one could be
//! salvaged) rather than killing the connection. So is a line longer
//! than [`MAX_LINE_BYTES`], whose excess is skipped without being
//! kept, and a line that is not UTF-8.
//!
//! Responses arrive in **completion order**, not submission order — the
//! id is the correlation key. With `workers = 1` the loop degrades to
//! strict read-execute-respond sequencing, which is deterministic and
//! what the protocol tests pin.

use crate::json::{self, ObjectWriter, ToJson};
use crate::pipeline::CacheUsage;
use scnn_par::{Pool, Threads};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// The reserved command that ends the serve loop.
pub const SHUTDOWN_COMMAND: &str = "shutdown";

/// The longest job line [`serve`] accepts: its bytes before the `\n`. A
/// job object takes a few hundred; a longer line is rejected, and
/// [`serve`] keeps none of its bytes past this cap.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The next line of `input`, without its `\n` or `\r\n`: `None` at the
/// end of the input, `Some(Err(message))` for a line longer than
/// [`MAX_LINE_BYTES`] or not UTF-8. At most [`MAX_LINE_BYTES`] bytes of a
/// line are held in memory, however long it runs.
fn next_line(input: &mut impl BufRead) -> io::Result<Option<Result<String, String>>> {
    let mut line = Vec::new();
    let (mut read, mut too_long) = (0, false);
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        if !too_long {
            too_long = line.len() + part.len() > MAX_LINE_BYTES;
            if too_long {
                line = Vec::new();
            } else {
                line.extend_from_slice(part);
            }
        }
        let used = part.len() + usize::from(newline.is_some());
        read += used;
        input.consume(used);
        if newline.is_some() {
            break;
        }
    }
    if read == 0 {
        return Ok(None);
    }
    if too_long {
        return Ok(Some(Err(format!(
            "job line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(
        String::from_utf8(line).map_err(|_| "job line is not UTF-8".to_owned()),
    ))
}

/// One parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen correlation id (validated filename-safe slug).
    pub id: String,
    /// What to run — interpreted by the executor, except the reserved
    /// [`SHUTDOWN_COMMAND`].
    pub command: String,
    params: json::Value,
}

impl JobSpec {
    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the line is not a JSON
    /// object, or `id`/`command` are missing or malformed. When the
    /// object at least carried a usable id, the error includes it so
    /// the response can still be correlated.
    pub fn parse_line(line: &str) -> Result<JobSpec, (Option<String>, String)> {
        let value = json::parse(line).map_err(|e| (None, format!("bad job line: {e}")))?;
        let id = match value.get("id").and_then(json::Value::as_str) {
            Some(id) => id.to_owned(),
            None => return Err((None, "job object needs a string \"id\"".into())),
        };
        if !id_is_safe(&id) {
            return Err((
                None,
                format!(
                    "job id {id:?} must be 1-64 chars of [A-Za-z0-9._-] and not start with '.'"
                ),
            ));
        }
        let command = match value.get("command").and_then(json::Value::as_str) {
            Some(cmd) if !cmd.is_empty() => cmd.to_owned(),
            _ => {
                return Err((
                    Some(id),
                    "job object needs a non-empty string \"command\"".into(),
                ))
            }
        };
        Ok(JobSpec {
            id,
            command,
            params: value,
        })
    }

    /// True when this submission is the reserved shutdown request.
    pub fn is_shutdown(&self) -> bool {
        self.command == SHUTDOWN_COMMAND
    }

    /// A raw parameter by key (any member other than `id`/`command`).
    pub fn param(&self, key: &str) -> Option<&json::Value> {
        self.params.get(key)
    }

    /// A non-negative integer parameter.
    ///
    /// # Errors
    ///
    /// Returns a message when present but not a whole non-negative
    /// number.
    pub fn usize_param(&self, key: &str) -> Result<Option<usize>, String> {
        match self.param(key) {
            None => Ok(None),
            Some(v) => match v.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 => {
                    Ok(Some(n as usize))
                }
                _ => Err(format!("parameter {key:?} must be a non-negative integer")),
            },
        }
    }

    /// A boolean parameter.
    ///
    /// # Errors
    ///
    /// Returns a message when present but not a boolean.
    pub fn bool_param(&self, key: &str) -> Result<bool, String> {
        match self.param(key) {
            None => Ok(false),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| format!("parameter {key:?} must be a boolean")),
        }
    }

    /// A scalar parameter as the text of the equivalent command-line
    /// flag value: strings verbatim, numbers in shortest form (`8`,
    /// `0.6`), booleans as `true`/`false`. The executor decodes and
    /// range-checks that text exactly like the flag's.
    ///
    /// # Errors
    ///
    /// Returns a message when the parameter is `null`, an array or an
    /// object.
    pub fn text_param(&self, key: &str) -> Result<Option<String>, String> {
        match self.param(key) {
            None => Ok(None),
            Some(json::Value::String(s)) => Ok(Some(s.clone())),
            Some(json::Value::Number(n)) => Ok(Some(n.to_string())),
            Some(json::Value::Bool(b)) => Ok(Some(b.to_string())),
            Some(_) => Err(format!(
                "parameter {key:?} must be a string, number or boolean"
            )),
        }
    }
}

/// Job ids double as file stems (`--job-stdout-dir`), so they must not
/// traverse paths or hide as dotfiles.
fn id_is_safe(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Aggregated [`ArtifactCache`](scnn_cache::ArtifactCache) traffic
/// across the experiments a job (or a whole service run) executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTraffic {
    /// Trained models restored from the cache.
    pub model_hits: u64,
    /// Models trained because the cache missed.
    pub model_misses: u64,
    /// Monitored categories restored from checkpoints.
    pub categories_hit: u64,
    /// Monitored categories measured afresh.
    pub categories_collected: u64,
    /// Artifacts written.
    pub writes: u64,
}

impl CacheTraffic {
    /// Folds one experiment's [`CacheUsage`] into the totals.
    pub fn add_usage(&mut self, usage: &CacheUsage) {
        if usage.model_hit {
            self.model_hits += 1;
        } else {
            self.model_misses += 1;
        }
        self.categories_hit += usage.categories_hit as u64;
        self.categories_collected += usage.categories_collected as u64;
        self.writes += usage.writes as u64;
    }

    /// Folds another traffic total into this one.
    pub fn merge(&mut self, other: &CacheTraffic) {
        self.model_hits += other.model_hits;
        self.model_misses += other.model_misses;
        self.categories_hit += other.categories_hit;
        self.categories_collected += other.categories_collected;
        self.writes += other.writes;
    }

    /// Total artifact lookups this traffic represents.
    pub fn lookups(&self) -> u64 {
        self.model_hits + self.model_misses + self.categories_hit + self.categories_collected
    }

    /// Fraction of lookups served from the cache (`NaN` when there were
    /// none — encoded as `null` in JSON).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            f64::NAN
        } else {
            (self.model_hits + self.categories_hit) as f64 / lookups as f64
        }
    }
}

impl ToJson for CacheTraffic {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("model_hits", &self.model_hits)
            .field("model_misses", &self.model_misses)
            .field("categories_hit", &self.categories_hit)
            .field("categories_collected", &self.categories_collected)
            .field("writes", &self.writes)
            .field("hit_rate", &self.hit_rate());
        obj.finish();
    }
}

/// What an executor produced for one successful job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOutput {
    /// The job's captured stdout — byte-identical to the equivalent
    /// direct CLI run by construction (same code path).
    pub stdout: String,
    /// Cache traffic the job generated, when it ran against a cache.
    pub cache: Option<CacheTraffic>,
}

/// How the serve loop runs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker-fleet size. `Threads::Count(1)` gives strict
    /// read-execute-respond sequencing.
    pub workers: Threads,
    /// Embed each job's captured stdout in its response line. Turn off
    /// when responses should stay small and stdout goes elsewhere
    /// (`--job-stdout-dir`).
    pub include_stdout: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: Threads::Auto,
            include_stdout: true,
        }
    }
}

/// Everything one [`serve`] run did — the service's benchmark surface.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Job lines accepted (parsed and executed, including failures).
    pub jobs: u64,
    /// Jobs that completed successfully.
    pub ok: u64,
    /// Jobs whose executor failed or panicked.
    pub errors: u64,
    /// Lines rejected before execution (protocol violations).
    pub rejected: u64,
    /// The loop ended on an explicit `shutdown` command (as opposed to
    /// end-of-input).
    pub shutdown: bool,
    /// Wall-clock of the whole serve loop, seconds.
    pub elapsed_s: f64,
    /// Completed jobs per second of wall-clock.
    pub jobs_per_sec: f64,
    /// Median submission-to-completion latency, ms (`NaN` → JSON
    /// `null` when no job ran).
    pub p50_ms: f64,
    /// 99th-percentile submission-to-completion latency, ms.
    pub p99_ms: f64,
    /// Highest backlog observed at any enqueue.
    pub max_queue_depth: usize,
    /// Write/read failures on the response stream (responses are
    /// best-effort once the stream breaks).
    pub io_errors: u64,
    /// Aggregated cache traffic across all successful jobs.
    pub cache: CacheTraffic,
}

impl ToJson for ServiceReport {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("jobs", &self.jobs)
            .field("ok", &self.ok)
            .field("errors", &self.errors)
            .field("rejected", &self.rejected)
            .field("shutdown", &self.shutdown)
            .field("elapsed_s", &self.elapsed_s)
            .field("jobs_per_sec", &self.jobs_per_sec)
            .field("p50_ms", &self.p50_ms)
            .field("p99_ms", &self.p99_ms)
            .field("max_queue_depth", &self.max_queue_depth)
            .field("io_errors", &self.io_errors)
            .field("cache", &self.cache);
        obj.finish();
    }
}

/// Nearest-rank percentile of an unsorted latency sample (`NaN` when
/// empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One submission travelling through the fleet.
enum Submission {
    Job(JobSpec, Instant),
    Reject {
        id: Option<String>,
        error: String,
        at: Instant,
    },
}

/// A finished submission, ready to write.
struct Done {
    line: String,
    latency_ms: f64,
    outcome: Outcome,
}

enum Outcome {
    Ok(Option<CacheTraffic>),
    Error,
    Rejected,
}

fn response_line(
    id: Option<&str>,
    result: &Result<JobOutput, String>,
    latency_ms: f64,
    include_stdout: bool,
) -> String {
    let mut out = String::new();
    {
        let mut obj = ObjectWriter::new(&mut out);
        match id {
            Some(id) => obj.field("id", id),
            None => obj.field("id", &json::Value::Null),
        };
        match result {
            Ok(output) => {
                obj.field("status", "ok");
                if include_stdout {
                    obj.field("stdout", output.stdout.as_str());
                }
                if let Some(cache) = &output.cache {
                    obj.field("cache", cache);
                }
            }
            Err(message) => {
                obj.field("status", "error");
                obj.field("error", message.as_str());
            }
        }
        obj.field("latency_ms", &latency_ms);
        obj.finish();
    }
    out
}

impl ToJson for json::Value {
    fn write_json(&self, out: &mut String) {
        match self {
            json::Value::Null => out.push_str("null"),
            json::Value::Bool(b) => b.write_json(out),
            json::Value::Number(n) => n.write_json(out),
            json::Value::String(s) => s.write_json(out),
            json::Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            json::Value::Object(members) => {
                let mut obj = ObjectWriter::new(out);
                for (key, value) in members {
                    obj.field(key, value);
                }
                obj.finish();
            }
        }
    }
}

/// Runs the serve loop: read newline-delimited [`JobSpec`]s from
/// `input`, execute them on a worker fleet sized by
/// `config.workers`, and stream one response line per job to `output`
/// as each completes.
///
/// The calling thread does the reading (so a blocking transport never
/// stalls the workers) and returns once the input is exhausted — or a
/// [`SHUTDOWN_COMMAND`] job was seen — *and* every queued job has been
/// answered. Zero jobs are lost or duplicated: the returned
/// [`ServiceReport`] accounts for every accepted line exactly once, a
/// contract inherited from [`Pool::stream`] and pinned end-to-end by
/// `tests/service.rs` and the service bench.
///
/// The executor runs on worker threads; a panic inside it is caught
/// and reported as that job's error. Telemetry (observation-only, like
/// everywhere else): a `service.job` span per job on its worker,
/// `service.jobs` / `service.ok` / `service.errors` / `service.rejected`
/// counters, and a `service.latency_ms` histogram, all flowing to an
/// installed [`scnn_obs`] recorder.
pub fn serve<F>(
    mut input: impl BufRead,
    output: impl Write + Send,
    config: &ServiceConfig,
    executor: F,
) -> ServiceReport
where
    F: Fn(&JobSpec) -> Result<JobOutput, String> + Sync,
{
    let _span = scnn_obs::Span::enter("service.run");
    let started = Instant::now();
    let include_stdout = config.include_stdout;

    let sink = Mutex::new(output);
    let io_errors = Mutex::new(0u64);
    let latencies = Mutex::new(Vec::<f64>::new());
    let tally = Mutex::new((0u64, 0u64, 0u64, CacheTraffic::default())); // ok, errors, rejected, cache
    let mut shutdown = false;

    let mut stopped = false;
    let shutdown_flag = &mut shutdown;

    let work = |submission: Submission| -> Done {
        match submission {
            Submission::Job(spec, at) => {
                let span = scnn_obs::Span::enter("service.job");
                let result = if spec.is_shutdown() {
                    Ok(JobOutput::default())
                } else {
                    catch_unwind(AssertUnwindSafe(|| executor(&spec))).unwrap_or_else(|panic| {
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "job panicked".into());
                        Err(format!("job panicked: {msg}"))
                    })
                };
                drop(span);
                let latency_ms = at.elapsed().as_secs_f64() * 1e3;
                let outcome = match &result {
                    Ok(output) => Outcome::Ok(output.cache),
                    Err(_) => Outcome::Error,
                };
                Done {
                    line: response_line(Some(&spec.id), &result, latency_ms, include_stdout),
                    latency_ms,
                    outcome,
                }
            }
            Submission::Reject { id, error, at } => {
                let latency_ms = at.elapsed().as_secs_f64() * 1e3;
                Done {
                    line: response_line(id.as_deref(), &Err(error), latency_ms, include_stdout),
                    latency_ms,
                    outcome: Outcome::Rejected,
                }
            }
        }
    };
    let done = |done: Done| {
        {
            let mut tally = tally
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match done.outcome {
                Outcome::Ok(cache) => {
                    tally.0 += 1;
                    scnn_obs::counter_add("service.ok", 1);
                    if let Some(cache) = cache {
                        tally.3.merge(&cache);
                    }
                }
                Outcome::Error => {
                    tally.1 += 1;
                    scnn_obs::counter_add("service.errors", 1);
                }
                Outcome::Rejected => {
                    tally.2 += 1;
                    scnn_obs::counter_add("service.rejected", 1);
                }
            }
        }
        scnn_obs::histogram_record("service.latency_ms", done.latency_ms);
        latencies
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(done.latency_ms);
        let mut sink = sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let wrote = writeln!(sink, "{}", done.line).and_then(|()| sink.flush());
        if wrote.is_err() {
            *io_errors
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        }
    };

    let stats = Pool::new(config.workers).stream(
        || {
            if stopped {
                return None;
            }
            loop {
                let line = match next_line(&mut input) {
                    Ok(None) => return None,
                    Err(_) => {
                        stopped = true;
                        return None;
                    }
                    Ok(Some(line)) => line,
                };
                if line.as_deref().is_ok_and(|line| line.trim().is_empty()) {
                    continue;
                }
                scnn_obs::counter_add("service.jobs", 1);
                let at = Instant::now();
                let parsed = line
                    .map_err(|error| (None, error))
                    .and_then(|line| JobSpec::parse_line(&line));
                return Some(match parsed {
                    Ok(spec) => {
                        if spec.is_shutdown() {
                            stopped = true;
                            *shutdown_flag = true;
                        }
                        Submission::Job(spec, at)
                    }
                    Err((id, error)) => Submission::Reject { id, error, at },
                });
            }
        },
        work,
        done,
    );

    let (ok, errors, rejected, cache) = tally
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut latencies = latencies
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    latencies.sort_by(f64::total_cmp);
    let io_errors = io_errors
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let elapsed_s = started.elapsed().as_secs_f64();
    ServiceReport {
        jobs: stats.submitted,
        ok,
        errors,
        rejected,
        shutdown,
        elapsed_s,
        jobs_per_sec: if elapsed_s > 0.0 {
            stats.completed as f64 / elapsed_s
        } else {
            f64::NAN
        },
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        max_queue_depth: stats.max_queue_depth,
        io_errors,
        cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn echo_executor(spec: &JobSpec) -> Result<JobOutput, String> {
        if spec.command == "boom" {
            panic!("kaboom");
        }
        if spec.command == "fail" {
            return Err("deliberate failure".into());
        }
        let mut traffic = CacheTraffic::default();
        traffic.add_usage(&CacheUsage {
            model_hit: spec.bool_param("warm")?,
            categories_hit: 2,
            categories_collected: 0,
            writes: 0,
        });
        Ok(JobOutput {
            stdout: format!("ran {} for {}\n", spec.command, spec.id),
            cache: Some(traffic),
        })
    }

    fn run(input: &str, workers: usize) -> (Vec<json::Value>, ServiceReport) {
        let mut out = Vec::new();
        let report = serve(
            Cursor::new(input.to_owned()),
            &mut out,
            &ServiceConfig {
                workers: Threads::Count(workers),
                include_stdout: true,
            },
            echo_executor,
        );
        let lines: Vec<json::Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| json::parse(l).expect("every response line is valid JSON"))
            .collect();
        (lines, report)
    }

    #[test]
    fn job_spec_parses_and_validates() {
        let spec =
            JobSpec::parse_line(r#"{"id":"a-1","command":"table1","samples":8,"quick":true}"#)
                .unwrap();
        assert_eq!(spec.id, "a-1");
        assert_eq!(spec.command, "table1");
        assert_eq!(spec.usize_param("samples").unwrap(), Some(8));
        assert!(spec.bool_param("quick").unwrap());
        assert_eq!(spec.usize_param("absent").unwrap(), None);
        assert!(spec.usize_param("quick").is_err(), "type mismatch surfaces");

        let spec = JobSpec::parse_line(
            r#"{"id":"x","command":"extract","profile_frac":0.6,"classifier":"knn:3"}"#,
        )
        .unwrap();
        let text = |key| spec.text_param(key).unwrap();
        assert_eq!(text("profile_frac").as_deref(), Some("0.6"));
        assert_eq!(text("classifier").as_deref(), Some("knn:3"));
        assert_eq!(text("absent"), None);
        let spec = JobSpec::parse_line(
            r#"{"id":"y","command":"table1","samples":8,"quick":false,"uarch":null}"#,
        )
        .unwrap();
        assert_eq!(spec.text_param("samples").unwrap().as_deref(), Some("8"));
        assert_eq!(spec.text_param("quick").unwrap().as_deref(), Some("false"));
        assert!(spec.text_param("uarch").is_err(), "null is not a scalar");

        assert!(JobSpec::parse_line("not json").is_err());
        assert!(
            JobSpec::parse_line(r#"{"command":"x"}"#).is_err(),
            "id required"
        );
        let (salvaged, _) = JobSpec::parse_line(r#"{"id":"ok"}"#).unwrap_err();
        assert_eq!(
            salvaged.as_deref(),
            Some("ok"),
            "id salvaged for correlation"
        );
        for bad in ["", ".hidden", "a/b", "x".repeat(65).as_str(), "sp ace"] {
            assert!(
                JobSpec::parse_line(&format!(r#"{{"id":{:?},"command":"c"}}"#, bad)).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn serve_answers_every_job_exactly_once_at_any_worker_count() {
        let input: String = (0..50)
            .map(|i| format!(r#"{{"id":"job-{i}","command":"run"}}"#) + "\n")
            .collect();
        for workers in [1, 4] {
            let (lines, report) = run(&input, workers);
            assert_eq!(report.jobs, 50, "workers={workers}");
            assert_eq!(report.ok, 50);
            assert_eq!(report.errors + report.rejected, 0);
            assert_eq!(lines.len(), 50, "one response per job");
            let mut ids: Vec<String> = lines
                .iter()
                .map(|l| l.get("id").unwrap().as_str().unwrap().to_owned())
                .collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), 50, "no duplicated responses");
            for line in &lines {
                assert_eq!(line.get("status").unwrap().as_str(), Some("ok"));
                let id = line.get("id").unwrap().as_str().unwrap();
                assert_eq!(
                    line.get("stdout").unwrap().as_str(),
                    Some(format!("ran run for {id}\n").as_str())
                );
                assert!(line.get("latency_ms").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn single_worker_responses_preserve_submission_order() {
        let input = concat!(
            r#"{"id":"first","command":"run"}"#,
            "\n",
            r#"{"id":"second","command":"run"}"#,
            "\n",
            r#"{"id":"third","command":"run"}"#,
            "\n",
        );
        let (lines, _) = run(input, 1);
        let ids: Vec<&str> = lines
            .iter()
            .map(|l| l.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids, ["first", "second", "third"]);
    }

    #[test]
    fn executor_failures_and_panics_are_per_job_errors() {
        let input = concat!(
            r#"{"id":"good","command":"run"}"#,
            "\n",
            r#"{"id":"bad","command":"fail"}"#,
            "\n",
            r#"{"id":"ugly","command":"boom"}"#,
            "\n",
            r#"{"id":"after","command":"run"}"#,
            "\n",
        );
        let (lines, report) = run(input, 2);
        assert_eq!(report.jobs, 4);
        assert_eq!(report.ok, 2, "service survives failing jobs");
        assert_eq!(report.errors, 2);
        let status_of = |id: &str| {
            lines
                .iter()
                .find(|l| l.get("id").unwrap().as_str() == Some(id))
                .unwrap()
                .get("status")
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned()
        };
        assert_eq!(status_of("good"), "ok");
        assert_eq!(status_of("bad"), "error");
        assert_eq!(
            status_of("ugly"),
            "error",
            "panic becomes an error response"
        );
        assert_eq!(status_of("after"), "ok");
        let ugly = lines
            .iter()
            .find(|l| l.get("id").unwrap().as_str() == Some("ugly"))
            .unwrap();
        assert!(
            ugly.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("kaboom"),
            "panic message surfaces in the response"
        );
    }

    #[test]
    fn malformed_lines_are_rejected_not_fatal() {
        let input = concat!(
            "this is not json\n",
            "\n", // blank lines are skipped, not rejected
            r#"{"id":"x","command":"run"}"#,
            "\n",
            r#"{"id":"no command here"}"#,
            "\n",
        );
        let (lines, report) = run(input, 1);
        assert_eq!(report.jobs, 3, "blank line never counts");
        assert_eq!(report.ok, 1);
        assert_eq!(report.rejected, 2);
        assert_eq!(lines.len(), 3, "rejects still get responses");
        assert!(lines[0].get("id").unwrap().is_null(), "no id to correlate");
        assert_eq!(lines[0].get("status").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn shutdown_command_stops_reading_and_still_responds() {
        let input = concat!(
            r#"{"id":"a","command":"run"}"#,
            "\n",
            r#"{"id":"bye","command":"shutdown"}"#,
            "\n",
            r#"{"id":"never","command":"run"}"#,
            "\n",
        );
        let (lines, report) = run(input, 4);
        assert!(report.shutdown);
        assert_eq!(report.jobs, 2, "nothing after shutdown is read");
        assert_eq!(lines.len(), 2);
        assert!(lines
            .iter()
            .any(|l| l.get("id").unwrap().as_str() == Some("bye")
                && l.get("status").unwrap().as_str() == Some("ok")));
        assert!(!lines
            .iter()
            .any(|l| l.get("id").unwrap().as_str() == Some("never")));
    }

    #[test]
    fn report_aggregates_cache_traffic_and_latencies() {
        let input = concat!(
            r#"{"id":"cold","command":"run"}"#,
            "\n",
            r#"{"id":"warm1","command":"run","warm":true}"#,
            "\n",
            r#"{"id":"warm2","command":"run","warm":true}"#,
            "\n",
        );
        let (_, report) = run(input, 2);
        assert_eq!(report.cache.model_hits, 2);
        assert_eq!(report.cache.model_misses, 1);
        assert_eq!(report.cache.categories_hit, 6);
        let rate = report.cache.hit_rate();
        assert!((rate - 8.0 / 9.0).abs() < 1e-12, "hit rate {rate}");
        assert!(report.p50_ms.is_finite() && report.p99_ms >= report.p50_ms);
        assert!(report.jobs_per_sec > 0.0);
        assert_eq!(report.io_errors, 0);
        // The report itself serializes through the in-tree writer.
        let parsed = json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("jobs").unwrap().as_f64(), Some(3.0));
        assert!(parsed
            .get("cache")
            .unwrap()
            .get("hit_rate")
            .unwrap()
            .as_f64()
            .is_some());
    }

    #[test]
    fn empty_hit_rate_is_null_in_json() {
        let traffic = CacheTraffic::default();
        assert!(traffic.hit_rate().is_nan());
        assert!(traffic.to_json().contains("\"hit_rate\":null"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert!(percentile(&[], 50.0).is_nan());
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }
}
