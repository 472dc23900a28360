//! Integration: the fleet-scale evaluation service, checked through the
//! public facade.
//!
//! The contracts under test (DESIGN.md §14):
//!
//! 1. **Exactly-once delivery over a blocking transport** — jobs
//!    streamed through a real Unix socket pair are each answered once;
//!    nothing is lost, duplicated, or reordered past recognition (the
//!    id is the correlation key).
//! 2. **Concurrent shared-cache byte-identity** — jobs racing on the
//!    same artifact-cache keys produce output byte-identical to a
//!    direct, cache-less run of the same experiment, and leave the
//!    cache directory clean (no `.tmp-*` orphans, nothing
//!    quarantined).
//! 3. **Failure isolation** — one failing or panicking job is an error
//!    response, not a dead service.
//! 4. **Bounded input** — a line past the length cap, or one that is
//!    not UTF-8, is an `id: null` rejection, and serving goes on.

use scnn::cache::ArtifactCache;
use scnn::core::json;
use scnn::core::pipeline::{DatasetKind, Experiment, ExperimentConfig};
use scnn::core::service::{serve, CacheTraffic, JobOutput, JobSpec, ServiceConfig, MAX_LINE_BYTES};
use scnn::par::Threads;
use std::io::{BufRead, BufReader, Cursor, Write};

fn config(samples: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(DatasetKind::Mnist)
        .samples(samples)
        .epochs(1)
        .threads(Threads::Count(1));
    cfg.train_per_class = 6;
    cfg.test_per_class = 3;
    cfg
}

fn scratch(tag: &str) -> (std::path::PathBuf, ArtifactCache) {
    let dir = std::env::temp_dir().join(format!("scnn-it-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(&dir).unwrap();
    (dir, cache)
}

/// Executor used across the tests: renders the leak table of a tiny
/// experiment, through the shared cache when one is given.
fn experiment_executor(spec: &JobSpec, cache: Option<&ArtifactCache>) -> Result<JobOutput, String> {
    let samples = spec.usize_param("samples")?.unwrap_or(6);
    let experiment = Experiment::new(config(samples));
    let outcome = match cache {
        Some(cache) => experiment.run_cached(cache),
        None => experiment.run(),
    }
    .map_err(|e| e.to_string())?;
    let mut traffic = CacheTraffic::default();
    traffic.add_usage(&outcome.cache);
    Ok(JobOutput {
        stdout: outcome.report.render_table(),
        cache: cache.is_some().then_some(traffic),
    })
}

#[test]
fn unix_socket_transport_delivers_every_job_exactly_once() {
    let (client, server) = std::os::unix::net::UnixStream::pair().unwrap();

    // The client lives on its own thread, exactly like a remote
    // submitter: write jobs, shut down the write half, read responses.
    let submitter = std::thread::spawn(move || {
        let mut writer = client.try_clone().unwrap();
        for i in 0..12 {
            writeln!(
                writer,
                "{{\"id\":\"sock-{i}\",\"command\":\"echo\",\"n\":{i}}}"
            )
            .unwrap();
        }
        writeln!(writer, "{{\"id\":\"bye\",\"command\":\"shutdown\"}}").unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let mut ids = Vec::new();
        for line in BufReader::new(client).lines() {
            let value = json::parse(&line.unwrap()).expect("response is valid JSON");
            assert_eq!(value.get("status").and_then(|v| v.as_str()), Some("ok"));
            ids.push(value.get("id").unwrap().as_str().unwrap().to_owned());
        }
        ids
    });

    let report = serve(
        BufReader::new(server.try_clone().unwrap()),
        server,
        &ServiceConfig {
            workers: Threads::Count(3),
            include_stdout: true,
        },
        |spec: &JobSpec| {
            let n = spec.usize_param("n")?.unwrap_or(0);
            Ok(JobOutput {
                stdout: format!("echo {n}\n"),
                cache: None,
            })
        },
    );

    let mut ids = submitter.join().unwrap();
    assert_eq!(report.jobs, 13, "12 jobs + shutdown accepted");
    assert_eq!(report.ok, 13);
    assert!(report.shutdown);
    assert_eq!(ids.len(), 13, "one response per submission");
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 13, "no duplicated responses");
}

#[test]
fn concurrent_jobs_sharing_a_cache_match_direct_runs_byte_for_byte() {
    let (dir, cache) = scratch("shared");

    // Ground truth: cache-less direct runs of the two experiment shapes.
    let direct_a = experiment_executor(
        &JobSpec::parse_line(r#"{"id":"d1","command":"run","samples":6}"#).unwrap(),
        None,
    )
    .unwrap()
    .stdout;
    let direct_b = experiment_executor(
        &JobSpec::parse_line(r#"{"id":"d2","command":"run","samples":8}"#).unwrap(),
        None,
    )
    .unwrap()
    .stdout;
    assert_ne!(direct_a, direct_b, "the two shapes must be distinguishable");

    // 16 jobs racing on two shared key sets: 8 per shape, interleaved so
    // several cold submissions of one shape are in flight at once.
    let input: String = (0..16usize)
        .map(|i| {
            format!(
                "{{\"id\":\"job-{i}\",\"command\":\"run\",\"samples\":{}}}\n",
                if i.is_multiple_of(2) { 6 } else { 8 }
            )
        })
        .collect();
    let mut out = Vec::new();
    let report = serve(
        Cursor::new(input),
        &mut out,
        &ServiceConfig {
            workers: Threads::Count(4),
            include_stdout: true,
        },
        |spec: &JobSpec| experiment_executor(spec, Some(&cache)),
    );

    assert_eq!(report.jobs, 16);
    assert_eq!(report.ok, 16, "no job may fail under cache contention");
    let responses = String::from_utf8(out).unwrap();
    let mut answered = 0;
    for line in responses.lines() {
        let value = json::parse(line).unwrap();
        let id = value.get("id").unwrap().as_str().unwrap();
        let index: usize = id.strip_prefix("job-").unwrap().parse().unwrap();
        let want = if index.is_multiple_of(2) {
            &direct_a
        } else {
            &direct_b
        };
        assert_eq!(
            value.get("stdout").unwrap().as_str(),
            Some(want.as_str()),
            "{id}: cached service output must equal the direct run byte for byte"
        );
        answered += 1;
    }
    assert_eq!(answered, 16);
    assert!(
        report.cache.hit_rate() > 0.0,
        "warm jobs must hit the cache"
    );

    // Racing writers must leave a clean directory: committed artifacts
    // only, nothing orphaned, nothing quarantined.
    let tmp_leftovers = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with(".tmp-")
        })
        .count();
    assert_eq!(tmp_leftovers, 0, "no orphaned tmp files");
    let quarantined = std::fs::read_dir(cache.quarantine_dir())
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(quarantined, 0, "no artifact may be quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_and_panicking_jobs_do_not_take_the_service_down() {
    let input = concat!(
        r#"{"id":"ok-1","command":"work"}"#,
        "\n",
        r#"{"id":"dies","command":"panic"}"#,
        "\n",
        r#"{"id":"fails","command":"fail"}"#,
        "\n",
        r#"{"id":"ok-2","command":"work"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let report = serve(
        Cursor::new(input.to_owned()),
        &mut out,
        &ServiceConfig {
            workers: Threads::Count(2),
            include_stdout: true,
        },
        |spec: &JobSpec| match spec.command.as_str() {
            "panic" => panic!("deliberate test panic"),
            "fail" => Err("deliberate failure".into()),
            _ => Ok(JobOutput {
                stdout: "done\n".into(),
                cache: None,
            }),
        },
    );
    assert_eq!(report.jobs, 4);
    assert_eq!(report.ok, 2, "healthy jobs complete around the failures");
    assert_eq!(report.errors, 2);
    let responses = String::from_utf8(out).unwrap();
    for line in responses.lines() {
        let value = json::parse(line).unwrap();
        let id = value.get("id").unwrap().as_str().unwrap();
        let status = value.get("status").unwrap().as_str().unwrap();
        match id {
            "ok-1" | "ok-2" => assert_eq!(status, "ok"),
            "dies" | "fails" => assert_eq!(status, "error"),
            other => panic!("unexpected response id {other}"),
        }
    }
}

#[test]
fn over_long_and_non_utf8_lines_are_rejected_and_serving_goes_on() {
    let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
    input.push(b'\n');
    input.extend_from_slice(b"{\"id\":\"latin1\",\"command\":\"caf\xe9\"}\n");
    input.extend_from_slice(b"{\"id\":\"valid\",\"command\":\"work\"}\n");
    // A last line that never ends, far past the cap.
    input.extend(std::iter::repeat_n(b'[', 4 * MAX_LINE_BYTES));
    let mut out = Vec::new();
    let report = serve(
        Cursor::new(input),
        &mut out,
        &ServiceConfig {
            workers: Threads::Count(1),
            include_stdout: true,
        },
        |_: &JobSpec| {
            Ok(JobOutput {
                stdout: "done\n".into(),
                cache: None,
            })
        },
    );
    assert_eq!(report.jobs, 4, "every line is accounted for");
    assert_eq!((report.ok, report.rejected, report.errors), (1, 3, 0));
    let responses: Vec<json::Value> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|line| json::parse(line).unwrap())
        .collect();
    assert_eq!(responses.len(), 4, "one response per line");
    let status = |value: &json::Value| value.get("status").unwrap().as_str().unwrap().to_owned();
    for (value, too_long) in responses.iter().zip([true, false]) {
        assert!(value.get("id").unwrap().is_null(), "no id to correlate");
        assert_eq!(status(value), "error");
        let error = value.get("error").unwrap().as_str().unwrap();
        let want = if too_long { "longer than" } else { "not UTF-8" };
        assert!(error.contains(want), "{error}");
    }
    assert_eq!(responses[2].get("id").unwrap().as_str(), Some("valid"));
    assert_eq!(status(&responses[2]), "ok");
    assert!(responses[3].get("id").unwrap().is_null());
    assert_eq!(status(&responses[3]), "error");
}
