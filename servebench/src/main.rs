//! Loopback serving benchmark for `redet serve`; see `README.md`.
//!
//! ```text
//! servebench --workload <small_seq|bulk_pipe|paper_models> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the release `redet` binary,
//! generates the workload's request streams from the seed, computes every
//! expected verdict in-process, spawns `redet serve` on loopback and drives
//! the traffic mix through it. The last line of standard output is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (including the in-process layer ladder) with `--trace 1`.

mod corpus;
mod ladder;
mod load;
mod oracle;
mod server;
mod stats;
mod trace;

use corpus::{Corpus, Workload};
use load::{LoadStats, Requests};
use oracle::Oracle;
use server::{Build, Server};
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server start-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 31;
/// The quiet window after the load in which the idle server's CPU is read.
const IDLE_WINDOW: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds '{value}'"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run reports besides its metrics.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn main() {
    match run() {
        Ok(outcome) => {
            let metrics: Vec<String> = outcome
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_number(*value)
                    )
                })
                .collect();
            let correct = outcome.correct && outcome.metrics.iter().all(|m| m.1.is_finite());
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                outcome.attempted.max(1),
                outcome.failed,
                metrics.join(", ")
            );
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let target =
        root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()));
    let build = server::build(&root, &target)?;

    let work = target.join("servebench");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let corpus = Corpus::generate(args.workload, args.seed);
    let oracle = Oracle::build(&corpus)?;
    let schemas = write_schemas(&corpus, &work)?;
    let requests = Requests::new(&corpus);

    println!(
        "workload {} seed {} fingerprint {:016x}: {} documents ({} bytes, {:.1}% invalid), {} schema ids, {} publishes",
        corpus.workload.name(),
        args.seed,
        corpus.fingerprint(),
        corpus.docs.len(),
        corpus.body_bytes(),
        corpus.invalid_frac() * 100.0,
        corpus.slots.len(),
        corpus.publishes.len(),
    );
    println!(
        "binary {} built from {}",
        build.binary.display(),
        build.source
    );

    let seconds = Duration::from_secs_f64(args.seconds);
    if args.trace {
        per_layer(
            &build, &schemas, &corpus, &oracle, &requests, seconds, &work,
        )
    } else {
        end_to_end(&build, &schemas, &corpus, &oracle, &requests, seconds)
    }
}

fn write_schemas(corpus: &Corpus, work: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    corpus
        .slots
        .iter()
        .map(|slot| {
            let path = work.join(format!("{}-{}.dtd", corpus.workload.name(), slot.id));
            std::fs::write(&path, &slot.dtd)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok((slot.id.clone(), path))
        })
        .collect()
}

/// Spawns the server and times it to its first verdict: the first request
/// of the stream, checked against the oracle.
fn setup(
    build: &Build,
    schemas: &[(String, PathBuf)],
    corpus: &Corpus,
    oracle: &Oracle,
    requests: &Requests,
) -> Result<(Server, f64), String> {
    use std::io::{BufRead, BufReader, Write};
    let started = Instant::now();
    let server = Server::spawn(&build.binary, schemas)?;
    let doc = corpus.order[0];
    let mut stream =
        std::net::TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(requests.v(doc))
        .map_err(|e| format!("first request: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("first verdict: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    if !oracle.matches(doc, line.trim_end()) {
        return Err(format!(
            "first verdict '{}' contradicts the oracle",
            line.trim_end()
        ));
    }
    Ok((server, secs))
}

/// Times `n` start-ups, shutting each server down again.
fn throwaway_setups(
    n: usize,
    build: &Build,
    schemas: &[(String, PathBuf)],
    corpus: &Corpus,
    oracle: &Oracle,
    requests: &Requests,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (server, secs) = setup(build, schemas, corpus, oracle, requests)?;
            server.shutdown()?;
            Ok(secs)
        })
        .collect()
}

fn end_to_end(
    build: &Build,
    schemas: &[(String, PathBuf)],
    corpus: &Corpus,
    oracle: &Oracle,
    requests: &Requests,
    seconds: Duration,
) -> Result<Outcome, String> {
    // Half the start-ups before the load and half after it, so their
    // median samples the machine at two moments a load apart. The last one
    // before the load serves it.
    let mut setups = throwaway_setups(SETUPS / 2, build, schemas, corpus, oracle, requests)?;
    let (server, secs) = setup(build, schemas, corpus, oracle, requests)?;
    setups.push(secs);

    // The mixes that do not publish under load send half their publish
    // sequence to the quiet server before the load and half after it.
    let probe = |which: std::ops::Range<usize>| {
        if corpus.workload == Workload::PaperModels {
            LoadStats::default()
        } else {
            load::publish_probe(&server.addr, corpus, requests, which)
        }
    };
    let half = corpus.publishes.len() / 2;
    let early = probe(0..half);
    let before = server.cpu();
    let load = load::run(&server, corpus, oracle, requests, seconds, false);
    let after = server.cpu();
    let late = probe(half..corpus.publishes.len());
    let rss = server.peak_rss_mb();
    server.shutdown()?;
    setups.extend(throwaway_setups(
        SETUPS - setups.len(),
        build,
        schemas,
        corpus,
        oracle,
        requests,
    )?);

    let ticks = after.ticks - before.ticks;
    let calm = load.summary(corpus.workload.calm_share());
    let publish_us: Vec<f64> = load
        .publish_us()
        .chain(early.publish_us())
        .chain(late.publish_us())
        .collect();
    println!(
        "{} V round trips ({} calm windows of {}, at least {} replies in each), {} P round trips, {} setups; server CPU {ticks} ticks over the load",
        load.completed(),
        calm.calm,
        calm.windows,
        calm.fewest,
        publish_us.len(),
        SETUPS,
    );
    let attempted = load.attempted + early.attempted + late.attempted + SETUPS as u64;
    let failed = load.failed + early.failed + late.failed;
    println!(
        "fail_frac {} ({failed} of {attempted} requests)",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        metrics: vec![
            ("setup_s", median(setups), "s"),
            ("rtt_p50_us", calm.rtt_p50_us, "us"),
            ("rtt_p99_us", calm.rtt_p99_us, "us"),
            ("req_per_s", calm.req_per_s, "1/s"),
            ("body_mb_per_s", calm.body_mb_per_s, "MB/s"),
            ("publish_p50_us", quantile(&publish_us, 0.5), "us"),
            ("publish_p90_us", quantile(&publish_us, 0.9), "us"),
            ("server_rss_mb", rss, "MB"),
        ],
        attempted,
        failed,
        correct: failed == 0,
    })
}

fn per_layer(
    build: &Build,
    schemas: &[(String, PathBuf)],
    corpus: &Corpus,
    oracle: &Oracle,
    requests: &Requests,
    seconds: Duration,
    work: &Path,
) -> Result<Outcome, String> {
    let (server, _) = setup(build, schemas, corpus, oracle, requests)?;
    // The wire first, with a span per request; the ladder after the server
    // has exited, so nothing competes with it.
    let before = server.cpu();
    let wire = load::run(
        &server,
        corpus,
        oracle,
        requests,
        seconds.mul_f64(0.5),
        true,
    );
    let after = server.cpu();
    std::thread::sleep(Duration::from_millis(50));
    let quiet = server.cpu();
    std::thread::sleep(IDLE_WINDOW);
    let idle = server.cpu();
    server.shutdown()?;

    let mut tracer = trace::Tracer::new();
    let l = ladder::run(corpus, seconds.mul_f64(0.5), &mut tracer);
    let mut spans = tracer.spans;
    spans.extend(wire.spans.iter().copied());
    let trace_path = work.join(format!("{}.trace.tsv", corpus.workload.name()));
    trace::write_tsv(&trace_path, &spans)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "{} ladder passes, {} spans written to {}",
        l.passes,
        spans.len(),
        trace_path.display()
    );

    let calm = wire.summary(corpus.workload.calm_share());
    let cpu_us = calm.cpu_us_per_req;
    let rtt_p50 = calm.rtt_p50_us;
    let inproc_us = l.validate_bytes / l.docs / 1e3;
    let wait = rtt_p50 - cpu_us;
    let overhead = cpu_us - inproc_us;
    let service = l.feed + l.open_finish;
    let validate_self = l.validate - l.matcher;
    let wire_ns_per_byte = 1e3 / calm.body_mb_per_s;
    let rung = |ns: f64| ns / l.bytes;
    let reject_ok = (l.reject_frac - corpus.invalid_frac()).abs() < 1e-12;
    if !reject_ok {
        println!(
            "service.reject_frac {} differs from the generator's invalid share {}",
            l.reject_frac,
            corpus.invalid_frac()
        );
    }
    let attempted = wire.attempted + 1;
    let failed = wire.failed;
    Ok(Outcome {
        metrics: vec![
            ("server.cpu_us_per_req", cpu_us, "us"),
            ("server.wait_us_per_req", wait, "us"),
            ("server.overhead_us_per_req", overhead, "us"),
            ("server.wire_share", (wait + overhead) / rtt_p50, "ratio"),
            (
                "server.idle_cpu_pct",
                (idle.ns - quiet.ns) as f64 / IDLE_WINDOW.as_nanos() as f64 * 100.0,
                "%",
            ),
            (
                "server.cpu_ticks",
                (after.ticks - before.ticks) as f64,
                "count",
            ),
            ("service.ns_per_byte", l.feed / l.bytes, "ns/B"),
            ("service.open_finish_ns", l.open_finish / l.docs, "ns"),
            ("service.reject_frac", l.reject_frac, "ratio"),
            ("service.validate_bytes_us", inproc_us, "us"),
            (
                "tokenizer.ns_per_byte",
                l.tokenize_plain / l.plain_bytes,
                "ns/B",
            ),
            (
                "tokenizer.entity_ns_per_byte",
                l.tokenize_entity / l.entity_bytes,
                "ns/B",
            ),
            ("tokenizer.tags", l.tags as f64, "count"),
            (
                "lookup.ns_per_name",
                (l.lookup - l.tokenize) / l.names as f64,
                "ns",
            ),
            ("lookup.names", l.names as f64, "count"),
            ("validator.ns_per_event", l.validate / l.events as f64, "ns"),
            ("validator.events", l.events as f64, "count"),
            ("matcher.ns_per_step", l.matcher / l.steps as f64, "ns"),
            ("matcher.steps", l.steps as f64, "count"),
            (
                "registry.compile_cold_us",
                l.compile_cold / l.compiles / 1e3,
                "us",
            ),
            (
                "registry.compile_cached_us",
                l.compile_cached / l.compiles / 1e3,
                "us",
            ),
            ("registry.hit_ratio", l.hit_ratio, "ratio"),
            ("ladder.tokenize_ns_per_byte", rung(l.tokenize), "ns/B"),
            ("ladder.lookup_ns_per_byte", rung(l.lookup), "ns/B"),
            (
                "ladder.validate_ns_per_byte",
                rung(l.lookup + l.validate),
                "ns/B",
            ),
            ("ladder.service_ns_per_byte", rung(service), "ns/B"),
            ("ladder.wire_ns_per_byte", wire_ns_per_byte, "ns/B"),
            ("ladder.lookup_x", l.lookup / l.tokenize, "ratio"),
            (
                "ladder.validate_x",
                (l.lookup + l.validate) / l.tokenize,
                "ratio",
            ),
            ("ladder.service_x", service / l.tokenize, "ratio"),
            (
                "ladder.wire_x",
                wire_ns_per_byte / rung(l.tokenize),
                "ratio",
            ),
            ("share.tokenizer", l.tokenize / service, "ratio"),
            ("share.lookup", (l.lookup - l.tokenize) / service, "ratio"),
            ("share.validator", validate_self / service, "ratio"),
            ("share.matcher", l.matcher / service, "ratio"),
            (
                "share.service_self",
                (service - l.lookup - l.validate) / service,
                "ratio",
            ),
            (
                "share.tokenizer_entity",
                l.tokenize_entity / l.service_entity,
                "ratio",
            ),
            (
                "share.validator_entity",
                l.validate_entity / l.service_entity,
                "ratio",
            ),
            (
                "trace.overhead_pct",
                (l.service_wall_traced / l.service_wall_untraced - 1.0) * 100.0,
                "%",
            ),
        ],
        attempted,
        failed,
        correct: failed == 0 && reject_ok,
    })
}
