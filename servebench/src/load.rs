//! The closed-loop load generator: one thread per connection, each waiting
//! for verdicts before it sends more than its window allows, and one thread
//! reading the server's CPU at every window boundary.

use crate::corpus::{Corpus, Workload, PUBLISH_INTERVAL_MS};
use crate::oracle::Oracle;
use crate::server::{self, Server};
use crate::stats::{median, mid_mean, quantile};
use crate::trace::Span;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a client waits for one response line before counting it (and
/// everything behind it on the connection) as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// The load is cut into windows of about this width, each read by the CPU
/// sampler.
const WINDOW: Duration = Duration::from_millis(100);

/// One correctly answered request.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    /// When the response line was read, in seconds since the phase began.
    pub done_s: f64,
    /// Start of the request write to the response line, in microseconds.
    pub rtt_us: f64,
    /// The request's body bytes.
    pub bytes: u64,
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// How long the clients kept sending.
    pub period: Duration,
    /// Every correctly answered `V` request.
    pub replies: Vec<Reply>,
    /// Every correctly answered `P` request.
    pub publishes: Vec<Reply>,
    /// The server's on-CPU nanoseconds at the start of the phase and at the
    /// end of each of its windows.
    pub cpu_ns: Vec<u64>,
    /// `V` and `P` requests sent.
    pub attempted: u64,
    /// Wrong, missing and timed-out responses.
    pub failed: u64,
    /// One span per request when traced (send → response).
    pub spans: Vec<Span>,
}

impl LoadStats {
    fn merge(&mut self, other: LoadStats) {
        self.replies.extend(other.replies);
        self.publishes.extend(other.publishes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.spans.extend(other.spans);
    }

    /// Correctly answered `V` requests.
    pub fn completed(&self) -> usize {
        self.replies.len()
    }

    /// Round trips of the correctly answered `P` requests, in microseconds.
    pub fn publish_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.publishes.iter().map(|p| p.rtt_us)
    }

    /// The phase cut into the windows its CPU sampler read; replies after
    /// the period, from draining the pipelines, are left out.
    fn windows(&self) -> Vec<Window> {
        let n = self.cpu_ns.len().saturating_sub(1).max(1);
        let width_s = self.period.as_secs_f64() / n as f64;
        let mut windows: Vec<Window> = (0..n)
            .map(|w| Window {
                width_s,
                cpu_ns: match (self.cpu_ns.get(w), self.cpu_ns.get(w + 1)) {
                    (Some(a), Some(b)) => b.saturating_sub(*a),
                    _ => 0,
                },
                ..Window::default()
            })
            .collect();
        for r in &self.replies {
            if let Some(w) = windows.get_mut((r.done_s / width_s) as usize) {
                w.rtts.push(r.rtt_us);
                w.bytes += r.bytes;
                w.served += 1;
            }
        }
        for p in &self.publishes {
            if let Some(w) = windows.get_mut((p.done_s / width_s) as usize) {
                w.served += 1;
            }
        }
        windows
    }

    /// The `V` figures over the calmest windows of the phase. The machine this
    /// runs on shares its cores: for seconds at a time other load slows every
    /// instruction of the server by up to 1.6×, and how much of a run that
    /// covers varies from run to run. A window's server CPU per answered
    /// request rises with that slowdown, so the windows where it is lowest are
    /// the ones where the program ran undisturbed. The figures cover the
    /// `share` of windows with the lowest CPU per request (see
    /// [`Workload::calm_share`]): the median round trip over their pooled
    /// replies, the 99th percentile as the median of their per-window ones,
    /// rates and CPU as interquartile means of their per-window values. Short
    /// windows, and the median over them, keep a brief stall of the server or
    /// of a client out of the tail.
    pub fn summary(&self, share: f64) -> Summary {
        let mut windows = self.windows();
        windows.sort_by(|a, b| a.cost().total_cmp(&b.cost()));
        let n = windows.len();
        let calm = &windows[..((n as f64 * share).ceil() as usize).clamp(1, n)];
        let pooled: Vec<f64> = calm.iter().flat_map(|w| w.rtts.iter().copied()).collect();
        let over_calm = |f: &dyn Fn(&Window) -> f64| mid_mean(calm.iter().map(f).collect());
        Summary {
            rtt_p50_us: quantile(&pooled, 0.5),
            rtt_p99_us: median(calm.iter().map(|w| quantile(&w.rtts, 0.99)).collect()),
            req_per_s: over_calm(&|w| w.rtts.len() as f64 / w.width_s),
            body_mb_per_s: over_calm(&|w| w.bytes as f64 / w.width_s / 1e6),
            cpu_us_per_req: over_calm(&|w| w.cost() / 1e3),
            calm: calm.len(),
            windows: n,
            fewest: calm.iter().map(|w| w.rtts.len()).min().unwrap_or(0),
        }
    }
}

/// One window of a load phase.
#[derive(Debug, Default)]
struct Window {
    /// Its length in seconds.
    width_s: f64,
    /// Round trips of the `V` replies read in it, in microseconds.
    rtts: Vec<f64>,
    /// Their body bytes.
    bytes: u64,
    /// `V` and `P` replies read in it.
    served: usize,
    /// Server on-CPU nanoseconds over it.
    cpu_ns: u64,
}

impl Window {
    /// Server CPU per answered request, in nanoseconds; infinite for a
    /// window without `V` replies.
    fn cost(&self) -> f64 {
        if self.rtts.is_empty() {
            f64::INFINITY
        } else {
            self.cpu_ns as f64 / self.served as f64
        }
    }
}

/// The `V` figures of a load phase over its calmest windows; see
/// [`LoadStats::summary`].
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// `V` round-trip median.
    pub rtt_p50_us: f64,
    /// `V` round-trip 99th percentile.
    pub rtt_p99_us: f64,
    /// Correctly answered `V` requests per second.
    pub req_per_s: f64,
    /// Their body bytes per second, in MB.
    pub body_mb_per_s: f64,
    /// Server on-CPU time per answered `V` or `P` request, in microseconds.
    pub cpu_us_per_req: f64,
    /// The calm windows the figures pool.
    pub calm: usize,
    /// All windows of the phase.
    pub windows: usize,
    /// `V` replies in the emptiest calm window.
    pub fewest: usize,
}

/// The framed requests of a corpus, built once so the load loop only
/// writes.
pub struct Requests {
    v: Vec<Vec<u8>>,
    p: Vec<Vec<u8>>,
}

impl Requests {
    /// Frames every document and publish of `corpus`.
    pub fn new(corpus: &Corpus) -> Requests {
        Requests {
            v: (0..corpus.docs.len())
                .map(|d| corpus.v_request(d))
                .collect(),
            p: (0..corpus.publishes.len())
                .map(|p| corpus.p_request(p))
                .collect(),
        }
    }

    /// The framed `V` request of document `doc`.
    pub fn v(&self, doc: usize) -> &[u8] {
        &self.v[doc]
    }
}

/// Drives the workload's traffic mix against `server` for `duration`.
/// `paper_models` publishes on its second connection while the first
/// pipelines documents; the other mixes only send documents.
pub fn run(
    server: &Server,
    corpus: &Corpus,
    oracle: &Oracle,
    requests: &Requests,
    duration: Duration,
    traced: bool,
) -> LoadStats {
    let workload = corpus.workload;
    let addr = server.addr.as_str();
    let pid = server.pid();
    let windows = ((duration.as_secs_f64() / WINDOW.as_secs_f64()).round() as u32).max(1);
    let width = duration / windows;
    let first = server::cpu_of(pid).ns;
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut cpu_ns = vec![first];
            for k in 1..=windows {
                if let Some(wait) = (start + width * k).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                cpu_ns.push(server::cpu_of(pid).ns);
            }
            cpu_ns
        });
        let handles: Vec<_> = (0..workload.connections())
            .map(|conn| {
                scope.spawn(move || {
                    if workload == Workload::PaperModels && conn == 1 {
                        publisher(addr, corpus, requests, start, deadline, traced)
                    } else {
                        // Each connection starts at its own place in the
                        // cycle, so two connections send different documents.
                        let offset = conn * corpus.order.len() / workload.connections();
                        pipeline(
                            addr, corpus, oracle, requests, conn, offset, start, deadline, traced,
                        )
                    }
                })
            })
            .collect();
        let mut total = LoadStats {
            period: duration,
            ..LoadStats::default()
        };
        for handle in handles {
            total.merge(handle.join().expect("load thread panicked"));
        }
        total.cpu_ns = sampler.join().expect("CPU sampler panicked");
        total
    })
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One connection sending `V` requests, keeping up to the workload's
/// window in flight, until `deadline`; then it drains its window.
#[allow(clippy::too_many_arguments)]
fn pipeline(
    addr: &str,
    corpus: &Corpus,
    oracle: &Oracle,
    requests: &Requests,
    conn: usize,
    offset: usize,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let Ok((mut writer, mut reader)) = connect(addr) else {
        stats.attempted = 1;
        stats.failed = 1;
        return stats;
    };
    let window = corpus.workload.window();
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut next = offset;
    let mut line = String::new();
    loop {
        while in_flight.len() < window && Instant::now() < deadline {
            let doc = corpus.order[next % corpus.order.len()];
            next += 1;
            let sent = Instant::now();
            stats.attempted += 1;
            if writer.write_all(&requests.v[doc]).is_err() {
                stats.failed += 1 + in_flight.len() as u64;
                return stats;
            }
            in_flight.push_back((doc, sent));
        }
        let Some((doc, sent)) = in_flight.pop_front() else {
            return stats;
        };
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                let done = Instant::now();
                if oracle.matches(doc, line.trim_end()) {
                    stats.replies.push(Reply {
                        done_s: (done - start).as_secs_f64(),
                        rtt_us: (done - sent).as_secs_f64() * 1e6,
                        bytes: corpus.docs[doc].body.len() as u64,
                    });
                } else {
                    stats.failed += 1;
                }
                if traced {
                    stats
                        .spans
                        .push(Span::between("wire.request", conn, doc, start, sent, done));
                }
            }
            // Closed or timed out: this response and everything queued
            // behind it are lost.
            _ => {
                stats.failed += 1 + in_flight.len() as u64;
                return stats;
            }
        }
    }
}

/// The `paper_models` hot-swap client: one `P` every
/// [`PUBLISH_INTERVAL_MS`], each waiting for its `ok`.
fn publisher(
    addr: &str,
    corpus: &Corpus,
    requests: &Requests,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let Ok((mut writer, mut reader)) = connect(addr) else {
        stats.attempted = 1;
        stats.failed = 1;
        return stats;
    };
    let mut line = String::new();
    for j in 0.. {
        let due = start + Duration::from_millis(PUBLISH_INTERVAL_MS * j as u64);
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if !publish_once(
            &mut writer,
            &mut reader,
            requests,
            corpus,
            j,
            &mut line,
            &mut stats,
            start,
            traced,
        ) {
            break;
        }
    }
    stats
}

/// Sends the corpus's publishes `which` in turn on a quiet server, each
/// after its pause: the `P` round trip of the mixes that do not publish
/// under load.
pub fn publish_probe(
    addr: &str,
    corpus: &Corpus,
    requests: &Requests,
    which: std::ops::Range<usize>,
) -> LoadStats {
    let start = Instant::now();
    let mut stats = LoadStats::default();
    let Ok((mut writer, mut reader)) = connect(addr) else {
        stats.attempted = 1;
        stats.failed = 1;
        return stats;
    };
    let mut line = String::new();
    for j in which {
        std::thread::sleep(Duration::from_micros(corpus.publishes[j].pause_us));
        if !publish_once(
            &mut writer,
            &mut reader,
            requests,
            corpus,
            j,
            &mut line,
            &mut stats,
            start,
            false,
        ) {
            break;
        }
    }
    stats
}

/// One `P` round trip; `false` when the connection is lost.
#[allow(clippy::too_many_arguments)]
fn publish_once(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    requests: &Requests,
    corpus: &Corpus,
    j: usize,
    line: &mut String,
    stats: &mut LoadStats,
    start: Instant,
    traced: bool,
) -> bool {
    let p = j % corpus.publishes.len();
    let sent = Instant::now();
    stats.attempted += 1;
    line.clear();
    let ok = writer.write_all(&requests.p[p]).is_ok()
        && matches!(reader.read_line(line), Ok(n) if n > 0);
    let done = Instant::now();
    if ok && line.trim_end() == "ok" {
        stats.publishes.push(Reply {
            done_s: (done - start).as_secs_f64(),
            rtt_us: (done - sent).as_secs_f64() * 1e6,
            bytes: corpus.publishes[p].body.len() as u64,
        });
    } else {
        stats.failed += 1;
    }
    if traced {
        stats
            .spans
            .push(Span::between("wire.publish", 1, p, start, sent, done));
    }
    ok
}
