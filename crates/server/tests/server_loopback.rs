//! Loopback integration tests: a real [`Server`] on `127.0.0.1`, real
//! `TcpStream` clients, and adversarial delivery schedules.
//!
//! The invariant under test is **wire/in-process parity**: whatever bytes
//! a connection delivers — one at a time, pipelined in a single write,
//! half-closed mid-document — the response line is byte-identical to
//! rendering an in-process `try_open` → `feed_bytes` → `finish` sequence
//! over the same document through [`wire::render_verdict`]. That includes
//! the governance refusals: `E305` under admission overload, `E306` from
//! the wall-clock read timeout and `E310` for an over-long attribute
//! value.

use redet_schema::{Document, Schema, SchemaBuilder, ServiceLimits};
use redet_server::server::ShutdownHandle;
use redet_server::{wire, SchemaRouter, Server, ServerConfig, ServerReport};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

const BIB_DTD: &str = include_str!("../testdata/bibliography.dtd");
const CAT_DTD: &str = include_str!("../testdata/catalog.dtd");
const GOOD_BIB: &str = include_str!("../testdata/good_bibliography.xml");
const BAD_BIB: &str = include_str!("../testdata/bad_bibliography.xml");
const GOOD_CAT: &str = include_str!("../testdata/good_catalog.xml");

fn schema(dtd: &str) -> Arc<Schema> {
    SchemaBuilder::new().parse_dtd(dtd).build().unwrap()
}

/// The in-process reference: the response line the service itself produces
/// for `bytes`, rendered exactly as the server renders it.
fn reference(schema: &Arc<Schema>, limits: ServiceLimits, bytes: &[u8]) -> String {
    let mut service = schema.service_with_limits(limits);
    let doc = service.try_open().unwrap();
    let _ = service.feed_bytes(doc, bytes);
    wire::render_verdict(&service.finish(doc))
}

/// A running server plus the pieces a test needs to talk to and stop it.
struct Fixture {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<ServerReport>,
}

impl Fixture {
    /// Binds an ephemeral port and runs the server on its own thread.
    fn start(router: SchemaRouter, config: ServerConfig) -> Fixture {
        let server = Server::bind("127.0.0.1:0", router, config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let thread = thread::spawn(move || server.run().unwrap());
        Fixture {
            addr,
            handle,
            thread,
        }
    }

    /// Both testdata schemas under default-ish limits.
    fn two_schemas(limits: ServiceLimits, config: ServerConfig) -> Fixture {
        let mut router = SchemaRouter::new();
        router.register("bib", schema(BIB_DTD), limits).unwrap();
        router.register("cat", schema(CAT_DTD), limits).unwrap();
        Fixture::start(router, config)
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// Shuts down and returns the server's lifetime report.
    fn stop(self) -> ServerReport {
        self.handle.shutdown();
        self.thread.join().unwrap()
    }
}

/// Reads exactly one `\n`-terminated response line.
fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "truncated response: {line:?}");
    line.pop();
    line
}

/// Sends one framed request in `chunk`-sized writes and returns the
/// response line.
fn framed_request(fixture: &Fixture, id: &str, body: &[u8], chunk: usize) -> String {
    let mut stream = fixture.connect();
    let mut request = format!("V {id} {}\n", body.len()).into_bytes();
    request.extend_from_slice(body);
    for piece in request.chunks(chunk.max(1)) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
    }
    let mut reader = BufReader::new(stream);
    read_line(&mut reader)
}

#[test]
fn chunked_schedules_match_in_process() {
    let limits = ServiceLimits::default();
    let fixture = Fixture::two_schemas(limits, ServerConfig::default());
    for (id, dtd, body) in [
        ("bib", BIB_DTD, GOOD_BIB),
        ("bib", BIB_DTD, BAD_BIB),
        ("cat", CAT_DTD, GOOD_CAT),
    ] {
        let expected = reference(&schema(dtd), limits, body.as_bytes());
        for chunk in [1usize, 2, 3, 7, 16, usize::MAX] {
            let got = framed_request(&fixture, id, body.as_bytes(), chunk);
            assert_eq!(got, expected, "schema {id}, chunk size {chunk}");
        }
    }
    let report = fixture.stop();
    assert_eq!(report.documents, 18);
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn pipelined_requests_cross_schemas_in_one_write() {
    let limits = ServiceLimits::default();
    let fixture = Fixture::two_schemas(limits, ServerConfig::default());

    // Five framed requests in a single write: two schemas interleaved, a
    // rejection in the middle, an unknown schema whose framed body must be
    // discarded without desynchronizing the request behind it.
    let mut batch = Vec::new();
    let mut expected = Vec::new();
    for (id, dtd, body) in [
        ("bib", Some(BIB_DTD), GOOD_BIB),
        ("cat", Some(CAT_DTD), GOOD_CAT),
        ("bib", Some(BIB_DTD), BAD_BIB),
        ("nope", None, GOOD_CAT),
        ("cat", Some(CAT_DTD), GOOD_CAT),
    ] {
        batch.extend_from_slice(format!("V {id} {}\n", body.len()).as_bytes());
        batch.extend_from_slice(body.as_bytes());
        expected.push(match dtd {
            Some(dtd) => reference(&schema(dtd), limits, body.as_bytes()),
            None => format!("err E103 - no schema registered under id '{id}'"),
        });
    }

    let mut stream = fixture.connect();
    stream.write_all(&batch).unwrap();
    let mut reader = BufReader::new(stream);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(&read_line(&mut reader), want, "response #{i}");
    }
    let report = fixture.stop();
    assert_eq!(report.documents, 5);
    assert_eq!(report.connections, 1);
}

#[test]
fn half_closed_unframed_requests_answer_at_eof() {
    let limits = ServiceLimits::default();
    let fixture = Fixture::two_schemas(limits, ServerConfig::default());

    // A complete document: the verdict is known as soon as the root
    // closes, no EOF needed.
    let mut stream = fixture.connect();
    stream.write_all(b"V bib\n").unwrap();
    stream.write_all(GOOD_BIB.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(
        read_line(&mut reader),
        reference(&schema(BIB_DTD), limits, GOOD_BIB.as_bytes())
    );

    // A truncated document: half-closing the write side is the only
    // signal the input is over, and the verdict matches finishing the
    // same partial byte stream in-process.
    let partial = &GOOD_BIB.as_bytes()[..40];
    let mut stream = fixture.connect();
    stream.write_all(b"V bib\n").unwrap();
    stream.write_all(partial).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_to_string(&mut response).unwrap();
    let expected = reference(&schema(BIB_DTD), limits, partial);
    assert_eq!(response, format!("{expected}\n"));
    assert!(response.starts_with("err "), "a cut-off document rejects");
    fixture.stop();
}

#[test]
fn overload_refusals_are_byte_identical_e305() {
    let limits = ServiceLimits::default().with_max_in_flight(1);
    let fixture = Fixture::two_schemas(limits, ServerConfig::default());

    // Connection A parks mid-body, pinning the only admission slot.
    let mut parked = fixture.connect();
    parked.write_all(b"V bib 1000\n<bibliography>").unwrap();
    thread::sleep(Duration::from_millis(200));

    // Connection B is refused at admission with the service's own E305.
    let expected = {
        let schema = schema(BIB_DTD);
        let mut service = schema.service_with_limits(limits);
        let _held = service.try_open().unwrap();
        let refusal = service.try_open().unwrap_err();
        wire::render_diagnostic(&refusal)
    };
    let got = framed_request(&fixture, "bib", GOOD_BIB.as_bytes(), usize::MAX);
    assert_eq!(got, expected);
    assert_eq!(
        got,
        "err E305 - service is at its in-flight handle cap of 1"
    );

    // The refusal was per-service: the other schema still admits.
    assert_eq!(
        framed_request(&fixture, "cat", GOOD_CAT.as_bytes(), usize::MAX),
        "ok"
    );

    // Releasing the parked handle frees the slot for the next request.
    drop(parked);
    thread::sleep(Duration::from_millis(200));
    assert_eq!(
        framed_request(&fixture, "bib", GOOD_BIB.as_bytes(), usize::MAX),
        "ok"
    );
    fixture.stop();
}

#[test]
fn over_long_attribute_values_are_byte_identical_e310() {
    let limits = ServiceLimits::default();
    let values = schema("<!ELEMENT doc EMPTY><!ATTLIST doc a CDATA #IMPLIED>");
    let mut router = SchemaRouter::new();
    router.register("doc", Arc::clone(&values), limits).unwrap();
    let fixture = Fixture::start(router, ServerConfig::default());

    // One byte past the tokenizer's value-length cap, delivered in writes
    // that split the value at different offsets.
    let body = format!("<doc a='{}'/>", "v".repeat(65_537));
    let expected = reference(&values, limits, body.as_bytes());
    assert_eq!(
        expected,
        "err E310 - attribute value exceeds the value-length cap at /doc (event 1)"
    );
    for chunk in [1000usize, 4096, 40_000] {
        let got = framed_request(&fixture, "doc", body.as_bytes(), chunk);
        assert_eq!(got, expected, "chunk size {chunk}");
    }
    assert_eq!(
        framed_request(&fixture, "doc", b"<doc a='v'/>", usize::MAX),
        "ok"
    );
    let report = fixture.stop();
    assert_eq!((report.documents, report.rejected), (4, 3));
}

#[test]
fn idle_sweeps_surface_e306_without_more_input() {
    let limits = ServiceLimits::default().with_idle_budget(1);
    let config = ServerConfig {
        tick_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let fixture = Fixture::two_schemas(limits, config);

    // Park mid-document and just wait: the read timeout ends the document,
    // and the server pushes the verdict unprompted.
    let mut stream = fixture.connect();
    stream.write_all(b"V bib 1000\n<bibliography>").unwrap();
    let mut reader = BufReader::new(stream);
    let got = read_line(&mut reader);

    let expected = {
        let mut doc = Document::new(schema(BIB_DTD), limits);
        let _ = doc.feed_bytes(b"<bibliography>");
        wire::render_verdict(&Err(doc.time_out()))
    };
    assert_eq!(got, expected);
    assert!(got.starts_with("err E306 "), "got: {got}");
    let report = fixture.stop();
    assert_eq!(report.swept, 1);
}

#[test]
fn stalled_documents_answer_their_first_rejection_or_e306() {
    let limits = ServiceLimits::default().with_idle_budget(1);
    let config = ServerConfig {
        tick_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let fixture = Fixture::two_schemas(limits, config);

    // Rejected before it stalls: the time-out keeps the earlier diagnostic.
    let body = b"<bibliography><nope/>";
    let mut stream = fixture.connect();
    stream.write_all(b"V bib 1000\n").unwrap();
    stream.write_all(body).unwrap();
    let got = read_line(&mut BufReader::new(stream));
    assert_eq!(got, reference(&schema(BIB_DTD), limits, body));
    assert!(got.starts_with("err E201 "), "got: {got}");

    // Unframed and still valid so far: the stall itself is the verdict.
    let mut stream = fixture.connect();
    stream.write_all(b"V bib\n<bibliography>").unwrap();
    let got = read_line(&mut BufReader::new(stream));
    assert!(got.starts_with("err E306 "), "got: {got}");

    let report = fixture.stop();
    assert_eq!(report.swept, 2);
    assert_eq!(report.rejected, 2);
}

#[test]
fn a_warm_connection_validates_under_a_later_publish() {
    let limits = ServiceLimits::default();
    let fixture = Fixture::two_schemas(limits, ServerConfig::default());
    let framed = |verb: &str, body: &str| {
        let mut request = format!("{verb} bib {}\n", body.len()).into_bytes();
        request.extend_from_slice(body.as_bytes());
        request
    };

    // Connection X validates under `bib` and stays open.
    let mut warm = fixture.connect();
    let mut reader = BufReader::new(warm.try_clone().unwrap());
    warm.write_all(&framed("V", GOOD_BIB)).unwrap();
    assert_eq!(read_line(&mut reader), "ok");

    // Another connection publishes the catalog DTD under `bib`.
    let mut publisher = fixture.connect();
    publisher.write_all(&framed("P", CAT_DTD)).unwrap();
    assert_eq!(read_line(&mut BufReader::new(publisher)), "ok");

    // X's next requests validate under the published schema.
    let expected = reference(&schema(CAT_DTD), limits, GOOD_BIB.as_bytes());
    assert!(
        expected.starts_with("err "),
        "the catalog rejects: {expected}"
    );
    warm.write_all(&framed("V", GOOD_BIB)).unwrap();
    assert_eq!(read_line(&mut reader), expected);
    warm.write_all(&framed("V", GOOD_CAT)).unwrap();
    assert_eq!(read_line(&mut reader), "ok");

    let report = fixture.stop();
    assert_eq!(report.published, 1);
    assert_eq!((report.accepted, report.rejected), (2, 1));
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let limits = ServiceLimits::default();
    let fixture = Fixture::two_schemas(limits, ServerConfig::default());

    // Park a request mid-body, then ask for shutdown.
    let mut stream = fixture.connect();
    let body = GOOD_BIB.as_bytes();
    stream
        .write_all(format!("V bib {}\n", body.len()).as_bytes())
        .unwrap();
    stream.write_all(&body[..20]).unwrap();
    thread::sleep(Duration::from_millis(100));
    fixture.handle.shutdown();
    thread::sleep(Duration::from_millis(100));

    // The draining server still serves the rest of the in-flight request.
    stream.write_all(&body[20..]).unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(
        read_line(&mut reader),
        reference(&schema(BIB_DTD), limits, body)
    );
    let report = fixture.thread.join().unwrap();
    assert_eq!(report.documents, 1);
    assert_eq!(report.accepted, 1);
}

#[test]
fn q_command_shuts_the_server_down() {
    let fixture = Fixture::two_schemas(ServiceLimits::default(), ServerConfig::default());
    let mut stream = fixture.connect();
    stream.write_all(b"Q\n").unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(read_line(&mut reader), "ok");
    let report = fixture.thread.join().unwrap();
    assert_eq!(report.connections, 1);
    assert_eq!(report.documents, 0);
}

#[test]
fn disabled_q_command_is_a_protocol_error() {
    let config = ServerConfig {
        allow_shutdown_command: false,
        ..ServerConfig::default()
    };
    let fixture = Fixture::two_schemas(ServiceLimits::default(), config);
    let mut stream = fixture.connect();
    stream.write_all(b"Q\n").unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(
        read_line(&mut reader),
        "err E309 - the shutdown command is disabled"
    );
    let report = fixture.stop();
    assert_eq!(report.protocol_errors, 1);
}

#[test]
fn malformed_headers_are_protocol_errors() {
    let fixture = Fixture::two_schemas(ServiceLimits::default(), ServerConfig::default());
    for (request, want) in [
        (&b"X huh\n"[..], "err E309 - unrecognized header"),
        (&b"V\n"[..], "err E309 - V needs a schema id"),
        (
            &b"V bib nonsense\n"[..],
            "err E309 - unparsable body length",
        ),
        (
            &b"V bib 3 extra\n"[..],
            "err E309 - trailing tokens after the header",
        ),
    ] {
        let mut stream = fixture.connect();
        stream.write_all(request).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reader = BufReader::new(stream);
        assert_eq!(read_line(&mut reader), want, "request {request:?}");
    }

    // Input that ends inside a header line is also a protocol error …
    let mut stream = fixture.connect();
    stream.write_all(b"V bib").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(
        read_line(&mut reader),
        "err E309 - input ended inside a header line"
    );

    // … but a connection that closes between requests is just done.
    let mut stream = fixture.connect();
    stream.write_all(b"\n\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    assert_eq!(response, "");
    fixture.stop();
}

#[test]
fn over_deep_publish_bodies_are_refused_and_serving_continues() {
    // One body per way a content model grows deep — parenthesis nesting,
    // postfix chain, sequence, union — each just over its parse-time cap.
    let union: Vec<String> = (0..=4500).map(|i| format!("a{i}")).collect();
    let models = [
        format!("{}a{}", "(".repeat(1001), ")".repeat(1001)),
        format!("(a{})", "?".repeat(4500)),
        format!("({})", vec!["a"; 4501].join(", ")),
        format!("({})", union.join(" | ")),
    ];
    let fixture = Fixture::two_schemas(ServiceLimits::default(), ServerConfig::default());
    let mut stream = fixture.connect();
    for model in &models {
        let dtd = format!("<!ELEMENT doc {model}>");
        let mut request = format!("P bib {}\n", dtd.len()).into_bytes();
        request.extend_from_slice(dtd.as_bytes());
        stream.write_all(&request).unwrap();
    }
    let mut reader = BufReader::new(stream);
    for _ in &models {
        let line = read_line(&mut reader);
        assert!(
            line.starts_with("err E001 ") && line.contains("deeper than"),
            "{line}"
        );
    }
    drop(reader);
    // Counted models that parse within those caps but would unroll past
    // the caps on the unrolled tree: too deep, a nested optional tail, a
    // union whose copies follow each other pairwise.
    let names: Vec<String> = (0..16_000).map(|i| format!("n{i}")).collect();
    let groups: Vec<String> = names
        .chunks(1000)
        .map(|group| format!("({})", group.join(" | ")))
        .collect();
    let counted = [
        "(a{100000})".to_owned(),
        "((a, b?){1,20000})".to_owned(),
        format!("(({}){{1,2}})", groups.join(" | ")),
    ];
    let mut stream = fixture.connect();
    for model in &counted {
        let dtd = format!("<!ELEMENT doc {model}>");
        let mut request = format!("P bib {}\n", dtd.len()).into_bytes();
        request.extend_from_slice(dtd.as_bytes());
        stream.write_all(&request).unwrap();
    }
    let mut reader = BufReader::new(stream);
    for _ in &counted {
        let line = read_line(&mut reader);
        assert!(
            line.starts_with("err E001 ") && line.contains("counted repetition unrolls"),
            "{line}"
        );
    }
    drop(reader);
    // The refusals swapped nothing in: `bib` still serves its schema.
    assert_eq!(
        framed_request(&fixture, "bib", GOOD_BIB.as_bytes(), 4096),
        reference(
            &schema(BIB_DTD),
            ServiceLimits::default(),
            GOOD_BIB.as_bytes()
        )
    );
    let report = fixture.stop();
    assert_eq!(report.published, 0);
}

#[test]
fn over_budget_publish_body_is_refused_and_the_connection_keeps_serving() {
    // 2 000 counted models, each within every per-model cap, unroll past
    // the schema-wide budget together: the body is refused with one pinned
    // E001 line at the declaration that crossed it, and the next request
    // on the same connection still answers.
    let dtd: String = (0..2000)
        .map(|i| format!("<!ELEMENT e{i} (a{{4500}})>\n"))
        .collect();
    let fixture = Fixture::two_schemas(ServiceLimits::default(), ServerConfig::default());
    let mut stream = fixture.connect();
    let mut request = format!("P bib {}\n{dtd}", dtd.len()).into_bytes();
    request.extend_from_slice(format!("V bib {}\n{GOOD_BIB}", GOOD_BIB.len()).as_bytes());
    stream.write_all(&request).unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(
        read_line(&mut reader),
        "err E001 1454..1454 in the content model of <e58>: the counted \
         repetitions of this schema unroll to more than 262144 positions in total"
    );
    assert_eq!(read_line(&mut reader), "ok");
    drop(reader);
    let report = fixture.stop();
    assert_eq!(report.published, 0);
}

#[test]
fn connections_past_the_cap_are_refused_until_one_closes() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let fixture = Fixture::two_schemas(ServiceLimits::default(), config);
    let request = format!("V cat {}\n{GOOD_CAT}", GOOD_CAT.len());
    let round_trip = |stream: &mut TcpStream| {
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_line(&mut reader)
    };

    // Two connections hold both slots.
    let mut first = fixture.connect();
    let mut second = fixture.connect();
    assert_eq!(round_trip(&mut first), "ok");
    assert_eq!(round_trip(&mut second), "ok");

    // The third is answered with one line and closed.
    let mut response = String::new();
    fixture.connect().read_to_string(&mut response).unwrap();
    assert_eq!(
        response,
        "err E305 - server is at its connection cap of 2\n"
    );

    // Once one connection has closed, a new one is admitted.
    first.shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    first.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(round_trip(&mut fixture.connect()), "ok");
    drop(second);
    let report = fixture.stop();
    assert_eq!(report.connections, 3);
    assert_eq!(report.documents, 3);
}

#[test]
fn a_slow_publish_does_not_hold_up_other_connections() {
    // A publish body within every cap that takes a while to compile: one
    // content model over 60 000 names.
    let names: Vec<String> = (0..60_000).map(|i| format!("n{i}")).collect();
    let groups: Vec<String> = names
        .chunks(1000)
        .map(|group| format!("({})", group.join(" | ")))
        .collect();
    let dtd = format!("<!ELEMENT doc ({})*>", groups.join(" | "));
    let fixture = Fixture::two_schemas(ServiceLimits::default(), ServerConfig::default());

    let mut publisher = fixture.connect();
    let mut request = format!("P bib {}\n", dtd.len()).into_bytes();
    request.extend_from_slice(dtd.as_bytes());
    publisher.write_all(&request).unwrap();
    let published = thread::spawn(move || {
        let line = read_line(&mut BufReader::new(publisher));
        (line, std::time::Instant::now())
    });
    // Let the server start compiling, then validate on another connection.
    thread::sleep(Duration::from_millis(100));
    let verdict = framed_request(&fixture, "cat", GOOD_CAT.as_bytes(), usize::MAX);
    let verdict_at = std::time::Instant::now();
    let (publish_line, published_at) = published.join().unwrap();

    assert_eq!(verdict, "ok");
    assert_eq!(publish_line, "ok");
    assert!(
        verdict_at < published_at,
        "the verdict waited for the compile"
    );
    let report = fixture.stop();
    assert_eq!(report.published, 1);
}

#[test]
fn publishes_from_concurrent_connections_all_answer() {
    // Bodies sent at once from several connections each get their own
    // answer, a failed compile included; the texts they queue for the
    // cache thread hold none of them up.
    let bodies = [
        BIB_DTD.to_owned(),
        format!("{BIB_DTD}<!ELEMENT unused EMPTY>"),
        BIB_DTD.to_owned(),
        "<!ELEMENT a (b | b)>".to_owned(),
    ];
    let fixture = Fixture::two_schemas(ServiceLimits::default(), ServerConfig::default());
    let publishers: Vec<_> = bodies
        .iter()
        .map(|dtd| {
            let mut stream = fixture.connect();
            let mut request = format!("P bib {}\n", dtd.len()).into_bytes();
            request.extend_from_slice(dtd.as_bytes());
            thread::spawn(move || {
                stream.write_all(&request).unwrap();
                read_line(&mut BufReader::new(stream))
            })
        })
        .collect();
    let lines: Vec<String> = publishers
        .into_iter()
        .map(|publisher| publisher.join().unwrap())
        .collect();
    assert_eq!(lines[..3], ["ok", "ok", "ok"]);
    assert!(lines[3].starts_with("err E003 "), "{}", lines[3]);
    // Whichever body swapped in last, `bib` serves the bibliography.
    assert_eq!(
        framed_request(&fixture, "bib", GOOD_BIB.as_bytes(), 4096),
        "ok"
    );
    let report = fixture.stop();
    assert_eq!(report.published, 3);
}

#[test]
fn connections_idle_between_requests_are_closed() {
    let limits = ServiceLimits::default().with_idle_budget(5);
    let config = ServerConfig {
        tick_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let fixture = Fixture::two_schemas(limits, config);

    // Silent from the start, after a served request, and mid-header: each
    // connection is closed with nothing written once the budget passes.
    let mut silent = fixture.connect();
    let mut served = fixture.connect();
    let body = format!("V cat {}\n{GOOD_CAT}", GOOD_CAT.len());
    served.write_all(body.as_bytes()).unwrap();
    let mut partial = fixture.connect();
    partial.write_all(b"V ca").unwrap();

    let mut rest = Vec::new();
    assert_eq!(silent.read_to_end(&mut rest).unwrap(), 0);
    let mut response = String::new();
    served.read_to_string(&mut response).unwrap();
    assert_eq!(response, "ok\n");
    assert_eq!(partial.read_to_end(&mut rest).unwrap(), 0);

    let report = fixture.stop();
    assert_eq!(report.documents, 1);
    assert_eq!(report.swept, 0);
    assert_eq!(report.protocol_errors, 0);
}
