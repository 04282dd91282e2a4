//! Hot-swap and compile-cache semantics, end to end.
//!
//! The contract under test:
//!
//! * a document started against schema v1 **finishes validly** after v2
//!   is published mid-flight into its [`SharedSchema`] — in-flight
//!   documents complete on the pre-publish `Arc<Schema>`;
//! * a post-publish document **rejects the same bytes under v2**, with a
//!   diagnostic byte-identical across event and byte feeds;
//! * the old artifact is dropped once the last document over it is
//!   rebound, when the swap goes through a [`SchemaRouter`] route;
//! * the verdicts stay byte-identical to in-process validation over the
//!   TCP wire, across a live `P` (publish) request;
//! * the content-hashed compile cache performs exactly `distinct` pipeline
//!   compilations for a corpus of repeated schema texts, and concurrent
//!   [`Registry::compile_shared`] callers all end on one cached artifact
//!   per text.

use redet_core::Code;
use redet_schema::registry::{Registry, SharedSchema};
use redet_schema::{DocEvent, Document, Schema, SchemaBuilder, ServiceLimits};
use redet_server::{wire, SchemaRouter, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

/// v1: a record is `(title, author)`.
const V1_DTD: &str = "<!ELEMENT doc (title, author)>\n\
                      <!ELEMENT title (#PCDATA)>\n\
                      <!ELEMENT author (#PCDATA)>";

/// v2 tightens the model: a record now also requires a `year`.
const V2_DTD: &str = "<!ELEMENT doc (title, author, year)>\n\
                      <!ELEMENT title (#PCDATA)>\n\
                      <!ELEMENT author (#PCDATA)>\n\
                      <!ELEMENT year (#PCDATA)>";

/// Valid under v1, invalid under v2 (missing the required `year`).
const V1_DOC: &[u8] = b"<doc><title/><author/></doc>";

fn build(dtd: &str) -> Arc<Schema> {
    SchemaBuilder::new().parse_dtd(dtd).build().unwrap()
}

/// Binds `doc` to `schema` the way a server connection does before each
/// request: a document over another artifact is replaced.
fn rebind(doc: &mut Document, schema: Arc<Schema>) {
    if !std::ptr::eq(doc.schema(), Arc::as_ptr(&schema)) {
        *doc = Document::new(schema, ServiceLimits::default());
    }
}

/// The v1 document as pre-interned events of `schema`.
fn v1_doc_events(schema: &Schema) -> Vec<DocEvent> {
    let sym = |name: &str| schema.lookup(name).unwrap();
    vec![
        DocEvent::Open(sym("doc")),
        DocEvent::Open(sym("title")),
        DocEvent::Close,
        DocEvent::Open(sym("author")),
        DocEvent::Close,
        DocEvent::Close,
    ]
}

#[test]
fn in_flight_document_finishes_on_pre_publish_schema() {
    let v1 = build(V1_DTD);
    let handle = SharedSchema::new(Arc::clone(&v1));

    let mut doc = Document::new(handle.load(), ServiceLimits::default());
    // Half the document arrives…
    let _ = doc.feed_bytes(b"<doc><title/>");

    // …then v2 is published mid-flight.
    let v2 = build(V2_DTD);
    assert_eq!(handle.publish(Arc::clone(&v2)), 1);
    assert_eq!(handle.epoch(), 1);

    // The in-flight document still completes validly against v1.
    let _ = doc.feed_bytes(b"<author/></doc>");
    assert!(doc.finish().is_ok());

    // A post-publish document binds v2 and rejects the same bytes.
    rebind(&mut doc, handle.load());
    let _ = doc.feed_bytes(V1_DOC);
    let rejection = doc.finish().unwrap_err();
    assert_eq!(rejection.code(), Code::IncompleteElement);

    // The event feed (interned against v2) reports the byte-identical
    // diagnostic at the same event index.
    let mut validator = v2.validator();
    let event_rejection = validator
        .validate_events(&v1_doc_events(&v2))
        .unwrap_err()
        .remove(0);
    assert_eq!(format!("{rejection:?}"), format!("{event_rejection:?}"));
    drop(v1);
}

#[test]
fn old_artifact_drops_with_its_last_handle() {
    let v1 = build(V1_DTD);
    let mut router = SchemaRouter::new();
    let route = usize::from(
        router
            .register("doc", Arc::clone(&v1), ServiceLimits::default())
            .unwrap(),
    );

    let mut doc = Document::new(router.current(route), ServiceLimits::default());
    let _ = doc.feed_bytes(b"<doc>");

    router.publish("doc", build(V2_DTD)).unwrap();

    // Holders of v1 while the document is still in flight: this test's
    // `v1` binding plus the document's own validator clone.
    let held_while_in_flight = Arc::strong_count(&v1);
    let _ = doc.feed_bytes(b"<title/><author/></doc>");
    assert!(doc.finish().is_ok());

    // Rebinding for the next request released the validator's clone —
    // nothing still references v1.
    rebind(&mut doc, router.current(route));
    assert_eq!(Arc::strong_count(&v1), held_while_in_flight - 1);

    // New documents bind v2 only.
    rebind(&mut doc, router.current(route));
    let count_after_reopen = Arc::strong_count(&v1);
    assert_eq!(count_after_reopen, held_while_in_flight - 1);
}

#[test]
fn swap_verdicts_are_byte_identical_over_tcp() {
    // A real server with v1 registered, its registry seeded the way the
    // CLI seeds it.
    let mut registry = Registry::new();
    let v1 = registry.compile(V1_DTD).unwrap();
    let mut router = SchemaRouter::new();
    router
        .register("doc", Arc::clone(&v1), ServiceLimits::default())
        .unwrap();
    let mut server = Server::bind("127.0.0.1:0", router, ServerConfig::default()).unwrap();
    server.set_registry(registry);
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run().unwrap());

    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    };
    let read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "truncated response: {line:?}");
        line.pop();
        line
    };

    // Connection A opens a framed v1 document and stalls halfway through.
    let mut stalled = connect();
    stalled
        .write_all(format!("V doc {}\n<doc><title/>", V1_DOC.len()).as_bytes())
        .unwrap();
    stalled.flush().unwrap();
    // A's document binds the schema current when its thread reads the
    // header; give that thread time to do so before v2 is published.
    thread::sleep(Duration::from_millis(200));

    // Connection B publishes v2 and waits for the ok — after this line the
    // swap has happened inside the poll loop.
    let mut publisher = connect();
    let mut request = format!("P doc {}\n", V2_DTD.len()).into_bytes();
    request.extend_from_slice(V2_DTD.as_bytes());
    publisher.write_all(&request).unwrap();
    let mut publisher = BufReader::new(publisher);
    assert_eq!(read_line(&mut publisher), "ok");

    // Connection A finishes its body: the verdict is v1's — `ok`.
    stalled.write_all(b"<author/></doc>").unwrap();
    let mut stalled = BufReader::new(stalled);
    assert_eq!(read_line(&mut stalled), "ok");

    // A fresh request now validates under v2 and its rejection line is
    // byte-identical to in-process validation against v2.
    let v2 = build(V2_DTD);
    let expected = {
        let mut reference = SchemaRouter::new();
        reference
            .register("doc", v2, ServiceLimits::default())
            .unwrap();
        wire::render_verdict(&reference.validate_bytes("doc", V1_DOC))
    };
    assert!(expected.starts_with("err "), "v2 must reject: {expected}");
    let mut fresh = connect();
    let mut request = format!("V doc {}\n", V1_DOC.len()).into_bytes();
    request.extend_from_slice(V1_DOC);
    fresh.write_all(&request).unwrap();
    let mut fresh = BufReader::new(fresh);
    assert_eq!(read_line(&mut fresh), expected);

    // Unknown ids refuse with E103; the id set is a startup decision.
    let mut unknown = connect();
    unknown.write_all(b"P nope 5\n<!-->").unwrap();
    unknown.write_all(b"x").unwrap();
    let mut unknown = BufReader::new(unknown);
    assert!(read_line(&mut unknown).starts_with("err E103 "));

    shutdown.shutdown();
    let report = server_thread.join().unwrap();
    assert_eq!(report.published, 1);
    assert_eq!(report.documents, 2); // publish responses are not verdicts
    assert_eq!(report.accepted, 1); // the stalled v1 document
    assert_eq!(report.rejected, 1); // the post-publish v2 rejection
}

#[test]
fn corpus_of_256_sources_compiles_exactly_32_times() {
    let sources = redet_workloads::schema_corpus(32, 256, 0x5EED);
    assert_eq!(sources.len(), 256);

    let mut registry = Registry::new();
    let results: Vec<_> = sources
        .iter()
        .map(|source| registry.compile(source))
        .collect();
    for (source, result) in sources.iter().zip(&results) {
        let schema = result.as_ref().expect("corpus schemas compile");
        // Identical text shares one artifact.
        let again = registry.compile(source).unwrap();
        assert!(Arc::ptr_eq(schema, &again));
    }

    let stats = registry.stats();
    assert_eq!(
        stats.compiled, 32,
        "one pipeline compilation per distinct text"
    );
    assert_eq!(stats.misses, 32);
    assert_eq!(stats.cached, 32);
    // 224 repeated texts in the corpus + the 256 re-compiles above.
    assert_eq!(stats.hits, 224 + 256);

    // Every variant's minimal document validates under its schema.
    for (variant, source) in sources.iter().enumerate().take(8) {
        let schema = registry.compile(source).unwrap();
        let root = schema
            .elements()
            .map(|sym| schema.name(sym).to_owned())
            .find(|name| name.starts_with("rec"))
            .unwrap();
        let variant_id: usize = root["rec".len()..].parse().unwrap();
        let doc = redet_workloads::schema_corpus_document(variant_id);
        let mut service = schema.service();
        assert!(
            service.validate_bytes(doc.as_bytes()).is_ok(),
            "variant {variant} rejects its own minimal document"
        );
    }
}

#[test]
fn concurrent_corpus_compilation_is_deterministic() {
    // Four threads compile the same 64-source corpus (16 distinct texts)
    // through one shared registry, the way connection threads and the
    // server's cache thread do.
    let sources = redet_workloads::schema_corpus(16, 64, 42);
    let registry = Mutex::new(Registry::new());
    let start = Barrier::new(4);
    thread::scope(|scope| {
        for shard in sources.chunks(sources.len() / 4) {
            let (registry, start) = (&registry, &start);
            scope.spawn(move || {
                start.wait();
                for source in shard {
                    assert!(Registry::compile_shared(registry, source).is_ok());
                }
            });
        }
    });
    let mut registry = registry.into_inner().unwrap();
    assert_eq!(registry.stats().cached, 16);
    for source in &sources {
        let cached = registry.cached(source).expect("every text stays cached");
        assert!(Arc::ptr_eq(&cached, &registry.compile(source).unwrap()));
        // Same declarations, same interning order as a single-threaded
        // build of the text, whichever thread's compile was cached.
        let reference = Registry::build(source).unwrap();
        assert_eq!(cached.len(), reference.len());
        assert_eq!(
            cached
                .elements()
                .map(|s| cached.name(s))
                .collect::<Vec<_>>(),
            reference
                .elements()
                .map(|s| reference.name(s))
                .collect::<Vec<_>>()
        );
    }
}
