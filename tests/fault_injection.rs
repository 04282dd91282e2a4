//! Seeded fault-injection suite for the resource-governed serving stack.
//!
//! A front end under attack sees *everything at once*: truncated and
//! duplicated chunks, reordered deliveries, clients that vanish mid-
//! document, stale and double-closed handles, documents built to land
//! exactly on a limit boundary, and documents timing out in the middle of
//! all of it. This suite drives a fully governed [`ValidationService`] and
//! a reused [`Document`] (every [`ServiceLimits`] cap configured) through
//! thousands of randomized scenarios from the in-repo SplitMix64 PRNG and
//! asserts the global invariants that make them safe to put behind a
//! socket:
//!
//! * **never panics** — every chaos operation returns a status or a
//!   diagnostic (only cross-service handle mixups panic, by contract);
//! * **never leaks** — after each scenario drains, `in_flight` returns to
//!   zero and the slab never outgrows the admission cap; a timed-out
//!   document validates the next one like a fresh document;
//! * **deterministic** — the same master seed replays the same transcript
//!   of statuses and diagnostic codes, so any failure here reproduces
//!   byte-for-byte from its seed.
//!
//! (The companion `allocation_regression` suite pins the third hardening
//! invariant — limit checks and rejected-handle feeds allocate nothing in
//! steady state — under its counting allocator.)

use redet::schema::{FeedStatus, ServiceLimits};
use redet::{Code, DocEvent, DocId, Document, Schema, SchemaBuilder, Symbol, ValidationService};
use redet_bench::{book_document_events, events_to_xml};
use redet_server::router::Admission;
use redet_server::SchemaRouter;
use redet_workloads::rng::StdRng;
use std::fmt::Write as _;
use std::sync::Arc;

const MASTER_SEED: u64 = 0xC4A0_5EED;
const SCENARIOS: usize = 1200;

fn book_schema() -> Arc<Schema> {
    SchemaBuilder::new()
        .parse_dtd(redet_workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles")
}

/// A hot-swap variant of the book schema: identical declarations plus one
/// appended `<!ATTLIST>` line. The declaration order (and thus the symbol
/// interning order) is untouched and the added attribute name is already
/// interned, so symbols looked up against v1 stay valid — and verdicts
/// identical — under v2, exactly like a registry re-publish of a
/// compatible revision.
fn book_schema_v2() -> Arc<Schema> {
    let source = format!(
        "{}\n<!ATTLIST title role CDATA #IMPLIED>",
        redet_workloads::BOOK_DTD
    );
    SchemaBuilder::new()
        .parse_dtd(&source)
        .build()
        .expect("BOOK_DTD v2 compiles")
}

/// Every cap configured, sized so ordinary corpus documents pass but the
/// generator can steer onto each boundary.
fn governed() -> ServiceLimits {
    ServiceLimits::default()
        .with_max_depth(24)
        .with_max_bytes(8 << 10)
        .with_max_events(600)
        .with_max_name_len(16)
        .with_max_in_flight(12)
        .with_idle_budget(6)
}

/// A document steered near (or past) a limit boundary: deeply nested valid
/// sections around the depth cap, or an event stream around the event
/// budget — the off-by-one hunting grounds.
fn boundary_document(schema: &Schema, rng: &mut StdRng) -> Vec<DocEvent> {
    let s = |name: &str| schema.lookup(name).expect("BOOK_DTD element");
    let mut events = Vec::new();
    let open = |events: &mut Vec<DocEvent>, name: &str| events.push(DocEvent::Open(s(name)));
    let leaf = |events: &mut Vec<DocEvent>, sym: Symbol| {
        events.push(DocEvent::Open(sym));
        events.push(DocEvent::Close);
    };
    open(&mut events, "book");
    open(&mut events, "front");
    leaf(&mut events, s("title"));
    leaf(&mut events, s("author"));
    events.push(DocEvent::Close);
    open(&mut events, "body");
    open(&mut events, "chapter");
    leaf(&mut events, s("title"));
    // Depth here is 3 (book > body > chapter); sections nest on top of it.
    // The cap is 24, so 19..23 extra levels straddles the boundary.
    let levels = rng.gen_range(19..24usize);
    for _ in 0..levels {
        open(&mut events, "section");
        leaf(&mut events, s("title"));
        leaf(&mut events, s("para"));
    }
    for _ in 0..levels + 3 {
        events.push(DocEvent::Close); // sections, chapter, body, book
    }
    events
}

/// A corpus document with seeded corruption, as the equivalence suite uses.
fn chaos_document(schema: &Schema, rng: &mut StdRng) -> Vec<DocEvent> {
    let mut events = book_document_events(schema, 1 + rng.gen_range(0..2usize), rng.next_u64());
    match rng.gen_range(0..5u32) {
        0 => {}                                               // valid
        1 => events.truncate(rng.gen_range(1..events.len())), // client vanished
        2 => {
            let j = rng.gen_range(1..events.len());
            events.insert(j, DocEvent::Close); // a close too many
        }
        3 => {
            let j = rng.gen_range(0..events.len());
            if let DocEvent::Open(_) = events[j] {
                events[j] = DocEvent::Open(schema.lookup("locator").unwrap());
            }
        }
        _ => return boundary_document(schema, rng),
    }
    events
}

/// Chunks `bytes` and injects delivery faults: truncated tails, duplicated
/// chunks, adjacent chunks swapped. Returns the chunk schedule.
fn chaos_chunks<'a>(bytes: &'a [u8], rng: &mut StdRng) -> Vec<&'a [u8]> {
    let mut chunks: Vec<&[u8]> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let end = (i + 1 + rng.gen_range(0..48usize)).min(bytes.len());
        chunks.push(&bytes[i..end]);
        i = end;
    }
    match rng.gen_range(0..4u32) {
        0 if chunks.len() > 1 => {
            // Truncated delivery: the tail never arrives.
            let keep = rng.gen_range(1..chunks.len());
            chunks.truncate(keep);
        }
        1 if !chunks.is_empty() => {
            // A duplicated chunk (a retry that was not idempotent).
            let j = rng.gen_range(0..chunks.len());
            chunks.insert(j, chunks[j]);
        }
        2 if chunks.len() > 1 => {
            // Two adjacent chunks reordered.
            let j = rng.gen_range(0..chunks.len() - 1);
            chunks.swap(j, j + 1);
        }
        _ => {}
    }
    chunks
}

/// Renders an operation outcome into the scenario transcript.
fn record(transcript: &mut String, op: &str, status: FeedStatus) {
    let _ = write!(transcript, "{op}:{status:?};");
}

/// One randomized scenario against the shared governed service and
/// document. Appends every outcome to `transcript` and leaves the service
/// fully drained.
fn run_scenario(
    service: &mut ValidationService,
    document: &mut Document,
    schema: &Arc<Schema>,
    seed: u64,
    transcript: &mut String,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = write!(transcript, "#{seed:x}|");
    // Live handles with their pending work; a graveyard of released
    // handles for stale/double-close probes.
    let mut live: Vec<(DocId, Vec<DocEvent>, usize)> = Vec::new();
    let mut graveyard: Vec<DocId> = Vec::new();
    for _ in 0..rng.gen_range(12..40usize) {
        match rng.gen_range(0..10u32) {
            // Admission — sometimes a whole burst, straight into refusal
            // at the cap (the backpressure edge a front end sheds load on).
            0 | 1 => {
                let burst = if rng.gen_bool(0.15) {
                    service.limits().max_in_flight().unwrap() as usize + 1
                } else {
                    1
                };
                for _ in 0..burst {
                    match service.try_open() {
                        Ok(doc) => {
                            let events = chaos_document(schema, &mut rng);
                            live.push((doc, events, 0));
                            let _ = write!(transcript, "open;");
                        }
                        Err(refused) => {
                            assert_eq!(refused.code(), Code::ServiceOverloaded);
                            let _ = write!(transcript, "refused;");
                            break;
                        }
                    }
                }
            }
            // Feed an event chunk to a random live handle.
            2 | 3 => {
                if live.is_empty() {
                    continue;
                }
                let pick = rng.gen_range(0..live.len());
                let (doc, events, cursor) = &mut live[pick];
                let end = (*cursor + 1 + rng.gen_range(0..24usize)).min(events.len());
                let status = service.feed(*doc, &events[*cursor..end]);
                *cursor = end;
                record(transcript, "feed", status);
            }
            // Feed the byte rendering through the chaos chunker.
            4 => {
                if live.is_empty() {
                    continue;
                }
                let pick = rng.gen_range(0..live.len());
                let (doc, events, cursor) = live.swap_remove(pick);
                // Only stream documents whose events balance (the byte
                // renderer walks a name stack); feed the rest as events.
                let balanced = events.iter().fold(0i64, |d, e| match e {
                    DocEvent::Open(_) => d + 1,
                    _ => d - 1,
                });
                if balanced != 0 || cursor > 0 {
                    let status = service.feed(doc, &events[cursor..]);
                    record(transcript, "drain", status);
                } else {
                    let xml = events_to_xml(schema, &events);
                    for chunk in chaos_chunks(xml.as_bytes(), &mut rng) {
                        let status = service.feed_bytes(doc, chunk);
                        record(transcript, "bytes", status);
                        if status == FeedStatus::Rejected && rng.gen_bool(0.5) {
                            break; // a polite client stops on rejection
                        }
                    }
                }
                match service.finish(doc) {
                    Ok(()) => transcript.push_str("fin:ok;"),
                    Err(d) => {
                        let _ = write!(transcript, "fin:{:?};", d.code());
                    }
                }
                graveyard.push(doc);
            }
            // Abandon a handle (close), then keep its corpse around.
            5 => {
                if live.is_empty() {
                    continue;
                }
                let (doc, _, _) = live.swap_remove(rng.gen_range(0..live.len()));
                service.close(doc);
                graveyard.push(doc);
                transcript.push_str("close;");
            }
            // Finish a handle mid-document.
            6 => {
                if live.is_empty() {
                    continue;
                }
                let (doc, _, _) = live.swap_remove(rng.gen_range(0..live.len()));
                match service.finish(doc) {
                    Ok(()) => transcript.push_str("mid:ok;"),
                    Err(d) => {
                        let _ = write!(transcript, "mid:{:?};", d.code());
                    }
                }
                graveyard.push(doc);
            }
            // A connection's document stalls at a random byte (mid-tag
            // included) and times out; it must then validate the next
            // request's document exactly like a fresh one.
            7 => {
                let events = book_document_events(schema, 1, rng.next_u64());
                let xml = events_to_xml(schema, &events);
                let cut = rng.gen_range(0..xml.len());
                for chunk in chaos_chunks(&xml.as_bytes()[..cut], &mut rng) {
                    let _ = document.feed_bytes(chunk);
                }
                let earlier = document.diagnostic().map(|d| format!("{d:?}"));
                let timed_out = document.time_out();
                match earlier {
                    Some(earlier) => {
                        assert_eq!(format!("{timed_out:?}"), earlier);
                        transcript.push_str("timeout:kept;");
                    }
                    None => {
                        assert_eq!(timed_out.code(), Code::IdleTimeout);
                        transcript.push_str("timeout:IdleTimeout;");
                    }
                }
                let next = chaos_document(schema, &mut rng);
                let mut fresh = Document::new(Arc::clone(schema), governed());
                let _ = fresh.feed(&next);
                let _ = document.feed(&next);
                let verdict = document.finish();
                assert_eq!(format!("{verdict:?}"), format!("{:?}", fresh.finish()));
                match verdict {
                    Ok(()) => transcript.push_str("next:ok;"),
                    Err(d) => {
                        let _ = write!(transcript, "next:{:?};", d.code());
                    }
                }
            }
            // Necromancy: operate on stale handles. Every op must be
            // graceful and must not disturb live handles.
            _ => {
                let Some(&doc) = graveyard.last() else {
                    continue;
                };
                // `doc`'s slot may have been recycled to a *live* handle;
                // staleness is per-generation, so the probes below are
                // no-ops either way only if the handle itself is stale.
                if service.get(doc).is_some() {
                    continue;
                }
                assert_eq!(service.feed(doc, &[DocEvent::Close]), FeedStatus::Stale);
                assert_eq!(service.feed_bytes(doc, b"<book>"), FeedStatus::Stale);
                let err = service.finish(doc).expect_err("stale");
                assert_eq!(err.code(), Code::StaleHandle);
                service.close(doc); // double close: a no-op
                service.close(doc);
                transcript.push_str("stale;");
            }
        }
        let cap = service.limits().max_in_flight().unwrap() as usize;
        assert!(service.in_flight() <= cap, "admission cap breached");
        assert!(service.slab_size() <= cap, "slab outgrew the admission cap");
    }
    // Drain: every handle still live is finished or closed.
    for (doc, _, _) in live {
        if rng.gen_bool(0.5) {
            let _ = service.finish(doc);
        } else {
            service.close(doc);
        }
    }
    assert_eq!(service.in_flight(), 0, "scenario leaked slab slots");
}

/// Runs the full scenario schedule against a fresh governed service and
/// document and returns the transcript.
fn run_suite(master_seed: u64) -> String {
    let schema = book_schema();
    let mut service = ValidationService::with_limits(Arc::clone(&schema), governed());
    let mut document = Document::new(Arc::clone(&schema), governed());
    let mut master = StdRng::seed_from_u64(master_seed);
    let mut transcript = String::new();
    for _ in 0..SCENARIOS {
        run_scenario(
            &mut service,
            &mut document,
            &schema,
            master.next_u64(),
            &mut transcript,
        );
    }
    assert_eq!(service.in_flight(), 0);
    assert!(
        service.slab_size() <= governed().max_in_flight().unwrap() as usize,
        "slab high-water mark exceeded the admission cap"
    );
    transcript
}

#[test]
fn chaos_scenarios_never_panic_and_never_leak() {
    let transcript = run_suite(MASTER_SEED);
    // Sanity: the chaos actually exercised every interesting path.
    for marker in [
        "refused;",
        "stale;",
        "fin:ok;",
        "bytes:Rejected",
        "timeout:IdleTimeout;",
        "timeout:kept;",
        "next:ok;",
    ] {
        assert!(
            transcript.contains(marker),
            "chaos never hit {marker:?} — the generator lost coverage"
        );
    }
}

#[test]
fn chaos_transcripts_replay_from_their_seed() {
    // Determinism is what turns a red CI run into a local repro: the same
    // master seed must drive byte-identical statuses and diagnostics.
    assert_eq!(run_suite(MASTER_SEED), run_suite(MASTER_SEED));
    assert_ne!(
        run_suite(MASTER_SEED),
        run_suite(MASTER_SEED ^ 1),
        "sanity: different seeds explore different schedules"
    );
}

#[test]
fn slab_churn_returns_to_baseline() {
    // 10k open→{feed,reject,finish,close} cycles: the slab must end where
    // it started — `in_flight` at zero and the slot count at its
    // concurrent high-water mark, not its cumulative churn.
    let schema = book_schema();
    let mut service = ValidationService::with_limits(Arc::clone(&schema), governed());
    let valid = book_document_events(&schema, 1, 7);
    let book = schema.lookup("book").unwrap();
    let locator = schema.lookup("locator").unwrap();
    let mut rng = StdRng::seed_from_u64(0x10_000);
    // Warm the slab to its high-water mark once.
    let warm: Vec<DocId> = (0..8).map(|_| service.try_open().unwrap()).collect();
    for doc in warm {
        service.close(doc);
    }
    let baseline = service.slab_size();
    for i in 0..10_000u32 {
        let doc = service.try_open().expect("under the cap");
        match i % 4 {
            0 => {
                // open → feed valid → finish
                assert_eq!(service.feed(doc, &valid), FeedStatus::Accepted);
                assert!(service.finish(doc).is_ok());
            }
            1 => {
                // open → reject → close (<locator> cannot start <book>)
                assert_eq!(
                    service.feed(doc, &[DocEvent::Open(book), DocEvent::Open(locator)]),
                    FeedStatus::Rejected
                );
                service.close(doc);
            }
            2 => {
                // open → partial feed → finish (unbalanced)
                let cut = rng.gen_range(1..valid.len());
                let _ = service.feed(doc, &valid[..cut]);
                assert!(service.finish(doc).is_err());
            }
            _ => service.close(doc), // open → close untouched
        }
        assert_eq!(service.in_flight(), 0, "iteration {i} leaked a slot");
    }
    assert_eq!(
        service.slab_size(),
        baseline,
        "10k churn iterations grew the slab past its high-water baseline"
    );
}

/// Admits one request under route 0 and binds the connection's document
/// `slot` to the route's current schema, the way a server connection
/// does before each request.
fn admit_and_bind<'r>(router: &'r SchemaRouter, slot: &mut Option<Document>) -> Admission<'r> {
    let admission = router.admit(0).expect("under the admission cap");
    let schema = admission.schema();
    if !slot
        .as_ref()
        .is_some_and(|doc| std::ptr::eq(doc.schema(), Arc::as_ptr(&schema)))
    {
        *slot = Some(Document::new(schema, admission.limits()));
    }
    admission
}

/// Asserts that route 0 admits exactly `cap` requests: no admission leaked.
fn assert_admissions_released(router: &SchemaRouter, cap: usize) {
    let held: Vec<Admission<'_>> = (0..cap)
        .map(|_| router.admit(0).expect("an admission leaked"))
        .collect();
    assert!(router.admit(0).is_err(), "the admission cap is gone");
    drop(held);
}

#[test]
fn publish_storms_never_panic_and_never_leak() {
    // Publish-mid-feed, publish-then-time-out, and a publish storm to one
    // route: the registry hazards distilled. Documents in flight must
    // finish on the Arc they started under, every admission must be
    // released, and once the connections' documents and the route are
    // gone nothing may keep a superseded artifact alive.
    let v1 = book_schema();
    let v2 = book_schema_v2();
    let mut router = SchemaRouter::new();
    router
        .register("book", Arc::clone(&v1), governed())
        .unwrap();
    let valid = book_document_events(&v1, 1, 99);
    let cap = governed().max_in_flight().unwrap() as usize;
    // One document per connection, half the cap of connections.
    let mut conns: Vec<Option<Document>> = (0..cap / 2).map(|_| None).collect();

    // Publish mid-feed: every connection starts a document, a publish
    // lands mid-document, every document still finishes validly.
    for round in 0..50u64 {
        let admissions: Vec<Admission<'_>> = conns
            .iter_mut()
            .map(|slot| admit_and_bind(&router, slot))
            .collect();
        let cut = valid.len() / 2;
        for doc in conns.iter_mut().flatten() {
            assert_eq!(doc.feed(&valid[..cut]), FeedStatus::NeedMore);
        }
        let publish = if round % 2 == 0 { &v2 } else { &v1 };
        router.publish("book", Arc::clone(publish)).unwrap();
        for doc in conns.iter_mut().flatten() {
            assert_eq!(doc.feed(&valid[cut..]), FeedStatus::Accepted);
            assert!(doc.finish().is_ok());
        }
        drop(admissions);
        assert_admissions_released(&router, cap);
    }

    // Publish-then-time-out: a document stalls across a publish and times
    // out on the artifact it started under.
    for round in 0..20u64 {
        let admission = admit_and_bind(&router, &mut conns[0]);
        let doc = conns[0].as_mut().unwrap();
        assert_eq!(doc.feed(&valid[..3]), FeedStatus::NeedMore);
        let publish = if round % 2 == 0 { &v1 } else { &v2 };
        router.publish("book", Arc::clone(publish)).unwrap();
        assert_eq!(doc.time_out().code(), Code::IdleTimeout, "round {round}");
        drop(admission);
    }
    assert_admissions_released(&router, cap);

    // Publish storm: a thousand back-to-back publishes with documents open.
    let admissions: Vec<Admission<'_>> = conns
        .iter_mut()
        .map(|slot| admit_and_bind(&router, slot))
        .collect();
    for i in 0..1000u64 {
        router
            .publish("book", Arc::clone(if i % 2 == 0 { &v2 } else { &v1 }))
            .unwrap();
    }
    for doc in conns.iter_mut().flatten() {
        assert_eq!(doc.feed(&valid), FeedStatus::Accepted);
        assert!(doc.finish().is_ok());
    }
    drop(admissions);
    assert_admissions_released(&router, cap);

    // The route still serves: a full request post-storm.
    let admission = admit_and_bind(&router, &mut conns[0]);
    let doc = conns[0].as_mut().unwrap();
    assert_eq!(doc.feed(&valid), FeedStatus::Accepted);
    assert!(doc.finish().is_ok());
    drop(admission);

    // Nothing but the test's own bindings still pins either artifact.
    drop(conns);
    drop(router);
    assert_eq!(Arc::strong_count(&v1), 1);
    assert_eq!(Arc::strong_count(&v2), 1);
}
