//! Seeded fault-injection suite for the resource-governed serving stack.
//!
//! A front end under attack sees *everything at once*: truncated and
//! duplicated chunks, reordered deliveries, clients that vanish mid-
//! document, stale and double-closed handles, documents built to land
//! exactly on a limit boundary, and timer sweeps firing in the middle of
//! all of it. This suite drives a fully governed [`ValidationService`]
//! (every [`ServiceLimits`] cap configured) through thousands of randomized
//! scenarios from the in-repo SplitMix64 PRNG and asserts the global
//! invariants that make the service safe to put behind a socket:
//!
//! * **never panics** — every chaos operation returns a status or a
//!   diagnostic (only cross-service handle mixups panic, by contract);
//! * **never leaks slab slots** — after each scenario drains, `in_flight`
//!   returns to zero and the slab never outgrows the admission cap;
//! * **deterministic** — the same master seed replays the same transcript
//!   of statuses and diagnostic codes, so any failure here reproduces
//!   byte-for-byte from its seed.
//!
//! (The companion `allocation_regression` suite pins the third hardening
//! invariant — limit checks, empty tick sweeps and rejected-handle feeds
//! allocate nothing in steady state — under its counting allocator.)

use redet::schema::{FeedStatus, ServiceLimits};
use redet::{Code, DocEvent, DocId, Schema, SchemaBuilder, Symbol, ValidationService};
use redet_bench::{book_document_events, events_to_xml};
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
/// identical — under v2. That keeps swap chaos deterministic: a publish
/// may land between any two operations without changing any transcript
/// outcome, exactly like a registry re-publish of a compatible revision.
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

/// One randomized scenario against the shared governed service. Appends
/// every outcome to `transcript` and leaves the service fully drained.
fn run_scenario(
    service: &mut ValidationService,
    schema: &Schema,
    variants: &[Arc<Schema>],
    seed: u64,
    clock: &mut u64,
    transcript: &mut String,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = write!(transcript, "#{seed:x}|");
    // Live handles with their pending work; a graveyard of released
    // handles for stale/double-close probes.
    let mut live: Vec<(DocId, Vec<DocEvent>, usize)> = Vec::new();
    let mut graveyard: Vec<DocId> = Vec::new();
    for _ in 0..rng.gen_range(12..40usize) {
        match rng.gen_range(0..11u32) {
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
            // Advance the logical clock — sweeps may fire mid-document.
            7 => {
                *clock += rng.gen_range(0..10u64);
                let swept = service.tick(*clock);
                let _ = write!(transcript, "tick+{swept};");
                // Swept handles stay queryable until drained.
                live.retain(|(doc, _, _)| {
                    if service.status(*doc) == FeedStatus::Rejected
                        && service
                            .diagnostic(*doc)
                            .is_some_and(|d| d.code() == Code::IdleTimeout)
                    {
                        let err = service.finish(*doc).expect_err("swept");
                        assert_eq!(err.code(), Code::IdleTimeout);
                        graveyard.push(*doc);
                        false
                    } else {
                        true
                    }
                });
            }
            // Registry publish: hot-swap the service's schema mid-feed.
            // The variants are behaviorally identical revisions, so no
            // transcript outcome moves — but the spare list is flushed and
            // handles finishing under a superseded Arc are dropped instead
            // of recycled, the exact hygiene a swap must get right.
            8 => {
                let pick = rng.gen_range(0..variants.len());
                service.swap_schema(Arc::clone(&variants[pick]));
                let _ = write!(transcript, "swap{pick};");
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
                if service.status(doc) != FeedStatus::Stale {
                    continue;
                }
                assert_eq!(service.feed(doc, &[DocEvent::Close]), FeedStatus::Stale);
                assert_eq!(service.feed_bytes(doc, b"<book>"), FeedStatus::Stale);
                assert!(service.diagnostic(doc).is_none());
                assert_eq!(service.depth(doc), 0);
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
/// returns the transcript.
fn run_suite(master_seed: u64) -> String {
    let schema = book_schema();
    let variants = [Arc::clone(&schema), book_schema_v2()];
    let mut service = ValidationService::with_limits(Arc::clone(&schema), governed());
    let mut master = StdRng::seed_from_u64(master_seed);
    let mut clock = 0u64;
    let mut transcript = String::new();
    for _ in 0..SCENARIOS {
        run_scenario(
            &mut service,
            &schema,
            &variants,
            master.next_u64(),
            &mut clock,
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
        "tick+",
        "stale;",
        "fin:ok;",
        "bytes:Rejected",
        "swap0;",
        "swap1;",
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

#[test]
fn publish_storms_never_panic_and_never_leak() {
    // Swap-mid-feed, swap-then-sweep, and a publish storm to one id: the
    // registry hazards distilled. In-flight documents must finish on the
    // Arc they opened under, recycled buffers must never cross a swap, and
    // the slab must return to baseline.
    let v1 = book_schema();
    let v2 = book_schema_v2();
    let mut service = ValidationService::with_limits(Arc::clone(&v1), governed());
    let valid = book_document_events(&v1, 1, 99);
    let cap = governed().max_in_flight().unwrap() as usize;

    // Swap mid-feed: half the cap opens under v1, v2 lands mid-document,
    // every document still finishes validly.
    let mut clock = 0u64;
    for round in 0..50u64 {
        let docs: Vec<DocId> = (0..cap / 2).map(|_| service.try_open().unwrap()).collect();
        let cut = valid.len() / 2;
        for &doc in &docs {
            assert_eq!(service.feed(doc, &valid[..cut]), FeedStatus::NeedMore);
        }
        let swap_to = if round % 2 == 0 { &v2 } else { &v1 };
        service.swap_schema(Arc::clone(swap_to));
        for &doc in &docs {
            assert_eq!(service.feed(doc, &valid[cut..]), FeedStatus::Accepted);
            assert!(service.finish(doc).is_ok());
        }
        assert_eq!(service.in_flight(), 0, "round {round} leaked");
        assert!(service.slab_size() <= cap);
    }

    // Swap-then-sweep: idle handles opened under one schema are swept
    // after a swap — the tick path drops (not recycles) their buffers.
    for round in 0..20u64 {
        let doc = service.try_open().unwrap();
        assert_eq!(service.feed(doc, &valid[..3]), FeedStatus::NeedMore);
        service.swap_schema(Arc::clone(if round % 2 == 0 { &v1 } else { &v2 }));
        clock += governed().idle_budget().unwrap() + 1;
        assert_eq!(service.tick(clock), 1);
        assert_eq!(
            service.finish(doc).unwrap_err().code(),
            Code::IdleTimeout,
            "round {round}"
        );
        assert_eq!(service.in_flight(), 0);
    }

    // Publish storm: a thousand back-to-back swaps with handles open.
    let docs: Vec<DocId> = (0..cap / 2).map(|_| service.try_open().unwrap()).collect();
    for i in 0..1000u64 {
        service.swap_schema(Arc::clone(if i % 2 == 0 { &v2 } else { &v1 }));
    }
    for &doc in &docs {
        assert_eq!(service.feed(doc, &valid), FeedStatus::Accepted);
        assert!(service.finish(doc).is_ok());
    }
    assert_eq!(service.in_flight(), 0, "storm leaked slab slots");
    assert!(service.slab_size() <= cap, "storm grew the slab");

    // The service still serves: a full open/feed/finish cycle post-storm.
    let doc = service.try_open().unwrap();
    assert_eq!(service.feed(doc, &valid), FeedStatus::Accepted);
    assert!(service.finish(doc).is_ok());

    // Nothing in the service still pins the superseded artifact.
    drop(service);
    assert_eq!(Arc::strong_count(&v1), 1);
    assert_eq!(Arc::strong_count(&v2), 1);
}
