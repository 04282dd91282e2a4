//! Equivalence suite for the connection-oriented `ValidationService`.
//!
//! The service contract: however a document's event stream (or byte
//! stream) is chunked, and however many other in-flight documents its
//! chunks interleave with, the verdict — and for invalid documents the
//! retained diagnostic — is **byte-identical** to the *first* diagnostic a
//! whole-document [`DocumentValidator`] run over the same events reports.
//! These tests pin that contract:
//!
//! * every split point of a corpus document's event stream — attribute
//!   and character-data events included;
//! * every split point of its serialized byte stream (tag soup with
//!   attributes, entity references, comments, CDATA, PIs and text
//!   sprinkled in, so splits land mid-tag, mid-comment, mid-name,
//!   mid-entity…);
//! * random chunk interleavings across 64 concurrent handles, events and
//!   bytes mixed;
//! * rejected handles consume no further events (fail-fast).

use redet::schema::{FeedStatus, ServiceLimits};
use redet::{Code, DocEvent, DocumentValidator, Schema, SchemaBuilder};
use redet_bench::book_markup_events;
use redet_workloads::rng::StdRng;
use std::sync::Arc;

fn book_schema() -> Arc<Schema> {
    SchemaBuilder::new()
        .parse_dtd(redet_workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles")
}

/// The whole-document reference: run all events through one
/// `DocumentValidator` and render the *first* diagnostic (the fail-fast
/// service retains exactly that one).
fn whole_document(validator: &mut DocumentValidator, events: &[DocEvent]) -> String {
    match validator.validate_events(events) {
        Ok(()) => "ok".to_owned(),
        Err(diagnostics) => render(&diagnostics[0]),
    }
}

fn render(diagnostic: &redet::Diagnostic) -> String {
    format!("[{:?}] {diagnostic}", diagnostic.code())
}

fn render_result(result: &Result<(), redet::Diagnostic>) -> String {
    match result {
        Ok(()) => "ok".to_owned(),
        Err(d) => render(d),
    }
}

/// A corpus mixing valid full-markup books (attributes and character data
/// included) with seeded corruptions, so every diagnostic path — structural
/// *and* attribute/text — crosses chunk boundaries too.
fn corpus(schema: &Schema, documents: usize) -> Vec<Vec<DocEvent>> {
    let mut rng = StdRng::seed_from_u64(0x5EAF00D);
    let open_of = |events: &[DocEvent], name: &str| {
        let sym = schema.lookup(name).unwrap();
        events
            .iter()
            .position(|e| matches!(e, DocEvent::Open(s) if *s == sym))
            .expect("every book carries this element")
    };
    (0..documents)
        .map(|i| {
            let mut events = book_markup_events(schema, 1 + i % 2, i as u64);
            match i % 8 {
                0 => {} // valid
                1 => {
                    // Children out of order.
                    let opens: Vec<usize> = (0..events.len() - 1)
                        .filter(|&j| {
                            matches!(events[j], DocEvent::Open(_))
                                && matches!(events[j + 1], DocEvent::Open(_))
                        })
                        .collect();
                    if let Some(&j) = opens.get(rng.gen_range(0..opens.len().max(1))) {
                        events.swap(j, j + 1);
                    }
                }
                2 => {
                    // Truncated: unclosed elements at finish.
                    let keep = rng.gen_range(events.len() / 2..events.len());
                    events.truncate(keep);
                }
                3 => {
                    // A close too many somewhere in the middle — but never
                    // directly before an attribute event: an attribute
                    // after a close is expressible on the event surface but
                    // has no byte serialization.
                    let spots: Vec<usize> = (1..events.len())
                        .filter(|&j| !matches!(events[j], DocEvent::Attr(_)))
                        .collect();
                    let j = spots[rng.gen_range(0..spots.len())];
                    events.insert(j, DocEvent::Close);
                }
                4 => {
                    // Misplaced child.
                    let opens: Vec<usize> = (0..events.len())
                        .filter(|&j| matches!(events[j], DocEvent::Open(_)))
                        .collect();
                    let j = opens[rng.gen_range(0..opens.len())];
                    let replacement = schema
                        .lookup(if i % 2 == 0 { "locator" } else { "chapter" })
                        .unwrap();
                    events[j] = DocEvent::Open(replacement);
                }
                5 => {
                    // The same attribute twice on one start tag.
                    if let Some(j) = events.iter().position(|e| matches!(e, DocEvent::Attr(_))) {
                        let dup = events[j];
                        events.insert(j, dup);
                    }
                }
                6 => {
                    // Stray character data inside an element-only model.
                    let j = open_of(&events, "front");
                    events.insert(j + 1, DocEvent::Text);
                }
                _ => {
                    // An attribute declared on a different element: `page`
                    // belongs to `locator`, not `chapter`.
                    let j = open_of(&events, "chapter");
                    let page = schema.lookup("page").unwrap();
                    events.insert(j + 1, DocEvent::Attr(page));
                }
            }
            events
        })
        .collect()
}

/// Serializes an event stream to tag soup: self-closing leaves, attribute
/// values with `>`, `/` and entity references inside the quotes, character
/// data as plain text, entity-laden text or CDATA, plus comments, PIs and
/// whitespace-only noise sprinkled deterministically between tags. Every
/// construct either maps to exactly the events of the stream or to none at
/// all, so the byte path's verdict matches the event path's.
fn to_xml(schema: &Schema, events: &[DocEvent], seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from("<?xml version=\"1.0\"?>");
    let mut open_names: Vec<&str> = Vec::new();
    // An open tag stays unterminated while its attribute events arrive.
    let mut pending = false;
    for event in events {
        match *event {
            DocEvent::Open(sym) => {
                if pending {
                    out.push('>');
                }
                let name = schema.name(sym);
                out.push('<');
                out.push_str(name);
                open_names.push(name);
                pending = true;
            }
            DocEvent::Attr(sym) => {
                assert!(pending, "corpus attributes always follow an open event");
                let name = schema.name(sym);
                match rng.gen_range(0..4u32) {
                    0 => out.push_str(&format!(" {name}=\"v-{name}\"")),
                    1 => out.push_str(&format!(" {name}='a&amp;b'")),
                    2 => out.push_str(&format!(" {name} = \"x/y>z\"")),
                    _ => out.push_str(&format!(" {name}=\"&#x2013;\"")),
                }
            }
            DocEvent::Text => {
                if pending {
                    out.push('>');
                    pending = false;
                }
                match rng.gen_range(0..3u32) {
                    0 => out.push_str("plain character data"),
                    1 => out.push_str("G &amp; S &#x2013; vol. 1"),
                    _ => out.push_str("<![CDATA[raw <markup> & bytes]]>"),
                }
            }
            DocEvent::Close => {
                // Unbalanced corpus documents may close with nothing open;
                // the tokenizer does not match names, so any name works —
                // the validator owns the balance diagnostic.
                let name = open_names.pop().unwrap_or("phantom");
                if pending {
                    pending = false;
                    if rng.gen_bool(0.5) {
                        out.push_str("/>");
                    } else {
                        out.push_str(&format!("></{name}>"));
                    }
                } else {
                    out.push_str(&format!("</{name}>"));
                }
            }
            _ => unreachable!("the corpus holds only the four event kinds"),
        }
        // Eventless noise — only outside a pending start tag.
        if !pending {
            match rng.gen_range(0..16u32) {
                0 => out.push_str("<!-- a comment > with -- noise -->"),
                1 => out.push_str("<![CDATA[ \n ]]>"),
                2 => out.push_str("<?pi keep going?>"),
                3 => out.push('\n'),
                _ => {}
            }
        }
    }
    if pending {
        out.push('>'); // truncated corpus stream ends inside a start tag
    }
    out
}

#[test]
fn every_event_split_matches_whole_document_validation() {
    let schema = book_schema();
    let documents = corpus(&schema, 10);
    let mut reference = schema.validator();
    let mut service = schema.service();
    for (i, events) in documents.iter().enumerate() {
        let expected = whole_document(&mut reference, events);
        for split in 0..=events.len() {
            let doc = service.open();
            let _ = service.feed(doc, &events[..split]);
            let _ = service.feed(doc, &events[split..]);
            let got = render_result(&service.finish(doc));
            assert_eq!(got, expected, "document {i}, split at event {split}");
        }
    }
}

#[test]
fn every_byte_split_matches_whole_document_validation() {
    let schema = book_schema();
    // Eight documents cover each corruption mode (and a valid book) once.
    let documents = corpus(&schema, 8);
    let mut reference = schema.validator();
    let mut service = schema.service();
    for (i, events) in documents.iter().enumerate() {
        let expected = whole_document(&mut reference, events);
        let xml = to_xml(&schema, events, 0xB17E ^ i as u64);
        // Whole-stream first, then every two-chunk split of the bytes —
        // splits land mid-name, mid-attribute, mid-comment, mid-CDATA.
        let doc = service.open();
        let _ = service.feed_bytes(doc, xml.as_bytes());
        assert_eq!(
            render_result(&service.finish(doc)),
            expected,
            "document {i}, unsplit bytes"
        );
        for split in 0..xml.len() {
            let doc = service.open();
            let _ = service.feed_bytes(doc, &xml.as_bytes()[..split]);
            let _ = service.feed_bytes(doc, &xml.as_bytes()[split..]);
            let got = render_result(&service.finish(doc));
            assert_eq!(got, expected, "document {i}, split at byte {split}");
        }
    }
}

#[test]
fn random_interleavings_across_64_handles() {
    let schema = book_schema();
    let documents = corpus(&schema, 64);
    let mut reference = schema.validator();
    let expected: Vec<String> = documents
        .iter()
        .map(|events| whole_document(&mut reference, events))
        .collect();
    assert!(
        expected.iter().any(|r| r == "ok") && expected.iter().any(|r| r != "ok"),
        "sanity: the corpus mixes valid and invalid documents"
    );

    let mut service = schema.service();
    for round in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x1B7E ^ (round * 0x9E37));
        // Every document is either an event stream or a byte stream this
        // round; chunks of random size are fed in random handle order.
        let streams: Vec<Option<String>> = documents
            .iter()
            .enumerate()
            .map(|(i, events)| {
                (i as u64 % 2 == round % 2).then(|| to_xml(&schema, events, round ^ i as u64))
            })
            .collect();
        let handles: Vec<redet::DocId> = (0..documents.len()).map(|_| service.open()).collect();
        let mut cursors = vec![0usize; documents.len()];
        let mut live: Vec<usize> = (0..documents.len()).collect();
        while !live.is_empty() {
            let pick = rng.gen_range(0..live.len());
            let index = live[pick];
            let chunk = 1 + rng.gen_range(0..64usize);
            let status = match &streams[index] {
                Some(xml) => {
                    let bytes = xml.as_bytes();
                    let end = (cursors[index] + chunk).min(bytes.len());
                    let status = service.feed_bytes(handles[index], &bytes[cursors[index]..end]);
                    cursors[index] = end;
                    if end == bytes.len() {
                        live.swap_remove(pick);
                    }
                    status
                }
                None => {
                    let events = &documents[index];
                    let end = (cursors[index] + chunk).min(events.len());
                    let status = service.feed(handles[index], &events[cursors[index]..end]);
                    cursors[index] = end;
                    if end == events.len() {
                        live.swap_remove(pick);
                    }
                    status
                }
            };
            if expected[index] == "ok" {
                assert_ne!(
                    status,
                    FeedStatus::Rejected,
                    "round {round}: valid document {index} rejected mid-stream"
                );
            }
        }
        for (index, handle) in handles.into_iter().enumerate() {
            let got = render_result(&service.finish(handle));
            assert_eq!(got, expected[index], "round {round}, document {index}");
        }
    }
}

#[test]
fn limit_rejections_are_chunking_invariant() {
    // Resource-limit rejections honor the same contract as schema
    // rejections: however the stream is chunked — and, where both
    // transports can trip the limit, whether it arrives as events or as
    // bytes — the retained `E3xx` diagnostic is byte-identical.
    let schema = book_schema();
    let events = redet_bench::book_document_events(&schema, 2, 42);
    let xml = to_xml(&schema, &events, 0xFACE);
    let half_events = (events.len() / 2) as u64;

    // (label, limits, expected code, trippable by event feeding?)
    let configs: [(&str, ServiceLimits, Code, bool); 4] = [
        (
            "depth",
            ServiceLimits::default().with_max_depth(4),
            Code::DepthLimitExceeded,
            true,
        ),
        (
            "events",
            ServiceLimits::default().with_max_events(half_events),
            Code::EventLimitExceeded,
            true,
        ),
        (
            "bytes",
            ServiceLimits::default().with_max_bytes(xml.len() as u64 / 2),
            Code::ByteLimitExceeded,
            false,
        ),
        (
            "name",
            ServiceLimits::default().with_max_name_len(6),
            Code::NameLimitExceeded,
            false,
        ),
    ];
    for (label, limits, code, event_trippable) in configs {
        let mut service = schema.service_with_limits(limits);
        let mut renders: Vec<String> = Vec::new();
        // Every two-chunk byte split, plus the unsplit stream.
        for split in 0..=xml.len() {
            let doc = service.open();
            let _ = service.feed_bytes(doc, &xml.as_bytes()[..split]);
            let _ = service.feed_bytes(doc, &xml.as_bytes()[split..]);
            let err = service.finish(doc).expect_err(label);
            assert_eq!(err.code(), code, "{label}, split at byte {split}");
            renders.push(render(&err));
        }
        // Depth and event budgets see the same event stream either way:
        // every two-chunk event split must render identically too.
        if event_trippable {
            for split in 0..=events.len() {
                let doc = service.open();
                let _ = service.feed(doc, &events[..split]);
                let _ = service.feed(doc, &events[split..]);
                let err = service.finish(doc).expect_err(label);
                assert_eq!(err.code(), code, "{label}, split at event {split}");
                renders.push(render(&err));
            }
        }
        // Many-chunk randomized splits join the pool as well.
        let mut rng = StdRng::seed_from_u64(0x11117);
        for round in 0..8 {
            let doc = service.open();
            let mut cursor = 0;
            while cursor < xml.len() {
                let end = (cursor + 1 + rng.gen_range(0..13usize)).min(xml.len());
                let _ = service.feed_bytes(doc, &xml.as_bytes()[cursor..end]);
                cursor = end;
            }
            let err = service.finish(doc).expect_err(label);
            renders.push(render(&err));
            let _ = round;
        }
        assert!(
            renders.windows(2).all(|w| w[0] == w[1]),
            "{label}: diagnostics diverge across chunkings:\n  {}\n  {}",
            renders.first().unwrap(),
            renders.iter().find(|r| *r != &renders[0]).unwrap()
        );
    }
}

#[test]
fn rejected_handles_consume_no_further_work() {
    let schema = book_schema();
    let mut service = schema.service();
    let chapter = schema.lookup("chapter").unwrap();
    let locator = schema.lookup("locator").unwrap();
    let doc = service.open();
    // <chapter> must start with <title>; <locator> rejects immediately.
    assert_eq!(
        service.feed(doc, &[DocEvent::Open(chapter), DocEvent::Open(locator)]),
        FeedStatus::Rejected
    );
    let document = service.get(doc).expect("open");
    let retained = render(document.diagnostic().expect("rejected"));
    let depth = document.depth();
    // Feeding a rejected handle is a no-op: no frames move, the retained
    // diagnostic never changes, and the status stays Rejected.
    for _ in 0..8 {
        assert_eq!(
            service.feed(doc, &[DocEvent::Open(chapter), DocEvent::Close]),
            FeedStatus::Rejected
        );
        assert_eq!(service.feed_bytes(doc, b"<chapter/>"), FeedStatus::Rejected);
    }
    let document = service.get(doc).expect("open");
    assert_eq!(document.depth(), depth);
    assert_eq!(render(document.diagnostic().expect("rejected")), retained);
    assert_eq!(render_result(&service.finish(doc)), retained);
}
