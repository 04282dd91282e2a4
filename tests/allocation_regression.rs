//! Zero-allocation regression tests for the steady-state match loops.
//!
//! Compile-once/match-many (experiment E10) promises that after warm-up the
//! hot loops perform **no allocation**: the batch matcher runs on the
//! reusable [`BatchScratch`] arenas, the single-word transition simulations
//! carry their state in a `PosId`, the counted-expression simulation
//! reuses caller-owned cursor buffers, and the schema-level
//! [`DocumentValidator`] recycles its frame stack and position-set pool
//! across documents. A counting global allocator enforces this — any `Vec`
//! growth or hash-map insertion sneaking back into the hot paths fails the
//! test. The same counter bounds schema compilation: its allocations grow
//! linearly with the number of declarations.
//!
//! Everything runs inside one `#[test]` so no concurrent test thread can
//! pollute the counter.

use redet::core::matcher::starfree::BatchScratch;
use redet::schema::{DocEvent, Document, FeedStatus, ServiceLimits};
use redet::{
    CompiledAnalysis, DocumentValidator, KOccurrenceMatcher, PosStepper, PositionMatcher,
    SchemaBuilder, StarFreeMatcher, Symbol,
};
use redet_alloc_counter::{allocations_during, thread_allocations_during, CountingAllocator};
use redet_automata::{unroll_counting, NfaScratch, NfaSimulationMatcher};
use redet_workloads as workloads;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Replays a pre-interned event stream into the validator — the hash-free
/// hot path, without the `finish()` reset.
fn replay(validator: &mut DocumentValidator, events: &[DocEvent]) {
    for event in events {
        match event {
            DocEvent::Open(sym) => validator.start_element_symbol(*sym),
            DocEvent::Close => validator.end_element(),
            _ => unreachable!("the test emits only open/close events"),
        }
    }
}

#[test]
fn steady_state_match_loops_do_not_allocate() {
    // --- Batch star-free matching over the dynamic LCA-closed skeleta. ---
    let w = workloads::star_free_chare(60, 4, 17);
    let compiled =
        CompiledAnalysis::from_regex(w.regex.clone(), w.alphabet.clone()).expect("deterministic");
    let starfree = StarFreeMatcher::from_compiled(&compiled).expect("star-free");
    let words: Vec<Vec<Symbol>> = (0..200)
        .map(|i| {
            if i % 2 == 0 {
                workloads::sample_member_word(&w.regex, 40, i as u64)
            } else {
                workloads::sample_random_word(&w.alphabet, 25, i as u64)
            }
        })
        .collect();
    let mut scratch = BatchScratch::new();
    let mut results = Vec::new();
    // Warm-up sizes the arenas; the steady-state call must not allocate.
    starfree.match_words_with(&words, &mut scratch, &mut results);
    starfree.match_words_with(&words, &mut scratch, &mut results);
    let (allocations, accepted) = allocations_during(|| {
        starfree.match_words_with(&words, &mut scratch, &mut results);
        results.iter().filter(|&&x| x).count()
    });
    assert!(accepted > 0, "sanity: some words match");
    assert_eq!(
        allocations, 0,
        "batch star-free matching allocated in steady state"
    );

    // --- Single-word transition simulation (k-occurrence), flat-stepped. ---
    let kocc = PositionMatcher::new(KOccurrenceMatcher::from_compiled(&compiled));
    let word = workloads::sample_member_word(&w.regex, 200, 99);
    assert!(kocc.matches(&word));
    let (allocations, _) = allocations_during(|| kocc.matches(&word));
    assert_eq!(allocations, 0, "k-occurrence matching allocated per word");

    // --- Counted-expression simulation with reusable cursor buffers. ---
    let (counted, sigma) = redet::parse("(a b){2,4} c").unwrap();
    let nfa = NfaSimulationMatcher::build(&unroll_counting(&counted));
    let mut nfa_scratch = NfaScratch::new();
    let member: Vec<Symbol> = ["a", "b", "a", "b", "c"]
        .iter()
        .map(|s| sigma.lookup(s).unwrap())
        .collect();
    assert!(nfa.matches_with(&member, &mut nfa_scratch));
    let (allocations, accepted) =
        allocations_during(|| nfa.matches_with(&member, &mut nfa_scratch));
    assert!(accepted);
    assert_eq!(
        allocations, 0,
        "NFA simulation allocated despite the reusable scratch"
    );

    // --- Event-driven document validation over a 20+-element schema. ---
    let schema = SchemaBuilder::new()
        .parse_dtd(workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles");
    assert!(schema.len() >= 20, "acceptance scale: ≥ 20 declarations");
    let s = |name: &str| schema.lookup(name).expect(name);
    let (book, front, body, back) = (s("book"), s("front"), s("body"), s("back"));
    let (title, author, chapter, section) = (s("title"), s("author"), s("chapter"), s("section"));
    let (para, index, entry, term, locator) =
        (s("para"), s("index"), s("entry"), s("term"), s("locator"));

    // A deep document: a chapter whose sections nest 120 levels deep
    // (recursive `section` model), plus a counted element (`entry` uses
    // `locator{1,4}`, validated by the NFA simulation via the scratch pool).
    let mut events: Vec<DocEvent> = Vec::new();
    let open = |events: &mut Vec<DocEvent>, sym: Symbol| events.push(DocEvent::Open(sym));
    let close = |events: &mut Vec<DocEvent>| events.push(DocEvent::Close);
    let leaf = |events: &mut Vec<DocEvent>, sym: Symbol| {
        events.push(DocEvent::Open(sym));
        events.push(DocEvent::Close);
    };
    open(&mut events, book);
    open(&mut events, front);
    leaf(&mut events, title);
    leaf(&mut events, author);
    close(&mut events); // </front>
    open(&mut events, body);
    open(&mut events, chapter);
    leaf(&mut events, title);
    let depth = 120;
    for _ in 0..depth {
        open(&mut events, section);
        leaf(&mut events, title);
        leaf(&mut events, para);
    }
    for _ in 0..depth {
        close(&mut events); // </section>
    }
    close(&mut events); // </chapter>
    close(&mut events); // </body>
    open(&mut events, back);
    open(&mut events, index);
    open(&mut events, entry);
    leaf(&mut events, term);
    leaf(&mut events, locator);
    leaf(&mut events, locator);
    close(&mut events); // </entry>
    close(&mut events); // </index>
    close(&mut events); // </back>
    close(&mut events); // </book>

    let mut validator = schema.validator();
    // The first document warms the frame stack and the scratch pool; the
    // second confirms the warmed state; the third is measured.
    replay(&mut validator, &events);
    validator.finish().expect("the deep document is valid");
    replay(&mut validator, &events);
    validator.finish().expect("the deep document is valid");
    let (allocations, ok) = allocations_during(|| {
        replay(&mut validator, &events);
        validator.finish().is_ok()
    });
    assert!(ok, "sanity: the measured document is valid");
    assert_eq!(
        allocations, 0,
        "document validation allocated in steady state"
    );

    // --- Sharded batch validation: zero allocation per worker. ---
    // Four scoped threads each run `ValidationService::validate_events`
    // (open → feed → finish) over their shard; after warming, each
    // worker's loop must be allocation-free. Thread spawning itself
    // allocates, so the steady state is asserted with the *per-thread*
    // counter inside each worker.
    let documents: Vec<Vec<DocEvent>> = (0..8).map(|_| events.clone()).collect();
    let shard = documents.len() / 4;
    std::thread::scope(|scope| {
        for chunk in documents.chunks(shard) {
            let mut worker = schema.service();
            scope.spawn(move || {
                // Two warming passes size the worker's frame stack and
                // counted-state pool; the third is measured on this thread.
                for _ in 0..2 {
                    for doc in chunk {
                        worker.validate_events(doc).expect("valid document");
                    }
                }
                let (allocations, ok) = thread_allocations_during(|| {
                    chunk.iter().all(|doc| worker.validate_events(doc).is_ok())
                });
                assert!(ok, "sanity: the measured shard is valid");
                assert_eq!(allocations, 0, "batch worker allocated in steady state");
            });
        }
    });

    // --- Connection-oriented service: zero allocation per feed. ---
    // Interleaved chunked feeding across 8 resumable handles (event chunks
    // and 7-byte raw chunks) recycles everything through the service's
    // slab: after one warming round, open → feed* → finish allocates
    // nothing for valid documents.
    let mut service = schema.service();
    // Serialize the deep document to tag soup for the byte path.
    let xml = redet_bench::events_to_xml(&schema, &events);
    let interleaved_round = |service: &mut redet::ValidationService| {
        let handles: [redet::DocId; 8] = std::array::from_fn(|_| service.open());
        for chunk_start in (0..events.len()).step_by(16) {
            let chunk = &events[chunk_start..(chunk_start + 16).min(events.len())];
            for &h in &handles {
                let _ = service.feed(h, chunk);
            }
        }
        let mut ok = true;
        for h in handles {
            ok &= service.finish(h).is_ok();
        }
        // One byte-fed document in 7-byte chunks rides along.
        let doc = service.open();
        for chunk in xml.as_bytes().chunks(7) {
            let _ = service.feed_bytes(doc, chunk);
        }
        ok && service.finish(doc).is_ok()
    };
    // Two warming rounds size the slab, the spare validators and the
    // tokenizer's name buffer; the third is measured.
    assert!(interleaved_round(&mut service), "documents are valid");
    assert!(interleaved_round(&mut service), "documents are valid");
    let (allocations, ok) = allocations_during(|| interleaved_round(&mut service));
    assert!(ok, "sanity: the measured round is valid");
    assert_eq!(
        allocations, 0,
        "the validation service allocated in steady state"
    );

    // --- Borrow-from-chunk fast path: single-chunk byte documents. ---
    // When a whole document arrives in one chunk, the bulk tokenizer
    // borrows every tag name straight out of the chunk and never writes
    // its name buffer — so feeding warmed handles whole documents stays
    // allocation-free end to end.
    let single_chunk_round = |service: &mut redet::ValidationService| {
        let handles: [redet::DocId; 4] = std::array::from_fn(|_| service.open());
        let mut ok = true;
        for h in handles {
            let _ = service.feed_bytes(h, xml.as_bytes());
            ok &= service.finish(h).is_ok();
        }
        ok
    };
    assert!(single_chunk_round(&mut service), "documents are valid");
    let (allocations, ok) = allocations_during(|| single_chunk_round(&mut service));
    assert!(ok, "sanity: the measured round is valid");
    assert_eq!(
        allocations, 0,
        "single-chunk byte feeding allocated despite the borrow-from-chunk name path"
    );

    // --- Full markup: attribute- and text-heavy documents stay free. ---
    // Attribute checking runs on the epoch-stamped duplicate scratch sized
    // at construction, character data coalesces without buffering, and the
    // tokenizer's attribute/value/text buffers are recycled across
    // documents — so a warmed service validates full markup (entity
    // references included, split mid-reference by 5-byte chunks) without
    // allocating on any surface.
    let markup_events = redet_bench::book_markup_events(&schema, 3, 7);
    let markup_xml = redet_bench::events_to_xml(&schema, &markup_events);
    assert!(
        markup_events.iter().any(|e| matches!(e, DocEvent::Attr(_)))
            && markup_events.iter().any(|e| matches!(e, DocEvent::Text)),
        "sanity: the markup document carries attributes and character data"
    );
    let entity_xml = "<book lang=\"a&amp;b\" edition='&#50;'><front>\
         <title>G &amp; S &#x2013; vol. &#49;</title><author>A &lt; B</author>\
         </front><body><chapter><title>t</title><section><title>s</title>\
         <para>p &gt; q</para></section></chapter></body></book>";
    let markup_round = |service: &mut redet::ValidationService| {
        // The event surface in chunks…
        let doc = service.open();
        for chunk in markup_events.chunks(16) {
            let _ = service.feed(doc, chunk);
        }
        let mut ok = service.finish(doc).is_ok();
        // …the byte surface chunked and in one borrow-from-chunk pass…
        let doc = service.open();
        for chunk in markup_xml.as_bytes().chunks(7) {
            let _ = service.feed_bytes(doc, chunk);
        }
        ok &= service.finish(doc).is_ok();
        let doc = service.open();
        let _ = service.feed_bytes(doc, markup_xml.as_bytes());
        ok &= service.finish(doc).is_ok();
        // …and an entity-dense document split mid-reference.
        let doc = service.open();
        for chunk in entity_xml.as_bytes().chunks(5) {
            let _ = service.feed_bytes(doc, chunk);
        }
        ok && service.finish(doc).is_ok()
    };
    assert!(markup_round(&mut service), "markup documents are valid");
    assert!(markup_round(&mut service), "markup documents are valid");
    let (allocations, ok) = allocations_during(|| markup_round(&mut service));
    assert!(ok, "sanity: the measured markup round is valid");
    assert_eq!(
        allocations, 0,
        "attribute/text validation allocated in steady state"
    );

    // --- Resource governance: the checks themselves are free. ---
    // A fully governed service (every cap configured, sized so the valid
    // traffic passes) must stay allocation-free in steady state: the limit
    // bookkeeping on every feed, admission checks on every open, and feeds
    // against an already-rejected handle (the fail-fast early-out) all run
    // on the hot path. Only a *violation* may allocate — it builds a diagnostic once,
    // on the cold path.
    let limits = ServiceLimits::default()
        .with_max_depth(256)
        .with_max_bytes(1 << 30)
        .with_max_events(1 << 24)
        .with_max_name_len(32)
        .with_max_in_flight(16)
        .with_idle_budget(1 << 20);
    let mut governed = schema.service_with_limits(limits);
    let governed_round = |service: &mut redet::ValidationService| {
        let handles: [redet::DocId; 8] =
            std::array::from_fn(|_| service.try_open().expect("under the admission cap"));
        for chunk_start in (0..events.len()).step_by(16) {
            let chunk = &events[chunk_start..(chunk_start + 16).min(events.len())];
            for &h in &handles {
                let _ = service.feed(h, chunk);
            }
        }
        let mut ok = true;
        for h in handles {
            ok &= service.finish(h).is_ok();
        }
        let doc = service.open();
        for chunk in xml.as_bytes().chunks(7) {
            let _ = service.feed_bytes(doc, chunk);
        }
        ok && service.finish(doc).is_ok()
    };
    assert!(governed_round(&mut governed), "documents are valid");
    assert!(governed_round(&mut governed), "documents are valid");
    let (allocations, ok) = allocations_during(|| governed_round(&mut governed));
    assert!(ok, "sanity: the measured governed round is valid");
    assert_eq!(allocations, 0, "limit checks allocated in steady state");

    // Rejected- and stale-handle feeds: building the rejection allocates
    // its diagnostic (cold path, outside the measurement); every feed
    // against it afterwards is a hot-path early-out and must be free.
    let rejected = governed.open();
    let bad = [DocEvent::Open(book), DocEvent::Open(back)]; // back before front
    assert_eq!(governed.feed(rejected, &bad), FeedStatus::Rejected);
    let stale = governed.open();
    governed.close(stale);
    let (allocations, _) = allocations_during(|| {
        for _ in 0..64 {
            assert_eq!(governed.feed(rejected, &events), FeedStatus::Rejected);
            assert_eq!(
                governed.feed_bytes(rejected, xml.as_bytes()),
                FeedStatus::Rejected
            );
            assert_eq!(
                governed.get(rejected).map(Document::status),
                Some(FeedStatus::Rejected)
            );
            assert_eq!(governed.feed(stale, &events), FeedStatus::Stale);
            assert!(governed.get(stale).is_none());
        }
        governed.get(rejected).map(Document::depth)
    });
    assert_eq!(
        allocations, 0,
        "rejected/stale-handle feeds allocated in steady state"
    );
    governed.close(rejected);

    // --- One `Document` reused across requests: the server's path. ---
    // A connection feeds each request body to its route's document in
    // chunks as the socket delivers them, finishes, and feeds the next body
    // to the same document. Warmed, that loop allocates nothing, for plain
    // and entity-dense markup alike: 5-byte chunks cut every reference at a
    // chunk edge, while fed whole or in 4 KiB chunks (a ~12 KB body whose
    // every value and text run carries references) they decode inside the
    // scan loop.
    let entity_book = format!(
        "<book lang=\"a&amp;b\"><front><title>&lt;t&gt;</title><author>a</author></front>\
         <body><chapter><title>c</title><section><title>s</title>{}</section></chapter>\
         </body></book>",
        "<para role=\"a&amp;b &#x2013; &lt;c&gt;\">G &amp; S &#x2013; &quot;vol.&quot; \
         &#49; &apos;x&apos;</para>"
            .repeat(120)
    );
    let mut document = Document::new(std::sync::Arc::clone(&schema), limits);
    let document_round = |document: &mut Document| {
        let mut ok = true;
        for (body, chunk) in [
            (xml.as_bytes(), 61),
            (markup_xml.as_bytes(), 61),
            (entity_xml.as_bytes(), 5),
            (entity_xml.as_bytes(), entity_xml.len()),
            (entity_book.as_bytes(), 4096),
        ] {
            for _ in 0..3 {
                for part in body.chunks(chunk) {
                    let _ = document.feed_bytes(part);
                }
                ok &= document.finish().is_ok();
            }
        }
        ok
    };
    assert!(document_round(&mut document), "documents are valid");
    assert!(document_round(&mut document), "documents are valid");
    let (allocations, ok) = allocations_during(|| document_round(&mut document));
    assert!(ok, "sanity: the measured document round is valid");
    assert_eq!(
        allocations, 0,
        "a reused Document allocated in steady state"
    );

    // --- Schema compilation: allocations linear in the declarations. ---
    // Every content model shares the schema's one alphabet, so each
    // declaration costs a bounded number of allocations however many names
    // the schema has; a per-model copy of the name table would make the
    // count quadratic. A chain DTD, `<!ELEMENT eI (t, eI+1?)>` for I < n,
    // must allocate at most 2.2× as much at 2n as at n, and the book DTD
    // compiles within a fixed budget. The per-thread counter keeps the
    // count to this thread's own work.
    let compile_allocations = |dtd: &str| {
        let (allocations, schema) =
            thread_allocations_during(|| SchemaBuilder::new().parse_dtd(dtd).build());
        assert!(schema.is_ok(), "sanity: the DTD compiles");
        allocations
    };
    let chain = |n: usize| -> String {
        (0..n)
            .map(|i| format!("<!ELEMENT e{i} (t, e{}?)>\n", i + 1))
            .collect()
    };
    let (small, large) = (chain(1000), chain(2000));
    let (at_n, at_2n) = (compile_allocations(&small), compile_allocations(&large));
    assert!(
        at_2n * 10 <= at_n * 22,
        "chain DTD compile allocations grew {at_n} → {at_2n} from n = 1000 to 2000 (over 2.2×)"
    );
    let book = compile_allocations(workloads::BOOK_DTD);
    assert!(
        book <= 1760,
        "the book DTD compile made {book} allocations (budget 1 760)"
    );
}
