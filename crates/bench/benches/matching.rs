//! Benches for experiments E3–E7: `checkIfFollow` queries and the four
//! matching algorithms against the Glushkov DFA baseline — all constructed
//! from one shared `CompiledAnalysis` artifact, so compile-once/match-many
//! is what gets measured.
//!
//! Run with `cargo bench -p redet-bench --bench matching`; set
//! `REDET_BENCH_FAST=1` for a smoke run and `REDET_BENCH_JSON_DIR=dir` to
//! record a report.

use redet_automata::{GlushkovDfaMatcher, PosStepper};
use redet_bench::{
    colored_matcher, compile_workload, harness::Harness, kocc_matcher, pathdecomp_matcher,
    starfree_matcher,
};
use redet_core::{DeterministicRegex, MatchStrategy};
use redet_tree::PosId;
use redet_workloads as workloads;

/// E3: constant-time checkIfFollow queries.
fn bench_check_if_follow(h: &mut Harness) {
    h.group("E3_check_if_follow");
    let sizes: &[usize] = if h.is_fast() { &[256] } else { &[256, 4096] };
    for &factors in sizes {
        let w = workloads::chare(factors, 4, 7);
        let compiled = compile_workload(&w);
        let analysis = compiled.analysis();
        let m = analysis.tree().num_positions();
        let queries: Vec<(PosId, PosId)> = (0..10_000u64)
            .map(|i| {
                let p = ((i.wrapping_mul(0x9e3779b97f4a7c15) >> 33) as usize) % m;
                let q = ((i.wrapping_mul(0xda942042e4dd58b5) >> 33) as usize) % m;
                (PosId::from_index(p), PosId::from_index(q))
            })
            .collect();
        h.throughput(queries.len() as u64);
        h.bench("queries_10k", m, || {
            queries
                .iter()
                .filter(|&&(p, q)| analysis.check_if_follow(p, q))
                .count()
        });
    }
}

/// E4: k-occurrence matching as k grows.
fn bench_k_occurrence(h: &mut Harness) {
    h.group("E4_k_occurrence_matching");
    let word_len = if h.is_fast() { 1_000 } else { 10_000 };
    for k in [1usize, 4, 16] {
        let w = workloads::k_occurrence(k, 40, 4, 11);
        let compiled = compile_workload(&w);
        let word = workloads::sample_member_word(&w.regex, word_len, 13);
        h.throughput(word.len() as u64);
        let matcher = kocc_matcher(&compiled);
        h.bench("kocc", k, || matcher.matches(&word));
        let dfa = GlushkovDfaMatcher::from_tree(compiled.analysis().tree()).unwrap();
        h.bench("glushkov_dfa", k, || dfa.matches(&word));
    }
}

/// E5: path-decomposition matching as the alternation depth c_e grows.
fn bench_path_decomposition(h: &mut Harness) {
    h.group("E5_path_decomposition_matching");
    let word_len = if h.is_fast() { 1_000 } else { 10_000 };
    let depths: &[usize] = if h.is_fast() { &[8] } else { &[2, 8, 32] };
    for &depth in depths {
        let w = workloads::deep_alternation(depth, 17);
        let compiled = compile_workload(&w);
        let word = workloads::sample_member_word(&w.regex, word_len, 19);
        h.throughput(word.len() as u64);
        let matcher = pathdecomp_matcher(&compiled);
        h.bench("path_decomposition", depth, || matcher.matches(&word));
        let dfa = GlushkovDfaMatcher::from_tree(compiled.analysis().tree()).unwrap();
        h.bench("glushkov_dfa", depth, || dfa.matches(&word));
    }
}

/// E6: colored-ancestor matching as |e| grows (fixed word length).
fn bench_colored_ancestor(h: &mut Harness) {
    h.group("E6_colored_ancestor_matching");
    let word_len = if h.is_fast() { 1_000 } else { 10_000 };
    let sizes: &[usize] = if h.is_fast() { &[256] } else { &[256, 4096] };
    for &factors in sizes {
        let w = workloads::chare(factors, 4, 23);
        let compiled = compile_workload(&w);
        let word = workloads::sample_member_word(&w.regex, word_len, 29);
        h.throughput(word.len() as u64);
        let matcher = colored_matcher(&compiled);
        h.bench("colored_ancestor", w.regex.num_positions(), || {
            matcher.matches(&word)
        });
    }
}

/// E7: star-free multi-word matching (one traversal over the dynamic
/// LCA-closed skeleta, scratch reused across batches) vs the flat-list
/// formulation vs word-by-word DFA.
fn bench_star_free(h: &mut Harness) {
    h.group("E7_star_free_multiword");
    let w = workloads::star_free_chare(120, 4, 31);
    let compiled = compile_workload(&w);
    let starfree = starfree_matcher(&compiled);
    let dfa = GlushkovDfaMatcher::from_tree(compiled.analysis().tree()).unwrap();
    let counts: &[usize] = if h.is_fast() { &[100] } else { &[100, 2000] };
    for &n in counts {
        let words: Vec<Vec<redet_syntax::Symbol>> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    workloads::sample_member_word(&w.regex, 60, i as u64)
                } else {
                    workloads::sample_random_word(&w.alphabet, 40, i as u64)
                }
            })
            .collect();
        let total: usize = words.iter().map(Vec::len).sum();
        h.throughput(total as u64);
        let mut scratch = redet_core::matcher::starfree::BatchScratch::new();
        let mut results = Vec::new();
        h.bench("batch_single_traversal", n, || {
            starfree.match_words_with(&words, &mut scratch, &mut results);
            results.iter().filter(|&&x| x).count()
        });
        h.bench("batch_flat_lists", n, || {
            starfree
                .match_words_flat(&words)
                .iter()
                .filter(|&&x| x)
                .count()
        });
        h.bench("word_by_word_dfa", n, || {
            words.iter().filter(|w| dfa.matches(w)).count()
        });
    }
}

/// E10: compile-once / match-many — the shared-artifact pipeline against
/// recompiling per strategy (what the facade did before the pipeline
/// existed) and recompiling per word (the pathological baseline).
fn bench_compile_once_match_many(h: &mut Harness) {
    h.group("E10_compile_once_match_many");
    let w = workloads::chare(60, 4, 37);
    let printed = redet_syntax::printer::to_string(&w.regex, &w.alphabet);
    let n_words = if h.is_fast() { 50 } else { 500 };
    let words: Vec<Vec<redet_syntax::Symbol>> = (0..n_words)
        .map(|i| workloads::sample_member_word(&w.regex, 40, i as u64))
        .collect();
    let total: usize = words.iter().map(Vec::len).sum();

    // Compile once, match all words, switching across every strategy on the
    // same artifact (no re-parse, no re-analysis).
    h.throughput(total as u64);
    h.bench("shared_artifact_all_strategies", n_words, || {
        let model = DeterministicRegex::compile(&printed).unwrap();
        let mut accepted = 0usize;
        for strategy in [
            MatchStrategy::KOccurrence,
            MatchStrategy::PathDecomposition,
            MatchStrategy::ColoredAncestor,
            MatchStrategy::GlushkovDfa,
        ] {
            let m = model.with_strategy(strategy).unwrap();
            accepted += words.iter().filter(|w| m.matches_symbols(w)).count();
        }
        accepted
    });

    // The pre-pipeline shape: each strategy re-runs the whole compilation.
    h.bench("recompile_per_strategy", n_words, || {
        let mut accepted = 0usize;
        for strategy in [
            MatchStrategy::KOccurrence,
            MatchStrategy::PathDecomposition,
            MatchStrategy::ColoredAncestor,
            MatchStrategy::GlushkovDfa,
        ] {
            let m = DeterministicRegex::compile_with(&printed, strategy).unwrap();
            accepted += words.iter().filter(|w| m.matches_symbols(w)).count();
        }
        accepted
    });
}

/// E11: schema-level document validation — one `Arc<Schema>` compiled from
/// the 22-declaration `BOOK_DTD`, N synthetic documents validated
/// event-by-event by the `DocumentValidator` (auto-selected per-element
/// strategies, recycled scratch pool), against a DFA-per-element baseline
/// (`O(σ|e|)` preprocessing per element, hand-rolled frame stack).
fn bench_document_validation(h: &mut Harness) {
    use redet_automata::PosStepper;
    use redet_bench::book_document_events;
    use redet_schema::SchemaBuilder;
    use redet_tree::PosId;

    h.group("E11_document_validation");
    let schema = SchemaBuilder::new()
        .parse_dtd(redet_workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles");

    // The baseline: a Glushkov DFA per element (where its counting-blind
    // view is buildable), driven over a hand-rolled stack of positions —
    // what a validator without the schema layer would do.
    let dfas: Vec<Option<GlushkovDfaMatcher>> = schema
        .alphabet()
        .symbols()
        .map(|sym| {
            schema
                .model(sym)
                .and_then(|m| GlushkovDfaMatcher::from_tree(m.analysis().tree()).ok())
        })
        .collect();

    let counts: &[usize] = if h.is_fast() { &[10] } else { &[10, 100] };
    for &n in counts {
        let documents: Vec<Vec<redet_bench::DocEvent>> = (0..n)
            .map(|i| book_document_events(&schema, 4, 0xE11 ^ i as u64))
            .collect();
        let total_events: usize = documents.iter().map(Vec::len).sum();
        h.throughput(total_events as u64);

        let mut validator = schema.validator();
        h.bench("schema_validator", n, || {
            let mut valid = 0usize;
            for events in &documents {
                if validator.validate_events(events).is_ok() {
                    valid += 1;
                }
            }
            valid
        });

        let mut stack: Vec<(usize, Option<PosId>, bool)> = Vec::new();
        h.bench("dfa_per_element", n, || {
            let mut valid = 0usize;
            for events in &documents {
                let mut ok = true;
                stack.clear();
                for event in events {
                    match event {
                        redet_bench::DocEvent::Open(sym) => {
                            if let Some((parent_sym, state, alive)) = stack.last_mut() {
                                if *alive {
                                    if let Some(dfa) = &dfas[*parent_sym] {
                                        match state.and_then(|p| dfa.advance(p, *sym)) {
                                            Some(next) => *state = Some(next),
                                            None => {
                                                *alive = false;
                                                ok = false;
                                            }
                                        }
                                    }
                                }
                            }
                            let start = dfas[sym.index()].as_ref().map(|dfa| dfa.begin());
                            stack.push((sym.index(), start, true));
                        }
                        redet_bench::DocEvent::Close => {
                            if let Some((sym, state, alive)) = stack.pop() {
                                if alive {
                                    if let (Some(dfa), Some(p)) = (&dfas[sym], state) {
                                        if !dfa.can_end(p) {
                                            ok = false;
                                        }
                                    }
                                }
                            }
                        }
                        _ => unreachable!("the generator emits only open/close events"),
                    }
                }
                if ok {
                    valid += 1;
                }
            }
            valid
        });
    }
}

/// E13: interleaved connection serving — N in-flight documents fed
/// round-robin in 64-event chunks through one `ValidationService` (the
/// regime a server with many connections sees: every chunk resumes a parked
/// document), against the per-document validator loop over the same corpus
/// (the `per_document` reference series the regression gate ratios against;
/// the acceptance criterion caps interleaved serving at 1.5× per-document).
/// A raw-byte series feeds the same corpus as serialized tag soup in 4 KiB
/// chunks, measuring the streaming tokenizer's overhead on top.
fn bench_interleaved_serving(h: &mut Harness) {
    use redet_bench::book_document_events;
    use redet_schema::{DocId, SchemaBuilder};

    h.group("E13_interleaved_serving");
    let schema = SchemaBuilder::new()
        .parse_dtd(redet_workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles");
    let (n_docs, chapters) = if h.is_fast() { (16, 2) } else { (64, 4) };
    let documents: Vec<Vec<redet_bench::DocEvent>> = (0..n_docs)
        .map(|i| book_document_events(&schema, chapters, 0xE13 ^ i as u64))
        .collect();
    let total_events: usize = documents.iter().map(Vec::len).sum();
    h.throughput(total_events as u64);

    // The reference: one warmed validator, document after document.
    let mut validator = schema.validator();
    h.bench("per_document", n_docs, || {
        documents
            .iter()
            .filter(|d| validator.validate_events(d).is_ok())
            .count()
    });

    // All documents in flight at once, round-robin 64-event chunks.
    let mut service = schema.service();
    let mut handles: Vec<DocId> = Vec::with_capacity(documents.len());
    let mut cursors: Vec<usize> = Vec::with_capacity(documents.len());
    h.bench("service_interleaved", n_docs, || {
        handles.clear();
        handles.extend((0..documents.len()).map(|_| service.open()));
        cursors.clear();
        cursors.resize(documents.len(), 0);
        let mut live = documents.len();
        while live > 0 {
            live = 0;
            for (i, doc) in documents.iter().enumerate() {
                let cursor = cursors[i];
                if cursor >= doc.len() {
                    continue;
                }
                let end = (cursor + 64).min(doc.len());
                let _ = service.feed(handles[i], &doc[cursor..end]);
                cursors[i] = end;
                if end < doc.len() {
                    live += 1;
                }
            }
        }
        handles
            .drain(..)
            .filter(|&h| service.finish(h).is_ok())
            .count()
    });

    // The same corpus as raw bytes (tag soup), 4 KiB chunks round-robin:
    // per-document throughput including the streaming tokenizer.
    let streams: Vec<String> = documents
        .iter()
        .map(|events| redet_bench::events_to_xml(&schema, events))
        .collect();
    h.bench("service_bytes", n_docs, || {
        handles.clear();
        handles.extend((0..streams.len()).map(|_| service.open()));
        cursors.clear();
        cursors.resize(streams.len(), 0);
        let mut live = streams.len();
        while live > 0 {
            live = 0;
            for (i, xml) in streams.iter().enumerate() {
                let bytes = xml.as_bytes();
                let cursor = cursors[i];
                if cursor >= bytes.len() {
                    continue;
                }
                let end = (cursor + 4096).min(bytes.len());
                let _ = service.feed_bytes(handles[i], &bytes[cursor..end]);
                cursors[i] = end;
                if end < bytes.len() {
                    live += 1;
                }
            }
        }
        handles
            .drain(..)
            .filter(|&h| service.finish(h).is_ok())
            .count()
    });
}

/// E14: raw tokenizer throughput — the bulk SWAR scanner (`feed`) against
/// the byte-at-a-time scalar oracle (`feed_scalar`) over the four input
/// shapes that stress different skip classes: text-heavy (long character
/// data, the `memchr('<')` fast path), tag-dense (short names back to back,
/// the serving-corpus regime where per-tag dispatch dominates),
/// comment/CDATA-heavy (the `-`/`]` skip loops), and entity-dense (E16's
/// references in every text run and attribute value, the in-loop
/// reference decode). Throughput is bytes/s;
/// the regression gate ratios `bulk` against the `scalar` reference so the
/// bulk scanner can never quietly regress toward byte-at-a-time speed.
fn bench_tokenizer_throughput(h: &mut Harness) {
    use redet_schema::{Tag, Tokenizer};

    h.group("E14_tokenizer_throughput");
    let target = if h.is_fast() { 8 << 10 } else { 64 << 10 };
    let mut inputs: Vec<(&str, Vec<u8>)> = Vec::new();
    // Text-heavy: long character-data runs between sparse tags.
    let mut doc = b"<doc>".to_vec();
    while doc.len() < target {
        doc.extend_from_slice(b"<p>");
        for _ in 0..40 {
            doc.extend_from_slice(b"lorem ipsum dolor sit amet consectetur ");
        }
        doc.extend_from_slice(b"</p>");
    }
    doc.extend_from_slice(b"</doc>");
    inputs.push(("text", doc));
    // Tag-dense: markup only, the shape `events_to_xml` serves in E13.
    let mut doc = b"<doc>".to_vec();
    while doc.len() < target {
        doc.extend_from_slice(b"<chapter><title/><para attr='v'/></chapter>");
    }
    doc.extend_from_slice(b"</doc>");
    inputs.push(("tags", doc));
    // Comment/CDATA-heavy: the '-' and ']' skip loops plus fake closers.
    let mut doc = b"<doc>".to_vec();
    while doc.len() < target {
        doc.extend_from_slice(b"<!-- a comment - with -- dashes and > -->");
        doc.extend_from_slice(b"<![CDATA[ raw <bytes> ] ]] and more ]]><a/>");
    }
    doc.extend_from_slice(b"</doc>");
    inputs.push(("comments", doc));
    // Entity-dense: E16's references in every attribute value and text run.
    let mut doc = b"<doc>".to_vec();
    while doc.len() < target {
        doc.extend_from_slice(b"<para role=\"a&amp;b &#x2013; &lt;c&gt;\">");
        doc.extend_from_slice(b"G &amp; S &#x2013; &quot;vol.&quot; &#49; &apos;x&apos;</para>");
    }
    doc.extend_from_slice(b"</doc>");
    inputs.push(("entities", doc));

    for (shape, doc) in &inputs {
        h.throughput(doc.len() as u64);
        let mut tokenizer = Tokenizer::default();
        h.bench("bulk", shape, || {
            let mut tags = 0usize;
            tokenizer.feed(doc, &mut |tag| {
                tags += matches!(tag, Tag::Open(_)) as usize;
                true
            });
            tokenizer.reset();
            tags
        });
        let mut tokenizer = Tokenizer::default();
        h.bench("scalar", shape, || {
            let mut tags = 0usize;
            tokenizer.feed_scalar(doc, &mut |tag| {
                tags += matches!(tag, Tag::Open(_)) as usize;
                true
            });
            tokenizer.reset();
            tags
        });
    }
}

/// E15: overload serving — what resource governance costs. `feed_unlimited`
/// is the reference: the E13-style interleaved corpus through an ungoverned
/// service. `feed_governed` runs identical traffic with every per-document
/// cap configured (none firing) and the admission cap exactly at the fleet
/// size — the handle-capacity edge — so the gate pins the limit bookkeeping
/// at near-zero overhead. `rejected_feed` measures the fail-fast early-out:
/// the whole chunk schedule aimed at an already-rejected handle. All
/// series share the corpus-size param so the regression gate ratios each
/// of them against `feed_unlimited`.
fn bench_overload_serving(h: &mut Harness) {
    use redet_bench::book_document_events;
    use redet_schema::{DocEvent, DocId, FeedStatus, SchemaBuilder, ServiceLimits};

    h.group("E15_overload_serving");
    let schema = SchemaBuilder::new()
        .parse_dtd(redet_workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles");
    let (n_docs, chapters) = if h.is_fast() { (16, 2) } else { (64, 4) };
    let documents: Vec<Vec<DocEvent>> = (0..n_docs)
        .map(|i| book_document_events(&schema, chapters, 0xE15 ^ i as u64))
        .collect();
    let total_events: usize = documents.iter().map(Vec::len).sum();
    h.throughput(total_events as u64);

    /// One interleaved round: all documents in flight, 64-event chunks
    /// round-robin — the E13 serving loop, reused for both limit configs.
    fn round(
        service: &mut redet_schema::ValidationService,
        documents: &[Vec<DocEvent>],
        handles: &mut Vec<DocId>,
        cursors: &mut Vec<usize>,
    ) -> usize {
        handles.clear();
        handles.extend((0..documents.len()).map(|_| service.open()));
        cursors.clear();
        cursors.resize(documents.len(), 0);
        let mut live = documents.len();
        while live > 0 {
            live = 0;
            for (i, doc) in documents.iter().enumerate() {
                let cursor = cursors[i];
                if cursor >= doc.len() {
                    continue;
                }
                let end = (cursor + 64).min(doc.len());
                let _ = service.feed(handles[i], &doc[cursor..end]);
                cursors[i] = end;
                if end < doc.len() {
                    live += 1;
                }
            }
        }
        handles
            .drain(..)
            .filter(|&h| service.finish(h).is_ok())
            .count()
    }

    let mut handles: Vec<DocId> = Vec::with_capacity(n_docs);
    let mut cursors: Vec<usize> = Vec::with_capacity(n_docs);

    let mut service = schema.service();
    h.bench("feed_unlimited", n_docs, || {
        round(&mut service, &documents, &mut handles, &mut cursors)
    });

    // Every per-document cap set (sized so nothing fires) and admission
    // capped at exactly the fleet size: every open runs at the edge.
    let mut governed = schema.service_with_limits(
        ServiceLimits::default()
            .with_max_depth(256)
            .with_max_bytes(1 << 30)
            .with_max_events(1 << 24)
            .with_max_name_len(64)
            .with_max_in_flight(n_docs as u32)
            .with_idle_budget(1 << 40),
    );
    h.bench("feed_governed", n_docs, || {
        round(&mut governed, &documents, &mut handles, &mut cursors)
    });

    // The fail-fast early-out: a rejected handle swallowing the whole
    // chunk schedule without touching a matcher.
    let rejected = governed.open();
    let bad = [
        DocEvent::Open(schema.lookup("book").unwrap()),
        DocEvent::Open(schema.lookup("back").unwrap()),
    ];
    assert_eq!(governed.feed(rejected, &bad), FeedStatus::Rejected);
    h.bench("rejected_feed", n_docs, || {
        let mut chunks = 0usize;
        for doc in &documents {
            for chunk in doc.chunks(64) {
                chunks += usize::from(governed.feed(rejected, chunk) == FeedStatus::Rejected);
            }
        }
        chunks
    });
    governed.close(rejected);
}

/// E16: full markup coverage — the attribute/text/entity surface end to
/// end. The corpus is the E13 serving corpus enriched with declared
/// attributes and character data (`book_markup_events`): `per_document` is
/// the warmed-validator reference over the event stream, `service_events`
/// serves the same streams interleaved, `service_bytes` feeds the
/// serialized tag soup (attribute-dense start tags, text runs) through the
/// streaming tokenizer, and `service_bytes_entities` the same documents
/// with every attribute value and text run carrying entity references —
/// the decode path. The regression gate ratios every series against
/// `per_document`.
fn bench_markup_coverage(h: &mut Harness) {
    use redet_bench::{book_markup_events, events_to_xml};
    use redet_schema::{DocId, SchemaBuilder};

    h.group("E16_markup_coverage");
    let schema = SchemaBuilder::new()
        .parse_dtd(redet_workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles");
    let (n_docs, chapters) = if h.is_fast() { (16, 2) } else { (64, 4) };
    let documents: Vec<Vec<redet_bench::DocEvent>> = (0..n_docs)
        .map(|i| book_markup_events(&schema, chapters, 0xE16 ^ i as u64))
        .collect();
    let total_events: usize = documents.iter().map(Vec::len).sum();
    h.throughput(total_events as u64);

    let mut validator = schema.validator();
    h.bench("per_document", n_docs, || {
        documents
            .iter()
            .filter(|d| validator.validate_events(d).is_ok())
            .count()
    });

    /// The E13 interleaved byte-serving loop: 4 KiB chunks round-robin.
    fn byte_round(
        service: &mut redet_schema::ValidationService,
        streams: &[String],
        handles: &mut Vec<DocId>,
        cursors: &mut Vec<usize>,
    ) -> usize {
        handles.clear();
        handles.extend((0..streams.len()).map(|_| service.open()));
        cursors.clear();
        cursors.resize(streams.len(), 0);
        let mut live = streams.len();
        while live > 0 {
            live = 0;
            for (i, xml) in streams.iter().enumerate() {
                let bytes = xml.as_bytes();
                let cursor = cursors[i];
                if cursor >= bytes.len() {
                    continue;
                }
                let end = (cursor + 4096).min(bytes.len());
                let _ = service.feed_bytes(handles[i], &bytes[cursor..end]);
                cursors[i] = end;
                if end < bytes.len() {
                    live += 1;
                }
            }
        }
        handles
            .drain(..)
            .filter(|&h| service.finish(h).is_ok())
            .count()
    }

    let mut service = schema.service();
    let mut handles: Vec<DocId> = Vec::with_capacity(n_docs);
    let mut cursors: Vec<usize> = Vec::with_capacity(n_docs);
    h.bench("service_events", n_docs, || {
        handles.clear();
        handles.extend((0..documents.len()).map(|_| service.open()));
        cursors.clear();
        cursors.resize(documents.len(), 0);
        let mut live = documents.len();
        while live > 0 {
            live = 0;
            for (i, doc) in documents.iter().enumerate() {
                let cursor = cursors[i];
                if cursor >= doc.len() {
                    continue;
                }
                let end = (cursor + 64).min(doc.len());
                let _ = service.feed(handles[i], &doc[cursor..end]);
                cursors[i] = end;
                if end < doc.len() {
                    live += 1;
                }
            }
        }
        handles
            .drain(..)
            .filter(|&h| service.finish(h).is_ok())
            .count()
    });

    let streams: Vec<String> = documents
        .iter()
        .map(|events| events_to_xml(&schema, events))
        .collect();
    h.bench("service_bytes", n_docs, || {
        byte_round(&mut service, &streams, &mut handles, &mut cursors)
    });

    // The same documents with entity references in every attribute value
    // and text run: the reference-decode path at serving density.
    let entity_streams: Vec<String> = documents
        .iter()
        .map(|events| {
            let mut out = String::new();
            let mut stack: Vec<&str> = Vec::new();
            let mut pending = false;
            for event in events {
                match event {
                    redet_bench::DocEvent::Open(sym) => {
                        if pending {
                            out.push('>');
                        }
                        let name = schema.name(*sym);
                        out.push('<');
                        out.push_str(name);
                        stack.push(name);
                        pending = true;
                    }
                    redet_bench::DocEvent::Attr(sym) => {
                        let name = schema.name(*sym);
                        out.push(' ');
                        out.push_str(name);
                        out.push_str("=\"a&amp;b &#x2013; &lt;c&gt;\"");
                    }
                    redet_bench::DocEvent::Text => {
                        if pending {
                            out.push('>');
                            pending = false;
                        }
                        out.push_str("G &amp; S &#x2013; &quot;vol.&quot; &#49; &apos;x&apos;");
                    }
                    redet_bench::DocEvent::Close => {
                        let name = stack.pop().expect("balanced stream");
                        if pending {
                            out.push_str("/>");
                            pending = false;
                        } else {
                            out.push_str("</");
                            out.push_str(name);
                            out.push('>');
                        }
                    }
                    _ => unreachable!("the generator emits only the four event kinds"),
                }
            }
            out
        })
        .collect();
    h.bench("service_bytes_entities", n_docs, || {
        byte_round(&mut service, &entity_streams, &mut handles, &mut cursors)
    });
}

/// E17: the schema registry — cache-hit opens vs direct validator
/// construction (gated), corpus compilation cold vs cache-hot, and
/// hot-swap latency (both measured, ungated: their cost is pipeline- and
/// lock-bound, not comparable across machines as a ratio to validation
/// work).
fn bench_schema_registry(h: &mut Harness) {
    use redet_schema::registry::{Registry, SharedSchema};
    use redet_schema::{Schema, SchemaBuilder};
    use std::sync::Arc;

    h.group("E17_schema_registry");
    let (distinct, total, inflight) = if h.is_fast() {
        (8, 48, 16)
    } else {
        (32, 256, 64)
    };
    let sources = redet_workloads::schema_corpus(distinct, total, 0xE17);

    // Registry-mediated opens vs direct validator construction over the
    // same per-source artifact sequence. `open_handle` is the serving
    // path after a publish — `SharedSchema::load` (read lock + `Arc`
    // clone) then `validator()` — and must be noise next to building the
    // validator from an already-held `Arc`. `open_rehash` re-presents the
    // DTD text on every open (normalize + hash + map probe, all cache
    // hits): measured at its own param because its cost is `O(|text|)` by
    // design, not comparable as a same-param ratio. `open_direct` is the
    // group's gate reference.
    let mut registry = Registry::new();
    let artifacts: Vec<Arc<Schema>> = sources
        .iter()
        .map(|s| registry.compile(s).expect("corpus schemas compile"))
        .collect();
    let handles: Vec<Arc<SharedSchema>> = artifacts
        .iter()
        .map(|schema| Arc::new(SharedSchema::new(Arc::clone(schema))))
        .collect();
    h.throughput(total as u64);
    h.bench("open_direct", total, || {
        artifacts
            .iter()
            .map(|schema| schema.validator().schema().len())
            .sum::<usize>()
    });
    h.bench("open_handle", total, || {
        handles
            .iter()
            .map(|handle| handle.load().validator().schema().len())
            .sum::<usize>()
    });

    // Corpus compilation, cold (fresh registry, every distinct text runs
    // the pipeline) vs cache-hot (all hits), plus the per-open rehash —
    // all at a different param than the open series so the gate never
    // ratios `O(|text|)` hashing or pipeline time against opens.
    h.throughput(distinct as u64);
    h.bench("open_rehash", distinct, || {
        sources
            .iter()
            .take(distinct)
            .map(|s| registry.compile(s).unwrap().validator().schema().len())
            .sum::<usize>()
    });
    h.bench("compile_cold", distinct, || {
        let mut fresh = Registry::new();
        for source in &sources {
            let _ = fresh.compile(source);
        }
        fresh.stats().compiled
    });
    h.bench("compile_cached", distinct, || {
        for source in &sources {
            let _ = registry.compile(source);
        }
        registry.stats().compiled
    });

    // Hot-swap latency: one `SharedSchema::publish` plus the `load` a
    // server connection compares its document's schema against before
    // each request. Documents in flight hold their own `Arc` and are
    // untouched by design; the param stays `inflight` so the series keeps
    // its committed key.
    let v1: Arc<Schema> = SchemaBuilder::new()
        .parse_dtd(
            "<!ELEMENT doc (title, author)><!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>",
        )
        .build()
        .expect("v1 compiles");
    let v2: Arc<Schema> = SchemaBuilder::new()
        .parse_dtd("<!ELEMENT doc (title, author, year)><!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT year (#PCDATA)>")
        .build()
        .expect("v2 compiles");
    let shared = SharedSchema::new(Arc::clone(&v1));
    let mut flip = false;
    h.throughput(1);
    h.bench("swap_inflight", inflight, || {
        flip = !flip;
        let next = if flip { &v2 } else { &v1 };
        shared.publish(Arc::clone(next));
        shared.load()
    });
}

fn main() {
    let mut h = Harness::new();
    bench_check_if_follow(&mut h);
    bench_k_occurrence(&mut h);
    bench_path_decomposition(&mut h);
    bench_colored_ancestor(&mut h);
    bench_star_free(&mut h);
    bench_compile_once_match_many(&mut h);
    bench_document_validation(&mut h);
    bench_interleaved_serving(&mut h);
    bench_tokenizer_throughput(&mut h);
    bench_overload_serving(&mut h);
    bench_markup_coverage(&mut h);
    bench_schema_registry(&mut h);
    h.finish("matching");
}
