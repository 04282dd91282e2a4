//! Shared helpers for the benchmark harness and the experiment runner.
//!
//! The paper contains no measurement tables; its experimental content is a
//! set of complexity claims. This crate provides the glue shared by the
//! benches and by the `experiments` binary that prints the claim-by-claim
//! comparison tables:
//!
//! * [`compile_workload`] — run a generated workload through the shared
//!   compilation pipeline once, producing the [`CompiledAnalysis`] artifact
//!   every matcher is constructed from (compile-once / match-many is what
//!   the benches measure);
//! * matcher constructors over the artifact;
//! * [`harness`] — a dependency-free micro-benchmark harness (median of
//!   timed batches) with a JSON report, standing in for Criterion, which is
//!   unavailable in offline builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use redet_core::matcher::colored::ColoredAncestorMatcher;
use redet_core::matcher::kocc::KOccurrenceMatcher;
use redet_core::matcher::pathdecomp::PathDecompositionMatcher;
use redet_core::matcher::starfree::StarFreeMatcher;
use redet_core::matcher::PositionMatcher;
use redet_core::CompiledAnalysis;
use redet_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measures the wall-clock time of `f`, repeated `repeats` times, returning
/// the *average* duration per repetition.
pub fn time<T>(repeats: usize, mut f: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(f());
    }
    start.elapsed() / repeats.max(1) as u32
}

/// Formats a duration in microseconds with three significant digits.
pub fn micros(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e6)
}

/// Runs a generated workload through the full compilation pipeline exactly
/// once: interning is already done by the generator, so this performs the
/// normalize → analyze → certify stages and returns the shared artifact.
pub fn compile_workload(workload: &Workload) -> Arc<CompiledAnalysis> {
    CompiledAnalysis::from_regex(workload.regex.clone(), workload.alphabet.clone())
        .expect("benchmark workloads are deterministic")
}

/// Bounded-occurrence matcher (Theorem 4.3) over the shared artifact.
pub fn kocc_matcher(compiled: &CompiledAnalysis) -> PositionMatcher<KOccurrenceMatcher> {
    PositionMatcher::new(KOccurrenceMatcher::from_compiled(compiled))
}

/// Path-decomposition matcher (Theorem 4.10) over the shared artifact.
pub fn pathdecomp_matcher(
    compiled: &CompiledAnalysis,
) -> PositionMatcher<PathDecompositionMatcher> {
    PositionMatcher::new(
        PathDecompositionMatcher::from_compiled(compiled).expect("workloads are counting-free"),
    )
}

/// Lowest-colored-ancestor matcher (Theorem 4.2) over the shared artifact.
pub fn colored_matcher(compiled: &CompiledAnalysis) -> PositionMatcher<ColoredAncestorMatcher> {
    PositionMatcher::new(
        ColoredAncestorMatcher::from_compiled(compiled)
            .expect("counting-free workloads carry a certificate"),
    )
}

/// Star-free matcher (Theorem 4.12) over the shared artifact.
pub fn starfree_matcher(compiled: &CompiledAnalysis) -> StarFreeMatcher {
    StarFreeMatcher::from_compiled(compiled).expect("workload is star-free")
}

/// Prints a Markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// One pre-interned document event, re-exported from `redet-schema` — the
/// form the validation hot loop and the batch API consume.
pub use redet_schema::DocEvent;

/// The fixed character-data run [`events_to_xml`] writes for every
/// [`DocEvent::Text`] — entity-free, so the byte path tokenizes it into
/// exactly one text event and verdicts stay transport-independent.
pub const TEXT_RUN: &str = "The quick brown fox jumps over the lazy dog.";

/// Serializes a pre-interned event stream back to plain tag soup, the
/// inverse the byte-ingestion surfaces consume — the E13/E16 benches and
/// the allocation regression pipe it back through
/// `ValidationService::feed_bytes`.
///
/// Full markup round-trips: `Attr` events render as ` name="name"` inside
/// the pending start tag, `Text` events as [`TEXT_RUN`], and an open tag
/// whose next structural event is its close collapses to the self-closing
/// `<name …/>` form. The serialization is deterministic, and feeding it
/// back yields the verdict of the original event stream.
pub fn events_to_xml(schema: &redet_schema::Schema, events: &[DocEvent]) -> String {
    let mut out = String::new();
    let mut stack: Vec<&str> = Vec::new();
    // An open tag is held unterminated until the first non-attribute event
    // decides between `>` and the self-closing `/>`.
    let mut pending = false;
    for event in events {
        match event {
            DocEvent::Open(sym) => {
                if pending {
                    out.push('>');
                }
                let name = schema.name(*sym);
                out.push('<');
                out.push_str(name);
                stack.push(name);
                pending = true;
            }
            DocEvent::Attr(sym) => {
                assert!(pending, "attribute events follow their open event");
                let name = schema.name(*sym);
                out.push(' ');
                out.push_str(name);
                out.push_str("=\"");
                out.push_str(name);
                out.push('"');
            }
            DocEvent::Text => {
                if pending {
                    out.push('>');
                    pending = false;
                }
                out.push_str(TEXT_RUN);
            }
            DocEvent::Close => {
                let name = stack.pop().expect("balanced event stream");
                if pending {
                    out.push_str("/>");
                    pending = false;
                } else {
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
            _ => unreachable!("the generators emit only the four event kinds"),
        }
    }
    if pending {
        out.push('>'); // truncated stream ends inside a start tag
    }
    out
}

/// Generates a random, **schema-valid** document against
/// [`redet_workloads::BOOK_DTD`] as a pre-interned event stream: a book
/// with `chapters` chapters, randomly nested sections (depth ≤ 3), lists,
/// tables, figures, and a back-matter index whose entries exercise the
/// counted `locator{1,4}` model. Used by the E11 `document_validation`
/// benchmark and its DFA-per-element baseline.
pub fn book_document_events(
    schema: &redet_schema::Schema,
    chapters: usize,
    seed: u64,
) -> Vec<DocEvent> {
    use redet_workloads::rng::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let s = |name: &str| schema.lookup(name).expect("BOOK_DTD element");
    let (book, front, body, back) = (s("book"), s("front"), s("body"), s("back"));
    let (title, subtitle, author, date) = (s("title"), s("subtitle"), s("author"), s("date"));
    let (chapter, epigraph, section, interlude) =
        (s("chapter"), s("epigraph"), s("section"), s("interlude"));
    let (para, list, item, table, row_, figure, caption, code, attribution) = (
        s("para"),
        s("list"),
        s("item"),
        s("table"),
        s("row"),
        s("figure"),
        s("caption"),
        s("code"),
        s("attribution"),
    );
    let (appendix, index, entry, term, locator, cell) = (
        s("appendix"),
        s("index"),
        s("entry"),
        s("term"),
        s("locator"),
        s("cell"),
    );

    let mut events: Vec<DocEvent> = Vec::new();
    fn open(events: &mut Vec<DocEvent>, sym: redet_syntax::Symbol) {
        events.push(DocEvent::Open(sym));
    }
    fn close(events: &mut Vec<DocEvent>) {
        events.push(DocEvent::Close);
    }
    fn leaf(events: &mut Vec<DocEvent>, sym: redet_syntax::Symbol) {
        open(events, sym);
        close(events);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_section(
        events: &mut Vec<DocEvent>,
        rng: &mut StdRng,
        depth: usize,
        section: redet_syntax::Symbol,
        title: redet_syntax::Symbol,
        blocks: &[redet_syntax::Symbol; 4],
        item: redet_syntax::Symbol,
        row_: redet_syntax::Symbol,
        cell: redet_syntax::Symbol,
        caption: redet_syntax::Symbol,
    ) {
        let [para, list, table, figure] = *blocks;
        open(events, section);
        leaf(events, title);
        for _ in 0..rng.gen_range(1..6usize) {
            match rng.gen_range(0..8usize) {
                0 => {
                    open(events, list);
                    for _ in 0..rng.gen_range(1..4usize) {
                        leaf(events, item);
                    }
                    close(events);
                }
                1 => {
                    open(events, table);
                    if rng.gen_bool(0.5) {
                        leaf(events, caption);
                    }
                    for _ in 0..rng.gen_range(1..3usize) {
                        open(events, row_);
                        for _ in 0..rng.gen_range(1..4usize) {
                            leaf(events, cell);
                        }
                        close(events);
                    }
                    close(events);
                }
                2 => {
                    open(events, figure);
                    if rng.gen_bool(0.5) {
                        leaf(events, caption);
                    }
                    close(events);
                }
                3 if depth > 0 => {
                    emit_section(
                        events,
                        rng,
                        depth - 1,
                        section,
                        title,
                        blocks,
                        item,
                        row_,
                        cell,
                        caption,
                    );
                }
                _ => leaf(events, para),
            }
        }
        close(events);
    }

    open(&mut events, book);
    // Front matter.
    open(&mut events, front);
    leaf(&mut events, title);
    if rng.gen_bool(0.5) {
        leaf(&mut events, subtitle);
    }
    for _ in 0..rng.gen_range(1..4usize) {
        leaf(&mut events, author);
    }
    if rng.gen_bool(0.5) {
        leaf(&mut events, date);
    }
    close(&mut events);
    // Body.
    open(&mut events, body);
    let blocks = [para, list, table, figure];
    let _ = code; // mixed-content child of <para>; paras stay childless here
    for _ in 0..chapters.max(1) {
        open(&mut events, chapter);
        leaf(&mut events, title);
        if rng.gen_bool(0.3) {
            open(&mut events, epigraph);
            leaf(&mut events, para);
            if rng.gen_bool(0.5) {
                leaf(&mut events, attribution);
            }
            close(&mut events);
        }
        for _ in 0..rng.gen_range(1..4usize) {
            if rng.gen_bool(0.15) {
                open(&mut events, interlude);
                for _ in 0..rng.gen_range(1..3usize) {
                    leaf(&mut events, para);
                }
                close(&mut events);
            } else {
                emit_section(
                    &mut events,
                    &mut rng,
                    2,
                    section,
                    title,
                    &blocks,
                    item,
                    row_,
                    cell,
                    caption,
                );
            }
        }
        close(&mut events);
    }
    close(&mut events);
    // Back matter: appendices and the index with counted locators.
    open(&mut events, back);
    for _ in 0..rng.gen_range(0..3usize) {
        open(&mut events, appendix);
        leaf(&mut events, title);
        for _ in 0..rng.gen_range(0..3usize) {
            leaf(&mut events, para);
        }
        close(&mut events);
    }
    open(&mut events, index);
    for _ in 0..rng.gen_range(2..8usize) {
        open(&mut events, entry);
        leaf(&mut events, term);
        for _ in 0..rng.gen_range(1..5usize) {
            leaf(&mut events, locator);
        }
        close(&mut events);
    }
    close(&mut events);
    close(&mut events);
    close(&mut events); // </book>
    events
}

/// Enriches an element-only [`book_document_events`] stream with the full
/// markup surface: declared attributes (all `#IMPLIED` in
/// [`redet_workloads::BOOK_DTD`]) after a fraction of the open events, and
/// character data inside the `(#PCDATA)` leaves. The result stays
/// schema-valid; it drives the E16 full-markup benchmark, the service
/// equivalence corpus, and the allocation regression.
pub fn book_markup_events(
    schema: &redet_schema::Schema,
    chapters: usize,
    seed: u64,
) -> Vec<DocEvent> {
    use redet_workloads::rng::StdRng;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA77);
    let base = book_document_events(schema, chapters, seed);
    let s = |name: &str| schema.lookup(name).expect("BOOK_DTD name");
    // (element, its declared attributes) — mirrors the `<!ATTLIST …>` block
    // of `BOOK_DTD`; attribute names live in the same interned alphabet as
    // element names.
    let declared: [(redet_syntax::Symbol, Vec<redet_syntax::Symbol>); 6] = [
        (s("book"), vec![s("lang"), s("edition")]),
        (s("chapter"), vec![s("id")]),
        (s("section"), vec![s("id")]),
        (s("figure"), vec![s("src"), s("width")]),
        (s("para"), vec![s("role")]),
        (s("locator"), vec![s("page")]),
    ];
    let text_leaves = [
        s("title"),
        s("subtitle"),
        s("author"),
        s("date"),
        s("para"),
        s("caption"),
    ];
    let mut events = Vec::with_capacity(base.len() * 2);
    for (i, event) in base.iter().enumerate() {
        events.push(*event);
        if let DocEvent::Open(sym) = event {
            if let Some((_, attrs)) = declared.iter().find(|(elem, _)| elem == sym) {
                for attr in attrs {
                    if rng.gen_bool(0.6) {
                        events.push(DocEvent::Attr(*attr));
                    }
                }
            }
            // One text event per `(#PCDATA)` leaf: the byte path coalesces
            // a contiguous character-data run into a single event, so the
            // generator never emits two in a row.
            if text_leaves.contains(sym)
                && matches!(base.get(i + 1), Some(DocEvent::Close))
                && rng.gen_bool(0.8)
            {
                events.push(DocEvent::Text);
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_automata::PosStepper;
    use redet_workloads as workloads;

    #[test]
    fn helpers_build_working_matchers_from_one_artifact() {
        let w = workloads::chare(10, 3, 1);
        let compiled = compile_workload(&w);
        let word = workloads::sample_member_word(&w.regex, 30, 7);
        let kocc = kocc_matcher(&compiled);
        let path = pathdecomp_matcher(&compiled);
        let colored = colored_matcher(&compiled);
        assert!(kocc.matches(&word));
        assert!(path.matches(&word));
        assert!(colored.matches(&word));
        // All three share the same underlying analysis allocation.
        use redet_core::TransitionSim;
        assert!(std::ptr::eq(
            compiled.analysis().as_ref(),
            kocc.sim().analysis()
        ));
        assert!(std::ptr::eq(
            compiled.analysis().as_ref(),
            colored.sim().analysis()
        ));
    }

    #[test]
    fn generated_book_documents_are_valid() {
        let schema = redet_schema::SchemaBuilder::new()
            .parse_dtd(redet_workloads::BOOK_DTD)
            .build()
            .expect("BOOK_DTD compiles");
        let mut validator = schema.validator();
        for seed in 0..5u64 {
            let events = book_document_events(&schema, 3, seed);
            assert!(events.len() > 50, "seed {seed}: document too small");
            if let Err(diags) = validator.validate_events(&events) {
                panic!("seed {seed}: generated document invalid: {diags:?}");
            }
        }
    }

    #[test]
    fn markup_documents_are_valid_and_round_trip_through_bytes() {
        let schema = redet_schema::SchemaBuilder::new()
            .parse_dtd(redet_workloads::BOOK_DTD)
            .build()
            .expect("BOOK_DTD compiles");
        let mut validator = schema.validator();
        let mut service = schema.service();
        for seed in 0..5u64 {
            let events = book_markup_events(&schema, 2, seed);
            assert!(
                events.iter().any(|e| matches!(e, DocEvent::Attr(_)))
                    && events.iter().any(|e| matches!(e, DocEvent::Text)),
                "seed {seed}: markup stream carries attributes and text"
            );
            if let Err(diags) = validator.validate_events(&events) {
                panic!("seed {seed}: markup document invalid: {diags:?}");
            }
            // The serialized form validates over the byte path too.
            let xml = events_to_xml(&schema, &events);
            assert!(xml.contains(" lang=\"lang\"") || xml.contains(" id=\"id\""));
            assert!(xml.contains(TEXT_RUN));
            let doc = service.open();
            let _ = service.feed_bytes(doc, xml.as_bytes());
            assert!(service.finish(doc).is_ok(), "seed {seed}: bytes invalid");
        }
    }

    #[test]
    fn timing_helper_runs() {
        let d = time(3, || 1 + 1);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(!micros(d).is_empty());
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
