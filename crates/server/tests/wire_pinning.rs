//! Pins the stable single-line wire/CLI rendering of verdicts.
//!
//! Every assertion here compares against an **exact string literal**. The
//! rendering is shared by server responses and CLI output and is part of
//! the crate's compatibility surface: a client may parse these lines, so
//! any change to them must be deliberate and show up as an edit to this
//! file. The diagnostics themselves come from real API calls (the schema
//! compiler, the governed service), not hand-built structs, so the pins
//! also lock the end-to-end message text a user actually sees.

use redet_core::{Code, Diagnostic};
use redet_schema::{Document, FeedStatus, SchemaBuilder, ServiceLimits};
use redet_server::server::connection_cap_refusal;
use redet_server::wire::{render_diagnostic, render_verdict};

#[test]
fn ok_renders_as_ok() {
    assert_eq!(render_verdict(&Ok(())), "ok");
}

#[test]
fn parse_error_carries_its_byte_span() {
    let diagnostics = SchemaBuilder::new()
        .element("a", "(b,)")
        .build()
        .unwrap_err();
    let line = render_diagnostic(&diagnostics[0]);
    assert_eq!(diagnostics[0].code(), Code::Parse);
    assert!(
        line.starts_with("err E001 "),
        "expected an E001 line, got: {line}"
    );
    // The span is a concrete byte range, not the `-` placeholder.
    let span = line.split(' ').nth(2).unwrap();
    assert!(span.contains(".."), "expected start..end span, got: {line}");
}

#[test]
fn over_deep_content_models_are_pinned() {
    // A publish body whose content model is too deep to compile safely is
    // refused at parse time, with the span at the token that crossed the
    // cap. One line per cap: parenthesis nesting and tree depth.
    let render = |model: String| {
        let diagnostics = SchemaBuilder::new()
            .parse_dtd(&format!("<!ELEMENT doc {model}>"))
            .build()
            .unwrap_err();
        render_diagnostic(&diagnostics[0])
    };
    let nested = format!("{}a{}", "(".repeat(1001), ")".repeat(1001));
    assert_eq!(
        render(nested),
        "err E001 1014..1014 in the content model of <doc>: parentheses nest \
         deeper than 1000 levels"
    );
    let sequence = format!("({})", vec!["a"; 4501].join(", "));
    assert_eq!(
        render(sequence),
        "err E001 13513..13513 in the content model of <doc>: expression nests \
         deeper than 4500 levels"
    );
}

#[test]
fn over_large_counted_models_are_pinned() {
    // A counted publish body is refused before it is unrolled when the
    // unrolled tree would cross a cap, at the counted node's `{`. One line
    // per cap: depth, positions, position-set entries.
    let render = |model: &str| {
        let diagnostics = SchemaBuilder::new()
            .parse_dtd(&format!("<!ELEMENT doc {model}>"))
            .build()
            .unwrap_err();
        render_diagnostic(&diagnostics[0])
    };
    assert_eq!(
        render("(a{100000})"),
        "err E001 16..16 in the content model of <doc>: counted repetition \
         unrolls deeper than 4500 levels"
    );
    let sequence = vec!["a"; 1000].join(", ");
    assert_eq!(
        render(&format!("(({sequence}){{66}})")),
        "err E001 3015..3015 in the content model of <doc>: counted repetition \
         unrolls to more than 65536 positions"
    );
    assert_eq!(
        render("((a, b?){1,20000})"),
        "err E001 22..22 in the content model of <doc>: counted repetition \
         unrolls to more than 2097152 position-set entries"
    );
}

#[test]
fn over_budget_schemas_are_pinned() {
    // Counted models each within every per-model cap, but together past
    // the schema-wide unroll budget: one line at the declaration that
    // crossed it, for positions and for position-set entries.
    let render = |dtd: String| {
        let diagnostics = SchemaBuilder::new().parse_dtd(&dtd).build().unwrap_err();
        assert_eq!(diagnostics.len(), 1);
        render_diagnostic(&diagnostics[0])
    };
    let deep: String = (0..60)
        .map(|i| format!("<!ELEMENT e{i} (a{{4500}})>\n"))
        .collect();
    assert_eq!(
        render(deep),
        "err E001 1454..1454 in the content model of <e58>: the counted \
         repetitions of this schema unroll to more than 262144 positions in total"
    );
    let union: Vec<String> = (0..834).map(|i| format!("a{i}")).collect();
    let wide: String = (0..5)
        .map(|i| format!("<!ELEMENT e{i} (({}){{1,2}})>\n", union.join(" | ")))
        .collect();
    assert_eq!(
        render(wide),
        "err E001 23009..23009 in the content model of <e4>: the counted \
         repetitions of this schema unroll to more than 8388608 position-set \
         entries in total"
    );
}

#[test]
fn validation_error_appends_the_document_location() {
    let schema = SchemaBuilder::new()
        .element("bibliography", "(book)+")
        .element("book", "(author+, title)")
        .element_empty("author")
        .element_empty("title")
        .build()
        .unwrap();
    let mut service = schema.service();
    let doc = service.try_open().unwrap();
    assert_eq!(
        service.feed_bytes(doc, b"<bibliography><book><title/>"),
        FeedStatus::Rejected
    );
    let line = render_verdict(&service.finish(doc));
    assert_eq!(
        line,
        "err E202 - <title> cannot appear as child #0 of <book>: the content \
         model has no continuation for it here at /bibliography/book (event 2)"
    );
}

#[test]
fn overload_refusal_is_pinned() {
    let schema = SchemaBuilder::new().element_empty("leaf").build().unwrap();
    let mut service = schema.service_with_limits(ServiceLimits::default().with_max_in_flight(2));
    let _a = service.try_open().unwrap();
    let _b = service.try_open().unwrap();
    let refusal = service.try_open().unwrap_err();
    assert_eq!(
        render_diagnostic(&refusal),
        "err E305 - service is at its in-flight handle cap of 2"
    );
}

#[test]
fn connection_cap_refusal_is_pinned() {
    assert_eq!(
        render_diagnostic(&connection_cap_refusal(2)),
        "err E305 - server is at its connection cap of 2"
    );
}

#[test]
fn idle_sweep_refusal_is_pinned() {
    let schema = SchemaBuilder::new()
        .element("root", "(leaf)*")
        .element_empty("leaf")
        .build()
        .unwrap();
    let mut doc = Document::new(schema, ServiceLimits::default().with_idle_budget(1));
    assert_eq!(doc.feed_bytes(b"<root>"), FeedStatus::NeedMore);
    let line = render_verdict(&Err(doc.time_out()));
    assert_eq!(
        line,
        "err E306 - document sat idle past the idle budget of 1 tick(s) \
         at /root (event 1)"
    );
}

#[test]
fn over_long_attribute_value_is_pinned() {
    // One byte past the tokenizer's value-length cap is an E310 resource
    // refusal at the start tag that carries the value.
    let schema = SchemaBuilder::new()
        .parse_dtd("<!ELEMENT doc EMPTY><!ATTLIST doc a CDATA #IMPLIED>")
        .build()
        .unwrap();
    let document = format!("<doc a='{}'/>", "v".repeat(65_537));
    let mut service = schema.service();
    let doc = service.try_open().unwrap();
    assert_eq!(
        service.feed_bytes(doc, document.as_bytes()),
        FeedStatus::Rejected
    );
    assert_eq!(
        render_verdict(&service.finish(doc)),
        "err E310 - attribute value exceeds the value-length cap at /doc (event 1)"
    );
}

#[test]
fn markup_diagnostics_are_pinned() {
    // The full-markup diagnostic family (attributes, character data,
    // entity references) renders through the same single-line grammar —
    // these lines reach clients byte-identically over the wire and from
    // the CLI, whichever transport fed the document.
    let dtd = "<!ELEMENT note (title, body?)>\
               <!ELEMENT title (#PCDATA)>\
               <!ELEMENT body EMPTY>\
               <!ATTLIST note id CDATA #REQUIRED lang CDATA #IMPLIED>";
    let schema = SchemaBuilder::new().parse_dtd(dtd).build().unwrap();
    let mut service = schema.service();
    let cases: [(&[u8], &str); 5] = [
        (
            b"<note lang='x'>",
            "err E210 - element 'note' is missing the required attribute 'id' \
             at /note (event 0)",
        ),
        (
            b"<note id='1' kind='x'>",
            "err E208 - attribute 'kind' is not declared on element 'note' \
             at /note (event 2)",
        ),
        (
            b"<note id='1' id='2'>",
            "err E209 - attribute 'id' appears more than once on element \
             'note' at /note (event 2)",
        ),
        (
            b"<note id='1'><title>t</title><body>text",
            "err E211 - element 'body' does not allow character data \
             at /note/body (event 6)",
        ),
        (
            b"<note id='1'><title>a &bogus; b",
            "err E207 - unknown entity reference at /note/title (event 4)",
        ),
    ];
    for (bytes, expected) in cases {
        let doc = service.try_open().unwrap();
        let _ = service.feed_bytes(doc, bytes);
        assert_eq!(render_verdict(&service.finish(doc)), expected);
    }
}

#[test]
fn messages_never_break_the_line() {
    let d = Diagnostic::new(Code::MalformedMarkup, "first\nsecond\rthird");
    assert_eq!(render_diagnostic(&d), "err E206 - first\\nsecond\\rthird");
}
