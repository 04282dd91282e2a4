//! Cross-oracle property tests for the bulk-scanning tokenizer.
//!
//! The tokenizer ships two scanners with identical semantics: the bulk
//! SWAR scanner (`Tokenizer::feed`, the production path) and the original
//! byte-at-a-time scanner (`Tokenizer::feed_scalar`, kept as the reference
//! oracle). This suite generates seeded random tag soup — well-formed tags,
//! attributes with hostile quoting, text runs, entity and character
//! references (valid and bogus), comments, CDATA sections, processing
//! instructions, doctypes with literals and internal subsets, malformed
//! markup, non-UTF-8 bytes, and names around the length cap — and checks
//! that bulk == scalar, **token for token**, under *every* chunk split of
//! every document, and that every chunking agrees with the whole-input scan
//! once consecutive text segments are concatenated (segment boundaries move
//! with the chunking; their concatenation must not). Chunk boundaries are
//! the hard part of the bulk scanner (the borrow-from-chunk fast path must
//! fall back to the side buffers exactly when a construct straddles a
//! boundary), so the sweep is exhaustive rather than sampled.

use redet::schema::tokenizer::{Tag, Tokenizer};
use redet::SchemaBuilder;
use redet_core::Code;

/// A tiny deterministic RNG (splitmix-style) so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Appends one random document fragment: anything the tokenizer's grammar
/// knows about, including constructs it must *reject* identically.
fn push_fragment(doc: &mut Vec<u8>, rng: &mut Rng) {
    const NAMES: &[&str] = &["a", "doc", "item-x", "ns:tag", "日本語", "_u"];
    // `x&lt;` and `&#X41;` put a whole reference right before whatever
    // fragment follows, often a `<`.
    const TEXT: &[&str] = &["", "text", " >>] ?-- ", "a & b", "\n\t ", "x&lt;", "&#X41;"];
    match rng.below(18) {
        0 | 1 => {
            // Start tag, possibly with attributes and tricky quotes.
            doc.push(b'<');
            doc.extend_from_slice(rng.pick(NAMES).as_bytes());
            for _ in 0..rng.below(3) {
                let quote = if rng.below(2) == 0 { b'\'' } else { b'"' };
                // The in-chunk reference decode's edges: contents of 7, 8,
                // 10 and 11 bytes, adjacent references, a `;` after a
                // non-name byte, upper-case hex, and a reference right
                // before the closing quote.
                const VALUES: &[&[u8]] = &[
                    b"v",
                    b">",
                    b"/>",
                    b"<",
                    b"'\"",
                    b"&amp;v",
                    b"&x;",
                    b"&#x10FFF;",
                    b"&#x10FFFF;",
                    b"&#x0010FFFF;",
                    b"&#x00010FFFF;",
                    b"&lt;&gt;",
                    b"&a b;",
                    b"&a<b;",
                    b"&;",
                    b"&#X41;",
                    b"v&amp;",
                ];
                doc.extend_from_slice(b" attr=");
                doc.push(quote);
                doc.extend_from_slice(rng.pick(VALUES));
                doc.push(quote);
            }
            if rng.below(3) == 0 {
                doc.push(b'/');
            }
            doc.push(b'>');
        }
        2 | 3 => {
            // End tag, sometimes with trailing whitespace.
            doc.extend_from_slice(b"</");
            doc.extend_from_slice(rng.pick(NAMES).as_bytes());
            if rng.below(3) == 0 {
                doc.push(b' ');
            }
            doc.push(b'>');
        }
        4 | 5 => doc.extend_from_slice(rng.pick(TEXT).as_bytes()),
        6 => {
            // Comment with embedded dashes and '>'s.
            const BODIES: &[&[u8]] = &[b" c ", b"-", b"--", b"->", b">", b"- >"];
            doc.extend_from_slice(b"<!--");
            doc.extend_from_slice(rng.pick(BODIES));
            doc.extend_from_slice(b"-->");
        }
        7 => {
            // CDATA with embedded ']'s and fake terminators.
            const BODIES: &[&[u8]] = &[b"<tag>", b"]", b"]]", b"] ]>", b">"];
            doc.extend_from_slice(b"<![CDATA[");
            doc.extend_from_slice(rng.pick(BODIES));
            doc.extend_from_slice(b"]]>");
        }
        8 => {
            // Processing instruction with embedded '?'s.
            const BODIES: &[&[u8]] = &[b"data", b"?", b"? >", b">"];
            doc.extend_from_slice(b"<?pi ");
            doc.extend_from_slice(rng.pick(BODIES));
            doc.extend_from_slice(b"?>");
        }
        9 => {
            // Doctype-ish constructs: literals may contain '>' and
            // brackets; internal subsets nest.
            const DOCTYPES: &[&[u8]] = &[
                b"<!DOCTYPE d>",
                b"<!DOCTYPE d SYSTEM 'x>y[z]'>",
                b"<!DOCTYPE d [ <!ENTITY e \">]\"> ]>",
                b"<![INCLUDE[ <x> ]]>",
                b"<!>",
            ];
            doc.extend_from_slice(rng.pick(DOCTYPES));
        }
        10 => {
            // Malformed markup the scanners must reject identically.
            const BROKEN: &[&[u8]] = &[
                b"<>", b"</>", b"</ >", b"< x>", b"<a=b>", b"</a b>", b"<a <b>", b"<a x <",
            ];
            doc.extend_from_slice(rng.pick(BROKEN));
        }
        11 => {
            // Hostile bytes: non-UTF-8 names, NULs, high bytes.
            const HOSTILE: &[&[u8]] = &[b"<\xFF\xFE>", b"<a\x80b>", b"\x00\x80\xFF", b"</\xC3(>"];
            doc.extend_from_slice(rng.pick(HOSTILE));
        }
        12 => {
            // Names around the cap boundary (exercised cheaply here; the
            // dedicated cap test covers the far side).
            let len = [1, 2, 63, 64, 65][rng.below(5)];
            doc.push(b'<');
            doc.extend(std::iter::repeat(b'n').take(len));
            doc.push(b'>');
        }
        13 => {
            // Entity and character references: the five predefined ones,
            // numeric forms, and bogus ones both scanners must reject at
            // the same byte — including the in-chunk decode's edges (the
            // `VALUES` list above has the same cases).
            const REFS: &[&[u8]] = &[
                b"&amp;",
                b"&lt;",
                b"&gt;",
                b"&quot;",
                b"&apos;",
                b"&#65;",
                b"&#x2013;",
                b"&bogus;",
                b"&#xZZ;",
                b"&#1114112;",
                b"& ",
                b"&unterminated",
                b"&#x10FFF;",
                b"&#x10FFFF;",
                b"&#x0010FFFF;",
                b"&#x00010FFFF;",
                b"&lt;&gt;",
                b"&a b;",
                b"&a<b;",
                b"&;",
                b"&#X41;",
                b"&amp;<b/>",
                b"&amp",
            ];
            doc.extend_from_slice(b"pre");
            doc.extend_from_slice(rng.pick(REFS));
            doc.extend_from_slice(b"post");
        }
        14 => {
            // Attribute spacing forms: valueless attributes, whitespace
            // around '=', and the unquoted-value rejection.
            const TAGS: &[&[u8]] = &[
                b"<a checked>",
                b"<a checked disabled/>",
                b"<a x = 'v'>",
                b"<a x\n=\n\"v\" y>",
                b"<a x=v>",
                b"<a / >",
            ];
            doc.extend_from_slice(rng.pick(TAGS));
        }
        _ => {
            // Nested well-formed runs keep some structure in the soup.
            doc.extend_from_slice(b"<r>t<s a='1'/>u</r>");
        }
    }
}

/// Owned rendering of a tag event, so streams can be compared across feeds.
fn render(tag: Tag<'_>) -> String {
    match tag {
        Tag::Open(n) => format!("<{}>", String::from_utf8_lossy(n)),
        Tag::Attr { name, value } => format!(
            " {}='{}'",
            String::from_utf8_lossy(name),
            String::from_utf8_lossy(value)
        ),
        Tag::SelfClose => "/>".to_owned(),
        Tag::Close(n) => format!("</{}>", String::from_utf8_lossy(n)),
        Tag::Text(t) => format!("'{}'", String::from_utf8_lossy(t)),
        Tag::Error(e) => format!("!{e}"),
    }
}

/// Merges consecutive `Text` renderings: segment boundaries move with the
/// chunking, their concatenation does not.
fn normalize(events: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for e in events {
        if e.starts_with('\'') && e.ends_with('\'') && e.len() >= 2 {
            if let Some(last) = out.last_mut() {
                if last.starts_with('\'') && last.ends_with('\'') {
                    let inner = &e[1..e.len() - 1];
                    last.truncate(last.len() - 1);
                    last.push_str(inner);
                    last.push('\'');
                    continue;
                }
            }
        }
        out.push(e.clone());
    }
    out
}

/// Scans `doc` split into `chunk`-byte pieces (0 = whole input) with the
/// chosen scanner, returning the rendered tag stream and final idleness.
fn scan(doc: &[u8], chunk: usize, scalar: bool) -> (Vec<String>, bool) {
    let mut tokenizer = Tokenizer::default();
    let mut tags = Vec::new();
    let mut sink = |tag: Tag<'_>| {
        tags.push(render(tag));
        true
    };
    let pieces: Vec<&[u8]> = if chunk == 0 {
        vec![doc]
    } else {
        doc.chunks(chunk).collect()
    };
    for piece in pieces {
        let consumed = if scalar {
            tokenizer.feed_scalar(piece, &mut sink)
        } else {
            tokenizer.feed(piece, &mut sink)
        };
        assert!(consumed, "a never-stopping sink consumes every chunk");
    }
    (tags, tokenizer.is_idle())
}

#[test]
fn bulk_equals_scalar_over_random_documents_and_all_chunk_splits() {
    let mut rng = Rng(0xDEC0DE);
    for round in 0..48 {
        let mut doc = Vec::new();
        for _ in 0..(4 + rng.below(24)) {
            push_fragment(&mut doc, &mut rng);
        }
        let whole = scan(&doc, 0, false);
        assert_eq!(
            whole,
            scan(&doc, 0, true),
            "round {round}: whole-input scan disagrees on {:?}",
            String::from_utf8_lossy(&doc)
        );
        let whole_norm = (normalize(&whole.0), whole.1);
        for chunk in 1..=doc.len() {
            let bulk = scan(&doc, chunk, false);
            // Bulk == scalar is exact, segment for segment, at the same
            // chunking.
            assert_eq!(
                bulk,
                scan(&doc, chunk, true),
                "round {round} chunk {chunk}: bulk != scalar on {:?}",
                String::from_utf8_lossy(&doc)
            );
            // Across chunkings only text segmentation may move.
            assert_eq!(
                (normalize(&bulk.0), bulk.1),
                whole_norm,
                "round {round} chunk {chunk}: bulk chunked != whole on {:?}",
                String::from_utf8_lossy(&doc)
            );
        }
    }
}

#[test]
fn full_markup_documents_survive_every_split() {
    // One handcrafted document touching every event kind: attributes with
    // entities in values, coalesced text with predefined and character
    // references, CDATA content, self-closing tags.
    let doc = "<doc lang='en' checked><title>G &amp; S &#x2013; vol. 1</title>\
               <note to=\"a&lt;b\"/><![CDATA[raw <markup> here]]>tail</doc>";
    let want = [
        "<doc>",
        " lang='en'",
        " checked=''",
        "<title>",
        "'G & S \u{2013} vol. 1'",
        "</title>",
        "<note>",
        " to='a<b'",
        "/>",
        "'raw <markup> heretail'",
        "</doc>",
    ];
    let whole = scan(doc.as_bytes(), 0, false);
    assert!(whole.1, "scanner should end idle");
    assert_eq!(normalize(&whole.0), want);
    for chunk in 1..doc.len() {
        let bulk = scan(doc.as_bytes(), chunk, false);
        assert_eq!(bulk, scan(doc.as_bytes(), chunk, true), "chunk {chunk}");
        assert_eq!(normalize(&bulk.0), want, "chunk {chunk}");
    }
}

#[test]
fn whole_references_decode_like_the_oracle_at_every_split() {
    // A reference whose `;` lies within the eight bytes after its `&`
    // decodes inside the scan loop when the chunk holds those bytes; any
    // other reference, or a chunk edge inside the window, takes the
    // byte-at-a-time path. Every split moves references between the two.
    let decoded = "<d v='&#x10FFF;' w=\"&#x10FFFF;\" x='&#x0010FFFF;' y=\"&lt;&gt;\" \
                   z='&#X41;' q=\"v&amp;\">&#x10FFF;|&#x10FFFF;|&#x0010FFFF;|&lt;&gt;|\
                   &#X41;|x&amp;<e/></d>";
    let malformed = "<d v='&#x00010FFFF;'/><d v='&a b;'/><d v='&a<b;'/><d v='&;'/>\
                     <t>&#x00010FFFF;|&a b;|&a<b;|&;|&amp";
    let cases: [(&str, &[&str], bool); 2] = [
        (
            decoded,
            &[
                "<d>",
                " v='\u{10FFF}'",
                " w='\u{10FFFF}'",
                " x='\u{10FFFF}'",
                " y='<>'",
                " z='A'",
                " q='v&'",
                "'\u{10FFF}|\u{10FFFF}|\u{10FFFF}|<>|A|x&'",
                "<e>",
                "/>",
                "</d>",
            ],
            true,
        ),
        (
            malformed,
            // The byte that ends a bad reference is consumed with it,
            // so `&a<b;` swallows its `<`.
            &[
                "<d>",
                "!unknown entity reference",
                "';'/>'",
                "<d>",
                "!entity reference is missing ';'",
                "'b;'/>'",
                "<d>",
                "!entity reference is missing ';'",
                "'b;'/>'",
                "<d>",
                "!unknown entity reference",
                "''/>'",
                "<t>",
                "!unknown entity reference",
                "';|'",
                "!entity reference is missing ';'",
                "'b;|'",
                "!entity reference is missing ';'",
                "'b;|'",
                "!unknown entity reference",
                "'|'",
            ],
            false,
        ),
    ];
    for (doc, want, idle) in cases {
        let whole = scan(doc.as_bytes(), 0, false);
        assert_eq!(normalize(&whole.0), want, "{doc}");
        assert_eq!(
            whole.1, idle,
            "{doc}: only a trailing `&amp` leaves a reference open"
        );
        for chunk in 1..=doc.len() {
            let bulk = scan(doc.as_bytes(), chunk, false);
            assert_eq!(
                bulk,
                scan(doc.as_bytes(), chunk, true),
                "chunk {chunk}: {doc}"
            );
            assert_eq!(normalize(&bulk.0), want, "chunk {chunk}: {doc}");
            assert_eq!(bulk.1, idle, "chunk {chunk}: {doc}");
        }
    }
}

#[test]
fn over_long_names_match_the_oracle_at_every_split() {
    // A name crossing MAX_NAME_LEN: both scanners must emit the same error
    // at the same point in the tag stream and recover identically.
    let mut doc = b"<ok/><".to_vec();
    doc.extend(std::iter::repeat_n(b'x', Tokenizer::MAX_NAME_LEN + 3));
    doc.extend_from_slice(b"><ok/>");
    let whole = scan(&doc, 0, false);
    assert_eq!(whole, scan(&doc, 0, true));
    // <ok> /> !error 'xx>' <ok> /> — the bytes past the error point are
    // visible text, identical in both scanners.
    assert_eq!(whole.0.len(), 6, "{:?}", whole.0);
    assert!(whole.0[2].starts_with('!'), "{:?}", whole.0);
    assert_eq!(whole.0[3], "'xx>'", "{:?}", whole.0);
    let whole_norm = (normalize(&whole.0), whole.1);
    // Sampled splits (the full sweep over a 4 KiB document is quadratic);
    // primes make the boundaries land everywhere across the cap.
    for chunk in [1, 7, 97, 1021, 4093, Tokenizer::MAX_NAME_LEN] {
        let bulk = scan(&doc, chunk, false);
        assert_eq!(bulk, scan(&doc, chunk, true), "chunk {chunk}");
        assert_eq!((normalize(&bulk.0), bulk.1), whole_norm, "chunk {chunk}");
    }
}

#[test]
fn service_reports_over_long_names_as_a_limit_rejection() {
    let schema = SchemaBuilder::new()
        .element("doc", "(item)*")
        .element_empty("item")
        .build()
        .expect("schema compiles");
    let mut service = schema.service();
    let doc = service.open();
    let mut bytes = b"<doc><".to_vec();
    bytes.extend(std::iter::repeat_n(b'a', 2 * Tokenizer::MAX_NAME_LEN));
    bytes.extend_from_slice(b"></doc>");
    for chunk in bytes.chunks(997) {
        let _ = service.feed_bytes(doc, chunk);
    }
    let diagnostic = service.finish(doc).expect_err("hostile name is rejected");
    assert_eq!(diagnostic.code(), Code::NameLimitExceeded);
    assert!(
        diagnostic.message().contains("exceeds"),
        "{}",
        diagnostic.message()
    );
}
