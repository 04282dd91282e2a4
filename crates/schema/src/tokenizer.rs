//! A bulk-scanning streaming XML tokenizer: raw bytes in, markup events out.
//!
//! [`ValidationService::feed_bytes`] lets callers pipe socket buffers
//! straight into validation; this module is the state machine behind it. It
//! turns tag soup into open/attribute/text/close events and **tolerates
//! chunk boundaries anywhere** — mid-name, mid-value, mid-entity,
//! mid-comment — by keeping the whole scanner state (plus the bytes of any
//! partial name/value) in the [`Tokenizer`] value between `feed` calls.
//!
//! # Bulk scanning
//!
//! Every scanner state is either a *skip class* — "consume bytes until one
//! of a few interesting delimiters" — or a short discriminator (`<!-`,
//! `CDATA[`) handled byte by byte. [`Tokenizer::feed`] therefore does not
//! run a per-byte `match`: each skip-class state consumes its whole run
//! with one [`redet_core::bytescan`] SWAR search (eight bytes per step) and
//! only the delimiter byte itself pays the state dispatch:
//!
//! * character data runs to the next `<` or `&` and is emitted as
//!   [`Tag::Text`] segments, **borrowed straight out of the chunk** unless
//!   a reference was decoded into it;
//! * attribute values run to their closing quote (or `&`/`<`) and are
//!   likewise borrowed when no reference intervenes;
//! * an entity reference decodes without leaving the scan loop: one word
//!   probe of the eight bytes after the `&` finds its `;`, and the content
//!   in between decodes into the text or value buffer. Only a reference
//!   whose window crosses the chunk edge, that has no `;` in the window,
//!   or that does not decode walks byte by byte through the state machine,
//!   which reports every malformed reference;
//! * comments skip to the next `-`, CDATA sections scan to the next `]`
//!   (their content is text), processing instructions to the next `?`,
//!   doctype internals to the next quote/bracket/`>`;
//! * tag and attribute names run to the next non-name byte and are borrowed
//!   out of the chunk — the buffers are written only when a construct
//!   actually straddles a chunk boundary, so a warmed tokenizer feeding
//!   whole documents never copies at all.
//!
//! The per-byte scalar scanner is retained as [`Tokenizer::feed_scalar`] —
//! the reference oracle the equivalence suite and the E14 benchmark compare
//! the bulk scanner against. Both scanners bound every buffer: names by
//! [`Tokenizer::MAX_NAME_LEN`] (configurable via
//! [`Tokenizer::set_name_limit`], the `ServiceLimits` hook), attribute
//! values by [`Tokenizer::MAX_VALUE_LEN`], a reference cut by a chunk edge
//! by a ten-byte array, and pending text is flushed as a [`Tag::Text`]
//! segment at every chunk edge instead of accumulating — a hostile stream
//! can never pin an unbounded buffer.
//!
//! # What the grammar accepts
//!
//! * start tags `<name a='v' b="w" flag>` emit [`Tag::Open`] at the end of
//!   the name, one [`Tag::Attr`] per attribute (valueless attributes carry
//!   an empty value), and — for `<name …/>` — a final [`Tag::SelfClose`];
//! * end tags `</name>` emit [`Tag::Close`];
//! * character data and CDATA content emit [`Tag::Text`] segments; a
//!   logical run may arrive as several segments (around entities, CDATA
//!   edges and chunk edges) but segments are never reordered, so
//!   concatenation is chunking-invariant;
//! * the five predefined entities (`&amp; &lt; &gt; &quot; &apos;`) and
//!   character references (`&#65;`, `&#x1F600;`) are decoded in text and in
//!   attribute values; unknown entities, malformed character references and
//!   unterminated references are [`Tag::Error`]s the service maps to
//!   `Code::UnknownEntity`;
//! * comments (`<!-- … -->`), processing instructions (`<?…?>`) and
//!   doctype-ish `<!…>` constructs (with `[…]` internal-subset nesting and
//!   quoted literals) are consumed and ignored;
//! * anything unparsable (stray `<`, `<>`, `</>`, an unquoted or
//!   `<`-containing attribute value, garbage between `/` and `>`, an
//!   over-long name or value) is reported as a [`Tag::Error`]. Names and
//!   values are handed to the sink as **raw bytes** — see [`Tag`] for why
//!   UTF-8 validation is deliberately the consumer's job.
//!
//! Compared to the attribute-*skipping* grammar this tokenizer grew out of,
//! three soups are now rejected instead of silently accepted: unquoted
//! attribute values (`<a x=1>`), whitespace between `/` and `>` in a
//! self-closing tag (`<a / >`), and a raw `<` inside a quoted value. Each
//! is malformed XML, and each would otherwise make attribute events
//! ambiguous.
//!
//! Only a chunk-straddling partial name or value, and the text or value a
//! reference decodes into, are copied into the tokenizer's buffers; their
//! capacity is kept across documents, so a warmed tokenizer feeds without
//! allocating.
//!
//! [`ValidationService::feed_bytes`]: crate::ValidationService::feed_bytes
//! [`Code::MalformedMarkup`]: redet_core::Code::MalformedMarkup

use redet_core::bytescan::{memchr, memchr2, memchr3, memchr_mask_zero, splat, zero_byte_markers};

/// One markup event produced by the tokenizer.
///
/// Names, values and text are the **raw bytes** of the stream, not `&str`:
/// the tokenizer never UTF-8-validates them, so the hot path pays no
/// per-event `from_utf8` walk. A consumer resolving names against a schema
/// gets UTF-8 for free on a hit (schema names are strings — byte equality
/// implies validity) and only needs to validate on the unknown-name cold
/// path, which is exactly what [`ValidationService::feed_bytes`] does.
///
/// [`ValidationService::feed_bytes`]: crate::ValidationService::feed_bytes
#[derive(Debug, PartialEq, Eq)]
pub enum Tag<'a> {
    /// A start tag's name: `<name`. Emitted as soon as the name ends;
    /// the tag's attributes (if any) follow as [`Tag::Attr`] events.
    Open(&'a [u8]),
    /// One attribute of the most recent [`Tag::Open`]. The value has its
    /// entity references decoded; a valueless attribute (`<input checked>`)
    /// carries an empty value.
    Attr {
        /// The attribute's name bytes.
        name: &'a [u8],
        /// The attribute's decoded value bytes.
        value: &'a [u8],
    },
    /// The `/>` ending a self-closing tag: close the element opened by the
    /// most recent [`Tag::Open`]. Nameless — the name was already emitted,
    /// and the innermost open element is the only one `/>` can close.
    SelfClose,
    /// An end tag `</name>`. The service checks the name against the
    /// innermost open element (the tokenizer itself does no matching).
    Close(&'a [u8]),
    /// A segment of character data (including CDATA content), with entity
    /// references decoded. A logical text run may be split into several
    /// segments — around entities, CDATA boundaries and chunk boundaries —
    /// but never reordered: concatenating consecutive segments yields the
    /// same bytes under every chunking.
    Text(&'a [u8]),
    /// Markup the grammar cannot parse.
    Error(&'static str),
}

/// Which quote character delimits the current literal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Quote {
    #[default]
    None,
    Single,
    Double,
}

/// The scanner position. Everything is `Copy` plain data; together with the
/// partial name/value/text/entity buffers it is the *entire* cross-chunk
/// state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum State {
    /// Character data between tags. Skip class: `<`, `&`.
    #[default]
    Text,
    /// Inside `&…;` in character data, for a reference the scan loop could
    /// not decode whole: one cut by the chunk edge, or a malformed one. Its
    /// content accumulates in the entity array byte by byte, and the byte
    /// that makes it malformed is reported here.
    Entity,
    /// Just after `<`.
    Lt,
    /// Inside a start-tag name. Skip class: any non-name byte.
    OpenName,
    /// Inside an end-tag name. Skip class: any non-name byte.
    CloseName,
    /// Inside a start tag, between attributes (whitespace run).
    AttrSpace,
    /// Inside an attribute name. Skip class: any non-name byte.
    AttrName,
    /// After a complete attribute name plus whitespace: `=` starts a value,
    /// a name byte means the previous attribute was valueless.
    AttrEq,
    /// After `=`, before the opening quote.
    AttrValueStart,
    /// Inside a quoted attribute value. Skip class: the closing quote, `&`,
    /// `<` (`quote` is never `None` here).
    AttrValue {
        /// The delimiter that closes this value.
        quote: Quote,
    },
    /// [`State::Entity`] inside an attribute value; decodes into the value
    /// buffer.
    AttrEntity {
        /// The delimiter of the enclosing value.
        quote: Quote,
    },
    /// After the `/` of a self-closing tag: only `>` may follow.
    SelfCloseEnd,
    /// After `</name` — only whitespace may precede the `>`.
    CloseEnd,
    /// Just after `<!`, before the construct is identified.
    Bang,
    /// After `<!-`, expecting the second `-` of a comment opener.
    BangDash,
    /// Matching the `CDATA[` discriminator after `<![`, byte by byte.
    CdataPrefix {
        /// How many prefix bytes have matched.
        matched: u8,
    },
    /// Inside `<![CDATA[ … ]]>`; `brackets` counts trailing `]`s seen
    /// (pending — they are content unless `]]>` completes). Skip class
    /// (at `brackets == 0`): `]`.
    Cdata {
        /// Trailing `]`s not yet known to be content or terminator.
        brackets: u8,
    },
    /// Inside `<!-- … -->`; `dashes` counts trailing `-`s seen. Skip class
    /// (at `dashes == 0`): `-`.
    Comment {
        /// Trailing `-`s seen.
        dashes: u8,
    },
    /// Inside a doctype-ish `<!…>` construct; `depth` tracks `[…]` nesting
    /// (internal subsets contain `>`s of their own) and `quote` an open
    /// system/public literal (which may legally contain `>`, `[`, `]`).
    /// Skip class: quotes, brackets and `>` (just the closing quote inside
    /// a literal).
    Doctype {
        /// `[…]` nesting depth.
        depth: u8,
        /// The literal delimiter currently open, if any.
        quote: Quote,
    },
    /// Inside `<?…?>`; `qm` is set when the previous byte was `?`. Skip
    /// class (at `!qm`): `?`.
    Pi {
        /// Whether the previous byte was `?`.
        qm: bool,
    },
}

/// Which named tag the current byte completed; the name sits in the buffer
/// and/or the current chunk.
#[derive(Clone, Copy)]
enum Finish {
    Open,
    Close,
}

const CDATA_PREFIX: &[u8] = b"CDATA[";

/// The [`Tag::Error`] text for an element name longer than the tokenizer's
/// name-length cap ([`Tokenizer::MAX_NAME_LEN`] unless lowered via
/// [`Tokenizer::set_name_limit`]). The service layer recognizes this
/// message and reports it under the `E3xx` resource-governance family.
pub(crate) const NAME_TOO_LONG: &str = "element name exceeds the name-length cap";

/// The [`Tag::Error`] text for an attribute name past the same cap.
pub(crate) const ATTR_TOO_LONG: &str = "attribute name exceeds the name-length cap";

/// The [`Tag::Error`] text for an attribute value past
/// [`Tokenizer::MAX_VALUE_LEN`].
pub(crate) const VALUE_TOO_LONG: &str = "attribute value exceeds the value-length cap";

/// The [`Tag::Error`] text for an entity reference that is neither a
/// predefined entity nor a character reference.
pub(crate) const UNKNOWN_ENTITY: &str = "unknown entity reference";

/// The [`Tag::Error`] text for a character reference that does not denote
/// a Unicode scalar value.
pub(crate) const BAD_CHAR_REF: &str = "invalid character reference";

/// The [`Tag::Error`] text for an `&` whose reference never reaches `;`.
pub(crate) const ENTITY_UNTERMINATED: &str = "entity reference is missing ';'";

/// Whether a [`Tag::Error`] message is one of the entity-reference errors
/// (the service maps these to `Code::UnknownEntity`).
pub(crate) fn is_entity_error(message: &str) -> bool {
    message == UNKNOWN_ENTITY || message == BAD_CHAR_REF || message == ENTITY_UNTERMINATED
}

/// Bytes allowed in element and attribute names, precomputed so the name
/// run loop is one indexed load per byte. Deliberately permissive (tag
/// soup): any byte that cannot terminate or confuse a tag, including
/// multi-byte UTF-8 sequences, counts as a name byte; real name validation
/// happens against the schema's alphabet.
static NAME_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        table[b] = !((b as u8).is_ascii_whitespace()
            || matches!(
                b as u8,
                b'<' | b'>' | b'/' | b'!' | b'?' | b'=' | b'"' | b'\''
            ));
        b += 1;
    }
    table
};

#[inline]
fn is_name_byte(b: u8) -> bool {
    NAME_BYTE[b as usize]
}

/// Scans a name run from `i` to its terminating non-name byte, returning
/// the terminator's index and value — `(bytes.len(), _)` when the chunk
/// ends first. Every possible terminator is ASCII below `0x40` and every
/// byte at or above it (letters, multi-byte UTF-8) is unconditionally a
/// name byte, so the scan masks with `0xC0` and only low bytes (digits,
/// `-`, `:`, the real terminators, …) consult the exact table.
///
/// The first arm settles the typical case — the rest of the name plus its
/// terminator inside one word — with a single load, keeping the terminator
/// in a register instead of re-loading it; the loop handles chunk tails,
/// low name bytes and names longer than a word.
#[inline]
fn scan_name_tail(bytes: &[u8], mut i: usize) -> (usize, u8) {
    if i + 8 <= bytes.len() {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte window"));
        let z = zero_byte_markers(w & splat(0xC0));
        if z != 0 {
            let k = (z.trailing_zeros() / 8) as usize;
            let t = (w >> (8 * k)) as u8;
            if !is_name_byte(t) {
                return (i + k, t);
            }
        }
    }
    let len = bytes.len();
    let mut t = 0u8;
    while i < len {
        match memchr_mask_zero(0xC0, &bytes[i..]) {
            Some(k) => {
                i += k;
                t = bytes[i];
                if is_name_byte(t) {
                    i += 1;
                } else {
                    break;
                }
            }
            None => i = len,
        }
    }
    (i, t)
}

/// The earlier of two optional scan hits.
#[inline]
fn min_hit(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Upper bound on an entity reference's content — longer than any
/// predefined entity or valid character reference (`#x10FFFF`).
const MAX_ENTITY_LEN: usize = 10;

/// Decodes one entity reference's content (the bytes between `&` and `;`)
/// into `out`: the five predefined entities plus decimal/hex character
/// references. On failure nothing is written.
fn decode_entity(ent: &[u8], out: &mut Vec<u8>) -> Result<(), &'static str> {
    match ent {
        b"amp" => out.push(b'&'),
        b"lt" => out.push(b'<'),
        b"gt" => out.push(b'>'),
        b"quot" => out.push(b'"'),
        b"apos" => out.push(b'\''),
        [b'#', digits @ ..] => {
            let (radix, digits) = match digits {
                [b'x' | b'X', hex @ ..] => (16, hex),
                dec => (10, dec),
            };
            if digits.is_empty() {
                return Err(BAD_CHAR_REF);
            }
            let mut code: u32 = 0;
            for &d in digits {
                let v = (d as char).to_digit(radix).ok_or(BAD_CHAR_REF)?;
                code = code
                    .checked_mul(radix)
                    .and_then(|c| c.checked_add(v))
                    .ok_or(BAD_CHAR_REF)?;
            }
            let c = char::from_u32(code).ok_or(BAD_CHAR_REF)?;
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
        _ => return Err(UNKNOWN_ENTITY),
    }
    Ok(())
}

/// Decodes the reference whose content starts at `bytes[at]`, just past its
/// `&`, straight out of the chunk: when the eight bytes from `at` lie in the
/// chunk, one word probe finds the first `;` among them and the content
/// before it is decoded into `out`. Returns the index just past the `;`.
///
/// `None` — no `;` in the window, a window crossing the chunk edge, or a
/// content [`decode_entity`] rejects — writes nothing, and the caller walks
/// the reference byte by byte instead, so every error comes from that one
/// path. A success is exactly what the byte path would accept: a decodable
/// content is a predefined name or a numeric reference, all of it in
/// `[A-Za-z0-9#]`, and at most seven bytes is under [`MAX_ENTITY_LEN`].
#[inline]
fn decode_in_chunk(bytes: &[u8], at: usize, out: &mut Vec<u8>) -> Option<usize> {
    let window = bytes.get(at..at + 8)?;
    let w = u64::from_le_bytes(window.try_into().expect("8-byte window"));
    let z = zero_byte_markers(w ^ splat(b';'));
    if z == 0 {
        return None;
    }
    let k = (z.trailing_zeros() / 8) as usize;
    decode_entity(&window[..k], out).ok()?;
    Some(at + k + 1)
}

/// Byte ranges of the current chunk not yet copied into the tokenizer's
/// buffers: the pending name is `tokenizer.name ++ bytes[name.0..name.1]`,
/// and likewise for the attribute value and the current text segment.
/// Flushed into the buffers (name, value) or emitted (text) if the chunk
/// ends before the construct does.
#[derive(Default)]
struct Spans {
    name: (usize, usize),
    value: (usize, usize),
    text: (usize, usize),
}

/// The streaming scanner; see the module docs. One per in-flight document —
/// chunk boundaries may fall anywhere, so the state must persist between
/// [`Tokenizer::feed`] calls.
///
/// ```
/// use redet_schema::tokenizer::{Tag, Tokenizer};
///
/// let mut events = Vec::new();
/// let mut tokenizer = Tokenizer::default();
/// // Chunk boundaries may fall anywhere — even mid-name or mid-value.
/// for chunk in [&b"<doc id='m&amp;m'><it"[..], &b"em/>ok</doc>"[..]] {
///     tokenizer.feed(chunk, &mut |tag| {
///         events.push(match tag {
///             Tag::Open(n) => format!("<{}>", String::from_utf8_lossy(n)),
///             Tag::Attr { name, value } => format!(
///                 "{}={}",
///                 String::from_utf8_lossy(name),
///                 String::from_utf8_lossy(value)
///             ),
///             Tag::SelfClose => "/>".to_owned(),
///             Tag::Close(n) => format!("</{}>", String::from_utf8_lossy(n)),
///             Tag::Text(t) => format!("'{}'", String::from_utf8_lossy(t)),
///             Tag::Error(e) => format!("!{e}"),
///         });
///         true
///     });
/// }
/// assert_eq!(
///     events,
///     ["<doc>", "id=m&m", "<item>", "/>", "'ok'", "</doc>"]
/// );
/// assert!(tokenizer.is_idle());
/// ```
#[derive(Debug)]
pub struct Tokenizer {
    state: State,
    /// Bytes of the current element/attribute name when it straddles a
    /// chunk boundary (names completed inside one chunk are borrowed).
    name: Vec<u8>,
    /// Bytes of the current attribute value when it straddles a chunk
    /// boundary or an entity was decoded into it.
    value: Vec<u8>,
    /// Decoded/copied character data: entity expansions and CDATA content.
    /// Flushed as a [`Tag::Text`] segment at every chunk edge, so it never
    /// accumulates across feeds.
    text: Vec<u8>,
    /// The content of an entity reference cut by a chunk edge (or read by
    /// [`Tokenizer::feed_scalar`]) is `ent[..ent_len]`; references that lie
    /// whole in a chunk decode straight out of it.
    ent: [u8; MAX_ENTITY_LEN],
    ent_len: usize,
    /// The active name-length cap (defaults to [`Tokenizer::MAX_NAME_LEN`]).
    name_limit: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            state: State::Text,
            name: Vec::new(),
            value: Vec::new(),
            text: Vec::new(),
            ent: [0; MAX_ENTITY_LEN],
            ent_len: 0,
            name_limit: Self::MAX_NAME_LEN,
        }
    }
}

impl Tokenizer {
    /// Default upper bound on an element or attribute name's length in
    /// bytes. A longer "name" (a hostile unterminated-tag stream) is
    /// reported as a [`Tag::Error`] and the rest of the run is treated as
    /// character data, so the partial-name buffer a malicious connection
    /// can pin stays bounded.
    pub const MAX_NAME_LEN: usize = 4096;

    /// Upper bound on an attribute value's length in bytes; a longer value
    /// is reported as a [`Tag::Error`] the service maps to
    /// `Code::ValueLimitExceeded`.
    pub const MAX_VALUE_LEN: usize = 65536;

    /// Lowers (or raises) the name-length cap. The cap is clamped to at
    /// least one byte so single-character names always scan; the emission
    /// point — the `(cap + 1)`-th name byte — is identical in the bulk and
    /// scalar scanners under every chunking.
    pub fn set_name_limit(&mut self, limit: usize) {
        self.name_limit = limit.max(1);
    }

    /// The active name-length cap in bytes.
    pub fn name_limit(&self) -> usize {
        self.name_limit
    }

    /// Whether the scanner is between constructs — the end-of-document
    /// well-formedness check (`finish` inside a tag, a CDATA section or an
    /// entity reference is malformed markup).
    pub fn is_idle(&self) -> bool {
        self.state == State::Text
    }

    /// Resets the scanner for the next document, keeping the buffers'
    /// capacity.
    pub fn reset(&mut self) {
        self.state = State::Text;
        self.name.clear();
        self.value.clear();
        self.text.clear();
        self.ent_len = 0;
    }

    /// Scans one chunk, invoking `sink` for every completed event. The sink
    /// returns `false` to stop the scan (the service does this when the
    /// document is rejected); remaining bytes of the chunk are dropped and
    /// `feed` returns `false`. Returns `true` when the whole chunk was
    /// consumed.
    ///
    /// Names, values and text are borrowed out of `bytes` whenever the
    /// whole construct lies inside this chunk; only chunk-straddling
    /// constructs and decoded entities touch the tokenizer's buffers. Any
    /// text pending at the end of the chunk is flushed as a final
    /// [`Tag::Text`] segment (segment boundaries depend on chunking; their
    /// concatenation does not). See the module docs for the bulk-scanning
    /// skip classes.
    pub fn feed(&mut self, bytes: &[u8], sink: &mut impl FnMut(Tag<'_>) -> bool) -> bool {
        let len = bytes.len();
        let mut i = 0usize;
        let mut sp = Spans::default();
        'chunk: while i < len {
            match self.state {
                State::Text => {
                    // Hot path: parse whole tags inline, looping locally
                    // for as long as the scanner stays between tags.
                    // Bouncing through the outer state dispatch between
                    // `<`, the name and the `>` costs a hard-to-predict
                    // indirect branch per step on tag-dense input; the
                    // fused path keeps the state implicit in straight-line
                    // code, re-enters the outer dispatch only for rare
                    // constructs, and writes `self.state` only when a
                    // construct is cut off by the chunk boundary.
                    while i < len {
                        let b = bytes[i];
                        if b != b'<' {
                            if b == b'&' {
                                // Bank the text so far; the reference decodes
                                // into the text buffer after it, without
                                // leaving the loop when the chunk holds it.
                                if sp.text.1 > sp.text.0 {
                                    self.text.extend_from_slice(&bytes[sp.text.0..sp.text.1]);
                                    sp.text = (0, 0);
                                }
                                i += 1;
                                if let Some(next) = decode_in_chunk(bytes, i, &mut self.text) {
                                    i = next;
                                    continue;
                                }
                                self.ent_len = 0;
                                self.state = State::Entity;
                                continue 'chunk;
                            }
                            // A text run: scan to the next delimiter and
                            // extend the borrowed segment.
                            let start = i;
                            match memchr2(b'<', b'&', &bytes[i..]) {
                                Some(k) => i += k,
                                None => i = len,
                            }
                            debug_assert!(sp.text.1 == sp.text.0 || sp.text.1 == start);
                            if sp.text.1 == sp.text.0 {
                                sp.text = (start, i);
                            } else {
                                sp.text.1 = i;
                            }
                            if i == len {
                                break 'chunk; // flushed at the chunk edge below
                            }
                            continue; // re-dispatch on the delimiter
                        }
                        // `<`: flush pending text, then parse the tag.
                        if (sp.text.1 > sp.text.0 || !self.text.is_empty())
                            && !self.flush_text(bytes, &mut sp, sink)
                        {
                            return false;
                        }
                        i += 1; // consume the '<'
                        if i == len {
                            self.state = State::Lt;
                            break 'chunk;
                        }
                        let b = bytes[i];
                        if is_name_byte(b) {
                            // `<name…` — a start tag: scan the name and
                            // dispatch on the terminator byte the scan
                            // already holds. The buffer is necessarily
                            // empty in `Text` (every emit clears it), so
                            // there is nothing to reset.
                            debug_assert!(self.name.is_empty());
                            let start = i;
                            let (end, t) = scan_name_tail(bytes, i + 1);
                            if end - start > self.name_limit {
                                // Consume exactly the (cap + 1)-th name
                                // byte — the scalar scanner's error point —
                                // so the text that follows is identical.
                                i = start + self.name_limit + 1;
                                if !self.emit_error(&mut sp, NAME_TOO_LONG, sink) {
                                    return false;
                                }
                                continue;
                            }
                            i = end;
                            if i == len {
                                // The tag straddles the chunk: bank the name.
                                self.name.extend_from_slice(&bytes[start..i]);
                                self.state = State::OpenName;
                                break 'chunk;
                            }
                            i += 1; // consume the terminator
                            match t {
                                b'>' => {
                                    if !Self::emit_direct(&bytes[start..i - 1], Finish::Open, sink)
                                    {
                                        return false;
                                    }
                                }
                                b'/' => {
                                    if !Self::emit_direct(&bytes[start..i - 1], Finish::Open, sink)
                                    {
                                        return false;
                                    }
                                    // Common case: `/>` completes inline.
                                    if i < len && bytes[i] == b'>' {
                                        i += 1;
                                        if !sink(Tag::SelfClose) {
                                            return false;
                                        }
                                    } else {
                                        self.state = State::SelfCloseEnd;
                                        break;
                                    }
                                }
                                _ if t.is_ascii_whitespace() => {
                                    if !Self::emit_direct(&bytes[start..i - 1], Finish::Open, sink)
                                    {
                                        return false;
                                    }
                                    self.state = State::AttrSpace;
                                    break;
                                }
                                b'<' => {
                                    if !self.emit_error(&mut sp, "'<' inside a tag", sink) {
                                        return false;
                                    }
                                }
                                _ => {
                                    if !self.emit_error(&mut sp, "malformed start tag", sink) {
                                        return false;
                                    }
                                }
                            }
                        } else if b == b'/' {
                            // `</name…` — an end tag.
                            debug_assert!(self.name.is_empty());
                            i += 1;
                            if i == len {
                                self.state = State::CloseName;
                                break 'chunk;
                            }
                            let start = i;
                            let (end, t) = scan_name_tail(bytes, i);
                            if end - start > self.name_limit {
                                i = start + self.name_limit + 1;
                                if !self.emit_error(&mut sp, NAME_TOO_LONG, sink) {
                                    return false;
                                }
                                continue;
                            }
                            i = end;
                            if i == len {
                                self.name.extend_from_slice(&bytes[start..i]);
                                self.state = State::CloseName;
                                break 'chunk;
                            }
                            i += 1; // consume the terminator
                            match t {
                                b'>' if i - 1 == start => {
                                    if !self.emit_error(&mut sp, "end tag '</>' has no name", sink)
                                    {
                                        return false;
                                    }
                                }
                                b'>' => {
                                    if !Self::emit_direct(&bytes[start..i - 1], Finish::Close, sink)
                                    {
                                        return false;
                                    }
                                }
                                _ if t.is_ascii_whitespace() && i - 1 == start => {
                                    if !self.emit_error(&mut sp, "end tag '</ ' has no name", sink)
                                    {
                                        return false;
                                    }
                                }
                                _ if t.is_ascii_whitespace() => {
                                    sp.name = (start, i - 1);
                                    self.state = State::CloseEnd;
                                    break;
                                }
                                _ => {
                                    if !self.emit_error(&mut sp, "malformed end tag", sink) {
                                        return false;
                                    }
                                }
                            }
                        } else {
                            i += 1;
                            match b {
                                b'!' => {
                                    self.state = State::Bang;
                                    break;
                                }
                                b'?' => {
                                    self.state = State::Pi { qm: false };
                                    break;
                                }
                                b'>' => {
                                    if !self.emit_error(&mut sp, "empty tag '<>'", sink) {
                                        return false;
                                    }
                                }
                                _ => {
                                    if !self.emit_error(
                                        &mut sp,
                                        "stray '<' is not followed by a tag name",
                                        sink,
                                    ) {
                                        return false;
                                    }
                                }
                            }
                        }
                    }
                }
                State::Entity | State::AttrEntity { .. } => {
                    // A reference cut by the chunk edge or malformed: scan
                    // it byte by byte, exactly as the scalar scanner does,
                    // so error kinds and positions trivially agree.
                    let in_text = self.state == State::Entity;
                    let b = bytes[i];
                    i += 1;
                    if let Err(message) = self.entity_byte(b) {
                        // A bad reference aborts an open text run: flush the
                        // text that preceded it first — a chunk boundary
                        // before the '&' would have flushed it already, and
                        // event streams must not depend on where chunks
                        // fall.
                        if in_text
                            && (sp.text.1 > sp.text.0 || !self.text.is_empty())
                            && !self.flush_text(bytes, &mut sp, sink)
                        {
                            return false;
                        }
                        if !self.emit_error(&mut sp, message, sink) {
                            return false;
                        }
                    }
                }
                State::Lt => {
                    let b = bytes[i];
                    i += 1;
                    match b {
                        b'/' => {
                            self.name.clear();
                            self.state = State::CloseName;
                        }
                        b'!' => self.state = State::Bang,
                        b'?' => self.state = State::Pi { qm: false },
                        b'>' => {
                            if !self.emit_error(&mut sp, "empty tag '<>'", sink) {
                                return false;
                            }
                        }
                        _ if is_name_byte(b) => {
                            self.name.clear();
                            sp.name = (i - 1, i);
                            self.state = State::OpenName;
                        }
                        _ => {
                            if !self.emit_error(
                                &mut sp,
                                "stray '<' is not followed by a tag name",
                                sink,
                            ) {
                                return false;
                            }
                        }
                    }
                }
                State::OpenName | State::CloseName => {
                    let closing = self.state == State::CloseName;
                    let start = i;
                    let (end, b) = scan_name_tail(bytes, i);
                    let buffered = self.name.len() + (sp.name.1 - sp.name.0);
                    if buffered + (end - start) > self.name_limit {
                        i = start + (self.name_limit - buffered) + 1;
                        if !self.emit_error(&mut sp, NAME_TOO_LONG, sink) {
                            return false;
                        }
                        continue;
                    }
                    i = end;
                    if sp.name.1 == sp.name.0 {
                        sp.name = (start, i);
                    } else {
                        debug_assert_eq!(sp.name.1, start, "name runs are contiguous in a chunk");
                        sp.name.1 = i;
                    }
                    if i == len {
                        break; // chunk ended mid-name; the span is flushed below
                    }
                    let empty = self.name.is_empty() && sp.name.1 == sp.name.0;
                    i += 1; // consume the terminator
                    let error = if closing {
                        match b {
                            b'>' if empty => Some("end tag '</>' has no name"),
                            b'>' => {
                                self.state = State::Text;
                                if !self.emit_name(bytes, &mut sp, Finish::Close, sink) {
                                    return false;
                                }
                                None
                            }
                            _ if b.is_ascii_whitespace() && empty => {
                                Some("end tag '</ ' has no name")
                            }
                            _ if b.is_ascii_whitespace() => {
                                self.state = State::CloseEnd;
                                None
                            }
                            _ => Some("malformed end tag"),
                        }
                    } else {
                        match b {
                            b'>' => {
                                self.state = State::Text;
                                if !self.emit_name(bytes, &mut sp, Finish::Open, sink) {
                                    return false;
                                }
                                None
                            }
                            b'/' => {
                                self.state = State::SelfCloseEnd;
                                if !self.emit_name(bytes, &mut sp, Finish::Open, sink) {
                                    return false;
                                }
                                None
                            }
                            _ if b.is_ascii_whitespace() => {
                                self.state = State::AttrSpace;
                                if !self.emit_name(bytes, &mut sp, Finish::Open, sink) {
                                    return false;
                                }
                                None
                            }
                            b'<' => Some("'<' inside a tag"),
                            _ => Some("malformed start tag"),
                        }
                    };
                    if let Some(message) = error {
                        if !self.emit_error(&mut sp, message, sink) {
                            return false;
                        }
                    }
                }
                State::AttrSpace => {
                    while i < len && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i == len {
                        break;
                    }
                    let b = bytes[i];
                    if is_name_byte(b) {
                        // The attribute name starts here; its own arm scans it.
                        self.state = State::AttrName;
                    } else {
                        i += 1;
                        match b {
                            b'>' => self.state = State::Text,
                            b'/' => {
                                if i < len && bytes[i] == b'>' {
                                    i += 1;
                                    self.state = State::Text;
                                    if !sink(Tag::SelfClose) {
                                        return false;
                                    }
                                } else {
                                    self.state = State::SelfCloseEnd;
                                }
                            }
                            b'<' => {
                                if !self.emit_error(&mut sp, "'<' inside a tag", sink) {
                                    return false;
                                }
                            }
                            _ => {
                                if !self.emit_error(&mut sp, "malformed start tag", sink) {
                                    return false;
                                }
                            }
                        }
                    }
                }
                State::AttrName => {
                    let start = i;
                    let (end, b) = scan_name_tail(bytes, i);
                    let buffered = self.name.len() + (sp.name.1 - sp.name.0);
                    if buffered + (end - start) > self.name_limit {
                        i = start + (self.name_limit - buffered) + 1;
                        if !self.emit_error(&mut sp, ATTR_TOO_LONG, sink) {
                            return false;
                        }
                        continue;
                    }
                    i = end;
                    if sp.name.1 == sp.name.0 {
                        sp.name = (start, i);
                    } else {
                        debug_assert_eq!(sp.name.1, start, "name runs are contiguous in a chunk");
                        sp.name.1 = i;
                    }
                    if i == len {
                        break;
                    }
                    i += 1; // consume the terminator
                    match b {
                        b'=' => self.state = State::AttrValueStart,
                        _ if b.is_ascii_whitespace() => self.state = State::AttrEq,
                        b'>' => {
                            self.state = State::Text;
                            if !self.emit_attr(bytes, &mut sp, sink) {
                                return false;
                            }
                        }
                        b'/' => {
                            self.state = State::SelfCloseEnd;
                            if !self.emit_attr(bytes, &mut sp, sink) {
                                return false;
                            }
                        }
                        b'<' => {
                            if !self.emit_error(&mut sp, "'<' inside a tag", sink) {
                                return false;
                            }
                        }
                        _ => {
                            if !self.emit_error(&mut sp, "malformed start tag", sink) {
                                return false;
                            }
                        }
                    }
                }
                State::AttrEq => {
                    while i < len && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i == len {
                        break;
                    }
                    let b = bytes[i];
                    if is_name_byte(b) {
                        // The previous attribute was valueless; this byte
                        // starts the next attribute's name.
                        self.state = State::AttrName;
                        if !self.emit_attr(bytes, &mut sp, sink) {
                            return false;
                        }
                    } else {
                        i += 1;
                        match b {
                            b'=' => self.state = State::AttrValueStart,
                            b'>' => {
                                self.state = State::Text;
                                if !self.emit_attr(bytes, &mut sp, sink) {
                                    return false;
                                }
                            }
                            b'/' => {
                                self.state = State::SelfCloseEnd;
                                if !self.emit_attr(bytes, &mut sp, sink) {
                                    return false;
                                }
                            }
                            b'<' => {
                                if !self.emit_error(&mut sp, "'<' inside a tag", sink) {
                                    return false;
                                }
                            }
                            _ => {
                                if !self.emit_error(&mut sp, "malformed start tag", sink) {
                                    return false;
                                }
                            }
                        }
                    }
                }
                State::AttrValueStart => {
                    while i < len && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i == len {
                        break;
                    }
                    let b = bytes[i];
                    i += 1;
                    match b {
                        b'\'' => {
                            self.state = State::AttrValue {
                                quote: Quote::Single,
                            }
                        }
                        b'"' => {
                            self.state = State::AttrValue {
                                quote: Quote::Double,
                            }
                        }
                        b'<' => {
                            if !self.emit_error(&mut sp, "'<' inside a tag", sink) {
                                return false;
                            }
                        }
                        _ => {
                            if !self.emit_error(&mut sp, "attribute value must be quoted", sink) {
                                return false;
                            }
                        }
                    }
                }
                State::AttrValue { quote } => {
                    let needle = if quote == Quote::Single { b'\'' } else { b'"' };
                    let rest = &bytes[i..];
                    let stop = memchr3(needle, b'&', b'<', rest);
                    let run = stop.unwrap_or(rest.len());
                    // Decoded references may already have carried the value
                    // past the cap; the scalar scanner then rejects at the
                    // next plain byte, so no room is left.
                    let room = Self::MAX_VALUE_LEN
                        .saturating_sub(self.value.len() + (sp.value.1 - sp.value.0));
                    if run > room {
                        i += room + 1;
                        if !self.emit_error(&mut sp, VALUE_TOO_LONG, sink) {
                            return false;
                        }
                        continue;
                    }
                    let start = i;
                    i += run;
                    if sp.value.1 == sp.value.0 {
                        sp.value = (start, i);
                    } else {
                        debug_assert_eq!(sp.value.1, start, "value runs are contiguous in a chunk");
                        sp.value.1 = i;
                    }
                    if stop.is_none() {
                        break; // chunk ended mid-value; spans flushed below
                    }
                    let b = bytes[i];
                    i += 1;
                    match b {
                        b'&' => {
                            // Bank the value so far; the reference decodes
                            // into the value buffer after it, without
                            // leaving the loop when the chunk holds it.
                            if sp.value.1 > sp.value.0 {
                                self.value.extend_from_slice(&bytes[sp.value.0..sp.value.1]);
                                sp.value = (0, 0);
                            }
                            match decode_in_chunk(bytes, i, &mut self.value) {
                                Some(next) => i = next,
                                None => {
                                    self.ent_len = 0;
                                    self.state = State::AttrEntity { quote };
                                }
                            }
                        }
                        b'<' => {
                            if !self.emit_error(&mut sp, "'<' inside an attribute value", sink) {
                                return false;
                            }
                        }
                        _ => {
                            // The closing quote.
                            self.state = State::AttrSpace;
                            if !self.emit_attr(bytes, &mut sp, sink) {
                                return false;
                            }
                        }
                    }
                }
                State::SelfCloseEnd => {
                    let b = bytes[i];
                    i += 1;
                    if b == b'>' {
                        self.state = State::Text;
                        if !sink(Tag::SelfClose) {
                            return false;
                        }
                    } else if !self.emit_error(&mut sp, "expected '>' after '/' in a tag", sink) {
                        return false;
                    }
                }
                State::CloseEnd => {
                    while i < len && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i == len {
                        break;
                    }
                    let b = bytes[i];
                    i += 1;
                    if b == b'>' {
                        self.state = State::Text;
                        if !self.emit_name(bytes, &mut sp, Finish::Close, sink) {
                            return false;
                        }
                    } else if !self.emit_error(&mut sp, "garbage after an end-tag name", sink) {
                        return false;
                    }
                }
                State::Bang => {
                    let b = bytes[i];
                    i += 1;
                    self.state = match b {
                        b'-' => State::BangDash,
                        b'[' => State::CdataPrefix { matched: 0 },
                        b'>' => State::Text,
                        _ => State::Doctype {
                            depth: 0,
                            quote: Quote::None,
                        },
                    };
                }
                State::BangDash => {
                    let b = bytes[i];
                    i += 1;
                    self.state = match b {
                        b'-' => State::Comment { dashes: 0 },
                        b'>' => State::Text,
                        _ => State::Doctype {
                            depth: 0,
                            quote: Quote::None,
                        },
                    };
                }
                State::CdataPrefix { matched } => {
                    let b = bytes[i];
                    i += 1;
                    self.state = if b == CDATA_PREFIX[matched as usize] {
                        if matched as usize + 1 == CDATA_PREFIX.len() {
                            State::Cdata { brackets: 0 }
                        } else {
                            State::CdataPrefix {
                                matched: matched + 1,
                            }
                        }
                    } else {
                        // Not a CDATA section after all (`<![INCLUDE[` …):
                        // treat it as a doctype-ish marked section. The `[`
                        // already consumed opened one nesting level.
                        let depth = match b {
                            b']' => 0,
                            b'[' => 2,
                            _ => 1,
                        };
                        State::Doctype {
                            depth,
                            quote: match b {
                                b'\'' => Quote::Single,
                                b'"' => Quote::Double,
                                _ => Quote::None,
                            },
                        }
                    };
                }
                State::Cdata { brackets: 0 } => match memchr(b']', &bytes[i..]) {
                    Some(k) => {
                        self.text.extend_from_slice(&bytes[i..i + k]);
                        i += k + 1;
                        self.state = State::Cdata { brackets: 1 };
                    }
                    None => {
                        self.text.extend_from_slice(&bytes[i..]);
                        i = len;
                    }
                },
                State::Cdata { brackets } => {
                    let b = bytes[i];
                    i += 1;
                    match b {
                        // At two pending `]`s the oldest is known content.
                        b']' if brackets >= 2 => self.text.push(b']'),
                        b']' => self.state = State::Cdata { brackets: 2 },
                        b'>' if brackets >= 2 => self.state = State::Text,
                        _ => {
                            // The pending `]`s were content after all.
                            for _ in 0..brackets {
                                self.text.push(b']');
                            }
                            self.text.push(b);
                            self.state = State::Cdata { brackets: 0 };
                        }
                    }
                }
                State::Comment { dashes: 0 } => match memchr(b'-', &bytes[i..]) {
                    Some(k) => {
                        i += k + 1;
                        self.state = State::Comment { dashes: 1 };
                    }
                    None => i = len,
                },
                State::Comment { dashes } => {
                    let b = bytes[i];
                    i += 1;
                    self.state = match b {
                        b'-' => State::Comment {
                            dashes: (dashes + 1).min(2),
                        },
                        b'>' if dashes >= 2 => State::Text,
                        _ => State::Comment { dashes: 0 },
                    };
                }
                State::Doctype {
                    depth,
                    quote: Quote::None,
                } => {
                    let rest = &bytes[i..];
                    match min_hit(memchr3(b'\'', b'"', b'>', rest), memchr2(b'[', b']', rest)) {
                        Some(k) => {
                            let b = rest[k];
                            i += k + 1;
                            self.state = match b {
                                b'\'' => State::Doctype {
                                    depth,
                                    quote: Quote::Single,
                                },
                                b'"' => State::Doctype {
                                    depth,
                                    quote: Quote::Double,
                                },
                                b'[' => State::Doctype {
                                    depth: depth.saturating_add(1),
                                    quote: Quote::None,
                                },
                                b']' => State::Doctype {
                                    depth: depth.saturating_sub(1),
                                    quote: Quote::None,
                                },
                                _ if depth == 0 => State::Text,
                                _ => State::Doctype {
                                    depth,
                                    quote: Quote::None,
                                },
                            };
                        }
                        None => i = len,
                    }
                }
                State::Doctype { depth, quote } => {
                    // Inside a system/public literal everything is inert
                    // until the matching quote — literals legally contain
                    // `>`, `[` and `]`.
                    let needle = if quote == Quote::Single { b'\'' } else { b'"' };
                    match memchr(needle, &bytes[i..]) {
                        Some(k) => {
                            i += k + 1;
                            self.state = State::Doctype {
                                depth,
                                quote: Quote::None,
                            };
                        }
                        None => i = len,
                    }
                }
                State::Pi { qm: false } => match memchr(b'?', &bytes[i..]) {
                    Some(k) => {
                        i += k + 1;
                        self.state = State::Pi { qm: true };
                    }
                    None => i = len,
                },
                State::Pi { .. } => {
                    let b = bytes[i];
                    i += 1;
                    self.state = match b {
                        b'?' => State::Pi { qm: true },
                        b'>' => State::Text,
                        _ => State::Pi { qm: false },
                    };
                }
            }
        }
        // The chunk ended with a construct still open: bank the borrowed
        // name/value bytes so the next chunk can continue them (the cap
        // checks above ran before any `break`, so the buffers stay
        // bounded), and flush any pending text — character data is emitted
        // at chunk edges, never banked across them.
        if sp.name.1 > sp.name.0 {
            self.name.extend_from_slice(&bytes[sp.name.0..sp.name.1]);
        }
        if sp.value.1 > sp.value.0 {
            self.value.extend_from_slice(&bytes[sp.value.0..sp.value.1]);
        }
        if (sp.text.1 > sp.text.0 || !self.text.is_empty())
            && !self.flush_text(bytes, &mut sp, sink)
        {
            return false;
        }
        true
    }

    /// Advances an entity reference (text or attribute value) by one byte;
    /// shared verbatim between the bulk and scalar scanners so error
    /// positions trivially agree. `Err` carries the [`Tag::Error`] text.
    fn entity_byte(&mut self, b: u8) -> Result<(), &'static str> {
        if b == b';' {
            let back = self.state;
            let ent = &self.ent[..self.ent_len];
            match back {
                State::AttrEntity { .. } => decode_entity(ent, &mut self.value)?,
                _ => decode_entity(ent, &mut self.text)?,
            }
            self.ent_len = 0;
            self.state = match back {
                State::AttrEntity { quote } => State::AttrValue { quote },
                _ => State::Text,
            };
            Ok(())
        } else if b.is_ascii_alphanumeric() || b == b'#' {
            if self.ent_len >= MAX_ENTITY_LEN {
                Err(UNKNOWN_ENTITY)
            } else {
                self.ent[self.ent_len] = b;
                self.ent_len += 1;
                Ok(())
            }
        } else {
            Err(ENTITY_UNTERMINATED)
        }
    }

    /// Resolves the pending name — buffered bytes plus the borrowed span —
    /// and emits the finished open/close tag. Single-chunk names are
    /// borrowed straight out of `bytes`; only straddling names touch the
    /// buffer. Outlined: every call site inlines the sink (the whole
    /// validation path), and only resumption states reach this — keeping
    /// one copy keeps the hot fused path's code small.
    #[inline(never)]
    fn emit_name(
        &mut self,
        bytes: &[u8],
        sp: &mut Spans,
        kind: Finish,
        sink: &mut impl FnMut(Tag<'_>) -> bool,
    ) -> bool {
        let borrowed = &bytes[sp.name.0..sp.name.1];
        let name_bytes: &[u8] = if self.name.is_empty() {
            borrowed
        } else {
            self.name.extend_from_slice(borrowed);
            self.name.as_slice()
        };
        let keep_going = sink(match kind {
            Finish::Open => Tag::Open(name_bytes),
            Finish::Close => Tag::Close(name_bytes),
        });
        self.name.clear();
        sp.name = (0, 0);
        keep_going
    }

    /// Resolves the pending attribute — name and value, buffered and/or
    /// borrowed — and emits it. Values with no decoded entity and no chunk
    /// straddle are borrowed straight out of `bytes`.
    #[inline(never)]
    fn emit_attr(
        &mut self,
        bytes: &[u8],
        sp: &mut Spans,
        sink: &mut impl FnMut(Tag<'_>) -> bool,
    ) -> bool {
        let name_borrowed = &bytes[sp.name.0..sp.name.1];
        let value_borrowed = &bytes[sp.value.0..sp.value.1];
        let name_buffered = !self.name.is_empty();
        let value_buffered = !self.value.is_empty();
        if name_buffered {
            self.name.extend_from_slice(name_borrowed);
        }
        if value_buffered {
            self.value.extend_from_slice(value_borrowed);
        }
        let keep_going = sink(Tag::Attr {
            name: if name_buffered {
                &self.name
            } else {
                name_borrowed
            },
            value: if value_buffered {
                &self.value
            } else {
                value_borrowed
            },
        });
        self.name.clear();
        self.value.clear();
        sp.name = (0, 0);
        sp.value = (0, 0);
        keep_going
    }

    /// Emits the pending text — decoded buffer plus the borrowed segment —
    /// as one [`Tag::Text`] segment; a no-op when both are empty.
    #[inline(never)]
    fn flush_text(
        &mut self,
        bytes: &[u8],
        sp: &mut Spans,
        sink: &mut impl FnMut(Tag<'_>) -> bool,
    ) -> bool {
        let borrowed = &bytes[sp.text.0..sp.text.1];
        sp.text = (0, 0);
        let keep_going = if self.text.is_empty() {
            if borrowed.is_empty() {
                return true;
            }
            sink(Tag::Text(borrowed))
        } else {
            self.text.extend_from_slice(borrowed);
            sink(Tag::Text(&self.text))
        };
        self.text.clear();
        keep_going
    }

    /// Emits a tag whose name lies entirely inside the current chunk — the
    /// fused fast path's borrow-only emission (the name buffer is known
    /// empty and the spans untouched, so there is nothing to reset).
    #[inline]
    fn emit_direct(
        name_bytes: &[u8],
        kind: Finish,
        sink: &mut impl FnMut(Tag<'_>) -> bool,
    ) -> bool {
        sink(match kind {
            Finish::Open => Tag::Open(name_bytes),
            Finish::Close => Tag::Close(name_bytes),
        })
    }

    /// Emits a [`Tag::Error`], discarding every pending construct and
    /// resuming at character data. Malformed markup is never the hot path,
    /// and each of the many call sites would inline the sink — outline
    /// them all into this one cold copy.
    #[cold]
    #[inline(never)]
    fn emit_error(
        &mut self,
        sp: &mut Spans,
        message: &'static str,
        sink: &mut impl FnMut(Tag<'_>) -> bool,
    ) -> bool {
        self.name.clear();
        self.value.clear();
        self.text.clear();
        self.ent_len = 0;
        *sp = Spans::default();
        self.state = State::Text;
        sink(Tag::Error(message))
    }

    /// The byte-at-a-time scanner, kept as the reference oracle:
    /// `tests/tokenizer_equivalence.rs` property-checks [`Tokenizer::feed`]
    /// against it over random documents and every chunk split, and the E14
    /// benchmark reports the bulk scanner's speedup relative to it.
    /// Semantics are identical; only the scanning strategy differs.
    #[doc(hidden)]
    pub fn feed_scalar(&mut self, bytes: &[u8], sink: &mut impl FnMut(Tag<'_>) -> bool) -> bool {
        /// What the current byte completed, applied after the state step so
        /// the borrows of the buffers never overlap the state update.
        enum Emit {
            None,
            Name(Finish),
            Attr,
            /// Emit the pending attribute, then start the next attribute's
            /// name with this byte (a valueless attribute ran into the next
            /// name with no `=`).
            AttrThenName(u8),
            Text,
            SelfClose,
            Error(&'static str),
            /// Flush the aborted text run, then report the error (a bad
            /// entity reference mid-text).
            TextThenError(&'static str),
        }
        for &b in bytes {
            let mut emit = Emit::None;
            match self.state {
                State::Entity | State::AttrEntity { .. } => {
                    let in_text = self.state == State::Entity;
                    if let Err(message) = self.entity_byte(b) {
                        // Flush the text run the bad reference aborted —
                        // same order as the bulk scanner.
                        emit = if in_text && !self.text.is_empty() {
                            Emit::TextThenError(message)
                        } else {
                            Emit::Error(message)
                        };
                        self.state = State::Text;
                    }
                }
                _ => {
                    self.state = match self.state {
                        State::Entity | State::AttrEntity { .. } => unreachable!("handled above"),
                        State::Text => match b {
                            b'<' => {
                                if !self.text.is_empty() {
                                    emit = Emit::Text;
                                }
                                State::Lt
                            }
                            b'&' => {
                                self.ent_len = 0;
                                State::Entity
                            }
                            _ => {
                                self.text.push(b);
                                State::Text
                            }
                        },
                        State::Lt => match b {
                            b'/' => {
                                self.name.clear();
                                State::CloseName
                            }
                            b'!' => State::Bang,
                            b'?' => State::Pi { qm: false },
                            b'>' => {
                                emit = Emit::Error("empty tag '<>'");
                                State::Text
                            }
                            _ if is_name_byte(b) => {
                                self.name.clear();
                                self.name.push(b);
                                State::OpenName
                            }
                            _ => {
                                emit = Emit::Error("stray '<' is not followed by a tag name");
                                State::Text
                            }
                        },
                        State::OpenName => match b {
                            b'>' => {
                                emit = Emit::Name(Finish::Open);
                                State::Text
                            }
                            b'/' => {
                                emit = Emit::Name(Finish::Open);
                                State::SelfCloseEnd
                            }
                            _ if b.is_ascii_whitespace() => {
                                emit = Emit::Name(Finish::Open);
                                State::AttrSpace
                            }
                            b'<' => {
                                emit = Emit::Error("'<' inside a tag");
                                State::Text
                            }
                            _ if is_name_byte(b) => {
                                if self.name.len() >= self.name_limit {
                                    emit = Emit::Error(NAME_TOO_LONG);
                                    State::Text
                                } else {
                                    self.name.push(b);
                                    State::OpenName
                                }
                            }
                            _ => {
                                emit = Emit::Error("malformed start tag");
                                State::Text
                            }
                        },
                        State::AttrSpace => match b {
                            _ if b.is_ascii_whitespace() => State::AttrSpace,
                            b'>' => State::Text,
                            b'/' => State::SelfCloseEnd,
                            b'<' => {
                                emit = Emit::Error("'<' inside a tag");
                                State::Text
                            }
                            _ if is_name_byte(b) => {
                                self.name.push(b);
                                State::AttrName
                            }
                            _ => {
                                emit = Emit::Error("malformed start tag");
                                State::Text
                            }
                        },
                        State::AttrName => match b {
                            b'=' => State::AttrValueStart,
                            _ if b.is_ascii_whitespace() => State::AttrEq,
                            b'>' => {
                                emit = Emit::Attr;
                                State::Text
                            }
                            b'/' => {
                                emit = Emit::Attr;
                                State::SelfCloseEnd
                            }
                            b'<' => {
                                emit = Emit::Error("'<' inside a tag");
                                State::Text
                            }
                            _ if is_name_byte(b) => {
                                if self.name.len() >= self.name_limit {
                                    emit = Emit::Error(ATTR_TOO_LONG);
                                    State::Text
                                } else {
                                    self.name.push(b);
                                    State::AttrName
                                }
                            }
                            _ => {
                                emit = Emit::Error("malformed start tag");
                                State::Text
                            }
                        },
                        State::AttrEq => match b {
                            _ if b.is_ascii_whitespace() => State::AttrEq,
                            b'=' => State::AttrValueStart,
                            b'>' => {
                                emit = Emit::Attr;
                                State::Text
                            }
                            b'/' => {
                                emit = Emit::Attr;
                                State::SelfCloseEnd
                            }
                            b'<' => {
                                emit = Emit::Error("'<' inside a tag");
                                State::Text
                            }
                            _ if is_name_byte(b) => {
                                emit = Emit::AttrThenName(b);
                                State::AttrName
                            }
                            _ => {
                                emit = Emit::Error("malformed start tag");
                                State::Text
                            }
                        },
                        State::AttrValueStart => match b {
                            _ if b.is_ascii_whitespace() => State::AttrValueStart,
                            b'\'' => State::AttrValue {
                                quote: Quote::Single,
                            },
                            b'"' => State::AttrValue {
                                quote: Quote::Double,
                            },
                            b'<' => {
                                emit = Emit::Error("'<' inside a tag");
                                State::Text
                            }
                            _ => {
                                emit = Emit::Error("attribute value must be quoted");
                                State::Text
                            }
                        },
                        State::AttrValue { quote } => match (quote, b) {
                            (Quote::Single, b'\'') | (Quote::Double, b'"') => {
                                emit = Emit::Attr;
                                State::AttrSpace
                            }
                            (_, b'&') => {
                                self.ent_len = 0;
                                State::AttrEntity { quote }
                            }
                            (_, b'<') => {
                                emit = Emit::Error("'<' inside an attribute value");
                                State::Text
                            }
                            _ => {
                                if self.value.len() >= Self::MAX_VALUE_LEN {
                                    emit = Emit::Error(VALUE_TOO_LONG);
                                    State::Text
                                } else {
                                    self.value.push(b);
                                    State::AttrValue { quote }
                                }
                            }
                        },
                        State::SelfCloseEnd => match b {
                            b'>' => {
                                emit = Emit::SelfClose;
                                State::Text
                            }
                            _ => {
                                emit = Emit::Error("expected '>' after '/' in a tag");
                                State::Text
                            }
                        },
                        State::CloseName => match b {
                            b'>' if self.name.is_empty() => {
                                emit = Emit::Error("end tag '</>' has no name");
                                State::Text
                            }
                            b'>' => {
                                emit = Emit::Name(Finish::Close);
                                State::Text
                            }
                            _ if b.is_ascii_whitespace() && self.name.is_empty() => {
                                emit = Emit::Error("end tag '</ ' has no name");
                                State::Text
                            }
                            _ if b.is_ascii_whitespace() => State::CloseEnd,
                            _ if is_name_byte(b) => {
                                if self.name.len() >= self.name_limit {
                                    emit = Emit::Error(NAME_TOO_LONG);
                                    State::Text
                                } else {
                                    self.name.push(b);
                                    State::CloseName
                                }
                            }
                            _ => {
                                emit = Emit::Error("malformed end tag");
                                State::Text
                            }
                        },
                        State::CloseEnd => match b {
                            b'>' => {
                                emit = Emit::Name(Finish::Close);
                                State::Text
                            }
                            _ if b.is_ascii_whitespace() => State::CloseEnd,
                            _ => {
                                emit = Emit::Error("garbage after an end-tag name");
                                State::Text
                            }
                        },
                        State::Bang => match b {
                            b'-' => State::BangDash,
                            b'[' => State::CdataPrefix { matched: 0 },
                            b'>' => State::Text,
                            _ => State::Doctype {
                                depth: 0,
                                quote: Quote::None,
                            },
                        },
                        State::BangDash => match b {
                            b'-' => State::Comment { dashes: 0 },
                            b'>' => State::Text,
                            _ => State::Doctype {
                                depth: 0,
                                quote: Quote::None,
                            },
                        },
                        State::CdataPrefix { matched } => {
                            if b == CDATA_PREFIX[matched as usize] {
                                if matched as usize + 1 == CDATA_PREFIX.len() {
                                    State::Cdata { brackets: 0 }
                                } else {
                                    State::CdataPrefix {
                                        matched: matched + 1,
                                    }
                                }
                            } else {
                                let depth = match b {
                                    b']' => 0,
                                    b'[' => 2,
                                    _ => 1,
                                };
                                State::Doctype {
                                    depth,
                                    quote: match b {
                                        b'\'' => Quote::Single,
                                        b'"' => Quote::Double,
                                        _ => Quote::None,
                                    },
                                }
                            }
                        }
                        State::Cdata { brackets } => match b {
                            b']' if brackets >= 2 => {
                                self.text.push(b']');
                                State::Cdata { brackets: 2 }
                            }
                            b']' => State::Cdata {
                                brackets: brackets + 1,
                            },
                            b'>' if brackets >= 2 => State::Text,
                            _ => {
                                for _ in 0..brackets {
                                    self.text.push(b']');
                                }
                                self.text.push(b);
                                State::Cdata { brackets: 0 }
                            }
                        },
                        State::Comment { dashes } => match b {
                            b'-' => State::Comment {
                                dashes: (dashes + 1).min(2),
                            },
                            b'>' if dashes >= 2 => State::Text,
                            _ => State::Comment { dashes: 0 },
                        },
                        State::Doctype { depth, quote } => match (quote, b) {
                            (Quote::Single, b'\'') | (Quote::Double, b'"') => State::Doctype {
                                depth,
                                quote: Quote::None,
                            },
                            (Quote::Single, _) | (Quote::Double, _) => {
                                State::Doctype { depth, quote }
                            }
                            (Quote::None, b'\'') => State::Doctype {
                                depth,
                                quote: Quote::Single,
                            },
                            (Quote::None, b'"') => State::Doctype {
                                depth,
                                quote: Quote::Double,
                            },
                            (Quote::None, b'[') => State::Doctype {
                                depth: depth.saturating_add(1),
                                quote: Quote::None,
                            },
                            (Quote::None, b']') => State::Doctype {
                                depth: depth.saturating_sub(1),
                                quote: Quote::None,
                            },
                            (Quote::None, b'>') if depth == 0 => State::Text,
                            (Quote::None, _) => State::Doctype {
                                depth,
                                quote: Quote::None,
                            },
                        },
                        State::Pi { qm } => match b {
                            b'?' => State::Pi { qm: true },
                            b'>' if qm => State::Text,
                            _ => State::Pi { qm: false },
                        },
                    };
                }
            }
            match emit {
                Emit::None => {}
                Emit::Name(kind) => {
                    let keep_going = sink(match kind {
                        Finish::Open => Tag::Open(&self.name),
                        Finish::Close => Tag::Close(&self.name),
                    });
                    self.name.clear();
                    if !keep_going {
                        return false;
                    }
                }
                Emit::Attr => {
                    let keep_going = sink(Tag::Attr {
                        name: &self.name,
                        value: &self.value,
                    });
                    self.name.clear();
                    self.value.clear();
                    if !keep_going {
                        return false;
                    }
                }
                Emit::AttrThenName(next) => {
                    let keep_going = sink(Tag::Attr {
                        name: &self.name,
                        value: &self.value,
                    });
                    self.name.clear();
                    self.value.clear();
                    if !keep_going {
                        return false;
                    }
                    self.name.push(next);
                }
                Emit::Text => {
                    let keep_going = sink(Tag::Text(&self.text));
                    self.text.clear();
                    if !keep_going {
                        return false;
                    }
                }
                Emit::SelfClose => {
                    if !sink(Tag::SelfClose) {
                        return false;
                    }
                }
                Emit::Error(message) => {
                    self.name.clear();
                    self.value.clear();
                    self.text.clear();
                    self.ent_len = 0;
                    if !sink(Tag::Error(message)) {
                        return false;
                    }
                }
                Emit::TextThenError(message) => {
                    let keep_going = sink(Tag::Text(&self.text));
                    self.name.clear();
                    self.value.clear();
                    self.text.clear();
                    self.ent_len = 0;
                    if !keep_going || !sink(Tag::Error(message)) {
                        return false;
                    }
                }
            }
        }
        // Flush pending text at the chunk edge, mirroring the bulk scanner.
        if !self.text.is_empty() {
            let keep_going = sink(Tag::Text(&self.text));
            self.text.clear();
            if !keep_going {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders one event compactly: `<n>`, ` n='v'`, `/>`, `</n>`, `'t'`,
    /// `!err`.
    fn render(tag: &Tag<'_>) -> String {
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

    /// Collects the events of a byte stream, splitting it into chunks of
    /// `chunk` bytes (0 = one chunk); `scalar` selects the oracle scanner.
    fn scan_with(input: &[u8], chunk: usize, scalar: bool) -> Vec<String> {
        let mut t = Tokenizer::default();
        let mut out = Vec::new();
        let mut push = |tag: Tag<'_>| {
            out.push(render(&tag));
            true
        };
        let parts: Vec<&[u8]> = if chunk == 0 {
            vec![input]
        } else {
            input.chunks(chunk).collect()
        };
        for part in parts {
            if scalar {
                assert!(t.feed_scalar(part, &mut push));
            } else {
                assert!(t.feed(part, &mut push));
            }
        }
        out
    }

    /// Merges consecutive `Text` renderings — segment boundaries move with
    /// the chunking, their concatenation does not.
    fn normalize(events: Vec<String>) -> Vec<String> {
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
            out.push(e);
        }
        out
    }

    /// Scans with the bulk scanner, asserting the scalar oracle agrees at
    /// the same chunking and that a whole-document scan ends idle.
    fn scan(input: &str, chunk: usize) -> Vec<String> {
        let bulk = scan_with(input.as_bytes(), chunk, false);
        let scalar = scan_with(input.as_bytes(), chunk, true);
        assert_eq!(bulk, scalar, "bulk and scalar scanners disagree");
        let mut t = Tokenizer::default();
        assert!(t.feed(input.as_bytes(), &mut |_| true));
        assert!(t.is_idle(), "scanner left inside a construct");
        bulk
    }

    /// Asserts the normalized event stream is `want` for the whole document
    /// and at every chunk size.
    fn scan_all_splits(input: &str, want: &[&str]) {
        assert_eq!(normalize(scan(input, 0)), want, "whole: {input}");
        for chunk in 1..input.len() {
            assert_eq!(
                normalize(scan(input, chunk)),
                want,
                "chunk {chunk}: {input}"
            );
        }
    }

    #[test]
    fn plain_tags_and_text() {
        assert_eq!(
            scan("<a>text<b/>more</a>", 0),
            vec!["<a>", "'text'", "<b>", "/>", "'more'", "</a>"]
        );
    }

    #[test]
    fn slash_inside_quoted_value_is_not_self_closing() {
        // A '/' inside a quoted attribute value must never mark the tag
        // self-closing: only a '/' directly before the closing '>' and
        // outside any quote does. Pinned across every chunk split so the
        // property stays provable through tokenizer refactors.
        scan_all_splits(
            r#"<a x='a/b'><c/></a>"#,
            &["<a>", " x='a/b'", "<c>", "/>", "</a>"],
        );
        scan_all_splits(r#"<a x="/"></a>"#, &["<a>", " x='/'", "</a>"]);
        scan_all_splits(r#"<a t='a/b'/>"#, &["<a>", " t='a/b'", "/>"]);
        scan_all_splits(
            r#"<a x='/' y="/"></a>"#,
            &["<a>", " x='/'", " y='/'", "</a>"],
        );
    }

    #[test]
    fn attributes_with_tricky_quotes() {
        scan_all_splits(
            r#"<a href="x>y" title='a"b'><b checked/></a>"#,
            &[
                "<a>",
                " href='x>y'",
                " title='a\"b'",
                "<b>",
                " checked=''",
                "/>",
                "</a>",
            ],
        );
    }

    #[test]
    fn valueless_attributes_and_spacing() {
        scan_all_splits(
            "<a one two = 'v' three>x</a>",
            &["<a>", " one=''", " two='v'", " three=''", "'x'", "</a>"],
        );
    }

    #[test]
    fn entities_decode_in_text_and_values() {
        scan_all_splits(
            "<a>x &amp; y &#65;&#x42;</a>",
            &["<a>", "'x & y AB'", "</a>"],
        );
        scan_all_splits(
            r#"<a q='&quot;&apos;' lt="&lt;&gt;"/>"#,
            &["<a>", " q='\"''", " lt='<>'", "/>"],
        );
    }

    #[test]
    fn entity_errors_are_reported() {
        assert_eq!(scan("<a>&nope;</a>", 0)[1], format!("!{UNKNOWN_ENTITY}"));
        assert_eq!(scan("<a>&#xD800;</a>", 0)[1], format!("!{BAD_CHAR_REF}"));
        assert_eq!(scan("<a>&# ;</a>", 0)[1], format!("!{ENTITY_UNTERMINATED}"));
        assert_eq!(scan("<a>&;</a>", 0)[1], format!("!{UNKNOWN_ENTITY}"));
        assert_eq!(
            scan("<a x='&aVeryLongEntityName;'/>", 0)[1],
            format!("!{UNKNOWN_ENTITY}")
        );
        // Bulk and scalar agree at every split even through the error.
        let input = "<a>pre&bogus;post</a>";
        for chunk in 1..input.len() {
            scan(input, chunk);
        }
    }

    #[test]
    fn comments_cdata_pi_doctype() {
        let input = "<?xml version=\"1.0\"?>\
                     <!DOCTYPE doc [ <!ELEMENT doc (a)*> ]>\
                     <doc><!-- a > b --><a/><![CDATA[ <not-a-tag> ]]></doc>";
        assert_eq!(
            normalize(scan(input, 0)),
            vec!["<doc>", "<a>", "/>", "' <not-a-tag> '", "</doc>"]
        );
    }

    #[test]
    fn cdata_bracket_runs_are_content() {
        scan_all_splits(
            "<doc><![CDATA[a]]b]]]>z]]></doc>",
            &["<doc>", "'a]]b]z]]>'", "</doc>"],
        );
    }

    #[test]
    fn doctype_literals_may_contain_markup_characters() {
        // SystemLiteral legally contains '>' and '<'; quote tracking keeps
        // the doctype from terminating early.
        let input = "<!DOCTYPE doc SYSTEM \"x>y<z\" [ <!ENTITY e '>]'> ]><doc><a/></doc>";
        scan_all_splits(input, &["<doc>", "<a>", "/>", "</doc>"]);
    }

    #[test]
    fn every_chunk_size_agrees() {
        let input = "<?pi data?><doc attr=\"v>\"><!--c--><a x='1'/>t&amp;u<b></b>\
                     <![CDATA[]]]>]]></doc>";
        let whole = normalize(scan(input, 0));
        for chunk in 1..input.len() {
            assert_eq!(normalize(scan(input, chunk)), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn malformed_markup_is_reported() {
        assert_eq!(scan("<>", 0), vec!["!empty tag '<>'"]);
        assert_eq!(scan("</>", 0), vec!["!end tag '</>' has no name"]);
        assert_eq!(scan("<a=b>", 0)[0], "!malformed start tag");
        assert_eq!(
            scan("< a>", 0)[0],
            "!stray '<' is not followed by a tag name"
        );
        assert_eq!(scan("</a b>", 0)[0], "!garbage after an end-tag name");
        // Stricter than the attribute-skipping grammar: these are real XML
        // errors that would make attribute events ambiguous.
        assert_eq!(scan("<a x=1>", 0)[1], "!attribute value must be quoted");
        assert_eq!(scan("<a / >", 0)[1], "!expected '>' after '/' in a tag");
        assert_eq!(scan("<a x='<'>", 0)[1], "!'<' inside an attribute value");
    }

    #[test]
    fn idle_only_between_constructs() {
        let mut t = Tokenizer::default();
        assert!(t.feed(b"<partial-na", &mut |_| true));
        assert!(!t.is_idle());
        assert!(t.feed(b"me>", &mut |tag| {
            assert_eq!(tag, Tag::Open(b"partial-name"));
            true
        }));
        assert!(t.is_idle());
        t.reset();
        assert!(t.is_idle());
    }

    #[test]
    fn sink_can_stop_the_scan() {
        let mut t = Tokenizer::default();
        let mut seen = 0;
        assert!(!t.feed(b"<a><b><c>", &mut |_| {
            seen += 1;
            false
        }));
        assert_eq!(seen, 1);
    }

    #[test]
    fn single_chunk_events_are_borrowed_not_buffered() {
        let mut t = Tokenizer::default();
        assert!(t.feed(b"<alpha><beta attr='v'/>text</alpha>", &mut |_| true));
        // Completed-in-chunk names, values and text never touch the buffers.
        assert_eq!(t.name.capacity(), 0);
        assert_eq!(t.value.capacity(), 0);
        assert_eq!(t.text.capacity(), 0);
        // A straddling name does, and the flush covers exactly the name.
        assert!(t.feed(b"<gam", &mut |_| true));
        assert_eq!(t.name, b"gam");
    }

    #[test]
    fn over_long_names_are_capped_with_a_bounded_buffer() {
        let hostile = vec![b'a'; 10 * Tokenizer::MAX_NAME_LEN];
        let mut input = b"<x><".to_vec();
        input.extend_from_slice(&hostile);
        input.extend_from_slice(b" y='z'><x/>");
        let whole = normalize(scan_with(&input, 0, false));
        assert_eq!(whole[0], "<x>");
        assert_eq!(whole[1], format!("!{NAME_TOO_LONG}"));
        // After the error the rest of the hostile run is plain text up to
        // the next '<'.
        assert!(whole[2].starts_with("'aaa"), "got {:?}", &whole[2]);
        assert_eq!(&whole[3..], ["<x>", "/>"]);
        for chunk in [1usize, 7, 4096, 10_000] {
            let bulk = scan_with(&input, chunk, false);
            assert_eq!(bulk, scan_with(&input, chunk, true), "chunk {chunk}");
            assert_eq!(normalize(bulk), whole, "chunk {chunk}");
        }
        // The buffer a hostile stream can pin stays bounded by the cap, not
        // the stream length.
        let mut t = Tokenizer::default();
        assert!(t.feed(b"<", &mut |_| true));
        for chunk in hostile.chunks(977) {
            assert!(t.feed(chunk, &mut |_| true));
        }
        assert!(
            t.name.capacity() <= 2 * Tokenizer::MAX_NAME_LEN,
            "name buffer grew past the cap: {}",
            t.name.capacity()
        );
    }

    #[test]
    fn over_long_attribute_names_and_values_are_capped() {
        let long_name = "b".repeat(Tokenizer::MAX_NAME_LEN + 8);
        let input = format!("<a {long_name}='v'/>");
        let got = scan(&input, 0);
        assert_eq!(got[1], format!("!{ATTR_TOO_LONG}"));
        let long_value = "v".repeat(Tokenizer::MAX_VALUE_LEN + 8);
        let input = format!("<a x='{long_value}'/>");
        for chunk in [0usize, 1, 4096] {
            let bulk = scan_with(input.as_bytes(), chunk, false);
            assert_eq!(
                bulk,
                scan_with(input.as_bytes(), chunk, true),
                "chunk {chunk}"
            );
            assert_eq!(bulk[1], format!("!{VALUE_TOO_LONG}"), "chunk {chunk}");
        }
        // The pinned value buffer stays bounded by the cap.
        let mut t = Tokenizer::default();
        assert!(t.feed(b"<a x='", &mut |_| true));
        for chunk in long_value.as_bytes().chunks(977) {
            assert!(t.feed(chunk, &mut |_| true));
        }
        assert!(
            t.value.capacity() <= 2 * Tokenizer::MAX_VALUE_LEN,
            "value buffer grew past the cap: {}",
            t.value.capacity()
        );
    }

    #[test]
    fn references_past_the_value_cap_match_the_oracle() {
        // Decoded references are not held to the value cap; a value filled
        // to the cap, then carried past it by a reference, still closes at
        // its quote, and a plain byte after that is the error.
        let full = "v".repeat(Tokenizer::MAX_VALUE_LEN);
        for (tail, second) in [("&amp;'/>", None), ("&amp;w'/>", Some(VALUE_TOO_LONG))] {
            let input = format!("<a x='{full}{tail}");
            for chunk in [0usize, 1, 7, 4096] {
                let bulk = scan_with(input.as_bytes(), chunk, false);
                assert_eq!(
                    bulk,
                    scan_with(input.as_bytes(), chunk, true),
                    "chunk {chunk}"
                );
                match second {
                    None => assert_eq!(bulk[1], format!(" x='{full}&'"), "chunk {chunk}"),
                    Some(message) => assert_eq!(bulk[1], format!("!{message}"), "chunk {chunk}"),
                }
            }
        }
    }

    #[test]
    fn text_is_flushed_at_chunk_edges_never_banked() {
        let mut t = Tokenizer::default();
        let mut segments = Vec::new();
        for chunk in [&b"<a>hel"[..], &b"lo</a>"[..]] {
            assert!(t.feed(chunk, &mut |tag| {
                if let Tag::Text(s) = tag {
                    segments.push(String::from_utf8_lossy(s).into_owned());
                }
                true
            }));
            // Nothing pending between feeds: the segment was emitted.
            assert_eq!(t.text.capacity(), 0);
        }
        assert_eq!(segments, ["hel", "lo"]);
    }
}
