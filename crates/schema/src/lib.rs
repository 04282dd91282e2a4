//! Schema-level validation: many content models, one alphabet, streaming
//! documents.
//!
//! The paper's algorithms exist to validate *streams of XML documents
//! against whole DTDs/XSDs* — many deterministic content models sharing one
//! element-name alphabet, matched event-by-event as documents arrive. This
//! crate is that production surface:
//!
//! * [`SchemaBuilder`] collects element and attribute declarations —
//!   programmatically or from a DTD fragment (`<!ELEMENT …>` and
//!   `<!ATTLIST …>` lines) — and interns every element *and attribute*
//!   name exactly once into **one** [`Alphabet`], which the schema and
//!   every compiled content model share behind one [`Arc`], so all models
//!   agree on dense symbol ids; per-element flat attribute tables record
//!   which attributes are declared and which are `#REQUIRED`, and mixed
//!   content (`#PCDATA`/`ANY`) records where character data is allowed;
//! * [`Schema`] is the immutable compile-once artifact (`Send + Sync`,
//!   hand it around in an [`Arc`]): per-element matchers with automatically
//!   selected strategies, determinism certificates, and a flat per-symbol
//!   dispatch table feeding the validation hot path;
//! * [`DocumentValidator`] validates a nested document in one pass from
//!   `start_element`/`end_element` events, holding a stack of plain-data
//!   cursor frames — allocation-free in steady state, hash-free when
//!   elements are pre-interned to [`Symbol`]s via [`Schema::lookup`], and
//!   `Send` (it owns its schema `Arc`);
//! * [`Document`] is one resumable document stream: `feed`/`feed_bytes`
//!   advance it by events *or raw bytes* (chunk boundaries anywhere, even
//!   mid-tag) with fail-fast rejection under the [`ServiceLimits`] caps,
//!   `finish` checks end-of-document acceptance and keeps the buffers for
//!   the next document, `time_out` ends a stalled one with `E306`;
//! * [`ValidationService`] is a handle table over documents: `open()`
//!   hands out resumable [`DocId`] handles to any number of interleaved
//!   in-flight documents, with an admission cap;
//! * [`tokenizer`] — the bulk-scanning byte scanner behind `feed_bytes`:
//!   SWAR delimiter search ([`redet_core::bytescan`]) consumes whole
//!   character-data/comment/attribute runs per step and borrows tag names
//!   straight out of the input chunk.
//!
//! Failures — at build time and at validation time — surface as structured
//! [`Diagnostic`]s with stable codes, byte spans into the DTD source, and
//! (for validation) the element path and event index.
//!
//! ```
//! use redet_schema::SchemaBuilder;
//!
//! let schema = SchemaBuilder::new()
//!     .parse_dtd(
//!         "<!ELEMENT bibliography (book)*>
//!          <!ELEMENT book (title, author+, year?)>
//!          <!ELEMENT title (#PCDATA)>",
//!     )
//!     .build()
//!     .unwrap();
//!
//! let mut validator = schema.validator();
//! validator.start_element("bibliography");
//! validator.start_element("book");
//! validator.start_element("title");
//! validator.end_element();
//! validator.start_element("author");
//! validator.end_element();
//! validator.end_element();
//! validator.end_element();
//! assert!(validator.finish().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dtd;
pub mod registry;
mod service;
pub mod tokenizer;
mod validator;

pub use registry::{content_hash, Provenance, Registry, RegistryStats, SharedSchema};
pub use service::{
    in_flight_refusal, DocId, Document, FeedStatus, ServiceLimits, ValidationService,
};
pub use tokenizer::{Tag, Tokenizer};
pub use validator::{DocEvent, DocumentValidator};

use crate::dtd::{parse_dtd_fragment, ParsedContent};
use redet_core::{Code, CompiledAnalysis, DeterministicRegex, Diagnostic, MatchStrategy};
use redet_syntax::{
    parse_spanned_with_alphabet, Alphabet, Regex, Span, Symbol, UnrolledSize,
    MAX_UNROLLED_POSITIONS, MAX_UNROLLED_SET_ENTRIES,
};
use redet_tree::PosId;
use std::sync::Arc;

/// How an element's content is declared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentKind {
    /// A deterministic content model constrains the children.
    Model,
    /// `EMPTY` (or `(#PCDATA)`): no element children allowed.
    Empty,
    /// `ANY`: any sequence of children.
    Any,
    /// The name occurs in some content model but carries no declaration of
    /// its own; validated like `EMPTY`.
    Undeclared,
}

enum Content {
    Model(DeterministicRegex),
    Empty,
    Any,
    Undeclared,
}

impl Content {
    fn kind(&self) -> ContentKind {
        match self {
            Content::Model(_) => ContentKind::Model,
            Content::Empty => ContentKind::Empty,
            Content::Any => ContentKind::Any,
            Content::Undeclared => ContentKind::Undeclared,
        }
    }
}

/// One entry of the flat per-symbol dispatch table: everything
/// `DocumentValidator::start_element_symbol` needs to know about a symbol —
/// the content kind *and* the start state — in a single indexed load,
/// replacing the old `content_of` enum walk plus
/// `Option<&DeterministicRegex>` chasing on every open event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// Declared with a position-machine content model; the payload is the
    /// model's start position, so opening the element touches no model
    /// state at all.
    Pos(PosId),
    /// Declared with a counted content model (`e{i,j}`), validated by the
    /// owned-state set-of-positions simulation.
    Counted,
    /// `EMPTY` / `(#PCDATA)`: no element children allowed.
    Empty,
    /// `ANY`: children unconstrained.
    Any,
    /// Referenced but never declared: `EMPTY` semantics.
    Undeclared,
}

/// One declared attribute of an element in the schema-wide flat attribute
/// table: the attribute name's dense symbol index and whether a start tag
/// must carry it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AttrDecl {
    /// Dense symbol index of the attribute's name (attribute names share
    /// the element-name alphabet, so `feed_bytes` resolves them through
    /// the same packed-key [`NameIndex`]).
    pub sym: u32,
    /// Whether the attribute was declared `#REQUIRED`.
    pub required: bool,
}

/// Flat open-addressed element-name index with an FNV-1a hash, built once
/// at schema compile time. [`Schema::lookup`] probes this instead of the
/// alphabet's `HashMap`: name→symbol resolution is the per-open-tag cost of
/// the raw-byte ingestion path ([`ValidationService::feed_bytes`] resolves
/// every start tag by name), and FNV over a short name plus a linear probe
/// is several times cheaper than a SipHash `HashMap` hit.
/// One [`NameIndex`] slot: the name's confirmation key (see
/// [`NameIndex::key`]) next to its packed symbol word, so a probe touches
/// a single cache line.
#[derive(Clone, Copy, Debug, Default)]
struct NameSlot {
    /// The name key word; meaningful only when `sym != 0`.
    key: u64,
    /// `(capped length << SYM_BITS) | (symbol index + 1)`, 0 = empty.
    /// Together with `key`, equality *is* name equality for names of at
    /// most eight bytes, so the common probe never touches the name's
    /// bytes again.
    sym: u32,
}

#[derive(Debug)]
struct NameIndex {
    /// Power-of-two open-addressed table.
    slots: Vec<NameSlot>,
    mask: usize,
}

impl NameIndex {
    /// Slot-word bits holding the symbol index; the capped name length
    /// occupies the rest.
    const SYM_BITS: u32 = 24;
    const SYM_MASK: u32 = (1 << Self::SYM_BITS) - 1;

    fn build(alphabet: &Alphabet) -> Self {
        assert!(
            (alphabet.len() as u32) < Self::SYM_MASK,
            "alphabet too large for the packed name index"
        );
        let capacity = (alphabet.len() * 2).next_power_of_two().max(8);
        let mut index = NameIndex {
            slots: vec![NameSlot::default(); capacity],
            mask: capacity - 1,
        };
        for sym in alphabet.symbols() {
            let name = alphabet.name(sym).as_bytes();
            let (w, len) = Self::key(name);
            let mut slot = Self::hash(w, name) & index.mask;
            while index.slots[slot].sym != 0 {
                slot = (slot + 1) & index.mask;
            }
            index.slots[slot] = NameSlot {
                key: w,
                sym: (len << Self::SYM_BITS) | (sym.index() as u32 + 1),
            };
        }
        index
    }

    /// The confirmation key of a name: its first eight bytes as a
    /// little-endian word (shorter names zero-padded) plus its capped
    /// byte length. For names within one word the pair uniquely
    /// identifies the name; longer names still need one final byte
    /// compare.
    ///
    /// Sub-word names are assembled from two *overlapping* fixed-width
    /// loads (head and tail of the name) — the overlapped bytes are the
    /// same bytes in both loads, so ORing the shifted halves reconstructs
    /// the exact zero-padded value with no variable-length copy and no
    /// per-byte shift chain.
    #[inline]
    fn key(name: &[u8]) -> (u64, u32) {
        let len = name.len();
        let w = if len >= 8 {
            u64::from_le_bytes(name[..8].try_into().expect("8-byte head"))
        } else if len >= 4 {
            let lo = u32::from_le_bytes(name[..4].try_into().expect("4-byte head")) as u64;
            let hi = u32::from_le_bytes(name[len - 4..].try_into().expect("4-byte tail")) as u64;
            lo | (hi << (8 * (len - 4)))
        } else if len >= 2 {
            let lo = u16::from_le_bytes(name[..2].try_into().expect("2-byte head")) as u64;
            let hi = u16::from_le_bytes(name[len - 2..].try_into().expect("2-byte tail")) as u64;
            lo | (hi << (8 * (len - 2)))
        } else if len == 1 {
            name[0] as u64
        } else {
            0
        };
        (w, len.min(255) as u32)
    }

    /// Multiplicative hash over little-endian words of the name — one mix
    /// per eight bytes instead of FNV's per-byte multiply chain. `w` is
    /// the name's precomputed [`NameIndex::key`] word, so a name within
    /// one word (the typical case) hashes with a single multiply and no
    /// further loads. Only self-consistency matters: the table is built
    /// and probed with the same function in the same process.
    #[inline]
    fn hash(w: u64, name: &[u8]) -> usize {
        const K: u64 = 0x2545_F491_4F6C_DD1D;
        let mut h = (name.len() as u64 ^ 0xCBF2_9CE4_8422_2325 ^ w).wrapping_mul(K);
        if name.len() > 8 {
            let mut chunks = name[8..].chunks_exact(8);
            for chunk in &mut chunks {
                let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                h = (h ^ w).wrapping_mul(K);
            }
            let (t, _) = Self::key(chunks.remainder());
            h = (h ^ t).wrapping_mul(K);
        }
        (h ^ (h >> 32)) as usize
    }

    /// Probes for `name` (raw bytes); `alphabet` holds the dense name
    /// table used to confirm candidates longer than a key word. Byte-keyed
    /// so the raw-byte ingestion path can resolve tag names without a
    /// UTF-8 round trip — a hit proves the bytes valid UTF-8, since they
    /// equal a schema name's.
    #[inline]
    fn lookup(&self, alphabet: &Alphabet, name: &[u8]) -> Option<Symbol> {
        let (w, len) = Self::key(name);
        let mut slot = Self::hash(w, name) & self.mask;
        loop {
            let stored = self.slots[slot];
            if stored.sym == 0 {
                return None;
            }
            if stored.key == w && stored.sym >> Self::SYM_BITS == len {
                let sym = Symbol::from_index((stored.sym & Self::SYM_MASK) as usize - 1);
                if name.len() <= 8 || alphabet.name(sym).as_bytes() == name {
                    return Some(sym);
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// An immutable compiled schema: every content model compiled over one
/// shared alphabet, per-element strategies selected automatically,
/// determinism certificates retained. `Send + Sync` — one `Arc<Schema>` can
/// serve many validator threads.
///
/// ```
/// use redet_schema::SchemaBuilder;
/// use std::sync::Arc;
///
/// let schema: Arc<redet_schema::Schema> = SchemaBuilder::new()
///     .element("pair", "(left, right)")
///     .build()
///     .unwrap();
/// let pair = schema.lookup("pair").unwrap();
/// assert!(schema.model(pair).is_some());
/// // "left" and "right" are interned but undeclared: EMPTY semantics.
/// let left = schema.lookup("left").unwrap();
/// assert!(schema.model(left).is_none());
/// ```
pub struct Schema {
    /// The one string ↔ symbol map, shared by every content model.
    alphabet: Arc<Alphabet>,
    /// Dense per-symbol content table (index = `Symbol::index()`).
    content: Vec<Content>,
    /// Flat per-symbol dispatch table (index = `Symbol::index()`) — the
    /// validation hot path reads this instead of walking `content`.
    dispatch: Vec<Dispatch>,
    /// Flat FNV name index — the name→symbol hot path behind
    /// [`Schema::lookup`].
    names: NameIndex,
    /// Dense per-symbol name key (index = `Symbol::index()`) — the
    /// end-tag name check of the raw-byte ingestion path compares keys
    /// instead of name bytes.
    name_keys: Vec<(u64, u32)>,
    /// Declared elements in declaration order.
    declared: Vec<Symbol>,
    /// Every element's declared attributes, concatenated in declaration
    /// order; `attr_ranges` slices it per element.
    attrs: Vec<AttrDecl>,
    /// Per-symbol `(start, len)` range into `attrs`
    /// (index = `Symbol::index()`).
    attr_ranges: Vec<(u32, u32)>,
    /// Per-symbol bitmask of the `#REQUIRED` entries of the element's
    /// attribute range (bit `i` = `i`-th declared attribute; ranges are
    /// capped at 64 entries at build time).
    required_masks: Vec<u64>,
    /// Per-symbol "character data allowed" flag: `ANY`, `(#PCDATA)` and
    /// mixed `(#PCDATA | …)*` content.
    text_ok: Vec<bool>,
}

impl Schema {
    /// Looks up an element name, returning its pre-interned symbol. Do this
    /// once per distinct tag name and feed the symbols to
    /// [`DocumentValidator::start_element_symbol`] — the validation hot
    /// loop then never hashes strings. The lookup itself runs on a flat
    /// FNV-probed table (a few ns), since the raw-byte ingestion path
    /// resolves every start tag through it.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.names.lookup(&self.alphabet, name.as_bytes())
    }

    /// [`Schema::lookup`] keyed by raw name bytes, as handed out by the
    /// streaming tokenizer. A hit implies the bytes are valid UTF-8 (they
    /// compared equal to an interned name), which is how the raw-byte
    /// ingestion path skips per-tag UTF-8 validation: only unknown names
    /// fall back to [`std::str::from_utf8`].
    #[inline]
    pub fn lookup_bytes(&self, name: &[u8]) -> Option<Symbol> {
        self.names.lookup(&self.alphabet, name)
    }

    /// Whether `name` (raw bytes) is exactly `sym`'s name — the end-tag
    /// well-formedness check of the raw-byte ingestion path. Key equality
    /// settles names within one word (the typical case) with two integer
    /// compares; only longer names re-touch the bytes.
    #[inline]
    pub(crate) fn name_matches(&self, sym: Symbol, name: &[u8]) -> bool {
        self.name_keys[sym.index()] == NameIndex::key(name)
            && (name.len() <= 8 || self.alphabet.name(sym).as_bytes() == name)
    }

    /// The name of a symbol of this schema's alphabet.
    pub fn name(&self, sym: Symbol) -> &str {
        self.alphabet.name(sym)
    }

    /// The schema-wide alphabet (element and attribute names): the one
    /// object every content model's [`DeterministicRegex::alphabet`] returns.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of element declarations.
    pub fn len(&self) -> usize {
        self.declared.len()
    }

    /// Whether the schema declares no elements.
    pub fn is_empty(&self) -> bool {
        self.declared.is_empty()
    }

    /// Declared elements, in declaration order.
    pub fn elements(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.declared.iter().copied()
    }

    /// How the element's content is declared.
    ///
    /// # Panics
    /// Panics if `sym` was not handed out by this schema's alphabet.
    pub fn content_kind(&self, sym: Symbol) -> ContentKind {
        self.content[sym.index()].kind()
    }

    /// The flat dispatch entry of a symbol — the validation hot path.
    ///
    /// # Panics
    /// Panics if `sym` was not handed out by this schema's alphabet.
    #[inline]
    pub(crate) fn dispatch(&self, sym: Symbol) -> Dispatch {
        self.dispatch[sym.index()]
    }

    /// The content model at a dense symbol index, or `None` when the symbol
    /// is out of range or carries no model — the validator's safe release
    /// path for its "model frames have a model" invariant.
    #[inline]
    pub(crate) fn model_at(&self, index: u32) -> Option<&DeterministicRegex> {
        match self.content.get(index as usize) {
            Some(Content::Model(m)) => Some(m),
            _ => None,
        }
    }

    /// The declared attributes of the element at dense symbol index
    /// `index`, plus the global offset of that range in the flat table
    /// (the validator's epoch-stamped duplicate scratch indexes globally).
    /// Empty for out-of-range indices (the unknown-element sentinel).
    #[inline]
    pub(crate) fn attrs_of(&self, index: u32) -> (&[AttrDecl], u32) {
        match self.attr_ranges.get(index as usize) {
            Some(&(start, len)) => (&self.attrs[start as usize..(start + len) as usize], start),
            None => (&[], 0),
        }
    }

    /// Bitmask of the `#REQUIRED` attributes of the element at dense
    /// symbol index `index`; zero for out-of-range indices.
    #[inline]
    pub(crate) fn required_mask(&self, index: u32) -> u64 {
        self.required_masks
            .get(index as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Whether character data is allowed inside the element at dense
    /// symbol index `index` (`ANY`, `(#PCDATA)`, or mixed content).
    #[inline]
    pub(crate) fn text_allowed(&self, index: u32) -> bool {
        self.text_ok.get(index as usize).copied().unwrap_or(false)
    }

    /// Total number of attribute declarations across all elements — the
    /// size of the validator's per-document attribute scratch.
    pub(crate) fn attr_decl_count(&self) -> usize {
        self.attrs.len()
    }

    /// The compiled content model of `sym`, when it is declared with one.
    /// Exposes the per-element strategy ([`DeterministicRegex::strategy`]),
    /// certificate, statistics and the flat stepping interface.
    ///
    /// # Panics
    /// Panics if `sym` was not handed out by this schema's alphabet.
    pub fn model(&self, sym: Symbol) -> Option<&DeterministicRegex> {
        match &self.content[sym.index()] {
            Content::Model(m) => Some(m),
            _ => None,
        }
    }

    /// Opens an event-driven validator over this schema. The validator
    /// owns a clone of the [`Arc`], so it can be moved across threads and
    /// stored anywhere. Keep it around and validate many documents with it
    /// — its recycled frame stack and scratch pool make steady-state
    /// validation allocation-free.
    #[must_use]
    pub fn validator(self: &Arc<Self>) -> DocumentValidator {
        DocumentValidator::new(Arc::clone(self))
    }

    /// Opens a connection-oriented [`ValidationService`] over this schema:
    /// many in-flight documents, fed by events or raw bytes in any
    /// interleaving, with fail-fast rejection. See the service docs.
    #[must_use]
    pub fn service(self: &Arc<Self>) -> ValidationService {
        ValidationService::new(Arc::clone(self))
    }

    /// Opens a [`ValidationService`] governed by `limits`: per-document
    /// depth/byte/event/name caps and service-wide admission control. See
    /// [`ServiceLimits`].
    #[must_use]
    pub fn service_with_limits(self: &Arc<Self>, limits: ServiceLimits) -> ValidationService {
        ValidationService::with_limits(Arc::clone(self), limits)
    }
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema")
            .field("elements", &self.declared.len())
            .field("alphabet", &self.alphabet.len())
            .finish()
    }
}

struct Decl {
    name: String,
    name_span: Option<Span>,
    content: ParsedContent,
}

/// One attribute-list declaration accumulated by the builder, from
/// [`SchemaBuilder::attribute`] or a DTD `<!ATTLIST …>`.
struct AttlistDecl {
    element: String,
    element_span: Option<Span>,
    attrs: Vec<AttrSource>,
}

struct AttrSource {
    name: String,
    name_span: Option<Span>,
    required: bool,
}

/// At most this many declared attributes per element: the validator tracks
/// missing `#REQUIRED` attributes in one 64-bit mask per open start tag.
const MAX_ATTRS_PER_ELEMENT: usize = 64;

/// The most positions the counted content models of one schema may unroll
/// to together: four times what one model may. The parser caps each model
/// on its own, but one DTD may declare many; past this total,
/// [`SchemaBuilder::build`] refuses the schema with one [`Code::Parse`]
/// (`E001`) diagnostic at the declaration that crossed it, before any model
/// is analyzed. Models without numeric occurrence indicators do not count:
/// they compile in time linear in their text.
pub const MAX_SCHEMA_UNROLLED_POSITIONS: usize = 4 * MAX_UNROLLED_POSITIONS;

/// The most position-set entries the counted content models of one schema
/// may unroll to together (see [`MAX_SCHEMA_UNROLLED_POSITIONS`]).
pub const MAX_SCHEMA_UNROLLED_SET_ENTRIES: usize = 4 * MAX_UNROLLED_SET_ENTRIES;

/// The refusal for a schema whose counted models, summed up to and
/// including the current one, unroll past a schema budget.
fn over_schema_budget(total: UnrolledSize) -> Option<Diagnostic> {
    let crossed = if total.positions > MAX_SCHEMA_UNROLLED_POSITIONS {
        format!("{MAX_SCHEMA_UNROLLED_POSITIONS} positions")
    } else if total.entries > MAX_SCHEMA_UNROLLED_SET_ENTRIES {
        format!("{MAX_SCHEMA_UNROLLED_SET_ENTRIES} position-set entries")
    } else {
        return None;
    };
    let message =
        format!("the counted repetitions of this schema unroll to more than {crossed} in total");
    Some(Diagnostic::new(Code::Parse, message).with_span(Span::new(0, 0)))
}

/// Collects element declarations and compiles them into an immutable
/// [`Schema`].
///
/// Declarations come from [`SchemaBuilder::element`] /
/// [`SchemaBuilder::element_empty`] / [`SchemaBuilder::element_any`], or in
/// bulk from a DTD fragment via [`SchemaBuilder::parse_dtd`]. All
/// diagnostics — malformed DTD declarations, duplicate elements,
/// non-deterministic or unparsable content models — are collected and
/// reported together by [`SchemaBuilder::build`].
#[derive(Default)]
pub struct SchemaBuilder {
    decls: Vec<Decl>,
    attlists: Vec<AttlistDecl>,
    pending: Vec<Diagnostic>,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an element with a content model in the expression syntax of
    /// `redet-syntax` (DTD operators `,`, `|`, `?`, `*`, `+` plus
    /// XML-Schema-style `{i,j}` counters).
    #[must_use]
    pub fn element(mut self, name: &str, model: &str) -> Self {
        self.decls.push(Decl {
            name: name.to_owned(),
            name_span: None,
            content: ParsedContent::Model {
                source: model.to_owned(),
                offset: 0,
                mixed: false,
            },
        });
        self
    }

    /// Declares an element with *mixed* content: the children must match
    /// `model`, and character data is allowed between them (the
    /// programmatic form of a DTD `(#PCDATA | a | b)*` declaration).
    #[must_use]
    pub fn element_mixed(mut self, name: &str, model: &str) -> Self {
        self.decls.push(Decl {
            name: name.to_owned(),
            name_span: None,
            content: ParsedContent::Model {
                source: model.to_owned(),
                offset: 0,
                mixed: true,
            },
        });
        self
    }

    /// Declares an element with `EMPTY` content (no element children, no
    /// character data).
    #[must_use]
    pub fn element_empty(mut self, name: &str) -> Self {
        self.decls.push(Decl {
            name: name.to_owned(),
            name_span: None,
            content: ParsedContent::Empty { text: false },
        });
        self
    }

    /// Declares an element with `(#PCDATA)` content: character data only,
    /// no element children.
    #[must_use]
    pub fn element_text(mut self, name: &str) -> Self {
        self.decls.push(Decl {
            name: name.to_owned(),
            name_span: None,
            content: ParsedContent::Empty { text: true },
        });
        self
    }

    /// Declares one attribute of `element`; `required` marks it
    /// `#REQUIRED` (the programmatic form of `<!ATTLIST element name CDATA
    /// #REQUIRED>`). Attributes accumulate across calls like repeated
    /// `<!ATTLIST>` declarations do, and the first declaration of a name
    /// wins, per XML.
    #[must_use]
    pub fn attribute(mut self, element: &str, name: &str, required: bool) -> Self {
        self.attlists.push(AttlistDecl {
            element: element.to_owned(),
            element_span: None,
            attrs: vec![AttrSource {
                name: name.to_owned(),
                name_span: None,
                required,
            }],
        });
        self
    }

    /// Declares an element with `ANY` content (children unconstrained).
    #[must_use]
    pub fn element_any(mut self, name: &str) -> Self {
        self.decls.push(Decl {
            name: name.to_owned(),
            name_span: None,
            content: ParsedContent::Any,
        });
        self
    }

    /// Adds every `<!ELEMENT …>` and `<!ATTLIST …>` declaration of a DTD
    /// fragment. Malformed declarations are recorded and reported by
    /// [`SchemaBuilder::build`].
    ///
    /// # Duplicate declarations
    ///
    /// Repetition is **not** silently first-wins across the board — the
    /// two declaration kinds pin different contracts (also exercised by
    /// the duplicate-declaration tests and documented in DESIGN.md):
    ///
    /// * a repeated `<!ELEMENT>` for the same element name — within one
    ///   fragment, across `parse_dtd` calls, or mixed with the
    ///   programmatic `element*` builders — is a
    ///   [`Code::DuplicateElement`] **build error**: two content models
    ///   for one element is a schema bug, not a preference;
    /// * a repeated *attribute name* for the same element — within one
    ///   `<!ATTLIST>`, across several, or across fragments — follows the
    ///   XML specification: the **first declaration wins** and later ones
    ///   are ignored (including their `#REQUIRED` flag). Multiple
    ///   `<!ATTLIST>` lines for one element merge; only attribute *names*
    ///   deduplicate.
    #[must_use]
    pub fn parse_dtd(mut self, source: &str) -> Self {
        let (decls, attlists, diagnostics) = parse_dtd_fragment(source);
        self.pending.extend(diagnostics);
        self.decls.extend(decls.into_iter().map(|d| Decl {
            name: d.name,
            name_span: Some(d.name_span),
            content: d.content,
        }));
        self.attlists.extend(attlists.into_iter().map(|a| {
            AttlistDecl {
                element: a.element,
                element_span: Some(a.element_span),
                attrs: a
                    .attrs
                    .into_iter()
                    .map(|attr| AttrSource {
                        name: attr.name,
                        name_span: Some(attr.name_span),
                        required: attr.required,
                    })
                    .collect(),
            }
        }));
        self
    }

    /// Compiles every declaration into an immutable [`Schema`] whose
    /// content models all share the schema's one [`Alphabet`]. On failure
    /// returns **all** diagnostics — pending DTD errors first, then each
    /// declaration's duplicate, parse or determinism error in declaration
    /// order, then attribute-cap errors — each carrying its code, source
    /// span, and (for determinism conflicts) the witness positions.
    ///
    /// A schema whose counted models unroll past
    /// [`MAX_SCHEMA_UNROLLED_POSITIONS`] or
    /// [`MAX_SCHEMA_UNROLLED_SET_ENTRIES`] in total is refused as soon as
    /// the sum crosses: the diagnostics so far, then one `E001` at the
    /// crossing declaration; later declarations are not parsed.
    pub fn build(self) -> Result<Arc<Schema>, Vec<Diagnostic>> {
        let mut alphabet = Alphabet::new();
        // Pre-intern every declared name: models may reference elements
        // declared later and still share the complete dense symbol space.
        for decl in &self.decls {
            alphabet.intern(&decl.name);
        }

        // Parse every model in declaration order, interning its names into
        // the one alphabet; the analysis waits until the alphabet is frozen.
        let mut seen = vec![false; alphabet.len()];
        let mut slots: Vec<Slot> = Vec::with_capacity(self.decls.len());
        let mut unrolled = UnrolledSize::default();
        for decl in &self.decls {
            let sym = alphabet.intern(&decl.name);
            if std::mem::replace(&mut seen[sym.index()], true) {
                let mut diag = Diagnostic::new(
                    Code::DuplicateElement,
                    format!("element '{}' is declared more than once", decl.name),
                );
                if let Some(span) = decl.name_span {
                    diag = diag.with_span(span);
                }
                slots.push(Slot::Failed(diag));
                continue;
            }
            slots.push(match &decl.content {
                ParsedContent::Model { source, offset, .. } => {
                    match parse_spanned_with_alphabet(source, &mut alphabet) {
                        Ok((regex, spans, size)) => {
                            unrolled.positions += size.positions;
                            unrolled.entries += size.entries;
                            if let Some(diag) = over_schema_budget(unrolled) {
                                let mut diagnostics = self.pending;
                                diagnostics.extend(slots.into_iter().filter_map(
                                    |slot| match slot {
                                        Slot::Failed(diag) => Some(diag),
                                        _ => None,
                                    },
                                ));
                                diagnostics.push(in_model(diag, *offset, &decl.name));
                                return Err(diagnostics);
                            }
                            Slot::Parsed(sym, regex, spans)
                        }
                        Err(err) => Slot::Failed(in_model(err.into(), *offset, &decl.name)),
                    }
                }
                _ => Slot::Fixed(sym),
            });
        }

        // Merge the attribute lists per element (several <!ATTLIST>s for
        // one element accumulate; the first declaration of an attribute
        // name wins, per XML) and intern every attribute name into the
        // shared alphabet so `feed_bytes` resolves them through the same
        // packed-key index as element names.
        let mut attr_diagnostics = Vec::new();
        let mut merged: Vec<(Symbol, Vec<(Symbol, bool)>)> = Vec::new();
        for attlist in &self.attlists {
            let elem = alphabet.intern(&attlist.element);
            let list = match merged.iter_mut().find(|(sym, _)| *sym == elem) {
                Some((_, list)) => list,
                None => {
                    merged.push((elem, Vec::new()));
                    &mut merged.last_mut().expect("just pushed").1
                }
            };
            for attr in &attlist.attrs {
                let sym = alphabet.intern(&attr.name);
                if list.iter().any(|(s, _)| *s == sym) {
                    continue; // first declaration wins
                }
                if list.len() == MAX_ATTRS_PER_ELEMENT {
                    let mut diag = Diagnostic::new(
                        Code::MalformedDtd,
                        format!(
                            "element '{}' declares more than {MAX_ATTRS_PER_ELEMENT} \
                             attributes (the per-element limit)",
                            attlist.element
                        ),
                    );
                    if let Some(span) = attr.name_span.or(attlist.element_span) {
                        diag = diag.with_span(span);
                    }
                    attr_diagnostics.push(diag);
                    break;
                }
                list.push((sym, attr.required));
            }
        }

        // Every name is interned: freeze the alphabet, and analyze each
        // parsed model over that one shared `Arc`.
        let alphabet = Arc::new(alphabet);
        let mut diagnostics = self.pending;
        let mut compiled: Vec<(Symbol, Content, bool)> = Vec::with_capacity(slots.len());
        for (decl, slot) in self.decls.into_iter().zip(slots) {
            let (sym, content, text) = match (slot, decl.content) {
                (Slot::Failed(diag), _) => {
                    diagnostics.push(diag);
                    continue;
                }
                (Slot::Fixed(sym), ParsedContent::Empty { text }) => (sym, Content::Empty, text),
                (Slot::Fixed(sym), ParsedContent::Any) => (sym, Content::Any, true),
                (
                    Slot::Parsed(sym, regex, spans),
                    ParsedContent::Model {
                        source,
                        offset,
                        mixed,
                    },
                ) => {
                    let model =
                        CompiledAnalysis::from_parsed(regex, spans, source, alphabet.clone())
                            .and_then(|artifact| {
                                DeterministicRegex::from_compiled(artifact, MatchStrategy::Auto)
                            });
                    match model {
                        Ok(model) => (sym, Content::Model(model), mixed),
                        Err(diag) => {
                            diagnostics.push(in_model(diag, offset, &decl.name));
                            continue;
                        }
                    }
                }
                _ => unreachable!("a slot is parsed exactly when its declaration has a model"),
            };
            compiled.push((sym, content, text));
        }
        diagnostics.extend(attr_diagnostics);

        if !diagnostics.is_empty() {
            return Err(diagnostics);
        }

        let mut content: Vec<Content> = (0..alphabet.len()).map(|_| Content::Undeclared).collect();
        let mut declared = Vec::with_capacity(compiled.len());
        let mut text_ok = vec![false; alphabet.len()];
        for (sym, c, text) in compiled {
            content[sym.index()] = c;
            text_ok[sym.index()] = text;
            declared.push(sym);
        }
        let mut attrs = Vec::new();
        let mut attr_ranges = vec![(0u32, 0u32); alphabet.len()];
        let mut required_masks = vec![0u64; alphabet.len()];
        for (elem, list) in merged {
            let start = attrs.len() as u32;
            for (sym, required) in &list {
                attrs.push(AttrDecl {
                    sym: sym.index() as u32,
                    required: *required,
                });
            }
            let mask = attrs[start as usize..]
                .iter()
                .enumerate()
                .filter(|(_, decl)| decl.required)
                .fold(0u64, |mask, (i, _)| mask | (1 << i));
            attr_ranges[elem.index()] = (start, list.len() as u32);
            required_masks[elem.index()] = mask;
        }
        // Precompute the flat dispatch table: kind + start state in one
        // load, so opening an element never walks the content enum.
        let dispatch = content
            .iter()
            .map(|c| match c {
                Content::Model(m) => match m.pos_begin() {
                    Some(begin) => Dispatch::Pos(begin),
                    None => Dispatch::Counted,
                },
                Content::Empty => Dispatch::Empty,
                Content::Any => Dispatch::Any,
                Content::Undeclared => Dispatch::Undeclared,
            })
            .collect();
        let names = NameIndex::build(&alphabet);
        let name_keys = alphabet
            .symbols()
            .map(|sym| NameIndex::key(alphabet.name(sym).as_bytes()))
            .collect();
        Ok(Arc::new(Schema {
            alphabet,
            content,
            dispatch,
            names,
            name_keys,
            declared,
            attrs,
            attr_ranges,
            required_masks,
            text_ok,
        }))
    }
}

/// One declaration between the parse of its content model and the freeze
/// of the schema's shared alphabet.
enum Slot {
    /// A duplicate or unparsable declaration.
    Failed(Diagnostic),
    /// `EMPTY`, `(#PCDATA)` or `ANY` content: nothing to analyze.
    Fixed(Symbol),
    /// A parsed content model with its per-position source spans.
    Parsed(Symbol, Regex, Vec<Span>),
}

/// Rebases a content-model diagnostic onto the DTD source and names the
/// element whose model it is.
fn in_model(diag: Diagnostic, offset: usize, element: &str) -> Diagnostic {
    diag.offset_spans(offset)
        .with_context(&format!("in the content model of <{element}>"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn schemas_are_send_sync() {
        assert_send_sync::<Schema>();
        assert_send_sync::<Arc<Schema>>();
    }

    #[test]
    fn one_alphabet_across_all_models() {
        let schema = SchemaBuilder::new()
            .element("book", "(title, author+, year?)")
            .element("article", "(title, author+, journal)")
            .build()
            .unwrap();
        assert_eq!(schema.len(), 2);
        // "title" means the same symbol in both models, and every model
        // reads the schema's one alphabet rather than a copy of it.
        let title = schema.lookup("title").unwrap();
        for sym in schema.elements() {
            let model = schema.model(sym).unwrap();
            assert_eq!(model.alphabet().lookup("title"), Some(title));
            assert!(std::ptr::eq(schema.alphabet(), model.alphabet()));
        }
        assert_eq!(schema.content_kind(title), ContentKind::Undeclared);
    }

    #[test]
    fn symbol_ids_follow_declaration_then_model_then_attribute_order() {
        // Declared names first, then each model's new names in declaration
        // order (the forward reference `sec` keeps its declared id), then
        // attribute names.
        let schema = SchemaBuilder::new()
            .parse_dtd(
                "<!ELEMENT doc (sec*, back?)> <!ELEMENT sec (title, para*)> \
                 <!ATTLIST sec id CDATA #REQUIRED>",
            )
            .build()
            .unwrap();
        let names: Vec<&str> = schema.alphabet().iter().map(|(_, name)| name).collect();
        assert_eq!(names, ["doc", "sec", "back", "title", "para", "id"]);
    }

    #[test]
    fn build_diagnostics_follow_declaration_order() {
        let codes = |builder: SchemaBuilder| -> Vec<Code> {
            builder
                .build()
                .unwrap_err()
                .iter()
                .map(|d| d.code())
                .collect()
        };
        assert_eq!(
            codes(
                SchemaBuilder::new()
                    .element("broken", "a b* b")
                    .element("unparsable", "(a,")
            ),
            [Code::NotDeterministic, Code::Parse]
        );
        assert_eq!(
            codes(
                SchemaBuilder::new()
                    .element("unparsable", "(a,")
                    .element("broken", "a b* b")
            ),
            [Code::Parse, Code::NotDeterministic]
        );
        // The registry answers with the first diagnostic of the list.
        let first = |dtd: &str| Registry::build(dtd).unwrap_err().code();
        assert_eq!(
            first("<!ELEMENT broken (a, b*, b)> <!ELEMENT unparsable (a,)>"),
            Code::NotDeterministic
        );
        assert_eq!(
            first("<!ELEMENT unparsable (a,)> <!ELEMENT broken (a, b*, b)>"),
            Code::Parse
        );
    }

    #[test]
    fn models_may_reference_later_declarations() {
        let schema = SchemaBuilder::new()
            .element("doc", "(section)*")
            .element("section", "(para)*")
            .element_empty("para")
            .build()
            .unwrap();
        let doc = schema.lookup("doc").unwrap();
        let section = schema.lookup("section").unwrap();
        // The `doc` model was parsed before `section`'s model, yet it knows
        // the symbol: every model shares the schema's finished alphabet.
        assert!(schema
            .model(doc)
            .unwrap()
            .alphabet()
            .lookup("para")
            .is_some());
        assert_eq!(schema.content_kind(section), ContentKind::Model);
    }

    #[test]
    fn per_element_strategies_are_selected() {
        let schema = SchemaBuilder::new()
            .element("starfree", "(a + b) (c + d)?")
            .element("plus", "(title, author+)")
            .element("counted", "(item{1,10}, total)")
            .build()
            .unwrap();
        let strategy = |name: &str| {
            schema
                .model(schema.lookup(name).unwrap())
                .unwrap()
                .strategy()
        };
        assert_eq!(strategy("starfree"), MatchStrategy::StarFree);
        assert_eq!(strategy("plus"), MatchStrategy::KOccurrence);
        assert_eq!(strategy("counted"), MatchStrategy::CountedSimulation);
        // Counting-free models keep their determinism certificates.
        assert!(schema
            .model(schema.lookup("plus").unwrap())
            .unwrap()
            .certificate()
            .is_some());
    }

    #[test]
    fn counted_models_share_one_unroll_budget() {
        // Each `a{4500}` unrolls to 4 500 positions, within every per-model
        // cap; the 59th crosses the schema budget. The refusal follows the
        // diagnostics so far, and nothing after the crossing declaration
        // is parsed (the trailing broken model reports nothing).
        let counted: String = (0..100)
            .map(|i| format!("<!ELEMENT e{i} (a{{4500}})>"))
            .collect();
        let err = SchemaBuilder::new()
            .parse_dtd("<!ELEMENT broken")
            .element("bad", "(b,)")
            .parse_dtd(&counted)
            .element("late", "(c,)")
            .build()
            .unwrap_err();
        let codes: Vec<Code> = err.iter().map(Diagnostic::code).collect();
        assert_eq!(codes, [Code::MalformedDtd, Code::Parse, Code::Parse]);
        assert!(
            err[2].to_string().contains("<e58>")
                && err[2].to_string().contains(&format!(
                    "unroll to more than {MAX_SCHEMA_UNROLLED_POSITIONS} positions in total"
                )),
            "{}",
            err[2]
        );
        // Models without numeric occurrence indicators do not count.
        let plain: String = (0..100)
            .map(|i| format!("<!ELEMENT p{i} (t, u?)+>"))
            .collect();
        assert!(SchemaBuilder::new().parse_dtd(&plain).build().is_ok());
    }

    #[test]
    fn build_collects_all_diagnostics() {
        let err = SchemaBuilder::new()
            .element("ok", "(a, b)")
            .element("broken", "a b* b")
            .element("ok", "(c)")
            .element("unparsable", "(a,")
            .build()
            .unwrap_err();
        let codes: Vec<Code> = err.iter().map(|d| d.code()).collect();
        assert!(codes.contains(&Code::NotDeterministic), "{codes:?}");
        assert!(codes.contains(&Code::DuplicateElement), "{codes:?}");
        assert!(codes.contains(&Code::Parse), "{codes:?}");
        // The determinism diagnostic names the element and keeps the
        // witness.
        let nondet = err
            .iter()
            .find(|d| d.code() == Code::NotDeterministic)
            .unwrap();
        assert!(
            nondet.message().contains("<broken>"),
            "{}",
            nondet.message()
        );
        assert!(nondet.witness().is_some());
    }

    #[test]
    fn attribute_tables_are_compiled_per_element() {
        let schema = SchemaBuilder::new()
            .parse_dtd(
                "<!ELEMENT book (title)>
                 <!ELEMENT title (#PCDATA)>
                 <!ATTLIST book isbn CDATA #REQUIRED lang (en|de) \"en\">
                 <!ATTLIST book isbn CDATA #IMPLIED edition CDATA #IMPLIED>",
            )
            .build()
            .unwrap();
        let book = schema.lookup("book").unwrap();
        let (attrs, _) = schema.attrs_of(book.index() as u32);
        let names: Vec<&str> = attrs
            .iter()
            .map(|a| schema.name(Symbol::from_index(a.sym as usize)))
            .collect();
        assert_eq!(names, ["isbn", "lang", "edition"]);
        // Repeated declarations merge; the first binding of a name wins,
        // so isbn stays #REQUIRED.
        assert_eq!(schema.required_mask(book.index() as u32), 0b001);
        assert_eq!(schema.attr_decl_count(), 3);
        // Attribute names resolve through the shared byte-keyed index.
        assert!(schema.lookup_bytes(b"isbn").is_some());
        // Text rules: title allows character data, book does not.
        let title = schema.lookup("title").unwrap();
        assert!(schema.text_allowed(title.index() as u32));
        assert!(!schema.text_allowed(book.index() as u32));
        // Out-of-range (unknown-element sentinel) is attribute-free.
        assert_eq!(schema.attrs_of(u32::MAX).0.len(), 0);
        assert!(!schema.text_allowed(u32::MAX));
    }

    #[test]
    fn duplicate_declarations_pin_their_contract() {
        // A repeated <!ELEMENT> for one name is a build error — even when
        // the second declaration arrives through a separate parse_dtd
        // call, and even when both content models are identical.
        let err = SchemaBuilder::new()
            .parse_dtd("<!ELEMENT doc (title)>\n<!ELEMENT title (#PCDATA)>")
            .parse_dtd("<!ELEMENT doc (title)>")
            .build()
            .unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].code(), Code::DuplicateElement);
        assert!(err[0].message().contains("doc"), "{}", err[0]);

        // A repeated *attribute name* is not an error: the first
        // declaration wins — across fragments too — so `id` stays
        // #REQUIRED and the later #IMPLIED redeclaration is ignored.
        let schema = SchemaBuilder::new()
            .parse_dtd(
                "<!ELEMENT doc (#PCDATA)>
                 <!ATTLIST doc id CDATA #REQUIRED>",
            )
            .parse_dtd("<!ATTLIST doc id CDATA #IMPLIED lang CDATA #IMPLIED>")
            .build()
            .unwrap();
        let doc = schema.lookup("doc").unwrap();
        let (attrs, _) = schema.attrs_of(doc.index() as u32);
        let names: Vec<&str> = attrs
            .iter()
            .map(|a| schema.name(Symbol::from_index(a.sym as usize)))
            .collect();
        assert_eq!(names, ["id", "lang"]);
        assert_eq!(schema.required_mask(doc.index() as u32), 0b01);
    }

    #[test]
    fn mixed_and_any_content_allow_text() {
        let schema = SchemaBuilder::new()
            .element_mixed("para", "(em | code)*")
            .element_any("note")
            .element_empty("hr")
            .element_text("title")
            .build()
            .unwrap();
        let idx = |name: &str| schema.lookup(name).unwrap().index() as u32;
        assert!(schema.text_allowed(idx("para")));
        assert!(schema.text_allowed(idx("note")));
        assert!(schema.text_allowed(idx("title")));
        assert!(!schema.text_allowed(idx("hr")));
        // Undeclared-but-referenced names reject text.
        assert!(!schema.text_allowed(idx("em")));
    }

    #[test]
    fn attribute_cap_is_enforced() {
        let mut builder = SchemaBuilder::new().element_empty("e");
        for i in 0..=MAX_ATTRS_PER_ELEMENT {
            builder = builder.attribute("e", &format!("a{i}"), false);
        }
        let err = builder.build().unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].code(), Code::MalformedDtd);
        assert!(err[0].message().contains("more than 64"), "{}", err[0]);
    }

    #[test]
    fn dtd_fragment_compiles_with_rebased_spans() {
        let dtd = "<!ELEMENT doc (part)*>\n<!ELEMENT part (a b* b)>";
        let err = SchemaBuilder::new().parse_dtd(dtd).build().unwrap_err();
        assert_eq!(err.len(), 1);
        let diag = &err[0];
        assert_eq!(diag.code(), Code::NotDeterministic);
        // The witness spans point into the *DTD*, at the two trailing 'b's.
        let witness = diag.witness().unwrap();
        for span in [witness.first_span.unwrap(), witness.second_span.unwrap()] {
            assert_eq!(&dtd[span.start..span.end], "b");
            assert!(
                span.start > dtd.find('\n').unwrap(),
                "span {span} is in line 2"
            );
        }
    }
}
