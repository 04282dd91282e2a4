//! Streaming validation of raw documents with resource governance: one
//! [`Document`] per stream, or many interleaved ones behind the handles of
//! a [`ValidationService`].
//!
//! A real server does not see whole documents — it sees connections
//! delivering chunks in arbitrary order. The per-event state of the
//! streaming matchers is tiny (one `PosId` frame per open element), so a
//! document *suspended* between chunks is fully described by one
//! [`DocumentValidator`] plus one byte [`Tokenizer`]. That pair is a
//! [`Document`]:
//!
//! * [`Document::feed`] advances it by pre-interned [`DocEvent`]s;
//!   [`Document::feed_bytes`] accepts raw bytes instead (tag soup, chunk
//!   boundaries anywhere — including mid-tag) and tokenizes them on the
//!   fly;
//! * feeding **fails fast**: at the first diagnostic the document flips to
//!   [`FeedStatus::Rejected`], retains that earliest diagnostic — byte-for-
//!   byte the one a whole-document [`DocumentValidator`] run would report
//!   first — and stops consuming work until it is finished;
//! * [`Document::finish`] checks end-of-document acceptance, returns the
//!   verdict and leaves the document ready for the next one with its
//!   buffers kept; [`Document::time_out`] ends a document that went quiet
//!   with an idle-timeout verdict instead.
//!
//! [`ValidationService`] is a handle table over documents: [`DocId`]s from
//! [`ValidationService::open`] address any number of interleaved in-flight
//! documents over one schema, with a service-wide admission cap
//! ([`ValidationService::try_open`]).
//!
//! # Resource governance
//!
//! The service trusts nobody. A [`ServiceLimits`] config caps what any one
//! document — or the whole caller population — can cost:
//!
//! * **per-document**: element depth (checked at the validator's frame
//!   push, so the frame stack itself stays bounded), total events, total
//!   raw bytes, and tag-name length (the tokenizer's 4 KiB default cap,
//!   lowered per config);
//! * **service-wide**: a maximum number of in-flight handles, enforced at
//!   admission ([`ValidationService::try_open`]);
//! * **time**: an idle budget in ticks of the caller's clock — a front end
//!   whose read times out after the budget ends the document with
//!   [`Document::time_out`].
//!
//! Every violation is a stable `E3xx` diagnostic (see [`redet_core::Code`])
//! recorded at a deterministic event index, so a limit rejection is
//! **byte-identical under every event/byte chunking** — the same contract
//! all schema rejections already honor. Stale handles (used after
//! `finish`/`close`) do not panic: feeding one reports
//! [`FeedStatus::Stale`] and finishing one returns a
//! [`redet_core::Code::StaleHandle`] diagnostic. Only cross-service handle
//! mixups — a programming error, not a traffic pattern — panic.
//!
//! A finished document keeps its buffers, and a closed handle's slot keeps
//! its document for the next open, so a warmed [`Document`] or service
//! validates documents with **zero steady-state allocation** on the valid
//! path — and its limit checks and rejected-document feeds are
//! allocation-free too (enforced by the repository's counting-allocator
//! regression test).

use crate::tokenizer::{
    is_entity_error, Tag, Tokenizer, ATTR_TOO_LONG, NAME_TOO_LONG, VALUE_TOO_LONG,
};
use crate::validator::{DocEvent, DocumentValidator};
use crate::Schema;
use redet_core::{Code, Diagnostic};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Process-wide counter handing every [`ValidationService`] a distinct
/// identity, so a [`DocId`] can never resolve against the wrong service.
static NEXT_SERVICE_ID: AtomicU32 = AtomicU32::new(0);

/// A handle to one in-flight document of a [`ValidationService`].
///
/// Handles are generation-checked: a `DocId` used after `finish`/`close`
/// (or after its slot was reused) is detected as **stale** instead of
/// silently touching another document — feeding it reports
/// [`FeedStatus::Stale`], finishing it returns a
/// [`redet_core::Code::StaleHandle`] diagnostic, closing it is a no-op.
/// Only a handle from a *different* service panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[must_use = "an open document handle must eventually be finished or closed"]
pub struct DocId {
    /// The issuing service's identity (see [`NEXT_SERVICE_ID`]).
    service: u32,
    index: u32,
    /// The slot's generation at open (staleness detection).
    generation: u32,
}

/// The [`Code::ServiceOverloaded`] (`E305`) refusal for admission past an
/// in-flight cap of `max` documents — the one place its text is built, so
/// a front end that counts admissions itself refuses byte-identically to
/// [`ValidationService::try_open`].
#[must_use]
pub fn in_flight_refusal(max: u32) -> Diagnostic {
    Diagnostic::new(
        Code::ServiceOverloaded,
        format!("service is at its in-flight handle cap of {max}"),
    )
}

/// What feeding a chunk did to an in-flight document.
///
/// Marked `#[non_exhaustive]`: later revisions may report finer-grained
/// progress — keep a wildcard arm when matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FeedStatus {
    /// Everything fed so far is valid, but elements are still open (or no
    /// event has arrived yet) — the document needs more input.
    NeedMore,
    /// Everything fed so far is valid and every opened element has been
    /// closed: [`Document::finish`] would succeed right now.
    Accepted,
    /// The document is invalid. The earliest diagnostic is retained (see
    /// [`Document::diagnostic`]) until the document is finished; further
    /// feeds are no-ops — a rejected document consumes no more matcher
    /// work.
    Rejected,
    /// The handle is stale: its document was already finished or closed.
    /// Nothing was fed. Use [`ValidationService::finish`] on a stale handle
    /// to obtain the [`redet_core::Code::StaleHandle`] diagnostic as an
    /// error value.
    Stale,
}

/// Resource-governance configuration of a [`Document`] or a
/// [`ValidationService`]. The default is **ungoverned** — every cap unset
/// — so existing single-tenant uses pay nothing; a front end serving
/// untrusted traffic configures the caps it needs:
///
/// ```
/// use redet_schema::{FeedStatus, SchemaBuilder, ServiceLimits};
///
/// let schema = SchemaBuilder::new()
///     .element("list", "(item)*")
///     .element("item", "(item)?")
///     .build()
///     .unwrap();
/// let limits = ServiceLimits::default()
///     .with_max_depth(4)
///     .with_max_bytes(1 << 16)
///     .with_max_in_flight(2);
/// let mut service = redet_schema::ValidationService::with_limits(schema, limits);
///
/// // Admission control: the third concurrent handle is refused.
/// let a = service.try_open().unwrap();
/// let b = service.try_open().unwrap();
/// let refused = service.try_open().unwrap_err();
/// assert_eq!(refused.code(), redet_core::Code::ServiceOverloaded);
///
/// // Depth governance: nesting past the cap is a stable E301 rejection.
/// assert_eq!(
///     service.feed_bytes(a, b"<list><item><item><item><item>"),
///     FeedStatus::Rejected
/// );
/// assert_eq!(
///     service.finish(a).unwrap_err().code(),
///     redet_core::Code::DepthLimitExceeded
/// );
/// service.close(b);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceLimits {
    max_depth: Option<u32>,
    max_bytes: Option<u64>,
    max_events: Option<u64>,
    max_name_len: Option<u32>,
    max_in_flight: Option<u32>,
    idle_budget: Option<u64>,
}

impl ServiceLimits {
    /// Caps how deep elements may nest in any one document. The violation
    /// is a [`Code::DepthLimitExceeded`] (`E301`) rejection, and the
    /// validator's frame stack never grows past the cap.
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Caps how many raw bytes any one document may be fed through
    /// [`Document::feed_bytes`]. The first byte past the budget is
    /// a [`Code::ByteLimitExceeded`] (`E302`) rejection — at the same point
    /// whatever the chunk boundaries.
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Caps how many document events (element opens + closes) any one
    /// document may produce, whether fed as events or as bytes. The first
    /// event past the budget is a [`Code::EventLimitExceeded`] (`E303`)
    /// rejection.
    pub fn with_max_events(mut self, events: u64) -> Self {
        self.max_events = Some(events);
        self
    }

    /// Caps a tag name's length in bytes for raw-byte feeding, lowering
    /// the tokenizer's built-in [`Tokenizer::MAX_NAME_LEN`] default. A
    /// longer name is a [`Code::NameLimitExceeded`] (`E304`) rejection.
    /// Clamped to at least one byte.
    pub fn with_max_name_len(mut self, len: u32) -> Self {
        self.max_name_len = Some(len.max(1));
        self
    }

    /// Caps how many handles may be in flight at once. Admission past the
    /// cap is refused by [`ValidationService::try_open`] with a
    /// [`Code::ServiceOverloaded`] (`E305`) diagnostic.
    pub fn with_max_in_flight(mut self, handles: u32) -> Self {
        self.max_in_flight = Some(handles);
        self
    }

    /// Sets the idle budget: a front end ends a document that received
    /// nothing for more than `ticks` ticks of its clock with
    /// [`Document::time_out`], a [`Code::IdleTimeout`] (`E306`) rejection
    /// that names the budget.
    pub fn with_idle_budget(mut self, ticks: u64) -> Self {
        self.idle_budget = Some(ticks);
        self
    }

    /// The configured depth cap, if any.
    pub fn max_depth(&self) -> Option<u32> {
        self.max_depth
    }

    /// The configured raw-byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The configured event budget, if any.
    pub fn max_events(&self) -> Option<u64> {
        self.max_events
    }

    /// The configured tag-name length cap, if any.
    pub fn max_name_len(&self) -> Option<u32> {
        self.max_name_len
    }

    /// The configured in-flight handle cap, if any.
    pub fn max_in_flight(&self) -> Option<u32> {
        self.max_in_flight
    }

    /// The configured idle budget in ticks, if any.
    pub fn idle_budget(&self) -> Option<u64> {
        self.idle_budget
    }
}

/// One document in flight over a [`Schema`]: the validator state, the byte
/// scanner, the retained rejection and the byte count, governed by the
/// per-document caps of a [`ServiceLimits`]. See the module docs.
///
/// A `Document` validates one document at a time and is reused for the
/// next: [`Document::finish`] (or [`Document::time_out`]) returns the
/// verdict and resets it with its warmed buffers kept.
///
/// ```
/// use redet_schema::{Document, FeedStatus, SchemaBuilder, ServiceLimits};
///
/// let schema = SchemaBuilder::new()
///     .element("pair", "(left, right)")
///     .element_empty("left")
///     .element_empty("right")
///     .build()
///     .unwrap();
/// let mut doc = Document::new(schema, ServiceLimits::default().with_idle_budget(3));
///
/// // Chunk boundaries fall anywhere, even mid-tag.
/// assert_eq!(doc.feed_bytes(b"<pair><le"), FeedStatus::NeedMore);
/// assert_eq!(doc.feed_bytes(b"ft/><right/></pair>"), FeedStatus::Accepted);
/// assert!(doc.finish().is_ok());
///
/// // The next document reuses the buffers; a stalled one times out.
/// assert_eq!(doc.feed_bytes(b"<pair>"), FeedStatus::NeedMore);
/// assert_eq!(doc.time_out().code(), redet_core::Code::IdleTimeout);
/// ```
#[derive(Debug)]
pub struct Document {
    validator: DocumentValidator,
    tokenizer: Tokenizer,
    limits: ServiceLimits,
    /// The earliest diagnostic, once the document is rejected.
    rejected: Option<Diagnostic>,
    /// Raw bytes consumed so far, charged against `ServiceLimits::max_bytes`.
    bytes_fed: u64,
}

impl Document {
    /// Creates an empty document over `schema`, governed by the
    /// per-document caps of `limits` (the in-flight cap is a
    /// [`ValidationService`] matter and is ignored here).
    #[must_use]
    pub fn new(schema: Arc<Schema>, limits: ServiceLimits) -> Self {
        let mut validator = DocumentValidator::new(schema);
        validator.set_limits(
            limits.max_depth.map_or(usize::MAX, |d| d as usize),
            limits
                .max_events
                .map_or(usize::MAX, |e| usize::try_from(e).unwrap_or(usize::MAX)),
        );
        let mut tokenizer = Tokenizer::default();
        tokenizer.set_name_limit(
            limits
                .max_name_len
                .map_or(Tokenizer::MAX_NAME_LEN, |n| n as usize),
        );
        Document {
            validator,
            tokenizer,
            limits,
            rejected: None,
            bytes_fed: 0,
        }
    }

    /// The schema this document is validated against.
    pub fn schema(&self) -> &Schema {
        self.validator.schema()
    }

    /// The current status, without feeding anything: `Rejected` once a
    /// diagnostic is retained, `Accepted` when every opened element is
    /// closed, `NeedMore` otherwise.
    pub fn status(&self) -> FeedStatus {
        if self.rejected.is_some() {
            FeedStatus::Rejected
        } else if self.validator.depth() == 0
            && self.validator.events() > 0
            && self.tokenizer.is_idle()
        {
            FeedStatus::Accepted
        } else {
            FeedStatus::NeedMore
        }
    }

    /// The retained diagnostic of a rejected document, if any.
    pub fn diagnostic(&self) -> Option<&Diagnostic> {
        self.rejected.as_ref()
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.validator.depth()
    }

    /// Advances the document by any number of pre-interned events. Feeding
    /// stops at the first diagnostic: the document flips to
    /// [`FeedStatus::Rejected`], retains that diagnostic, and ignores the
    /// rest of this chunk and all later feeds.
    #[must_use = "a rejected document should stop being fed"]
    pub fn feed(&mut self, events: &[DocEvent]) -> FeedStatus {
        if self.rejected.is_some() {
            return FeedStatus::Rejected;
        }
        for &event in events {
            match event {
                DocEvent::Open(sym) => self.validator.start_element_symbol(sym),
                DocEvent::Close => self.validator.end_element(),
                DocEvent::Attr(sym) => self.validator.attribute(sym),
                DocEvent::Text => self.validator.text(),
            }
            if !self.validator.is_clean() {
                self.rejected = self.validator.take_first_diagnostic();
                return FeedStatus::Rejected;
            }
        }
        self.status()
    }

    /// Advances the document by a chunk of raw bytes, tokenizing full
    /// markup on the fly. Chunk boundaries may fall anywhere — mid-name,
    /// mid-attribute-value, mid-text, mid-comment; the scanner state lives
    /// in the document. Element and attribute names are resolved against
    /// the schema per tag, attribute values and character data (with the
    /// predefined entity and character references decoded) are checked
    /// against the schema's `<!ATTLIST>` tables and mixed-content rules;
    /// comments, PIs and doctypes are skipped. Fails fast exactly like
    /// [`Document::feed`], with unparsable markup reported as a
    /// [`redet_core::Code::MalformedMarkup`] diagnostic and unknown entity
    /// references as [`redet_core::Code::UnknownEntity`]. When a byte
    /// budget is configured, bytes past it are never scanned: the chunk is
    /// truncated at the budget and the violation fires at the same point
    /// under every chunking.
    #[must_use = "a rejected document should stop being fed"]
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> FeedStatus {
        if self.rejected.is_some() {
            return FeedStatus::Rejected;
        }
        let max_bytes = self.limits.max_bytes;
        // Truncate the chunk at the byte budget, so the violation point —
        // and therefore the diagnostic — is chunking-independent.
        let (head, overflow) = match max_bytes {
            Some(max) => {
                let remaining = max.saturating_sub(self.bytes_fed);
                if bytes.len() as u64 > remaining {
                    (&bytes[..remaining as usize], true)
                } else {
                    (bytes, false)
                }
            }
            None => (bytes, false),
        };
        let validator = &mut self.validator;
        let clean = self.tokenizer.feed(head, &mut |tag| {
            match tag {
                Tag::Open(name) => validator.start_element_bytes(name),
                Tag::Attr { name, .. } => validator.attribute_bytes(name),
                Tag::SelfClose => validator.end_element(),
                // XML well-formedness: the end tag must name the innermost
                // open element. (Event-level feeding has no names on close
                // events, so only bytes pay this.)
                Tag::Close(name) => validator.close_element_bytes(name),
                Tag::Text(segment) => validator.text_segment(segment),
                // The tokenizer's length caps are resource limits, not
                // grammar errors: report them under the E3xx family.
                Tag::Error(message) if message == NAME_TOO_LONG || message == ATTR_TOO_LONG => {
                    validator.report_limit(Code::NameLimitExceeded, message.to_owned());
                }
                Tag::Error(message) if message == VALUE_TOO_LONG => {
                    validator.report_limit(Code::ValueLimitExceeded, message.to_owned());
                }
                // Unknown/invalid entity references are markup-level `E2xx`
                // diagnostics with their own code.
                Tag::Error(message) if is_entity_error(message) => {
                    validator.report_limit(Code::UnknownEntity, message.to_owned());
                }
                Tag::Error(message) => validator.report_markup(message.to_owned()),
            }
            validator.is_clean()
        });
        self.bytes_fed += head.len() as u64;
        if !clean {
            self.rejected = self.validator.take_first_diagnostic();
            return FeedStatus::Rejected;
        }
        if overflow {
            self.validator.report_limit(
                Code::ByteLimitExceeded,
                format!(
                    "document exceeded the byte budget of {} byte(s)",
                    max_bytes.unwrap_or(u64::MAX)
                ),
            );
            self.rejected = self.validator.take_first_diagnostic();
            return FeedStatus::Rejected;
        }
        self.status()
    }

    /// Ends the document: checks end-of-document acceptance (every element
    /// closed, no markup left open) and resets the document for the next
    /// one, keeping its buffers. Returns the retained diagnostic for a
    /// rejected document — byte-identical to the *first* diagnostic a
    /// whole-document [`DocumentValidator`] run over the same events would
    /// report.
    #[must_use = "the validation verdict is the point of finish()"]
    pub fn finish(&mut self) -> Result<(), Diagnostic> {
        if self.rejected.is_none() && !self.tokenizer.is_idle() {
            self.validator
                .report_markup("byte stream ended inside markup".to_owned());
            self.rejected = self.validator.take_first_diagnostic();
        }
        let end = self.validator.finish();
        self.tokenizer.reset();
        self.bytes_fed = 0;
        match self.rejected.take() {
            Some(diagnostic) => Err(diagnostic),
            // Only end-of-document diagnostics can be pending here —
            // anything earlier would have rejected the document.
            None => end.map_err(|mut diagnostics| diagnostics.remove(0)),
        }
    }

    /// Ends a document whose input went quiet: records a
    /// [`Code::IdleTimeout`] (`E306`) diagnostic naming the configured idle
    /// budget at the current event — unless the document was already
    /// rejected, whose earlier diagnostic is kept — and resets like
    /// [`Document::finish`]. Returns the verdict's diagnostic.
    pub fn time_out(&mut self) -> Diagnostic {
        if self.rejected.is_none() {
            let budget = self.limits.idle_budget.unwrap_or(0);
            self.validator.report_limit(
                Code::IdleTimeout,
                format!("document sat idle past the idle budget of {budget} tick(s)"),
            );
            self.rejected = self.validator.take_first_diagnostic();
        }
        self.finish().expect_err("a timed-out document is rejected")
    }
}

/// One handle-table slot. Its document is reset whenever the slot is free,
/// so the next open reuses the warmed buffers. `generation` (wrapping) is
/// odd while the slot is open and is bumped on every open and every
/// release, so a [`DocId`] matches its slot only until the document is
/// finished or closed. A handle can only alias after 2^31 reuses of its
/// slot while it is still being held — a caller sitting on a dead handle
/// across that much churn is already outside every serving contract.
struct Slot {
    generation: u32,
    doc: Document,
}

/// A connection-oriented validation front end over one [`Schema`]: a
/// handle table of interleaved in-flight [`Document`]s; see the module
/// docs.
///
/// ```
/// use redet_schema::{FeedStatus, SchemaBuilder};
///
/// let schema = SchemaBuilder::new()
///     .element("pair", "(left, right)")
///     .element_empty("left")
///     .element_empty("right")
///     .build()
///     .unwrap();
/// let mut service = redet_schema::ValidationService::new(schema);
///
/// // Two connections, interleaved, one fed as events, one as raw bytes.
/// let a = service.open();
/// let b = service.open();
/// assert_eq!(service.feed_bytes(a, b"<pair><le"), FeedStatus::NeedMore);
/// let pair = service.schema().lookup("pair").unwrap();
/// let left = service.schema().lookup("left").unwrap();
/// use redet_schema::DocEvent::{Close, Open};
/// assert_eq!(service.feed(b, &[Open(pair), Open(left), Close]), FeedStatus::NeedMore);
/// assert_eq!(service.feed_bytes(a, b"ft/><right/></pair>"), FeedStatus::Accepted);
/// assert!(service.finish(a).is_ok());
/// // `b` is missing <right>: the incompleteness is diagnosed at finish.
/// assert_eq!(service.feed(b, &[Close]), FeedStatus::Rejected);
/// assert!(service.finish(b).is_err());
/// ```
pub struct ValidationService {
    /// This service's identity, stamped into every issued [`DocId`].
    id: u32,
    schema: Arc<Schema>,
    limits: ServiceLimits,
    slots: Vec<Slot>,
    /// Indices of free slots, reused LIFO (warm slots first).
    free: Vec<u32>,
}

impl ValidationService {
    /// Creates an ungoverned service over `schema` with no in-flight
    /// documents (every [`ServiceLimits`] cap unset).
    #[must_use]
    pub fn new(schema: Arc<Schema>) -> Self {
        Self::with_limits(schema, ServiceLimits::default())
    }

    /// Creates a service over `schema` governed by `limits`; see
    /// [`ServiceLimits`] for what each cap enforces.
    #[must_use]
    pub fn with_limits(schema: Arc<Schema>, limits: ServiceLimits) -> Self {
        ValidationService {
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            schema,
            limits,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The shared schema every document is validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The resource-governance configuration this service enforces.
    pub fn limits(&self) -> ServiceLimits {
        self.limits
    }

    /// Number of currently open documents. Slab hygiene is observable
    /// here: every `open` is balanced by exactly one `finish`/`close`,
    /// after which this returns to its prior value.
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slab slots ever allocated (in-flight documents plus free
    /// slots) — a leak audit hook: churning open/finish/close cycles must
    /// not grow this past the high-water mark of concurrently open handles.
    pub fn slab_size(&self) -> usize {
        self.slots.len()
    }

    /// Opens a new in-flight document and returns its handle. Free slots
    /// keep their document's buffers, so a warmed service opens without
    /// allocating.
    ///
    /// # Panics
    /// Panics if the service is at its configured in-flight cap — callers
    /// that configure [`ServiceLimits::with_max_in_flight`] should use
    /// [`ValidationService::try_open`] and handle the backpressure signal.
    pub fn open(&mut self) -> DocId {
        self.try_open()
            .unwrap_or_else(|refusal| panic!("{refusal} (use try_open to handle backpressure)"))
    }

    /// Opens a new in-flight document, refusing admission with a
    /// [`Code::ServiceOverloaded`] diagnostic when the configured
    /// in-flight cap is reached — the service-wide backpressure signal a
    /// front end sheds load on.
    pub fn try_open(&mut self) -> Result<DocId, Diagnostic> {
        if let Some(max) = self.limits.max_in_flight {
            if self.in_flight() >= max as usize {
                return Err(in_flight_refusal(max));
            }
        }
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    doc: Document::new(Arc::clone(&self.schema), self.limits),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[index as usize];
        slot.generation = slot.generation.wrapping_add(1);
        Ok(DocId {
            service: self.id,
            index,
            generation: slot.generation,
        })
    }

    /// The open document behind `doc`, or `None` when the handle is stale.
    ///
    /// # Panics
    /// Panics if `doc` belongs to another service.
    pub fn get(&self, doc: DocId) -> Option<&Document> {
        self.check_service(doc);
        self.slots
            .get(doc.index as usize)
            .filter(|slot| slot.generation == doc.generation)
            .map(|slot| &slot.doc)
    }

    /// The open slot behind `doc`, or `None` when the handle is stale.
    fn slot_mut(&mut self, doc: DocId) -> Option<&mut Slot> {
        self.check_service(doc);
        self.slots
            .get_mut(doc.index as usize)
            .filter(|slot| slot.generation == doc.generation)
    }

    /// [`Document::feed`] on the document behind `doc`. Feeding a stale
    /// handle does nothing and reports [`FeedStatus::Stale`].
    ///
    /// # Panics
    /// Panics if `doc` belongs to another service.
    #[must_use = "a rejected document should stop being fed"]
    pub fn feed(&mut self, doc: DocId, events: &[DocEvent]) -> FeedStatus {
        self.slot_mut(doc)
            .map_or(FeedStatus::Stale, |slot| slot.doc.feed(events))
    }

    /// [`Document::feed_bytes`] on the document behind `doc`. Feeding a
    /// stale handle does nothing and reports [`FeedStatus::Stale`].
    ///
    /// # Panics
    /// Panics if `doc` belongs to another service.
    #[must_use = "a rejected document should stop being fed"]
    pub fn feed_bytes(&mut self, doc: DocId, bytes: &[u8]) -> FeedStatus {
        self.slot_mut(doc)
            .map_or(FeedStatus::Stale, |slot| slot.doc.feed_bytes(bytes))
    }

    /// Ends a document with [`Document::finish`] and releases its handle.
    /// A stale handle (which holds no document to release) returns a
    /// [`Code::StaleHandle`] diagnostic.
    ///
    /// # Panics
    /// Panics if `doc` belongs to another service.
    #[must_use = "the validation verdict is the point of finish()"]
    pub fn finish(&mut self, doc: DocId) -> Result<(), Diagnostic> {
        match self.release(doc) {
            Some(document) => document.finish(),
            None => Err(Diagnostic::new(
                Code::StaleHandle,
                "document handle is stale: already finished or closed",
            )),
        }
    }

    /// Abandons a document, discarding its verdict, and releases its
    /// handle. Idempotent: closing a stale handle (including a double
    /// close) is a no-op.
    ///
    /// # Panics
    /// Panics if `doc` belongs to another service.
    pub fn close(&mut self, doc: DocId) {
        if let Some(document) = self.release(doc) {
            let _ = document.finish();
        }
    }

    /// Validates one whole document given as a pre-interned event stream:
    /// `open` + `feed` + `finish` in one call (admission-checked — at the
    /// in-flight cap the [`Code::ServiceOverloaded`] refusal is the
    /// verdict).
    pub fn validate_events(&mut self, events: &[DocEvent]) -> Result<(), Diagnostic> {
        let doc = self.try_open()?;
        let _ = self.feed(doc, events);
        self.finish(doc)
    }

    /// Validates one whole document given as raw bytes: `open` +
    /// `feed_bytes` + `finish` in one call (admission-checked like
    /// [`ValidationService::validate_events`]).
    pub fn validate_bytes(&mut self, bytes: &[u8]) -> Result<(), Diagnostic> {
        let doc = self.try_open()?;
        let _ = self.feed_bytes(doc, bytes);
        self.finish(doc)
    }

    /// Mixing handles *across services* is a programming error (the slab
    /// indices would alias), not a traffic pattern — it panics rather than
    /// reporting a stale handle.
    fn check_service(&self, doc: DocId) {
        assert_eq!(
            doc.service, self.id,
            "DocId belongs to another ValidationService"
        );
    }

    /// Frees the slot behind `doc` for reuse, invalidating every copy of
    /// the handle, and returns its document for the caller to end. `None`
    /// when stale.
    fn release(&mut self, doc: DocId) -> Option<&mut Document> {
        let slot = self.slot_mut(doc)?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(doc.index);
        Some(&mut self.slots[doc.index as usize].doc)
    }
}

impl std::fmt::Debug for ValidationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValidationService")
            .field("schema", &self.schema)
            .field("limits", &self.limits)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemaBuilder;

    fn bibliography() -> Arc<Schema> {
        SchemaBuilder::new()
            .element("bibliography", "(book | article)*")
            .element("book", "(title, author+, year)")
            .element("article", "(title, author+, journal, year?)")
            .element_text("title")
            .element_empty("author")
            .element_empty("year")
            .attribute("author", "kind", false)
            .build()
            .unwrap()
    }

    fn events(schema: &Schema, names: &[&str]) -> Vec<DocEvent> {
        names
            .iter()
            .map(|name| match name.strip_prefix('/') {
                Some(_) => DocEvent::Close,
                None => DocEvent::Open(schema.lookup(name).unwrap()),
            })
            .collect()
    }

    const VALID: &[&str] = &[
        "bibliography",
        "book",
        "title",
        "/",
        "author",
        "/",
        "year",
        "/",
        "/",
        "/",
    ];

    #[test]
    fn interleaved_documents_do_not_interfere() {
        let schema = bibliography();
        let doc = events(&schema, VALID);
        let mut service = ValidationService::new(Arc::clone(&schema));
        // 8 concurrent handles, round-robin one event at a time.
        let handles: Vec<DocId> = (0..8).map(|_| service.open()).collect();
        assert_eq!(service.in_flight(), 8);
        for i in 0..doc.len() {
            for &h in &handles {
                let status = service.feed(h, &doc[i..=i]);
                if i + 1 == doc.len() {
                    assert_eq!(status, FeedStatus::Accepted);
                } else {
                    assert_eq!(status, FeedStatus::NeedMore);
                }
            }
        }
        for h in handles {
            assert!(service.finish(h).is_ok());
        }
        assert_eq!(service.in_flight(), 0);
    }

    #[test]
    fn rejected_handles_fail_fast_and_retain_the_first_diagnostic() {
        let schema = bibliography();
        // `author` before `title` rejects <book> at event 2.
        let bad = events(
            &schema,
            &[
                "bibliography",
                "book",
                "author",
                "/",
                "title",
                "/",
                "year",
                "/",
                "/",
                "/",
            ],
        );
        let mut service = ValidationService::new(Arc::clone(&schema));
        let doc = service.open();
        assert_eq!(service.feed(doc, &bad[..2]), FeedStatus::NeedMore);
        assert_eq!(service.feed(doc, &bad[2..4]), FeedStatus::Rejected);
        let retained = service.get(doc).unwrap().diagnostic().unwrap().to_string();
        // Further feeding is a no-op; the diagnostic does not change.
        assert_eq!(service.feed(doc, &bad[4..]), FeedStatus::Rejected);
        let document = service.get(doc).unwrap();
        assert_eq!(document.diagnostic().unwrap().to_string(), retained);
        let err = service.finish(doc).unwrap_err();
        assert_eq!(err.to_string(), retained);
        // Byte-identical to the first whole-document diagnostic.
        let mut whole = schema.validator();
        let expected = whole.validate_events(&bad).unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{:?}", expected[0]));
    }

    #[test]
    fn finish_diagnoses_incomplete_and_unbalanced_documents() {
        let schema = bibliography();
        let doc = events(&schema, VALID);
        let mut service = ValidationService::new(Arc::clone(&schema));
        // Truncated: unbalanced at finish.
        let h = service.open();
        assert_eq!(service.feed(h, &doc[..3]), FeedStatus::NeedMore);
        assert_eq!(
            service.finish(h).unwrap_err().code(),
            Code::UnbalancedDocument
        );
        // Recycled slot, fresh generation: the old handle is dead.
        let h2 = service.open();
        assert_eq!(service.feed(h2, &doc), FeedStatus::Accepted);
        assert!(service.finish(h2).is_ok());
    }

    #[test]
    fn stale_handles_are_reported_not_panicked() {
        let schema = bibliography();
        let doc = events(&schema, VALID);
        let mut service = ValidationService::new(Arc::clone(&schema));
        let h = service.open();
        service.close(h);
        // Every operation on the stale handle is graceful and distinct.
        assert!(service.get(h).is_none());
        assert_eq!(service.feed(h, &doc), FeedStatus::Stale);
        assert_eq!(service.feed_bytes(h, b"<bibliography/>"), FeedStatus::Stale);
        let err = service.finish(h).unwrap_err();
        assert_eq!(err.code(), Code::StaleHandle);
        // Double close is a no-op — and the slab did not leak.
        service.close(h);
        service.close(h);
        assert_eq!(service.in_flight(), 0);
        // The recycled slot's new handle is unaffected by the stale one.
        let h2 = service.open();
        assert_eq!(service.feed(h, &doc), FeedStatus::Stale);
        assert_eq!(service.feed(h2, &doc), FeedStatus::Accepted);
        assert!(service.finish(h2).is_ok());
    }

    #[test]
    fn byte_feeding_tolerates_any_split() {
        let schema = bibliography();
        let xml = "<?xml version=\"1.0\"?><bibliography><!-- one entry -->\
                   <book><title>G &amp; S</title>\
                   <author kind=\"primary\"/><year/></book>\
                   </bibliography>";
        let mut service = ValidationService::new(Arc::clone(&schema));
        for chunk in [1usize, 2, 3, 7, 16, xml.len()] {
            let doc = service.open();
            let mut status = FeedStatus::NeedMore;
            for part in xml.as_bytes().chunks(chunk) {
                status = service.feed_bytes(doc, part);
            }
            assert_eq!(status, FeedStatus::Accepted, "chunk size {chunk}");
            assert!(service.finish(doc).is_ok(), "chunk size {chunk}");
        }
    }

    #[test]
    fn markup_diagnostics_are_chunking_invariant() {
        let schema = bibliography();
        let mut service = ValidationService::new(Arc::clone(&schema));
        let cases = [
            // Duplicate declared attribute.
            (
                "<bibliography><book><title>t</title>\
                 <author kind=\"x\" kind=\"y\"/><year/></book></bibliography>",
                Code::DuplicateAttribute,
            ),
            // Undeclared attribute on a declared element.
            (
                "<bibliography><book><title lang=\"en\">t</title>\
                 <author/><year/></book></bibliography>",
                Code::UndeclaredAttribute,
            ),
            // Character data where the content model is element-only.
            ("<bibliography>stray</bibliography>", Code::StrayText),
            // An entity reference outside the predefined five.
            (
                "<bibliography><book><title>&nope;</title>\
                 <author/><year/></book></bibliography>",
                Code::UnknownEntity,
            ),
        ];
        for (xml, code) in cases {
            let mut first: Option<String> = None;
            for chunk in [1usize, 2, 3, 7, xml.len()] {
                let doc = service.open();
                for part in xml.as_bytes().chunks(chunk) {
                    let _ = service.feed_bytes(doc, part);
                }
                let err = service.finish(doc).unwrap_err();
                assert_eq!(err.code(), code, "{xml} (chunk size {chunk})");
                let render = format!("{err:?}");
                match &first {
                    None => first = Some(render),
                    Some(expected) => {
                        assert_eq!(&render, expected, "{xml} (chunk size {chunk})");
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_markup_is_a_diagnostic() {
        let schema = bibliography();
        let mut service = ValidationService::new(Arc::clone(&schema));
        let doc = service.open();
        assert_eq!(
            service.feed_bytes(doc, b"<bibliography><>"),
            FeedStatus::Rejected
        );
        let err = service.finish(doc).unwrap_err();
        assert_eq!(err.code(), Code::MalformedMarkup);
        // A byte stream ending inside a tag is malformed too.
        let doc = service.open();
        assert_eq!(
            service.feed_bytes(doc, b"<bibliography></bibliogr"),
            FeedStatus::NeedMore
        );
        let err = service.finish(doc).unwrap_err();
        assert_eq!(err.code(), Code::MalformedMarkup);
    }

    #[test]
    fn mismatched_end_tags_are_rejected() {
        let schema = bibliography();
        let mut service = ValidationService::new(Arc::clone(&schema));
        let doc = service.open();
        // </bibliography> closes <book>: well-formedness violation, caught
        // whatever the chunking.
        assert_eq!(
            service.feed_bytes(doc, b"<bibliography><book></bibliography>"),
            FeedStatus::Rejected
        );
        let err = service.finish(doc).unwrap_err();
        assert_eq!(err.code(), Code::MalformedMarkup);
        assert!(err.to_string().contains("</bibliography>"), "{err}");
        // Properly nested documents are unaffected.
        let doc = service.open();
        assert_eq!(
            service.feed_bytes(doc, b"<bibliography></bibliography>"),
            FeedStatus::Accepted
        );
        assert!(service.finish(doc).is_ok());
    }

    #[test]
    #[should_panic(expected = "another ValidationService")]
    fn foreign_handles_panic() {
        let schema = bibliography();
        let mut first = ValidationService::new(Arc::clone(&schema));
        let mut second = ValidationService::new(schema);
        let doc = first.open();
        let _ = second.open(); // same slot index and generation — still foreign
        let _ = second.get(doc);
    }

    #[test]
    fn unknown_elements_reject_byte_documents() {
        let schema = bibliography();
        let mut service = ValidationService::new(schema);
        let doc = service.open();
        assert_eq!(
            service.feed_bytes(doc, b"<bibliography><pamphlet/>"),
            FeedStatus::Rejected
        );
        let err = service.finish(doc).unwrap_err();
        assert_eq!(err.code(), Code::UnknownElement);
    }

    #[test]
    fn admission_is_refused_at_the_in_flight_cap() {
        let schema = bibliography();
        let limits = ServiceLimits::default().with_max_in_flight(2);
        let mut service = ValidationService::with_limits(schema, limits);
        assert_eq!(service.limits().max_in_flight(), Some(2));
        let a = service.try_open().unwrap();
        let b = service.try_open().unwrap();
        let refused = service.try_open().unwrap_err();
        assert_eq!(refused.code(), Code::ServiceOverloaded);
        assert!(refused.to_string().contains("cap of 2"), "{refused}");
        // Releasing one handle re-admits.
        service.close(a);
        let c = service.try_open().unwrap();
        service.close(b);
        service.close(c);
        // validate_events under a zero cap degrades to the refusal verdict.
        let mut zero = ValidationService::with_limits(
            bibliography(),
            ServiceLimits::default().with_max_in_flight(0),
        );
        let err = zero.validate_events(&[]).unwrap_err();
        assert_eq!(err.code(), Code::ServiceOverloaded);
    }

    #[test]
    fn depth_limit_fires_at_the_frame_push() {
        let schema = SchemaBuilder::new()
            .element("item", "(item)?")
            .build()
            .unwrap();
        let limits = ServiceLimits::default().with_max_depth(3);
        let mut service = ValidationService::with_limits(Arc::clone(&schema), limits);
        let item = schema.lookup("item").unwrap();
        let doc = service.open();
        let deep: Vec<DocEvent> = (0..4).map(|_| DocEvent::Open(item)).collect();
        assert_eq!(service.feed(doc, &deep), FeedStatus::Rejected);
        let err = service.finish(doc).unwrap_err();
        assert_eq!(err.code(), Code::DepthLimitExceeded);
        assert_eq!(err.location().unwrap().event, 3);
        // Exactly at the cap is fine.
        let doc = service.open();
        let ok: Vec<DocEvent> = (0..3)
            .map(|_| DocEvent::Open(item))
            .chain((0..3).map(|_| DocEvent::Close))
            .collect();
        assert_eq!(service.feed(doc, &ok), FeedStatus::Accepted);
        assert!(service.finish(doc).is_ok());
    }

    #[test]
    fn event_budget_fires_on_the_first_event_past_it() {
        let schema = bibliography();
        let doc_events = events(&schema, VALID); // 10 events
        let limits = ServiceLimits::default().with_max_events(10);
        let mut service = ValidationService::with_limits(Arc::clone(&schema), limits);
        // Exactly the budget: accepted.
        let h = service.open();
        assert_eq!(service.feed(h, &doc_events), FeedStatus::Accepted);
        assert!(service.finish(h).is_ok());
        // A budget one short: the 10th event (index 9) trips E303.
        let mut tight = ValidationService::with_limits(
            Arc::clone(&schema),
            ServiceLimits::default().with_max_events(9),
        );
        let h = tight.open();
        assert_eq!(tight.feed(h, &doc_events), FeedStatus::Rejected);
        let err = tight.finish(h).unwrap_err();
        assert_eq!(err.code(), Code::EventLimitExceeded);
        assert_eq!(err.location().unwrap().event, 9);
        // The budget also governs byte feeding (events come from tags).
        let h = tight.open();
        assert_eq!(
            tight.feed_bytes(
                h,
                b"<bibliography><book><title/><author/><year/></book></bibliography>"
            ),
            FeedStatus::Rejected
        );
        let err = tight.finish(h).unwrap_err();
        assert_eq!(err.code(), Code::EventLimitExceeded);
    }

    #[test]
    fn byte_budget_truncates_at_the_same_point_under_any_chunking() {
        let schema = bibliography();
        let xml = b"<bibliography><book><title/><author/><year/></book></bibliography>";
        let limits = ServiceLimits::default().with_max_bytes(20);
        let mut service = ValidationService::with_limits(Arc::clone(&schema), limits);
        let mut renders = Vec::new();
        for chunk in [1usize, 3, 7, xml.len()] {
            let doc = service.open();
            let mut status = FeedStatus::NeedMore;
            for part in xml.chunks(chunk) {
                status = service.feed_bytes(doc, part);
                if status == FeedStatus::Rejected {
                    break;
                }
            }
            assert_eq!(status, FeedStatus::Rejected, "chunk size {chunk}");
            let err = service.finish(doc).unwrap_err();
            assert_eq!(err.code(), Code::ByteLimitExceeded);
            renders.push(format!("{err:?}"));
        }
        assert!(renders.windows(2).all(|w| w[0] == w[1]), "{renders:?}");
    }

    #[test]
    fn name_cap_is_an_e304_rejection() {
        let schema = bibliography();
        let limits = ServiceLimits::default().with_max_name_len(8);
        let mut service = ValidationService::with_limits(schema, limits);
        let doc = service.open();
        assert_eq!(
            service.feed_bytes(doc, b"<bibliography>"),
            FeedStatus::Rejected
        );
        let err = service.finish(doc).unwrap_err();
        assert_eq!(err.code(), Code::NameLimitExceeded);
    }

    #[test]
    fn time_out_rejects_with_e306_keeps_earlier_diagnostics_and_resets() {
        let schema = bibliography();
        let doc_events = events(&schema, VALID);
        let limits = ServiceLimits::default().with_idle_budget(5);
        let mut document = Document::new(Arc::clone(&schema), limits);
        assert_eq!(document.feed(&doc_events[..1]), FeedStatus::NeedMore);
        let err = document.time_out();
        assert_eq!(err.code(), Code::IdleTimeout);
        assert_eq!(
            err.message(),
            "document sat idle past the idle budget of 5 tick(s)"
        );
        let location = err.location().unwrap();
        assert_eq!(
            (location.path.as_str(), location.event),
            ("bibliography", 1)
        );
        // The timed-out document was reset: the next one starts clean.
        assert_eq!(document.status(), FeedStatus::NeedMore);
        assert_eq!(document.depth(), 0);
        assert_eq!(document.feed(&doc_events), FeedStatus::Accepted);
        assert!(document.finish().is_ok());
        // An already-rejected document keeps its earlier diagnostic.
        let bad = events(&schema, &["bibliography", "year"]);
        assert_eq!(document.feed(&bad), FeedStatus::Rejected);
        let retained = document.diagnostic().unwrap().to_string();
        assert_eq!(document.time_out().to_string(), retained);
        // … and is reset after the time-out too.
        assert_eq!(document.status(), FeedStatus::NeedMore);
        let mut bytes = Document::new(schema, limits);
        assert_eq!(bytes.feed_bytes(b"<bibliography><bo"), FeedStatus::NeedMore);
        assert_eq!(bytes.time_out().code(), Code::IdleTimeout);
        assert_eq!(
            bytes.feed_bytes(b"<bibliography></bibliography>"),
            FeedStatus::Accepted
        );
        assert!(bytes.finish().is_ok());
    }
}
