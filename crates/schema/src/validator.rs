//! Event-driven document validation: a stack of plain-data cursor frames.
//!
//! [`DocumentValidator`] consumes a nested document as a stream of
//! `start_element` / `end_element` events and validates every element's
//! child sequence against its content model *as the children arrive* — one
//! pass, no child lists materialized. Each open element is one POD
//! [`Frame`]: for position-machine content models the entire matcher state
//! is the current `PosId`; counted models keep an owned set-of-positions
//! state on a side stack. Which of the two an element needs — together
//! with the model's start position — is precomputed in the schema's flat
//! per-symbol dispatch table, so a `start_element` event is two indexed
//! loads and a `Vec` push.
//!
//! Markup beyond element shape is checked the same way:
//! [`DocumentValidator::attribute`] resolves each attribute against the
//! open start tag's flat `<!ATTLIST>` table (undeclared / duplicate /
//! missing-`#REQUIRED` diagnostics, the last via a 64-bit mask closed by
//! the next structural event), and [`DocumentValidator::text`] checks each
//! run of character data against the enclosing element's mixed-content
//! flag (`#PCDATA` / `ANY`). Neither grows the 16-byte [`Frame`]: the
//! attribute scratch is validator-level, and text feeds no content-model
//! transition.
//!
//! Because content models are deterministic, a rejected feed is final: the
//! validator reports one structured [`Diagnostic`] — with the element path
//! and event index — at the *earliest* offending event, then stays quiet
//! for the rest of that element.
//!
//! # Steady-state allocation
//!
//! The validator recycles everything: the frame stack keeps its capacity,
//! closed counted states return their buffers to a pool, and diagnostics
//! are only materialized for invalid documents. After one document has
//! warmed the pools, validating further documents of the same shape
//! performs **no allocation** (enforced by the repository's
//! counting-allocator regression test). Pre-intern element names once via
//! [`Schema::lookup`] and use [`DocumentValidator::start_element_symbol`]
//! and the hot loop never hashes strings either.
//!
//! # Threading
//!
//! The validator owns its schema (`Arc<Schema>`), so it is `Send`: open one
//! per thread from a shared schema and validate concurrently.

use crate::{ContentKind, Dispatch, Schema};
use redet_automata::NfaScratch;
use redet_core::{Code, Diagnostic, DocLocation};
use redet_syntax::Symbol;
use redet_tree::PosId;
use std::sync::Arc;

/// Sentinel symbol index for element names outside the schema's alphabet.
const UNKNOWN: u32 = u32::MAX;

/// One pre-interned document event, the unit [`ValidationService::feed`]
/// ships in (see [`DocumentValidator::validate_events`]).
///
/// Marked `#[non_exhaustive]`: later revisions may grow richer event kinds
/// (processing instructions, typed attribute values) — keep a wildcard arm
/// when matching.
///
/// [`ValidationService::feed`]: crate::ValidationService::feed
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DocEvent {
    /// Opens an element with a pre-interned name (see [`Schema::lookup`]).
    Open(Symbol),
    /// Closes the innermost open element.
    Close,
    /// Names one attribute of the element most recently opened. Attribute
    /// events follow their `Open` and precede the element's first child,
    /// text run, or `Close` — exactly where attributes sit in a start tag.
    /// Attribute names share the element-name alphabet (see
    /// [`Schema::lookup`]).
    Attr(Symbol),
    /// One run of non-whitespace character data inside the innermost open
    /// element. The event is payload-free: validation only needs to know
    /// *that* character data occurred, and whether the enclosing element's
    /// content model allows it (`#PCDATA` / `ANY`).
    Text,
}

/// What a `start_element` event did to the parent's content check (computed
/// under the mutable borrow of the parent frame, reported afterwards — the
/// valid-document hot path returns [`ParentIssue::None`] and touches
/// nothing else).
enum ParentIssue {
    None,
    /// The parent is declared EMPTY (or undeclared) but got a child.
    EmptyViolation {
        undeclared: bool,
    },
    /// The parent's content model rejected the child at the given child
    /// index.
    Rejected {
        child_index: u32,
    },
}

/// The matcher state of one open element. All variants are plain data, so
/// the hot path moves no scratch and keeps no per-frame heap state.
#[derive(Clone, Copy, Debug)]
enum FrameState {
    /// A position-machine content model: the current position is the
    /// entire state.
    Pos(PosId),
    /// A counted content model; the owned position set lives on the
    /// validator's `counted` side stack (stack-aligned with the open
    /// `Counted` frames).
    Counted,
    /// EMPTY or undeclared: no element children allowed.
    Leaf,
    /// ANY (or an element unknown to the schema): children unconstrained.
    Any,
    /// A diagnostic was already recorded for this element's content —
    /// report once, then stay quiet.
    Dead,
}

/// One open element: its symbol (dense index, [`UNKNOWN`] for names outside
/// the alphabet), how many children it has seen, and its matcher state.
/// 16 bytes, `Copy` — pushing and popping frames is register work.
#[derive(Clone, Copy, Debug)]
struct Frame {
    sym: u32,
    children: u32,
    state: FrameState,
}

/// An event-driven validator over one [`Schema`]; see the module docs.
///
/// The validator owns a clone of the schema's [`Arc`] — it is `Send`,
/// storable next to its schema, and reusable: after
/// [`DocumentValidator::finish`] it is ready for the next document with its
/// warmed-up buffers intact.
pub struct DocumentValidator {
    schema: Arc<Schema>,
    frames: Vec<Frame>,
    /// Owned position sets of the open counted-model elements, in open
    /// order (one per live `FrameState::Counted` frame).
    counted: Vec<NfaScratch>,
    /// Recycled position-set buffers.
    pool: Vec<NfaScratch>,
    /// Names of the open elements outside the alphabet, in open order —
    /// only touched on (cold) diagnostic paths.
    unknown: Vec<String>,
    diagnostics: Vec<Diagnostic>,
    events: usize,
    /// Depth cap (`usize::MAX` = ungoverned); set by the service layer from
    /// its `ServiceLimits`. Opens past the cap are swallowed — counted in
    /// `depth_overflow`, never pushed — so a hostile deep document cannot
    /// grow the frame stack past the cap.
    max_depth: usize,
    /// Event budget (`usize::MAX` = ungoverned).
    max_events: usize,
    /// Number of open events swallowed past `max_depth`; matching closes
    /// drain this counter before frames pop again.
    depth_overflow: usize,
    /// Whether the event-budget diagnostic was already recorded for the
    /// current document (report once, stay quiet).
    event_limit_reported: bool,
    /// Whether a start tag's attribute list is still open — set by the
    /// `start_element` family, cleared by the next structural event (which
    /// is when `#REQUIRED` attributes are known to be missing).
    pending_active: bool,
    /// Dense symbol index of the element whose attribute list is open
    /// ([`UNKNOWN`] for elements that are structurally unchecked — unknown
    /// names and depth-overflow opens take attributes without checks).
    pending_sym: u32,
    /// Event index of the pending element's open event — missing-required
    /// diagnostics anchor here, so their location is chunking-invariant.
    pending_event: usize,
    /// Still-unseen `#REQUIRED` attributes of the pending element (bit `i` =
    /// `i`-th declaration in the element's attribute table).
    required_missing: u64,
    /// Epoch stamps for duplicate detection, one slot per attribute
    /// declaration in the schema ([`Schema::attr_decl_count`]) — sized once
    /// at construction, never cleared: a slot counts as "seen" only when its
    /// stamp equals the current epoch.
    seen: Vec<u64>,
    /// Bumped on every known-element open; stamps `seen`.
    epoch: u64,
    /// Byte-front-end state: whether the current logical text run has
    /// already been counted as a [`DocEvent::Text`]-equivalent event (text
    /// segments split by chunk boundaries or comments must not count
    /// twice). Reset by every structural event.
    in_text: bool,
}

impl DocumentValidator {
    /// Creates a validator over `schema` (see also [`Schema::validator`]).
    #[must_use]
    pub fn new(schema: Arc<Schema>) -> Self {
        let seen = vec![0; schema.attr_decl_count()];
        DocumentValidator {
            schema,
            frames: Vec::new(),
            counted: Vec::new(),
            pool: Vec::new(),
            unknown: Vec::new(),
            diagnostics: Vec::new(),
            events: 0,
            max_depth: usize::MAX,
            max_events: usize::MAX,
            depth_overflow: 0,
            event_limit_reported: false,
            pending_active: false,
            pending_sym: UNKNOWN,
            pending_event: 0,
            required_missing: 0,
            seen,
            epoch: 0,
            in_text: false,
        }
    }

    /// Installs per-document resource caps (the service layer threads its
    /// `ServiceLimits` through here). `usize::MAX` means ungoverned. Limit
    /// violations are recorded as `E3xx` diagnostics at a deterministic
    /// event index, so they are byte-identical under every chunking.
    pub(crate) fn set_limits(&mut self, max_depth: usize, max_events: usize) {
        self.max_depth = max_depth;
        self.max_events = max_events;
    }

    /// The schema this validator checks against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of events consumed for the current document.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Diagnostics collected so far for the current document.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Opens an element by name. One hash lookup per call; for the hash-free
    /// hot path pre-intern names with [`Schema::lookup`] and call
    /// [`DocumentValidator::start_element_symbol`].
    pub fn start_element(&mut self, name: &str) {
        match self.schema.lookup(name) {
            Some(sym) => self.start_element_symbol(sym),
            None => self.start_element_unknown(name),
        }
    }

    /// Opens an element by the raw name bytes a [`crate::Tokenizer`] hands
    /// out — the per-tag path of [`ValidationService::feed_bytes`]. A
    /// schema hit resolves the symbol with no UTF-8 round trip (byte
    /// equality with an interned name proves validity); only unknown names
    /// pay [`std::str::from_utf8`], and non-UTF-8 names are reported as
    /// [`Code::MalformedMarkup`].
    ///
    /// [`ValidationService::feed_bytes`]: crate::ValidationService::feed_bytes
    #[inline]
    pub fn start_element_bytes(&mut self, name: &[u8]) {
        match self.schema.lookup_bytes(name) {
            Some(sym) => self.start_element_symbol(sym),
            None => match std::str::from_utf8(name) {
                Ok(name) => self.start_element_unknown(name),
                Err(_) => self.report_markup("element name is not valid UTF-8".to_owned()),
            },
        }
    }

    /// Closes the innermost open element after checking the end tag's raw
    /// name against it (XML well-formedness) — the per-close-tag path of
    /// [`ValidationService::feed_bytes`]. The check compares name *keys*
    /// (first word + length), not bytes, so a matching close costs two
    /// integer compares on top of [`DocumentValidator::end_element`]; the
    /// mismatch arm — where a non-UTF-8 name first matters, since it can
    /// never equal an interned name — is cold.
    ///
    /// [`ValidationService::feed_bytes`]: crate::ValidationService::feed_bytes
    #[inline]
    pub fn close_element_bytes(&mut self, name: &[u8]) {
        let matches = match self.frames.last() {
            Some(frame) if frame.sym != UNKNOWN => self
                .schema
                .name_matches(Symbol::from_index(frame.sym as usize), name),
            Some(_) => self
                .unknown
                .last()
                .is_some_and(|open| open.as_bytes() == name),
            // Let end_element report the unbalanced close.
            None => true,
        };
        if matches {
            self.end_element();
        } else {
            self.close_element_mismatch(name);
        }
    }

    /// The cold mismatch arm of [`DocumentValidator::close_element_bytes`].
    #[cold]
    fn close_element_mismatch(&mut self, name: &[u8]) {
        let open = self.open_element_name().unwrap_or("?").to_owned();
        match std::str::from_utf8(name) {
            Ok(name) => self.report_markup(format!(
                "</{name}> does not match the innermost open element <{open}>"
            )),
            Err(_) => self.report_markup("element name is not valid UTF-8".to_owned()),
        }
    }

    /// Checks one attribute of the element most recently opened, by
    /// pre-interned name symbol (attribute names share the element-name
    /// alphabet — see [`Schema::lookup`]). Undeclared and duplicate
    /// attributes are diagnosed immediately; missing `#REQUIRED` attributes
    /// are diagnosed by the next structural event, anchored at the open
    /// event. Attributes of unknown (or depth-swallowed) elements are
    /// accepted unchecked, mirroring their `ANY` content semantics.
    ///
    /// # Panics
    /// Panics if `sym` was not handed out by this schema's alphabet.
    pub fn attribute(&mut self, sym: Symbol) {
        let event = self.take_event();
        if !self.pending_active {
            self.attribute_misplaced(event);
            return;
        }
        if self.pending_sym == UNKNOWN {
            return;
        }
        self.check_attribute(sym, event);
    }

    /// Checks one attribute by the raw name bytes a [`crate::Tokenizer`]
    /// hands out — the per-attribute path of
    /// [`ValidationService::feed_bytes`]. A schema hit resolves the symbol
    /// with no UTF-8 round trip; names outside the alphabet are undeclared
    /// by construction.
    ///
    /// [`ValidationService::feed_bytes`]: crate::ValidationService::feed_bytes
    #[inline]
    pub fn attribute_bytes(&mut self, name: &[u8]) {
        let event = self.take_event();
        if !self.pending_active {
            self.attribute_misplaced(event);
            return;
        }
        if self.pending_sym == UNKNOWN {
            return;
        }
        match self.schema.lookup_bytes(name) {
            Some(sym) => self.check_attribute(sym, event),
            None => match std::str::from_utf8(name) {
                Ok(name) => self.attribute_undeclared(name.to_owned(), event),
                Err(_) => self.report_markup("attribute name is not valid UTF-8".to_owned()),
            },
        }
    }

    /// The shared declared-attribute check: resolve the name against the
    /// pending element's flat attribute table, stamp the duplicate epoch,
    /// clear the required bit.
    fn check_attribute(&mut self, sym: Symbol, event: usize) {
        let needle = sym.index() as u32;
        let (found, start) = {
            let (decls, start) = self.schema.attrs_of(self.pending_sym);
            (decls.iter().position(|d| d.sym == needle), start)
        };
        match found {
            Some(i) => {
                let slot = start as usize + i;
                if self.seen[slot] == self.epoch {
                    let name = self.schema.name(sym).to_owned();
                    self.attribute_issue(
                        Code::DuplicateAttribute,
                        format!("attribute '{name}' appears more than once"),
                        event,
                    );
                } else {
                    self.seen[slot] = self.epoch;
                    self.required_missing &= !(1u64 << i);
                }
            }
            None => {
                let name = self.schema.name(sym).to_owned();
                self.attribute_undeclared(name, event);
            }
        }
    }

    /// The cold undeclared-attribute arm shared by the symbol and byte
    /// surfaces (so both report byte-identical diagnostics).
    #[cold]
    fn attribute_undeclared(&mut self, name: String, event: usize) {
        self.attribute_issue(
            Code::UndeclaredAttribute,
            format!("attribute '{name}' is not declared"),
            event,
        );
    }

    /// Reports an attribute diagnostic against the pending element.
    #[cold]
    fn attribute_issue(&mut self, code: Code, what: String, event: usize) {
        let elem = self
            .schema
            .name(Symbol::from_index(self.pending_sym as usize))
            .to_owned();
        let path = self.path_with(None);
        self.diagnostics.push(
            Diagnostic::new(code, format!("{what} on element '{elem}'"))
                .with_location(DocLocation { path, event }),
        );
    }

    /// An attribute event with no open attribute list (no structural event
    /// may separate an `Open` from its attributes).
    #[cold]
    fn attribute_misplaced(&mut self, event: usize) {
        let path = self.path_with(None);
        self.diagnostics.push(
            Diagnostic::new(
                Code::MalformedMarkup,
                "attribute appears outside of a start tag",
            )
            .with_location(DocLocation { path, event }),
        );
    }

    /// Consumes one run of non-whitespace character data inside the
    /// innermost open element — the event-surface twin of
    /// [`DocumentValidator::text_segment`]. Text is *stray* (E211) unless
    /// the enclosing element allows it: `#PCDATA` in its content model,
    /// `ANY`, or an element the schema does not constrain.
    pub fn text(&mut self) {
        self.finalize_attrs();
        let event = self.take_event();
        self.check_text(event);
    }

    /// Consumes one decoded text segment from a [`crate::Tokenizer`] — the
    /// per-text path of [`ValidationService::feed_bytes`]. Segments are
    /// coalesced into *logical runs*: whitespace-only segments outside a run
    /// are ignored, the first non-whitespace segment counts as one
    /// [`DocEvent::Text`]-equivalent event, and further segments of the same
    /// run (split by chunk boundaries, comments, or CDATA sections) are
    /// free — so event counts and verdicts are chunking-invariant and
    /// byte-identical to the event surface.
    ///
    /// [`ValidationService::feed_bytes`]: crate::ValidationService::feed_bytes
    #[inline]
    pub fn text_segment(&mut self, bytes: &[u8]) {
        if self.in_text {
            return;
        }
        if bytes
            .iter()
            .all(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            return;
        }
        self.in_text = true;
        self.finalize_attrs();
        let event = self.take_event();
        self.check_text(event);
    }

    /// The shared stray-text check behind [`DocumentValidator::text`] and
    /// [`DocumentValidator::text_segment`].
    fn check_text(&mut self, event: usize) {
        if self.depth_overflow > 0 {
            // Inside a depth-swallowed subtree: structurally unchecked.
            return;
        }
        let stray = match self.frames.last_mut() {
            None => {
                self.diagnostics.push(
                    Diagnostic::new(
                        Code::StrayText,
                        "character data appears outside the document element",
                    )
                    .with_location(DocLocation {
                        path: String::new(),
                        event,
                    }),
                );
                return;
            }
            Some(frame) => match frame.state {
                FrameState::Any | FrameState::Dead => false,
                FrameState::Pos(_) | FrameState::Leaf => {
                    if self.schema.text_allowed(frame.sym) {
                        false
                    } else {
                        frame.state = FrameState::Dead;
                        true
                    }
                }
                FrameState::Counted => {
                    if self.schema.text_allowed(frame.sym) {
                        false
                    } else {
                        frame.state = FrameState::Dead;
                        // The element's check is over; recycle its state.
                        if let Some(state) = self.counted.pop() {
                            self.pool.push(state);
                        }
                        true
                    }
                }
            },
        };
        if stray {
            let name = self.last_frame_name().to_owned();
            let path = self.path_with(None);
            self.diagnostics.push(
                Diagnostic::new(
                    Code::StrayText,
                    format!("element '{name}' does not allow character data"),
                )
                .with_location(DocLocation { path, event }),
            );
        }
    }

    /// Every structural event funnels through here first: close the pending
    /// attribute list (reporting missing `#REQUIRED` attributes at the open
    /// event) and end the current text run.
    #[inline]
    fn begin_structural(&mut self) {
        self.in_text = false;
        self.finalize_attrs();
    }

    /// Closes the pending attribute list, diagnosing the first still-missing
    /// `#REQUIRED` attribute (anchored at the open event, so the location is
    /// identical whatever ends the start tag — a child, text, a close, or
    /// the end of the document).
    #[inline]
    fn finalize_attrs(&mut self) {
        if !self.pending_active {
            return;
        }
        self.pending_active = false;
        if self.required_missing != 0 {
            self.missing_required();
        }
    }

    /// The cold missing-`#REQUIRED` arm of `finalize_attrs`.
    #[cold]
    fn missing_required(&mut self) {
        let i = self.required_missing.trailing_zeros() as usize;
        self.required_missing = 0;
        let (name, elem) = {
            let (decls, _) = self.schema.attrs_of(self.pending_sym);
            let name = decls
                .get(i)
                .map(|d| self.schema.name(Symbol::from_index(d.sym as usize)))
                .unwrap_or("?")
                .to_owned();
            let elem = self
                .schema
                .name(Symbol::from_index(self.pending_sym as usize))
                .to_owned();
            (name, elem)
        };
        let path = self.path_with(None);
        let event = self.pending_event;
        self.diagnostics.push(
            Diagnostic::new(
                Code::MissingRequiredAttribute,
                format!("element '{elem}' is missing the required attribute '{name}'"),
            )
            .with_location(DocLocation { path, event }),
        );
    }

    /// The shared unknown-element cold path: diagnose, then open a
    /// match-anything frame so validation can continue structurally.
    #[cold]
    fn start_element_unknown(&mut self, name: &str) {
        self.begin_structural();
        let event = self.take_event();
        if self.depth_overflow > 0 || self.frames.len() >= self.max_depth {
            self.overflow_open(Err(name), event);
            return;
        }
        let path = self.path_with(Some(name));
        self.diagnostics.push(
            Diagnostic::new(
                Code::UnknownElement,
                format!("element '{name}' is not part of the schema"),
            )
            .with_location(DocLocation { path, event }),
        );
        self.feed_parent(Err(name), event);
        self.unknown.push(name.to_owned());
        self.frames.push(Frame {
            sym: UNKNOWN,
            children: 0,
            state: FrameState::Any,
        });
        // Unknown elements carry attributes but get no attribute checks.
        self.pending_active = true;
        self.pending_sym = UNKNOWN;
        self.pending_event = event;
        self.required_missing = 0;
    }

    /// Opens an element by pre-interned symbol — the hash-free hot path:
    /// feed the parent's cursor, one flat-table load for the child's
    /// dispatch, one frame push.
    ///
    /// # Panics
    /// Panics if `sym` was not handed out by this schema's alphabet.
    pub fn start_element_symbol(&mut self, sym: Symbol) {
        self.begin_structural();
        let event = self.take_event();
        if self.depth_overflow > 0 || self.frames.len() >= self.max_depth {
            self.overflow_open(Ok(sym), event);
            return;
        }
        self.feed_parent(Ok(sym), event);
        let state = match self.schema.dispatch(sym) {
            Dispatch::Pos(begin) => FrameState::Pos(begin),
            Dispatch::Empty | Dispatch::Undeclared => FrameState::Leaf,
            Dispatch::Any => FrameState::Any,
            Dispatch::Counted => {
                let mut state = self.pool.pop().unwrap_or_default();
                match self.counted_matcher(sym.index() as u32) {
                    Some(m) => {
                        m.reset(&mut state);
                        self.counted.push(state);
                        FrameState::Counted
                    }
                    None => {
                        // Dispatch said Counted but the model disagrees —
                        // a library bug, not the document's fault; skip
                        // checking this element rather than panicking.
                        debug_assert!(false, "Counted dispatch without a counted model");
                        self.pool.push(state);
                        FrameState::Any
                    }
                }
            }
        };
        self.frames.push(Frame {
            sym: sym.index() as u32,
            children: 0,
            state,
        });
        // Open the element's attribute list: fresh duplicate epoch, all its
        // #REQUIRED attributes still missing.
        self.pending_active = true;
        self.pending_sym = sym.index() as u32;
        self.pending_event = event;
        self.required_missing = self.schema.required_mask(sym.index() as u32);
        self.epoch += 1;
    }

    /// The depth-governor's open path: swallow the over-deep open (the
    /// frame stack must stay bounded by the cap), diagnose the first one.
    #[cold]
    fn overflow_open(&mut self, child: Result<Symbol, &str>, event: usize) {
        if self.depth_overflow == 0 {
            let name = self.child_name(child).to_owned();
            let path = self.path_with(Some(&name));
            self.diagnostics.push(
                Diagnostic::new(
                    Code::DepthLimitExceeded,
                    format!(
                        "<{name}> would nest {} level(s) deep, past the depth \
                         limit of {}",
                        self.frames.len() + 1,
                        self.max_depth
                    ),
                )
                .with_location(DocLocation { path, event }),
            );
        }
        self.depth_overflow += 1;
        // Swallowed opens still take attribute events — unchecked, like
        // unknown elements.
        self.pending_active = true;
        self.pending_sym = UNKNOWN;
        self.pending_event = event;
        self.required_missing = 0;
    }

    /// Closes the innermost open element, checking that its content may end
    /// here.
    pub fn end_element(&mut self) {
        self.begin_structural();
        if self.depth_overflow > 0 {
            // Closing an open the depth governor swallowed: just rebalance.
            let _ = self.take_event();
            self.depth_overflow -= 1;
            return;
        }
        let event = self.take_event();
        let Some(frame) = self.frames.pop() else {
            self.diagnostics.push(
                Diagnostic::new(
                    Code::UnbalancedDocument,
                    "end_element without a matching start_element",
                )
                .with_location(DocLocation {
                    path: String::new(),
                    event,
                }),
            );
            return;
        };
        let complete = match frame.state {
            FrameState::Pos(pos) => self
                .schema
                .model_at(frame.sym)
                .is_some_and(|m| m.pos_can_end(pos)),
            FrameState::Counted => match self.counted.pop() {
                Some(state) => {
                    let ok = self
                        .counted_matcher(frame.sym)
                        .is_some_and(|m| m.state_accepts(&state));
                    self.pool.push(state);
                    ok
                }
                None => {
                    debug_assert!(false, "Counted frames keep a state on the counted stack");
                    true
                }
            },
            FrameState::Leaf | FrameState::Any | FrameState::Dead => true,
        };
        if !complete {
            let name = self.frame_name_owned(&frame);
            let path = self.path_with(Some(&name));
            self.diagnostics.push(
                Diagnostic::new(
                    Code::IncompleteElement,
                    format!(
                        "<{name}> was closed after {} child(ren) but its content \
                         model requires more",
                        frame.children
                    ),
                )
                .with_location(DocLocation { path, event }),
            );
        }
        if frame.sym == UNKNOWN {
            self.unknown.pop();
        }
    }

    /// Ends the document: reports unclosed elements, resets the validator
    /// for the next document (keeping its warmed-up buffers), and returns
    /// the collected diagnostics, if any.
    pub fn finish(&mut self) -> Result<(), Vec<Diagnostic>> {
        self.begin_structural();
        if !self.frames.is_empty() || self.depth_overflow > 0 {
            let event = self.events;
            let path = self.path_with(None);
            self.diagnostics.push(
                Diagnostic::new(
                    Code::UnbalancedDocument,
                    format!(
                        "document ended with {} unclosed element(s)",
                        self.frames.len() + self.depth_overflow
                    ),
                )
                .with_location(DocLocation { path, event }),
            );
            self.frames.clear();
            self.unknown.clear();
            // Recycle the abandoned counted states for the next document.
            while let Some(state) = self.counted.pop() {
                self.pool.push(state);
            }
        }
        self.depth_overflow = 0;
        self.event_limit_reported = false;
        self.events = 0;
        let diagnostics = std::mem::take(&mut self.diagnostics);
        if diagnostics.is_empty() {
            Ok(())
        } else {
            Err(diagnostics)
        }
    }

    /// Validates one whole document given as a pre-interned event stream:
    /// replays every event and [`finish`](Self::finish)es.
    pub fn validate_events(&mut self, events: &[DocEvent]) -> Result<(), Vec<Diagnostic>> {
        for &event in events {
            match event {
                DocEvent::Open(sym) => self.start_element_symbol(sym),
                DocEvent::Close => self.end_element(),
                DocEvent::Attr(sym) => self.attribute(sym),
                DocEvent::Text => self.text(),
            }
        }
        self.finish()
    }

    /// Whether no diagnostic has been recorded for the current document —
    /// the per-event check the fail-fast [`crate::ValidationService`] makes.
    #[inline]
    pub(crate) fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Takes the *earliest* diagnostic recorded for the current document,
    /// discarding any later ones. Because diagnostics are pushed in event
    /// order, this is byte-identical to the first entry a whole-document
    /// [`DocumentValidator::finish`] would report — the fail-fast contract
    /// of [`crate::ValidationService`].
    pub(crate) fn take_first_diagnostic(&mut self) -> Option<Diagnostic> {
        let first = if self.diagnostics.is_empty() {
            None
        } else {
            Some(self.diagnostics.remove(0))
        };
        self.diagnostics.clear();
        first
    }

    /// The name of the innermost open element, if any — the byte front end
    /// checks end-tag names against it (XML well-formedness; the event
    /// surface has no names on close events, so only byte feeding pays the
    /// comparison).
    pub(crate) fn open_element_name(&self) -> Option<&str> {
        self.frames.last().map(|frame| {
            if frame.sym == UNKNOWN {
                self.unknown.last().map(String::as_str).unwrap_or("?")
            } else {
                self.schema.name(Symbol::from_index(frame.sym as usize))
            }
        })
    }

    /// Records a malformed-markup diagnostic at the current document
    /// position — the byte-level tokenizer's entry into the diagnostic
    /// stream (the offending construct is not a document event, so the
    /// event counter is not advanced).
    pub(crate) fn report_markup(&mut self, message: String) {
        self.report_limit(Code::MalformedMarkup, message);
    }

    /// Records a diagnostic of any code at the current document position —
    /// the service layer's entry for `E3xx` resource-governance violations
    /// that are not tied to a single event (byte budgets, name caps, idle
    /// time-outs). The event counter is not advanced, so the location is the
    /// deterministic "between events" point whatever the chunking.
    pub(crate) fn report_limit(&mut self, code: Code, message: String) {
        let event = self.events;
        let path = self.path_with(None);
        self.diagnostics
            .push(Diagnostic::new(code, message).with_location(DocLocation { path, event }));
    }

    fn take_event(&mut self) -> usize {
        if self.events >= self.max_events && !self.event_limit_reported {
            self.event_limit_reported = true;
            let event = self.events;
            let path = self.path_with(None);
            self.diagnostics.push(
                Diagnostic::new(
                    Code::EventLimitExceeded,
                    format!(
                        "document exceeded the event budget of {} event(s)",
                        self.max_events
                    ),
                )
                .with_location(DocLocation { path, event }),
            );
        }
        let event = self.events;
        self.events += 1;
        event
    }

    /// The counted simulation of the element at dense symbol index `sym`,
    /// when its model is counted.
    #[inline]
    fn counted_matcher(&self, sym: u32) -> Option<&redet_automata::NfaSimulationMatcher> {
        self.schema.model_at(sym).and_then(|m| m.counted_matcher())
    }

    /// Feeds the child's symbol into the innermost open element's cursor;
    /// `Err` carries the name of a child unknown to the schema's alphabet
    /// (which no content model over that alphabet can accept).
    #[inline]
    fn feed_parent(&mut self, child: Result<Symbol, &str>, event: usize) {
        let issue = {
            let Some(parent) = self.frames.last_mut() else {
                return;
            };
            let child_index = parent.children;
            parent.children += 1;
            match parent.state {
                FrameState::Any | FrameState::Dead => ParentIssue::None,
                FrameState::Pos(pos) => {
                    let next = match child {
                        Ok(sym) => self
                            .schema
                            .model_at(parent.sym)
                            .and_then(|m| m.pos_advance(pos, sym)),
                        // A name outside the alphabet can never be matched.
                        Err(_) => None,
                    };
                    match next {
                        Some(q) => {
                            parent.state = FrameState::Pos(q);
                            ParentIssue::None
                        }
                        None => {
                            parent.state = FrameState::Dead;
                            ParentIssue::Rejected { child_index }
                        }
                    }
                }
                FrameState::Counted => {
                    let advanced = match child {
                        Ok(sym) => match (
                            self.schema
                                .model_at(parent.sym)
                                .and_then(|m| m.counted_matcher()),
                            self.counted.last_mut(),
                        ) {
                            (Some(m), Some(state)) => m.step(state, sym),
                            _ => {
                                debug_assert!(
                                    false,
                                    "Counted frames keep a state on the counted stack"
                                );
                                false
                            }
                        },
                        Err(_) => false,
                    };
                    if advanced {
                        ParentIssue::None
                    } else {
                        parent.state = FrameState::Dead;
                        // The element's check is over; recycle its state now.
                        if let Some(state) = self.counted.pop() {
                            self.pool.push(state);
                        }
                        ParentIssue::Rejected { child_index }
                    }
                }
                FrameState::Leaf => {
                    parent.state = FrameState::Dead;
                    let undeclared = self
                        .schema
                        .content_kind(Symbol::from_index(parent.sym as usize))
                        == ContentKind::Undeclared;
                    ParentIssue::EmptyViolation { undeclared }
                }
            }
        };
        match issue {
            ParentIssue::None => {}
            ParentIssue::EmptyViolation { undeclared } => {
                let parent_name = self.last_frame_name().to_owned();
                let child_name = self.child_name(child).to_owned();
                let path = self.path_with(None);
                let how = if undeclared {
                    "has no declaration (EMPTY semantics)"
                } else {
                    "is declared EMPTY"
                };
                self.diagnostics.push(
                    Diagnostic::new(
                        Code::ChildInEmptyElement,
                        format!("<{parent_name}> {how} but contains <{child_name}>"),
                    )
                    .with_location(DocLocation { path, event }),
                );
            }
            ParentIssue::Rejected { child_index } => {
                let parent_name = self.last_frame_name().to_owned();
                let child_name = self.child_name(child).to_owned();
                let path = self.path_with(None);
                self.diagnostics.push(
                    Diagnostic::new(
                        Code::UnexpectedChild,
                        format!(
                            "<{child_name}> cannot appear as child #{child_index} of \
                             <{parent_name}>: the content model has no continuation \
                             for it here"
                        ),
                    )
                    .with_location(DocLocation { path, event }),
                );
            }
        }
    }

    /// The display name of a frame that is still on (or was just popped
    /// off) the stack. Unknown-element names are resolved positionally
    /// against the `unknown` side stack, so pass a frame only while its
    /// unknown-name entry is still present.
    fn frame_name_owned(&self, frame: &Frame) -> String {
        if frame.sym == UNKNOWN {
            self.unknown.last().cloned().unwrap_or_else(|| "?".into())
        } else {
            self.schema
                .name(Symbol::from_index(frame.sym as usize))
                .to_owned()
        }
    }

    fn last_frame_name(&self) -> &str {
        match self.frames.last() {
            Some(frame) if frame.sym != UNKNOWN => {
                self.schema.name(Symbol::from_index(frame.sym as usize))
            }
            Some(_) => self.unknown.last().map(String::as_str).unwrap_or("?"),
            None => "?",
        }
    }

    fn child_name<'a>(&'a self, child: Result<Symbol, &'a str>) -> &'a str {
        match child {
            Ok(sym) => self.schema.name(sym),
            Err(name) => name,
        }
    }

    /// Slash-separated path of the open elements, optionally extended by one
    /// more segment. Only called on diagnostic paths — allocation here never
    /// touches the valid-document hot loop.
    fn path_with(&self, extra: Option<&str>) -> String {
        let mut unknown = self.unknown.iter();
        let mut path = String::new();
        for frame in &self.frames {
            let name = if frame.sym == UNKNOWN {
                unknown.next().map(String::as_str).unwrap_or("?")
            } else {
                self.schema.name(Symbol::from_index(frame.sym as usize))
            };
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(name);
        }
        if let Some(extra) = extra {
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(extra);
        }
        path
    }
}

impl std::fmt::Debug for DocumentValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocumentValidator")
            .field("depth", &self.depth())
            .field("events", &self.events)
            .field("diagnostics", &self.diagnostics.len())
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
            .element("book", "(title, author+, publisher?, year)")
            .element("article", "(title, author+, journal, year?)")
            .element_empty("title")
            .element_empty("author")
            .element_empty("year")
            .build()
            .unwrap()
    }

    fn leaf(v: &mut DocumentValidator, name: &str) {
        v.start_element(name);
        v.end_element();
    }

    #[test]
    fn validators_are_send_and_movable() {
        fn assert_send<T: Send>(_: &T) {}
        let schema = bibliography();
        let mut v = schema.validator();
        assert_send(&v);
        drop(schema); // The validator owns its schema.
        let handle = std::thread::spawn(move || {
            v.start_element("bibliography");
            v.end_element();
            v.finish().is_ok()
        });
        assert!(handle.join().unwrap());
    }

    #[test]
    fn valid_document_passes() {
        let schema = bibliography();
        let mut v = schema.validator();
        v.start_element("bibliography");
        v.start_element("book");
        leaf(&mut v, "title");
        leaf(&mut v, "author");
        leaf(&mut v, "author");
        leaf(&mut v, "publisher");
        leaf(&mut v, "year");
        v.end_element();
        v.end_element();
        assert!(v.finish().is_ok());
        // The validator is reusable for the next document.
        v.start_element("bibliography");
        v.end_element();
        assert!(v.finish().is_ok());
    }

    #[test]
    fn incomplete_content_is_located() {
        let schema = bibliography();
        let mut v = schema.validator();
        v.start_element("bibliography");
        v.start_element("book");
        leaf(&mut v, "title");
        leaf(&mut v, "author");
        v.end_element(); // book closed without year
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].code(), Code::IncompleteElement);
        let loc = err[0].location().unwrap();
        assert_eq!(loc.path, "bibliography/book");
        assert_eq!(loc.event, 6);
    }

    #[test]
    fn unexpected_child_reports_once_at_the_earliest_event() {
        let schema = bibliography();
        let mut v = schema.validator();
        v.start_element("bibliography");
        v.start_element("book");
        leaf(&mut v, "author"); // title must come first
        leaf(&mut v, "author");
        leaf(&mut v, "year");
        v.end_element();
        v.end_element();
        let err = v.finish().unwrap_err();
        // One diagnostic for <book>, not one per subsequent child.
        assert_eq!(err.len(), 1, "{err:?}");
        assert_eq!(err[0].code(), Code::UnexpectedChild);
        let loc = err[0].location().unwrap();
        assert_eq!(loc.path, "bibliography/book");
        assert_eq!(loc.event, 2);
        assert!(
            err[0].message().contains("child #0"),
            "{}",
            err[0].message()
        );
    }

    #[test]
    fn empty_and_unknown_elements_are_diagnosed() {
        let schema = bibliography();
        let mut v = schema.validator();
        v.start_element("bibliography");
        v.start_element("book");
        v.start_element("title");
        leaf(&mut v, "author"); // title is EMPTY
        v.end_element();
        leaf(&mut v, "author");
        v.start_element("mystery"); // unknown to the schema
        v.end_element();
        leaf(&mut v, "year");
        v.end_element();
        v.end_element();
        let err = v.finish().unwrap_err();
        let codes: Vec<Code> = err.iter().map(|d| d.code()).collect();
        assert!(codes.contains(&Code::ChildInEmptyElement), "{codes:?}");
        assert!(codes.contains(&Code::UnknownElement), "{codes:?}");
        // The unknown child also breaks its parent's content model.
        assert!(codes.contains(&Code::UnexpectedChild), "{codes:?}");
        // The unknown element's diagnostic path names it.
        let unknown = err
            .iter()
            .find(|d| d.code() == Code::UnknownElement)
            .unwrap();
        assert_eq!(
            unknown.location().unwrap().path,
            "bibliography/book/mystery"
        );
    }

    #[test]
    fn unbalanced_documents_are_diagnosed() {
        let schema = bibliography();
        let mut v = schema.validator();
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::UnbalancedDocument);

        let mut v = schema.validator();
        v.start_element("bibliography");
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::UnbalancedDocument);
        // finish() reset the validator despite the open element.
        assert_eq!(v.depth(), 0);
        v.start_element("bibliography");
        v.end_element();
        assert!(v.finish().is_ok());
    }

    #[test]
    fn symbol_hot_path_matches_name_path() {
        let schema = bibliography();
        let bib = schema.lookup("bibliography").unwrap();
        let book = schema.lookup("book").unwrap();
        let title = schema.lookup("title").unwrap();
        let author = schema.lookup("author").unwrap();
        let year = schema.lookup("year").unwrap();
        let mut v = schema.validator();
        v.start_element_symbol(bib);
        v.start_element_symbol(book);
        for s in [title, author, year] {
            v.start_element_symbol(s);
            v.end_element();
        }
        v.end_element();
        v.end_element();
        assert!(v.finish().is_ok());
    }

    #[test]
    fn validate_events_replays_whole_documents() {
        let schema = bibliography();
        let s = |name: &str| schema.lookup(name).unwrap();
        let doc = [
            DocEvent::Open(s("bibliography")),
            DocEvent::Open(s("book")),
            DocEvent::Open(s("title")),
            DocEvent::Close,
            DocEvent::Open(s("author")),
            DocEvent::Close,
            DocEvent::Open(s("year")),
            DocEvent::Close,
            DocEvent::Close,
            DocEvent::Close,
        ];
        let mut v = schema.validator();
        assert!(v.validate_events(&doc).is_ok());
        // Truncated stream: unbalanced.
        let err = v.validate_events(&doc[..3]).unwrap_err();
        assert_eq!(err[0].code(), Code::UnbalancedDocument);
        // The validator is clean again afterwards.
        assert!(v.validate_events(&doc).is_ok());
    }

    #[test]
    fn counted_models_validate_through_the_simulation() {
        let schema = SchemaBuilder::new()
            .element("order", "(item{2,3}, total)")
            .element_empty("item")
            .element_empty("total")
            .build()
            .unwrap();
        let mut v = schema.validator();
        v.start_element("order");
        for _ in 0..2 {
            leaf(&mut v, "item");
        }
        leaf(&mut v, "total");
        v.end_element();
        assert!(v.finish().is_ok());
        // One item is too few: the rejection fires on `total`.
        v.start_element("order");
        leaf(&mut v, "item");
        leaf(&mut v, "total");
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::UnexpectedChild);
        // Too few items *and* nothing after them: incomplete, not rejected.
        v.start_element("order");
        leaf(&mut v, "item");
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::IncompleteElement);
    }

    #[test]
    fn nested_counted_models_keep_their_states_apart() {
        // `group` nests counted `order`s inside a counted `pair` — the side
        // stack must track each open counted element independently.
        let schema = SchemaBuilder::new()
            .element("group", "(order{1,2})")
            .element("order", "(item{2,3})")
            .element_empty("item")
            .build()
            .unwrap();
        let mut v = schema.validator();
        v.start_element("group");
        for items in [2usize, 3] {
            v.start_element("order");
            for _ in 0..items {
                leaf(&mut v, "item");
            }
            v.end_element();
        }
        v.end_element();
        assert!(v.finish().is_ok());
        // The inner rejection doesn't corrupt the outer state.
        v.start_element("group");
        v.start_element("order");
        leaf(&mut v, "item");
        v.end_element(); // order incomplete
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::IncompleteElement);
    }

    /// `book` takes a required `isbn` and an optional `lang`; `title` is a
    /// `(#PCDATA)` leaf.
    fn attributed() -> Arc<Schema> {
        SchemaBuilder::new()
            .element("book", "(title)")
            .element_text("title")
            .attribute("book", "isbn", true)
            .attribute("book", "lang", false)
            .build()
            .unwrap()
    }

    #[test]
    fn required_attributes_are_enforced_at_the_open_event() {
        let schema = attributed();
        let s = |n: &str| schema.lookup(n).unwrap();
        let mut v = schema.validator();
        v.start_element_symbol(s("book"));
        v.attribute(s("isbn"));
        v.start_element_symbol(s("title"));
        v.end_element();
        v.end_element();
        assert!(v.finish().is_ok());
        // The optional attribute alone does not satisfy the required one.
        v.start_element_symbol(s("book"));
        v.attribute(s("lang"));
        v.start_element_symbol(s("title"));
        v.end_element();
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::MissingRequiredAttribute);
        assert!(err[0].message().contains("'isbn'"), "{}", err[0]);
        let loc = err[0].location().unwrap();
        // Anchored at <book>'s open event, not wherever the tag ended.
        assert_eq!(loc.event, 0);
        assert_eq!(loc.path, "book");
    }

    #[test]
    fn undeclared_and_duplicate_attributes_are_diagnosed() {
        let schema = attributed();
        let s = |n: &str| schema.lookup(n).unwrap();
        let mut v = schema.validator();
        v.start_element_symbol(s("book"));
        v.attribute(s("isbn"));
        v.attribute(s("isbn"));
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::DuplicateAttribute);
        assert_eq!(err[0].location().unwrap().event, 2);
        // An alphabet name that is not in the element's table (the byte
        // surface reports the identical diagnostic).
        v.start_element_symbol(s("book"));
        v.attribute(s("title"));
        let by_symbol = v.finish().unwrap_err();
        v.start_element_bytes(b"book");
        v.attribute_bytes(b"title");
        let by_bytes = v.finish().unwrap_err();
        assert_eq!(by_symbol[0].code(), Code::UndeclaredAttribute);
        assert_eq!(by_symbol[0].to_string(), by_bytes[0].to_string());
        // A name outside the alphabet is undeclared by construction.
        v.start_element_bytes(b"book");
        v.attribute_bytes(b"publisher");
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::UndeclaredAttribute);
        assert!(err[0].message().contains("'publisher'"), "{}", err[0]);
    }

    #[test]
    fn attributes_outside_a_start_tag_are_malformed() {
        let schema = attributed();
        let s = |n: &str| schema.lookup(n).unwrap();
        let mut v = schema.validator();
        v.start_element_symbol(s("title"));
        v.text();
        v.attribute(s("lang"));
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::MalformedMarkup);
        assert!(
            err[0].message().contains("outside of a start tag"),
            "{}",
            err[0]
        );
    }

    #[test]
    fn attributes_on_unknown_elements_are_unchecked() {
        let schema = attributed();
        let mut v = schema.validator();
        v.start_element("mystery");
        v.attribute_bytes(b"anything");
        v.attribute_bytes(b"anything");
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err.len(), 1, "{err:?}");
        assert_eq!(err[0].code(), Code::UnknownElement);
    }

    #[test]
    fn text_placement_follows_mixed_content() {
        let schema = attributed();
        let s = |n: &str| schema.lookup(n).unwrap();
        let mut v = schema.validator();
        // (#PCDATA) allows text; an element-only model does not.
        v.start_element_symbol(s("book"));
        v.attribute(s("isbn"));
        v.start_element_symbol(s("title"));
        v.text();
        v.end_element();
        v.end_element();
        assert!(v.finish().is_ok());
        v.start_element_symbol(s("book"));
        v.attribute(s("isbn"));
        v.text();
        v.start_element_symbol(s("title"));
        v.end_element();
        v.end_element();
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::StrayText);
        assert_eq!(err[0].location().unwrap().path, "book");
        // Text before the document element is stray too.
        v.text();
        let err = v.finish().unwrap_err();
        assert_eq!(err[0].code(), Code::StrayText);
        assert!(err[0].message().contains("outside"), "{}", err[0]);
    }

    #[test]
    fn text_segments_coalesce_into_one_event() {
        let schema = attributed();
        let mut v = schema.validator();
        v.start_element_bytes(b"book");
        v.attribute_bytes(b"isbn");
        v.start_element_bytes(b"title");
        v.text_segment(b"  \n");
        v.text_segment(b"hello");
        v.text_segment(b" world");
        v.close_element_bytes(b"title");
        v.close_element_bytes(b"book");
        // open, attr, open, one text run, close, close — whitespace outside
        // a run and continuation segments are free.
        assert_eq!(v.events(), 6);
        assert!(v.finish().is_ok());
    }

    #[test]
    fn validate_events_covers_attributes_and_text() {
        let schema = attributed();
        let s = |n: &str| schema.lookup(n).unwrap();
        let doc = [
            DocEvent::Open(s("book")),
            DocEvent::Attr(s("isbn")),
            DocEvent::Open(s("title")),
            DocEvent::Text,
            DocEvent::Close,
            DocEvent::Close,
        ];
        let mut v = schema.validator();
        assert!(v.validate_events(&doc).is_ok());
        // Dropping the attribute flips the verdict.
        let err = v.validate_events(&doc[..1]).unwrap_err();
        let codes: Vec<Code> = err.iter().map(|d| d.code()).collect();
        assert!(codes.contains(&Code::MissingRequiredAttribute), "{codes:?}");
    }
}
