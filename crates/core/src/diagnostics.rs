//! Structured diagnostics: the single error surface of expression
//! compilation, schema building and document validation.
//!
//! Every failure in the workspace is reported as a [`Diagnostic`] carrying
//!
//! * a stable error [`Code`] (`E0xx` — compilation, `E1xx` — schema
//!   building, `E2xx` — document validation, `E3xx` — resource governance
//!   in connection-oriented serving),
//! * a human-readable message,
//! * an optional byte [`Span`] into the source content model (or DTD),
//! * for determinism failures, the [`ConflictWitness`] the certifier
//!   already computes — the two equally-labeled positions that can follow
//!   a common position, with their source spans,
//! * for document-validation failures, the [`DocLocation`] — the element
//!   path and the event index at which validation failed.
//!
//! ```
//! use redet_core::{Code, DeterministicRegex};
//!
//! let diag = DeterministicRegex::compile("a b* b").unwrap_err();
//! assert_eq!(diag.code(), Code::NotDeterministic);
//! let witness = diag.witness().expect("determinism failures carry a witness");
//! // The two conflicting `b` occurrences, pointed back into the source.
//! assert_eq!(witness.first_span.unwrap().start, 2);
//! assert_eq!(witness.second_span.unwrap().start, 5);
//! println!("{diag}");
//! ```

use crate::determinism::NonDeterminismKind;
use redet_syntax::{ParseError, Span, Symbol, SyntaxError};
use redet_tree::PosId;
use std::fmt;

/// Stable machine-readable diagnostic codes.
///
/// Codes are never reused: `E308` (a document whose validation panicked
/// inside a batch worker) is retired with the batch worker pool and stays
/// unassigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// The textual syntax of a content model could not be parsed.
    Parse,
    /// The model is structurally invalid (e.g. bounds `{3,1}` or `{0,0}`).
    Syntax,
    /// The model is not deterministic (not one-unambiguous).
    NotDeterministic,
    /// The requested matching strategy does not apply to this expression.
    StrategyNotApplicable,
    /// A schema declares the same element twice.
    DuplicateElement,
    /// A DTD fragment contains a malformed `<!ELEMENT …>` declaration.
    MalformedDtd,
    /// A request named a schema id the serving router does not host
    /// (`SchemaRouter` in `redet-server`).
    UnknownSchema,
    /// Two schemas with the same id were registered with a serving router.
    DuplicateSchema,
    /// A document uses an element name the schema does not know at all.
    UnknownElement,
    /// A child element cannot appear at this point of its parent's content
    /// model.
    UnexpectedChild,
    /// An element was closed although its content model requires more
    /// children.
    IncompleteElement,
    /// An element declared `EMPTY` (or left undeclared) has children.
    ChildInEmptyElement,
    /// Mismatched start/end element events.
    UnbalancedDocument,
    /// A raw byte stream contains markup the streaming tokenizer cannot
    /// parse (stray `<`, unterminated tag or comment, non-UTF-8 name).
    MalformedMarkup,
    /// An entity reference is neither one of the five predefined entities
    /// (`&amp; &lt; &gt; &quot; &apos;`) nor a well-formed character
    /// reference (`&#65;`, `&#x1F600;`).
    UnknownEntity,
    /// A start tag carries an attribute its element does not declare in any
    /// `<!ATTLIST …>`.
    UndeclaredAttribute,
    /// A start tag carries the same attribute twice.
    DuplicateAttribute,
    /// A start tag omits an attribute its element declares `#REQUIRED`.
    MissingRequiredAttribute,
    /// Character data appears inside an element whose content model does
    /// not allow text (neither mixed `(#PCDATA|…)` nor `ANY`), or outside
    /// the document element entirely.
    StrayText,
    /// A document opened elements deeper than the configured depth limit
    /// (`ServiceLimits::max_depth` in `redet-schema`).
    DepthLimitExceeded,
    /// A document was fed more raw bytes than the configured byte budget
    /// (`ServiceLimits::max_bytes`).
    ByteLimitExceeded,
    /// A document produced more events than the configured event budget
    /// (`ServiceLimits::max_events`).
    EventLimitExceeded,
    /// A tag name in a raw byte stream exceeded the configured name-length
    /// cap (`ServiceLimits::max_name_len`).
    NameLimitExceeded,
    /// The service refused to admit a new document: the configured
    /// in-flight handle cap (`ServiceLimits::max_in_flight`) is reached.
    ServiceOverloaded,
    /// An in-flight document sat idle past the configured idle budget
    /// (`ServiceLimits::idle_budget`) and was ended by `Document::time_out`.
    IdleTimeout,
    /// An operation used a document handle that was already finished or
    /// closed (a stale `DocId`).
    StaleHandle,
    /// A network peer violated the line-oriented wire protocol (bad or
    /// oversized header, input ending mid-header, a disabled command).
    /// Unlike the rest of the `E3xx` family this is protocol misuse, not a
    /// resource limit, so it is not `is_resource_exhausted`.
    ProtocolError,
    /// An attribute value in a raw byte stream exceeded the tokenizer's
    /// value-length cap.
    ValueLimitExceeded,
}

impl Code {
    /// The stable `Exxx` identifier of this code.
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::Parse => "E001",
            Code::Syntax => "E002",
            Code::NotDeterministic => "E003",
            Code::StrategyNotApplicable => "E004",
            Code::DuplicateElement => "E101",
            Code::MalformedDtd => "E102",
            Code::UnknownSchema => "E103",
            Code::DuplicateSchema => "E104",
            Code::UnknownElement => "E201",
            Code::UnexpectedChild => "E202",
            Code::IncompleteElement => "E203",
            Code::ChildInEmptyElement => "E204",
            Code::UnbalancedDocument => "E205",
            Code::MalformedMarkup => "E206",
            Code::UnknownEntity => "E207",
            Code::UndeclaredAttribute => "E208",
            Code::DuplicateAttribute => "E209",
            Code::MissingRequiredAttribute => "E210",
            Code::StrayText => "E211",
            Code::DepthLimitExceeded => "E301",
            Code::ByteLimitExceeded => "E302",
            Code::EventLimitExceeded => "E303",
            Code::NameLimitExceeded => "E304",
            Code::ServiceOverloaded => "E305",
            Code::IdleTimeout => "E306",
            Code::StaleHandle => "E307",
            Code::ProtocolError => "E309",
            Code::ValueLimitExceeded => "E310",
        }
    }

    /// Whether this code belongs to the `E3xx` resource-governance family:
    /// the document (or the operation on its handle) was refused by a
    /// configured serving limit rather than by the schema.
    pub const fn is_resource_exhausted(self) -> bool {
        matches!(
            self,
            Code::DepthLimitExceeded
                | Code::ByteLimitExceeded
                | Code::EventLimitExceeded
                | Code::NameLimitExceeded
                | Code::ServiceOverloaded
                | Code::IdleTimeout
                | Code::StaleHandle
                | Code::ValueLimitExceeded
        )
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The determinism-conflict evidence attached to [`Code::NotDeterministic`]
/// diagnostics: two distinct, equally-labeled positions that can follow a
/// common position (Theorem 3.5), resolved back to the source text when the
/// model was compiled from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictWitness {
    /// Which stage of the determinism test found the conflict.
    pub kind: NonDeterminismKind,
    /// The shared label of the conflicting positions.
    pub symbol: Symbol,
    /// The shared label, as written in the source.
    pub symbol_name: String,
    /// The first conflicting position (smaller position id).
    pub first: PosId,
    /// The second conflicting position.
    pub second: PosId,
    /// Source span of the first conflicting occurrence, when known.
    pub first_span: Option<Span>,
    /// Source span of the second conflicting occurrence, when known.
    pub second_span: Option<Span>,
}

/// Where in a document a validation diagnostic fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocLocation {
    /// Slash-separated path of open elements, e.g. `bibliography/book`.
    pub path: String,
    /// 0-based index of the offending event in the document's event stream
    /// (each `start_element`/`end_element` call is one event).
    pub event: usize,
}

/// A structured error: code, message, and optional source/document context.
///
/// `Diagnostic` is the error type of every fallible public operation —
/// [`crate::DeterministicRegex::compile`], schema building
/// (`redet-schema`), and document validation. The payload lives behind one
/// box, so `Result<T, Diagnostic>` stays pointer-sized on the error side
/// and the success path pays nothing for the rich error detail.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    inner: Box<DiagnosticInner>,
}

#[derive(Clone, Debug)]
struct DiagnosticInner {
    code: Code,
    message: String,
    span: Option<Span>,
    witness: Option<ConflictWitness>,
    location: Option<DocLocation>,
}

impl Diagnostic {
    /// Creates a bare diagnostic from a code and a message.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            inner: Box::new(DiagnosticInner {
                code,
                message: message.into(),
                span: None,
                witness: None,
                location: None,
            }),
        }
    }

    /// Attaches a byte span into the source content model.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.inner.span = Some(span);
        self
    }

    /// Attaches the determinism-conflict witness.
    #[must_use]
    pub fn with_witness(mut self, witness: ConflictWitness) -> Self {
        self.inner.witness = Some(witness);
        self
    }

    /// Attaches the document location (element path + event index).
    #[must_use]
    pub fn with_location(mut self, location: DocLocation) -> Self {
        self.inner.location = Some(location);
        self
    }

    /// Shifts every span right by `delta` bytes — used to rebase spans of a
    /// content model embedded in a larger source (e.g. a DTD declaration).
    #[must_use]
    pub fn offset_spans(mut self, delta: usize) -> Self {
        self.inner.span = self.inner.span.map(|s| s.offset(delta));
        if let Some(w) = &mut self.inner.witness {
            w.first_span = w.first_span.map(|s| s.offset(delta));
            w.second_span = w.second_span.map(|s| s.offset(delta));
        }
        self
    }

    /// Prefixes the message with context (e.g. the element whose model
    /// failed to compile).
    #[must_use]
    pub fn with_context(mut self, context: &str) -> Self {
        self.inner.message = format!("{context}: {}", self.inner.message);
        self
    }

    /// The stable error code.
    pub fn code(&self) -> Code {
        self.inner.code
    }

    /// The human-readable message (without the code prefix).
    pub fn message(&self) -> &str {
        &self.inner.message
    }

    /// The primary byte span into the source, when known.
    pub fn span(&self) -> Option<Span> {
        self.inner.span
    }

    /// The determinism-conflict witness, for [`Code::NotDeterministic`].
    pub fn witness(&self) -> Option<&ConflictWitness> {
        self.inner.witness.as_ref()
    }

    /// The document location, for validation diagnostics.
    pub fn location(&self) -> Option<&DocLocation> {
        self.inner.location.as_ref()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}", self.code(), self.message())?;
        if let Some(span) = self.span() {
            write!(f, " (bytes {span})")?;
        }
        if let Some(w) = self.witness() {
            write!(
                f,
                "; conflicting '{}' occurrences at positions #{}",
                w.symbol_name,
                w.first.index(),
            )?;
            if let Some(s) = w.first_span {
                write!(f, " (bytes {s})")?;
            }
            write!(f, " and #{}", w.second.index())?;
            if let Some(s) = w.second_span {
                write!(f, " (bytes {s})")?;
            }
            write!(f, " [{:?}]", w.kind)?;
        }
        if let Some(l) = self.location() {
            write!(f, " at /{} (event {})", l.path, l.event)?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

impl From<ParseError> for Diagnostic {
    fn from(e: ParseError) -> Self {
        // A zero-width span at the error offset: the parser may report an
        // offset at (or just past) the end of the input, and the offset can
        // land on a multi-byte character — a caret position is always safe
        // to slice by, a one-byte range is not.
        Diagnostic::new(Code::Parse, &e.message).with_span(Span::new(e.offset, e.offset))
    }
}

impl From<SyntaxError> for Diagnostic {
    fn from(e: SyntaxError) -> Self {
        Diagnostic::new(Code::Syntax, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_displayed() {
        assert_eq!(Code::NotDeterministic.as_str(), "E003");
        assert_eq!(Code::UnexpectedChild.as_str(), "E202");
        assert_eq!(Code::UnknownEntity.as_str(), "E207");
        assert_eq!(Code::UndeclaredAttribute.as_str(), "E208");
        assert_eq!(Code::DuplicateAttribute.as_str(), "E209");
        assert_eq!(Code::MissingRequiredAttribute.as_str(), "E210");
        assert_eq!(Code::StrayText.as_str(), "E211");
        let d = Diagnostic::new(Code::Parse, "unexpected ')'").with_span(Span::new(4, 5));
        let rendered = d.to_string();
        assert!(rendered.contains("error[E001]"), "{rendered}");
        assert!(rendered.contains("4..5"), "{rendered}");
    }

    #[test]
    fn resource_codes_are_stable_and_classified() {
        assert_eq!(Code::DepthLimitExceeded.as_str(), "E301");
        assert_eq!(Code::ByteLimitExceeded.as_str(), "E302");
        assert_eq!(Code::EventLimitExceeded.as_str(), "E303");
        assert_eq!(Code::NameLimitExceeded.as_str(), "E304");
        assert_eq!(Code::ServiceOverloaded.as_str(), "E305");
        assert_eq!(Code::IdleTimeout.as_str(), "E306");
        assert_eq!(Code::StaleHandle.as_str(), "E307");
        assert_eq!(Code::UnknownSchema.as_str(), "E103");
        assert_eq!(Code::DuplicateSchema.as_str(), "E104");
        assert_eq!(Code::ProtocolError.as_str(), "E309");
        assert_eq!(Code::ValueLimitExceeded.as_str(), "E310");
        assert!(Code::IdleTimeout.is_resource_exhausted());
        assert!(Code::ValueLimitExceeded.is_resource_exhausted());
        assert!(!Code::UnexpectedChild.is_resource_exhausted());
        assert!(!Code::ProtocolError.is_resource_exhausted());
        assert!(!Code::UnknownEntity.is_resource_exhausted());
        assert!(!Code::StrayText.is_resource_exhausted());
    }

    #[test]
    fn span_rebasing_shifts_everything() {
        let d = Diagnostic::new(Code::NotDeterministic, "conflict")
            .with_span(Span::new(2, 3))
            .with_witness(ConflictWitness {
                kind: NonDeterminismKind::DuplicateFirst,
                symbol: Symbol::from_index(0),
                symbol_name: "a".into(),
                first: PosId::from_index(1),
                second: PosId::from_index(2),
                first_span: Some(Span::new(0, 1)),
                second_span: Some(Span::new(2, 3)),
            })
            .offset_spans(10);
        assert_eq!(d.span().unwrap().start, 12);
        let w = d.witness().unwrap();
        assert_eq!(w.first_span.unwrap().start, 10);
        assert_eq!(w.second_span.unwrap().start, 12);
    }

    #[test]
    fn location_is_rendered() {
        let d = Diagnostic::new(Code::UnexpectedChild, "…").with_location(DocLocation {
            path: "book/front".into(),
            event: 7,
        });
        let rendered = d.to_string();
        assert!(rendered.contains("/book/front"), "{rendered}");
        assert!(rendered.contains("event 7"), "{rendered}");
    }
}
