//! `redet` — deterministic regular expressions in linear time.
//!
//! This crate is the facade of a workspace reproducing *"Deterministic
//! Regular Expressions in Linear Time"* (Groz, Maneth, Staworko — PODS
//! 2012). Deterministic (one-unambiguous) regular expressions are the
//! content models of DTDs and XML Schema; the paper shows how to test
//! determinism in time `O(|e|)` (instead of the classical `O(σ|e|)`
//! Glushkov construction) and how to match words against deterministic
//! expressions with only linear preprocessing.
//!
//! # Quick start: schemas and streaming validation
//!
//! The production surface is schema-first: compile a whole DTD into one
//! shared-alphabet [`Schema`] and validate documents event-by-event.
//!
//! ```
//! use redet::SchemaBuilder;
//!
//! let schema = SchemaBuilder::new()
//!     .parse_dtd(
//!         "<!ELEMENT bibliography (book)*>
//!          <!ELEMENT book (title, author+, year?)>
//!          <!ELEMENT title (#PCDATA)>
//!          <!ELEMENT author (#PCDATA)>",
//!     )
//!     .build()
//!     .unwrap();
//!
//! let mut validator = schema.validator();
//! for event in ["bibliography", "book", "title", "/title", "author", "/author"] {
//!     match event.strip_prefix('/') {
//!         Some(_) => validator.end_element(),
//!         None => validator.start_element(event),
//!     }
//! }
//! validator.end_element(); // </book>
//! validator.end_element(); // </bibliography>
//! assert!(validator.finish().is_ok());
//! ```
//!
//! # Single expressions
//!
//! One content model at a time, with whole-word matching (and, for
//! streaming consumers, the flat `pos_begin`/`pos_advance`/`pos_can_end`
//! stepping interface):
//!
//! ```
//! use redet::DeterministicRegex;
//!
//! let model = DeterministicRegex::compile("(title, author+, (year | date)?)").unwrap();
//! assert!(model.matches(&["title", "author", "author", "year"]));
//! assert!(!model.matches(&["title", "year", "date"]));
//!
//! // Non-deterministic content models are rejected with a structured
//! // diagnostic: code, source spans, conflict witness.
//! let diag = DeterministicRegex::compile("(a* b a + b b)*").unwrap_err();
//! assert_eq!(diag.code(), redet::Code::NotDeterministic);
//! println!("rejected: {diag}");
//! ```
//!
//! # Workspace layout
//!
//! | crate | contents |
//! |-------|----------|
//! | [`syntax`] | alphabet, AST, parser (with source spans), normalizer (restrictions R1–R3) |
//! | [`tree`] | struct-of-arrays parse tree with its node properties (`SupFirst`/`SupLast`), RMQ/LCA, `checkIfFollow` (Thm 2.4) |
//! | [`structures`] | lowest colored ancestor, the star-free batch matcher's dynamic skeleta |
//! | [`automata`] | Glushkov construction, baseline determinism test, DFA/NFA matching, the `PosStepper` stepping interface |
//! | [`core`] | linear-time determinism test (Thm 3.5), counting extension (§3.3), the four matchers (Thms 4.2/4.3/4.10/4.12), diagnostics |
//! | [`schema`] | `SchemaBuilder`/`Schema` (DTD fragments, one alphabet shared by every model), the event-driven `DocumentValidator`, the resumable `Document` stream (raw-byte ingestion, `ServiceLimits` resource governance) and the `ValidationService` handle table over many of them, and the content-hashed schema `Registry` with its `SharedSchema` hot-swap handle |
//!
//! The most convenient entry points are [`SchemaBuilder`] for whole schemas
//! and [`DeterministicRegex`] for single expressions; the individual
//! algorithms are available through the re-exported crates for benchmarking
//! and fine-grained control.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use redet_automata as automata;
pub use redet_core as core;
pub use redet_schema as schema;
pub use redet_structures as structures;
pub use redet_syntax as syntax;
pub use redet_tree as tree;

pub use redet_automata::{GlushkovAutomaton, GlushkovDfaMatcher, NfaSimulationMatcher, PosStepper};
pub use redet_core::{
    check_counting_determinism, check_determinism, BatchScratch, Code, ColoredAncestorMatcher,
    CompiledAnalysis, ConflictWitness, DeterminismCertificate, DeterministicRegex, Diagnostic,
    DocLocation, KOccurrenceMatcher, MatchStrategy, NonDeterminism, PathDecompositionMatcher,
    PositionMatcher, StarFreeMatcher, TransitionSim,
};
pub use redet_schema::{
    ContentKind, DocEvent, DocId, Document, DocumentValidator, FeedStatus, Schema, SchemaBuilder,
    ServiceLimits, ValidationService,
};
pub use redet_syntax::{parse, Alphabet, ExprStats, Regex, Span, Symbol};
pub use redet_tree::TreeAnalysis;
