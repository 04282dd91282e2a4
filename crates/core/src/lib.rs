//! Linear-time determinism testing and efficient matching of deterministic
//! regular expressions.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Deterministic Regular Expressions in Linear Time"* (Groz, Maneth,
//! Staworko — PODS 2012):
//!
//! * [`determinism`] — the `O(|e|)` determinism test (Theorem 3.5), built on
//!   per-symbol *skeleta* of the parse tree ([`skeleton`]) and the color /
//!   witness assignment of Section 3.1;
//! * [`counting`] — the extension to numeric occurrence indicators
//!   (Section 3.3);
//! * [`matcher`] — the matching algorithms of Section 4:
//!   lowest-colored-ancestor matching (Theorem 4.2), `k`-occurrence matching
//!   (Theorem 4.3), path-decomposition matching (Theorem 4.10), and
//!   star-free multi-word matching (Theorem 4.12);
//! * [`pipeline`] — the staged compiler (intern + parse → normalize →
//!   analyze → certify) producing the shared [`CompiledAnalysis`] artifact
//!   every matcher is constructed from (a schema's models share one
//!   `Arc<Alphabet>`);
//! * [`DeterministicRegex`] — a thin facade over the pipeline that picks a
//!   matching strategy and validates words;
//! * [`bytescan`] — dependency-free `memchr`-style SWAR byte search, the
//!   bulk-skip primitive behind the streaming byte tokenizer in
//!   `redet-schema`.
//!
//! The Glushkov-automaton baselines these algorithms are measured against
//! live in `redet-automata`; the shared parse-tree machinery (LCA,
//! `checkIfFollow`, `SupFirst`/`SupLast`) lives in `redet-tree`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytescan;
pub mod counting;
pub mod determinism;
pub mod diagnostics;
pub mod facade;
pub mod matcher;
pub mod pipeline;
pub mod skeleton;

pub use counting::{check_counting_determinism, flexibility_report};
pub use determinism::{
    check_determinism, DeterminismCertificate, NonDeterminism, NonDeterminismKind,
};
pub use diagnostics::{Code, ConflictWitness, Diagnostic, DocLocation};
pub use facade::{DeterministicRegex, MatchStrategy};
pub use matcher::colored::ColoredAncestorMatcher;
pub use matcher::kocc::KOccurrenceMatcher;
pub use matcher::pathdecomp::PathDecompositionMatcher;
pub use matcher::starfree::{BatchScratch, StarFreeMatcher};
pub use matcher::{PositionMatcher, TransitionSim};
pub use pipeline::CompiledAnalysis;
pub use skeleton::{ColorAssignment, Skeleta, Skeleton};
