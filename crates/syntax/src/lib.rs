//! Regular expression syntax for deterministic content models.
//!
//! This crate provides the front-end of the library reproducing
//! *"Deterministic Regular Expressions in Linear Time"* (Groz, Maneth,
//! Staworko — PODS 2012):
//!
//! * [`Symbol`] / [`Alphabet`] — interned alphabet symbols (XML element
//!   names are multi-character, so symbols are interned strings, not chars);
//! * [`Regex`] — the abstract syntax tree of regular expressions with
//!   concatenation, union (`+`), optionality (`?`), Kleene star (`*`) and
//!   numeric occurrence indicators (`{i,j}`, XML-Schema style);
//! * [`parse`] — a parser for a conventional textual syntax;
//! * [`normalize`](mod@normalize) — the normalizer enforcing the paper's structural
//!   restrictions (R2) and (R3), which guarantee that the size of the parse
//!   tree is linear in the number of positions.
//!
//! The crate is purely syntactic: semantic structures (parse-tree pointers,
//! `First`/`Last` sets, the Glushkov automaton, determinism tests, matchers)
//! live in the `redet-tree`, `redet-automata` and `redet-core` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod ast;
pub mod error;
pub mod normalize;
pub mod parser;
pub mod printer;
pub mod properties;

pub use alphabet::{Alphabet, Symbol};
pub use ast::Regex;
pub use error::{ParseError, Span, SyntaxError};
pub use normalize::normalize;
pub use parser::{
    parse, parse_spanned, parse_spanned_with_alphabet, parse_with_alphabet, UnrolledSize,
    MAX_NESTING, MAX_TREE_DEPTH, MAX_UNROLLED_POSITIONS, MAX_UNROLLED_SET_ENTRIES,
};
pub use properties::ExprStats;
