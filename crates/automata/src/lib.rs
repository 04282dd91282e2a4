//! Glushkov-automaton baselines.
//!
//! The paper improves on the classical approach to both problems it studies:
//!
//! * **Determinism testing** — the textbook method builds the Glushkov
//!   (position) automaton of `e` and checks that it is deterministic
//!   [Brüggemann-Klein 1993]; the automaton has `O(σ|e|)` transitions in the
//!   worst case, so the test is quadratic. This crate implements that
//!   baseline faithfully ([`GlushkovAutomaton`], [`glushkov_determinism`]).
//! * **Matching** — once the Glushkov automaton of a *deterministic*
//!   expression is built, matching a word takes constant time per symbol
//!   ([`GlushkovDfaMatcher`]); the preprocessing, however, is `O(σ|e|)`.
//!   For nondeterministic expressions the set-of-positions simulation
//!   ([`NfaSimulationMatcher`]) is the baseline.
//!
//! These are the comparison points for every experiment in `EXPERIMENTS.md`,
//! and the testing oracles for the linear-time algorithms in `redet-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod determinism;
pub mod dfa;
pub mod glushkov;
pub mod matcher;
pub mod nfa;
pub mod unroll;

pub use determinism::{glushkov_determinism, NonDeterminismWitness};
pub use dfa::GlushkovDfaMatcher;
pub use glushkov::GlushkovAutomaton;
pub use matcher::PosStepper;
pub use nfa::{NfaScratch, NfaSimulationMatcher};
pub use unroll::unroll_counting;
