//! Parse-tree infrastructure for deterministic regular expressions.
//!
//! This crate contains the machinery of Section 2 of *"Deterministic Regular
//! Expressions in Linear Time"* (Groz, Maneth, Staworko — PODS 2012):
//!
//! * [`ParseTree`] — the parse tree of a regular expression, wrapped into
//!   the `(# e′) $` form required by restriction (R1) and stored once as a
//!   struct of arrays in preorder: the structure, nullability, the
//!   `SupFirst`/`SupLast` predicates, the `pSupFirst`/`pSupLast`/`pStar`
//!   pointers, and the `First`/`Last` membership tests of Lemma 2.3; leaves
//!   are *positions*;
//! * [`rmq`] — range-minimum-query structures (naive, sparse table, and the
//!   linear-preprocessing ±1 block decomposition of Bender & Farach-Colton);
//! * [`Lca`] — constant-time lowest-common-ancestor queries via an Euler
//!   tour and RMQ;
//! * [`TreeAnalysis`] — the preprocessed bundle offering the constant-time
//!   `checkIfFollow(p, q)` primitive of Theorem 2.4.
//!
//! Everything here is `O(|e|)` preprocessing with `O(1)` queries, which is
//! the foundation on which the linear-time determinism test (`redet-core`)
//! and all matching algorithms are built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod lca;
pub mod node;
pub mod parse_tree;
pub mod rmq;

pub use analysis::{FollowKind, TreeAnalysis};
pub use lca::Lca;
pub use node::{NodeId, NodeKind, PosId};
pub use parse_tree::{ParseTree, NONE};
