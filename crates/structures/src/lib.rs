//! Data-structure substrates used by the linear-time algorithms.
//!
//! Besides LCA (which lives in `redet-tree`), the matchers rely on:
//!
//! * **lowest colored ancestor** queries (Section 4.1) — given a node
//!   coloring of the parse tree, find the lowest ancestor of a position that
//!   carries a given color: [`ColoredAncestors`]. The paper's
//!   `O(log log |e|)` structure is replaced by per-color binary search plus
//!   binary lifting (`O(log k_a)`); see `DESIGN.md` for why that
//!   substitution leaves the reproduced claims intact;
//! * **dynamic LCA-closed skeleta** (Section 4.4) — [`BatchSkeleta`] keeps the
//!   per-symbol pending structures that let the star-free batch matcher
//!   touch every parked word `O(1)` times, reaching the `O(|e| + Σ|wᵢ|)`
//!   bound of Theorem 4.12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_skeleton;
pub mod colored;

pub use batch_skeleton::BatchSkeleta;
pub use colored::ColoredAncestors;
