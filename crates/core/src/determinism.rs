//! The linear-time determinism test (Section 3.2, Theorem 3.5).
//!
//! The test composes three linear-time stages:
//!
//! 1. **(P1)** — positions sharing a `pSupFirst` node must have distinct
//!    labels ([`crate::skeleton::ColorAssignment::build`]);
//! 2. **skeleta** — per-symbol skeleta with `Witness`, `FirstPos` and `Next`
//!    pointers; `BuildNext` (Algorithm 1) checks **(P2)** along the way
//!    ([`crate::skeleton::Skeleta::build`]);
//! 3. **`CheckNode`** (Algorithm 2) — for every colored node, decide whether
//!    two of the three candidate positions (`Witness`, `FirstPos`, `Next`)
//!    can follow a common position, using only nullability of the right
//!    child, the `pStar` pointer and the `pSupLast` pointer.
//!
//! By Lemma 3.4 the expression is deterministic iff none of the stages finds
//! a conflict. On success the test returns a [`DeterminismCertificate`]
//! carrying the colors and skeleta, which is exactly the preprocessing
//! needed by the lowest-colored-ancestor matcher of Section 4.1.

use crate::skeleton::{ColorAssignment, Skeleta};
use redet_syntax::Symbol;
use redet_tree::{PosId, TreeAnalysis};
use std::fmt;

/// Which structural condition proved the expression non-deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonDeterminismKind {
    /// (P1) failed: two equally-labeled positions share their `pSupFirst`
    /// node (both belong to the same `First`-set "block").
    DuplicateFirst,
    /// Two equally-labeled positions belong to the same `First`-set
    /// (detected while computing `FirstPos`).
    AmbiguousFirst,
    /// (P2) failed, or `|Y| > 2` in `BuildNext`: two equally-labeled
    /// positions follow after the same subtree.
    ConflictingNext,
    /// `CheckNode` combination (1): the witness and the `Next` position of a
    /// colored node follow a common position.
    WitnessNextConflict,
    /// `CheckNode` combination (2): the witness and the `FirstPos` position
    /// of a colored node follow a common position (through an iterating
    /// ancestor).
    WitnessFirstConflict,
    /// A non-nullable iterating node (`e+`) can both iterate back to its
    /// `FirstPos` and exit to its `Next` from the same `Last` position. In
    /// the paper's `∗`-only grammar every iterating node is nullable and
    /// this shape is subsumed by the `First`-ambiguity checks; native `e+`
    /// needs it tested explicitly.
    IterateExitConflict,
}

/// Evidence that the expression is not deterministic: two distinct,
/// equally-labeled positions that can follow a common position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonDeterminism {
    /// Which stage of the test found the conflict.
    pub kind: NonDeterminismKind,
    /// The shared label of the conflicting positions.
    pub symbol: Symbol,
    /// The first conflicting position (smaller position id).
    pub first: PosId,
    /// The second conflicting position.
    pub second: PosId,
}

impl fmt::Display for NonDeterminism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expression is not deterministic: positions {:?} and {:?} (same label, symbol #{}) can follow a common position ({:?})",
            self.first,
            self.second,
            self.symbol.index(),
            self.kind
        )
    }
}

impl std::error::Error for NonDeterminism {}

/// The successful outcome of the determinism test: the expression is
/// deterministic, and the preprocessing artefacts (colors and skeleta) are
/// available for the Section 4.1 matcher.
#[derive(Clone, Debug)]
pub struct DeterminismCertificate {
    colors: ColorAssignment,
    skeleta: Skeleta,
}

impl DeterminismCertificate {
    /// The color/witness assignment.
    pub fn colors(&self) -> &ColorAssignment {
        &self.colors
    }

    /// The per-symbol skeleta.
    pub fn skeleta(&self) -> &Skeleta {
        &self.skeleta
    }
}

/// Theorem 3.5: decides determinism of the expression underlying `analysis`
/// in time `O(|e|)`.
pub fn check_determinism(
    analysis: &TreeAnalysis,
) -> Result<DeterminismCertificate, NonDeterminism> {
    // Stage 1: (P1) and the color/witness assignment.
    let colors = ColorAssignment::build(analysis)?;
    // Stage 2: skeleta with FirstPos/Next — checks (P2) and |Y| ≤ 2.
    let skeleta = Skeleta::build(analysis, &colors)?;
    // Stage 3: CheckNode (Algorithm 2) on every colored node.
    check_colored_nodes(analysis, &colors, &skeleta)?;
    // Stage 4 (native `e+` extension): iterate-vs-exit conflicts at
    // non-nullable iterating nodes.
    check_plus_nodes(analysis, &skeleta)?;
    Ok(DeterminismCertificate { colors, skeleta })
}

/// The `e+` extension of the test: for a **non-nullable** iterating node
/// `s`, every `p ∈ Last(s)` is followed by `FirstPos(s, a)` through the
/// iteration of `s`, and `Next(s, a)` witnesses some `p ∈ Last(s)` followed
/// by an equally-labeled position outside `s` — so the simultaneous
/// presence of both is a genuine conflict. For nullable iterators (`∗`)
/// this shape is already caught by the `First`-ambiguity stages (the
/// nullable iterator merges the iterate and exit targets into one
/// `First`-set block), which is why Algorithm 2 does not test it.
fn check_plus_nodes(analysis: &TreeAnalysis, skeleta: &Skeleta) -> Result<(), NonDeterminism> {
    let tree = analysis.tree();
    for skeleton in skeleta.iter() {
        for entry in &skeleton.nodes {
            if !tree.kind(entry.node).is_iterating() || tree.nullable(entry.node) {
                continue;
            }
            if let (Some(first_pos), Some(next)) = (entry.first_pos, entry.next) {
                let (first, second) = ordered(first_pos, next);
                return Err(NonDeterminism {
                    kind: NonDeterminismKind::IterateExitConflict,
                    symbol: skeleton.symbol,
                    first,
                    second,
                });
            }
        }
    }
    Ok(())
}

/// Algorithm 2 applied to every colored node.
fn check_colored_nodes(
    analysis: &TreeAnalysis,
    colors: &ColorAssignment,
    skeleta: &Skeleta,
) -> Result<(), NonDeterminism> {
    let tree = analysis.tree();
    for &(node, symbol, witness) in &colors.assignments {
        let rchild = tree
            .rchild(node)
            .expect("colored nodes are concatenations and have two children");
        if !tree.nullable(rchild) {
            // Neither combination can occur (Theorem 3.5 (i)/(ii)).
            continue;
        }
        let skeleton = skeleta
            .get(symbol)
            .expect("colored symbols occur in the expression");
        let entry = skeleton
            .find(node)
            .expect("colored nodes belong to their skeleton");

        // Combination (1): Witness and Next follow a common position.
        if let Some(next) = entry.next {
            let (first, second) = ordered(witness, next);
            return Err(NonDeterminism {
                kind: NonDeterminismKind::WitnessNextConflict,
                symbol,
                first,
                second,
            });
        }

        // Combination (2): Witness and FirstPos follow a common position
        // through the lowest iterating ancestor S of the colored node.
        let (Some(first_pos), Some(star)) = (entry.first_pos, tree.p_star(node)) else {
            continue;
        };
        let star_entry = skeleton
            .find(star)
            .expect("pStar of a class-a node belongs to the skeleton");
        let sup_last_reaches_star = tree
            .p_sup_last(node)
            .is_some_and(|sl| tree.is_ancestor(sl, star));
        if star_entry.first_pos == Some(first_pos) && sup_last_reaches_star {
            let (first, second) = ordered(witness, first_pos);
            return Err(NonDeterminism {
                kind: NonDeterminismKind::WitnessFirstConflict,
                symbol,
                first,
                second,
            });
        }
    }
    Ok(())
}

fn ordered(a: PosId, b: PosId) -> (PosId, PosId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_automata::{glushkov_determinism, GlushkovAutomaton};
    use redet_syntax::parse;

    fn linear(input: &str) -> Result<DeterminismCertificate, NonDeterminism> {
        let (e, _) = parse(input).unwrap();
        check_determinism(&TreeAnalysis::build(&e))
    }

    fn baseline(input: &str) -> bool {
        let (e, _) = parse(input).unwrap();
        glushkov_determinism(&GlushkovAutomaton::build(&e)).is_ok()
    }

    /// Every expression used anywhere in the paper, plus assorted edge
    /// cases; the linear test must agree with the Glushkov baseline on all
    /// of them.
    const EXPRESSIONS: &[&str] = &[
        // Section 1 / Example 2.1 / Figure 1.
        "a b* b",
        "(a b + b (b?) a)*",
        "(a* b a + b b)*",
        "(c?((a b*)(a? c)))*(b a)",
        "(a0 + a1 + a2 + a3 + a4 + a5)*",
        // Section 3.2 worked examples.
        "(c (b? a?)) a",
        "(c (a? b?)) a",
        "(c (b? a)*) a",
        "(c (b? a)) a",
        "(a (b? a))*",
        "(a (b? a?))*",
        // Star / option interactions.
        "a* a",
        "a? a",
        "(a?) (a?)",
        "(a*) (b a)",
        "(a b)* a c",
        "((a + b)* c)* d",
        "(a + b)* a",
        "a (a + b)*",
        "(a b?)* c",
        "(a b?)* a",
        "(a? b)* a",
        "x (a? b)* a",
        // Deterministic DTD-ish content models.
        "(title, author+, (year | date)?)",
        "a? b? c? d? e?",
        "(a + b) (c + d)",
        "(a + b) (a + b)",
        "(a + b c) (d + e)",
        // Nested unions and concatenations.
        "((a + b) + (c + d)) e",
        "(a (b + c (d + e)))*",
        "((a b) + (a c))",
        "((b a) + (c a))",
        "(a + b (a + b))*",
        // Deeper pathological shapes.
        "((a?) ((b?) ((c?) (a?))))",
        "((a?) ((b?) ((c?) (d?))))",
        "(x (a b)* y)*",
        "((a b)* (c d)*)*",
        "((a b)* (a d)*)*",
        "(a (b (c (d (e f)?)?)?)?)*",
        "(a + (b + (c + (d + e))))*",
        "(a? (b? (c? (d? e?))))*",
        // Native one-or-more (`e+` = `e{1,∞}`, written DTD-style with commas
        // so the parser reads the postfix plus): iterates like `∗` but is
        // not nullable; the linear test must handle it without the §3.3
        // counting machinery.
        "(a b)+",
        "(a b)+, c",
        "(a b)+, a",
        "(a b?)+, c",
        "(a b?)+, a",
        "(a b?)+, b",
        "(a? b)+, a",
        "(a + b)+, c",
        "(a + b)+, a",
        "(title, author+, (year | date)?)",
        "((a, b?)+, c)",
        "(x, (a b)+, y)+",
        "((a b)+, (c d)+)+",
        "((a b)+, (a d)+)+",
        "(a, b+, c)+, d",
        "(a, b+)+",
    ];

    #[test]
    fn agrees_with_glushkov_baseline() {
        for input in EXPRESSIONS {
            assert_eq!(
                linear(input).is_ok(),
                baseline(input),
                "linear test disagrees with Glushkov baseline on {input}"
            );
        }
    }

    #[test]
    fn paper_verdicts() {
        assert!(linear("(a b + b (b?) a)*").is_ok(), "Example 2.1 e1");
        assert!(linear("(a* b a + b b)*").is_err(), "Example 2.1 e2");
        assert!(linear("a b* b").is_err(), "Introduction ab*b");
        assert!(linear("(c?((a b*)(a? c)))*(b a)").is_ok(), "Figure 1 e0");
        assert!(linear("(c (b? a?)) a").is_err(), "§3.2 e");
        assert!(linear("(c (a? b?)) a").is_err(), "§3.2 e′");
        assert!(linear("(c (b? a)*) a").is_err(), "§3.2 e″");
        assert!(linear("(c (b? a)) a").is_ok(), "§3.2 e‴");
        assert!(linear("(a (b? a))*").is_ok(), "§3.2 star example");
        assert!(
            linear("(a (b? a?))*").is_err(),
            "§3.2 star example (nullable)"
        );
    }

    #[test]
    fn native_plus_verdicts() {
        // e+ follows exactly like e e*: the exit/iteration conflict shapes
        // carry over from the starred versions.
        assert!(linear("(a b)+").is_ok());
        assert!(linear("(a b)+, c").is_ok(), "exit on a fresh symbol");
        assert!(linear("(a b)+, a").is_err(), "iterate vs exit on a");
        assert!(linear("(a? b)+, a").is_err());
        assert!(linear("(title, author+, (year | date)?)").is_ok());
        // A certificate is produced, so the colored-ancestor matcher can be
        // built for plus expressions.
        let cert = linear("(title, author+, (year | date)?)").unwrap();
        assert!(cert.skeleta().total_nodes() > 0);
    }

    #[test]
    fn witnesses_are_genuine_conflicts() {
        for input in EXPRESSIONS {
            if let Err(witness) = linear(input) {
                let (e, _) = parse(input).unwrap();
                let analysis = TreeAnalysis::build(&e);
                let tree = analysis.tree();
                assert_ne!(witness.first, witness.second, "{input}");
                assert_eq!(
                    tree.symbol_at(witness.first),
                    Some(witness.symbol),
                    "{input}"
                );
                assert_eq!(
                    tree.symbol_at(witness.second),
                    Some(witness.symbol),
                    "{input}"
                );
                // The two positions really do follow a common position.
                let common = (0..tree.num_positions()).map(PosId::from_index).any(|p| {
                    analysis.check_if_follow(p, witness.first)
                        && analysis.check_if_follow(p, witness.second)
                });
                assert!(common, "witness for {input} has no common predecessor");
            }
        }
    }

    #[test]
    fn mixed_content_is_linear_and_deterministic() {
        let m = 200;
        let expr = format!(
            "({})*",
            (0..m)
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
                .join(" + ")
        );
        let certificate = linear(&expr).unwrap();
        // The skeleta stay linear even though the Glushkov automaton of this
        // expression has Θ(m²) transitions.
        let (e, _) = parse(&expr).unwrap();
        let analysis = TreeAnalysis::build(&e);
        assert!(certificate.skeleta().total_nodes() <= 4 * analysis.tree().num_nodes());
    }

    #[test]
    fn certificate_exposes_colors_and_skeleta() {
        let cert = linear("(c?((a b*)(a? c)))*(b a)").unwrap();
        assert_eq!(cert.colors().assignments.len(), 7);
        assert_eq!(cert.skeleta().iter().count(), 3);
    }
}
