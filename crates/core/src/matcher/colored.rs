//! The lowest-colored-ancestor matcher (Section 4.1, Theorem 4.2).
//!
//! The linear-time determinism test colors the parent of every `pSupFirst`
//! node with the labels of the positions "starting" there, and stores at
//! most three candidate positions per colored node and color: `Witness`,
//! `FirstPos` and `Next`. By Lemma 3.3, the `a`-labeled position following
//! `p` (if any) is one of the three candidates stored at the **lowest
//! ancestor of `p` with color `a`** — so transition simulation is one
//! lowest-colored-ancestor query plus at most three `checkIfFollow` tests.

use crate::determinism::DeterminismCertificate;
use crate::matcher::TransitionSim;
use redet_structures::ColoredAncestors;
use redet_syntax::Symbol;
use redet_tree::{PosId, TreeAnalysis};
use std::sync::Arc;

/// Transition simulation via lowest colored ancestor queries (Theorem 4.2).
#[derive(Clone, Debug)]
pub struct ColoredAncestorMatcher {
    analysis: Arc<TreeAnalysis>,
    certificate: Arc<DeterminismCertificate>,
    colored: ColoredAncestors,
}

/// Error raised when the pipeline artifact carries no determinism
/// certificate — counted expressions are certified by the counting test of
/// Section 3.3, which produces no colors/skeleta, so the colored-ancestor
/// matcher cannot be built for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissingCertificate;

impl std::fmt::Display for MissingCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the compiled expression carries no determinism certificate (counted expressions do not)"
        )
    }
}

impl std::error::Error for MissingCertificate {}

impl ColoredAncestorMatcher {
    /// Builds the matcher from the shared pipeline artifact, reusing its
    /// parse-tree analysis and the certificate computed by the determinism
    /// test — the only additional preprocessing is the colored-ancestor
    /// structure.
    pub fn from_compiled(
        compiled: &crate::pipeline::CompiledAnalysis,
    ) -> Result<Self, MissingCertificate> {
        let certificate = compiled.certificate().ok_or(MissingCertificate)?.clone();
        Ok(Self::new(compiled.analysis().clone(), certificate))
    }

    /// Builds the matcher from the determinism certificate (which already
    /// contains the colors and skeleta — the only additional preprocessing
    /// is the colored-ancestor structure).
    pub fn new(analysis: Arc<TreeAnalysis>, certificate: Arc<DeterminismCertificate>) -> Self {
        let colored = ColoredAncestors::build(analysis.tree(), &certificate.colors().node_colors());
        ColoredAncestorMatcher {
            analysis,
            certificate,
            colored,
        }
    }
}

impl TransitionSim for ColoredAncestorMatcher {
    fn analysis(&self) -> &TreeAnalysis {
        &self.analysis
    }

    fn find_next(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
        let tree = self.analysis.tree();
        let leaf = tree.pos_node(p);
        // Lemma 3.3: the a-labeled follower is stored at the lowest ancestor
        // of p with color a.
        let node = self.colored.lowest_colored_ancestor(tree, leaf, symbol)?;
        let skeleton = self.certificate.skeleta().get(symbol)?;
        let entry = skeleton.find(node)?;
        [entry.witness, entry.first_pos, entry.next]
            .into_iter()
            .flatten()
            .find(|&q| self.analysis.check_if_follow(p, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinism::check_determinism;
    use crate::matcher::testutil::{assert_agrees_with_baseline, DETERMINISTIC_EXPRESSIONS};
    use crate::matcher::PositionMatcher;
    use redet_syntax::parse_with_alphabet;

    fn build(e: &redet_syntax::Regex) -> ColoredAncestorMatcher {
        let analysis = Arc::new(TreeAnalysis::build(e));
        let certificate = Arc::new(check_determinism(&analysis).expect("deterministic"));
        ColoredAncestorMatcher::new(analysis, certificate)
    }

    #[test]
    fn agrees_with_glushkov_dfa_binary_search() {
        for input in DETERMINISTIC_EXPRESSIONS {
            assert_agrees_with_baseline(input, 5, |e| PositionMatcher::new(build(e)));
        }
    }

    #[test]
    fn example_4_1_transition_simulation() {
        // "Consider the expression in Figure 1, position p3, and the symbol
        // c. [...] it is p5 that follows p3. [...] Now, at position p5 we
        // read the next symbol a. [...] This time it is FirstPos(n3, a) = p2
        // that follows p5."
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("(c?((a b*)(a? c)))*(b a)", &mut sigma).unwrap();
        let m = build(&e);
        let c = sigma.lookup("c").unwrap();
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        assert_eq!(
            m.find_next(PosId::from_index(3), c),
            Some(PosId::from_index(5))
        );
        assert_eq!(
            m.find_next(PosId::from_index(5), a),
            Some(PosId::from_index(2))
        );
        // And the final (b a) factor is reachable from p5 as well.
        assert_eq!(
            m.find_next(PosId::from_index(5), b),
            Some(PosId::from_index(6))
        );
        // d is not in the alphabet of e0 at all.
        let d = sigma.intern("d");
        assert_eq!(m.find_next(PosId::from_index(5), d), None);
    }
}
