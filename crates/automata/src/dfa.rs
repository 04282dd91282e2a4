//! Matching with the determinized Glushkov automaton (the baseline matcher).
//!
//! For a deterministic expression the Glushkov automaton *is* a DFA (partial:
//! missing transitions mean rejection). After materializing, for every
//! position, a per-symbol transition table, matching takes `O(1)` expected
//! time per input symbol. The cost is the `O(σ|e|)` preprocessing — the
//! trade-off studied by experiment E8 and avoided by the matchers of
//! `redet-core`.

use crate::determinism::{glushkov_determinism, NonDeterminismWitness};
use crate::glushkov::GlushkovAutomaton;
use crate::matcher::PosStepper;
use redet_syntax::{Regex, Symbol};
use redet_tree::{ParseTree, PosId};
use std::collections::HashMap;

/// The baseline matcher: explicit per-state transition tables of the
/// Glushkov automaton of a deterministic expression.
#[derive(Clone, Debug)]
pub struct GlushkovDfaMatcher {
    /// `transitions[p][a]` — the unique `a`-labeled position following `p`.
    transitions: Vec<HashMap<Symbol, PosId>>,
    /// Whether position `p` can end a word (`$ ∈ Follow(p)`).
    accepting: Vec<bool>,
}

impl GlushkovDfaMatcher {
    /// Builds the matcher for `regex`.
    ///
    /// Returns the non-determinism witness if the expression is not
    /// deterministic (the DFA view would be ambiguous).
    pub fn build(regex: &Regex) -> Result<Self, NonDeterminismWitness> {
        Self::from_automaton(&GlushkovAutomaton::build(regex))
    }

    /// Builds the matcher from an already-built parse tree (e.g. the one
    /// owned by a shared `TreeAnalysis`), skipping the redundant parse-tree
    /// construction.
    pub fn from_tree(tree: &ParseTree) -> Result<Self, NonDeterminismWitness> {
        Self::from_automaton(&GlushkovAutomaton::from_tree(tree))
    }

    /// Builds the matcher from an existing Glushkov automaton.
    pub fn from_automaton(automaton: &GlushkovAutomaton) -> Result<Self, NonDeterminismWitness> {
        glushkov_determinism(automaton)?;
        let m = automaton.num_positions();
        let mut transitions = Vec::with_capacity(m);
        let mut accepting = Vec::with_capacity(m);
        for p in 0..m {
            let p = PosId::from_index(p);
            let mut row = HashMap::new();
            for &q in automaton.follow(p) {
                if let Some(sym) = automaton.symbol(q) {
                    row.insert(sym, q);
                }
            }
            transitions.push(row);
            accepting.push(automaton.can_end(p));
        }
        Ok(GlushkovDfaMatcher {
            transitions,
            accepting,
        })
    }

    /// Number of materialized transitions (`Θ(σ|e|)` worst case).
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(HashMap::len).sum()
    }
}

impl PosStepper for GlushkovDfaMatcher {
    #[inline]
    fn begin(&self) -> PosId {
        PosId::from_index(0)
    }

    #[inline]
    fn advance(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
        self.transitions[p.index()].get(&symbol).copied()
    }

    #[inline]
    fn can_end(&self, p: PosId) -> bool {
        self.accepting[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_syntax::parse_with_alphabet;
    use redet_syntax::Alphabet;

    fn matcher(input: &str, sigma: &mut Alphabet) -> GlushkovDfaMatcher {
        let e = parse_with_alphabet(input, sigma).unwrap();
        GlushkovDfaMatcher::build(&e).unwrap()
    }

    fn word(sigma: &mut Alphabet, text: &str) -> Vec<Symbol> {
        text.split_whitespace().map(|t| sigma.intern(t)).collect()
    }

    #[test]
    fn example_2_1_language() {
        let mut sigma = Alphabet::new();
        let m = matcher("(a b + b (b?) a)*", &mut sigma);
        for accept in [
            "",
            "a b",
            "b a",
            "b b a",
            "a b b a",
            "b a a b",
            "a b a b b b a a b",
        ] {
            assert!(m.matches(&word(&mut sigma, accept)), "{accept:?}");
        }
        for reject in ["a", "b", "a a", "b b", "a b b", "b b b a", "a b a"] {
            assert!(!m.matches(&word(&mut sigma, reject)), "{reject:?}");
        }
    }

    #[test]
    fn figure1_language() {
        let mut sigma = Alphabet::new();
        let m = matcher("(c?((a b*)(a? c)))*(b a)", &mut sigma);
        for accept in [
            "b a",
            "a c b a",
            "c a c b a",
            "a b b b a c b a",
            "c a b c a b b a c b a",
        ] {
            assert!(m.matches(&word(&mut sigma, accept)), "{accept:?}");
        }
        for reject in ["", "a", "c b a c", "a c a", "b a b a"] {
            assert!(!m.matches(&word(&mut sigma, reject)), "{reject:?}");
        }
    }

    #[test]
    fn dtd_content_model() {
        let mut sigma = Alphabet::new();
        let m = matcher("(title (author author*)) (year + date)?", &mut sigma);
        assert!(m.matches(&word(&mut sigma, "title author")));
        assert!(m.matches(&word(&mut sigma, "title author author year")));
        assert!(m.matches(&word(&mut sigma, "title author date")));
        assert!(!m.matches(&word(&mut sigma, "title year")));
        assert!(!m.matches(&word(&mut sigma, "author title")));
        assert!(!m.matches(&word(&mut sigma, "title author year date")));
    }

    #[test]
    fn rejects_nondeterministic_expressions() {
        let (e, _) = redet_syntax::parse("(a* b a + b b)*").unwrap();
        assert!(GlushkovDfaMatcher::build(&e).is_err());
    }

    #[test]
    fn unknown_symbols_are_rejected() {
        let mut sigma = Alphabet::new();
        let m = matcher("a b", &mut sigma);
        let unknown = sigma.intern("zzz");
        assert!(!m.matches(&[unknown]));
    }

    #[test]
    fn stepping_interface() {
        let mut sigma = Alphabet::new();
        let m = matcher("a (b c)*", &mut sigma);
        let a = sigma.intern("a");
        let b = sigma.intern("b");
        let c = sigma.intern("c");
        let mut p = m.begin();
        assert!(!m.can_end(p));
        for (sym, accepts) in [(a, true), (b, false), (c, true)] {
            p = m.advance(p, sym).expect("member prefix");
            assert_eq!(m.can_end(p), accepts);
        }
        // A second `c` has no continuation.
        assert_eq!(m.advance(p, c), None);
    }
}
