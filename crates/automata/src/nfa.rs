//! Set-of-positions simulation of the Glushkov automaton.
//!
//! For arbitrary (possibly nondeterministic) expressions the classical way
//! to match is to maintain the set of positions reachable after the prefix
//! read so far. Each step costs up to `O(|e|·k)` where `k` bounds the number
//! of simultaneously active positions (Section 4.2 notes the `O(k²|w|)`
//! bound for nondeterministic k-occurrence expressions). This is the
//! testing oracle for every matcher in the workspace, because it implements
//! the language definition directly without any determinism assumption.
//!
//! The simulation is stepped like the deterministic matchers, except that
//! its per-word state is a position *set*: the caller owns it as an
//! [`NfaScratch`] and recycles it across words, so steady-state matching
//! performs no allocation.

use crate::glushkov::GlushkovAutomaton;
use redet_syntax::{Regex, Symbol};
use redet_tree::PosId;

/// Matcher simulating the (possibly nondeterministic) Glushkov automaton
/// with sets of positions.
#[derive(Clone, Debug)]
pub struct NfaSimulationMatcher {
    automaton: GlushkovAutomaton,
}

/// The owned per-word state of an [`NfaSimulationMatcher`]: the current and
/// next position sets. Create it once, recycle it across words — the
/// steady-state simulation loop then performs no allocation.
#[derive(Clone, Debug, Default)]
pub struct NfaScratch {
    current: Vec<PosId>,
    next: Vec<PosId>,
}

impl NfaScratch {
    /// Creates an empty scratch (no allocations until first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl NfaSimulationMatcher {
    /// Builds the matcher for `regex`.
    pub fn build(regex: &Regex) -> Self {
        NfaSimulationMatcher {
            automaton: GlushkovAutomaton::build(regex),
        }
    }

    /// Builds the matcher from an existing automaton.
    pub fn from_automaton(automaton: GlushkovAutomaton) -> Self {
        NfaSimulationMatcher { automaton }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &GlushkovAutomaton {
        &self.automaton
    }

    /// Resets `state` to the automaton's start configuration (the phantom
    /// `#` position). Together with [`Self::step`] and
    /// [`Self::state_accepts`] this is the *owned-state* stepping interface:
    /// the caller keeps the position sets (e.g. in a validator frame) and
    /// the matcher is looked up per step — no borrow ties the state to the
    /// matcher, which is what an `Arc`-owning document validator needs.
    pub fn reset(&self, state: &mut NfaScratch) {
        state.current.clear();
        state.next.clear();
        state.current.push(self.automaton.begin());
    }

    /// Advances the owned position set by one symbol. Returns `false` when
    /// no position survives — the word read so far (plus `symbol`) is not a
    /// prefix of any member word, and the state is left unchanged so the
    /// caller decides how to report it.
    #[inline]
    pub fn step(&self, state: &mut NfaScratch, symbol: Symbol) -> bool {
        let automaton = &self.automaton;
        state.next.clear();
        for &p in &state.current {
            for &q in automaton.follow(p) {
                if automaton.symbol(q) == Some(symbol) {
                    state.next.push(q);
                }
            }
        }
        state.next.sort_unstable();
        state.next.dedup();
        if state.next.is_empty() {
            return false;
        }
        std::mem::swap(&mut state.current, &mut state.next);
        true
    }

    /// Whether the owned position set contains an accepting position
    /// (`$ ∈ Follow(p)` for some live `p`).
    #[inline]
    pub fn state_accepts(&self, state: &NfaScratch) -> bool {
        state.current.iter().any(|&p| self.automaton.can_end(p))
    }

    /// Whether `word` belongs to the language, reusing caller-owned state:
    /// [`Self::reset`], one [`Self::step`] per symbol, then
    /// [`Self::state_accepts`].
    pub fn matches_with(&self, word: &[Symbol], state: &mut NfaScratch) -> bool {
        self.reset(state);
        word.iter().all(|&symbol| self.step(state, symbol)) && self.state_accepts(state)
    }

    /// Whether `word` belongs to the language (a fresh [`NfaScratch`]; see
    /// [`Self::matches_with`] for the allocation-free form).
    pub fn matches(&self, word: &[Symbol]) -> bool {
        self.matches_with(word, &mut NfaScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::GlushkovDfaMatcher;
    use crate::matcher::PosStepper;
    use redet_syntax::{parse_with_alphabet, Alphabet};

    fn word(sigma: &mut Alphabet, text: &str) -> Vec<Symbol> {
        text.split_whitespace().map(|t| sigma.intern(t)).collect()
    }

    #[test]
    fn nondeterministic_expression_language() {
        // e2 = (a*ba + bb)* from Example 2.1 is non-deterministic but its
        // language is perfectly well defined.
        let mut sigma = Alphabet::new();
        let e = parse_with_alphabet("(a* b a + b b)*", &mut sigma).unwrap();
        let m = NfaSimulationMatcher::build(&e);
        for accept in [
            "",
            "b a",
            "a b a",
            "a a b a",
            "b b",
            "b b b a",
            "b a b b a a b a",
        ] {
            assert!(m.matches(&word(&mut sigma, accept)), "{accept:?}");
        }
        for reject in ["a", "b", "a b", "b a b", "a a a"] {
            assert!(!m.matches(&word(&mut sigma, reject)), "{reject:?}");
        }
    }

    #[test]
    fn agrees_with_dfa_on_deterministic_expressions() {
        let mut sigma = Alphabet::new();
        let e = parse_with_alphabet("(a b + b b? a)*", &mut sigma).unwrap();
        let dfa = GlushkovDfaMatcher::build(&e).unwrap();
        let nfa = NfaSimulationMatcher::build(&e);
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        // Exhaustively compare on all words up to length 7.
        let alphabet = [a, b];
        let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
        for _ in 0..7 {
            let mut next = Vec::new();
            for w in &words {
                for &s in &alphabet {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            for w in &next {
                assert_eq!(dfa.matches(w), nfa.matches(w), "{w:?}");
            }
            words = next;
        }
    }

    #[test]
    fn ambiguous_one_or_more() {
        // a?a?a? … is nondeterministic-free but (a+a) is ambiguous; the set
        // simulation still answers membership correctly.
        let mut sigma = Alphabet::new();
        let e = parse_with_alphabet("(a + a a)*", &mut sigma).unwrap();
        let m = NfaSimulationMatcher::build(&e);
        let a = sigma.lookup("a").unwrap();
        for len in 0..10 {
            let w = vec![a; len];
            assert!(m.matches(&w), "a^{len} should match (a + aa)*");
        }
    }

    #[test]
    fn owned_state_is_recycled_across_words() {
        let mut sigma = Alphabet::new();
        let e = parse_with_alphabet("(a b)*", &mut sigma).unwrap();
        let m = NfaSimulationMatcher::build(&e);
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        let mut state = NfaScratch::new();
        for _ in 0..3 {
            m.reset(&mut state);
            assert!(m.step(&mut state, a));
            assert!(m.step(&mut state, b));
            assert!(m.state_accepts(&state));
            // A dead step reports it and leaves the set untouched.
            assert!(!m.step(&mut state, b));
            assert!(m.state_accepts(&state));
            assert!(m.matches_with(&[a, b, a, b], &mut state));
            assert!(!m.matches_with(&[a, b, b], &mut state));
        }
    }
}
