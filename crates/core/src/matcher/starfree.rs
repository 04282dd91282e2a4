//! The star-free (multi-word) matcher (Section 4.4, Theorem 4.12).
//!
//! In a star-free expression a position can only be followed by positions
//! further to the right in the parse tree (document order), so a single word
//! can be matched by one forward sweep over the positions. The interesting
//! case is matching **many** words `w₁, …, w_N` simultaneously: the paper
//! performs *one* traversal of the expression's positions, maintaining for
//! every symbol `a` the "pending" words that currently sit at some position
//! and expect to read `a` next; when the traversal reaches an `a`-labeled
//! position `p`, exactly the pending entries whose position is followed by
//! `p` advance.
//!
//! The pending entries are kept in the **dynamic LCA-closed skeleta** of
//! [`redet_structures::BatchSkeleta`]: per symbol, the entries are grouped
//! by their LCA with the traversal point, and a group is only ever touched
//! when its node proves or refutes `checkIfFollow` for *all* of its entries
//! at once — each entry is touched `O(1)` times, giving the paper's
//! `O(|e| + Σ|wᵢ|)` bound. The previous flat-list formulation (re-testing
//! every pending entry at each later position with the same label,
//! `O(|e| + k·Σ|wᵢ|)`) is retained as [`StarFreeMatcher::match_words_flat`]
//! — it is the cross-validation reference for the skeleton and the baseline
//! the E7 experiment compares against.
//!
//! Batch matching through [`StarFreeMatcher::match_words_with`] reuses a
//! caller-owned [`BatchScratch`], so compile-once/match-many loops allocate
//! nothing in steady state.

use crate::matcher::TransitionSim;
use redet_structures::BatchSkeleta;
use redet_syntax::Symbol;
use redet_tree::{PosId, TreeAnalysis};
use std::sync::Arc;

/// Error raised when the expression contains a star (or an unbounded
/// numeric repetition), for which the forward-sweep invariants do not hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotStarFree;

impl std::fmt::Display for NotStarFree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the expression contains an iterating operator; the star-free matcher does not apply"
        )
    }
}

impl std::error::Error for NotStarFree {}

/// Reusable scratch state for [`StarFreeMatcher::match_words_with`]: the
/// dynamic skeleta plus per-word cursors. Create it once, reuse it across
/// batches — steady-state batch matching then performs no allocation.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    skeleta: BatchSkeleta,
    /// Per word: index of the next symbol to read.
    cursor: Vec<u32>,
    /// Words advanced at the current position (drained every position).
    advanced: Vec<u32>,
}

impl BatchScratch {
    /// Creates an empty scratch (no allocations until first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Matcher for star-free deterministic expressions (Theorem 4.12), with a
/// batch entry point that matches many words in a single traversal of the
/// expression.
#[derive(Clone, Debug)]
pub struct StarFreeMatcher {
    analysis: Arc<TreeAnalysis>,
}

impl StarFreeMatcher {
    /// Builds the matcher from the shared pipeline artifact, reusing its
    /// parse-tree analysis.
    pub fn from_compiled(
        compiled: &crate::pipeline::CompiledAnalysis,
    ) -> Result<Self, NotStarFree> {
        Self::new(compiled.analysis().clone())
    }

    /// Builds the matcher; fails if the expression contains `∗` or `{i,∞}`.
    pub fn new(analysis: Arc<TreeAnalysis>) -> Result<Self, NotStarFree> {
        let tree = analysis.tree();
        let star_free = tree.node_ids().all(|n| !tree.kind(n).is_iterating());
        if !star_free {
            return Err(NotStarFree);
        }
        Ok(StarFreeMatcher { analysis })
    }

    /// Matches every word of `words` in a single left-to-right traversal of
    /// the expression's positions, allocating fresh scratch state.
    ///
    /// For compile-once/match-many loops prefer
    /// [`StarFreeMatcher::match_words_with`], which reuses the scratch.
    pub fn match_words<W: AsRef<[Symbol]>>(&self, words: &[W]) -> Vec<bool> {
        let mut scratch = BatchScratch::new();
        let mut results = Vec::new();
        self.match_words_with(words, &mut scratch, &mut results);
        results
    }

    /// Matches every word of `words` in one traversal (Theorem 4.12),
    /// reusing `scratch` and writing one result per word into `results`.
    /// After warm-up no allocations are performed.
    pub fn match_words_with<W: AsRef<[Symbol]>>(
        &self,
        words: &[W],
        scratch: &mut BatchScratch,
        results: &mut Vec<bool>,
    ) {
        let tree = self.analysis.tree();
        let num_symbols = tree.num_symbols();
        results.clear();
        results.resize(words.len(), false);
        scratch.cursor.clear();
        scratch.cursor.resize(words.len(), 0);
        scratch.skeleta.begin(tree);

        // Initialization: every word starts at the phantom # position p0.
        let expr_nullable = self.analysis.expr_nullable();
        for (i, word) in words.iter().enumerate() {
            match word.as_ref().first() {
                None => results[i] = expr_nullable,
                Some(&sym) if sym.index() < num_symbols => {
                    scratch.skeleta.park(sym.index() as u32, 0, i as u32);
                }
                // Unknown symbols can never be read: the word stays
                // unmatched (results[i] remains false).
                Some(_) => {}
            }
        }

        // One traversal of the expression's alphabet positions in document
        // order; the skeleta hand back exactly the words whose parked
        // position is followed by p.
        for (p, sym) in tree.symbol_positions() {
            let pid = p.index() as u32;
            scratch.advanced.clear();
            scratch
                .skeleta
                .process(tree, pid, sym.index() as u32, &mut scratch.advanced);
            for &w in &scratch.advanced {
                let word = words[w as usize].as_ref();
                scratch.cursor[w as usize] += 1;
                let d = scratch.cursor[w as usize] as usize;
                if d == word.len() {
                    results[w as usize] = tree.can_end(pid);
                } else {
                    let next_sym = word[d];
                    if next_sym.index() < num_symbols {
                        scratch.skeleta.park(next_sym.index() as u32, pid, w);
                    }
                }
            }
        }
    }

    /// The flat-list reference implementation (`O(|e| + k·Σ|wᵢ|)`): each
    /// symbol's pending entries live in a plain vector and are re-tested at
    /// every later position with that label. Kept as the cross-validation
    /// oracle for the skeleton and as the E7 comparison baseline.
    pub fn match_words_flat<W: AsRef<[Symbol]>>(&self, words: &[W]) -> Vec<bool> {
        let tree = self.analysis.tree();
        let num_symbols = tree.num_symbols();
        let mut results = vec![false; words.len()];
        // Per word: the index of the next symbol to read.
        let mut cursor = vec![0usize; words.len()];
        // Per symbol: pending entries (position reached, words parked there).
        let mut pending: Vec<Vec<(PosId, Vec<usize>)>> = vec![Vec::new(); num_symbols];
        // Parks deferred to the end of each bucket scan (the next symbol may
        // be the bucket being scanned).
        let mut parks: Vec<(usize, usize)> = Vec::new();

        // Initialization: every word starts at the phantom # position.
        let begin = tree.begin_pos();
        for (i, word) in words.iter().enumerate() {
            let word = word.as_ref();
            match word.first() {
                None => results[i] = self.analysis.expr_nullable(),
                Some(&sym) => {
                    if sym.index() < num_symbols {
                        park(&mut pending[sym.index()], begin, i);
                    }
                }
            }
        }

        // One traversal of the expression's alphabet positions in document
        // order. Star-freedom guarantees follow-edges only go rightwards.
        // Still-pending entries are compacted in place (no reallocation, no
        // per-step re-push churn).
        for (p, sym) in tree.symbol_positions() {
            let bucket = &mut pending[sym.index()];
            let mut kept = 0usize;
            for idx in 0..bucket.len() {
                let q = bucket[idx].0;
                if !self.analysis.check_if_follow(q, p) {
                    // Not followed by p; the entry stays pending for a later
                    // position with the same label.
                    bucket.swap(kept, idx);
                    kept += 1;
                    continue;
                }
                // The parked words consume `sym` and move to position p.
                for word_index in bucket[idx].1.drain(..) {
                    let word = words[word_index].as_ref();
                    cursor[word_index] += 1;
                    let d = cursor[word_index];
                    if d == word.len() {
                        results[word_index] = self.analysis.can_end_at(p);
                    } else {
                        let next_sym = word[d];
                        if next_sym.index() < num_symbols {
                            parks.push((next_sym.index(), word_index));
                        }
                    }
                }
            }
            bucket.truncate(kept);
            for (s, word_index) in parks.drain(..) {
                park(&mut pending[s], p, word_index);
            }
        }
        results
    }
}

/// Adds `word_index` to the entry of `position` in a bucket, creating the
/// entry if needed (entries are naturally sorted by document order because
/// positions are processed left to right).
fn park(bucket: &mut Vec<(PosId, Vec<usize>)>, position: PosId, word_index: usize) {
    if let Some(last) = bucket.last_mut() {
        if last.0 == position {
            last.1.push(word_index);
            return;
        }
    }
    bucket.push((position, vec![word_index]));
}

impl TransitionSim for StarFreeMatcher {
    fn analysis(&self) -> &TreeAnalysis {
        &self.analysis
    }

    /// Single-word transition simulation: scan forward from `p` (document
    /// order) — in a star-free expression every follower lies to the right,
    /// so over a whole word the scans add up to one pass over the positions.
    fn find_next(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
        let tree = self.analysis.tree();
        let m = tree.num_positions();
        ((p.index() + 1)..m)
            .map(PosId::from_index)
            .find(|&q| tree.symbol_at(q) == Some(symbol) && self.analysis.check_if_follow(p, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::testutil::{assert_agrees_with_baseline, expression_and_words};
    use crate::matcher::PositionMatcher;
    use redet_automata::{GlushkovDfaMatcher, PosStepper};
    use redet_syntax::parse_with_alphabet;

    const STAR_FREE_EXPRESSIONS: &[&str] = &[
        "a",
        "a b",
        "a + b",
        "a? b? c?",
        "(title, author, (year | date)?)",
        "(a + b c) (d + e)",
        "((a + b) + (c + d)) e",
        "a (b (c (d (e f)?)?)?)?",
        "(a b + b (b?) a) c",
        "(a + b) (a + b)",
        "(a?) (b?) (c?) (d?)",
        "(x + y?) (z + w) q?",
    ];

    #[test]
    fn single_word_agrees_with_baseline() {
        for input in STAR_FREE_EXPRESSIONS {
            assert_agrees_with_baseline(input, 5, |e| {
                PositionMatcher::new(
                    StarFreeMatcher::new(Arc::new(TreeAnalysis::build(e))).unwrap(),
                )
            });
        }
    }

    #[test]
    fn multi_word_agrees_with_baseline_and_flat_reference() {
        for input in STAR_FREE_EXPRESSIONS {
            let (e, _, words) = expression_and_words(input, 5);
            let baseline = GlushkovDfaMatcher::build(&e).unwrap();
            let matcher = StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).unwrap();
            let expected: Vec<bool> = words.iter().map(|w| baseline.matches(w)).collect();
            assert_eq!(matcher.match_words(&words), expected, "{input} (skeleton)");
            assert_eq!(matcher.match_words_flat(&words), expected, "{input} (flat)");
        }
    }

    #[test]
    fn scratch_is_reusable_across_batches() {
        let (e, _, words) = expression_and_words("(a + b c) (d + e)", 4);
        let matcher = StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).unwrap();
        let mut scratch = BatchScratch::new();
        let mut results = Vec::new();
        let expected = matcher.match_words(&words);
        for _ in 0..3 {
            matcher.match_words_with(&words, &mut scratch, &mut results);
            assert_eq!(results, expected);
        }
        // A different (smaller) batch through the same scratch.
        let half = &words[..words.len() / 2];
        matcher.match_words_with(half, &mut scratch, &mut results);
        assert_eq!(results, expected[..words.len() / 2]);
    }

    #[test]
    fn example_4_11() {
        // e = #(((a + ba)(c?))(d?b))$ with words w1 = bcdb, w2 = acdba,
        // w3 = acb, w4 = bada: only w3 matches.
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("((a + b a)(c?))(d? b)", &mut sigma).unwrap();
        let matcher = StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).unwrap();
        let word = |text: &str| -> Vec<Symbol> {
            text.chars()
                .map(|c| sigma.lookup(&c.to_string()).unwrap())
                .collect()
        };
        let words = vec![word("bcdb"), word("acdba"), word("acb"), word("bada")];
        assert_eq!(matcher.match_words(&words), vec![false, false, true, false]);
        assert_eq!(
            matcher.match_words_flat(&words),
            vec![false, false, true, false]
        );
    }

    #[test]
    fn rejects_starred_expressions() {
        let mut sigma = redet_syntax::Alphabet::new();
        for input in ["(a b)*", "a{2,} b", "(a + b)* c"] {
            let e = parse_with_alphabet(input, &mut sigma).unwrap();
            assert!(
                StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).is_err(),
                "{input}"
            );
        }
        // Bounded repetitions still iterate (their follow edges go
        // leftwards), so the forward-sweep matcher rejects them as well;
        // the facade unrolls them first.
        let e = parse_with_alphabet("a{2,4} b", &mut sigma).unwrap();
        assert!(StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).is_err());
    }

    #[test]
    fn empty_word_and_empty_batch() {
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("a? b?", &mut sigma).unwrap();
        let matcher = StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).unwrap();
        let empty: Vec<Vec<Symbol>> = vec![];
        assert!(matcher.match_words(&empty).is_empty());
        let words = vec![Vec::new(), vec![sigma.lookup("a").unwrap()]];
        assert_eq!(matcher.match_words(&words), vec![true, true]);
    }

    #[test]
    fn unknown_symbols_fail_gracefully() {
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("a b", &mut sigma).unwrap();
        let zzz = sigma.intern("zzz");
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        let matcher = StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).unwrap();
        assert_eq!(
            matcher.match_words(&[vec![zzz], vec![a, zzz], vec![a, b]]),
            vec![false, false, true]
        );
    }

    #[test]
    fn large_batch_of_words() {
        // Many words against a CHARE-like star-free content model.
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("(a + b) (c + d)? (e + f) g?", &mut sigma).unwrap();
        let matcher = StarFreeMatcher::new(Arc::new(TreeAnalysis::build(&e))).unwrap();
        let baseline = GlushkovDfaMatcher::build(&e).unwrap();
        let alphabet: Vec<Symbol> = sigma.symbols().collect();
        // Deterministic pseudo-random words.
        let mut state = 0xfeedfaceu64;
        let mut words = Vec::new();
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let len = (state >> 60) as usize % 6;
            let mut w = Vec::with_capacity(len);
            for j in 0..len {
                let pick = ((state >> (j * 8)) as usize) % alphabet.len();
                w.push(alphabet[pick]);
            }
            words.push(w);
        }
        let expected: Vec<bool> = words.iter().map(|w| baseline.matches(w)).collect();
        assert_eq!(matcher.match_words(&words), expected);
        assert_eq!(matcher.match_words_flat(&words), expected);
        assert!(expected.iter().any(|&x| x), "some random word should match");
    }
}
