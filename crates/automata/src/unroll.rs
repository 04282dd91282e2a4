//! Expansion of numeric occurrence indicators into plain regular operators.
//!
//! `e{i,j}` denotes `e·e·…·e` repeated between `i` and `j` times. For
//! *language* questions (matching, language sampling) counted expressions
//! can therefore be handled by unrolling:
//!
//! * `e{i,j}` with finite `j` becomes `e … e (e (e (…)?)?)?` — `i` mandatory
//!   copies followed by `j − i` nested optional copies;
//! * `e{i,∞}` becomes `e … e e*` — `i − 1` mandatory copies followed by a
//!   starred copy (`e{1,∞} = e e*`, the usual `+` closure).
//!
//! Note that unrolling is **only** language-preserving; it does *not*
//! preserve determinism in either direction (Section 3.3 discusses
//! `((a^{2..3}+b)^2)^2 b`, which is non-deterministic even though a suitable
//! unrolled expression is deterministic). The counting-aware determinism
//! test lives in `redet-core::counting`; this module exists for the matching
//! baselines and for workload generation.

use redet_syntax::Regex;

/// Rewrites every numeric occurrence indicator in `regex` into concatenation,
/// option and star. The result denotes the same language.
///
/// The size of the result is `O(|regex| · J)` where `J` is the largest finite
/// bound — exponential blow-up in the *binary encoding* of the bounds, which
/// is precisely why the counting determinism test of Section 3.3 works on
/// the un-expanded tree.
pub fn unroll_counting(regex: &Regex) -> Regex {
    match regex {
        Regex::Symbol(s) => Regex::Symbol(*s),
        Regex::Concat(l, r) => unroll_counting(l).then(unroll_counting(r)),
        Regex::Union(l, r) => unroll_counting(l).or(unroll_counting(r)),
        Regex::Optional(inner) => unroll_counting(inner).opt(),
        Regex::Star(inner) => unroll_counting(inner).star(),
        Regex::Repeat(inner, min, max) => {
            let inner = unroll_counting(inner);
            expand_repeat(&inner, *min, *max)
        }
    }
}

fn expand_repeat(inner: &Regex, min: u32, max: Option<u32>) -> Regex {
    match max {
        None => {
            // e{0,∞} = e*, e{i,∞} = e^(i-1) · e* · … actually e^i-1 · (e e*)
            // simplified to e^(i-1) concatenated with e e*? We emit
            // e … e (i-1 copies) followed by e e* only when i ≥ 1.
            if min == 0 {
                inner.clone().star()
            } else {
                let mut expr = inner.clone();
                for _ in 1..min {
                    expr = expr.then(inner.clone());
                }
                expr.then(inner.clone().star())
            }
        }
        Some(max) => {
            debug_assert!(min <= max && max >= 1, "invalid repeat bounds");
            // Optional tail: (e (e (…)?)?)? with max - min copies.
            let optional_copies = max - min;
            let mut tail: Option<Regex> = None;
            for _ in 0..optional_copies {
                tail = Some(match tail {
                    None => inner.clone().opt(),
                    Some(t) => inner.clone().then(t).opt(),
                });
            }
            if min == 0 {
                tail.expect("max ≥ 1 when min = 0")
            } else {
                let mut expr = inner.clone();
                for _ in 1..min {
                    expr = expr.then(inner.clone());
                }
                match tail {
                    None => expr,
                    Some(t) => expr.then(t),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::NfaSimulationMatcher;
    use redet_syntax::{parse_with_alphabet, Alphabet, Symbol};

    fn all_words(alphabet: &[Symbol], max_len: usize) -> Vec<Vec<Symbol>> {
        let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in &frontier {
                for &s in alphabet {
                    let mut w2: Vec<Symbol> = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            frontier = next;
        }
        words
    }

    fn check_same_language(counted: &str, expanded: &str) {
        let mut sigma = Alphabet::new();
        let e1 = parse_with_alphabet(counted, &mut sigma).unwrap();
        let e2 = parse_with_alphabet(expanded, &mut sigma).unwrap();
        let m1 = NfaSimulationMatcher::build(&unroll_counting(&e1));
        let m2 = NfaSimulationMatcher::build(&e2);
        let alphabet: Vec<Symbol> = sigma.symbols().collect();
        for w in all_words(&alphabet, 7) {
            assert_eq!(
                m1.matches(&w),
                m2.matches(&w),
                "{counted} vs {expanded} on {w:?}"
            );
        }
    }

    #[test]
    fn repeat_expansion_preserves_language() {
        check_same_language("a{2,4}", "a a a? a?");
        check_same_language("a{3}", "a a a");
        check_same_language("a{1,}", "a a*");
        check_same_language("a{2,}", "a a a*");
        check_same_language("(a b){2,2}", "a b a b");
        check_same_language("(a b){1,2} c", "a b (a b)? c");
        check_same_language("(a + b){1,3}", "(a + b) ((a + b) (a + b)?)?");
        check_same_language("a{0,2} b", "(a a?)? b");
    }

    #[test]
    fn unrolled_expression_is_counting_free() {
        let mut sigma = Alphabet::new();
        let e = parse_with_alphabet("((a{2,3} + b){2}){2} b", &mut sigma).unwrap();
        let unrolled = unroll_counting(&e);
        assert!(!unrolled.has_counting());
        assert!(e.has_counting());
    }

    #[test]
    fn size_grows_with_bounds() {
        let mut sigma = Alphabet::new();
        let e = parse_with_alphabet("a{10,20}", &mut sigma).unwrap();
        let unrolled = unroll_counting(&e);
        assert!(unrolled.num_positions() == 20);
    }
}
