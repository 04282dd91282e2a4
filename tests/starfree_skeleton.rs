//! Property tests for the dynamic LCA-closed skeleta (Theorem 4.12).
//!
//! The batch matcher is cross-validated three ways on every case:
//!
//! * against the **flat-list reference** (`match_words_flat`), the
//!   `O(|e| + k·Σ|wᵢ|)` formulation it replaced;
//! * against the **Glushkov DFA** matched word by word;
//! * against the matcher's own single-word transition simulation.
//!
//! Cases are seeded and deterministic: random star-free expressions over
//! small alphabets, the star-free CHARE workload family at several shapes,
//! and hand-picked adversarial expressions (deep unions — which exercise the
//! group-skip path of the skeleton — and long optional chains).

use redet::core::matcher::starfree::{BatchScratch, StarFreeMatcher};
use redet::{GlushkovDfaMatcher, PosStepper, PositionMatcher, Symbol, TreeAnalysis};
use redet_syntax::normalize;
use redet_workloads as workloads;
use redet_workloads::rng::StdRng;
use std::sync::Arc;

/// Builds the batch matcher and DFA baseline for a workload, if the
/// expression is star-free and deterministic.
fn build(regex: &redet::Regex) -> Option<(StarFreeMatcher, GlushkovDfaMatcher)> {
    let dfa = GlushkovDfaMatcher::build(regex).ok()?;
    let matcher = StarFreeMatcher::new(Arc::new(TreeAnalysis::build(regex))).ok()?;
    Some((matcher, dfa))
}

/// Mixed member / random / truncated words for a workload.
fn sample_words(w: &workloads::Workload, count: usize, seed: u64) -> Vec<Vec<Symbol>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words = Vec::with_capacity(count);
    for i in 0..count {
        let s = rng.next_u64();
        let mut word = match i % 3 {
            0 => workloads::sample_member_word(&w.regex, 3 + (s as usize % 40), s),
            1 => workloads::sample_random_word(&w.alphabet, s as usize % 12, s),
            _ => {
                let mut m = workloads::sample_member_word(&w.regex, 3 + (s as usize % 20), s);
                m.truncate(m.len() / 2); // prefixes exercise the parked tail
                m
            }
        };
        if rng.gen_bool(0.1) {
            word.clear(); // empty words take the nullability shortcut
        }
        words.push(word);
    }
    words
}

fn check_case(name: &str, w: &workloads::Workload, words: &[Vec<Symbol>]) {
    let Some((matcher, dfa)) = build(&w.regex) else {
        return;
    };
    let expected: Vec<bool> = words.iter().map(|word| dfa.matches(word)).collect();
    assert_eq!(
        matcher.match_words(words),
        expected,
        "{name}: skeleton vs DFA on {:?}",
        w.regex
    );
    assert_eq!(
        matcher.match_words_flat(words),
        expected,
        "{name}: flat reference vs DFA on {:?}",
        w.regex
    );
    let single = PositionMatcher::new(matcher);
    let individual: Vec<bool> = words.iter().map(|word| single.matches(word)).collect();
    assert_eq!(individual, expected, "{name}: single-word sweep vs DFA");
}

#[test]
fn random_star_free_expressions() {
    let mut tested = 0u32;
    for case in 0..4096u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ case);
        let positions = rng.gen_range(1usize..16);
        let sigma = rng.gen_range(1usize..5);
        let w = workloads::random_expression(positions, sigma, rng.next_u64());
        let Ok(regex) = normalize(w.regex.clone()) else {
            continue;
        };
        let workload = workloads::Workload {
            regex,
            alphabet: w.alphabet,
        };
        let words = sample_words(&workload, 24, case.wrapping_mul(0x9E3779B9));
        check_case("random", &workload, &words);
        if build(&workload.regex).is_some() {
            tested += 1;
        }
    }
    assert!(
        tested > 200,
        "too few star-free deterministic cases generated ({tested})"
    );
}

#[test]
fn star_free_chare_family() {
    for (factors, width, seed) in [
        (5, 2, 1u64),
        (20, 3, 2),
        (60, 4, 3),
        (120, 4, 31), // the E7 benchmark shape
        (200, 5, 5),
    ] {
        let w = workloads::star_free_chare(factors, width, seed);
        let words = sample_words(&w, 150, seed.wrapping_mul(7919));
        check_case("star_free_chare", &w, &words);
    }
}

#[test]
fn adversarial_shapes() {
    // Deep unions force parked entries under union branches (group skips),
    // shared suffixes force long pending lifetimes, and optional chains
    // maximize the candidate segments.
    let inputs = [
        "((a1 + (a2 + (a3 + (a4 + a5)))) + ((b1 + b2) + (b3 + b4))) z",
        "(a1? a2? a3? a4? a5? a6? a7? a8?) (b1 + b2) c?",
        "((x1 y1?) + (x2 y2?) + (x3 y3?)) (w1 + w2) ((u1 + u2) v?)",
        "(a + b) (a + b) (a + b) (a + b) (a + b)",
        "((((a b?) c?) d?) e?) f",
        "(k1 + k2 + k3)? (k4 + k5)? (k6 + k7)? (k8 + k9)? end",
    ];
    for input in inputs {
        let mut sigma = redet::Alphabet::new();
        let regex = redet_syntax::parse_with_alphabet(input, &mut sigma).unwrap();
        let w = workloads::Workload {
            regex,
            alphabet: sigma,
        };
        let words = sample_words(&w, 120, 0xADE5A);
        check_case(input, &w, &words);
    }
}

#[test]
fn scratch_reuse_across_heterogeneous_batches() {
    // One scratch driven across different expressions and batch sizes must
    // behave identically to fresh scratch state every time.
    let mut scratch = BatchScratch::new();
    let mut results = Vec::new();
    for seed in 0..8u64 {
        let w = workloads::star_free_chare(10 + seed as usize * 7, 3, seed);
        let Some((matcher, dfa)) = build(&w.regex) else {
            continue;
        };
        let words = sample_words(&w, 30 + (seed as usize * 13) % 50, seed);
        let expected: Vec<bool> = words.iter().map(|word| dfa.matches(word)).collect();
        matcher.match_words_with(&words, &mut scratch, &mut results);
        assert_eq!(results, expected, "seed {seed}");
    }
}
