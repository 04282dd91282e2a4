//! Synthetic content-model and word generators.
//!
//! The paper has no measurement section, but its complexity claims are made
//! against well-identified families of expressions that occur in real
//! schemas (Bex et al., Grijzenhout's DTD corpus — none of which are
//! redistributable here):
//!
//! * **mixed content** `(a₁ + … + a_m)*` — the family on which the Glushkov
//!   construction exhibits its `Θ(σ|e|)` blow-up (Section 1);
//! * **CHARE** — chains of optionally-starred disjunctions of symbols,
//!   reported to cover ≈90% of real-world content models;
//! * **1-ORE / k-ORE** — single- and bounded-occurrence expressions
//!   (Theorem 4.3's parameter `k`);
//! * **bounded alternation depth** — `c_e ≤ 4` in every DTD of the corpus
//!   (Theorem 4.10's parameter);
//! * **star-free** content models (Theorem 4.12).
//!
//! This crate synthesizes all of these families with controllable
//! parameters, plus member/non-member word samples, so the benchmark
//! harness (`redet-bench`) can reproduce the complexity *shapes* the paper
//! claims. Generators build **balanced** union/concatenation spines so that
//! very large instances do not overflow recursion in the analysis passes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;

use crate::rng::StdRng;
use redet_automata::GlushkovAutomaton;
use redet_syntax::{Alphabet, Regex, Symbol};
use redet_tree::PosId;

/// A DTD fragment with 22 element declarations — the schema-level workload
/// used by the document-validation benchmark (E11) and the allocation
/// regression test. It mixes every content shape the engine supports:
/// star-free sequences, DTD `+`/`*` models, a recursive element
/// (`section` within `section`), an XML-Schema-style counter, `ANY`, and
/// `(#PCDATA)`/`EMPTY` leaves, plus `<!ATTLIST …>` declarations (all
/// `#IMPLIED`, so element-only documents remain valid) for the full-markup
/// benchmark (E16) and the attribute/text equivalence suites.
pub const BOOK_DTD: &str = r#"
    <!ELEMENT book (front, body, back?)>
    <!ELEMENT front (title, subtitle?, author+, date?)>
    <!ELEMENT body (chapter+)>
    <!ELEMENT back ((appendix | index)*, colophon?)>
    <!ELEMENT chapter (title, epigraph?, (section | interlude)+)>
    <!ELEMENT section (title, (para | list | table | figure | code | section)*)>
    <!ELEMENT interlude (para+)>
    <!ELEMENT appendix (title, para*)>
    <!ELEMENT index (entry+)>
    <!ELEMENT entry (term, locator{1,4})>
    <!ELEMENT list (item+)>
    <!ELEMENT table (caption?, row+)>
    <!ELEMENT figure (caption?)>
    <!ELEMENT epigraph (para, attribution?)>
    <!ELEMENT colophon ANY>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT subtitle (#PCDATA)>
    <!ELEMENT author (#PCDATA)>
    <!ELEMENT date (#PCDATA)>
    <!ELEMENT para (#PCDATA | em | code)*>
    <!ELEMENT caption (#PCDATA)>
    <!ELEMENT row (cell+)>
    <!ATTLIST book lang CDATA #IMPLIED edition CDATA #IMPLIED>
    <!ATTLIST chapter id ID #IMPLIED>
    <!ATTLIST section id ID #IMPLIED>
    <!ATTLIST figure src CDATA #IMPLIED width CDATA #IMPLIED>
    <!ATTLIST para role CDATA #IMPLIED>
    <!ATTLIST locator page CDATA #IMPLIED>
"#;

/// A synthetic many-schema corpus: `total` DTD source texts drawn from
/// `distinct` structurally distinct schemas, in a seeded shuffled order —
/// the multi-tenant workload behind the schema-registry benchmarks (E17)
/// and the compile-cache dedup tests.
///
/// Variant `i` declares a root `rec{i}` over a short chain of
/// `f{i}_{j}` text fields — the first required, later ones decorated `?`
/// or `*` at random, so [`schema_corpus_document`]`(i)` (root plus first
/// field) is valid under every variant. Every variant is a small,
/// deterministic, *textually unique* DTD. Duplicates are exact repeats of
/// a variant's text: a content-hashing registry must compile exactly
/// `distinct` of the returned sources, however they are ordered.
pub fn schema_corpus(distinct: usize, total: usize, seed: u64) -> Vec<String> {
    assert!(distinct > 0, "need at least one distinct schema");
    assert!(
        total >= distinct,
        "total must cover every distinct schema at least once"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let variants: Vec<String> = (0..distinct)
        .map(|i| {
            let fields = rng.gen_range(2..6usize);
            let mut dtd = format!("<!ELEMENT rec{i} (f{i}_0");
            for j in 1..fields {
                let suffix = ["?", "*"][rng.gen_range(0..2usize)];
                dtd.push_str(&format!(", f{i}_{j}{suffix}"));
            }
            dtd.push_str(")>");
            for j in 0..fields {
                dtd.push_str(&format!("\n<!ELEMENT f{i}_{j} (#PCDATA)>"));
            }
            dtd
        })
        .collect();
    let mut sources: Vec<String> = (0..total).map(|k| variants[k % distinct].clone()).collect();
    // Seeded Fisher–Yates so repeats interleave unpredictably but
    // reproducibly.
    for k in (1..sources.len()).rev() {
        let j = usize::try_from(rng.next_u64() % (k as u64 + 1)).expect("index fits");
        sources.swap(k, j);
    }
    sources
}

/// A minimal document valid under variant `i` of [`schema_corpus`] — the
/// root plus its one always-required first field.
#[must_use]
pub fn schema_corpus_document(variant: usize) -> String {
    format!("<rec{variant}><f{variant}_0/></rec{variant}>")
}

/// A generated workload: an expression together with its alphabet.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The generated expression (deterministic unless stated otherwise by
    /// the generator).
    pub regex: Regex,
    /// The alphabet used by the expression.
    pub alphabet: Alphabet,
}

/// Balanced union of the given expressions.
fn balanced_union(mut parts: Vec<Regex>) -> Regex {
    assert!(!parts.is_empty());
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut iter = parts.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(a.or(b)),
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.pop().expect("non-empty")
}

/// Balanced concatenation of the given expressions.
fn balanced_concat(mut parts: Vec<Regex>) -> Regex {
    assert!(!parts.is_empty());
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut iter = parts.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(a.then(b)),
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.pop().expect("non-empty")
}

/// The "mixed content" family `(a₀ + a₁ + … + a_{m-1})*` of Section 1: the
/// expression is deterministic and linear in `m`, but its Glushkov automaton
/// has `Θ(m²)` transitions.
pub fn mixed_content(m: usize) -> Workload {
    let alphabet = Alphabet::with_generic_symbols(m);
    let parts: Vec<Regex> = alphabet.symbols().map(Regex::symbol).collect();
    Workload {
        regex: balanced_union(parts).star(),
        alphabet,
    }
}

/// A CHARE (chain regular expression): a sequence of factors
/// `(a₁ + … + a_n)`, each optionally decorated with `?` or `*`. All symbols
/// are distinct, so the result is a deterministic 1-ORE.
pub fn chare(num_factors: usize, symbols_per_factor: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alphabet = Alphabet::new();
    let mut factors = Vec::with_capacity(num_factors);
    let mut counter = 0usize;
    for _ in 0..num_factors {
        let width = 1 + rng.gen_range(0..symbols_per_factor.max(1));
        let symbols: Vec<Regex> = (0..width)
            .map(|_| {
                let sym = alphabet.intern(&format!("e{counter}"));
                counter += 1;
                Regex::symbol(sym)
            })
            .collect();
        let factor = balanced_union(symbols);
        factors.push(match rng.gen_range(0..4usize) {
            0 => factor.opt(),
            1 => factor.star(),
            _ => factor,
        });
    }
    Workload {
        regex: balanced_concat(factors),
        alphabet,
    }
}

/// A star-free CHARE: like [`chare`] but factors are only ever optional,
/// never starred — the workload of experiment E7 (Theorem 4.12).
pub fn star_free_chare(num_factors: usize, symbols_per_factor: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alphabet = Alphabet::new();
    let mut factors = Vec::with_capacity(num_factors);
    let mut counter = 0usize;
    for _ in 0..num_factors {
        let width = 1 + rng.gen_range(0..symbols_per_factor.max(1));
        let symbols: Vec<Regex> = (0..width)
            .map(|_| {
                let sym = alphabet.intern(&format!("e{counter}"));
                counter += 1;
                Regex::symbol(sym)
            })
            .collect();
        let factor = balanced_union(symbols);
        factors.push(if rng.gen_bool(0.4) {
            factor.opt()
        } else {
            factor
        });
    }
    Workload {
        regex: balanced_concat(factors),
        alphabet,
    }
}

/// A deterministic `k`-occurrence expression: `k` blocks of CHARE-like
/// factors over a *shared* alphabet, separated by unique separator symbols
/// so that equally-labeled positions in different blocks can never follow a
/// common position.
pub fn k_occurrence(
    k: usize,
    factors_per_block: usize,
    symbols_per_factor: usize,
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alphabet = Alphabet::new();
    let shared: Vec<Symbol> = (0..factors_per_block * symbols_per_factor)
        .map(|i| alphabet.intern(&format!("s{i}")))
        .collect();
    let mut blocks = Vec::with_capacity(2 * k);
    for block in 0..k {
        let sep = alphabet.intern(&format!("sep{block}"));
        blocks.push(Regex::symbol(sep));
        let mut factors = Vec::with_capacity(factors_per_block);
        for f in 0..factors_per_block {
            let width = 1 + rng.gen_range(0..symbols_per_factor.max(1));
            let symbols: Vec<Regex> = (0..width)
                .map(|i| Regex::symbol(shared[(f * symbols_per_factor + i) % shared.len()]))
                .collect();
            let factor = balanced_union(symbols);
            factors.push(if rng.gen_bool(0.5) {
                factor.opt()
            } else {
                factor
            });
        }
        blocks.push(balanced_concat(factors));
    }
    // Star the whole chain so that arbitrarily long words exist; the unique
    // block separators keep the expression deterministic.
    Workload {
        regex: balanced_concat(blocks).star(),
        alphabet,
    }
}

/// A deterministic expression with alternation depth (the paper's `c_e`)
/// approximately `depth`: nested blocks `prefix (x + y suffix (…))`.
pub fn deep_alternation(depth: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alphabet = Alphabet::new();
    let mut counter = 0usize;
    let mut fresh = |alphabet: &mut Alphabet| {
        let sym = alphabet.intern(&format!("d{counter}"));
        counter += 1;
        Regex::symbol(sym)
    };
    let mut expr = fresh(&mut alphabet);
    for _ in 0..depth {
        // Alternate · and + blocks: e ← a (b + c e) or e ← (a + b) c e.
        let a = fresh(&mut alphabet);
        let b = fresh(&mut alphabet);
        let c = fresh(&mut alphabet);
        expr = if rng.gen_bool(0.5) {
            a.then(b.or(c.then(expr)))
        } else {
            a.or(b).then(c.then(expr))
        };
    }
    Workload {
        regex: expr.star(),
        alphabet,
    }
}

/// A random (not necessarily deterministic) expression over a small
/// alphabet — the raw material for the cross-validation property tests.
pub fn random_expression(num_positions: usize, alphabet_size: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = Alphabet::with_generic_symbols(alphabet_size.max(1));
    let symbols: Vec<Symbol> = alphabet.symbols().collect();
    let regex = random_expr_rec(num_positions.max(1), &symbols, &mut rng, 0);
    Workload { regex, alphabet }
}

fn random_expr_rec(positions: usize, symbols: &[Symbol], rng: &mut StdRng, depth: usize) -> Regex {
    if positions <= 1 || depth > 40 {
        return Regex::symbol(symbols[rng.gen_range(0..symbols.len())]);
    }
    match rng.gen_range(0..10usize) {
        0..=3 => {
            let left = rng.gen_range(1..positions);
            random_expr_rec(left, symbols, rng, depth + 1).then(random_expr_rec(
                positions - left,
                symbols,
                rng,
                depth + 1,
            ))
        }
        4..=6 => {
            let left = rng.gen_range(1..positions);
            random_expr_rec(left, symbols, rng, depth + 1).or(random_expr_rec(
                positions - left,
                symbols,
                rng,
                depth + 1,
            ))
        }
        7 => random_expr_rec(positions, symbols, rng, depth + 1).opt(),
        8 => {
            let inner = random_expr_rec(positions, symbols, rng, depth + 1);
            // Half stars, half native one-or-more closures.
            if rng.gen_bool(0.5) {
                inner.star()
            } else {
                inner.plus()
            }
        }
        _ => {
            let min = rng.gen_range(0..3u32);
            let max = min + rng.gen_range(0..3u32);
            random_expr_rec(positions, symbols, rng, depth + 1).repeat(min, Some(max.max(1)))
        }
    }
}

/// Samples a word of approximately `target_len` symbols from `L(e)` by a
/// random walk over the Glushkov automaton (restarting the walk's greediness
/// near the target length so the word can actually end).
pub fn sample_member_word(regex: &Regex, target_len: usize, seed: u64) -> Vec<Symbol> {
    let mut rng = StdRng::seed_from_u64(seed);
    let automaton = GlushkovAutomaton::build(regex);
    let mut word = Vec::with_capacity(target_len);
    let mut current = automaton.begin();
    // Walk until we are allowed to stop at (or after) the target length.
    for step in 0..(target_len * 2 + 64) {
        let followers: Vec<PosId> = automaton
            .follow(current)
            .iter()
            .copied()
            .filter(|&q| automaton.symbol(q).is_some())
            .collect();
        let must_stop = followers.is_empty();
        let may_stop = automaton.can_end(current);
        if must_stop || (may_stop && (step >= target_len || rng.gen_bool(0.02))) {
            if may_stop {
                break;
            }
            if must_stop {
                break;
            }
        }
        let next = followers[rng.gen_range(0..followers.len())];
        word.push(
            automaton
                .symbol(next)
                .expect("filtered to labeled positions"),
        );
        current = next;
    }
    word
}

/// Samples a uniformly random word over the workload's alphabet (mostly a
/// non-member; used to exercise rejection paths).
pub fn sample_random_word(alphabet: &Alphabet, len: usize, seed: u64) -> Vec<Symbol> {
    let mut rng = StdRng::seed_from_u64(seed);
    let symbols: Vec<Symbol> = alphabet.symbols().collect();
    (0..len)
        .map(|_| symbols[rng.gen_range(0..symbols.len())])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_automata::{glushkov_determinism, NfaSimulationMatcher};

    #[test]
    fn mixed_content_shape() {
        let w = mixed_content(64);
        assert_eq!(w.regex.num_positions(), 64);
        assert!(w.regex.nullable());
        assert!(glushkov_determinism(&GlushkovAutomaton::build(&w.regex)).is_ok());
    }

    #[test]
    fn chare_is_deterministic_1_ore() {
        for seed in 0..5 {
            let w = chare(20, 4, seed);
            let stats = redet_syntax::ExprStats::of(&w.regex);
            assert!(stats.is_single_occurrence());
            assert!(
                glushkov_determinism(&GlushkovAutomaton::build(&w.regex)).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn star_free_chare_is_star_free_and_deterministic() {
        for seed in 0..5 {
            let w = star_free_chare(20, 4, seed);
            assert!(w.regex.is_star_free());
            assert!(glushkov_determinism(&GlushkovAutomaton::build(&w.regex)).is_ok());
        }
    }

    #[test]
    fn k_occurrence_has_expected_k_and_is_deterministic() {
        for (k, seed) in [(2, 1), (4, 2), (8, 3)] {
            let w = k_occurrence(k, 5, 3, seed);
            let stats = redet_syntax::ExprStats::of(&w.regex);
            assert_eq!(stats.max_occurrences, k, "k (seed {seed})");
            assert!(
                glushkov_determinism(&GlushkovAutomaton::build(&w.regex)).is_ok(),
                "k={k} seed {seed}"
            );
        }
    }

    #[test]
    fn deep_alternation_depth_grows() {
        for depth in [1, 3, 6] {
            let w = deep_alternation(depth, 7);
            let stats = redet_syntax::ExprStats::of(&w.regex);
            assert!(
                stats.plus_depth >= depth,
                "depth {depth} got {}",
                stats.plus_depth
            );
            assert!(glushkov_determinism(&GlushkovAutomaton::build(&w.regex)).is_ok());
        }
    }

    #[test]
    fn member_words_are_members() {
        for (name, w) in [
            ("mixed", mixed_content(16)),
            ("chare", chare(10, 3, 11)),
            ("deep", deep_alternation(4, 5)),
            ("kocc", k_occurrence(3, 4, 2, 9)),
        ] {
            let matcher = NfaSimulationMatcher::build(&w.regex);
            for seed in 0..5 {
                let word = sample_member_word(&w.regex, 50, seed);
                assert!(
                    matcher.matches(&word),
                    "{name}: sampled word is not a member"
                );
            }
        }
    }

    #[test]
    fn random_expressions_have_requested_size() {
        for seed in 0..10 {
            let w = random_expression(12, 3, seed);
            assert!(w.regex.num_positions() >= 1);
            assert!(w.regex.num_positions() <= 12);
        }
    }

    #[test]
    fn random_words_cover_the_alphabet() {
        let w = mixed_content(8);
        let word = sample_random_word(&w.alphabet, 100, 3);
        assert_eq!(word.len(), 100);
    }
}
