//! Experiment runner: regenerates every table of `EXPERIMENTS.md`.
//!
//! Each table corresponds to one complexity claim of the paper (see
//! DESIGN.md, "Experiment index"). Timings are wall-clock averages measured
//! with `std::time::Instant`; run with
//! `cargo run --release -p redet-bench --bin experiments`.

use redet_automata::{glushkov_determinism, GlushkovAutomaton, GlushkovDfaMatcher, PosStepper};
use redet_bench::{
    colored_matcher, compile_workload, kocc_matcher, micros, pathdecomp_matcher, row,
    starfree_matcher, time,
};
use redet_core::{check_counting_determinism, check_determinism};
use redet_syntax::{ExprStats, Regex};
use redet_tree::{PosId, TreeAnalysis};
use redet_workloads as workloads;
use std::sync::Arc;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    println!("# Experiment results\n");
    println!("(generated by `cargo run --release -p redet-bench --bin experiments`)\n");
    e1_determinism_mixed_content(fast);
    e2_determinism_families(fast);
    e3_check_if_follow(fast);
    e4_k_occurrence_matching(fast);
    e5_path_decomposition_matching(fast);
    e6_colored_ancestor_matching(fast);
    e7_star_free_multiword(fast);
    e8_preprocessing_costs(fast);
    e9_counting_determinism(fast);
}

fn repeats(fast: bool, normal: usize) -> usize {
    if fast {
        (normal / 10).max(1)
    } else {
        normal
    }
}

/// E1 — Theorem 3.5 vs the Glushkov baseline on mixed content
/// `(a1 + … + a_m)*`, the family where the baseline is quadratic.
fn e1_determinism_mixed_content(fast: bool) {
    println!("## E1 — determinism testing on mixed content (Theorem 3.5 vs Glushkov)\n");
    println!(
        "{}",
        row(&[
            "m (= σ)".into(),
            "|e| (positions)".into(),
            "skeleton test (µs)".into(),
            "Glushkov test (µs)".into(),
            "Glushkov transitions".into(),
            "speedup".into()
        ])
    );
    println!("|---|---|---|---|---|---|");
    let sizes = if fast {
        vec![64, 256, 1024]
    } else {
        vec![64, 256, 1024, 4096, 8192]
    };
    for m in sizes {
        let w = workloads::mixed_content(m);
        let reps = repeats(fast, (1 << 22) / m.max(1)).clamp(1, 20);
        let linear = time(reps, || {
            let analysis = TreeAnalysis::build(&w.regex);
            check_determinism(&analysis).is_ok()
        });
        let automaton = GlushkovAutomaton::build(&w.regex);
        let transitions = automaton.num_transitions();
        let baseline = time(reps, || {
            let automaton = GlushkovAutomaton::build(&w.regex);
            glushkov_determinism(&automaton).is_ok()
        });
        println!(
            "{}",
            row(&[
                m.to_string(),
                w.regex.num_positions().to_string(),
                micros(linear),
                micros(baseline),
                transitions.to_string(),
                format!("{:.1}x", baseline.as_secs_f64() / linear.as_secs_f64()),
            ])
        );
    }
    println!();
}

/// E2 — determinism testing across realistic content-model families.
fn e2_determinism_families(fast: bool) {
    println!("## E2 — determinism testing across content-model families\n");
    println!(
        "{}",
        row(&[
            "family".into(),
            "positions".into(),
            "σ".into(),
            "k".into(),
            "skeleton test (µs)".into(),
            "Glushkov test (µs)".into()
        ])
    );
    println!("|---|---|---|---|---|---|");
    let factor = if fast { 1 } else { 8 };
    let families: Vec<(String, Regex)> = vec![
        ("CHARE".into(), workloads::chare(200 * factor, 5, 1).regex),
        (
            "star-free CHARE".into(),
            workloads::star_free_chare(200 * factor, 5, 2).regex,
        ),
        (
            "2-occurrence".into(),
            workloads::k_occurrence(2, 100 * factor, 4, 3).regex,
        ),
        (
            "8-occurrence".into(),
            workloads::k_occurrence(8, 25 * factor, 4, 4).regex,
        ),
        (
            "deep alternation (c_e≈32)".into(),
            workloads::deep_alternation(32, 5).regex,
        ),
        (
            "mixed content (m=2048)".into(),
            workloads::mixed_content(2048 * factor.min(4)).regex,
        ),
    ];
    for (name, regex) in families {
        let stats = ExprStats::of(&regex);
        let reps = repeats(fast, 20);
        let linear = time(reps, || {
            let analysis = TreeAnalysis::build(&regex);
            check_determinism(&analysis).is_ok()
        });
        let baseline = time(reps, || {
            glushkov_determinism(&GlushkovAutomaton::build(&regex)).is_ok()
        });
        println!(
            "{}",
            row(&[
                name,
                stats.positions.to_string(),
                stats.distinct_symbols.to_string(),
                stats.max_occurrences.to_string(),
                micros(linear),
                micros(baseline),
            ])
        );
    }
    println!();
}

/// E3 — Theorem 2.4: constant-time checkIfFollow after linear preprocessing.
fn e3_check_if_follow(fast: bool) {
    println!("## E3 — checkIfFollow query time vs expression size (Theorem 2.4)\n");
    println!(
        "{}",
        row(&[
            "positions".into(),
            "preprocessing (µs)".into(),
            "ns / query (10^5 random queries)".into()
        ])
    );
    println!("|---|---|---|");
    let sizes = if fast {
        vec![256, 2048]
    } else {
        vec![256, 2048, 16384, 65536]
    };
    for m in sizes {
        let w = workloads::chare(m / 4, 4, 7);
        let prep = time(repeats(fast, 10), || TreeAnalysis::build(&w.regex));
        let analysis = TreeAnalysis::build(&w.regex);
        let positions = analysis.tree().num_positions();
        let queries: Vec<(PosId, PosId)> = (0..100_000u64)
            .map(|i| {
                let p = ((i.wrapping_mul(6364136223846793005) >> 33) as usize) % positions;
                let q = ((i.wrapping_mul(1442695040888963407) >> 33) as usize) % positions;
                (PosId::from_index(p), PosId::from_index(q))
            })
            .collect();
        let total = time(repeats(fast, 5), || {
            queries
                .iter()
                .filter(|&&(p, q)| analysis.check_if_follow(p, q))
                .count()
        });
        println!(
            "{}",
            row(&[
                positions.to_string(),
                micros(prep),
                format!("{:.2}", total.as_secs_f64() * 1e9 / queries.len() as f64),
            ])
        );
    }
    println!();
}

/// E4 — Theorem 4.3: k-occurrence matching, time per input symbol vs k.
fn e4_k_occurrence_matching(fast: bool) {
    println!("## E4 — k-occurrence matching (Theorem 4.3)\n");
    println!(
        "{}",
        row(&[
            "k".into(),
            "positions".into(),
            "word length".into(),
            "k-occ matcher (µs)".into(),
            "Glushkov DFA (µs)".into(),
            "DFA preprocessing (µs)".into()
        ])
    );
    println!("|---|---|---|---|---|---|");
    let word_len = if fast { 2_000 } else { 50_000 };
    for k in [1usize, 2, 4, 8, 16] {
        let w = workloads::k_occurrence(k, 40, 4, 11);
        let compiled = compile_workload(&w);
        let word = workloads::sample_member_word(&w.regex, word_len, 13);
        let matcher = kocc_matcher(&compiled);
        let reps = repeats(fast, 20);
        let ours = time(reps, || matcher.matches(&word));
        let dfa_prep = time(reps, || GlushkovDfaMatcher::build(&w.regex).unwrap());
        let dfa = GlushkovDfaMatcher::build(&w.regex).unwrap();
        let baseline = time(reps, || dfa.matches(&word));
        println!(
            "{}",
            row(&[
                k.to_string(),
                w.regex.num_positions().to_string(),
                word.len().to_string(),
                micros(ours),
                micros(baseline),
                micros(dfa_prep),
            ])
        );
    }
    println!();
}

/// E5 — Theorem 4.10: path-decomposition matching vs alternation depth c_e.
fn e5_path_decomposition_matching(fast: bool) {
    println!("## E5 — path-decomposition matching vs alternation depth (Theorem 4.10)\n");
    println!(
        "{}",
        row(&[
            "c_e (target)".into(),
            "positions".into(),
            "word length".into(),
            "path-decomposition (µs)".into(),
            "k-occurrence (µs)".into(),
            "Glushkov DFA (µs)".into()
        ])
    );
    println!("|---|---|---|---|---|---|");
    let word_len = if fast { 2_000 } else { 50_000 };
    for depth in [1usize, 2, 4, 8, 16, 32] {
        let w = workloads::deep_alternation(depth, 17);
        let compiled = compile_workload(&w);
        let word = workloads::sample_member_word(&w.regex, word_len, 19);
        let path = pathdecomp_matcher(&compiled);
        let kocc = kocc_matcher(&compiled);
        let dfa = GlushkovDfaMatcher::build(&w.regex).unwrap();
        let reps = repeats(fast, 20);
        let t_path = time(reps, || path.matches(&word));
        let t_kocc = time(reps, || kocc.matches(&word));
        let t_dfa = time(reps, || dfa.matches(&word));
        println!(
            "{}",
            row(&[
                depth.to_string(),
                w.regex.num_positions().to_string(),
                word.len().to_string(),
                micros(t_path),
                micros(t_kocc),
                micros(t_dfa),
            ])
        );
    }
    println!();
}

/// E6 — Theorem 4.2: lowest-colored-ancestor matching, per-symbol cost as a
/// function of |e| with the word length fixed.
fn e6_colored_ancestor_matching(fast: bool) {
    println!("## E6 — colored-ancestor matching vs expression size (Theorem 4.2)\n");
    println!(
        "{}",
        row(&[
            "positions".into(),
            "word length".into(),
            "colored matcher (µs)".into(),
            "ns / symbol".into(),
            "Glushkov DFA (µs)".into()
        ])
    );
    println!("|---|---|---|---|---|");
    let word_len = if fast { 2_000 } else { 20_000 };
    let sizes = if fast {
        vec![64, 512]
    } else {
        vec![64, 512, 4096, 16384]
    };
    for factors in sizes {
        let w = workloads::chare(factors, 4, 23);
        let compiled = compile_workload(&w);
        let word = workloads::sample_member_word(&w.regex, word_len, 29);
        let colored = colored_matcher(&compiled);
        let dfa = GlushkovDfaMatcher::build(&w.regex).unwrap();
        let reps = repeats(fast, 20);
        let t_col = time(reps, || colored.matches(&word));
        let t_dfa = time(reps, || dfa.matches(&word));
        println!(
            "{}",
            row(&[
                w.regex.num_positions().to_string(),
                word.len().to_string(),
                micros(t_col),
                format!(
                    "{:.1}",
                    t_col.as_secs_f64() * 1e9 / word.len().max(1) as f64
                ),
                micros(t_dfa),
            ])
        );
    }
    println!();
}

/// E7 — Theorem 4.12: star-free multi-word matching in one traversal.
fn e7_star_free_multiword(fast: bool) {
    println!("## E7 — star-free multi-word matching (Theorem 4.12)\n");
    println!(
        "{}",
        row(&[
            "words".into(),
            "Σ|w|".into(),
            "batch (µs)".into(),
            "word-by-word DFA (µs)".into(),
            "word-by-word k-occ (µs)".into()
        ])
    );
    println!("|---|---|---|---|---|");
    let counts = if fast {
        vec![100, 1000]
    } else {
        vec![100, 1000, 10000]
    };
    let w = workloads::star_free_chare(120, 4, 31);
    let compiled = compile_workload(&w);
    let starfree = starfree_matcher(&compiled);
    let dfa = GlushkovDfaMatcher::from_tree(compiled.analysis().tree()).unwrap();
    let kocc = kocc_matcher(&compiled);
    for n in counts {
        let words: Vec<Vec<redet_syntax::Symbol>> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    workloads::sample_member_word(&w.regex, 60, i as u64)
                } else {
                    workloads::sample_random_word(&w.alphabet, 40, i as u64)
                }
            })
            .collect();
        let total: usize = words.iter().map(Vec::len).sum();
        let reps = repeats(fast, 10);
        let batch = time(reps, || starfree.match_words(&words));
        let dfa_each = time(reps, || words.iter().filter(|w| dfa.matches(w)).count());
        let kocc_each = time(reps, || words.iter().filter(|w| kocc.matches(w)).count());
        println!(
            "{}",
            row(&[
                n.to_string(),
                total.to_string(),
                micros(batch),
                micros(dfa_each),
                micros(kocc_each),
            ])
        );
    }
    println!();
}

/// E8 — preprocessing cost: linear-time structures vs the Glushkov
/// automaton, on mixed content (where the Glushkov automaton is quadratic).
fn e8_preprocessing_costs(fast: bool) {
    println!("## E8 — preprocessing cost (Section 1 claim: Glushkov is Θ(σ|e|))\n");
    println!(
        "{}",
        row(&[
            "m".into(),
            "tree analysis (µs)".into(),
            "determinism certificate (µs)".into(),
            "Glushkov automaton (µs)".into(),
            "Glushkov transitions".into()
        ])
    );
    println!("|---|---|---|---|---|");
    let sizes = if fast {
        vec![128, 1024]
    } else {
        vec![128, 1024, 4096, 8192]
    };
    for m in sizes {
        let w = workloads::mixed_content(m);
        let reps = repeats(fast, 10);
        let t_analysis = time(reps, || TreeAnalysis::build(&w.regex));
        let analysis = Arc::new(TreeAnalysis::build(&w.regex));
        let t_cert = time(reps, || check_determinism(&analysis).is_ok());
        let t_glushkov = time(reps, || GlushkovAutomaton::build(&w.regex));
        let transitions = GlushkovAutomaton::build(&w.regex).num_transitions();
        println!(
            "{}",
            row(&[
                m.to_string(),
                micros(t_analysis),
                micros(t_cert),
                micros(t_glushkov),
                transitions.to_string(),
            ])
        );
    }
    println!();
}

/// E9 — Section 3.3: determinism with numeric occurrence indicators.
fn e9_counting_determinism(fast: bool) {
    println!("## E9 — determinism with numeric occurrence indicators (Section 3.3)\n");
    println!(
        "{}",
        row(&[
            "factors".into(),
            "positions".into(),
            "counting test (µs)".into(),
            "unrolled positions".into(),
            "unrolled Glushkov test (µs)".into()
        ])
    );
    println!("|---|---|---|---|---|");
    let sizes = if fast {
        vec![50, 200]
    } else {
        vec![50, 200, 800, 3200]
    };
    for factors in sizes {
        // A counted CHARE: every factor carries a rigid or flexible counter.
        let base = workloads::chare(factors, 3, 41);
        let counted = add_counters(&base.regex, 0);
        let stats = ExprStats::of(&counted);
        let reps = repeats(fast, 10);
        let ours = time(reps, || check_counting_determinism(&counted).is_ok());
        let unrolled = redet_automata::unroll_counting(&counted);
        let unrolled_positions = unrolled.num_positions();
        let baseline = time(reps, || {
            glushkov_determinism(&GlushkovAutomaton::build(&unrolled)).is_ok()
        });
        println!(
            "{}",
            row(&[
                factors.to_string(),
                stats.positions.to_string(),
                micros(ours),
                unrolled_positions.to_string(),
                micros(baseline),
            ])
        );
    }
    println!();
}

/// Sprinkles numeric occurrence indicators over a CHARE-like expression.
fn add_counters(regex: &Regex, depth: usize) -> Regex {
    match regex {
        Regex::Concat(l, r) => add_counters(l, depth + 1).then(add_counters(r, depth + 1)),
        Regex::Star(inner) => {
            // Replace stars alternately by {2,5} and {3,3} counters.
            let body = add_counters(inner, depth + 1);
            if depth % 2 == 0 {
                body.repeat(2, Some(5))
            } else {
                body.repeat(3, Some(3))
            }
        }
        other => other.clone(),
    }
}
