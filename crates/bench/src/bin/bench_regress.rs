//! Bench-smoke regression gate for CI.
//!
//! Usage: `bench_regress <committed-baseline.json> <fresh-run.json>`
//!
//! Compares a fresh `BENCH_matching.json` against the committed baseline
//! for the gated experiment groups (E4, E5, E7, E11, E13, E14, E15, E16,
//! E17) and exits non-zero when any algorithm regresses by more than 25%.
//!
//! Absolute nanosecond numbers are not comparable across machines, so the
//! gate works on **within-group ratios**: for every `(group, param)` pair it
//! relates each algorithm series to the group's reference series measured
//! in the same run (`kocc` vs `glushkov_dfa`, `schema_validator` vs
//! `dfa_per_element`, `service_interleaved` vs `per_document`). A
//! regression means the fresh ratio exceeds the committed ratio by more
//! than the threshold — i.e. the algorithm got slower *relative to the
//! same hardware's baseline*.
//!
//! Some groups additionally carry an **absolute** cap, independent of the
//! committed file: the E11 validator must stay within [`E11_MAX_RATIO`]× of
//! the raw DFA-per-element stack (the paper's promise is DFA-like speed
//! with `O(|e|)` preprocessing), E13 interleaved event serving must stay
//! within [`E13_MAX_RATIO`]× of the per-document validator loop (parking
//! and resuming documents per chunk must stay near-free), and E13 raw-byte
//! ingestion must stay within [`E13_BYTES_MAX_RATIO`]× of event-level
//! serving (the bulk-scanning tokenizer keeps bytes first-class). E14
//! ratio-gates the bulk tokenizer against its byte-at-a-time scalar oracle
//! so the SWAR scanner cannot quietly regress toward scalar speed. E15
//! ratio-gates the resource-governance series (`feed_governed` and the
//! `rejected_feed` early-out) against ungoverned serving, with an absolute
//! cap ([`E15_GOVERNED_MAX_RATIO`]) pinning the limit
//! bookkeeping (depth/byte/event accounting plus admission checks at the
//! handle-capacity edge) to near-zero overhead. E16 ratio-gates the
//! full-markup serving series (attribute/text events, attribute-dense tag
//! soup, and the entity-decode byte shape) against the per-document
//! validator reference over the same enriched corpus, with an absolute cap
//! ([`E16_ENTITIES_MAX_RATIO`]) relating the entity-dense byte series to
//! the plain byte series of the same run. E17 ratio-gates
//! registry-handle opens (`SharedSchema` load + validator) against
//! direct validator construction, with an absolute cap
//! ([`E17_HANDLE_OPEN_MAX_RATIO`]) bounding the read-lock + `Arc` clone
//! per open to tens of nanoseconds; its rehash, compile, and swap
//! (`SharedSchema` publish + load) series are measured but not gated
//! (they live at their own params).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Groups gated by CI, each with the substring identifying its in-group
/// reference series.
const GATED_GROUPS: &[(&str, &str)] = &[
    ("E4_k_occurrence_matching", "dfa"),
    ("E5_path_decomposition_matching", "dfa"),
    ("E7_star_free_multiword", "dfa"),
    ("E11_document_validation", "dfa"),
    ("E13_interleaved_serving", "per_document"),
    ("E14_tokenizer_throughput", "scalar"),
    ("E15_overload_serving", "feed_unlimited"),
    ("E16_markup_coverage", "per_document"),
    ("E17_schema_registry", "open_direct"),
];

/// Allowed relative slowdown before the gate fails.
const THRESHOLD: f64 = 1.25;

/// Absolute cap on `schema_validator / dfa_per_element` (E11): the
/// validator adds schema semantics (counted models, diagnostics, recycled
/// frames) but must stay in the DFA's ballpark.
const E11_MAX_RATIO: f64 = 2.0;

/// Absolute cap on `service_interleaved / per_document` (E13): feeding N
/// interleaved documents in 64-event chunks through the connection service
/// must stay within this factor of validating them one after another —
/// the acceptance criterion of the connection-oriented redesign.
const E13_MAX_RATIO: f64 = 1.5;

/// Absolute cap on `service_bytes / service_interleaved` (E13): feeding the
/// same corpus as raw tag soup must stay within this factor of feeding it
/// as pre-parsed events — the bulk-scanning tokenizer's acceptance
/// criterion (it was ~3.4× with the byte-at-a-time scanner).
const E13_BYTES_MAX_RATIO: f64 = 1.6;

/// Absolute cap on `feed_governed / feed_unlimited` (E15): running the
/// identical interleaved corpus with every `ServiceLimits` cap configured
/// (none firing) and admission at the handle-capacity edge must cost at
/// most this factor — resource governance is bookkeeping, not work.
const E15_GOVERNED_MAX_RATIO: f64 = 1.3;

/// Absolute cap on `service_bytes_entities / service_bytes` (E16): the same
/// documents with references in every attribute value and text run must
/// serve within this factor of their plain serialization — whole
/// references decode inside the tokenizer's scan loops, so they cost
/// about what the bytes they replace cost. Both series come from one
/// process, so host load cancels out of the quotient (11 alternating full
/// runs on a 2-vCPU container read 2.0–2.7× when every reference left the
/// scan loop, 1.6–1.8× with in-loop decoding).
const E16_ENTITIES_MAX_RATIO: f64 = 2.0;

/// Absolute cap on `open_handle / open_direct` (E17): obtaining a
/// validator through a published `SharedSchema` handle (read lock +
/// `Arc` clone) must stay within this factor of constructing one from an
/// already-held `Arc<Schema>`. The reference is a ~30 ns construction on
/// the tiny corpus schemas, so the cap bounds the hot-swap indirection to
/// a few tens of nanoseconds — it fires if the handle ever regresses to
/// heavier synchronization (contended locks, extra allocation), while the
/// committed-ratio gate catches smaller drift.
const E17_HANDLE_OPEN_MAX_RATIO: f64 = 2.5;

#[derive(Clone, Debug)]
struct Entry {
    group: String,
    name: String,
    param: String,
    ns_per_iter: f64,
}

/// Extracts the string value of `"key": "…"` from a JSON object line.
fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_owned())
}

/// Extracts the numeric value of `"key": 123.4` from a JSON object line.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the report format written by `redet_bench::harness::Harness`.
fn parse_report(path: &str) -> Vec<Entry> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
    text.lines()
        .filter_map(|line| {
            Some(Entry {
                group: string_field(line, "group")?,
                name: string_field(line, "name")?,
                param: string_field(line, "param")?,
                ns_per_iter: number_field(line, "ns_per_iter")?,
            })
        })
        .collect()
}

/// The reference-series substring of a gated group, if the group is gated.
fn reference_marker(group: &str) -> Option<&'static str> {
    GATED_GROUPS
        .iter()
        .find(|(g, _)| *g == group)
        .map(|(_, marker)| *marker)
}

/// Within-group ratios `algorithm / reference` keyed by
/// `(group, param, name)`; each group names its own reference series (see
/// [`GATED_GROUPS`]).
fn ratios(entries: &[Entry]) -> BTreeMap<(String, String, String), f64> {
    let mut reference: BTreeMap<(String, String), f64> = BTreeMap::new();
    for e in entries {
        if reference_marker(&e.group).is_some_and(|m| e.name.contains(m)) {
            reference.insert((e.group.clone(), e.param.clone()), e.ns_per_iter);
        }
    }
    let mut out = BTreeMap::new();
    for e in entries {
        let Some(marker) = reference_marker(&e.group) else {
            continue;
        };
        if e.name.contains(marker) {
            continue;
        }
        if let Some(&base) = reference.get(&(e.group.clone(), e.param.clone())) {
            if base > 0.0 {
                out.insert(
                    (e.group.clone(), e.param.clone(), e.name.clone()),
                    e.ns_per_iter / base,
                );
            }
        }
    }
    out
}

/// Absolute-cap checks on the fresh ratios (see the module docs): E11 must
/// stay within [`E11_MAX_RATIO`]× of the raw DFA stack, the E13 serving
/// caps pin event-level overhead ([`E13_MAX_RATIO`]) and raw-byte
/// ingestion ([`E13_BYTES_MAX_RATIO`]), E15 caps governance overhead
/// ([`E15_GOVERNED_MAX_RATIO`]), E16 caps entity decoding
/// ([`E16_ENTITIES_MAX_RATIO`]) and E17 caps handle opens
/// ([`E17_HANDLE_OPEN_MAX_RATIO`]). Returns the number of violations.
fn absolute_caps(fresh: &BTreeMap<(String, String, String), f64>) -> usize {
    let mut violations = 0usize;
    for ((group, param, name), &ratio) in fresh {
        if group == "E11_document_validation" && ratio > E11_MAX_RATIO {
            eprintln!(
                "E11 cap: {name} (param {param}) is {ratio:.2}x the DFA-per-element \
                 baseline (cap {E11_MAX_RATIO}x)"
            );
            violations += 1;
        }
        if group == "E17_schema_registry"
            && name.contains("open_handle")
            && ratio > E17_HANDLE_OPEN_MAX_RATIO
        {
            eprintln!(
                "E17 cap: {name} (param {param}) is {ratio:.2}x a direct validator \
                 construction (cap {E17_HANDLE_OPEN_MAX_RATIO}x) — the hot-swap handle \
                 open path is not near-free"
            );
            violations += 1;
        }
        if group == "E15_overload_serving"
            && name.contains("governed")
            && ratio > E15_GOVERNED_MAX_RATIO
        {
            eprintln!(
                "E15 cap: {name} (param {param}) is {ratio:.2}x ungoverned serving \
                 (cap {E15_GOVERNED_MAX_RATIO}x) — limit bookkeeping is not near-free"
            );
            violations += 1;
        }
        if group == "E13_interleaved_serving"
            && name.contains("interleaved")
            && ratio > E13_MAX_RATIO
        {
            eprintln!(
                "E13 cap: {name} (param {param}) is {ratio:.2}x the per-document \
                 validator loop (cap {E13_MAX_RATIO}x)"
            );
            violations += 1;
        }
        // The byte-ingestion series pays the tokenizer on top; relate it to
        // the event-level series measured in the same run (both ratios share
        // the per-document reference, so their quotient cancels it out).
        if group == "E13_interleaved_serving" && name.contains("bytes") {
            if let Some(&interleaved) = fresh.get(&(
                group.clone(),
                param.clone(),
                "service_interleaved".to_owned(),
            )) {
                let relative = ratio / interleaved;
                if relative > E13_BYTES_MAX_RATIO {
                    eprintln!(
                        "E13 bytes cap: {name} (param {param}) is {relative:.2}x the \
                         event-level interleaved series (cap {E13_BYTES_MAX_RATIO}x)"
                    );
                    violations += 1;
                }
            }
        }
        // Likewise the entity-dense byte series against the plain one.
        if group == "E16_markup_coverage" && name == "service_bytes_entities" {
            if let Some(&plain) =
                fresh.get(&(group.clone(), param.clone(), "service_bytes".to_owned()))
            {
                let relative = ratio / plain;
                if relative > E16_ENTITIES_MAX_RATIO {
                    eprintln!(
                        "E16 entities cap: {name} (param {param}) is {relative:.2}x the \
                         plain byte series (cap {E16_ENTITIES_MAX_RATIO}x)"
                    );
                    violations += 1;
                }
            }
        }
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_regress <committed-baseline.json> <fresh-run.json>");
        return ExitCode::from(2);
    };

    let baseline = ratios(&parse_report(baseline_path));
    let fresh = ratios(&parse_report(fresh_path));

    let mut regressions = 0usize;
    let mut compared = 0usize;
    println!(
        "{:<34} {:<10} {:<24} {:>10} {:>10} {:>8}",
        "group", "param", "series", "committed", "fresh", "delta"
    );
    for ((group, param, name), &fresh_ratio) in &fresh {
        let Some(&committed) = baseline.get(&(group.clone(), param.clone(), name.clone())) else {
            println!("{group:<34} {param:<10} {name:<24}        (new series, not gated)");
            continue;
        };
        compared += 1;
        let delta = fresh_ratio / committed;
        let verdict = if delta > THRESHOLD {
            regressions += 1;
            "  REGRESSED"
        } else {
            ""
        };
        println!(
            "{group:<34} {param:<10} {name:<24} {committed:>9.3}x {fresh_ratio:>9.3}x {:>7.0}%{verdict}",
            (delta - 1.0) * 100.0
        );
    }

    // A gated series present in the committed baseline but absent from the
    // fresh run means the bench was renamed or dropped — the gate must not
    // silently pass with that algorithm unmeasured.
    let mut missing = 0usize;
    for key in baseline.keys() {
        if !fresh.contains_key(key) {
            let (group, param, name) = key;
            eprintln!("gated series missing from fresh run: {group}/{name} (param {param})");
            missing += 1;
        }
    }
    if missing > 0 {
        eprintln!("{missing} committed series are no longer measured — gate cannot pass");
        return ExitCode::from(2);
    }
    if compared == 0 {
        eprintln!("no comparable series between {baseline_path} and {fresh_path}");
        return ExitCode::from(2);
    }
    let capped = absolute_caps(&fresh);
    if regressions > 0 || capped > 0 {
        if regressions > 0 {
            eprintln!(
                "{regressions} series regressed more than {:.0}% relative to the in-group \
                 reference baseline",
                (THRESHOLD - 1.0) * 100.0
            );
        }
        if capped > 0 {
            eprintln!(
                "{capped} absolute cap(s) violated (E11 ratio / E13 serving / E13 bytes / \
                 E15 governance / E16 entities / E17 cached opens)"
            );
        }
        return ExitCode::FAILURE;
    }
    println!(
        "no E4/E5/E7/E11/E13/E14/E15/E16/E17 regressions beyond {:.0}%; absolute caps hold",
        (THRESHOLD - 1.0) * 100.0
    );
    ExitCode::SUCCESS
}
