//! The verdict oracle: every document's expected wire verdict, computed
//! in-process with `ValidationService::validate_bytes` against every schema
//! version the workload will publish.

use crate::corpus::Corpus;
use redet_schema::registry::Registry;

/// The expected verdict of each document, as the prefix of its wire
/// response: `ok`, or `err <code>`.
#[derive(Clone, Debug)]
pub struct Oracle {
    /// Indexed like [`Corpus::docs`].
    pub verdicts: Vec<String>,
}

impl Oracle {
    /// Validates every document under every version of its slot's schema.
    /// Fails if a version does not compile, if versions disagree on a
    /// document, or if a verdict contradicts the generator (mutated
    /// documents must be rejected, the rest accepted).
    pub fn build(corpus: &Corpus) -> Result<Oracle, String> {
        let mut registry = Registry::new();
        let mut verdicts: Vec<Option<String>> = vec![None; corpus.docs.len()];
        for (slot, info) in corpus.slots.iter().enumerate() {
            for (v, dtd) in corpus.versions(slot).into_iter().enumerate() {
                let schema = registry
                    .compile(dtd)
                    .map_err(|d| format!("{} version {v} does not compile: {d}", info.id))?;
                let mut service = schema.service();
                for (i, doc) in corpus.docs.iter().enumerate() {
                    if doc.slot != slot {
                        continue;
                    }
                    let verdict = match service.validate_bytes(&doc.body) {
                        Ok(()) => "ok".to_owned(),
                        Err(d) => format!("err {}", d.code().as_str()),
                    };
                    match &verdicts[i] {
                        None => verdicts[i] = Some(verdict),
                        Some(first) if *first != verdict => {
                            return Err(format!(
                            "document {i}: {} version {v} says '{verdict}', version 0 '{first}'",
                            info.id
                        ))
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        let verdicts: Vec<String> = verdicts
            .into_iter()
            .map(|v| v.expect("every document belongs to a slot"))
            .collect();
        for (i, (doc, verdict)) in corpus.docs.iter().zip(&verdicts).enumerate() {
            if doc.invalid == (verdict == "ok") {
                return Err(format!(
                    "document {i}: generator says invalid={}, oracle says '{verdict}'",
                    doc.invalid
                ));
            }
        }
        Ok(Oracle { verdicts })
    }

    /// Whether a wire response line carries the expected verdict for `doc`.
    pub fn matches(&self, doc: usize, line: &str) -> bool {
        let expected = &self.verdicts[doc];
        line == expected
            || (expected != "ok"
                && line.starts_with(expected.as_str())
                && line.as_bytes().get(expected.len()) == Some(&b' '))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Workload;

    #[test]
    fn every_workload_has_a_consistent_oracle() {
        for workload in Workload::ALL {
            let corpus = Corpus::generate(workload, 5);
            let oracle = Oracle::build(&corpus).unwrap_or_else(|e| panic!("{e}"));
            let rejected = oracle.verdicts.iter().filter(|v| *v != "ok").count();
            assert_eq!(rejected, corpus.docs.iter().filter(|d| d.invalid).count());
        }
    }

    #[test]
    fn matching_compares_the_code_only() {
        let oracle = Oracle {
            verdicts: vec!["ok".to_owned(), "err E201".to_owned()],
        };
        assert!(oracle.matches(0, "ok"));
        assert!(!oracle.matches(0, "err E201 - x"));
        assert!(oracle.matches(1, "err E201 3..4 unexpected"));
        assert!(!oracle.matches(1, "err E2011 x"));
        assert!(!oracle.matches(1, "ok"));
    }
}
