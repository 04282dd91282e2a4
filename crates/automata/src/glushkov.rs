//! Construction of the Glushkov (position) automaton.
//!
//! The Glushkov automaton of a marked expression `e` has one state per
//! position plus an initial state; there is a transition `p → q` labeled
//! `lab(q)` whenever `q ∈ Follow(p)`. Thanks to the (R1) wrapping
//! `(# e′) $`, the phantom position `#` plays the role of the initial state
//! and a position is accepting iff `$` follows it, so the automaton is fully
//! described by the `Follow` lists of all positions.
//!
//! The `First`/`Last`/`Follow` sets are computed with the classical
//! syntax-directed recursion [Glushkov 1961; Berry & Sethi 1986]. The total
//! size of the `Follow` lists — and hence construction time — is `Θ(σ|e|)`
//! in the worst case (e.g. the "mixed content" expressions
//! `(a₁ + ⋯ + a_m)*`), which is exactly the quadratic behaviour the paper's
//! linear-time algorithms avoid.

use crate::determinism::NonDeterminismWitness;
use redet_syntax::{Regex, Symbol};
use redet_tree::{NodeId, NodeKind, ParseTree, PosId};

/// The Glushkov automaton of a regular expression, represented by its
/// per-position `Follow` lists.
#[derive(Clone, Debug)]
pub struct GlushkovAutomaton {
    /// `follow[p]` — positions that may follow position `p`, sorted and
    /// deduplicated. Includes the phantom `$` when `p` can end a word.
    follow: Vec<Vec<PosId>>,
    /// Symbol of each position (`None` for the phantom `#`/`$`).
    symbols: Vec<Option<Symbol>>,
    /// Whether `ε ∈ L(e′)`.
    nullable: bool,
}

impl GlushkovAutomaton {
    /// Builds the automaton of `regex` (the parse tree is built internally).
    pub fn build(regex: &Regex) -> Self {
        Self::from_tree(&ParseTree::build(regex))
    }

    /// Builds the automaton from an existing parse tree.
    pub fn from_tree(tree: &ParseTree) -> Self {
        let n = tree.num_nodes();
        let m = tree.num_positions();

        // Bottom-up First/Last, reusing the preorder id ordering (children
        // have larger ids than their parent); nullability is the tree's.
        let mut first: Vec<Vec<PosId>> = vec![Vec::new(); n];
        let mut last: Vec<Vec<PosId>> = vec![Vec::new(); n];
        let mut follow: Vec<Vec<PosId>> = vec![Vec::new(); m];

        for id in (0..n).rev() {
            let node = NodeId::from_index(id);
            match tree.kind(node) {
                NodeKind::Begin | NodeKind::End | NodeKind::Position(_) => {
                    let p = tree.node_pos(node).expect("leaves are positions");
                    first[id] = vec![p];
                    last[id] = vec![p];
                }
                NodeKind::Concat => {
                    let (l, r) = (tree.lchild(node).unwrap(), tree.rchild(node).unwrap());
                    let (li, ri) = (l.index(), r.index());
                    // Follow contribution: Last(l) × First(r).
                    for &p in &last[li] {
                        follow[p.index()].extend_from_slice(&first[ri]);
                    }
                    let mut f = first[li].clone();
                    if tree.nullable(l) {
                        f.extend_from_slice(&first[ri]);
                    }
                    let mut la = last[ri].clone();
                    if tree.nullable(r) {
                        la.extend_from_slice(&last[li]);
                    }
                    first[id] = f;
                    last[id] = la;
                }
                NodeKind::Union => {
                    let l = tree.lchild(node).unwrap().index();
                    let r = tree.rchild(node).unwrap().index();
                    let mut f = first[l].clone();
                    f.extend_from_slice(&first[r]);
                    let mut la = last[l].clone();
                    la.extend_from_slice(&last[r]);
                    first[id] = f;
                    last[id] = la;
                }
                NodeKind::Optional => {
                    let c = tree.lchild(node).unwrap().index();
                    first[id] = first[c].clone();
                    last[id] = last[c].clone();
                }
                NodeKind::Star => {
                    let c = tree.lchild(node).unwrap().index();
                    for &p in &last[c] {
                        follow[p.index()].extend_from_slice(&first[c]);
                    }
                    first[id] = first[c].clone();
                    last[id] = last[c].clone();
                }
                NodeKind::Repeat(_, max) => {
                    let c = tree.lchild(node).unwrap().index();
                    // Iteration edges exist when the body may repeat.
                    if max.map_or(true, |m| m >= 2) {
                        for &p in &last[c] {
                            follow[p.index()].extend_from_slice(&first[c]);
                        }
                    }
                    first[id] = first[c].clone();
                    last[id] = last[c].clone();
                }
            }
        }

        for f in &mut follow {
            f.sort_unstable();
            f.dedup();
        }

        let symbols = (0..m)
            .map(|i| tree.symbol_at(PosId::from_index(i)))
            .collect();

        GlushkovAutomaton {
            follow,
            symbols,
            nullable: tree.nullable(tree.expr_root()),
        }
    }

    /// Number of positions (states minus nothing — `#` is the initial state
    /// and `$` the accepting sink).
    #[inline]
    pub fn num_positions(&self) -> usize {
        self.follow.len()
    }

    /// The phantom initial position `#`.
    #[inline]
    pub fn begin(&self) -> PosId {
        PosId::from_index(0)
    }

    /// The phantom end position `$`.
    #[inline]
    pub fn end(&self) -> PosId {
        PosId::from_index(self.follow.len() - 1)
    }

    /// The positions following `p`, sorted.
    #[inline]
    pub fn follow(&self, p: PosId) -> &[PosId] {
        &self.follow[p.index()]
    }

    /// The symbol labelling position `p` (`None` for `#` and `$`).
    #[inline]
    pub fn symbol(&self, p: PosId) -> Option<Symbol> {
        self.symbols[p.index()]
    }

    /// Whether `ε ∈ L(e′)`.
    #[inline]
    pub fn nullable(&self) -> bool {
        self.nullable
    }

    /// Whether position `p` can end a word, i.e. `$ ∈ Follow(p)`.
    #[inline]
    pub fn can_end(&self, p: PosId) -> bool {
        self.follow[p.index()].binary_search(&self.end()).is_ok()
    }

    /// Total number of transitions of the automaton — `Θ(σ|e|)` in the worst
    /// case; reported by the preprocessing-cost experiment (E8).
    pub fn num_transitions(&self) -> usize {
        self.follow.iter().map(Vec::len).sum()
    }

    /// The position labeled `symbol` that follows `p`, if any; reports a
    /// determinism violation as an error when several such positions exist.
    pub fn successor(
        &self,
        p: PosId,
        symbol: Symbol,
    ) -> Result<Option<PosId>, NonDeterminismWitness> {
        let mut found: Option<PosId> = None;
        for &q in &self.follow[p.index()] {
            if self.symbols[q.index()] == Some(symbol) {
                if let Some(prev) = found {
                    return Err(NonDeterminismWitness {
                        predecessor: p,
                        first: prev,
                        second: q,
                        symbol,
                    });
                }
                found = Some(q);
            }
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_syntax::parse;

    fn automaton(input: &str) -> (GlushkovAutomaton, redet_syntax::Alphabet) {
        let (e, sigma) = parse(input).unwrap();
        (GlushkovAutomaton::build(&e), sigma)
    }

    #[test]
    fn example_2_1_follow_sets() {
        // e1 = (ab + b(b?)a)*, Follow(p3) = {p4, p5}.
        let (g, _) = automaton("(a b + b (b?) a)*");
        let p = PosId::from_index;
        let non_end: Vec<_> = g
            .follow(p(3))
            .iter()
            .copied()
            .filter(|q| *q != g.end())
            .collect();
        assert_eq!(non_end, vec![p(4), p(5)]);
        // e2 = (a*ba + bb)*, Follow(q3) = {q1, q2, q4}.
        let (g2, _) = automaton("(a* b a + b b)*");
        let non_end: Vec<_> = g2
            .follow(p(3))
            .iter()
            .copied()
            .filter(|q| *q != g2.end())
            .collect();
        assert_eq!(non_end, vec![p(1), p(2), p(4)]);
    }

    #[test]
    fn follow_agrees_with_tree_analysis() {
        use redet_tree::TreeAnalysis;
        for input in [
            "(a b + b b? a)*",
            "(a* b a + b b)*",
            "(c?((a b*)(a? c)))*(b a)",
            "(a0 + a1 + a2 + a3)*",
            "a? b? c? d?",
            "((a + b)* c)* d",
            "(x (a b)* y)*",
            "(a b){2,3} c",
        ] {
            let (e, _) = parse(input).unwrap();
            let analysis = TreeAnalysis::build(&e);
            let g = GlushkovAutomaton::build(&e);
            let m = g.num_positions();
            for p in 0..m {
                for q in 0..m {
                    let (p, q) = (PosId::from_index(p), PosId::from_index(q));
                    assert_eq!(
                        g.follow(p).binary_search(&q).is_ok(),
                        analysis.check_if_follow(p, q),
                        "{input}: follow({p:?},{q:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_content_is_quadratic() {
        // (a0 + … + a(m-1))*: every position follows every position, hence
        // Θ(m²) transitions — the blow-up motivating the paper.
        let m = 20;
        let expr = format!(
            "({})*",
            (0..m)
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
                .join(" + ")
        );
        let (g, _) = automaton(&expr);
        // m symbol positions each followed by m positions plus $, plus the
        // # row with m + 1 entries.
        assert!(g.num_transitions() >= m * m);
    }

    #[test]
    fn successor_detects_conflicts() {
        let (g, sigma) = automaton("(a* b a + b b)*");
        let b = sigma.lookup("b").unwrap();
        // From # both b-positions are reachable: non-deterministic.
        assert!(g.successor(g.begin(), b).is_err());
        let a = sigma.lookup("a").unwrap();
        assert!(g.successor(g.begin(), a).is_ok());
    }

    #[test]
    fn nullability_and_acceptance() {
        let (g, _) = automaton("(a b)*");
        assert!(g.nullable());
        assert!(g.can_end(PosId::from_index(2)));
        assert!(!g.can_end(PosId::from_index(1)));
        let (g, _) = automaton("a b");
        assert!(!g.nullable());
    }
}
