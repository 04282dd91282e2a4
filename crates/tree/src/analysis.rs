//! The preprocessed bundle: the parse tree plus LCA structures, offering
//! the constant-time `checkIfFollow` primitive of Theorem 2.4.

use crate::lca::Lca;
use crate::node::{NodeKind, PosId};
use crate::parse_tree::{ParseTree, NONE};
use crate::rmq::SparseTableRmq;
use redet_syntax::{Regex, Symbol};

/// How a position `q` follows a position `p` (Lemma 2.2): through a
/// concatenation node, through an iterating node (`∗` / `{i,j}` with
/// `j ≥ 2`), or both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FollowKind {
    /// `q ∈ Follow·(p)`: via the concatenation at `LCA(p, q)`.
    Concat,
    /// `q ∈ Follow∗(p)`: via the lowest iterating ancestor of `LCA(p, q)`.
    Star,
    /// Both conditions of Lemma 2.2 hold simultaneously.
    Both,
}

/// A parse tree preprocessed in `O(|e|)` time for constant-time structural
/// queries (Theorem 2.4).
///
/// This is the substrate shared by the determinism test and all matchers:
/// it owns the [`ParseTree`] (with its node properties), the Euler-tour
/// [`Lca`] for node-level queries, and a leaf-pair RMQ for the
/// position-to-position LCAs of `checkIfFollow`.
///
/// For document-ordered leaves, `LCA(leaf_i, leaf_j)` with `i < j` is the
/// minimum-depth node among the LCAs of *consecutive* leaf pairs in
/// `[i, j)`, so one sparse-table RMQ over an `m − 1` array answers it in
/// two same-row loads. The table is `O(m log m)` words — a pragmatic trade
/// against the pointer-chasing `O(|e|)` ±1 structure, which remains in
/// place for node-level queries.
///
/// ```
/// use redet_syntax::parse;
/// use redet_tree::TreeAnalysis;
///
/// let (e, sigma) = parse("(a b + b b? a)*").unwrap();
/// let analysis = TreeAnalysis::build(&e);
/// let tree = analysis.tree();
/// let b3 = tree.positions_of_symbol(sigma.lookup("b").unwrap())[1];
/// let b4 = tree.positions_of_symbol(sigma.lookup("b").unwrap())[2];
/// let a5 = tree.positions_of_symbol(sigma.lookup("a").unwrap())[1];
/// // Follow(p3) = {p4, p5} in Example 2.1.
/// assert!(analysis.check_if_follow(b3, b4));
/// assert!(analysis.check_if_follow(b3, a5));
/// assert!(!analysis.check_if_follow(b4, b3));
/// ```
#[derive(Clone, Debug)]
pub struct TreeAnalysis {
    /// `leaf_lca_node[i]` — the LCA of the leaves of positions `i` and
    /// `i + 1`.
    leaf_lca_node: Vec<u32>,
    /// RMQ over the depths of `leaf_lca_node`.
    leaf_lca_rmq: SparseTableRmq,
    tree: ParseTree,
    lca: Lca,
}

impl TreeAnalysis {
    /// Builds the parse tree of `regex` (adding the R1 markers) and
    /// preprocesses it. `O(|regex|)`.
    pub fn build(regex: &Regex) -> Self {
        Self::from_tree(ParseTree::build(regex))
    }

    /// Preprocesses an already-built parse tree.
    pub fn from_tree(tree: ParseTree) -> Self {
        // The LCA of consecutive leaves u < v: climb from v's parent until
        // the node also holds u. Every node climbed through has v as its
        // first leaf, so the climbs of all pairs add up to O(|e|).
        let m = tree.num_positions();
        let mut leaf_lca_node = Vec::with_capacity(m - 1);
        let mut leaf_lca_depth = Vec::with_capacity(m - 1);
        for w in tree.positions().windows(2) {
            let mut anc = tree.parent(w[1]).expect("a second leaf is not the root");
            while !tree.is_ancestor(anc, w[0]) {
                anc = tree.parent(anc).expect("the root holds every leaf");
            }
            leaf_lca_node.push(anc.index() as u32);
            leaf_lca_depth.push(tree.depth(anc));
        }
        let leaf_lca_rmq = SparseTableRmq::new(leaf_lca_depth);
        let lca = Lca::new(&tree);
        TreeAnalysis {
            leaf_lca_node,
            leaf_lca_rmq,
            tree,
            lca,
        }
    }

    /// The underlying parse tree and its node properties.
    #[inline]
    pub fn tree(&self) -> &ParseTree {
        &self.tree
    }

    /// The LCA structure.
    #[inline]
    pub fn lca(&self) -> &Lca {
        &self.lca
    }

    /// The LCA of the leaves of positions `p` and `q`, via the leaf-pair
    /// RMQ (no Euler tour on the hot path).
    #[inline]
    fn leaf_lca(&self, p: u32, q: u32) -> u32 {
        if p == q {
            return self.tree.leaf(p);
        }
        let (lo, hi) = if p < q { (p, q) } else { (q, p) };
        self.leaf_lca_node[self.leaf_lca_rmq.query_inline(lo as usize, hi as usize - 1)]
    }

    /// Theorem 2.4 over raw position ids: whether `q ∈ Follow(p)`. One
    /// leaf-pair LCA lookup plus the Lemma 2.3 interval tests over preorder
    /// `u32` arrays — the form the matchers' hot loops call.
    #[inline]
    pub fn follow_ids(&self, p: u32, q: u32) -> bool {
        let tree = &self.tree;
        // Both leaves are loaded before the LCA so their loads overlap the
        // RMQ's; the Lemma 2.3 tests below are `in_first_ids`/`in_last_ids`
        // with those leaves.
        let pn = tree.leaf(p);
        let qn = tree.leaf(q);
        let n = self.leaf_lca(p, q);

        // Case (1): lab(n) = ·, q ∈ First(Rchild(n)), p ∈ Last(Lchild(n)).
        // In preorder the left child of n is n + 1.
        let r = tree.concat_rchild(n);
        if r != NONE
            && tree.is_ancestor_ids(r, qn)
            && tree.is_ancestor_ids(tree.psf(q), r)
            && tree.is_ancestor_ids(n + 1, pn)
            && tree.is_ancestor_ids(tree.psl(p), n + 1)
        {
            return true;
        }

        // Case (2): q ∈ First(s), p ∈ Last(s) for s the lowest iterating
        // ancestor of n.
        let s = tree.p_star_id(n);
        s != NONE
            && tree.is_ancestor_ids(s, qn)
            && tree.is_ancestor_ids(tree.psf(q), s)
            && tree.is_ancestor_ids(s, pn)
            && tree.is_ancestor_ids(tree.psl(p), s)
    }

    /// Theorem 2.4: whether `q ∈ Follow(p)`, in constant time.
    #[inline]
    pub fn check_if_follow(&self, p: PosId, q: PosId) -> bool {
        self.follow_ids(p.index() as u32, q.index() as u32)
    }

    /// Like [`Self::check_if_follow`], but reports *how* `q` follows `p`
    /// (Lemma 2.2), or `None` if it does not.
    pub fn follow_kind(&self, p: PosId, q: PosId) -> Option<FollowKind> {
        let pnode = self.tree.pos_node(p);
        let qnode = self.tree.pos_node(q);
        let n = self.lca.query(pnode, qnode);

        // Case (1): lab(n) = ·, q ∈ First(Rchild(n)), p ∈ Last(Lchild(n)).
        let via_concat = if self.tree.kind(n) == NodeKind::Concat {
            let lchild = self.tree.lchild(n).expect("concat has children");
            let rchild = self.tree.rchild(n).expect("concat has children");
            self.tree.in_first(q, rchild) && self.tree.in_last(p, lchild)
        } else {
            false
        };

        // Case (2): q ∈ First(s) and p ∈ Last(s) for s the lowest iterating
        // ancestor of n.
        let via_star = self
            .tree
            .p_star(n)
            .is_some_and(|s| self.tree.in_first(q, s) && self.tree.in_last(p, s));

        match (via_concat, via_star) {
            (true, true) => Some(FollowKind::Both),
            (true, false) => Some(FollowKind::Concat),
            (false, true) => Some(FollowKind::Star),
            (false, false) => None,
        }
    }

    /// Whether `q` follows `p` through a concatenation (Lemma 2.2, case 1).
    #[inline]
    pub fn follows_via_concat(&self, p: PosId, q: PosId) -> bool {
        matches!(
            self.follow_kind(p, q),
            Some(FollowKind::Concat) | Some(FollowKind::Both)
        )
    }

    /// Whether `q` follows `p` through an iterating node (Lemma 2.2, case 2).
    #[inline]
    pub fn follows_via_star(&self, p: PosId, q: PosId) -> bool {
        matches!(
            self.follow_kind(p, q),
            Some(FollowKind::Star) | Some(FollowKind::Both)
        )
    }

    /// Whether the whole expression is nullable (`ε ∈ L(e′)`).
    #[inline]
    pub fn expr_nullable(&self) -> bool {
        self.tree.nullable(self.tree.expr_root())
    }

    /// Whether the word consisting of the single position `p` can end a
    /// match, i.e. whether the phantom end marker `$` follows `p`.
    /// Precomputed: a single bit test.
    #[inline]
    pub fn can_end_at(&self, p: PosId) -> bool {
        self.tree.can_end(p.index() as u32)
    }

    /// Positions labeled with `sym` (delegates to the parse tree).
    #[inline]
    pub fn positions_of_symbol(&self, sym: Symbol) -> &[PosId] {
        self.tree.positions_of_symbol(sym)
    }

    /// Enumerates `Follow(p)` by testing every position. `O(|Pos(e)|)` per
    /// call — a diagnostic/testing helper, not used by the fast algorithms.
    pub fn follow_set_naive(&self, p: PosId) -> Vec<PosId> {
        (0..self.tree.num_positions())
            .map(PosId::from_index)
            .filter(|&q| self.check_if_follow(p, q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_syntax::parse;
    use std::collections::BTreeSet;

    fn setup(input: &str) -> (TreeAnalysis, redet_syntax::Alphabet) {
        let (e, sigma) = parse(input).unwrap();
        (TreeAnalysis::build(&e), sigma)
    }

    /// Reference Follow relation computed with the classical syntax-directed
    /// Glushkov recursion (independent of Lemma 2.2 / LCA machinery).
    fn follow_naive(analysis: &TreeAnalysis) -> BTreeSet<(PosId, PosId)> {
        let tree = analysis.tree();
        let mut follow = BTreeSet::new();
        for n in tree.node_ids() {
            let (iterates, concat) = match tree.kind(n) {
                NodeKind::Concat => (false, true),
                k if k.is_iterating() => (true, false),
                _ => (false, false),
            };
            if concat {
                let l = tree.lchild(n).unwrap();
                let r = tree.rchild(n).unwrap();
                for p in tree.last_set(l) {
                    for q in tree.first_set(r) {
                        follow.insert((p, q));
                    }
                }
            }
            if iterates {
                for p in tree.last_set(n) {
                    for q in tree.first_set(n) {
                        follow.insert((p, q));
                    }
                }
            }
        }
        follow
    }

    fn check_follow_agrees(input: &str) {
        let (analysis, _) = setup(input);
        let expected = follow_naive(&analysis);
        let m = analysis.tree().num_positions();
        for p in 0..m {
            for q in 0..m {
                let (p, q) = (PosId::from_index(p), PosId::from_index(q));
                assert_eq!(
                    analysis.check_if_follow(p, q),
                    expected.contains(&(p, q)),
                    "checkIfFollow({p:?},{q:?}) disagrees on {input}"
                );
            }
        }
    }

    #[test]
    fn theorem_2_4_on_paper_expressions() {
        for input in [
            "a",
            "a b",
            "a + b",
            "(a b + b b? a)*",
            "(a* b a + b b)*",
            "(c?((a b*)(a? c)))*(b a)",
            "(c (b? a?)) a",
            "(c (a? b?)) a",
            "(c (b? a)*) a",
            "(c (b? a)) a",
            "(a (b? a))*",
            "(a (b? a?))*",
            "a? b? c? d?",
            "(a0 + a1 + a2 + a3)*",
            "((a + b)* c)* d",
            "(a b){2,3} c",
            "(a{2,5} + b)* c",
            "(x (a b)* y)*",
        ] {
            check_follow_agrees(input);
        }
    }

    #[test]
    fn follow_ids_and_can_end_agree_with_follow_kind() {
        // follow_kind runs on the Euler-tour Lca and the typed Lemma 2.3
        // tests — an independent oracle for the leaf-pair RMQ behind
        // follow_ids and for the precomputed can_end bitset.
        for input in [
            "a",
            "(a b + b b? a)*",
            "(c?((a b*)(a? c)))*(b a)",
            "(a b){2,3} c",
            "a? b? c? d?",
        ] {
            let (analysis, _) = setup(input);
            let tree = analysis.tree();
            for p in 0..tree.num_positions() {
                let pos = PosId::from_index(p);
                assert_eq!(
                    tree.can_end(p as u32),
                    analysis.follow_kind(pos, tree.end_pos()).is_some(),
                    "{input}: can_end({pos:?})"
                );
                for q in 0..tree.num_positions() {
                    let qos = PosId::from_index(q);
                    assert_eq!(
                        analysis.follow_ids(p as u32, q as u32),
                        analysis.follow_kind(pos, qos).is_some(),
                        "{input}: follow({pos:?},{qos:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn example_2_1_follow_sets() {
        // e1 = (ab + b(b?)a)*: Follow(p3) = {p4, p5}.
        let (analysis, _) = setup("(a b + b (b?) a)*");
        let p = |i: usize| PosId::from_index(i); // p0 = #, p1..p5 = positions, p6 = $
        let follow_p3: Vec<_> = analysis
            .follow_set_naive(p(3))
            .into_iter()
            .filter(|q| *q != analysis.tree().end_pos())
            .collect();
        assert_eq!(follow_p3, vec![p(4), p(5)]);

        // e2 = (a*ba + bb)*: Follow(q3) = {q1, q2, q4}.
        let (analysis2, _) = setup("(a* b a + b b)*");
        let follow_q3: Vec<_> = analysis2
            .follow_set_naive(p(3))
            .into_iter()
            .filter(|q| *q != analysis2.tree().end_pos())
            .collect();
        assert_eq!(follow_q3, vec![p(1), p(2), p(4)]);
    }

    #[test]
    fn figure1_follow_examples() {
        // In e0 (Figure 1): p4 ∈ Follow·(p3) and p1 ∈ Follow∗(p5).
        let (analysis, _) = setup("(c?((a b*)(a? c)))*(b a)");
        let p = PosId::from_index;
        assert!(analysis.follows_via_concat(p(3), p(4)));
        assert!(analysis.follows_via_star(p(5), p(1)));
        assert!(!analysis.follows_via_concat(p(5), p(1)));
    }

    #[test]
    fn begin_and_end_markers() {
        let (analysis, sigma) = setup("(a b)*");
        let begin = analysis.tree().begin_pos();
        let a1 = analysis
            .tree()
            .positions_of_symbol(sigma.lookup("a").unwrap())[0];
        let b2 = analysis
            .tree()
            .positions_of_symbol(sigma.lookup("b").unwrap())[0];
        // # is followed by First(e′) and, since e′ is nullable, by $.
        assert!(analysis.check_if_follow(begin, a1));
        assert!(!analysis.check_if_follow(begin, b2));
        assert!(analysis.check_if_follow(begin, analysis.tree().end_pos()));
        assert!(analysis.expr_nullable());
        // b can end a word, a cannot.
        assert!(analysis.can_end_at(b2));
        assert!(!analysis.can_end_at(a1));
    }

    #[test]
    fn self_follow_through_star() {
        let (analysis, _) = setup("a*");
        let a = PosId::from_index(1);
        assert_eq!(analysis.follow_kind(a, a), Some(FollowKind::Star));
        let (analysis, _) = setup("a b");
        let a = PosId::from_index(1);
        assert_eq!(analysis.follow_kind(a, a), None);
    }

    #[test]
    fn follow_kind_both() {
        // In (a b)* with p = b, q = a: q follows p only via the star.
        // In (a a)* with p = a1, q = a2: via concat; and a2 -> a1 via star.
        let (analysis, _) = setup("(a b?)*");
        let a = PosId::from_index(1);
        let b = PosId::from_index(2);
        // b? is nullable so a follows a via star; b follows a via concat.
        assert_eq!(analysis.follow_kind(a, b), Some(FollowKind::Concat));
        assert_eq!(analysis.follow_kind(a, a), Some(FollowKind::Star));
        assert_eq!(analysis.follow_kind(b, a), Some(FollowKind::Star));
    }

    #[test]
    fn repeat_nodes_follow_like_stars_when_they_iterate() {
        let (analysis, _) = setup("(a b){2,4} c");
        let a = PosId::from_index(1);
        let b = PosId::from_index(2);
        let c = PosId::from_index(3);
        assert!(analysis.check_if_follow(b, a), "iteration edge");
        assert!(analysis.check_if_follow(b, c), "exit edge");
        assert!(analysis.check_if_follow(a, b));
        assert!(!analysis.check_if_follow(a, c));
    }
}
