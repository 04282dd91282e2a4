//! Colors, witnesses and per-symbol skeleta (Section 3.1).
//!
//! The linear-time determinism test cannot afford to look at the
//! quadratically many candidate pairs of equally-labeled positions. Instead
//! it works per symbol `a` on the **a-skeleton** of the parse tree: the
//! LCA-closure of all `a`-positions and all nodes *colored* `a`, extended
//! with their `pSupLast`/`pStar` nodes. The skeleton has size linear in the
//! number of `a`-positions, so all skeleta together have size `O(|e|)`
//! (Lemma 3.1).
//!
//! * a node `n` is **colored** `a` with **witness** `p` when `p` is an
//!   `a`-labeled position and `n = parent(pSupFirst(p))` — by Lemma 2.5 any
//!   `a`-position following some `p₀` is a witness at an ancestor of `p₀`;
//! * **(P1)**: two distinct positions with the same `pSupFirst` must carry
//!   different labels, otherwise the expression is non-deterministic;
//! * `FirstPos(n, a)` — the unique `a`-position in `First(n)`, if any;
//! * `Next(n, a)` — the `a`-positions in `FollowAfter(n)`, computed by
//!   `BuildNext` (Algorithm 1); **(P2)** requires at most one element.

use crate::determinism::{NonDeterminism, NonDeterminismKind};
use redet_syntax::Symbol;
use redet_tree::{NodeId, NodeKind, PosId, TreeAnalysis};

/// The color/witness assignment of Section 3.1 (after checking (P1)).
#[derive(Clone, Debug, Default)]
pub struct ColorAssignment {
    /// `(colored node, color, witness position)` triples, one per alphabet
    /// position of the expression.
    pub assignments: Vec<(NodeId, Symbol, PosId)>,
}

impl ColorAssignment {
    /// Assigns colors and witnesses and checks condition (P1).
    ///
    /// Returns the non-determinism witness if (P1) fails: two distinct
    /// positions with the same label and the same `pSupFirst` node.
    pub fn build(analysis: &TreeAnalysis) -> Result<Self, NonDeterminism> {
        let tree = analysis.tree();
        let mut assignments = Vec::with_capacity(tree.num_positions());
        let mut seen: std::collections::HashMap<(NodeId, Symbol), PosId> =
            std::collections::HashMap::with_capacity(tree.num_positions());

        for (pos, sym) in tree.symbol_positions() {
            let leaf = tree.pos_node(pos);
            let sup_first = tree
                .p_sup_first(leaf)
                .expect("R1 guarantees pSupFirst is defined inside e′");
            let colored = tree
                .parent(sup_first)
                .expect("pSupFirst nodes have a parent");
            if let Some(&other) = seen.get(&(colored, sym)) {
                return Err(NonDeterminism {
                    kind: NonDeterminismKind::DuplicateFirst,
                    symbol: sym,
                    first: other,
                    second: pos,
                });
            }
            seen.insert((colored, sym), pos);
            assignments.push((colored, sym, pos));
        }
        Ok(ColorAssignment { assignments })
    }

    /// The `(node, color)` pairs, without witnesses — the input expected by
    /// the lowest-colored-ancestor structure.
    pub fn node_colors(&self) -> Vec<(NodeId, Symbol)> {
        self.assignments.iter().map(|&(n, c, _)| (n, c)).collect()
    }
}

/// A node of an a-skeleton.
#[derive(Clone, Debug)]
pub struct SkeletonNode {
    /// The corresponding parse-tree node.
    pub node: NodeId,
    /// Parent in the skeleton (index into [`Skeleton::nodes`]).
    pub parent: Option<u32>,
    /// Left child in the skeleton: the topmost skeleton node lying in the
    /// subtree of the *left* (or only) child of `node` in the parse tree.
    pub lchild: Option<u32>,
    /// Right child in the skeleton (subtree of the right parse-tree child).
    pub rchild: Option<u32>,
    /// `Witness(node, a)` — the witness if `node` has color `a`.
    pub witness: Option<PosId>,
    /// `FirstPos(node, a)` — the unique `a`-position in `First(node)`.
    pub first_pos: Option<PosId>,
    /// `Next(node, a)` — the unique `a`-position in `FollowAfter(node)`
    /// (after (P2) has been verified).
    pub next: Option<PosId>,
}

/// The a-skeleton of the parse tree for one symbol `a` (Section 3.1).
#[derive(Clone, Debug)]
pub struct Skeleton {
    /// The symbol this skeleton belongs to.
    pub symbol: Symbol,
    /// Skeleton nodes sorted by parse-tree preorder (so index 0 is the
    /// skeleton root).
    pub nodes: Vec<SkeletonNode>,
}

impl Skeleton {
    /// Looks up the skeleton entry of a parse-tree node.
    pub fn find(&self, node: NodeId) -> Option<&SkeletonNode> {
        self.nodes
            .binary_search_by_key(&node, |sn| sn.node)
            .ok()
            .map(|i| &self.nodes[i])
    }

    /// Number of skeleton nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the skeleton is empty (never true for symbols that occur).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn build(
        analysis: &TreeAnalysis,
        symbol: Symbol,
        colored: &[(NodeId, PosId)],
    ) -> Result<Self, NonDeterminism> {
        let tree = analysis.tree();

        // 1. Seeds: a-positions and a-colored nodes.
        let mut seeds: Vec<NodeId> = tree
            .positions_of_symbol(symbol)
            .iter()
            .map(|&p| tree.pos_node(p))
            .chain(colored.iter().map(|&(n, _)| n))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();

        // 2. LCA closure (class-a nodes): add the LCA of each consecutive
        // pair of seeds in preorder.
        let mut class: Vec<NodeId> = seeds.clone();
        for pair in seeds.windows(2) {
            class.push(analysis.lca().query(pair[0], pair[1]));
        }
        class.sort_unstable();
        class.dedup();

        // 3. Extend with pSupLast and pStar of every class-a node; the
        // result remains LCA-closed (ancestors of an LCA-closed set).
        let mut extended = class.clone();
        for &n in &class {
            if let Some(x) = tree.p_sup_last(n) {
                extended.push(x);
            }
            if let Some(x) = tree.p_star(n) {
                extended.push(x);
            }
        }
        extended.sort_unstable();
        extended.dedup();

        // 4. Tree structure via a preorder sweep with an ancestor stack.
        let witness_of: std::collections::HashMap<NodeId, PosId> =
            colored.iter().copied().collect();
        let mut nodes: Vec<SkeletonNode> = extended
            .iter()
            .map(|&n| SkeletonNode {
                node: n,
                parent: None,
                lchild: None,
                rchild: None,
                witness: witness_of.get(&n).copied(),
                first_pos: None,
                next: None,
            })
            .collect();
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..nodes.len() {
            let n = nodes[i].node;
            while let Some(&top) = stack.last() {
                if tree.is_strict_ancestor(nodes[top].node, n) {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                nodes[i].parent = Some(top as u32);
                let parent_node = nodes[top].node;
                let is_right = tree
                    .rchild(parent_node)
                    .is_some_and(|r| tree.is_ancestor(r, n));
                if is_right {
                    debug_assert!(nodes[top].rchild.is_none(), "LCA closure violated");
                    nodes[top].rchild = Some(i as u32);
                } else {
                    debug_assert!(nodes[top].lchild.is_none(), "LCA closure violated");
                    nodes[top].lchild = Some(i as u32);
                }
            }
            stack.push(i);
        }

        let mut skeleton = Skeleton { symbol, nodes };
        skeleton.compute_first_pos(analysis)?;
        skeleton.build_next(analysis)?;
        Ok(skeleton)
    }

    /// Computes `FirstPos(n, a)` bottom-up. Two distinct `a`-positions in
    /// the same `First`-set prove non-determinism (see Section 3.1), which is
    /// reported as an error.
    fn compute_first_pos(&mut self, analysis: &TreeAnalysis) -> Result<(), NonDeterminism> {
        let tree = analysis.tree();
        for i in (0..self.nodes.len()).rev() {
            let node = self.nodes[i].node;
            let mut candidate: Option<PosId> = None;
            let consider =
                |p: Option<PosId>, candidate: &mut Option<PosId>| -> Option<(PosId, PosId)> {
                    let p = p?;
                    if !tree.in_first(p, node) {
                        return None;
                    }
                    match *candidate {
                        None => {
                            *candidate = Some(p);
                            None
                        }
                        Some(existing) if existing == p => None,
                        Some(existing) => Some((existing, p)),
                    }
                };
            // The node itself, if it is an a-position.
            let own = tree
                .node_pos(node)
                .filter(|&p| tree.symbol_at(p) == Some(self.symbol));
            let children = [self.nodes[i].lchild, self.nodes[i].rchild];
            let mut conflict = consider(own, &mut candidate);
            for child in children.into_iter().flatten() {
                if conflict.is_some() {
                    break;
                }
                conflict = consider(self.nodes[child as usize].first_pos, &mut candidate);
            }
            if let Some((first, second)) = conflict {
                let (first, second) = if first < second {
                    (first, second)
                } else {
                    (second, first)
                };
                return Err(NonDeterminism {
                    kind: NonDeterminismKind::AmbiguousFirst,
                    symbol: self.symbol,
                    first,
                    second,
                });
            }
            self.nodes[i].first_pos = candidate;
        }
        Ok(())
    }

    /// `BuildNext` (Algorithm 1): computes `Next(n, a)` for every skeleton
    /// node and checks condition (P2) along the way.
    fn build_next(&mut self, analysis: &TreeAnalysis) -> Result<(), NonDeterminism> {
        if self.nodes.is_empty() {
            return Ok(());
        }
        let tree = analysis.tree();

        // Iterative depth-first traversal carrying the candidate set Y
        // (never more than two positions, checked like the paper's |Y| > 2).
        let mut stack: Vec<(usize, CandidateSet)> = vec![(0, CandidateSet::default())];
        while let Some((i, mut y)) = stack.pop() {
            let node = self.nodes[i].node;

            // Line 1–2: a SupLast node cuts off everything accumulated above.
            if tree.sup_last(node) {
                y.clear();
            }

            // Lines 3–6: positions starting in the right sibling's First-set
            // follow after this subtree (through the concatenation parent).
            if let Some(parent_idx) = self.nodes[i].parent {
                let parent_idx = parent_idx as usize;
                let parent_node = self.nodes[parent_idx].node;
                let is_left_child = self.nodes[parent_idx].lchild == Some(i as u32);
                let right_sibling = self.nodes[parent_idx].rchild;
                if let Some(sibling) = right_sibling {
                    if tree.kind(parent_node) == NodeKind::Concat
                        && is_left_child
                        && (!tree.sup_last(node) || Some(parent_node) == tree.parent(node))
                    {
                        y.insert(self.nodes[sibling as usize].first_pos);
                    }
                }
            }

            // Line 7: Next(n, a) = positions of Y outside the subtree of n.
            let mut next: Option<PosId> = None;
            for p in y.iter() {
                if !tree.is_ancestor(node, tree.pos_node(p)) {
                    match next {
                        None => next = Some(p),
                        Some(existing) if existing == p => {}
                        Some(existing) => {
                            // (P2) violated: two positions follow after n.
                            let (first, second) = if existing < p {
                                (existing, p)
                            } else {
                                (p, existing)
                            };
                            return Err(NonDeterminism {
                                kind: NonDeterminismKind::ConflictingNext,
                                symbol: self.symbol,
                                first,
                                second,
                            });
                        }
                    }
                }
            }
            self.nodes[i].next = next;

            // Lines 8–9: an iterating node feeds its own First back into Y.
            if tree.kind(node).is_iterating() {
                y.insert(self.nodes[i].first_pos);
            }

            // Line 10–11: more than two candidates prove non-determinism.
            if y.len() > 2 {
                let mut it = y.iter();
                let first = it.next().expect("len > 2");
                let second = it.next().expect("len > 2");
                return Err(NonDeterminism {
                    kind: NonDeterminismKind::ConflictingNext,
                    symbol: self.symbol,
                    first: first.min(second),
                    second: first.max(second),
                });
            }

            // Lines 12–17: recurse into the skeleton children.
            if let Some(r) = self.nodes[i].rchild {
                stack.push((r as usize, y.clone()));
            }
            if let Some(l) = self.nodes[i].lchild {
                stack.push((l as usize, y));
            }
        }
        Ok(())
    }
}

/// The candidate set `Y` of Algorithm 1 — at most a handful of positions
/// (the algorithm aborts as soon as more than two accumulate).
#[derive(Clone, Debug, Default)]
struct CandidateSet {
    items: Vec<PosId>,
}

impl CandidateSet {
    fn clear(&mut self) {
        self.items.clear();
    }

    fn insert(&mut self, p: Option<PosId>) {
        if let Some(p) = p {
            if !self.items.contains(&p) {
                self.items.push(p);
            }
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn iter(&self) -> impl Iterator<Item = PosId> + '_ {
        self.items.iter().copied()
    }
}

/// The collection of a-skeleta for all symbols of the expression
/// (total size `O(|e|)`, Lemma 3.1).
#[derive(Clone, Debug)]
pub struct Skeleta {
    per_symbol: Vec<Option<Skeleton>>,
}

impl Skeleta {
    /// Builds every per-symbol skeleton, checking (P1)-adjacent conditions
    /// and (P2) along the way.
    pub fn build(
        analysis: &TreeAnalysis,
        colors: &ColorAssignment,
    ) -> Result<Self, NonDeterminism> {
        let tree = analysis.tree();
        let num_symbols = tree.num_symbols();
        // Group colored nodes by color.
        let mut colored: Vec<Vec<(NodeId, PosId)>> = vec![Vec::new(); num_symbols];
        for &(node, sym, witness) in &colors.assignments {
            colored[sym.index()].push((node, witness));
        }

        let mut per_symbol = Vec::with_capacity(num_symbols);
        for (sym_index, colored) in colored.iter().enumerate() {
            let symbol = Symbol::from_index(sym_index);
            if tree.positions_of_symbol(symbol).is_empty() {
                per_symbol.push(None);
                continue;
            }
            per_symbol.push(Some(Skeleton::build(analysis, symbol, colored)?));
        }
        Ok(Skeleta { per_symbol })
    }

    /// The skeleton of `symbol`, if that symbol occurs in the expression.
    pub fn get(&self, symbol: Symbol) -> Option<&Skeleton> {
        self.per_symbol.get(symbol.index())?.as_ref()
    }

    /// Iterates over all non-empty skeleta.
    pub fn iter(&self) -> impl Iterator<Item = &Skeleton> {
        self.per_symbol.iter().flatten()
    }

    /// Total number of skeleton nodes across all symbols (Lemma 3.1 bounds
    /// this by `O(|e|)`).
    pub fn total_nodes(&self) -> usize {
        self.iter().map(Skeleton::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_syntax::parse;

    fn setup(input: &str) -> (TreeAnalysis, redet_syntax::Alphabet) {
        let (e, sigma) = parse(input).unwrap();
        (TreeAnalysis::build(&e), sigma)
    }

    #[test]
    fn colors_of_figure_1() {
        // e0 = (c?((ab*)(a?c)))*(ba): Figure 1 annotates node n3 (the inner
        // concatenation (a b*)·(a? c)) with colors {a, c}, witnessed by p4
        // (the second a) and p5 (the second c); node n1 (root of e′) has
        // colors {a, c} for p2/p1... We verify the stable facts: every
        // alphabet position yields exactly one assignment, and the witness
        // map contains (n3, a) → p4 and (n3, c) → p5.
        let (analysis, sigma) = setup("(c?((a b*)(a? c)))*(b a)");
        let colors = ColorAssignment::build(&analysis).unwrap();
        assert_eq!(colors.assignments.len(), 7);
        let a = sigma.lookup("a").unwrap();
        let c = sigma.lookup("c").unwrap();
        let tree = analysis.tree();
        let p4 = PosId::from_index(4);
        let p5 = PosId::from_index(5);
        // p4 = the a of (a? c), p5 = the c of (a? c); their pSupFirst is the
        // (a? c) node, whose parent is the concatenation (a b*)(a? c) = n3.
        let n3 = tree
            .parent(analysis.tree().p_sup_first(tree.pos_node(p4)).unwrap())
            .unwrap();
        assert!(colors.assignments.contains(&(n3, a, p4)));
        let n3c = tree
            .parent(analysis.tree().p_sup_first(tree.pos_node(p5)).unwrap())
            .unwrap();
        assert_eq!(n3, n3c, "p4 and p5 witness colors at the same node");
        assert!(colors.assignments.contains(&(n3, c, p5)));
    }

    #[test]
    fn p1_violation_is_detected() {
        // a + a: both a-positions have the same pSupFirst (the root of e′).
        let (analysis, sigma) = setup("a + a");
        let err = ColorAssignment::build(&analysis).unwrap_err();
        assert_eq!(err.kind, NonDeterminismKind::DuplicateFirst);
        assert_eq!(err.symbol, sigma.lookup("a").unwrap());
        assert_ne!(err.first, err.second);
    }

    #[test]
    fn skeleton_sizes_are_linear() {
        let (analysis, _) = setup("(c?((a b*)(a? c)))*(b a)");
        let colors = ColorAssignment::build(&analysis).unwrap();
        let skeleta = Skeleta::build(&analysis, &colors).unwrap();
        // Lemma 3.1: total size linear in |e|.
        assert!(skeleta.total_nodes() <= 4 * analysis.tree().num_nodes());
        for skeleton in skeleta.iter() {
            // Every a-position appears in the a-skeleton.
            for &p in analysis.tree().positions_of_symbol(skeleton.symbol) {
                assert!(
                    skeleton.find(analysis.tree().pos_node(p)).is_some(),
                    "position {p:?} missing from its skeleton"
                );
            }
            // Parent/child pointers are mutually consistent and respect the
            // ancestor relation of the parse tree.
            for (i, sn) in skeleton.nodes.iter().enumerate() {
                if let Some(parent) = sn.parent {
                    let parent = &skeleton.nodes[parent as usize];
                    assert!(analysis.tree().is_strict_ancestor(parent.node, sn.node));
                    assert!(
                        parent.lchild == Some(i as u32) || parent.rchild == Some(i as u32),
                        "child link missing"
                    );
                }
            }
        }
    }

    #[test]
    fn figure1_a_skeleton_shape() {
        // Figure 1 shows the a-skeleton of e0: it contains the three
        // a-positions, the star node, the root concatenation of e′ and the
        // two inner concatenation nodes, among others.
        let (analysis, sigma) = setup("(c?((a b*)(a? c)))*(b a)");
        let colors = ColorAssignment::build(&analysis).unwrap();
        let skeleta = Skeleta::build(&analysis, &colors).unwrap();
        let a = sigma.lookup("a").unwrap();
        let skeleton = skeleta.get(a).unwrap();
        let tree = analysis.tree();
        // All three a-positions present.
        assert_eq!(tree.positions_of_symbol(a).len(), 3);
        // The star node is in the skeleton (it is the pStar of the inner
        // class-a nodes).
        let star = tree.lchild(tree.expr_root()).unwrap();
        assert!(matches!(tree.kind(star), NodeKind::Star));
        assert!(skeleton.find(star).is_some(), "star node missing");
        // The skeleton root is an ancestor of every skeleton node.
        let root = skeleton.nodes[0].node;
        for sn in &skeleton.nodes {
            assert!(tree.is_ancestor(root, sn.node));
        }
    }

    #[test]
    fn first_pos_matches_definition() {
        for input in [
            "(a b + b b? a)*",
            "(c?((a b*)(a? c)))*(b a)",
            "(c (b? a)) a",
            "a? b? a? b?",
            "(a + b)(a + c)",
        ] {
            let (analysis, _) = setup(input);
            let colors = match ColorAssignment::build(&analysis) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let skeleta = match Skeleta::build(&analysis, &colors) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let tree = analysis.tree();
            for skeleton in skeleta.iter() {
                for sn in &skeleton.nodes {
                    // FirstPos(n, a) is the unique a-position in First(n).
                    let expected: Vec<PosId> = tree
                        .first_set(sn.node)
                        .into_iter()
                        .filter(|&p| tree.symbol_at(p) == Some(skeleton.symbol))
                        .collect();
                    match expected.as_slice() {
                        [] => assert_eq!(sn.first_pos, None, "{input}: {:?}", sn.node),
                        [p] => assert_eq!(sn.first_pos, Some(*p), "{input}: {:?}", sn.node),
                        _ => panic!("deterministic input {input} has ambiguous FirstPos"),
                    }
                }
            }
        }
    }

    #[test]
    fn next_matches_follow_after_definition() {
        for input in [
            "(a b + b b? a)*",
            "(c?((a b*)(a? c)))*(b a)",
            "(c (b? a)) a",
            "(a (b? a))*",
            "(a + b)(a + c)",
        ] {
            let (analysis, _) = setup(input);
            let Ok(colors) = ColorAssignment::build(&analysis) else {
                continue;
            };
            let Ok(skeleta) = Skeleta::build(&analysis, &colors) else {
                continue;
            };
            let tree = analysis.tree();
            for skeleton in skeleta.iter() {
                for sn in &skeleton.nodes {
                    // FollowAfter(n) = {q not below n | ∃p ∈ Last(n), q ∈ Follow(p)};
                    // Next(n, a) is its a-labeled part.
                    let mut expected: Vec<PosId> = Vec::new();
                    for p in tree.last_set(sn.node) {
                        for q in analysis.follow_set_naive(p) {
                            if tree.symbol_at(q) == Some(skeleton.symbol)
                                && !tree.is_ancestor(sn.node, tree.pos_node(q))
                                && !expected.contains(&q)
                            {
                                expected.push(q);
                            }
                        }
                    }
                    match expected.as_slice() {
                        [] => assert_eq!(sn.next, None, "{input}: Next({:?})", sn.node),
                        [q] => assert_eq!(sn.next, Some(*q), "{input}: Next({:?})", sn.node),
                        _ => panic!("deterministic input {input} violates (P2) at {:?}", sn.node),
                    }
                }
            }
        }
    }
}
