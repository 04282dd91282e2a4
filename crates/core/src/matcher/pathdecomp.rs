//! The path-decomposition matcher (Section 4.3, Theorem 4.10).
//!
//! The parse tree is partitioned into vertical paths. A node starts a new
//! path (is *top-most*) when it is the root, a `SupLast` or `SupFirst` node,
//! a nullable right child, or the right child of a union. For every
//! position `p`, `h(top(p), lab(p)) = p` aggregates the "where could a
//! symbol continue" information at the top of the path just left of
//! `pSupFirst(p)` — Lemma 4.5 shows that determinism makes this aggregation
//! collision-free.
//!
//! Transition simulation (`FindNext`, Algorithm 3) climbs from the current
//! position towards its `pSupLast` node following precomputed `nexttop`
//! pointers, testing the `h` entry at every hop with `checkIfFollow`, and
//! finally looks into `First(parent(pSupLast(p)))`. The potential-function
//! argument of Lemma 4.9 bounds the number of hops per input symbol by
//! `O(c_e)` amortized, where `c_e` is the maximal depth of alternating union
//! and concatenation operators (at most 4 in real-world DTDs).

use crate::matcher::TransitionSim;
use redet_syntax::Symbol;
use redet_tree::{NodeId, NodeKind, PosId, TreeAnalysis};
use std::collections::HashMap;
use std::sync::Arc;

/// Error raised while building the path decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathDecompositionError {
    /// Two positions collided in `h`, which by Lemma 4.5 cannot happen for
    /// deterministic expressions.
    Collision {
        /// The first colliding position.
        first: PosId,
        /// The second colliding position.
        second: PosId,
    },
    /// The expression contains numeric occurrence indicators; the path
    /// decomposition invariants (Lemmas 4.5 and 4.7) are stated for the
    /// `∗`-only grammar of Section 2, so counted expressions must be
    /// unrolled first (the facade does this automatically).
    CountingNotSupported,
}

impl std::fmt::Display for PathDecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathDecompositionError::Collision { first, second } => write!(
                f,
                "path decomposition collision between positions {first:?} and {second:?}: the expression is not deterministic"
            ),
            PathDecompositionError::CountingNotSupported => write!(
                f,
                "numeric occurrence indicators must be unrolled before path-decomposition matching"
            ),
        }
    }
}

impl std::error::Error for PathDecompositionError {}

/// Transition simulation via a path decomposition of the parse tree
/// (Theorem 4.10).
#[derive(Clone, Debug)]
pub struct PathDecompositionMatcher {
    analysis: Arc<TreeAnalysis>,
    /// Whether each node is the top-most node of its path.
    is_top: Vec<bool>,
    /// `f[m]` — the `nexttop` value applicable to the children of `m`
    /// (so `nexttop(n) = f[parent(n)]`).
    next_top_of_children: Vec<NodeId>,
    /// `h(top-most node, symbol) → position` (hash-backed, as the paper
    /// recommends for practice).
    h: HashMap<(NodeId, Symbol), PosId>,
    /// The paper's `c_e` for this expression.
    plus_depth: usize,
}

impl PathDecompositionMatcher {
    /// Builds the matcher from the shared pipeline artifact, reusing its
    /// parse-tree analysis.
    pub fn from_compiled(
        compiled: &crate::pipeline::CompiledAnalysis,
    ) -> Result<Self, PathDecompositionError> {
        Self::new(compiled.analysis().clone())
    }

    /// Builds the matcher in `O(|e|)` time.
    pub fn new(analysis: Arc<TreeAnalysis>) -> Result<Self, PathDecompositionError> {
        let tree = analysis.tree();
        let n = tree.num_nodes();

        // Counters must be unrolled first, and native `e+` is rejected too:
        // the path/`nexttop`/`h` invariants (Lemmas 4.5–4.9) are proven for
        // the `∗`-only grammar of Section 2, where every iterating node is
        // nullable — a non-nullable iterator breaks the top-most node
        // classification (cross-validation catches real misses). The facade
        // routes `e+` expressions to the k-occurrence or colored-ancestor
        // matchers instead, which handle plus natively.
        if tree
            .node_ids()
            .any(|node| matches!(tree.kind(node), NodeKind::Repeat(_, _)))
        {
            return Err(PathDecompositionError::CountingNotSupported);
        }

        // 1. The path decomposition: top-most nodes.
        let mut is_top = vec![false; n];
        for node in tree.node_ids() {
            let top = match tree.parent(node) {
                None => true,
                Some(parent) => {
                    tree.sup_last(node)
                        || tree.sup_first(node)
                        || (tree.rchild(parent) == Some(node)
                            && (tree.nullable(node) || tree.kind(parent) == NodeKind::Union))
                }
            };
            is_top[node.index()] = top;
        }

        // 2. Path tops and the nexttop pointers, in one top-down sweep.
        //    For every node m we compute
        //      t[m]    — the top of m's path,
        //      flag[m] — whether m's path contains a non-nullable ·-labeled
        //                ancestor-or-self of m (within the path),
        //      fb[m]   — the fallback value f(parent(t[m])),
        //    and derive f[m], the nexttop value for children of m.
        let mut path_top = vec![NodeId::from_index(0); n];
        let mut flag = vec![false; n];
        let mut fallback = vec![NodeId::from_index(0); n];
        let mut f = vec![NodeId::from_index(0); n];
        for node in tree.node_ids() {
            let idx = node.index();
            let non_nullable_concat = tree.kind(node) == NodeKind::Concat && !tree.nullable(node);
            match tree.parent(node) {
                None => {
                    path_top[idx] = node;
                    flag[idx] = non_nullable_concat;
                    fallback[idx] = node;
                }
                Some(parent) => {
                    if is_top[idx] {
                        path_top[idx] = node;
                        flag[idx] = non_nullable_concat;
                        fallback[idx] = f[parent.index()];
                    } else {
                        path_top[idx] = path_top[parent.index()];
                        flag[idx] = flag[parent.index()] || non_nullable_concat;
                        fallback[idx] = fallback[parent.index()];
                    }
                }
            }
            let top = path_top[idx];
            let stop_here = tree.parent(top).is_none()
                || tree.sup_last(top)
                || tree.sup_first(top)
                || flag[idx];
            f[idx] = if stop_here { top } else { fallback[idx] };
        }

        // 3. The aggregated candidate table h(top(p), lab(p)) = p.
        let mut h = HashMap::with_capacity(tree.num_positions());
        for (pos, sym) in tree.symbol_positions() {
            let leaf = tree.pos_node(pos);
            let sup_first = tree
                .p_sup_first(leaf)
                .expect("alphabet positions have a pSupFirst node");
            let parent = tree
                .parent(sup_first)
                .expect("pSupFirst nodes have parents");
            let left_sibling = tree
                .lchild(parent)
                .expect("parents of SupFirst nodes are concatenations");
            let top = path_top[left_sibling.index()];
            if let Some(&other) = h.get(&(top, sym)) {
                return Err(PathDecompositionError::Collision {
                    first: other,
                    second: pos,
                });
            }
            h.insert((top, sym), pos);
        }

        let plus_depth = plus_depth_of_tree(&analysis);

        Ok(PathDecompositionMatcher {
            analysis,
            is_top,
            next_top_of_children: f,
            h,
            plus_depth,
        })
    }

    /// `nexttop(n)` — the next aggregation point above `n`.
    fn next_top(&self, n: NodeId) -> Option<NodeId> {
        let parent = self.analysis.tree().parent(n)?;
        Some(self.next_top_of_children[parent.index()])
    }

    /// The paper's `c_e`: the maximal depth of alternating union and
    /// concatenation operators (the amortized per-symbol cost).
    pub fn plus_depth(&self) -> usize {
        self.plus_depth
    }

    /// Number of paths in the decomposition (diagnostics / experiments).
    pub fn num_paths(&self) -> usize {
        self.is_top.iter().filter(|&&t| t).count()
    }

    fn h_follow(&self, node: NodeId, symbol: Symbol, p: PosId) -> Option<PosId> {
        let q = *self.h.get(&(node, symbol))?;
        self.analysis.check_if_follow(p, q).then_some(q)
    }
}

impl TransitionSim for PathDecompositionMatcher {
    fn analysis(&self) -> &TreeAnalysis {
        &self.analysis
    }

    /// `FindNext` (Algorithm 3).
    fn find_next(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
        let tree = self.analysis.tree();
        let leaf = tree.pos_node(p);
        let sup_last = tree.p_sup_last(leaf)?;

        // Lines 1–5: climb the jump sequence until pSupLast(p), testing the
        // aggregated candidates along the way.
        let mut x = leaf;
        while x != sup_last {
            if let Some(q) = self.h_follow(x, symbol, p) {
                return Some(q);
            }
            match self.next_top(x) {
                Some(next) if next != x => x = next,
                _ => break, // defensive: reached the root
            }
        }
        // Line 6–7: the candidate at pSupLast(p) itself.
        if let Some(q) = self.h_follow(x, symbol, p) {
            return Some(q);
        }

        // Lines 8–14: look into First(parent(pSupLast(p))).
        let parent_x = tree.parent(x)?;
        let y = tree.p_sup_first(parent_x)?;
        let q = if tree.nullable(y) {
            self.next_top(y)
                .and_then(|target| self.h.get(&(target, symbol)).copied())
        } else {
            let parent_y = tree.parent(y)?;
            let left_sibling = tree.lchild(parent_y)?;
            self.h.get(&(left_sibling, symbol)).copied()
        };
        q.filter(|&q| self.analysis.check_if_follow(p, q))
    }
}

/// Computes `c_e` directly from the parse tree (alternation depth of unions
/// and concatenations along root-to-leaf paths, unary operators being
/// transparent).
fn plus_depth_of_tree(analysis: &TreeAnalysis) -> usize {
    let tree = analysis.tree();
    // `ctx[n]` — the kind of the nearest binary ancestor-or-self of n
    // (unary operators are transparent); `depth[n]` — number of
    // alternations between · and + blocks on the path from the root to n.
    let mut ctx: Vec<Option<NodeKind>> = vec![None; tree.num_nodes()];
    let mut depth = vec![0usize; tree.num_nodes()];
    let mut best = 0;
    for node in tree.node_ids() {
        let own = tree.kind(node);
        let (parent_ctx, parent_depth) = tree
            .parent(node)
            .map(|p| (ctx[p.index()], depth[p.index()]))
            .unwrap_or((None, 0));
        let (c, d) = match own {
            NodeKind::Union | NodeKind::Concat => {
                if parent_ctx == Some(own) {
                    (Some(own), parent_depth)
                } else {
                    (Some(own), parent_depth + 1)
                }
            }
            _ => (parent_ctx, parent_depth),
        };
        ctx[node.index()] = c;
        depth[node.index()] = d;
        best = best.max(d);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::testutil::{assert_agrees_with_baseline, DETERMINISTIC_EXPRESSIONS};
    use crate::matcher::PositionMatcher;
    use redet_automata::PosStepper;
    use redet_syntax::parse_with_alphabet;

    fn build(e: &redet_syntax::Regex) -> PathDecompositionMatcher {
        PathDecompositionMatcher::new(Arc::new(TreeAnalysis::build(e))).expect("deterministic")
    }

    #[test]
    fn agrees_with_glushkov_dfa() {
        for input in DETERMINISTIC_EXPRESSIONS {
            let (e, _) = redet_syntax::parse(input).unwrap();
            if e.has_plus() {
                // Native `e+` is outside the `∗`-only grammar the path
                // decomposition is proven for; the matcher rejects it.
                continue;
            }
            assert_agrees_with_baseline(input, 5, |e| PositionMatcher::new(build(e)));
        }
    }

    #[test]
    fn rejects_native_plus() {
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("(a b)+, c", &mut sigma).unwrap();
        assert_eq!(
            PathDecompositionMatcher::new(Arc::new(TreeAnalysis::build(&e))).unwrap_err(),
            PathDecompositionError::CountingNotSupported
        );
    }

    #[test]
    fn long_words_on_figure1() {
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("(c?((a b*)(a? c)))*(b a)", &mut sigma).unwrap();
        let m = PositionMatcher::new(build(&e));
        let baseline = redet_automata::GlushkovDfaMatcher::build(&e).unwrap();
        let word = |text: &str| -> Vec<Symbol> {
            text.split_whitespace()
                .map(|t| sigma.lookup(t).unwrap())
                .collect()
        };
        for text in [
            "b a",
            "c a c b a",
            "a b b b a c a b c b a",
            "c a b c a b b a c c a c b a",
            "a c a c a c a c a c b a",
            "a b b b b b b b a c b a",
            "c a b b c a c b a b a",
        ] {
            let w = word(text);
            assert_eq!(m.matches(&w), baseline.matches(&w), "{text:?}");
        }
    }

    #[test]
    fn decomposition_statistics() {
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("(a + b)* (c + d)? e", &mut sigma).unwrap();
        let m = build(&e);
        assert!(m.num_paths() >= 1);
        assert!(m.num_paths() <= TreeAnalysis::build(&e).tree().num_nodes());
        assert_eq!(m.plus_depth(), 2);
    }

    #[test]
    fn deep_alternation_still_correct() {
        // c_e grows with nesting; correctness must not depend on it.
        let mut expr = String::from("a0");
        for i in 1..10 {
            expr = format!("(b{i} + {expr} c{i})");
        }
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet(&expr, &mut sigma).unwrap();
        let m = PositionMatcher::new(build(&e));
        let baseline = redet_automata::GlushkovDfaMatcher::build(&e).unwrap();
        // The single accepted "all-nested" word.
        let mut word = Vec::new();
        word.push(sigma.lookup("a0").unwrap());
        for i in 1..10 {
            word.push(sigma.lookup(&format!("c{i}")).unwrap());
        }
        assert!(baseline.matches(&word));
        assert!(m.matches(&word));
        assert_eq!(
            m.matches(&[sigma.lookup("b3").unwrap()]),
            baseline.matches(&[sigma.lookup("b3").unwrap()])
        );
    }
}
