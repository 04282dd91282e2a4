//! Lowest colored ancestor queries (Section 4.1).
//!
//! The determinism test of Section 3 assigns *colors* (alphabet symbols) to
//! internal nodes of the parse tree: a node gets color `a` when an
//! `a`-labeled position has its `pSupFirst` pointer just below it. The
//! matcher of Theorem 4.2 then needs, for a position `p` and a symbol `a`,
//! the **lowest ancestor of `p` with color `a`**.
//!
//! The paper uses the method-lookup structure of Muthukrishnan & Müller
//! \[23\], which answers such queries in `O(log log |e|)` expected time after
//! linear preprocessing. This implementation exploits the laminar structure
//! of subtree intervals:
//!
//! * per color, the colored nodes are kept sorted by preorder number; the
//!   query first finds the colored node `v` with the largest preorder
//!   `≤ pre(p)` (a predecessor query, answered by binary search);
//! * every colored ancestor of `p` is then an ancestor-or-self of `v`, so
//!   the answer is the nearest node on `v`'s same-color ancestor chain whose
//!   subtree interval still contains `p` — found with binary lifting over
//!   precomputed same-color parent pointers.
//!
//! Queries therefore cost `O(log k_a)` (`k_a` = number of `a`-colored
//! nodes), which is `O(log |e|)` worst case; see DESIGN.md ("Substitution
//! ¹") for why this substitution does not affect any qualitative claim the
//! benchmarks reproduce.

use redet_syntax::Symbol;
use redet_tree::{NodeId, ParseTree};

/// Per-color data: colored nodes sorted by preorder, same-color parent
/// pointers and binary-lifting tables.
#[derive(Clone, Debug)]
struct ColorClass {
    /// Colored nodes of this color, sorted by preorder id.
    nodes: Vec<NodeId>,
    /// `parent[i]` — index (into `nodes`) of the nearest strict ancestor of
    /// `nodes[i]` with the same color, or `u32::MAX`.
    parent: Vec<u32>,
    /// Binary lifting table: `up[k][i]` = 2^k-th same-color ancestor of
    /// `nodes[i]` (`u32::MAX` when it does not exist).
    up: Vec<Vec<u32>>,
}

/// The lowest-colored-ancestor structure over a [`ParseTree`].
#[derive(Clone, Debug)]
pub struct ColoredAncestors {
    classes: Vec<Option<ColorClass>>,
}

impl ColoredAncestors {
    /// Builds the structure from a list of `(node, color)` assignments.
    pub fn build(tree: &ParseTree, assignments: &[(NodeId, Symbol)]) -> Self {
        let num_colors = assignments
            .iter()
            .map(|(_, c)| c.index() + 1)
            .max()
            .unwrap_or(0);
        let mut per_color: Vec<Vec<NodeId>> = vec![Vec::new(); num_colors];
        for &(node, color) in assignments {
            per_color[color.index()].push(node);
        }

        let classes = per_color
            .into_iter()
            .map(|mut nodes| {
                if nodes.is_empty() {
                    return None;
                }
                nodes.sort_unstable();
                nodes.dedup();
                Some(ColorClass::build(tree, nodes))
            })
            .collect();

        ColoredAncestors { classes }
    }

    /// The lowest ancestor-or-self of `node` carrying `color`, if any.
    pub fn lowest_colored_ancestor(
        &self,
        tree: &ParseTree,
        node: NodeId,
        color: Symbol,
    ) -> Option<NodeId> {
        let class = self.classes.get(color.index())?.as_ref()?;
        class.query(tree, node)
    }

    /// Reference implementation climbing the parent chain; `O(depth)` per
    /// query. Used by tests and available for diagnostics.
    pub fn lowest_colored_ancestor_naive(
        &self,
        tree: &ParseTree,
        node: NodeId,
        color: Symbol,
    ) -> Option<NodeId> {
        let class = self.classes.get(color.index())?.as_ref()?;
        let mut cur = Some(node);
        while let Some(x) = cur {
            if class.nodes.binary_search(&x).is_ok() {
                return Some(x);
            }
            cur = tree.parent(x);
        }
        None
    }
}

impl ColorClass {
    fn build(tree: &ParseTree, nodes: Vec<NodeId>) -> Self {
        let k = nodes.len();
        // Same-color parent pointers via a stack sweep in preorder: the
        // nearest strict ancestor with the same color is the nearest
        // still-open interval on the stack.
        let mut parent = vec![u32::MAX; k];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..k {
            while let Some(&top) = stack.last() {
                if tree.is_strict_ancestor(nodes[top], nodes[i]) {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                parent[i] = top as u32;
            }
            stack.push(i);
        }

        // Binary lifting table over the same-color parent pointers.
        let levels = (usize::BITS - k.leading_zeros()) as usize;
        let mut up: Vec<Vec<u32>> = Vec::with_capacity(levels.max(1));
        up.push(parent.clone());
        for level in 1..levels.max(1) {
            let prev = &up[level - 1];
            let row: Vec<u32> = (0..k)
                .map(|i| {
                    let mid = prev[i];
                    if mid == u32::MAX {
                        u32::MAX
                    } else {
                        prev[mid as usize]
                    }
                })
                .collect();
            up.push(row);
        }

        ColorClass { nodes, parent, up }
    }

    fn query(&self, tree: &ParseTree, node: NodeId) -> Option<NodeId> {
        // The colored node with the largest preorder `≤ pre(node)`.
        let mut idx = self.nodes.partition_point(|&v| v <= node).checked_sub(1)?;
        if tree.is_ancestor(self.nodes[idx], node) {
            return Some(self.nodes[idx]);
        }
        // Every colored ancestor of `node` is an ancestor of nodes[idx]:
        // climb its same-color chain to the first interval containing
        // `node`. Containment is monotone along the chain, so binary
        // lifting finds the lowest such ancestor.
        for level in (0..self.up.len()).rev() {
            let next = self.up[level][idx];
            if next != u32::MAX && !tree.is_ancestor(self.nodes[next as usize], node) {
                idx = next as usize;
            }
        }
        let final_parent = self.parent[idx];
        if final_parent == u32::MAX {
            return None;
        }
        let candidate = self.nodes[final_parent as usize];
        tree.is_ancestor(candidate, node).then_some(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_syntax::{parse, Symbol};
    use redet_tree::ParseTree;

    /// Deterministic pseudo-random coloring of a tree.
    fn random_coloring(tree: &ParseTree, colors: usize, seed: u64) -> Vec<(NodeId, Symbol)> {
        let mut state = seed;
        let mut out = Vec::new();
        for n in tree.node_ids() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Color roughly half the nodes, possibly with several colors.
            for c in 0..colors {
                if (state >> (c * 7)) & 0b11 == 0 {
                    out.push((n, Symbol::from_index(c)));
                }
            }
        }
        out
    }

    fn check_against_naive(input: &str, colors: usize, seed: u64) {
        let (e, _) = parse(input).unwrap();
        let tree = ParseTree::build(&e);
        let assignments = random_coloring(&tree, colors, seed);
        let structure = ColoredAncestors::build(&tree, &assignments);
        for n in tree.node_ids() {
            for c in 0..colors {
                let color = Symbol::from_index(c);
                assert_eq!(
                    structure.lowest_colored_ancestor(&tree, n, color),
                    structure.lowest_colored_ancestor_naive(&tree, n, color),
                    "query({n:?}, color {c}) on {input} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn agrees_with_naive_climb() {
        for input in [
            "(a b + b b? a)*",
            "(c?((a b*)(a? c)))*(b a)",
            "(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7)*",
            "a (b (c (d (e (f (g h))))))",
            "((((a b) c) d) e) f g h",
            "a? b? c? d? e? f? g? h?",
        ] {
            for seed in 0..5 {
                check_against_naive(input, 3, seed);
            }
        }
    }

    #[test]
    fn empty_and_unknown_colors() {
        let (e, _) = parse("a b c").unwrap();
        let tree = ParseTree::build(&e);
        let structure = ColoredAncestors::build(&tree, &[]);
        assert_eq!(
            structure.lowest_colored_ancestor(&tree, tree.root(), Symbol::from_index(0)),
            None
        );
        let structure = ColoredAncestors::build(&tree, &[(tree.root(), Symbol::from_index(1))]);
        assert_eq!(
            structure.lowest_colored_ancestor(&tree, tree.expr_root(), Symbol::from_index(0)),
            None,
            "color with no assignments"
        );
        assert_eq!(
            structure.lowest_colored_ancestor(&tree, tree.expr_root(), Symbol::from_index(7)),
            None,
            "color beyond the table"
        );
    }

    #[test]
    fn self_color_is_found() {
        let (e, _) = parse("(a b) (c d)").unwrap();
        let tree = ParseTree::build(&e);
        let color = Symbol::from_index(0);
        let node = tree.expr_root();
        let structure = ColoredAncestors::build(&tree, &[(node, color)]);
        assert_eq!(
            structure.lowest_colored_ancestor(&tree, node, color),
            Some(node),
            "a colored node is its own lowest colored ancestor"
        );
    }

    #[test]
    fn deep_chain_queries() {
        // A long left-leaning chain exercises the binary lifting.
        let expr = (0..60)
            .map(|i| format!("x{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        let (e, _) = parse(&expr).unwrap();
        let tree = ParseTree::build(&e);
        // Color every third node on the root path.
        let mut assignments = Vec::new();
        let color = Symbol::from_index(0);
        let mut cur = Some(tree.expr_root());
        let mut i = 0usize;
        while let Some(n) = cur {
            if i % 3 == 0 {
                assignments.push((n, color));
            }
            cur = tree.lchild(n);
            i += 1;
        }
        let structure = ColoredAncestors::build(&tree, &assignments);
        for n in tree.node_ids() {
            assert_eq!(
                structure.lowest_colored_ancestor(&tree, n, color),
                structure.lowest_colored_ancestor_naive(&tree, n, color),
                "node {n:?}"
            );
        }
    }
}
