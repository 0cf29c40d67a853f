//! Disjoint-set union (union-find) with union by rank and path compression.
//!
//! Used by Kruskal, by the Borůvka phase machinery, and by the verifiers.

/// A classic disjoint-set forest over the elements `0..n`.
///
/// ```
/// use lma_mst::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert_eq!(uf.components(), 4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(1, 2));
/// assert_eq!(uf.components(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when there are no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    #[must_use]
    pub fn components(&self) -> usize {
        self.components
    }

    /// The canonical representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` when they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups all elements by representative, in ascending element order
    /// within each group.  Representative order is ascending as well.
    ///
    /// One bucket pass indexed by representative: the representatives are
    /// the self-parented elements, numbered in ascending order.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let roots: Vec<usize> = (0..n).map(|x| self.find(x)).collect();
        let mut sizes = vec![0usize; n];
        for &r in &roots {
            sizes[r] += 1;
        }
        let mut slot = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(self.components);
        for (x, &r) in roots.iter().enumerate() {
            if x == r {
                slot[x] = groups.len();
                groups.push(Vec::with_capacity(sizes[x]));
            }
        }
        for (x, &r) in roots.iter().enumerate() {
            groups[slot[r]].push(x);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.components(), 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        assert!(uf.union(1, 4));
        assert!(uf.same(0, 3));
        assert_eq!(uf.components(), 2);
    }

    #[test]
    fn groups_partition_the_universe() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let groups = uf.groups();
        assert_eq!(groups.len(), 3);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        assert!(groups.iter().any(|g| g == &vec![0, 2, 4]));
        assert!(groups.iter().any(|g| g == &vec![1, 5]));
        assert!(groups.iter().any(|g| g == &vec![3]));
    }

    #[test]
    fn empty_and_len() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.len(), 0);
        assert_eq!(uf.components(), 0);
        let uf = UnionFind::new(3);
        assert!(!uf.is_empty());
        assert_eq!(uf.len(), 3);
    }

    proptest! {
        /// Union-find agrees with a naive labelling implementation on random
        /// operation sequences.
        #[test]
        fn matches_naive_labels(ops in proptest::collection::vec((0usize..20, 0usize..20), 0..200)) {
            let n = 20;
            let mut uf = UnionFind::new(n);
            let mut labels: Vec<usize> = (0..n).collect();
            for (a, b) in ops {
                uf.union(a, b);
                let (la, lb) = (labels[a], labels[b]);
                if la != lb {
                    for l in labels.iter_mut() {
                        if *l == lb {
                            *l = la;
                        }
                    }
                }
            }
            for x in 0..n {
                for y in 0..n {
                    prop_assert_eq!(uf.same(x, y), labels[x] == labels[y]);
                }
            }
            let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
            prop_assert_eq!(uf.components(), distinct.len());
        }

        /// The bucket-pass `groups` equals a `BTreeMap` keyed by
        /// representative: same groups, same ascending orders.
        #[test]
        fn groups_match_a_btreemap_model(
            n in 0usize..40,
            ops in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
        ) {
            let mut uf = UnionFind::new(n);
            for (a, b) in ops.into_iter().filter(|&(a, b)| a < n && b < n) {
                uf.union(a, b);
            }
            let mut model: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for x in 0..n {
                let r = uf.find(x);
                model.entry(r).or_default().push(x);
            }
            let groups = uf.groups();
            prop_assert_eq!(groups.len(), uf.components());
            prop_assert_eq!(groups, model.into_values().collect::<Vec<_>>());
        }
    }
}
