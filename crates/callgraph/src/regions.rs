//! Module region partitioning.
//!
//! Two modules belong to the same *region* when a merge commit in one can
//! observe or constrain the other: a cross-module call edge binds them, a
//! shared externally visible definition binds them (the ODR hazard rules look
//! across modules), and a discovered candidate pair binds them (the commit
//! itself would couple them). Connected regions partition the corpus into
//! independent sub-programs; the merge pipeline and `salssa callgraph` report
//! how many there are.

/// Partitions `num_modules` modules into connected regions under the given
/// undirected links (module-index pairs; out-of-range indices panic).
/// Returns the regions ordered by their smallest member, each region's module
/// list sorted ascending — a deterministic partition for a deterministic
/// pipeline.
pub fn module_regions(
    num_modules: usize,
    links: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(num_modules);
    for (a, b) in links {
        uf.union(a, b);
    }
    let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); num_modules];
    for m in 0..num_modules {
        by_root[uf.find(m)].push(m);
    }
    // Members were pushed in ascending order; regions come out ordered by
    // smallest member because roots are visited in index order.
    by_root.retain(|region| !region.is_empty());
    by_root.sort_by_key(|region| region[0]);
    by_root
}

/// Plain union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_links_means_singleton_regions() {
        assert_eq!(
            module_regions(3, std::iter::empty()),
            vec![vec![0], vec![1], vec![2]]
        );
    }

    #[test]
    fn links_merge_transitively_and_order_is_deterministic() {
        let regions = module_regions(6, [(4, 2), (2, 0), (5, 3)]);
        assert_eq!(regions, vec![vec![0, 2, 4], vec![1], vec![3, 5]]);
        // Link order does not matter.
        let again = module_regions(6, [(5, 3), (0, 2), (4, 2)]);
        assert_eq!(regions, again);
    }

    #[test]
    fn fully_linked_corpus_is_one_region() {
        let regions = module_regions(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(regions, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn empty_corpus_has_no_regions() {
        assert!(module_regions(0, std::iter::empty()).is_empty());
    }
}
