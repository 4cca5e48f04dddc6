//! Agglomerative hierarchical clustering (Sec. 3.6).
//!
//! Coarse-grained: UPGMA (average linkage) over the seven-feature page
//! distance, implemented with the nearest-neighbor-chain algorithm —
//! O(n²) time and memory, exact for reducible linkages like UPGMA.
//!
//! Fine-grained: the same machinery over Jaccard distances between
//! added/removed-tag multisets (page *modifications* relative to ground
//! truth).

use htmlsim::diff::TagDelta;
use htmlsim::distance::{jaccard_multiset, page_distance, FeatureWeights};
use htmlsim::PageFeatures;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Linkage criterion. The paper uses average linkage (UPGMA); single and
/// complete are provided for the A-ABL2 ablation. All three are
/// *reducible*, so the nearest-neighbor-chain algorithm is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Size-weighted mean distance (UPGMA — the paper's choice).
    Average,
}

/// A merge tree. Leaves are `0..n_leaves`; the `i`-th merge creates
/// internal node `n_leaves + i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n_leaves: usize,
    /// `(node_a, node_b, linkage_distance)` in merge order.
    pub merges: Vec<(usize, usize, f64)>,
}

/// A flat clustering produced by cutting a dendrogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlatClusters {
    /// `assignment[leaf] = cluster id` (dense, 0-based).
    pub assignment: Vec<usize>,
    /// Members per cluster.
    pub clusters: Vec<Vec<usize>>,
}

impl FlatClusters {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The largest cluster's members.
    pub fn largest(&self) -> Option<&Vec<usize>> {
        self.clusters.iter().max_by_key(|c| c.len())
    }
}

/// Exact UPGMA via the nearest-neighbor-chain algorithm over a
/// precomputed condensed distance matrix.
///
/// `dist` must be a symmetric `n × n` row-major matrix (the diagonal is
/// ignored). Consumes the matrix as scratch space.
pub fn agglomerate(n: usize, dist: Vec<f32>, size_hint: Option<Vec<u32>>) -> Dendrogram {
    agglomerate_with(n, dist, size_hint, Linkage::Average)
}

/// [`agglomerate`] with an explicit linkage criterion.
pub fn agglomerate_with(
    n: usize,
    mut dist: Vec<f32>,
    mut size_hint: Option<Vec<u32>>,
    linkage: Linkage,
) -> Dendrogram {
    assert_eq!(dist.len(), n * n, "distance matrix shape");
    if n == 0 {
        return Dendrogram {
            n_leaves: 0,
            merges: Vec::new(),
        };
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut sizes: Vec<u32> = size_hint.take().unwrap_or_else(|| vec![1; n]);
    let mut node_id: Vec<usize> = (0..n).collect();
    let mut merges: Vec<(usize, usize, f64)> = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;

    let d = |dist: &Vec<f32>, a: usize, b: usize| dist[a * n + b];

    while remaining > 1 {
        if chain.is_empty() {
            let first = active.iter().position(|&a| a).expect("active cluster");
            chain.push(first);
        }
        loop {
            let a = *chain.last().unwrap();
            // Nearest active neighbor of `a` (preferring the chain
            // predecessor on ties, which guarantees termination).
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            let mut best = usize::MAX;
            let mut best_d = f32::INFINITY;
            for (x, &is_active) in active.iter().enumerate() {
                if x == a || !is_active {
                    continue;
                }
                let dx = d(&dist, a, x);
                if dx < best_d || (dx == best_d && Some(x) == prev) {
                    best_d = dx;
                    best = x;
                }
            }
            debug_assert_ne!(best, usize::MAX);
            if Some(best) == prev {
                // Mutual nearest neighbors: merge a and best.
                let b = best;
                chain.pop();
                chain.pop();
                let (sa, sb) = (sizes[a] as f64, sizes[b] as f64);
                // Record the merge under stable node ids.
                let new_id = 2 * n - remaining; // n_leaves + merges.len()
                merges.push((node_id[a], node_id[b], best_d as f64));
                // Lance-Williams update into slot `a`.
                for x in 0..n {
                    if x == a || x == b || !active[x] {
                        continue;
                    }
                    let dax = d(&dist, a, x) as f64;
                    let dbx = d(&dist, b, x) as f64;
                    let nd = match linkage {
                        Linkage::Average => ((sa * dax + sb * dbx) / (sa + sb)) as f32,
                        Linkage::Single => dax.min(dbx) as f32,
                        Linkage::Complete => dax.max(dbx) as f32,
                    };
                    dist[a * n + x] = nd;
                    dist[x * n + a] = nd;
                }
                active[b] = false;
                sizes[a] += sizes[b];
                node_id[a] = new_id;
                remaining -= 1;
                break;
            }
            chain.push(best);
        }
    }
    Dendrogram {
        n_leaves: n,
        merges,
    }
}

impl Dendrogram {
    /// Cut at `threshold`: leaves joined by merges with linkage distance
    /// ≤ threshold end up in the same flat cluster.
    pub fn cut(&self, threshold: f64) -> FlatClusters {
        let n = self.n_leaves;
        let total = n + self.merges.len();
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, &(a, b, dist)) in self.merges.iter().enumerate() {
            let node = n + i;
            if dist <= threshold {
                let ra = find(&mut parent, a);
                let rb = find(&mut parent, b);
                parent[ra] = node;
                parent[rb] = node;
            }
        }
        let mut cluster_of_root: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut assignment = vec![0usize; n];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for (leaf, slot) in assignment.iter_mut().enumerate() {
            let root = find(&mut parent, leaf);
            let id = *cluster_of_root.entry(root).or_insert_with(|| {
                clusters.push(Vec::new());
                clusters.len() - 1
            });
            *slot = id;
            clusters[id].push(leaf);
        }
        FlatClusters {
            assignment,
            clusters,
        }
    }
}

/// Build the page distance matrix in parallel.
///
/// Row `i` of the upper triangle holds `n − i − 1` pairs, and the
/// parallel map hands each thread one contiguous block of work items.
/// One item per row would give the first thread the longest rows, so an
/// item computes row `k` together with row `n − 1 − k`: every item holds
/// `n − 1` pairs (the middle row of an odd `n` stands alone).
fn page_matrix(items: &[PageFeatures], weights: &FeatureWeights) -> Vec<f32> {
    let n = items.len();
    // Row `i`'s distances to items `i + 1..n`.
    let row = |i: usize| -> Vec<f32> {
        items[i + 1..]
            .iter()
            .map(|b| page_distance(&items[i], b, weights) as f32)
            .collect()
    };
    let row_pairs: Vec<(Vec<f32>, Vec<f32>)> = (0..n.div_ceil(2))
        .into_par_iter()
        .map(|k| {
            let far = n - 1 - k;
            (row(k), if far > k { row(far) } else { Vec::new() })
        })
        .collect();
    let mut dist = vec![0f32; n * n];
    for (k, (near, far)) in row_pairs.into_iter().enumerate() {
        for (i, tail) in [(k, near), (n - 1 - k, far)] {
            for (j, v) in (i + 1..).zip(tail) {
                dist[i * n + j] = v;
                dist[j * n + i] = v;
            }
        }
    }
    dist
}

/// Coarse-grained clustering of page feature vectors; cut at
/// `threshold`. Uses average linkage, as the paper does.
pub fn cluster_pages(
    items: &[PageFeatures],
    weights: &FeatureWeights,
    threshold: f64,
) -> FlatClusters {
    cluster_pages_with(items, weights, threshold, Linkage::Average)
}

/// [`cluster_pages`] with an explicit linkage (A-ABL2).
pub fn cluster_pages_with(
    items: &[PageFeatures],
    weights: &FeatureWeights,
    threshold: f64,
    linkage: Linkage,
) -> FlatClusters {
    let dist = page_matrix(items, weights);
    agglomerate_with(items.len(), dist, None, linkage).cut(threshold)
}

/// Fine-grained clustering of tag deltas by Jaccard distance over their
/// add/remove multisets; cut at `threshold`.
pub fn fine_cluster(deltas: &[TagDelta], threshold: f64) -> FlatClusters {
    let n = deltas.len();
    let sets: Vec<_> = deltas.iter().map(|d| d.as_multiset()).collect();
    let mut dist = vec![0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = jaccard_multiset(&sets[i], &sets[j]) as f32;
            dist[i * n + j] = v;
            dist[j * n + i] = v;
        }
    }
    agglomerate(n, dist, None).cut(threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmlsim::gen::{self, PageCtx};
    use htmlsim::TagInterner;

    fn matrix_from(points: &[(f64, f64)]) -> Vec<f32> {
        let n = points.len();
        let mut m = vec![0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let dx = points[i].0 - points[j].0;
                let dy = points[i].1 - points[j].1;
                m[i * n + j] = ((dx * dx + dy * dy).sqrt()) as f32;
            }
        }
        m
    }

    #[test]
    fn two_obvious_blobs() {
        let pts = [
            (0.0, 0.0),
            (0.1, 0.0),
            (0.0, 0.1),
            (10.0, 10.0),
            (10.1, 10.0),
            (10.0, 10.1),
        ];
        let dendro = agglomerate(6, matrix_from(&pts), None);
        assert_eq!(dendro.merges.len(), 5);
        let flat = dendro.cut(1.0);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.assignment[0], flat.assignment[1]);
        assert_eq!(flat.assignment[3], flat.assignment[4]);
        assert_ne!(flat.assignment[0], flat.assignment[3]);
    }

    #[test]
    fn cut_extremes() {
        let pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        let dendro = agglomerate(4, matrix_from(&pts), None);
        assert_eq!(dendro.cut(0.0).len(), 4, "zero cut = singletons");
        assert_eq!(dendro.cut(100.0).len(), 1, "infinite cut = one cluster");
    }

    #[test]
    fn average_linkage_merge_heights_monotone_enough() {
        // UPGMA on a line: merge distances are nondecreasing for
        // well-separated data.
        let pts: Vec<(f64, f64)> = (0..8).map(|i| (i as f64 * (i as f64), 0.0)).collect();
        let dendro = agglomerate(8, matrix_from(&pts), None);
        for w in dendro.merges.windows(2) {
            assert!(w[1].2 >= w[0].2 - 1e-9, "heights {:?}", dendro.merges);
        }
    }

    #[test]
    fn singleton_and_empty() {
        let d0 = agglomerate(0, vec![], None);
        assert_eq!(d0.merges.len(), 0);
        assert_eq!(d0.cut(1.0).len(), 0);
        let d1 = agglomerate(1, vec![0.0], None);
        assert_eq!(d1.merges.len(), 0);
        let flat = d1.cut(1.0);
        assert_eq!(flat.len(), 1);
    }

    #[test]
    fn page_families_separate() {
        let mut interner = TagInterner::new();
        let mut items = Vec::new();
        // 5 router logins, 5 error pages, 5 parking pages.
        for s in 0..5u64 {
            items.push(PageFeatures::extract(
                &gen::router_login(gen::RouterVendor::ZyRouter, &PageCtx::new("r.local", s)),
                &mut interner,
            ));
        }
        for s in 0..5u64 {
            items.push(PageFeatures::extract(
                &gen::http_error(404, &PageCtx::new("e.example", s * 3)),
                &mut interner,
            ));
        }
        for s in 0..5u64 {
            items.push(PageFeatures::extract(
                &gen::parking_page("parkco", &PageCtx::new(&format!("d{s}.example"), s)),
                &mut interner,
            ));
        }
        let flat = cluster_pages(&items, &FeatureWeights::default(), 0.35);
        // Router pages must share a cluster, and never share with parking.
        assert_eq!(flat.assignment[0], flat.assignment[4]);
        assert_eq!(flat.assignment[10], flat.assignment[14]);
        assert_ne!(flat.assignment[0], flat.assignment[10]);
        // Each family in its own cluster(s): 3–6 clusters total is sane
        // (error pages have several idioms).
        assert!((3..=7).contains(&flat.len()), "clusters: {}", flat.len());
    }

    #[test]
    fn balanced_matrix_equals_serial_build() {
        let mut interner = TagInterner::new();
        let pages: Vec<PageFeatures> = (0..129u64)
            .map(|s| {
                let ctx = PageCtx::new(&format!("d{}.example", s % 7), s);
                let html = match s % 4 {
                    0 => gen::router_login(gen::RouterVendor::ZyRouter, &ctx),
                    1 => gen::http_error(404, &ctx),
                    2 => gen::parking_page("parkco", &ctx),
                    _ => gen::legit_site(gen::SiteCategory::Banking, &ctx),
                };
                PageFeatures::extract(&html, &mut interner)
            })
            .collect();
        let weights = FeatureWeights::default();
        for n in [0, 1, 2, 3, 64, 65, 129] {
            let items = &pages[..n];
            let mut serial = vec![0f32; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = page_distance(&items[i], &items[j], &weights) as f32;
                    serial[i * n + j] = v;
                    serial[j * n + i] = v;
                }
            }
            let balanced = page_matrix(items, &weights);
            let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&balanced), bits(&serial), "n = {n}");
            assert_eq!(
                cluster_pages(items, &weights, 0.35),
                agglomerate(n, serial, None).cut(0.35),
                "n = {n}"
            );
        }
    }

    #[test]
    fn fine_clustering_groups_same_modification() {
        use htmlsim::diff::tag_delta;
        let gt = [0u16, 1, 2, 8, 8, 8, 11];
        // Two pages with a <script> (id 6) injected, one with an <img>
        // (id 12) injected.
        let inj_a = [0u16, 1, 2, 8, 8, 8, 6, 11];
        let inj_b = [0u16, 1, 2, 8, 8, 6, 8, 11];
        let img = [0u16, 1, 2, 8, 8, 8, 12, 11];
        let deltas = vec![
            tag_delta(&gt, &inj_a),
            tag_delta(&gt, &inj_b),
            tag_delta(&gt, &img),
        ];
        let flat = fine_cluster(&deltas, 0.3);
        assert_eq!(flat.assignment[0], flat.assignment[1]);
        assert_ne!(flat.assignment[0], flat.assignment[2]);
    }
}
