//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Two classic heuristics: reverse Cuthill–McKee (bandwidth reduction,
//! cheap and effective on the chain/ladder structures circuits produce) and
//! minimum degree on the elimination graph (better on meshes and coupled
//! structures). The LDLᵀ driver picks whichever produces fewer fill-ins.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ordering heuristic selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Natural (identity) ordering.
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Minimum degree on the explicit elimination graph ([`min_degree`]).
    /// Heap-driven selection makes chains and trees order in
    /// `O(n log n)`; on 2-D meshes the cost follows the fill of the
    /// explicit graph (about `n^1.5`). The default used by the solvers
    /// here.
    #[default]
    MinDegree,
}

/// Computes an ordering of the undirected graph `adj`.
///
/// Returns `perm` with `perm[new] = old`.
pub fn compute_ordering(adj: &[Vec<usize>], which: Ordering) -> Vec<usize> {
    match which {
        Ordering::Natural => (0..adj.len()).collect(),
        Ordering::Rcm => rcm(adj),
        Ordering::MinDegree => min_degree(adj),
    }
}

/// Reverse Cuthill–McKee ordering. Handles disconnected graphs.
pub fn rcm(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    // Process components from lowest-degree unvisited seed.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| adj[v].len());
    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        let start = pseudo_peripheral(adj, seed);
        let mut queue = VecDeque::new();
        queue.push_back(start);
        visited[start] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| adj[u].len());
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// BFS-based pseudo-peripheral node search (two sweeps).
fn pseudo_peripheral(adj: &[Vec<usize>], seed: usize) -> usize {
    let mut v = seed;
    let mut last_ecc = 0usize;
    for _ in 0..4 {
        let (far, ecc) = bfs_farthest(adj, v);
        if ecc <= last_ecc {
            break;
        }
        last_ecc = ecc;
        v = far;
    }
    v
}

fn bfs_farthest(adj: &[Vec<usize>], start: usize) -> (usize, usize) {
    let n = adj.len();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    let mut far = start;
    while let Some(v) = queue.pop_front() {
        for &u in &adj[v] {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                if dist[u] > dist[far] {
                    far = u;
                }
                queue.push_back(u);
            }
        }
    }
    (far, dist[far])
}

/// Minimum-degree ordering on the (explicit) elimination graph.
///
/// `adj` must be symmetric, with every list sorted, duplicate-free and
/// free of self loops — the shape [`crate::CscMat::adjacency`] returns.
///
/// Each step eliminates the vertex with the lexicographically smallest
/// `(degree, index)`, read from a lazy-deletion binary heap (an entry
/// is stale once its vertex is eliminated or its degree has moved on),
/// so selection costs `O(log n)` per degree update instead of an
/// `O(n)` scan per step. Eliminating `v` turns its remaining
/// neighbours into a clique; each neighbour's sorted adjacency absorbs
/// the clique in one linear merge. The elimination graph stays
/// explicit, so memory and merge work grow with the fill (about
/// `n^1.5` on 2-D grids, linear on chains and trees).
///
/// ```
/// use mpvl_sparse::{is_permutation, min_degree};
/// // A star: the leaves go first, the hub (degree 4) last but one.
/// let adj = vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]];
/// let perm = min_degree(&adj);
/// assert!(is_permutation(&perm, 5));
/// assert_eq!(perm, vec![1, 2, 3, 0, 4]);
/// ```
pub fn min_degree(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut g: Vec<Vec<usize>> = adj.to_vec();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = g
        .iter()
        .enumerate()
        .map(|(v, l)| Reverse((l.len(), v)))
        .collect();
    let mut clique = Vec::new();
    let mut merged = Vec::new();
    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || deg != g[v].len() {
            continue;
        }
        eliminated[v] = true;
        order.push(v);
        clique.clear();
        clique.extend(g[v].iter().copied().filter(|&u| !eliminated[u]));
        for &u in &clique {
            merge_clique(&g[u], v, &clique, u, &mut merged);
            std::mem::swap(&mut g[u], &mut merged);
            if g[u].len() != merged.len() {
                heap.push(Reverse((g[u].len(), u)));
            }
        }
        g[v] = Vec::new();
    }
    order
}

/// Writes the sorted union of `row` without `v` and `clique` without
/// `u` into `out` — the adjacency of `u` after eliminating its
/// neighbour `v`.
fn merge_clique(row: &[usize], v: usize, clique: &[usize], u: usize, out: &mut Vec<usize>) {
    out.clear();
    let mut a = row.iter().copied().filter(|&x| x != v).peekable();
    let mut b = clique.iter().copied().filter(|&x| x != u).peekable();
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) if x < y => a.next(),
            (Some(&x), Some(&y)) if y < x => b.next(),
            (Some(_), Some(_)) => {
                b.next();
                a.next()
            }
            (Some(_), None) => a.next(),
            (None, Some(_)) => b.next(),
            (None, None) => break,
        };
        out.extend(next);
    }
}

/// Checks that `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SparseLdlt, TripletMat};
    use mpvl_testkit::prop::{check, vec_in};
    use mpvl_testkit::prop_assert_eq;

    /// The linear-scan minimum degree [`min_degree`] replaced: an
    /// `O(n)` scan per step for the `(degree, index)` minimum and a
    /// `binary_search` + `insert` per clique member. Kept as the
    /// reference the heap-driven version must reproduce exactly.
    fn min_degree_scan(adj: &[Vec<usize>]) -> Vec<usize> {
        let n = adj.len();
        let mut g: Vec<Vec<usize>> = adj.to_vec();
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best = usize::MAX;
            let mut best_deg = usize::MAX;
            for v in 0..n {
                if !eliminated[v] && g[v].len() < best_deg {
                    best = v;
                    best_deg = g[v].len();
                }
            }
            let v = best;
            eliminated[v] = true;
            order.push(v);
            let nbrs: Vec<usize> = g[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            for &u in &nbrs {
                let set = &mut g[u];
                if let Ok(pos) = set.binary_search(&v) {
                    set.remove(pos);
                }
                for &w in &nbrs {
                    if w != u {
                        if let Err(pos) = set.binary_search(&w) {
                            set.insert(pos, w);
                        }
                    }
                }
            }
            g[v].clear();
        }
        order
    }

    /// Symmetric, sorted, loop-free adjacency from an edge list.
    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a != b {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }

    fn grid_graph(rows: usize, cols: usize) -> Vec<Vec<usize>> {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    edges.push((i, i + 1));
                }
                if r + 1 < rows {
                    edges.push((i, i + cols));
                }
            }
        }
        graph_from_edges(rows * cols, &edges)
    }

    /// The SPD matrix `diag + off-diagonal -1` on the pattern of `adj`.
    fn laplacian_like(adj: &[Vec<usize>], diag: f64) -> crate::CscMat<f64> {
        let n = adj.len();
        let mut t = TripletMat::new(n, n);
        for (i, l) in adj.iter().enumerate() {
            t.push(i, i, diag);
            for &j in l {
                if j > i {
                    t.push_sym(i, j, -1.0);
                }
            }
        }
        t.to_csc()
    }

    #[test]
    fn heap_min_degree_matches_scan_on_random_graphs() {
        check(
            "heap_min_degree_matches_scan_on_random_graphs",
            96,
            (1usize..40, vec_in((0usize..40, 0usize..40), 0..120)),
            |(n, raw)| {
                let n = *n;
                let edges: Vec<(usize, usize)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
                let adj = graph_from_edges(n, &edges);
                prop_assert_eq!(min_degree(&adj), min_degree_scan(&adj));
                Ok(())
            },
        );
    }

    #[test]
    fn produces_permutations() {
        let cases = [
            Vec::new(),
            vec![Vec::new(); 5],
            path_graph(1),
            path_graph(257),
            star_graph(33),
            grid_graph(1, 9),
            grid_graph(5, 7),
            grid_graph(7, 7),
            grid_graph(12, 17),
        ];
        for adj in &cases {
            let p = min_degree(adj);
            assert!(is_permutation(&p, adj.len()), "bad permutation {p:?}");
            assert_eq!(p, min_degree_scan(adj), "n = {}", adj.len());
        }
    }

    #[test]
    fn disconnected_components() {
        // A grid, a star offset past it, and three isolated vertices.
        let mut adj = grid_graph(3, 4);
        let off = adj.len();
        adj.extend(
            star_graph(6)
                .into_iter()
                .map(|l| l.into_iter().map(|v| v + off).collect::<Vec<_>>()),
        );
        adj.extend(vec![Vec::new(); 3]);
        let p = min_degree(&adj);
        assert!(is_permutation(&p, adj.len()));
        assert_eq!(p, min_degree_scan(&adj));
    }

    #[test]
    fn arrow_matrix_zero_fill() {
        // Arrow: hub connected to all leaves. MD must defer the hub.
        let n = 40;
        let a = laplacian_like(&star_graph(n), 10.0 * n as f64);
        let perm = min_degree(&a.adjacency());
        let f = SparseLdlt::factor_with_perm(&a, perm).expect("SPD");
        assert_eq!(f.l_nnz(), n - 1, "arrow should factor with zero fill");
    }

    #[test]
    fn fill_beats_natural_on_grid() {
        let adj = grid_graph(8, 8);
        let a = laplacian_like(&adj, 8.0);
        let fm = SparseLdlt::factor_with_perm(&a, min_degree(&adj)).expect("SPD");
        let fnat = SparseLdlt::factor(&a, Ordering::Natural).expect("SPD");
        assert!(
            fm.l_nnz() < fnat.l_nnz(),
            "min degree ({}) should beat natural ({})",
            fm.l_nnz(),
            fnat.l_nnz()
        );
    }

    #[test]
    fn solves_correctly_under_min_degree() {
        let adj = grid_graph(6, 6);
        let a = laplacian_like(&adj, 5.0);
        let f = SparseLdlt::factor_with_perm(&a, min_degree(&adj)).expect("SPD");
        let b: Vec<f64> = (0..36).map(|i| (i as f64 * 0.23).sin()).collect();
        let x = f.solve(&b);
        for (u, v) in a.matvec(&x).iter().zip(&b) {
            assert!((u - v).abs() < 1e-11);
        }
    }

    #[test]
    fn clique_orders_by_index() {
        // Every vertex of a clique has the same degree at every step, so
        // the index tie-break alone decides: the natural order.
        let n = 12;
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        let adj = graph_from_edges(n, &edges);
        assert_eq!(min_degree(&adj), (0..n).collect::<Vec<_>>());
    }

    fn path_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect()
    }

    fn star_graph(n: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for i in 1..n {
            adj[0].push(i);
            adj[i].push(0);
        }
        adj
    }

    #[test]
    fn all_orderings_are_permutations() {
        for adj in [path_graph(10), star_graph(7)] {
            for o in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                let p = compute_ordering(&adj, o);
                assert!(is_permutation(&p, adj.len()), "{o:?} not a permutation");
            }
        }
    }

    #[test]
    fn min_degree_defers_star_center() {
        let adj = star_graph(8);
        let p = min_degree(&adj);
        // The hub has degree 7; leaves (degree 1) are eliminated first, so
        // the hub can appear at the earliest once its degree has dropped to
        // tie with the last remaining leaf.
        let hub_pos = p.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= p.len() - 2, "hub eliminated too early: {p:?}");
    }

    #[test]
    fn rcm_on_path_is_monotone() {
        // RCM on a path graph should give a bandwidth-1 ordering, i.e. a
        // walk along the path.
        let adj = path_graph(12);
        let p = rcm(&adj);
        for w in p.windows(2) {
            assert_eq!(w[0].abs_diff(w[1]), 1, "ordering {p:?} is not a walk");
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut adj = path_graph(4);
        adj.extend(vec![Vec::new(); 3]); // three isolated vertices
        let p = rcm(&adj);
        assert!(is_permutation(&p, 7));
        let q = min_degree(&adj);
        assert!(is_permutation(&q, 7));
    }

    #[test]
    fn empty_graph() {
        assert!(rcm(&[]).is_empty());
        assert!(min_degree(&[]).is_empty());
    }
}
