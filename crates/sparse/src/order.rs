//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Two classic heuristics: reverse Cuthill–McKee (bandwidth reduction,
//! cheap and effective on the chain/ladder structures circuits produce)
//! and approximate minimum degree on the quotient graph (better on
//! meshes and coupled structures). Every solver here asks for
//! [`Ordering::MinDegree`], the default; `Natural` and `Rcm` are there
//! for comparison and for callers that pick an ordering explicitly.
//! No caller compares fill across orderings.

use std::collections::VecDeque;

/// Ordering heuristic selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Natural (identity) ordering.
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Approximate minimum degree on the quotient graph
    /// ([`min_degree`]). Ordering time stays near-linear in `nnz(A)` on
    /// chains, trees and 2-D meshes alike (a 10⁵-vertex grid orders in
    /// tens of milliseconds). The default used by the solvers here.
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

/// Approximate minimum-degree (AMD) ordering on the quotient graph.
///
/// `adj` must be symmetric, with every list duplicate-free and free of
/// self loops — the shape [`crate::CscMat::adjacency`] returns.
///
/// This is the Amestoy–Davis–Duff (1996) algorithm in the compact
/// shape of CSparse's `cs_amd`. Eliminated pivots become *elements*
/// whose variable lists stand in for the elimination cliques, so the
/// graph never grows beyond its input plus the new element lists, and
/// the cost stays near `nnz(A)` instead of following the fill:
///
/// * **approximate external degrees** — an upper bound on each
///   variable's true external degree, recomputed from the `|Le \ Lk|`
///   set differences after each pivot and kept in degree lists, so the
///   minimum is found without a scan;
/// * **element absorption** — every element adjacent to the pivot is
///   absorbed into the new element, and **aggressive absorption**
///   drops any element whose variables all lie in it;
/// * **mass elimination** — a variable whose whole neighbourhood lies in
///   the new element is eliminated with the pivot;
/// * **supervariables** — variables with identical adjacency, found
///   through a hash of their lists, merge and are ordered together;
/// * **dense rows** — a vertex of degree above `max(16, 10√n)`, capped
///   at `n − 2`, is set aside before elimination and ordered last; the
///   count goes to the `ldlt/dense_rows` counter when it is non-zero.
///
/// The permutation is a postorder of the assembly tree, so the
/// columns of each subtree of the elimination tree stay contiguous.
/// Ties go to the vertex most recently placed in its degree list,
/// so the order is deterministic but not the lexicographic
/// `(degree, index)` minimum of exact minimum degree.
///
/// ```
/// use mpvl_sparse::{is_permutation, min_degree};
/// // A star: the leaves go first; the hub's degree 4 is above the
/// // dense threshold n - 2 = 3, so it is set aside and ordered last.
/// let adj = vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]];
/// let perm = min_degree(&adj);
/// assert!(is_permutation(&perm, 5));
/// assert_eq!(perm, vec![1, 2, 3, 4, 0]);
/// ```
pub fn min_degree(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    if n == 0 {
        return Vec::new();
    }
    let ni = n as isize;
    let dense = ((10.0 * (n as f64).sqrt()) as isize).max(16).min(ni - 2);

    // The quotient graph lives in one index array: object j (a variable
    // or an element) owns ci[cp[j]..cp[j] + len[j]], a variable's
    // elen[j] elements first and its variables after. New elements are
    // appended at cnz; the elbow room is reclaimed by compaction.
    let nnz: usize = adj.iter().map(Vec::len).sum();
    let nzmax = nnz + nnz / 5 + 2 * n;
    let mut ci = vec![0isize; nzmax];
    let mut cp = vec![0isize; n + 1];
    let mut len = vec![0isize; n + 1];
    let mut cnz = 0usize;
    for (j, list) in adj.iter().enumerate() {
        cp[j] = cnz as isize;
        len[j] = list.len() as isize;
        for &v in list {
            ci[cnz] = v as isize;
            cnz += 1;
        }
    }
    // nv[i]: variables i stands for (negated while i is in the new
    // element, 0 once absorbed); next/last: degree-list or hash-bucket
    // links; w: element set-difference marks (0 for a dead element).
    let mut nv = vec![1isize; n + 1];
    let mut next = vec![-1isize; n + 1];
    let mut last = vec![-1isize; n + 1];
    let mut head = vec![-1isize; n + 1];
    let mut hhead = vec![-1isize; n + 1];
    let mut elen = vec![0isize; n + 1];
    let mut degree = len.clone();
    let mut w = vec![1isize; n + 1];
    let mut mark = wclear(0, 0, &mut w);
    // Node n is a placeholder root: the parent of every dense row.
    elen[n] = -2;
    cp[n] = -1;
    w[n] = 0;

    let mut nel = 0isize;
    for i in 0..n {
        let d = degree[i];
        if d == 0 {
            // An isolated vertex is a finished element at once.
            elen[i] = -2;
            nel += 1;
            cp[i] = -1;
            w[i] = 0;
        } else if d > dense {
            nv[i] = 0;
            elen[i] = -1;
            nel += 1;
            cp[i] = flip(ni);
            nv[n] += 1;
        } else {
            let d = d as usize;
            if head[d] != -1 {
                last[head[d] as usize] = i as isize;
            }
            next[i] = head[d];
            head[d] = i as isize;
        }
    }

    let mut mindeg = 0usize;
    let mut lemax = 0isize;
    while nel < ni {
        // --- Pivot: the head of the lowest non-empty degree list.
        while head[mindeg] == -1 {
            mindeg += 1;
        }
        let k = head[mindeg];
        let ku = k as usize;
        if next[ku] != -1 {
            last[next[ku] as usize] = -1;
        }
        head[mindeg] = next[ku];
        let elenk = elen[ku];
        let mut nvk = nv[ku];
        nel += nvk;

        // --- Compaction when the new element may not fit.
        if elenk > 0 && cnz + mindeg >= nzmax {
            for j in 0..n {
                let p = cp[j];
                if p >= 0 {
                    cp[j] = ci[p as usize];
                    ci[p as usize] = flip(j as isize);
                }
            }
            let (mut q, mut p) = (0usize, 0usize);
            while p < cnz {
                let j = flip(ci[p]);
                p += 1;
                if j >= 0 {
                    let j = j as usize;
                    ci[q] = cp[j];
                    cp[j] = q as isize;
                    q += 1;
                    for _ in 1..len[j] {
                        ci[q] = ci[p];
                        q += 1;
                        p += 1;
                    }
                }
            }
            cnz = q;
        }

        // --- New element Lk: the live variables of k and of every
        // element adjacent to k, which are absorbed into k.
        let mut dk = 0isize;
        nv[ku] = -nvk;
        let mut p = cp[ku] as usize;
        let pk1 = if elenk == 0 { p } else { cnz };
        let mut pk2 = pk1;
        for k1 in 1..=elenk + 1 {
            let (e, mut pj, ln) = if k1 > elenk {
                (k, p, len[ku] - elenk)
            } else {
                let e = ci[p];
                p += 1;
                (e, cp[e as usize] as usize, len[e as usize])
            };
            for _ in 0..ln {
                let i = ci[pj] as usize;
                pj += 1;
                let nvi = nv[i];
                if nvi <= 0 {
                    continue;
                }
                dk += nvi;
                nv[i] = -nvi;
                ci[pk2] = i as isize;
                pk2 += 1;
                if next[i] != -1 {
                    last[next[i] as usize] = last[i];
                }
                if last[i] != -1 {
                    next[last[i] as usize] = next[i];
                } else {
                    head[degree[i] as usize] = next[i];
                }
            }
            if e != k {
                cp[e as usize] = flip(k);
                w[e as usize] = 0;
            }
        }
        if elenk != 0 {
            cnz = pk2;
        }
        degree[ku] = dk;
        cp[ku] = pk1 as isize;
        len[ku] = (pk2 - pk1) as isize;
        elen[ku] = -2;

        // --- |Le \ Lk| for every element e adjacent to Lk, as
        // w[e] - mark.
        mark = wclear(mark, lemax, &mut w);
        for &i in &ci[pk1..pk2] {
            let i = i as usize;
            let eln = elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -nv[i];
            let wnvi = mark - nvi;
            let p1 = cp[i] as usize;
            for &e in &ci[p1..p1 + eln as usize] {
                let e = e as usize;
                if w[e] >= mark {
                    w[e] -= nvi;
                } else if w[e] != 0 {
                    w[e] = degree[e] + wnvi;
                }
            }
        }

        // --- Approximate degrees of Lk, pruning absorbed elements and
        // eliminated variables from each list and hashing what is left.
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let p1 = cp[i] as usize;
            let p2 = p1 + elen[i] as usize;
            let mut pn = p1;
            let mut h = 0usize;
            let mut d = 0isize;
            for p in p1..p2 {
                let e = ci[p] as usize;
                if w[e] != 0 {
                    let dext = w[e] - mark;
                    if dext > 0 {
                        d += dext;
                        ci[pn] = e as isize;
                        pn += 1;
                        h = h.wrapping_add(e);
                    } else {
                        // Aggressive absorption: Le is inside Lk.
                        cp[e] = flip(k);
                        w[e] = 0;
                    }
                }
            }
            elen[i] = (pn - p1 + 1) as isize;
            let p3 = pn;
            let p4 = p1 + len[i] as usize;
            for p in p2..p4 {
                let j = ci[p] as usize;
                let nvj = nv[j];
                if nvj <= 0 {
                    continue;
                }
                d += nvj;
                ci[pn] = j as isize;
                pn += 1;
                h = h.wrapping_add(j);
            }
            if d == 0 {
                // Mass elimination: i has no neighbour outside Lk.
                cp[i] = flip(k);
                let nvi = -nv[i];
                dk -= nvi;
                nvk += nvi;
                nel += nvi;
                nv[i] = 0;
                elen[i] = -1;
            } else {
                degree[i] = degree[i].min(d);
                // k becomes the first element of i.
                ci[pn] = ci[p3];
                ci[p3] = ci[p1];
                ci[p1] = k;
                len[i] = (pn - p1 + 1) as isize;
                let h = h % n;
                next[i] = hhead[h];
                hhead[h] = i as isize;
                last[i] = h as isize;
            }
        }
        degree[ku] = dk;
        lemax = lemax.max(dk);
        mark = wclear(mark + lemax, lemax, &mut w);

        // --- Supervariables: within each hash bucket, merge variables
        // whose element and variable lists are identical.
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            if nv[i] >= 0 {
                continue;
            }
            let h = last[i] as usize;
            let mut i = hhead[h];
            hhead[h] = -1;
            while i != -1 && next[i as usize] != -1 {
                let iu = i as usize;
                let ln = len[iu];
                let eln = elen[iu];
                let pi = cp[iu] as usize;
                for &v in &ci[pi + 1..pi + ln as usize] {
                    w[v as usize] = mark;
                }
                let mut jlast = iu;
                let mut j = next[iu];
                while j != -1 {
                    let ju = j as usize;
                    let pj = cp[ju] as usize;
                    let same = len[ju] == ln
                        && elen[ju] == eln
                        && ci[pj + 1..pj + ln as usize]
                            .iter()
                            .all(|&v| w[v as usize] == mark);
                    j = next[ju];
                    if same {
                        cp[ju] = flip(i);
                        nv[iu] += nv[ju];
                        nv[ju] = 0;
                        elen[ju] = -1;
                        next[jlast] = j;
                    } else {
                        jlast = ju;
                    }
                }
                i = next[iu];
                mark += 1;
            }
        }

        // --- Back into the degree lists with the external degree.
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let nvi = -nv[i];
            if nvi <= 0 {
                continue;
            }
            nv[i] = nvi;
            let d = (degree[i] + dk - nvi).min(ni - nel - nvi);
            let du = d as usize;
            if head[du] != -1 {
                last[head[du] as usize] = i as isize;
            }
            next[i] = head[du];
            last[i] = -1;
            head[du] = i as isize;
            mindeg = mindeg.min(du);
            degree[i] = d;
            ci[p] = i as isize;
            p += 1;
        }
        nv[ku] = nvk;
        len[ku] = (p - pk1) as isize;
        if len[ku] == 0 {
            // k is a root of the assembly tree.
            cp[ku] = -1;
            w[ku] = 0;
        }
        if elenk != 0 {
            cnz = p;
        }
    }

    mpvl_obs::counter_add("ldlt", "dense_rows", (nv[n] - 1) as u64);

    // --- Postorder of the assembly tree. cp[j] now holds j's parent
    // (-1 for a root); absorbed variables hang off their principal
    // variable or element, dense rows off the placeholder root n.
    for v in &mut cp[..n] {
        *v = flip(*v);
    }
    head.fill(-1);
    for j in (0..=n).rev() {
        if nv[j] <= 0 {
            let parent = cp[j] as usize;
            next[j] = head[parent];
            head[parent] = j as isize;
        }
    }
    for e in (0..=n).rev() {
        if nv[e] > 0 && cp[e] != -1 {
            let parent = cp[e] as usize;
            next[e] = head[parent];
            head[parent] = e as isize;
        }
    }
    let mut post = Vec::with_capacity(n + 1);
    let mut stack = Vec::new();
    for root in 0..=n {
        if cp[root] != -1 {
            continue;
        }
        stack.push(root);
        while let Some(&p) = stack.last() {
            let child = head[p];
            if child == -1 {
                stack.pop();
                post.push(p);
            } else {
                head[p] = next[child as usize];
                stack.push(child as usize);
            }
        }
    }
    // The placeholder root n is the last root, so it is postordered last.
    debug_assert_eq!(post.last(), Some(&n));
    post.pop();
    post
}

/// `CS_FLIP`: an involution mapping `i ≥ 0` to `-i - 2 < 0`, so a
/// pointer slot can hold either an index or a flagged parent.
fn flip(i: isize) -> isize {
    -i - 2
}

/// Resets the element marks `w` (keeping dead elements at 0) when
/// `mark` is unset or would overflow past `lemax`; returns the mark
/// to use, below which every live `w` now lies.
fn wclear(mark: isize, lemax: isize, w: &mut [isize]) -> isize {
    if mark < 2 || mark.checked_add(lemax).is_none() {
        for x in w.iter_mut() {
            if *x != 0 {
                *x = 1;
            }
        }
        return 2;
    }
    mark
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
    use crate::{SparseLdlt, SymbolicLdlt, TripletMat};
    use mpvl_testkit::prop::{check, vec_in};
    use mpvl_testkit::prop_assert;

    /// Exact minimum degree on the explicit elimination graph: an
    /// `O(n)` scan per step for the `(degree, index)` minimum and a
    /// `binary_search` + `insert` per clique member. The test-only
    /// reference whose fill the approximate [`min_degree`] is held to.
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

    /// `nnz(L)` of a matrix with the pattern of `adj` under `perm`.
    fn fill(adj: &[Vec<usize>], perm: Vec<usize>) -> usize {
        SymbolicLdlt::analyze_with_perm(&laplacian_like(adj, 1.0), perm)
            .expect("square")
            .l_nnz()
    }

    #[test]
    fn amd_fill_stays_near_exact_md_on_random_graphs() {
        // AMD's degrees are upper bounds and its ties break differently,
        // so it may fill more or less than exact minimum degree on any
        // one graph; over 20 000 small random graphs the worst ratio
        // seen is 1.14.
        check(
            "amd_fill_stays_near_exact_md_on_random_graphs",
            96,
            (1usize..61, vec_in((0usize..60, 0usize..60), 0..180)),
            |(n, raw)| {
                let n = *n;
                let edges: Vec<(usize, usize)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
                let adj = graph_from_edges(n, &edges);
                let p = min_degree(&adj);
                prop_assert!(is_permutation(&p, n), "bad permutation {p:?}");
                let amd = fill(&adj, p);
                let exact = fill(&adj, min_degree_scan(&adj));
                prop_assert!(
                    2 * amd <= 3 * exact,
                    "nnz(L): AMD {amd} > 1.5 x exact MD {exact}"
                );
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
            let n = adj.len();
            let p = min_degree(adj);
            assert!(is_permutation(&p, n), "bad permutation {p:?}");
            let (amd, nat) = (fill(adj, p), fill(adj, (0..n).collect()));
            assert!(amd <= nat, "n = {n}: AMD fill {amd} > natural {nat}");
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
        let n = adj.len();
        let p = min_degree(&adj);
        assert!(is_permutation(&p, n));
        let (amd, nat) = (fill(&adj, p), fill(&adj, (0..n).collect()));
        assert!(amd <= nat, "AMD fill {amd} > natural {nat}");
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(min_degree(&[Vec::new()]), vec![0]);
        // n = 2: the dense threshold is capped at n - 2 = 0, so both
        // ends of an edge are set aside as dense and keep their order.
        assert_eq!(min_degree(&[vec![1], vec![0]]), vec![0, 1]);
        assert_eq!(min_degree(&[Vec::new(), Vec::new()]), vec![0, 1]);
    }

    #[test]
    fn isolated_vertices_keep_index_order() {
        // Degree-0 vertices are roots of the assembly tree, postordered
        // by index, around the path they sit between.
        let mut adj = vec![Vec::new(); 2];
        adj.extend(
            path_graph(4)
                .into_iter()
                .map(|l| l.into_iter().map(|v| v + 2).collect::<Vec<_>>()),
        );
        adj.push(Vec::new());
        let p = min_degree(&adj);
        assert!(is_permutation(&p, 7));
        assert_eq!(&p[..2], &[0, 1]);
        assert_eq!(p[6], 6);
    }

    #[test]
    fn rows_above_the_dense_threshold_go_last() {
        // A hub tied to every vertex of a 20x20 grid (degree 400 >
        // 10 * sqrt(401)) is ordered last, so its row of L is full but
        // the grid part still orders far better than natural.
        let mut adj = grid_graph(20, 20);
        let hub = adj.len();
        for l in &mut adj {
            l.push(hub);
        }
        adj.push((0..hub).collect());
        let p = min_degree(&adj);
        assert!(is_permutation(&p, hub + 1));
        assert_eq!(p[hub], hub);
        let (amd, nat) = (fill(&adj, p), fill(&adj, (0..=hub).collect()));
        assert!(2 * amd < nat, "AMD fill {amd} vs natural {nat}");
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
        // Every vertex of an n-clique has degree n - 1, above the dense
        // threshold's cap of n - 2 (n = 100: 99 > min(100, 98)), so all
        // are set aside as dense and come out in index order.
        for n in [12, 100] {
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            let adj = graph_from_edges(n, &edges);
            assert_eq!(min_degree(&adj), (0..n).collect::<Vec<_>>());
        }
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
        // The hub has degree 7 and the leaves degree 1, so the hub goes
        // after the leaves (here it is also above the dense cap n - 2 =
        // 6, which orders it last); at the earliest it could tie with the
        // last remaining leaf.
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
