//! Fill ceilings for the default fill-reducing ordering.
//!
//! `nnz(L)` of the factored `G + C` pattern under
//! `Ordering::MinDegree`, pinned at or below what the exact
//! minimum-degree ordering on the explicit elimination graph produced
//! on each workload. Approximate degrees could in principle order
//! worse than exact ones; these ceilings catch that on the circuits
//! the paper reduces, and pin the zero-fill cases (ladders, trees)
//! exactly.

use mpvl_circuit::generators::{
    h_tree, interconnect, package, rc_ladder, HTreeParams, InterconnectParams, PackageParams,
};
use mpvl_circuit::{Circuit, MnaSystem};
use mpvl_sparse::{CscMat, Ordering, SymbolicLdlt, TripletMat};

fn l_nnz(a: &CscMat<f64>) -> usize {
    SymbolicLdlt::analyze(a, Ordering::MinDegree)
        .expect("square")
        .l_nnz()
}

/// `nnz(L)` of `G + C` for the assembled circuit.
fn circuit_l_nnz(ckt: &Circuit) -> usize {
    let sys = MnaSystem::assemble(ckt).expect("assemble");
    l_nnz(&sys.g.add_scaled(1.0, &sys.c, 1.0))
}

/// The 5-point Laplacian of a `k × k` grid, grounded at every node.
fn grid_laplacian(k: usize) -> CscMat<f64> {
    let n = k * k;
    let mut t = TripletMat::new(n, n);
    for r in 0..k {
        for c in 0..k {
            let i = r * k + c;
            t.push(i, i, 4.5);
            if c + 1 < k {
                t.push_sym(i, i + 1, -1.0);
            }
            if r + 1 < k {
                t.push_sym(i, i + k, -1.0);
            }
        }
    }
    t.to_csc()
}

fn assert_ceiling(name: &str, got: usize, ceiling: usize) {
    assert!(
        got <= ceiling,
        "{name}: nnz(L) = {got} above the ceiling {ceiling}"
    );
}

#[test]
fn package_fill_at_or_below_exact_md() {
    assert_ceiling(
        "package",
        circuit_l_nnz(&package(&PackageParams::default())),
        10_711,
    );
}

#[test]
fn interconnect_fill_at_or_below_exact_md() {
    assert_ceiling(
        "interconnect",
        circuit_l_nnz(&interconnect(&InterconnectParams::default())),
        21_717,
    );
}

#[test]
fn grid_fill_at_or_below_exact_md() {
    assert_ceiling("grid 100x100", l_nnz(&grid_laplacian(100)), 211_032);
}

#[test]
fn ladders_and_trees_factor_without_fill() {
    // A ladder is a path and an H-tree a tree: an ordering that
    // eliminates leaves first leaves exactly one entry of L per
    // non-root column.
    for sections in [64, 1000] {
        let ckt = rc_ladder(sections, 10.0, 1e-12);
        assert_eq!(circuit_l_nnz(&ckt), sections, "rc_ladder({sections})");
    }
    let ckt = h_tree(&HTreeParams::default());
    let n = MnaSystem::assemble(&ckt).expect("assemble").dim();
    assert_eq!(circuit_l_nnz(&ckt), n - 1, "h_tree");
}
