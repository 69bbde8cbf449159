//! Per-entry scalar PVL — the §3.2 strawman.
//!
//! *"One approach to obtaining approximations of Z is to compute scalar
//! Padé approximants for each of the p² entries of Z by means of p² runs
//! of PVL. However, a much more efficient approach is to use the concept
//! of matrix-Padé approximation…"*
//!
//! This module implements that strawman so the claim can be measured.
//! Each entry `Z_ij = eᵢᵀZeⱼ` is reduced by scalar symmetric Lanczos runs
//! using the polarization identity
//! `4·bᵢᵀF(b_j) = (bᵢ+bⱼ)ᵀF(bᵢ+bⱼ) − (bᵢ−bⱼ)ᵀF(bᵢ−bⱼ)`
//! (which keeps every run symmetric, as SyPVL requires). The combined
//! "model" needs `p(p+1)/2` to `p²` scalar runs of order `n` each — far
//! more total state than one block run of order `n`, for the same matched
//! moments per entry.

use crate::{sympvl, ReducedModel, SympvlError, SympvlOptions};
use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};

/// A p×p transfer-function approximation assembled from scalar PVL runs.
#[derive(Debug, Clone)]
pub struct PerEntryModel {
    p: usize,
    /// Upper-triangle entries (i ≤ j): diagonal entries use one run;
    /// off-diagonals use the polarization pair (plus, minus).
    entries: Vec<EntryModel>,
}

#[derive(Debug, Clone)]
enum EntryModel {
    Diagonal(ReducedModel),
    Polarized {
        plus: ReducedModel,
        minus: ReducedModel,
    },
}

impl PerEntryModel {
    /// Builds the per-entry approximation with scalar runs of order `n`.
    ///
    /// # Errors
    ///
    /// Propagates [`sympvl`] failures from any of the underlying runs.
    pub fn new(sys: &MnaSystem, n: usize, opts: &SympvlOptions) -> Result<Self, SympvlError> {
        let p = sys.num_ports();
        let mut entries = Vec::with_capacity(p * (p + 1) / 2);
        for i in 0..p {
            for j in i..p {
                if i == j {
                    let sub = single_column_system(sys, sys.b.col(i).to_vec());
                    entries.push(EntryModel::Diagonal(sympvl(&sub, n, opts)?));
                } else {
                    let bi = sys.b.col(i);
                    let bj = sys.b.col(j);
                    let plus: Vec<f64> = bi.iter().zip(bj).map(|(a, b)| a + b).collect();
                    let minus: Vec<f64> = bi.iter().zip(bj).map(|(a, b)| a - b).collect();
                    let sys_p = single_column_system(sys, plus);
                    let sys_m = single_column_system(sys, minus);
                    entries.push(EntryModel::Polarized {
                        plus: sympvl(&sys_p, n, opts)?,
                        minus: sympvl(&sys_m, n, opts)?,
                    });
                }
            }
        }
        Ok(PerEntryModel { p, entries })
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.p
    }

    /// Total state count across all scalar runs — the cost metric the
    /// paper's §3.2 argument is about.
    pub fn total_states(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                EntryModel::Diagonal(m) => m.order(),
                EntryModel::Polarized { plus, minus } => plus.order() + minus.order(),
            })
            .sum()
    }

    /// Number of scalar Lanczos runs used.
    pub fn run_count(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                EntryModel::Diagonal(_) => 1,
                EntryModel::Polarized { .. } => 2,
            })
            .sum()
    }

    /// Evaluates the assembled p×p approximation.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the underlying scalar models.
    pub fn eval(&self, s: Complex64) -> Result<Mat<Complex64>, SympvlError> {
        let mut z = Mat::zeros(self.p, self.p);
        let mut idx = 0;
        for i in 0..self.p {
            for j in i..self.p {
                let v = match &self.entries[idx] {
                    EntryModel::Diagonal(m) => m.eval(s)?[(0, 0)],
                    EntryModel::Polarized { plus, minus } => {
                        let zp = plus.eval(s)?[(0, 0)];
                        let zm = minus.eval(s)?[(0, 0)];
                        (zp - zm).scale(0.25)
                    }
                };
                z[(i, j)] = v;
                z[(j, i)] = v;
                idx += 1;
            }
        }
        Ok(z)
    }
}

/// Clones `sys` with `B` replaced by a single column.
fn single_column_system(sys: &MnaSystem, col: Vec<f64>) -> MnaSystem {
    let mut b = Mat::zeros(sys.dim(), 1);
    b.col_mut(0).copy_from_slice(&col);
    MnaSystem {
        g: sys.g.clone(),
        c: sys.c.clone(),
        b,
        s_power: sys.s_power,
        output_s_factor: sys.output_s_factor,
        class: sys.class,
        num_node_unknowns: sys.num_node_unknowns,
        num_inductor_unknowns: sys.num_inductor_unknowns,
        g_structurally_singular: sys.g_structurally_singular,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::generators::rc_line;

    fn rel_err(a: Complex64, b: Complex64) -> f64 {
        (a - b).abs() / b.abs().max(1e-300)
    }

    #[test]
    fn per_entry_matches_exact_at_sufficient_order() {
        let sys = MnaSystem::assemble(&rc_line(30, 40.0, 1e-12)).unwrap();
        let m = PerEntryModel::new(&sys, 16, &SympvlOptions::default()).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let z = m.eval(s).unwrap();
        let zx = sys.dense_z(s).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    rel_err(z[(i, j)], zx[(i, j)]) < 1e-6,
                    "entry ({i},{j}): {} vs {}",
                    z[(i, j)],
                    zx[(i, j)]
                );
            }
        }
    }

    #[test]
    fn per_entry_needs_more_total_state_than_block() {
        // The §3.2 argument: p² scalar runs of order n carry ~p(p+1)/2 × n
        // (or more) states vs n for one block run matching the same
        // per-entry moment count.
        let sys = MnaSystem::assemble(&rc_line(30, 40.0, 1e-12)).unwrap();
        let n = 6;
        let per_entry = PerEntryModel::new(&sys, n, &SympvlOptions::default()).unwrap();
        let block = crate::sympvl(&sys, 2 * n, &SympvlOptions::default()).unwrap();
        // Block run of order 2n matches 2n/p·2 = 2n per-entry moments —
        // same as each scalar run of order n — with far fewer states.
        assert!(
            per_entry.total_states() > block.order(),
            "per-entry {} vs block {}",
            per_entry.total_states(),
            block.order()
        );
        assert_eq!(per_entry.run_count(), 4); // 2 diagonal + 2 polarized
    }
}
