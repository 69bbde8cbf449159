//! The `G = M J Mᵀ` factorization driver (paper eq. 15).
//!
//! Dispatches between the sparse unpivoted LDLᵀ (the fast path; valid for
//! the semidefinite RC/RL/LC matrices and the quasi-definite shifted RLC
//! matrices) and a dense Bunch–Kaufman fallback for the rare structurally
//! awkward cases (e.g. nodes touched only by inductors, where unpivoted
//! elimination can hit a zero pivot).

use crate::SympvlError;
use mpvl_la::{BunchKaufman, Mat, MjFactor};
use mpvl_sparse::{CscMat, Ordering, SparseLdlt};

/// A factorization of a symmetric matrix `G` as `M J Mᵀ` with
/// `J = diag(±1)`, exposing the operations the Lanczos process needs:
/// `M⁻¹x`, `M⁻ᵀx`, and the signature `J`.
#[derive(Debug)]
pub enum GFactor {
    /// Sparse LDLᵀ path (possibly indefinite diagonal).
    Sparse {
        /// The factorization itself.
        fac: SparseLdlt<f64>,
        /// `√|dᵢ|` scaling.
        sqrt_d: Vec<f64>,
        /// Signature `sign(dᵢ)`.
        j_sign: Vec<f64>,
    },
    /// Dense Bunch–Kaufman fallback.
    Dense(MjFactor),
}

impl GFactor {
    /// Factors `g`, preferring the sparse path. Every fall back to the
    /// dense path counts once in the `factor/dense_fallbacks` obs
    /// counter, whether or not the dense factor then succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Factorization`] when both the sparse LDLᵀ and
    /// the dense Bunch–Kaufman factorization fail (singular `G`; apply a
    /// frequency shift per eq. 26 and retry).
    pub fn factor(g: &CscMat<f64>) -> Result<Self, SympvlError> {
        match SparseLdlt::factor(g, Ordering::MinDegree) {
            Ok(fac) => {
                let sqrt_d: Vec<f64> = fac.d().iter().map(|&v| v.abs().sqrt()).collect();
                let j_sign: Vec<f64> = fac.d().iter().map(|&v| v.signum()).collect();
                Ok(GFactor::Sparse {
                    fac,
                    sqrt_d,
                    j_sign,
                })
            }
            Err(sparse_err) => {
                mpvl_obs::counter_add("factor", "dense_fallbacks", 1);
                let bk =
                    BunchKaufman::new(&g.to_dense()).map_err(|e| SympvlError::Factorization {
                        reason: format!("sparse: {sparse_err}; dense: {e}"),
                    })?;
                let mj = bk.to_mj().map_err(|e| SympvlError::Factorization {
                    reason: format!("sparse: {sparse_err}; dense block: {e}"),
                })?;
                Ok(GFactor::Dense(mj))
            }
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        match self {
            GFactor::Sparse { fac, .. } => fac.dim(),
            GFactor::Dense(mj) => mj.dim(),
        }
    }

    /// The signature `J = diag(±1)`.
    pub fn j_diag(&self) -> Vec<f64> {
        match self {
            GFactor::Sparse { j_sign, .. } => j_sign.clone(),
            GFactor::Dense(mj) => mj.j_diag().to_vec(),
        }
    }

    /// Pivot magnitude range `(min |d|, max |d|)` of the factorization —
    /// a cheap conditioning signal (an ungrounded Laplacian factors with
    /// one near-zero pivot instead of failing outright). A
    /// zero-dimensional factor reports `(0.0, 0.0)`, not the raw fold
    /// identity `(∞, 0.0)`, so "is the factor well conditioned" checks
    /// cannot pass vacuously.
    pub fn pivot_range(&self) -> (f64, f64) {
        let fold = |it: &mut dyn Iterator<Item = f64>| -> (f64, f64) {
            let (lo, hi) = it.fold((f64::INFINITY, 0.0_f64), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
            if lo.is_finite() {
                (lo, hi)
            } else {
                (0.0, 0.0)
            }
        };
        match self {
            GFactor::Sparse { fac, .. } => fold(&mut fac.d().iter().map(|v| v.abs())),
            GFactor::Dense(mj) => fold(&mut mj.pivot_magnitudes().into_iter()),
        }
    }

    /// `true` when `J = I`, i.e. `G` is positive definite — the RC/RL/LC
    /// fast path of §5 with guaranteed stability and passivity.
    pub fn is_identity_j(&self) -> bool {
        match self {
            GFactor::Sparse { j_sign, .. } => j_sign.iter().all(|&s| s > 0.0),
            GFactor::Dense(mj) => mj.j_diag().iter().all(|&s| s > 0.0),
        }
    }

    /// Applies `M⁻¹` to `x`.
    pub fn apply_minv(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.apply_minv_into(x, &mut out);
        out
    }

    /// Applies `M⁻¹` into the caller-owned `out` — the allocation-free
    /// primitive [`GFactor::apply_minv`] wraps. `out` doubles as the
    /// working vector: the permutation gather lands in `out`, then the
    /// triangular solve and scaling run in place, so no per-call `Vec`
    /// or scatter buffer is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differ from `self.dim()`.
    pub fn apply_minv_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            GFactor::Sparse { fac, sqrt_d, .. } => {
                let n = fac.dim();
                assert_eq!(x.len(), n, "dimension mismatch");
                assert_eq!(out.len(), n, "dimension mismatch");
                let perm = fac.perm();
                for i in 0..n {
                    out[i] = x[perm[i]];
                }
                fac.l_solve(out);
                for k in 0..n {
                    out[k] /= sqrt_d[k];
                }
            }
            GFactor::Dense(mj) => mj.apply_minv_into(x, out),
        }
    }

    /// Applies `M⁻ᵀ` to `x`.
    pub fn apply_minv_t(&self, x: &[f64]) -> Vec<f64> {
        let n = self.dim();
        let mut work = vec![0.0; n];
        let mut out = vec![0.0; n];
        self.apply_minv_t_into(x, &mut work, &mut out);
        out
    }

    /// Applies `M⁻ᵀ` into the caller-owned `out` — the allocation-free
    /// primitive [`GFactor::apply_minv_t`] wraps. The final step is a
    /// permutation scatter, which cannot alias its source, so the
    /// caller provides the `work` vector the solves run in.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `self.dim()`.
    pub fn apply_minv_t_into(&self, x: &[f64], work: &mut [f64], out: &mut [f64]) {
        match self {
            GFactor::Sparse { fac, sqrt_d, .. } => {
                let n = fac.dim();
                assert_eq!(x.len(), n, "dimension mismatch");
                assert_eq!(work.len(), n, "dimension mismatch");
                assert_eq!(out.len(), n, "dimension mismatch");
                for k in 0..n {
                    work[k] = x[k] / sqrt_d[k];
                }
                fac.lt_solve(work);
                let perm = fac.perm();
                for i in 0..n {
                    out[perm[i]] = work[i];
                }
            }
            GFactor::Dense(mj) => mj.apply_minv_t_into(x, work, out),
        }
    }

    /// Applies `M⁻¹` to every column of a dense matrix.
    pub fn apply_minv_mat(&self, x: &Mat<f64>) -> Mat<f64> {
        self.apply_minv_mat_with_threads(x, mpvl_par::thread_count())
    }

    /// Applies `M⁻ᵀ` to every column of a dense matrix (the blocked
    /// mirror of [`GFactor::apply_minv_mat`]).
    pub fn apply_minv_t_mat(&self, x: &Mat<f64>) -> Mat<f64> {
        self.apply_minv_t_mat_with_threads(x, mpvl_par::thread_count())
    }

    /// [`GFactor::apply_minv_mat`] with an explicit worker count.
    ///
    /// Columns are independent and each runs the exact serial
    /// per-column kernel, with contiguous index-ordered chunks per
    /// worker — the result is bit-identical at any `threads`.
    pub fn apply_minv_mat_with_threads(&self, x: &Mat<f64>, threads: usize) -> Mat<f64> {
        let n = self.dim();
        assert_eq!(x.nrows(), n, "dimension mismatch");
        let mut out = Mat::zeros(n, x.ncols());
        let mut cols: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(n.max(1)).collect();
        mpvl_par::parallel_for_chunks_with(threads, &mut cols, |offset, chunk| {
            for (c, dst) in chunk.iter_mut().enumerate() {
                self.apply_minv_into(x.col(offset + c), dst);
            }
        });
        out
    }

    /// [`GFactor::apply_minv_t_mat`] with an explicit worker count;
    /// bit-identical at any `threads` (see
    /// [`GFactor::apply_minv_mat_with_threads`]).
    pub fn apply_minv_t_mat_with_threads(&self, x: &Mat<f64>, threads: usize) -> Mat<f64> {
        let n = self.dim();
        assert_eq!(x.nrows(), n, "dimension mismatch");
        let mut out = Mat::zeros(n, x.ncols());
        let mut cols: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(n.max(1)).collect();
        mpvl_par::parallel_for_chunks_with(threads, &mut cols, |offset, chunk| {
            let mut work = vec![0.0; n];
            for (c, dst) in chunk.iter_mut().enumerate() {
                self.apply_minv_t_into(x.col(offset + c), &mut work, dst);
            }
        });
        out
    }

    /// Blocked `M⁻¹ X` into a caller-owned matrix: the allocation-free
    /// primitive the [`crate::LinearOperator`] block apply builds on.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not line up.
    pub fn apply_minv_mat_into(&self, x: &Mat<f64>, out: &mut Mat<f64>) {
        let n = self.dim();
        assert_eq!(x.nrows(), n, "dimension mismatch");
        assert_eq!(out.nrows(), n, "dimension mismatch");
        assert_eq!(x.ncols(), out.ncols(), "column count mismatch");
        for j in 0..x.ncols() {
            self.apply_minv_into(x.col(j), out.col_mut(j));
        }
    }

    /// Blocked `M⁻ᵀ X` into a caller-owned matrix, with a caller-owned
    /// `work` vector shared across columns (see
    /// [`GFactor::apply_minv_t_into`] for why a scatter buffer is
    /// unavoidable).
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not line up or `work.len() != self.dim()`.
    pub fn apply_minv_t_mat_into(&self, x: &Mat<f64>, work: &mut [f64], out: &mut Mat<f64>) {
        let n = self.dim();
        assert_eq!(x.nrows(), n, "dimension mismatch");
        assert_eq!(out.nrows(), n, "dimension mismatch");
        assert_eq!(x.ncols(), out.ncols(), "column count mismatch");
        for j in 0..x.ncols() {
            self.apply_minv_t_into(x.col(j), work, out.col_mut(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_sparse::TripletMat;

    fn check_mjm(g: &CscMat<f64>, f: &GFactor) {
        // M^{-1} G M^{-T} must equal J.
        let n = g.nrows();
        let j = f.j_diag();
        for i in 0..n {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            let w = f.apply_minv_t(&e);
            let gw = g.matvec(&w);
            let res = f.apply_minv(&gw);
            for (k, &v) in res.iter().enumerate() {
                let expect = if k == i { j[i] } else { 0.0 };
                assert!((v - expect).abs() < 1e-9, "({k},{i}): {v} vs {expect}");
            }
        }
    }

    #[test]
    fn sparse_spd_path() {
        let mut t = TripletMat::new(6, 6);
        for i in 0..6 {
            t.push(i, i, 3.0);
            if i + 1 < 6 {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let g = t.to_csc();
        let f = GFactor::factor(&g).unwrap();
        assert!(matches!(f, GFactor::Sparse { .. }));
        assert!(f.is_identity_j());
        check_mjm(&g, &f);
    }

    #[test]
    fn sparse_indefinite_path() {
        // Quasi-definite: positive block, negative block, coupling.
        let mut t = TripletMat::new(6, 6);
        for i in 0..3 {
            t.push(i, i, 2.0);
            t.push(3 + i, 3 + i, -1.5);
            t.push_sym(i, 3 + i, 1.0);
        }
        let g = t.to_csc();
        let f = GFactor::factor(&g).unwrap();
        assert!(!f.is_identity_j());
        let j = f.j_diag();
        assert_eq!(j.iter().filter(|&&s| s > 0.0).count(), 3);
        check_mjm(&g, &f);
    }

    #[test]
    fn dense_fallback_on_zero_diagonal() {
        // Saddle point with zero diagonal: unpivoted sparse LDLT breaks,
        // dense Bunch-Kaufman succeeds.
        let mut t = TripletMat::new(3, 3);
        t.push_sym(0, 2, 1.0);
        t.push_sym(1, 2, 1.0);
        t.push(0, 0, 1.0);
        // node 1 and 2 diagonals zero
        let g = t.to_csc();
        let f = GFactor::factor(&g).unwrap();
        assert!(matches!(f, GFactor::Dense(_)));
        check_mjm(&g, &f);
    }

    #[test]
    fn blocked_minv_mat_matches_columnwise() {
        // Sparse path: a quasi-definite matrix.
        let mut t = TripletMat::new(8, 8);
        for i in 0..4 {
            t.push(i, i, 2.0);
            t.push(4 + i, 4 + i, -1.5);
            t.push_sym(i, 4 + i, 1.0);
        }
        let g = t.to_csc();
        let f = GFactor::factor(&g).unwrap();
        assert!(matches!(f, GFactor::Sparse { .. }));
        let x = Mat::from_fn(8, 3, |i, j| ((i * 5 + j) as f64 * 0.2).sin());
        let blocked = f.apply_minv_mat(&x);
        for j in 0..3 {
            assert_eq!(blocked.col(j), &f.apply_minv(x.col(j))[..], "column {j}");
        }
    }

    #[test]
    fn reports_singular() {
        let g = CscMat::<f64>::zero(3, 3);
        assert!(matches!(
            GFactor::factor(&g),
            Err(SympvlError::Factorization { .. })
        ));
    }
}
