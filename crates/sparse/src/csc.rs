//! Compressed sparse column matrices.

use mpvl_la::{Mat, Scalar};

/// A sparse matrix in compressed-sparse-column (CSC) format.
///
/// Row indices within each column are kept sorted. Symmetric matrices are
/// stored with *both* triangles populated; the factorization reads only the
/// upper triangle.
///
/// # Examples
///
/// ```
/// use mpvl_sparse::TripletMat;
///
/// let mut t = TripletMat::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 1, 3.0);
/// let a = t.to_csc();
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscMat<T> {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CscMat<T> {
    /// Builds a CSC matrix from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the structure is inconsistent (wrong pointer length,
    /// unsorted or out-of-bounds row indices).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(col_ptr.len(), ncols + 1, "bad col_ptr length");
        assert_eq!(row_idx.len(), values.len(), "index/value length mismatch");
        assert_eq!(*col_ptr.last().expect("nonempty col_ptr"), row_idx.len());
        for j in 0..ncols {
            assert!(col_ptr[j] <= col_ptr[j + 1], "col_ptr not monotone");
            for k in col_ptr[j]..col_ptr[j + 1] {
                assert!(row_idx[k] < nrows, "row index out of bounds");
                if k > col_ptr[j] {
                    assert!(row_idx[k - 1] < row_idx[k], "rows not strictly sorted");
                }
            }
        }
        CscMat {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// An `n x n` matrix with no stored entries.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        CscMat {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        CscMat {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n).collect(),
            values: vec![T::one(); n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column-pointer array (length `ncols + 1`).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices of the stored entries, column by column.
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Values of the stored entries, column by column.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable values of the stored entries, column by column.
    ///
    /// The pattern (shape, `col_ptr`, `row_idx`) stays fixed; only the
    /// numeric payload can change. This is what lets a reusable template
    /// matrix be refilled in place (e.g. by [`AddScaledPlan::apply_into`])
    /// without reallocating per call.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Row indices and values of column `j`.
    #[inline]
    pub fn col_entries(&self, j: usize) -> (&[usize], &[T]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// The entry at `(i, j)`, or zero if not stored.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (rows, vals) = self.col_entries(j);
        match rows.binary_search(&i) {
            Ok(k) => vals[k],
            Err(_) => T::zero(),
        }
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A x`, accumulated into the caller-owned
    /// `y` (overwritten, not added to). Allocation-free: this is the
    /// primitive `matvec` wraps.
    ///
    /// The accumulation order per output entry is identical to the
    /// historical `matvec` loop — columns ascending, stored entries
    /// ascending, columns with `x[j] == 0` skipped — so results are
    /// bit-identical to the allocating path.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()` or `y.len() != self.nrows()`.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols, "dimension mismatch");
        assert_eq!(y.len(), self.nrows, "dimension mismatch");
        y.fill(T::zero());
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == T::zero() {
                continue;
            }
            let (rows, vals) = self.col_entries(j);
            for (&i, &v) in rows.iter().zip(vals) {
                y[i] += v * xj;
            }
        }
    }

    /// Multi-RHS product `A X` into the caller-owned column-major `y`.
    ///
    /// One traversal of the sparse structure serves every right-hand
    /// side: for each sparse column the entry list stays hot in cache
    /// while the inner loop walks the RHS columns. For each individual
    /// RHS column the contributions arrive in exactly the order
    /// `matvec_into` produces them (columns ascending, entries
    /// ascending, zero `x[(j, k)]` skipped), so each output column is
    /// bit-identical to a columnwise `matvec`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not line up.
    pub fn matvec_mat_into(&self, x: &Mat<T>, y: &mut Mat<T>) {
        assert_eq!(x.nrows(), self.ncols, "dimension mismatch");
        assert_eq!(y.nrows(), self.nrows, "dimension mismatch");
        assert_eq!(x.ncols(), y.ncols(), "RHS count mismatch");
        let nrhs = x.ncols();
        for k in 0..nrhs {
            y.col_mut(k).fill(T::zero());
        }
        for j in 0..self.ncols {
            let (rows, vals) = self.col_entries(j);
            if rows.is_empty() {
                continue;
            }
            for k in 0..nrhs {
                let xjk = x[(j, k)];
                if xjk == T::zero() {
                    continue;
                }
                let yk = y.col_mut(k);
                for (&i, &v) in rows.iter().zip(vals) {
                    yk[i] += v * xjk;
                }
            }
        }
    }

    /// Multi-RHS product `A X`, allocating the result (thin wrapper
    /// over [`CscMat::matvec_mat_into`]; named for consistency with
    /// `Mat::matmul`).
    pub fn matmul(&self, x: &Mat<T>) -> Mat<T> {
        let mut y = Mat::zeros(self.nrows, x.ncols());
        self.matvec_mat_into(x, &mut y);
        y
    }

    /// Transposed product `Aᵀ x` (no conjugation).
    pub fn t_matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.nrows, "dimension mismatch");
        (0..self.ncols)
            .map(|j| {
                let (rows, vals) = self.col_entries(j);
                rows.iter()
                    .zip(vals)
                    .fold(T::zero(), |acc, (&i, &v)| acc + v * x[i])
            })
            .collect()
    }

    /// Dense copy (for tests and small systems).
    pub fn to_dense(&self) -> Mat<T> {
        let mut m = Mat::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            let (rows, vals) = self.col_entries(j);
            for (&i, &v) in rows.iter().zip(vals) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// The transpose, in CSC form.
    pub fn transpose(&self) -> CscMat<T> {
        let mut count = vec![0usize; self.nrows + 1];
        for &i in &self.row_idx {
            count[i + 1] += 1;
        }
        for i in 0..self.nrows {
            count[i + 1] += count[i];
        }
        let mut next = count[..self.nrows].to_vec();
        let mut rows = vec![0usize; self.nnz()];
        let mut vals = vec![T::zero(); self.nnz()];
        for j in 0..self.ncols {
            let (r, v) = self.col_entries(j);
            for (&i, &x) in r.iter().zip(v) {
                let slot = next[i];
                next[i] += 1;
                rows[slot] = j;
                vals[slot] = x;
            }
        }
        CscMat {
            nrows: self.ncols,
            ncols: self.nrows,
            col_ptr: count,
            row_idx: rows,
            values: vals,
        }
    }

    /// Applies `f` to every stored value, possibly changing the scalar type.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> CscMat<U> {
        CscMat {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr: self.col_ptr.clone(),
            row_idx: self.row_idx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Symmetric permutation `B = PᵀAP`, i.e. `B[i, j] = A[perm[i], perm[j]]`.
    ///
    /// `perm[i]` is the original index placed at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `perm` is not a permutation of
    /// the right length.
    pub fn permute_sym(&self, perm: &[usize]) -> CscMat<T> {
        assert_eq!(self.nrows, self.ncols, "permute_sym requires square");
        let n = self.nrows;
        assert_eq!(perm.len(), n, "bad permutation length");
        // inv[old] = new
        let mut inv = vec![usize::MAX; n];
        for (newi, &old) in perm.iter().enumerate() {
            assert!(old < n && inv[old] == usize::MAX, "not a permutation");
            inv[old] = newi;
        }
        let mut t = crate::TripletMat::with_capacity(n, n, self.nnz());
        for j in 0..n {
            let (rows, vals) = self.col_entries(j);
            for (&i, &v) in rows.iter().zip(vals) {
                t.push(inv[i], inv[j], v);
            }
        }
        t.to_csc()
    }

    /// Linear combination `alpha * self + beta * other` (pattern union).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&self, alpha: T, other: &CscMat<T>, beta: T) -> CscMat<T> {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "shape mismatch"
        );
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut rows = Vec::with_capacity(self.nnz() + other.nnz());
        let mut vals = Vec::with_capacity(self.nnz() + other.nnz());
        for j in 0..self.ncols {
            let (ra, va) = self.col_entries(j);
            let (rb, vb) = other.col_entries(j);
            let (mut ka, mut kb) = (0, 0);
            while ka < ra.len() || kb < rb.len() {
                let ia = ra.get(ka).copied().unwrap_or(usize::MAX);
                let ib = rb.get(kb).copied().unwrap_or(usize::MAX);
                if ia < ib {
                    rows.push(ia);
                    vals.push(alpha * va[ka]);
                    ka += 1;
                } else if ib < ia {
                    rows.push(ib);
                    vals.push(beta * vb[kb]);
                    kb += 1;
                } else {
                    rows.push(ia);
                    vals.push(alpha * va[ka] + beta * vb[kb]);
                    ka += 1;
                    kb += 1;
                }
            }
            col_ptr[j + 1] = rows.len();
        }
        CscMat {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_idx: rows,
            values: vals,
        }
    }

    /// Maximum entry-wise asymmetry `max |A - Aᵀ|`; zero for symmetric input.
    pub fn asymmetry(&self) -> f64 {
        if self.nrows != self.ncols {
            return f64::INFINITY;
        }
        let at = self.transpose();
        let diff = self.add_scaled(T::one(), &at, -T::one());
        diff.values.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }

    /// Undirected adjacency structure (excluding the diagonal) of the
    /// symmetric pattern `A + Aᵀ` — used by the ordering heuristics.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        assert_eq!(self.nrows, self.ncols, "adjacency requires square");
        let n = self.nrows;
        let mut adj = vec![Vec::new(); n];
        for j in 0..n {
            let (rows, _) = self.col_entries(j);
            for &i in rows {
                if i != j {
                    adj[j].push(i);
                    adj[i].push(j);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }
}

/// A precomputed pattern-union plan for `alpha * A + beta * B`.
///
/// [`CscMat::add_scaled`] re-merges the two sparsity patterns and
/// reallocates the result on every call; in a frequency sweep the same
/// `G`/`C` pair is combined once per point, so the merge is pure
/// overhead. The plan runs the merge once, remembering for each stored
/// entry of the union which source entries feed it, and
/// [`apply_into`](Self::apply_into) then refills a preallocated value
/// slice with no allocation and no pattern work.
///
/// Bit-compatibility contract: for every entry, `apply_into` evaluates
/// the *same floating-point expression* `add_scaled` would —
/// `alpha * va`, `beta * vb`, or `alpha * va + beta * vb` — so the
/// produced values are byte-identical to a fresh `add_scaled` call.
#[derive(Debug, Clone)]
pub struct AddScaledPlan {
    nnz: usize,
    /// Per union entry: index into A's values, or `usize::MAX` if absent.
    src_a: Vec<usize>,
    /// Per union entry: index into B's values, or `usize::MAX` if absent.
    src_b: Vec<usize>,
}

impl AddScaledPlan {
    /// Builds the plan from two same-shape patterns.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn new<T: Scalar>(a: &CscMat<T>, b: &CscMat<T>) -> Self {
        assert_eq!((a.nrows, a.ncols), (b.nrows, b.ncols), "shape mismatch");
        let mut src_a = Vec::with_capacity(a.nnz() + b.nnz());
        let mut src_b = Vec::with_capacity(a.nnz() + b.nnz());
        for j in 0..a.ncols {
            let (ra, _) = a.col_entries(j);
            let (rb, _) = b.col_entries(j);
            let (base_a, base_b) = (a.col_ptr[j], b.col_ptr[j]);
            let (mut ka, mut kb) = (0, 0);
            while ka < ra.len() || kb < rb.len() {
                let ia = ra.get(ka).copied().unwrap_or(usize::MAX);
                let ib = rb.get(kb).copied().unwrap_or(usize::MAX);
                if ia < ib {
                    src_a.push(base_a + ka);
                    src_b.push(usize::MAX);
                    ka += 1;
                } else if ib < ia {
                    src_a.push(usize::MAX);
                    src_b.push(base_b + kb);
                    kb += 1;
                } else {
                    src_a.push(base_a + ka);
                    src_b.push(base_b + kb);
                    ka += 1;
                    kb += 1;
                }
            }
        }
        let nnz = src_a.len();
        AddScaledPlan { nnz, src_a, src_b }
    }

    /// Number of stored entries in the union pattern.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The union matrix `alpha * A + beta * B` itself — the template to
    /// clone per worker and refill via [`apply_into`](Self::apply_into).
    /// Equal (pattern and values) to `a.add_scaled(alpha, b, beta)`.
    pub fn build<T: Scalar>(&self, alpha: T, a: &CscMat<T>, beta: T, b: &CscMat<T>) -> CscMat<T> {
        let mut out = a.add_scaled(alpha, b, beta);
        debug_assert_eq!(out.nnz(), self.nnz);
        self.apply_into(alpha, a.values(), beta, b.values(), out.values_mut());
        out
    }

    /// Refills `out` with the values of `alpha * A + beta * B`, where
    /// `a_vals`/`b_vals` are the value slices of matrices with the
    /// patterns the plan was built from.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`nnz`](Self::nnz) (debug
    /// assertions also check the source lengths).
    pub fn apply_into<T: Scalar>(
        &self,
        alpha: T,
        a_vals: &[T],
        beta: T,
        b_vals: &[T],
        out: &mut [T],
    ) {
        assert_eq!(out.len(), self.nnz, "output length mismatch");
        for (o, (&sa, &sb)) in out.iter_mut().zip(self.src_a.iter().zip(&self.src_b)) {
            *o = if sb == usize::MAX {
                alpha * a_vals[sa]
            } else if sa == usize::MAX {
                beta * b_vals[sb]
            } else {
                alpha * a_vals[sa] + beta * b_vals[sb]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMat;

    fn example() -> CscMat<f64> {
        // [2 -1 0; -1 2 -1; 0 -1 2]
        let mut t = TripletMat::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        t.push_sym(0, 1, -1.0);
        t.push_sym(1, 2, -1.0);
        t.to_csc()
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let d = a.to_dense();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.matvec(&x), d.matvec(&x));
        assert_eq!(a.t_matvec(&x), d.t_matvec(&x));
    }

    #[test]
    fn transpose_of_symmetric_is_identical() {
        let a = example();
        assert_eq!(a.transpose().to_dense(), a.to_dense());
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn permute_sym_matches_dense_permutation() {
        let a = example();
        let perm = [2usize, 0, 1];
        let b = a.permute_sym(&perm);
        let d = a.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(i, j), d[(perm[i], perm[j])]);
            }
        }
    }

    #[test]
    fn add_scaled_combines_patterns() {
        let a = example();
        let i = CscMat::<f64>::identity(3);
        let b = a.add_scaled(1.0, &i, 10.0);
        assert_eq!(b.get(0, 0), 12.0);
        assert_eq!(b.get(0, 1), -1.0);
        // Exact cancellation keeps the explicit entry; value is zero.
        let c = a.add_scaled(1.0, &a, -1.0);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(0, 1), 0.0);
    }

    #[test]
    fn add_scaled_plan_matches_add_scaled_bitwise() {
        let a = example();
        let i = CscMat::<f64>::identity(3);
        let plan = AddScaledPlan::new(&a, &i);
        for &(alpha, beta) in &[(1.0, 10.0), (-2.5, 0.0), (0.0, 3.0)] {
            let fresh = a.add_scaled(alpha, &i, beta);
            let planned = plan.build(alpha, &a, beta, &i);
            assert_eq!(planned, fresh);
            // And refilling an existing template reproduces it bitwise.
            let mut out = vec![f64::NAN; plan.nnz()];
            plan.apply_into(alpha, a.values(), beta, i.values(), &mut out);
            assert_eq!(out, fresh.values());
        }
        // Asymmetric coverage: entries present only in A, only in B, both.
        let plan_rev = AddScaledPlan::new(&i, &a);
        let fresh = i.add_scaled(2.0, &a, -1.0);
        assert_eq!(plan_rev.build(2.0, &i, -1.0, &a), fresh);
    }

    #[test]
    fn adjacency_excludes_diagonal() {
        let a = example();
        let adj = a.adjacency();
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![1]);
    }

    #[test]
    fn identity_and_zero() {
        let i = CscMat::<f64>::identity(4);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0, 4.0]), vec![1.0, 2.0, 3.0, 4.0]);
        let z = CscMat::<f64>::zero(2, 3);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "rows not strictly sorted")]
    fn from_raw_validates() {
        let _ = CscMat::from_raw(2, 1, vec![0, 2], vec![1, 0], vec![1.0, 2.0]);
    }
}
