//! Compiled pole–residue evaluation of reduced models.
//!
//! A [`ReducedModel`] is evaluated as
//! `Ẑ(σ) = ρᵀΔ (I + xT)⁻¹ ρ`, `x = σ − s₀` — one dense complex LU of
//! order `q` per frequency point. For sweeps with thousands of points that
//! O(q³) per point dominates everything downstream of the reduction, even
//! though the model itself never changes.
//!
//! [`EvalPlan::compile`] pays a one-time eigendecomposition `T = S Λ S⁻¹`
//! and converts the model to **pole–residue form**:
//!
//! ```text
//! Ẑ(σ) = Σₖ Wₖ / (1 + x·λₖ),   Wₖ = outer(L[:,k], R[k,:]),
//! L = (Δρ)ᵀ S  (p×q),   R = S⁻¹ ρ  (q×p)
//! ```
//!
//! after which each point costs `q` complex reciprocals plus `q·p²`
//! multiply–adds (real-by-complex on the symmetric path, whose residues
//! are real) and **zero allocations**. [`EvalPlan::eval_many_into`] runs a
//! sweep point-blocked and register-tiled, bit-identical to evaluating
//! its points one at a time.
//!
//! Correctness is defended in depth rather than assumed:
//!
//! * **symmetric path** — when the model has `J = I`, `T` is symmetric, so
//!   `S` is orthogonal ([`sym_eigen`]) and the conversion is as stable as
//!   the eigensolver;
//! * **general path** — otherwise [`general_eigen`] supplies a complex
//!   eigenvector basis; compilation *rejects* it (falls back) when the
//!   basis is ill-conditioned (defective `T`);
//! * **probe self-check** — the compiled form is compared against the
//!   exact LU path at deterministic probe points before it is ever used;
//!   any disagreement beyond [`EvalPlan::PROBE_TOL`] forces the fallback;
//! * **near-pole guard** — points where some `|1 + x·λₖ|` is tiny are
//!   evaluated through the exact LU path even on a compiled plan, so
//!   accuracy near poles and the `Singular` error at exact poles are
//!   preserved;
//! * **fallback** — a plan that could not compile still evaluates, through
//!   the same LU code path as [`ReducedModel::eval_sigma`], bit-identically.
//!
//! Every step is deterministic (fixed probe points, fixed iteration seeds,
//! fixed accumulation order), so a plan — and everything evaluated through
//! it — is a pure function of the model, never of thread count or timing.

use crate::model::{ipow, ReducedModel};
use crate::SympvlError;
use mpvl_la::{general_eigen, sym_eigen, Complex64, Lu, Mat};
use std::sync::Arc;

/// Per-model constants of the evaluation map, shared between the model's
/// lazy cache and any compiled plans: the complexified `ρ` and `Δ·ρ`.
#[derive(Debug)]
pub(crate) struct EvalConsts {
    /// `ρ` lifted to complex entries.
    pub(crate) rho_c: Mat<Complex64>,
    /// `Δ·ρ` lifted to complex entries (the output-side factor `ρᵀΔ`).
    pub(crate) drho_c: Mat<Complex64>,
}

impl EvalConsts {
    pub(crate) fn of(model: &ReducedModel) -> Self {
        EvalConsts {
            rho_c: model.rho.map(Complex64::from_real),
            drho_c: model.delta.matmul(&model.rho).map(Complex64::from_real),
        }
    }
}

/// Points per register tile of the blocked kernel: their accumulators
/// stay in registers for the whole pole loop.
const TILE_P: usize = 2;

/// Output entries per register tile. Each pole's residue block is
/// zero-padded to a multiple of this, so a tile never reads past it.
const TILE_E: usize = 4;

const _: () = assert!(
    EvalPlan::BLOCK.is_multiple_of(TILE_P),
    "a block holds whole point tiles"
);

/// Reusable scratch for repeated model evaluations: the `K = I + xT`
/// buffer and multi-RHS solution of the LU path, and the reciprocal
/// denominators of the pole–residue path. One workspace serves any number
/// of sequential points with zero further allocation (the block buffers
/// of [`EvalPlan::eval_many_into`] are sized on its first call).
#[derive(Debug, Clone)]
pub struct EvalWorkspace {
    /// `K = I + xT` / its LU factors (recycled through [`Lu::into_matrix`]).
    k: Mat<Complex64>,
    /// Multi-RHS solve buffer `K⁻¹ρ` (order × ports).
    y: Mat<Complex64>,
    /// Reciprocal denominators `1/(1 + x·λₖ)` of the compiled path.
    denoms: Vec<Complex64>,
    /// `x = σ − s₀` of each point of the current block.
    block_x: Vec<Complex64>,
    /// Output factor `s^output_s_factor` of each point of the block.
    block_f: Vec<Complex64>,
    /// Points of the block inside the near-pole band (LU path).
    block_near: Vec<bool>,
    /// Reciprocal denominators of the block, point-tile-major:
    /// `block_c[((b / TILE_P)·q + k)·TILE_P + b % TILE_P]`.
    block_c: Vec<Complex64>,
}

impl EvalWorkspace {
    /// A workspace sized for a model of the given order and port count.
    pub fn new(order: usize, ports: usize) -> Self {
        EvalWorkspace {
            k: Mat::zeros(order, order),
            y: Mat::zeros(order, ports),
            denoms: vec![Complex64::ZERO; order],
            block_x: Vec::new(),
            block_f: Vec::new(),
            block_near: Vec::new(),
            block_c: Vec::new(),
        }
    }

    /// A workspace sized for `model`.
    pub fn for_model(model: &ReducedModel) -> Self {
        Self::new(model.order(), model.num_ports())
    }

    /// Restores the invariant sizes (cheap no-op when already right; a
    /// failed factorization consumes `k`, and this repairs it).
    pub(crate) fn ensure(&mut self, order: usize, ports: usize) {
        if self.k.nrows() != order || self.k.ncols() != order {
            self.k = Mat::zeros(order, order);
        }
        if self.y.nrows() != order || self.y.ncols() != ports {
            self.y = Mat::zeros(order, ports);
        }
        if self.denoms.len() != order {
            self.denoms.resize(order, Complex64::ZERO);
        }
    }

    /// Sizes the block buffers of the blocked kernel for `order` poles.
    fn ensure_block(&mut self, order: usize) {
        let block = EvalPlan::BLOCK;
        self.block_x.resize(block, Complex64::ZERO);
        self.block_f.resize(block, Complex64::ZERO);
        self.block_near.resize(block, false);
        self.block_c.resize(order * block, Complex64::ZERO);
    }
}

/// The exact LU evaluation `out = (Δρ)ᵀ (I + xT)⁻¹ ρ`, allocation-free
/// and **bit-identical** to the historical [`ReducedModel::eval_sigma`]
/// (same `K` fill, the per-column copy + in-place solve that
/// `Lu::solve_mat` performs, and `t_matmul`'s accumulation order).
pub(crate) fn lu_eval_sigma_into(
    t: &Mat<f64>,
    consts: &EvalConsts,
    x: Complex64,
    ws: &mut EvalWorkspace,
    out: &mut Mat<Complex64>,
) -> Result<(), SympvlError> {
    let n = t.nrows();
    let p = consts.rho_c.ncols();
    let singular = || SympvlError::Singular {
        context: "reduced-model evaluation",
    };
    for j in 0..n {
        let col = ws.k.col_mut(j);
        for (i, slot) in col.iter_mut().enumerate() {
            let idm = if i == j { 1.0 } else { 0.0 };
            *slot = Complex64::from_real(idm) + x * t[(i, j)];
        }
    }
    // `Lu::new` consumes its matrix; lend the workspace buffer and take it
    // back afterwards. On the (exact-pole) error path the buffer is lost
    // and `ensure` re-creates it on the next call.
    let k = std::mem::replace(&mut ws.k, Mat::zeros(0, 0));
    let lu = Lu::new(k).map_err(|_| singular())?;
    for j in 0..p {
        let col = ws.y.col_mut(j);
        col.copy_from_slice(consts.rho_c.col(j));
        if lu.solve_in_place(col).is_err() {
            return Err(singular());
        }
    }
    ws.k = lu.into_matrix();
    for j in 0..p {
        for i in 0..p {
            let a = consts.drho_c.col(i);
            let b = ws.y.col(j);
            out[(i, j)] = a
                .iter()
                .zip(b)
                .fold(Complex64::ZERO, |acc, (&u, &v)| acc + u * v);
        }
    }
    Ok(())
}

/// Rank-1 residues `Wₖ = outer(L[:,k], R[k,:])`, `k`-major: pole `k`'s
/// `p×p` block sits column-major at `[k·stride, k·stride + p²)`, and the
/// rest of its `stride` entries are zero padding.
#[derive(Debug, Clone)]
enum Residues {
    /// `J = I`: `L` and `R` are real, so every residue is real. A complex
    /// residue `(l·r, ±0)` would add only signed zeros to a sum that
    /// starts at `+0`, which leaves every bit of the sum unchanged.
    Real(Vec<f64>),
    /// General path: complex eigenvectors, complex residues.
    Complex(Vec<Complex64>),
}

/// The pole–residue data of a successfully diagonalized model.
#[derive(Debug, Clone)]
struct PoleResidue {
    /// Eigenvalues `λₖ` of `T`, in the eigensolver's deterministic order.
    lambdas: Vec<Complex64>,
    /// Entries per pole in `residues`: `p²` rounded up to [`TILE_E`].
    stride: usize,
    residues: Residues,
}

/// `true` when `d = 1 + xl` lies in the near-pole band
/// `|d| ≤ NEAR_POLE_REL·(1 + |xl|)`.
///
/// A max-norm prefilter decides almost every pair without `hypot`:
/// `|d| ≥ max(|d.re|, |d.im|)` and `|xl| ≤ |xl.re| + |xl.im|`, and the
/// `1e-12` relative margin dwarfs the few rounding errors on either side,
/// so any pair it clears is one the exact test clears too. Only
/// borderline pairs run the exact test, so every decision is unchanged.
#[inline]
fn near_pole(d: Complex64, xl: Complex64) -> bool {
    let clear = EvalPlan::NEAR_POLE_REL * (1.0 + xl.re.abs() + xl.im.abs()) * (1.0 + 1e-12);
    if d.re.abs() > clear || d.im.abs() > clear {
        return false;
    }
    d.abs() <= EvalPlan::NEAR_POLE_REL * (1.0 + xl.abs())
}

/// A compiled evaluation plan for one [`ReducedModel`].
///
/// Build once with [`EvalPlan::compile`] (infallible — a model that cannot
/// be diagonalized safely yields a plan that evaluates through the exact
/// LU path), then evaluate any number of points through
/// [`EvalPlan::eval_into`] / [`EvalPlan::eval_many_into`] with a reused
/// [`EvalWorkspace`] and zero per-point allocation.
///
/// ```
/// use mpvl_circuit::{generators::rc_ladder, MnaSystem};
/// use mpvl_la::{Complex64, Mat};
/// use sympvl::{sympvl, EvalPlan, SympvlOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&rc_ladder(30, 50.0, 1e-12))?;
/// let model = sympvl(&sys, 8, &SympvlOptions::default())?;
/// let plan = EvalPlan::compile(&model);
/// assert!(plan.is_compiled()); // RC: symmetric path, always diagonalizable
/// let mut ws = plan.workspace();
/// let mut out = Mat::zeros(1, 1);
/// let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e8);
/// plan.eval_into(&mut ws, s, &mut out)?;
/// let exact = model.eval(s)?;
/// assert!((out[(0, 0)] - exact[(0, 0)]).abs() / exact[(0, 0)].abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalPlan {
    /// The recurrence matrix, retained for the LU fallback / near-pole path.
    t: Mat<f64>,
    /// Shared per-model constants (`ρ`, `Δρ` complexified).
    consts: Arc<EvalConsts>,
    shift: f64,
    s_power: u32,
    output_s_factor: u32,
    order: usize,
    ports: usize,
    /// `Some` when diagonalization succeeded and passed the probe check.
    compiled: Option<PoleResidue>,
    /// Why the plan fell back to the LU path, when it did.
    fallback_reason: Option<String>,
}

impl EvalPlan {
    /// Maximum relative Frobenius disagreement between the compiled form
    /// and the exact LU path at the probe points; beyond this the plan
    /// falls back. Tight enough that a plan passing it stays within the
    /// 1e-10 band the property tests demand away from poles.
    pub const PROBE_TOL: f64 = 1e-11;

    /// Points whose denominators [`EvalPlan::eval_many_into`] computes
    /// together before it accumulates their residues. Which block a point
    /// lands in changes none of its bits.
    pub const BLOCK: usize = 32;

    /// Relative threshold under which `|1 + x·λₖ|` counts as "at a pole"
    /// and the point is routed through the exact LU path.
    const NEAR_POLE_REL: f64 = 1e-8;

    /// Eigenvector-basis conditioning floor for the general path; a basis
    /// with a smaller LU `rcond` estimate (defective or near-defective
    /// `T`) is rejected outright.
    const MIN_BASIS_RCOND: f64 = 1e-12;

    /// Compiles a plan for `model`.
    ///
    /// Never fails: when the eigendecomposition is unavailable, the
    /// eigenvector basis is too ill-conditioned, or the probe self-check
    /// disagrees with the exact path, the plan is returned in fallback
    /// mode ([`EvalPlan::is_compiled`] is `false`,
    /// [`EvalPlan::fallback_reason`] says why) and evaluates through the
    /// exact LU path instead.
    pub fn compile(model: &ReducedModel) -> EvalPlan {
        // Share the model's constants when it has them, but do not make
        // it cache them: a model shared by many sessions (a registry
        // entry) would keep them after every session dropped its plan.
        let consts = model
            .consts
            .get()
            .cloned()
            .unwrap_or_else(|| Arc::new(EvalConsts::of(model)));
        let mut plan = EvalPlan {
            t: model.t.clone(),
            consts,
            shift: model.shift,
            s_power: model.s_power,
            output_s_factor: model.output_s_factor,
            order: model.order(),
            ports: model.num_ports(),
            compiled: None,
            fallback_reason: None,
        };
        match plan.diagonalize(model) {
            Ok(pr) => match plan.probe_check(&pr) {
                Ok(()) => plan.compiled = Some(pr),
                Err(reason) => plan.fallback_reason = Some(reason),
            },
            Err(reason) => plan.fallback_reason = Some(reason),
        }
        plan
    }

    /// `true` when the pole–residue fast path is active.
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// Why compilation fell back to the LU path, if it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback_reason.as_deref()
    }

    /// Reduction order of the underlying model.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Port count of the underlying model.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The eigenvalues of `T` the compiled form is built on, when the
    /// plan compiled. Exactly the values the model's pole routines use.
    pub fn lambdas(&self) -> Option<&[Complex64]> {
        self.compiled.as_ref().map(|pr| pr.lambdas.as_slice())
    }

    /// A correctly sized workspace for this plan.
    pub fn workspace(&self) -> EvalWorkspace {
        EvalWorkspace::new(self.order, self.ports)
    }

    /// Evaluates `Ẑ(σ)` (pencil domain, no leading `s` factor) into `out`.
    ///
    /// # Errors
    ///
    /// [`SympvlError::Singular`] if `σ` hits a model pole exactly.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `ports × ports`.
    pub fn eval_sigma_into(
        &self,
        ws: &mut EvalWorkspace,
        sigma: Complex64,
        out: &mut Mat<Complex64>,
    ) -> Result<(), SympvlError> {
        assert_eq!(out.nrows(), self.ports, "output must be ports x ports");
        assert_eq!(out.ncols(), self.ports, "output must be ports x ports");
        ws.ensure(self.order, self.ports);
        let x = sigma - self.shift;
        if let Some(pr) = &self.compiled {
            if Self::residue_eval_into(pr, self.ports, x, ws, out) {
                return Ok(());
            }
            // Near a pole: fall through to the exact path, which either
            // resolves the point accurately or reports `Singular`.
        }
        lu_eval_sigma_into(&self.t, &self.consts, x, ws, out)
    }

    /// Evaluates the full `Zₙ(s)` (σ-substitution and leading `s` factor
    /// included) into `out`.
    ///
    /// # Errors
    ///
    /// [`SympvlError::Singular`] if `s` hits a model pole exactly.
    pub fn eval_into(
        &self,
        ws: &mut EvalWorkspace,
        s: Complex64,
        out: &mut Mat<Complex64>,
    ) -> Result<(), SympvlError> {
        let sigma = ipow(s, self.s_power);
        self.eval_sigma_into(ws, sigma, out)?;
        let f = ipow(s, self.output_s_factor);
        for v in out.as_mut_slice() {
            *v = *v * f;
        }
        Ok(())
    }

    /// Evaluates a slice of frequency points into preallocated outputs,
    /// one workspace, zero per-point allocation.
    ///
    /// Compiled plans run a point-blocked kernel: the denominators of up
    /// to [`EvalPlan::BLOCK`] points are computed first, then the output
    /// entries of two points at a time are accumulated over the poles in
    /// ascending order in registers. Every entry is the same sum, in the
    /// same order, with the same operations as [`EvalPlan::eval_into`],
    /// so the results are bit-identical to a loop of it.
    ///
    /// # Errors
    ///
    /// Stops at the first point that hits a pole exactly and returns its
    /// [`SympvlError::Singular`]; earlier outputs are already filled.
    ///
    /// # Panics
    ///
    /// Panics if `outs` is shorter than `s_values` or an output has the
    /// wrong shape.
    pub fn eval_many_into(
        &self,
        ws: &mut EvalWorkspace,
        s_values: &[Complex64],
        outs: &mut [Mat<Complex64>],
    ) -> Result<(), SympvlError> {
        assert!(
            outs.len() >= s_values.len(),
            "need one output matrix per point"
        );
        let Some(pr) = &self.compiled else {
            for (s, out) in s_values.iter().zip(outs.iter_mut()) {
                self.eval_into(ws, *s, out)?;
            }
            return Ok(());
        };
        for out in &outs[..s_values.len()] {
            assert_eq!(out.nrows(), self.ports, "output must be ports x ports");
            assert_eq!(out.ncols(), self.ports, "output must be ports x ports");
        }
        ws.ensure(self.order, self.ports);
        ws.ensure_block(self.order);
        for (sb, ob) in s_values
            .chunks(Self::BLOCK)
            .zip(outs.chunks_mut(Self::BLOCK))
        {
            self.eval_block(pr, ws, sb, ob)?;
        }
        Ok(())
    }

    /// One block of [`EvalPlan::eval_many_into`]: denominators, then the
    /// near-pole points through the exact LU path in point order, then
    /// the register-tiled accumulation for every other point before the
    /// first exact pole.
    fn eval_block(
        &self,
        pr: &PoleResidue,
        ws: &mut EvalWorkspace,
        sb: &[Complex64],
        ob: &mut [Mat<Complex64>],
    ) -> Result<(), SympvlError> {
        let q = pr.lambdas.len();
        for (b, &s) in sb.iter().enumerate() {
            let x = ipow(s, self.s_power) - self.shift;
            ws.block_x[b] = x;
            ws.block_f[b] = ipow(s, self.output_s_factor);
            ws.block_near[b] = false;
            let base = (b / TILE_P) * q * TILE_P + b % TILE_P;
            for (k, &lam) in pr.lambdas.iter().enumerate() {
                let xl = x * lam;
                let d = Complex64::ONE + xl;
                if near_pole(d, xl) {
                    ws.block_near[b] = true;
                    break;
                }
                ws.block_c[base + k * TILE_P] = d.recip();
            }
        }
        let mut stop = sb.len();
        let mut err = None;
        for b in 0..sb.len() {
            if !ws.block_near[b] {
                continue;
            }
            let x = ws.block_x[b];
            if let Err(e) = lu_eval_sigma_into(&self.t, &self.consts, x, ws, &mut ob[b]) {
                stop = b;
                err = Some(e);
                break;
            }
            let f = ws.block_f[b];
            for v in ob[b].as_mut_slice() {
                *v *= f;
            }
        }
        let pp = self.ports * self.ports;
        for b0 in (0..stop).step_by(TILE_P) {
            let live: [bool; TILE_P] =
                std::array::from_fn(|t| b0 + t < stop && !ws.block_near[b0 + t]);
            if !live.contains(&true) {
                continue;
            }
            let c = &ws.block_c[(b0 / TILE_P) * q * TILE_P..][..q * TILE_P];
            for e0 in (0..pp).step_by(TILE_E) {
                let (re, im) = match &pr.residues {
                    Residues::Real(w) => tile_real(c, w, e0, pr.stride),
                    Residues::Complex(w) => tile_complex(c, w, e0, pr.stride),
                };
                let width = TILE_E.min(pp - e0);
                for t in (0..TILE_P).filter(|&t| live[t]) {
                    let f = ws.block_f[b0 + t];
                    let out = &mut ob[b0 + t].as_mut_slice()[e0..e0 + width];
                    for (e, v) in out.iter_mut().enumerate() {
                        *v = Complex64::new(re[t][e], im[t][e]) * f;
                    }
                }
            }
        }
        err.map_or(Ok(()), Err)
    }

    /// The single-point fast path: `out = Σₖ Wₖ/(1 + x·λₖ)`, poles
    /// outermost. Returns `false` without touching `out` when some
    /// denominator is too close to zero (the point is near a pole and
    /// must go through the exact path).
    fn residue_eval_into(
        pr: &PoleResidue,
        ports: usize,
        x: Complex64,
        ws: &mut EvalWorkspace,
        out: &mut Mat<Complex64>,
    ) -> bool {
        for (k, &lam) in pr.lambdas.iter().enumerate() {
            let xl = x * lam;
            let d = Complex64::ONE + xl;
            if near_pole(d, xl) {
                return false;
            }
            ws.denoms[k] = d.recip();
        }
        let out = out.as_mut_slice();
        out.fill(Complex64::ZERO);
        let pp = ports * ports;
        let denoms = &ws.denoms[..pr.lambdas.len()];
        match &pr.residues {
            Residues::Real(w) => {
                for (&c, wk) in denoms.iter().zip(w.chunks(pr.stride)) {
                    for (o, &w) in out.iter_mut().zip(&wk[..pp]) {
                        o.re += c.re * w;
                        o.im += c.im * w;
                    }
                }
            }
            Residues::Complex(w) => {
                for (&c, wk) in denoms.iter().zip(w.chunks(pr.stride)) {
                    for (o, &w) in out.iter_mut().zip(&wk[..pp]) {
                        *o += c * w;
                    }
                }
            }
        }
        true
    }

    /// Diagonalizes `T` and assembles the pole–residue data, or explains
    /// why it cannot be done safely.
    fn diagonalize(&self, model: &ReducedModel) -> Result<PoleResidue, String> {
        let n = self.order;
        let p = self.ports;
        // At least one tile per pole, so `stride` is never zero.
        let stride = (p * p).div_ceil(TILE_E).max(1) * TILE_E;
        if n == 0 {
            return Ok(PoleResidue {
                lambdas: vec![],
                stride,
                residues: Residues::Real(vec![]),
            });
        }
        let (lambdas, residues) = if model.identity_j {
            // Symmetric path: T = Q Λ Qᵀ with orthogonal Q — perfectly
            // conditioned, and real arithmetic throughout.
            let e = sym_eigen(&self.t).map_err(|e| format!("symmetric eigensolver: {e}"))?;
            let lambdas: Vec<Complex64> =
                e.values.iter().map(|&v| Complex64::from_real(v)).collect();
            let drho = model.delta.matmul(&model.rho);
            let l = drho.t_matmul(&e.vectors);
            let r = e.vectors.t_matmul(&model.rho);
            let residues = residue_blocks(n, p, stride, 0.0, |i, j, k| l[(i, k)] * r[(k, j)]);
            (lambdas, Residues::Real(residues))
        } else {
            // General path: complex eigenvector basis; reject defective /
            // near-defective T via the basis conditioning.
            let e = general_eigen(&self.t).map_err(|e| format!("general eigensolver: {e}"))?;
            let lu = Lu::new(e.vectors.clone())
                .map_err(|_| "eigenvector basis is exactly singular".to_string())?;
            let rcond = lu.rcond_estimate();
            if rcond < Self::MIN_BASIS_RCOND {
                return Err(format!(
                    "eigenvector basis too ill-conditioned (rcond {rcond:.3e})"
                ));
            }
            let r = lu
                .solve_mat(&self.consts.rho_c)
                .map_err(|_| "eigenvector basis solve failed".to_string())?;
            let l = self.consts.drho_c.t_matmul(&e.vectors);
            let residues = residue_blocks(n, p, stride, Complex64::ZERO, |i, j, k| {
                l[(i, k)] * r[(k, j)]
            });
            (e.values, Residues::Complex(residues))
        };
        // Seed the model's eigenvalue cache: these are exactly the values
        // `sigma_poles` computes, so pole queries reuse them bit-for-bit.
        model.seed_t_eigenvalues(&lambdas);
        Ok(PoleResidue {
            lambdas,
            stride,
            residues,
        })
    }

    /// Compares the candidate compiled form against the exact LU path at
    /// deterministic probe points.
    fn probe_check(&self, pr: &PoleResidue) -> Result<(), String> {
        if pr.lambdas.is_empty() {
            return Ok(()); // order-0: both paths are identically zero
        }
        // Probe magnitude: the median |x| at which the denominators are
        // O(1)-perturbed, i.e. the scale where the poles actually live.
        let mut mags: Vec<f64> = pr
            .lambdas
            .iter()
            .map(|l| l.abs())
            .filter(|&m| m > 1e-300)
            .map(|m| 1.0 / m)
            .collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("finite eigenvalue magnitudes"));
        let m = if mags.is_empty() {
            1.0
        } else {
            mags[mags.len() / 2]
        };
        let probes = [
            Complex64::ZERO,                    // x = 0: Σ Wₖ must equal ρᵀΔρ
            Complex64::new(0.0, m),             // on the imaginary axis (AC-like)
            Complex64::new(0.37 * m, 0.61 * m), // off-axis
        ];
        let mut ws = EvalWorkspace::new(self.order, self.ports);
        let mut exact = Mat::zeros(self.ports, self.ports);
        let mut approx = Mat::zeros(self.ports, self.ports);
        let mut used = 0usize;
        for &x in &probes {
            ws.ensure(self.order, self.ports);
            if lu_eval_sigma_into(&self.t, &self.consts, x, &mut ws, &mut exact).is_err() {
                continue; // probe sits on a pole: not usable
            }
            if !Self::residue_eval_into(pr, self.ports, x, &mut ws, &mut approx) {
                continue; // near-pole guard would redirect this point anyway
            }
            used += 1;
            let mut diff = 0.0f64;
            let mut norm = 0.0f64;
            for (a, b) in approx.as_slice().iter().zip(exact.as_slice()) {
                diff += (*a - *b).norm_sqr();
                norm += b.norm_sqr();
            }
            let rel = diff.sqrt() / norm.sqrt().max(f64::MIN_POSITIVE);
            if !(rel <= Self::PROBE_TOL) {
                return Err(format!(
                    "probe self-check failed at x = {x:?}: relative error {rel:.3e}"
                ));
            }
        }
        if used == 0 {
            return Err("no usable probe points (all near poles)".to_string());
        }
        Ok(())
    }
}

/// Residues `W[i,j,k] = w(i, j, k)` laid out as [`Residues`] describes,
/// each pole's block zero-padded to `stride` entries.
fn residue_blocks<T: Copy>(
    n: usize,
    p: usize,
    stride: usize,
    zero: T,
    w: impl Fn(usize, usize, usize) -> T,
) -> Vec<T> {
    let mut residues = Vec::with_capacity(n * stride);
    for k in 0..n {
        for j in 0..p {
            for i in 0..p {
                residues.push(w(i, j, k));
            }
        }
        residues.resize((k + 1) * stride, zero);
    }
    residues
}

/// Accumulators of one register tile: `[point][entry]`.
type Tile = [[f64; TILE_E]; TILE_P];

/// One register tile over real residues: for each of [`TILE_P`] points
/// and [`TILE_E`] entries, `Σₖ cₖ·wₖ` accumulated in ascending `k` as
/// `re + c.re·w`, `im + c.im·w`, exactly the single-point path's sums.
/// `c` holds the tile's denominators (`k`-major, [`TILE_P`] per pole);
/// the tile's entries start at `e0` in each pole's residue block.
#[inline(always)]
fn tile_real(c: &[Complex64], w: &[f64], e0: usize, stride: usize) -> (Tile, Tile) {
    let mut re = [[0.0; TILE_E]; TILE_P];
    let mut im = [[0.0; TILE_E]; TILE_P];
    for (ck, wk) in c.chunks_exact(TILE_P).zip(w.chunks_exact(stride)) {
        let wk: &[f64; TILE_E] = wk[e0..e0 + TILE_E]
            .try_into()
            .expect("padded residue block");
        for t in 0..TILE_P {
            let c = ck[t];
            for e in 0..TILE_E {
                re[t][e] += c.re * wk[e];
                im[t][e] += c.im * wk[e];
            }
        }
    }
    (re, im)
}

/// [`tile_real`] over complex residues: `o + c·w` with the full complex
/// product, exactly the single-point path's sums.
#[inline(always)]
fn tile_complex(c: &[Complex64], w: &[Complex64], e0: usize, stride: usize) -> (Tile, Tile) {
    let mut re = [[0.0; TILE_E]; TILE_P];
    let mut im = [[0.0; TILE_E]; TILE_P];
    for (ck, wk) in c.chunks_exact(TILE_P).zip(w.chunks_exact(stride)) {
        let wk: &[Complex64; TILE_E] = wk[e0..e0 + TILE_E]
            .try_into()
            .expect("padded residue block");
        for t in 0..TILE_P {
            let c = ck[t];
            for e in 0..TILE_E {
                let p = c * wk[e];
                re[t][e] += p.re;
                im[t][e] += p.im;
            }
        }
    }
    (re, im)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ReducedModel {
        ReducedModel::from_parts(
            Mat::from_diag(&[1.0, 0.5]),
            Mat::identity(2),
            Mat::from_rows(&[&[1.0], &[1.0]]),
            0.0,
            1,
            0,
            true,
            100,
        )
    }

    #[test]
    fn compiled_plan_matches_partial_fractions() {
        let m = toy_model();
        let plan = EvalPlan::compile(&m);
        assert!(plan.is_compiled(), "{:?}", plan.fallback_reason());
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        for x in [0.0, 0.7, -0.3, 5.0] {
            plan.eval_sigma_into(&mut ws, Complex64::from_real(x), &mut out)
                .unwrap();
            let expect = 1.0 / (1.0 + x) + 1.0 / (1.0 + 0.5 * x);
            assert!((out[(0, 0)].re - expect).abs() < 1e-12, "x={x}");
            assert!(out[(0, 0)].im.abs() < 1e-14);
        }
    }

    #[test]
    fn exact_pole_still_reports_singular() {
        let m = toy_model();
        let plan = EvalPlan::compile(&m);
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        // x = -1 makes 1 + x*1 = 0: an exact pole.
        let r = plan.eval_sigma_into(&mut ws, Complex64::from_real(-1.0), &mut out);
        assert!(matches!(r, Err(SympvlError::Singular { .. })));
        // The workspace recovers afterwards.
        plan.eval_sigma_into(&mut ws, Complex64::from_real(1.0), &mut out)
            .unwrap();
    }

    #[test]
    fn defective_t_falls_back() {
        // Jordan block: not diagonalizable. identity_j = false forces the
        // general path, whose conditioning check must reject the basis.
        let m = ReducedModel::from_parts(
            Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Mat::identity(2),
            Mat::from_rows(&[&[1.0], &[0.5]]),
            0.0,
            1,
            0,
            false,
            10,
        );
        let plan = EvalPlan::compile(&m);
        assert!(!plan.is_compiled());
        assert!(plan.fallback_reason().is_some());
        // And the fallback still evaluates, bit-identical to the model.
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        let sigma = Complex64::new(0.3, 1.1);
        plan.eval_sigma_into(&mut ws, sigma, &mut out).unwrap();
        let direct = m.eval_sigma(sigma).unwrap();
        assert_eq!(out[(0, 0)].re.to_bits(), direct[(0, 0)].re.to_bits());
        assert_eq!(out[(0, 0)].im.to_bits(), direct[(0, 0)].im.to_bits());
    }

    #[test]
    fn dim_zero_plan_evaluates_to_empty() {
        let m = ReducedModel::from_parts(
            Mat::zeros(0, 0),
            Mat::zeros(0, 0),
            Mat::zeros(0, 2),
            0.0,
            1,
            0,
            true,
            0,
        );
        let plan = EvalPlan::compile(&m);
        assert!(plan.is_compiled());
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(2, 2);
        plan.eval_sigma_into(&mut ws, Complex64::ONE, &mut out)
            .unwrap();
        assert!(out.as_slice().iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn dim_zero_plan_sweeps_to_zero() {
        // Three ports: the blocked kernel walks three entry tiles over
        // an empty residue array.
        let m = ReducedModel::from_parts(
            Mat::zeros(0, 0),
            Mat::zeros(0, 0),
            Mat::zeros(0, 3),
            0.0,
            1,
            1,
            true,
            0,
        );
        let plan = EvalPlan::compile(&m);
        assert!(plan.is_compiled());
        let mut ws = plan.workspace();
        let s = [Complex64::new(0.0, 1.0), Complex64::new(0.0, 2.0)];
        let mut stale = Mat::zeros(3, 3);
        stale.as_mut_slice().fill(Complex64::ONE);
        let mut outs = vec![stale; 2];
        plan.eval_many_into(&mut ws, &s, &mut outs).unwrap();
        assert!(outs
            .iter()
            .all(|o| o.as_slice().iter().all(|z| *z == Complex64::ZERO)));
    }

    #[test]
    fn order_one_plan() {
        let m = ReducedModel::from_parts(
            Mat::from_diag(&[2.0]),
            Mat::identity(1),
            Mat::from_rows(&[&[3.0]]),
            0.5,
            1,
            0,
            true,
            5,
        );
        let plan = EvalPlan::compile(&m);
        assert!(plan.is_compiled());
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        let sigma = Complex64::from_real(1.0); // x = 0.5
        plan.eval_sigma_into(&mut ws, sigma, &mut out).unwrap();
        // Z = 9 / (1 + 0.5*2) = 4.5
        assert!((out[(0, 0)].re - 4.5).abs() < 1e-12);
    }

    #[test]
    fn eval_many_into_fills_all_points() {
        let m = toy_model();
        let plan = EvalPlan::compile(&m);
        let mut ws = plan.workspace();
        let s_values: Vec<Complex64> = (1..5)
            .map(|k| Complex64::new(0.0, k as f64 * 0.3))
            .collect();
        let mut outs: Vec<Mat<Complex64>> = s_values.iter().map(|_| Mat::zeros(1, 1)).collect();
        plan.eval_many_into(&mut ws, &s_values, &mut outs).unwrap();
        for (s, out) in s_values.iter().zip(&outs) {
            let direct = m.eval(*s).unwrap();
            let rel = (out[(0, 0)] - direct[(0, 0)]).abs() / direct[(0, 0)].abs();
            assert!(rel < 1e-12, "rel {rel}");
        }
    }
}
