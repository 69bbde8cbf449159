//! Golden bit-identity pins for compiled sweeps.
//!
//! `golden_bitident.rs` pins the reduced models; this suite pins what
//! [`EvalPlan::eval_many_into`] makes of them over a 1000-point sweep.
//! The fingerprints were captured from the one-point-at-a-time kernel
//! (complex residues, per-point `hypot` near-pole test) before the
//! point-blocked kernel replaced it. The blocked kernel is a loop
//! interchange over the same sums, so any change here means the
//! floating-point evaluation order of some output entry drifted.
//!
//! Cases cover both compiled paths: the symmetric (`J = I`) path on the
//! 17-port interconnect at two orders and on a 5-port h-tree, and the
//! general complex path on the RLC package.

use mpvl_circuit::generators::{
    h_tree, interconnect, package, HTreeParams, InterconnectParams, PackageParams,
};
use mpvl_circuit::{Circuit, MnaSystem};
use mpvl_la::{Complex64, Mat};
use mpvl_sim::log_space;
use sympvl::{sympvl, EvalPlan, SympvlOptions};

/// FNV-1a over the exact little-endian bit patterns of every output
/// entry of every point, in point order then column-major entry order.
fn sweep_fingerprint(outs: &[Mat<Complex64>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for out in outs {
        for v in out.as_slice() {
            for bits in [v.re.to_bits(), v.im.to_bits()] {
                for b in bits.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(PRIME);
                }
            }
        }
    }
    h
}

/// Reduces `circuit` to `order`, compiles its plan (which must take the
/// pole–residue path) and fingerprints a 1000-point log sweep over
/// `[f_lo, f_hi]`.
fn compiled_sweep(circuit: &Circuit, order: usize, f_lo: f64, f_hi: f64) -> u64 {
    let sys = MnaSystem::assemble(circuit).expect("assemble");
    let model = sympvl(&sys, order, &SympvlOptions::default()).expect("reduce");
    let plan = EvalPlan::compile(&model);
    assert!(
        plan.is_compiled(),
        "order {order}: plan fell back ({:?})",
        plan.fallback_reason()
    );
    let s: Vec<Complex64> = log_space(f_lo, f_hi, 1000)
        .into_iter()
        .map(|f| Complex64::new(0.0, 2.0 * std::f64::consts::PI * f))
        .collect();
    let p = plan.ports();
    let mut outs: Vec<Mat<Complex64>> = s.iter().map(|_| Mat::zeros(p, p)).collect();
    let mut ws = plan.workspace();
    plan.eval_many_into(&mut ws, &s, &mut outs).expect("sweep");
    sweep_fingerprint(&outs)
}

#[test]
fn compiled_sweeps_are_bit_identical_to_pointwise_kernel() {
    let wires = interconnect(&InterconnectParams::default());
    let cases: [(&str, u64, u64); 4] = [
        (
            "interconnect(17 ports)/order34",
            0x3935_a510_2d4b_fbfd,
            compiled_sweep(&wires, 34, 1e4, 5e9),
        ),
        (
            "interconnect(17 ports)/order136",
            0x11d2_905a_6cbc_f003,
            compiled_sweep(&wires, 136, 1e4, 5e9),
        ),
        (
            "package(16 ports, general path)/order24",
            0xa9dd_28d1_4872_9449,
            compiled_sweep(&package(&PackageParams::default()), 24, 1e6, 5e8),
        ),
        (
            "h_tree(depth 6, 5 ports)/order20",
            0xcfaa_11ad_6b16_1195,
            compiled_sweep(&h_tree(&HTreeParams::default()), 20, 1e5, 5e8),
        ),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter(|(_, expected, actual)| actual != expected)
        .map(|(name, expected, actual)| {
            format!("{name}: fingerprint {actual:#018x} != pinned {expected:#018x}")
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
