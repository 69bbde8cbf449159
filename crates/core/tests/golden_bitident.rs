//! Golden bit-identity pins for the reduced model.
//!
//! The blocked-operator rework of the Lanczos hot path is required to
//! keep the produced `ReducedModel` *bit-identical* to the pre-rework
//! scalar path (same per-column FP evaluation order). These hashes were
//! captured from the columnwise implementation immediately before the
//! `LinearOperator` restructuring; any change to them means the FP
//! evaluation order drifted, not just "the numbers moved a little".
//! The one deliberate drift so far is a new default fill-reducing
//! ordering, which permutes the factorization (see the case list).
//!
//! Run under `MPVL_THREADS=1` in CI; the hashes must also be unchanged
//! at any ambient thread count because the blocked primitives fan out
//! per column with identical per-column arithmetic.

use mpvl_circuit::generators::{interconnect, random_lc, rc_ladder, InterconnectParams};
use mpvl_circuit::MnaSystem;
use sympvl::{sympvl, ReducedModel, SympvlOptions};

/// FNV-1a over the exact little-endian bit patterns of the model's
/// numerical payload (`t`, `delta`, `rho`) plus its dimensions.
fn model_fingerprint(m: &ReducedModel) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    let (t, delta, rho) = (m.t_matrix(), m.delta_matrix(), m.rho_matrix());
    for dim in [
        t.nrows(),
        t.ncols(),
        delta.nrows(),
        delta.ncols(),
        rho.nrows(),
        rho.ncols(),
    ] {
        eat(&(dim as u64).to_le_bytes());
    }
    for mat in [t, delta, rho] {
        for &v in mat.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    eat(&m.shift().to_bits().to_le_bytes());
    h
}

fn reduce_fingerprint(sys: &MnaSystem, order: usize) -> u64 {
    let model = sympvl(sys, order, &SympvlOptions::default()).expect("reduce");
    model_fingerprint(&model)
}

/// (name, expected fingerprint, actual): captured 2026-08-06 from the
/// pre-`LinearOperator` scalar path at commit 4a04b20+1, and re-pinned
/// once since, when `Ordering::MinDegree` became approximate minimum
/// degree: a new fill-reducing permutation reorders the factor's
/// arithmetic, so every model's bits moved. The re-pin was checked
/// against the exact `dense_z` sweep (EXPERIMENTS.md): model errors
/// agree with the previous ordering's to rounding.
#[test]
fn reduced_models_are_bit_identical_to_pre_rework_path() {
    let cases: [(&str, u64, u64); 3] = [
        (
            "rc_ladder(64)/order8",
            0xbac3_8b3c_b4e0_f761,
            reduce_fingerprint(
                &MnaSystem::assemble(&rc_ladder(64, 10.0, 1e-12)).expect("assemble"),
                8,
            ),
        ),
        (
            "interconnect(w3,s24,r2)/order12",
            0x7e9f_dd99_225b_4178,
            reduce_fingerprint(
                &MnaSystem::assemble(&interconnect(&InterconnectParams {
                    wires: 3,
                    segments: 24,
                    coupling_reach: 2,
                    ..InterconnectParams::default()
                }))
                .expect("assemble"),
                12,
            ),
        ),
        (
            "random_lc(7,40,2)/order10",
            0xc8a6_01dd_9a0b_8328,
            reduce_fingerprint(
                &MnaSystem::assemble(&random_lc(7, 40, 2)).expect("assemble"),
                10,
            ),
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

/// Determinism across runs of the same process: two reductions of the
/// same system must agree bit-for-bit (no hidden global state).
#[test]
fn repeated_reduction_is_bitwise_stable() {
    let sys = MnaSystem::assemble(&rc_ladder(32, 5.0, 2e-12)).expect("assemble");
    let a = reduce_fingerprint(&sys, 6);
    let b = reduce_fingerprint(&sys, 6);
    assert_eq!(a, b);
}
