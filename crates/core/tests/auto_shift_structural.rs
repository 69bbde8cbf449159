//! The structural `Shift::Auto` decision: when assembly flags `G` as
//! singular by topology ([`MnaSystem::g_structurally_singular`]), Auto
//! skips the unshifted factorization and goes straight to the shift
//! ladder.
//!
//! The skip is only sound if the attempt it saves could never have been
//! accepted. These tests prove that on every generator and on random
//! topologies: wherever the flag is set, the unshifted factor fails or
//! is rejected at the default `auto_rtol`, and the reduced model is
//! bit-identical to the one built from an unflagged copy of the system
//! (which still makes the attempt). They also pin the one deliberate
//! behaviour change: `auto_rtol = 0` no longer accepts a roundoff-level
//! pivot of an exactly singular `G`.

use mpvl_circuit::generators::{
    embed_with_drivers, h_tree, interconnect, package, peec, random_lc, random_rc, random_rl,
    rc_ladder, rc_line, HTreeParams, InterconnectParams, PackageParams, PeecParams,
};
use mpvl_circuit::{Circuit, CircuitClass, MnaSystem, GROUND};
use mpvl_la::Complex64;
use mpvl_testkit::rng::SmallRng;
use sympvl::{factor_target, sympvl, FactorTarget, ReducedModel, SympvlOptions, DEFAULT_AUTO_RTOL};

fn small_package() -> PackageParams {
    PackageParams {
        pins: 6,
        signal_pins: vec![0, 1, 3],
        sections: 4,
        ..PackageParams::default()
    }
}

fn small_interconnect() -> InterconnectParams {
    InterconnectParams {
        wires: 3,
        coupling_reach: 2,
        ..InterconnectParams::default()
    }
}

/// Every generator, at test-friendly sizes.
fn generator_systems() -> Vec<(String, MnaSystem)> {
    let assemble = |ckt: &Circuit| MnaSystem::assemble(ckt).expect("assemble");
    let mut out = vec![
        (
            "rc_ladder".to_string(),
            assemble(&rc_ladder(200, 10.0, 1e-12)),
        ),
        ("rc_line".to_string(), assemble(&rc_line(80, 25.0, 2e-13))),
        (
            "interconnect".to_string(),
            assemble(&interconnect(&small_interconnect())),
        ),
        (
            "interconnect+drivers".to_string(),
            assemble(&embed_with_drivers(
                &interconnect(&small_interconnect()),
                50.0,
            )),
        ),
        ("package".to_string(), assemble(&package(&small_package()))),
        (
            "h_tree".to_string(),
            assemble(&h_tree(&HTreeParams::default())),
        ),
        ("peec".to_string(), peec(&PeecParams::default()).system),
    ];
    for seed in 0..40 {
        out.push((
            format!("random_rc/{seed}"),
            assemble(&random_rc(seed, 12, 2)),
        ));
        out.push((
            format!("random_rl/{seed}"),
            assemble(&random_rl(seed, 12, 2)),
        ));
        out.push((
            format!("random_lc/{seed}"),
            assemble(&random_lc(seed, 12, 2)),
        ));
    }
    out
}

/// A random circuit of `class` whose `G`-stamping elements are placed
/// with no regard for grounding: floating islands and (in RLC)
/// inductor loops occur often, and so do well-posed circuits.
fn random_topology(seed: u64) -> Circuit {
    let mut rng = SmallRng::seed_from_u64(seed);
    let class = [
        CircuitClass::Rc,
        CircuitClass::Rl,
        CircuitClass::Lc,
        CircuitClass::Rlc,
    ][rng.gen_range(0usize..4)];
    let n: usize = rng.gen_range(2..9);
    let mut ckt = Circuit::new();
    let ids: Vec<usize> = (0..n).map(|_| ckt.add_node()).collect();
    // Endpoint draw: ground with probability ~1/(n+2).
    let end = |rng: &mut SmallRng| -> usize {
        let k = rng.gen_range(0..n + 2);
        if k >= n {
            GROUND
        } else {
            ids[k]
        }
    };
    let mut inductors = Vec::new();
    for e in 0..rng.gen_range(1..2 * n) {
        let (a, b) = (end(&mut rng), end(&mut rng));
        if a == b {
            continue;
        }
        let inductor = match class {
            CircuitClass::Rc => false,
            CircuitClass::Rl | CircuitClass::Lc => true,
            CircuitClass::Rlc => rng.gen_bool(0.5),
        };
        if inductor {
            let name = format!("L{e}");
            ckt.add_inductor(&name, a, b, rng.gen_range(0.5e-9..5e-9));
            inductors.push(name);
        } else {
            ckt.add_resistor(&format!("R{e}"), a, b, rng.gen_range(1.0..100.0));
        }
    }
    if inductors.len() >= 2 && rng.gen_bool(0.5) {
        ckt.add_mutual("K0", &inductors[0], &inductors[1], 0.3);
    }
    // The element filling the other matrix, one per node to ground: C
    // everywhere except the RL form, where the resistors play that role.
    for (k, &nd) in ids.iter().enumerate() {
        if class == CircuitClass::Rl {
            ckt.add_resistor(&format!("Rc{k}"), nd, GROUND, rng.gen_range(1.0..100.0));
        } else {
            ckt.add_capacitor(&format!("C{k}"), nd, GROUND, rng.gen_range(0.1e-12..2e-12));
        }
    }
    ckt.add_port("p", ids[0], GROUND);
    ckt
}

/// The system with the structural flag cleared — what the Auto policy
/// saw before the flag existed, so it still makes the unshifted attempt.
fn unflagged(sys: &MnaSystem) -> MnaSystem {
    MnaSystem {
        g_structurally_singular: false,
        ..sys.clone()
    }
}

fn model_bits(m: &ReducedModel) -> Vec<u64> {
    let mut bits = vec![m.shift().to_bits(), m.order() as u64];
    for mat in [m.t_matrix(), m.delta_matrix(), m.rho_matrix()] {
        bits.extend(mat.as_slice().iter().map(|v| v.to_bits()));
    }
    bits
}

/// The soundness obligation for one flagged system: the skipped attempt
/// fails or is rejected, and skipping it changes no bit of the model.
fn assert_skip_is_sound(name: &str, sys: &MnaSystem) {
    match factor_target(sys, FactorTarget::Unshifted) {
        Err(_) => {}
        Ok(f) => {
            let (lo, hi) = f.pivot_range();
            assert!(
                !(lo.is_finite() && lo > DEFAULT_AUTO_RTOL * hi),
                "{name}: flagged singular, but the unshifted factor would be accepted \
                 (pivots {lo:e}..{hi:e})"
            );
        }
    }
    let order = sys.dim().min(6);
    let opts = SympvlOptions::default();
    let skipped = sympvl(sys, order, &opts);
    let probed = sympvl(&unflagged(sys), order, &opts);
    match (skipped, probed) {
        (Ok(a), Ok(b)) => assert_eq!(model_bits(&a), model_bits(&b), "{name}: bits moved"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{name}: errors differ"),
        (a, b) => panic!(
            "{name}: outcome changed: {:?} vs {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

#[test]
fn structural_skip_is_sound_on_every_generator() {
    let mut flagged = Vec::new();
    for (name, sys) in generator_systems() {
        if sys.g_structurally_singular {
            assert_skip_is_sound(&name, &sys);
            flagged.push(name);
        }
    }
    // The ungrounded workloads are exactly the ones the skip serves.
    for expect in ["rc_ladder", "rc_line", "interconnect", "package", "h_tree"] {
        assert!(
            flagged.iter().any(|n| n == expect),
            "{expect} not flagged: {flagged:?}"
        );
    }
    // Grounded through drivers, or by construction.
    assert!(!flagged
        .iter()
        .any(|n| n == "interconnect+drivers" || n.starts_with("random_")));
}

#[test]
fn structural_skip_is_sound_on_random_topologies() {
    let (mut flagged, mut clear) = (0, 0);
    for seed in 0..160 {
        let ckt = random_topology(seed);
        let sys = match MnaSystem::assemble(&ckt) {
            Ok(sys) => sys,
            // A generated coupling can leave 𝓛 indefinite; nothing to test.
            Err(_) => continue,
        };
        if sys.g_structurally_singular {
            assert_skip_is_sound(&format!("random_topology/{seed}"), &sys);
            flagged += 1;
        } else {
            clear += 1;
        }
    }
    assert!(
        flagged >= 20 && clear >= 20,
        "flagged {flagged}, clear {clear}"
    );
}

/// Worst relative error of `model` against the exact dense `Z` at `freqs`.
fn worst_rel_err(sys: &MnaSystem, model: &ReducedModel, freqs: &[f64]) -> f64 {
    let mut worst = 0.0_f64;
    for &f in freqs {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        let exact = sys.dense_z(s).expect("exact");
        let approx = model.eval(s).expect("model");
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..exact.nrows() {
            for j in 0..exact.ncols() {
                num += (approx[(i, j)] - exact[(i, j)]).abs().powi(2);
                den += exact[(i, j)].abs().powi(2);
            }
        }
        worst = worst.max((num / den).sqrt());
    }
    worst
}

#[test]
fn zero_auto_rtol_takes_the_shift_on_singular_g() {
    // With auto_rtol = 0 the pivot test only demands a nonzero pivot, and
    // the factor of an exactly singular G used to pass it with a pivot
    // of pure roundoff — a model expanded about a point where Z has a
    // pole. The structural decision takes the shift instead.
    let opts = SympvlOptions::new().with_auto_rtol(0.0).expect("valid");
    // Expanded at the roundoff pivot, these models stalled at relative
    // errors of 3e-6..4e-4 (package) and 1e-6 (h_tree, at 100 MHz)
    // however high the order.
    let cases = [
        (
            "package",
            MnaSystem::assemble(&package(&small_package())).unwrap(),
            24,
        ),
        (
            "h_tree",
            MnaSystem::assemble(&h_tree(&HTreeParams::default())).unwrap(),
            32,
        ),
    ];
    for (name, sys, order) in cases {
        assert!(sys.g_structurally_singular, "{name}");
        let model = sympvl(&sys, order, &opts).expect("reduce");
        assert!(
            model.shift() > 0.0,
            "{name}: expanded at s0 = {}",
            model.shift()
        );
        let err = worst_rel_err(&sys, &model, &[1e6, 1e7, 1e8]);
        assert!(err < 1e-8, "{name}: in-band error {err:e}");
        // Same model as the default threshold: the shift is decided by
        // structure, not by how lenient the pivot test is.
        let default = sympvl(&sys, order, &SympvlOptions::default()).expect("reduce");
        assert_eq!(model_bits(&model), model_bits(&default), "{name}");
    }
}
