//! Property tests for the compiled pole–residue evaluation plan.
//!
//! The contract under test: away from poles a compiled [`EvalPlan`]
//! agrees with the exact LU path to ~1e-10 relative Frobenius error;
//! near a pole (or when compilation falls back) it *is* the LU path,
//! bit for bit.

use mpvl_circuit::generators::{
    package, random_lc, random_rc, random_rl, rc_ladder, PackageParams,
};
use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};
use mpvl_testkit::prop::check;
use mpvl_testkit::prop_assert;
use sympvl::{sympvl, EvalPlan, SympvlOptions};

/// Relative Frobenius distance between two complex matrices.
fn rel_err(a: &Mat<Complex64>, b: &Mat<Complex64>) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        num += (*x - *y).norm_sqr();
        den += y.norm_sqr();
    }
    num.sqrt() / den.sqrt().max(f64::MIN_POSITIVE)
}

fn cmat_bits(m: &Mat<Complex64>) -> Vec<u64> {
    m.as_slice()
        .iter()
        .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
        .collect()
}

/// `σ = s^{s_power}` — the frequency variable the recurrence lives in.
fn sigma_of_s(model: &sympvl::ReducedModel, s: Complex64) -> Complex64 {
    (0..model.s_power()).fold(Complex64::ONE, |acc, _| acc * s)
}

/// `true` when `x` is comfortably away from every pole of the plan, so
/// both paths are well-conditioned and the 1e-10 band is meaningful.
fn away_from_poles(plan: &EvalPlan, x: Complex64) -> bool {
    let Some(lambdas) = plan.lambdas() else {
        return true;
    };
    lambdas
        .iter()
        .all(|&l| (Complex64::ONE + x * l).abs() > 1e-2)
}

#[test]
fn compiled_plan_matches_lu_on_random_rc() {
    check(
        "compiled_plan_matches_lu_on_random_rc",
        24,
        (0u64..1000, 2usize..12),
        |&(seed, order)| {
            let sys = MnaSystem::assemble(&random_rc(seed, 15, 2)).unwrap();
            let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
            let plan = EvalPlan::compile(&model);
            prop_assert!(
                plan.is_compiled(),
                "RC model should take the symmetric path: {:?}",
                plan.fallback_reason()
            );
            let mut ws = plan.workspace();
            let mut fast = Mat::zeros(2, 2);
            for k in 0..7 {
                let f = 1e6 * 10f64.powf(4.0 * k as f64 / 6.0);
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
                if !away_from_poles(&plan, s - model.shift()) {
                    continue;
                }
                plan.eval_into(&mut ws, s, &mut fast).unwrap();
                let exact = model.eval(s).unwrap();
                let rel = rel_err(&fast, &exact);
                prop_assert!(rel < 1e-10, "at {f} Hz: rel {rel:.3e}");
            }
            Ok(())
        },
    );
}

#[test]
fn plan_matches_lu_on_random_rl_and_lc() {
    // Random RL / LC systems broaden the spectrum zoo. A plan that
    // compiles must hit the accuracy band; one that falls back must
    // match the LU path bit for bit. (These generators happen to yield
    // definite matrices — the general non-identity-J path is pinned by
    // `general_path_compiles_on_rlc_package` below.)
    check(
        "plan_matches_lu_on_random_rl_and_lc",
        24,
        (0u64..1000, 2usize..9, 0u8..2),
        |&(seed, order, kind)| {
            let ckt = if kind == 0 {
                random_rl(seed, 12, 2)
            } else {
                random_lc(seed, 12, 2)
            };
            let sys = MnaSystem::assemble(&ckt).unwrap();
            let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
            let plan = EvalPlan::compile(&model);
            let mut ws = plan.workspace();
            let mut fast = Mat::zeros(2, 2);
            for k in 0..5 {
                let f = 1e7 * 10f64.powf(3.0 * k as f64 / 4.0);
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
                let sigma = sigma_of_s(&model, s);
                if !away_from_poles(&plan, sigma - model.shift()) {
                    continue;
                }
                let exact = match model.eval(s) {
                    Ok(z) => z,
                    Err(_) => continue, // singular for LU too: nothing to compare
                };
                plan.eval_into(&mut ws, s, &mut fast).unwrap();
                if plan.is_compiled() {
                    let rel = rel_err(&fast, &exact);
                    prop_assert!(rel < 1e-10, "at {f} Hz: rel {rel:.3e}");
                } else {
                    prop_assert!(
                        cmat_bits(&fast) == cmat_bits(&exact),
                        "fallback plan must be bit-identical to LU at {f} Hz"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn general_path_compiles_on_rlc_package() {
    // The RLC package model has an indefinite MNA matrix, so J ≠ I and
    // compilation must go through the general complex eigenvector path.
    let sys = MnaSystem::assemble(&package(&PackageParams::default())).unwrap();
    for order in [4usize, 8, 12] {
        let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
        assert!(!model.guarantees_passivity(), "expected J != I");
        let plan = EvalPlan::compile(&model);
        assert!(
            plan.is_compiled(),
            "order {order}: {:?}",
            plan.fallback_reason()
        );
        let p = model.num_ports();
        let mut ws = plan.workspace();
        let mut fast = Mat::zeros(p, p);
        let mut checked = 0usize;
        for k in 0..7 {
            let f = 1e7 * 10f64.powf(3.0 * k as f64 / 6.0);
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            if !away_from_poles(&plan, sigma_of_s(&model, s) - model.shift()) {
                continue;
            }
            plan.eval_into(&mut ws, s, &mut fast).unwrap();
            let exact = model.eval(s).unwrap();
            let rel = rel_err(&fast, &exact);
            assert!(rel < 1e-10, "order {order} at {f} Hz: rel {rel:.3e}");
            checked += 1;
        }
        assert!(checked > 0, "order {order}: every point was near a pole");
    }
}

#[test]
fn near_pole_points_redirect_to_exact_lu() {
    // Within the near-pole guard band the plan must hand the point to
    // the exact LU path — bit-identical to `eval_sigma`, not merely close.
    let sys = MnaSystem::assemble(&rc_ladder(30, 1.0, 1e-12)).unwrap();
    let model = sympvl(&sys, 8, &SympvlOptions::default()).unwrap();
    let plan = EvalPlan::compile(&model);
    assert!(plan.is_compiled());
    let lambdas = plan.lambdas().unwrap().to_vec();
    let mut ws = plan.workspace();
    let mut out = Mat::zeros(1, 1);
    let mut redirected = 0usize;
    for &lam in &lambdas {
        if lam.abs() < 1e-300 {
            continue;
        }
        // x = -1/λ · (1 + 1e-9): |1 + xλ| ≈ 1e-9, inside the 1e-8 band.
        let x = -lam.recip() * Complex64::new(1.0 + 1e-9, 0.0);
        let sigma = Complex64::from_real(model.shift()) + x;
        let exact = match model.eval_sigma(sigma) {
            Ok(z) => z,
            Err(_) => continue, // singular for LU as well — consistent
        };
        plan.eval_sigma_into(&mut ws, sigma, &mut out).unwrap();
        assert_eq!(
            cmat_bits(&out),
            cmat_bits(&exact),
            "near-pole point must use the LU path exactly"
        );
        redirected += 1;
    }
    assert!(redirected > 0, "test never exercised the near-pole band");
}

#[test]
fn poles_agree_between_plan_and_cold_model() {
    // `sigma_poles` is served from the plan's eigenvalues once a plan is
    // compiled; the bits must equal a never-compiled model's poles.
    let sys = MnaSystem::assemble(&random_rc(42, 15, 2)).unwrap();
    let warm = sympvl(&sys, 9, &SympvlOptions::default()).unwrap();
    let cold = sympvl(&sys, 9, &SympvlOptions::default()).unwrap();
    let _plan = EvalPlan::compile(&warm); // seeds warm's eigenvalue cache
    let a = warm.sigma_poles().unwrap();
    let b = cold.sigma_poles().unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

/// A random connected RLC network: a spanning tree of resistors,
/// grounded capacitors, and a series R–L shunt to ground from every
/// other node. The MNA matrix is indefinite, so models take the general
/// complex path.
fn random_rlc(seed: u64, nodes: usize, ports: usize) -> mpvl_circuit::Circuit {
    let mut rng = mpvl_testkit::rng::SmallRng::seed_from_u64(seed);
    let mut ckt = mpvl_circuit::Circuit::new();
    let gnd = mpvl_circuit::GROUND;
    let ids: Vec<_> = (0..nodes).map(|_| ckt.add_node()).collect();
    for (i, &nd) in ids.iter().enumerate() {
        let parent = if i == 0 || rng.gen_bool(0.3) {
            gnd
        } else {
            ids[rng.gen_range(0..i)]
        };
        ckt.add_resistor(&format!("Rt{i}"), nd, parent, rng.gen_range(10.0..1000.0));
        ckt.add_capacitor(&format!("Cg{i}"), nd, gnd, rng.gen_range(0.1e-12..10e-12));
        if i % 2 == 1 {
            let mid = ckt.add_node();
            ckt.add_resistor(&format!("Rs{i}"), nd, mid, rng.gen_range(1.0..50.0));
            ckt.add_inductor(&format!("Ls{i}"), mid, gnd, rng.gen_range(0.1e-9..10e-9));
        }
    }
    for (j, &nd) in ids.iter().take(ports).enumerate() {
        ckt.add_port(&format!("p{j}"), nd, gnd);
    }
    ckt
}

/// `s = j2πf` on a log grid over `[10^lo, 10^hi]` Hz.
fn jw_sweep(points: usize, lo: f64, hi: f64) -> Vec<Complex64> {
    (0..points)
        .map(|i| {
            let t = if points == 1 {
                0.5
            } else {
                i as f64 / (points - 1) as f64
            };
            let f = 10f64.powf(lo + (hi - lo) * t);
            Complex64::new(0.0, 2.0 * std::f64::consts::PI * f)
        })
        .collect()
}

/// Runs `plan.eval_many_into` and a loop of `plan.eval_into` over `s`
/// and returns both results (each `Err` carries the outputs filled so
/// far, up to and excluding the failing point).
type Sweep = Result<Vec<Vec<u64>>, Vec<Vec<u64>>>;

fn blocked_and_pointwise(plan: &EvalPlan, s: &[Complex64]) -> (Sweep, Sweep) {
    let p = plan.ports();
    let mut outs: Vec<Mat<Complex64>> = s.iter().map(|_| Mat::zeros(p, p)).collect();
    let mut ws = plan.workspace();
    let blocked = match plan.eval_many_into(&mut ws, s, &mut outs) {
        Ok(()) => Ok(outs.iter().map(cmat_bits).collect()),
        Err(_) => Err(outs.iter().map(cmat_bits).collect()),
    };
    let mut ws = plan.workspace();
    let mut reference = Vec::new();
    let mut out = Mat::zeros(p, p);
    for &si in s {
        if plan.eval_into(&mut ws, si, &mut out).is_err() {
            return (blocked, Err(reference));
        }
        reference.push(cmat_bits(&out));
    }
    (blocked, Ok(reference))
}

#[test]
fn blocked_sweep_is_bit_identical_to_pointwise_loop() {
    let b = EvalPlan::BLOCK;
    let counts = [1usize, 2, b - 1, b, b + 1, 1000];
    let ports = [1usize, 3, 5, 17];
    check(
        "blocked_sweep_is_bit_identical_to_pointwise_loop",
        16,
        (0u64..1000, (0usize..4, 0usize..6), 0u8..4),
        |&(seed, (pi, ci), kind)| {
            let p = ports[pi];
            let nodes = p + 8 + (seed % 7) as usize;
            let ckt = match kind {
                0 => random_rc(seed, nodes, p),
                1 => random_rl(seed, nodes, p),
                2 => random_lc(seed, nodes, p),
                _ => random_rlc(seed, nodes, p),
            };
            let sys = MnaSystem::assemble(&ckt).unwrap();
            let order = (2 * p).min(sys.dim());
            let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
            let plan = EvalPlan::compile(&model);
            let s = jw_sweep(counts[ci], 5.0, 11.0);
            let (blocked, reference) = blocked_and_pointwise(&plan, &s);
            prop_assert!(
                blocked == reference,
                "p={p} points={} kind={kind} compiled={}: blocked sweep differs \
                 from the eval_into loop",
                s.len(),
                plan.is_compiled()
            );
            Ok(())
        },
    );
}

#[test]
fn blocked_sweep_covers_both_compiled_paths() {
    // The property above draws from both paths; pin that each one
    // really compiles for a representative model of its kind.
    let sys = MnaSystem::assemble(&random_rc(5, 20, 3)).unwrap();
    let model = sympvl(&sys, 6, &SympvlOptions::default()).unwrap();
    assert!(model.guarantees_passivity());
    assert!(EvalPlan::compile(&model).is_compiled());
    let sys = MnaSystem::assemble(&random_rlc(5, 20, 3)).unwrap();
    let model = sympvl(&sys, 6, &SympvlOptions::default()).unwrap();
    assert!(!model.guarantees_passivity(), "expected J != I");
    let plan = EvalPlan::compile(&model);
    assert!(plan.is_compiled(), "{:?}", plan.fallback_reason());
}

#[test]
fn blocked_sweep_redirects_a_mid_block_near_pole_point_to_lu() {
    // A point inside the near-pole band, placed mid-block among ordinary
    // points: the blocked kernel must hand it to LU exactly as
    // `eval_into` does, and every other point must keep its bits.
    let sys = MnaSystem::assemble(&rc_ladder(30, 1.0, 1e-12)).unwrap();
    let model = sympvl(&sys, 8, &SympvlOptions::default()).unwrap();
    let plan = EvalPlan::compile(&model);
    assert!(plan.is_compiled());
    let lam = plan.lambdas().unwrap()[0];
    let x = -lam.recip() * Complex64::new(1.0 + 1e-9, 0.0);
    let near = Complex64::from_real(model.shift()) + x; // s_power 1: s = σ
    let exact = model.eval(near).expect("near, not exact, pole");
    let mut s = jw_sweep(3 * EvalPlan::BLOCK, 5.0, 11.0);
    let at = EvalPlan::BLOCK + 5;
    s[at] = near;
    let (blocked, reference) = blocked_and_pointwise(&plan, &s);
    let reference = reference.expect("no exact pole in the sweep");
    assert_eq!(reference[at], cmat_bits(&exact), "eval_into must use LU");
    assert_eq!(blocked, Ok(reference));
}

#[test]
fn blocked_sweep_stops_at_a_mid_block_exact_pole() {
    // λ = 1 makes x = −1 an exact pole: `Singular`, with every earlier
    // output filled and equal to `eval_into`'s, on both compiled paths.
    for identity_j in [true, false] {
        let model = sympvl::ReducedModel::from_parts(
            Mat::from_diag(&[1.0, 0.5, 0.25, 2.0]),
            Mat::identity(4),
            Mat::from_rows(&[
                &[1.0, 0.2, -0.3],
                &[0.5, 1.0, 0.1],
                &[-0.4, 0.3, 1.0],
                &[0.2, -0.1, 0.6],
            ]),
            0.0,
            1,
            0,
            identity_j,
            40,
        );
        let plan = EvalPlan::compile(&model);
        assert!(plan.is_compiled(), "{:?}", plan.fallback_reason());
        let mut s = jw_sweep(2 * EvalPlan::BLOCK + 7, -2.0, 2.0);
        let at = EvalPlan::BLOCK + 3;
        s[at] = Complex64::from_real(-1.0);
        let (blocked, reference) = blocked_and_pointwise(&plan, &s);
        let Err(reference) = reference else {
            panic!("identity_j={identity_j}: eval_into must fail at the exact pole");
        };
        assert_eq!(reference.len(), at);
        let Err(blocked) = blocked else {
            panic!("identity_j={identity_j}: eval_many_into must fail at the exact pole");
        };
        assert_eq!(&blocked[..at], &reference[..], "identity_j={identity_j}");
    }
}
