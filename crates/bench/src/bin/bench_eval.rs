//! Compiled pole–residue evaluation vs. the per-point LU path.
//!
//! The tentpole claim: once a reduced model is compiled to pole–residue
//! form, each frequency point costs O(q·p²) with zero allocation instead
//! of an O(q³) LU factorization. This bench measures both paths over the
//! same order × point-count grid and records the speedup.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_eval`;
//! writes `target/bench/BENCH_eval.json`. The `40x2001` pair is gated by
//! `bench_gate` (compiled must beat LU).
//!
//! The `136x1000` cases are the shape of a warm interconnect request: the
//! 17-port interconnect at order 136 over a 1000-point sweep. They time
//! the point-blocked `eval_many_into` against a loop of the single-point
//! `eval_into` on the same plan (`bench_gate` requires blocked to win)
//! and report the blocked kernel's achieved rate as
//! `gflops/compiled/136x1000`, counting `8·q·p²` flops per point (one
//! complex multiply–add per residue entry).

use mpvl_circuit::generators::{interconnect, package, InterconnectParams, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};
use mpvl_sim::FreqGrid;
use mpvl_testkit::bench::Bench;
use sympvl::{sympvl, EvalPlan, ReducedModel, SympvlOptions};

fn s_values(points: usize) -> Vec<Complex64> {
    s_band(1e6, 1e10, points)
}

fn s_band(f_lo: f64, f_hi: f64, points: usize) -> Vec<Complex64> {
    FreqGrid::log(f_lo, f_hi, points)
        .expect("valid grid")
        .as_slice()
        .iter()
        .map(|&f| Complex64::new(0.0, 2.0 * std::f64::consts::PI * f))
        .collect()
}

fn bench_pair(bench: &mut Bench, model: &ReducedModel, order: usize, points: usize) {
    let plan = EvalPlan::compile(model);
    assert!(
        plan.is_compiled(),
        "order {order}: plan fell back ({:?}) — bench would compare LU to LU",
        plan.fallback_reason()
    );
    let sv = s_values(points);
    let p = model.num_ports();

    bench.bench(&format!("eval_lu/{order}x{points}"), || {
        for &s in &sv {
            let z = model.eval(s).expect("LU eval");
            std::hint::black_box(&z);
        }
    });

    let mut ws = plan.workspace();
    let mut outs: Vec<Mat<Complex64>> = (0..points).map(|_| Mat::zeros(p, p)).collect();
    bench.bench(&format!("eval_compiled/{order}x{points}"), || {
        plan.eval_many_into(&mut ws, &sv, &mut outs)
            .expect("compiled eval");
        std::hint::black_box(&outs);
    });

    let lu = bench
        .median_of(&format!("eval_lu/{order}x{points}"))
        .expect("lu median");
    let compiled = bench
        .median_of(&format!("eval_compiled/{order}x{points}"))
        .expect("compiled median");
    bench.push_value(
        &format!("speedup/compiled_vs_lu/{order}x{points}"),
        lu / compiled,
    );
}

/// Blocked vs single-point compiled eval on the warm interconnect shape.
fn bench_blocked(bench: &mut Bench) {
    let sys = MnaSystem::assemble(&interconnect(&InterconnectParams::default()))
        .expect("assemble 17-port interconnect");
    let (order, points) = (136usize, 1000usize);
    let model = sympvl(&sys, order, &SympvlOptions::default()).expect("reduce");
    let plan = EvalPlan::compile(&model);
    assert!(
        plan.is_compiled(),
        "order {order}: plan fell back ({:?})",
        plan.fallback_reason()
    );
    let sv = s_band(1e4, 5e9, points);
    let p = plan.ports();
    let mut ws = plan.workspace();
    let mut outs: Vec<Mat<Complex64>> = (0..points).map(|_| Mat::zeros(p, p)).collect();
    let blocked = format!("eval_compiled/{order}x{points}");
    bench.bench(&blocked, || {
        plan.eval_many_into(&mut ws, &sv, &mut outs)
            .expect("blocked eval");
        std::hint::black_box(&outs);
    });
    bench.bench(&format!("eval_pointwise/{order}x{points}"), || {
        for (&s, out) in sv.iter().zip(outs.iter_mut()) {
            plan.eval_into(&mut ws, s, out).expect("pointwise eval");
        }
        std::hint::black_box(&outs);
    });
    let t = bench.median_of(&blocked).expect("blocked median");
    let flops = 8.0 * (order * p * p * points) as f64;
    bench.push_value(
        &format!("gflops/compiled/{order}x{points}"),
        flops / t / 1e9,
    );
}

fn main() {
    let mut bench = Bench::new("eval");

    // Symmetric path: 8-port coupled RC interconnect, the paper's
    // many-terminal workhorse shape.
    let sys = MnaSystem::assemble(&interconnect(&InterconnectParams {
        wires: 8,
        segments: 40,
        coupling_reach: 2,
        ..InterconnectParams::default()
    }))
    .expect("assemble interconnect");
    for order in [20usize, 40, 80] {
        let model = sympvl(&sys, order, &SympvlOptions::default()).expect("reduce");
        for points in [201usize, 2001] {
            bench_pair(&mut bench, &model, order, points);
        }
    }

    // General (non-identity-J) path coverage: the RLC package model.
    let rlc = MnaSystem::assemble(&package(&PackageParams::default())).expect("assemble package");
    let model = sympvl(&rlc, 24, &SympvlOptions::default()).expect("reduce package");
    bench_pair(&mut bench, &model, 24, 201);

    bench_blocked(&mut bench);

    bench.finish();
    mpvl_bench::export_obs();
}
