//! Performance gate over the recorded bench JSON.
//!
//! Reads `target/bench/BENCH_sparse_ldlt.json` and
//! `target/bench/BENCH_par_sweep.json` (as written by the two bench
//! binaries earlier in the ci.sh run) and fails the build when either
//! performance bug this crate fixed regresses:
//!
//! 1. **Supernodal vs scalar factor** — the supernodal numeric kernel
//!    must not be slower than the reference scalar kernel at n = 1360
//!    (a 5 % median tolerance absorbs timer noise).
//! 2. **Thread scaling of the large AC sweep** — the threads=4 median
//!    of `ac_sweep_large8` must be strictly below the threads=1 median.
//!    On a machine without real parallelism (available_parallelism < 2)
//!    that is physically impossible, so the strict check is skipped
//!    loudly and replaced by a no-catastrophic-regression bound
//!    (threads=4 within 1.25× of threads=1: the chunked scheduler must
//!    not melt down when oversubscribed on one core).
//! 3. **Compiled pole–residue evaluation vs per-point LU** — from
//!    `BENCH_eval.json`: the compiled plan must be strictly faster than
//!    the LU path on the order-40 × 2001-point sweep. The comparison is
//!    algorithmic (O(q·p²) vs O(q³) per point, both single-threaded
//!    inner loops), so it holds on any core count.
//! 4. **Service registry effectiveness** — from `BENCH_service.json`:
//!    the warm service replaying known work must stay registry-bound
//!    (`registry/warm_hit_ratio` ≥ 0.5) and a registry-hit submit must
//!    be strictly faster than a cold service submit. Both comparisons
//!    are structural (a hit skips the whole reduction), so they hold on
//!    any core count.
//! 5. **Multi-point accuracy at equal total order** — from
//!    `BENCH_multipoint.json`: the 2-point merged model must be
//!    strictly more accurate (worst relative error over the 3-decade
//!    package band) than a mid-band single-point expansion of the same
//!    total order. The comparison is algorithmic (where the moments are
//!    spent, not how fast), so it holds on any core count.
//! 6. **Balanced-truncation accuracy at equal order** — from
//!    `BENCH_bt.json`: on the strongly-coupled PEEC band, the
//!    order-16 balanced-truncation model must be strictly more accurate
//!    (worst relative error on the damped contour) than a mid-band
//!    Padé expansion of the same order. Algorithmic again: the
//!    band-global Hankel criterion vs local moment matching.
//! 7. **Minimum-degree ordering scaling** — from
//!    `BENCH_sparse_ldlt.json`: ordering a 20 000-vertex path must take
//!    less than 8× as long as a 5 000-vertex one. Approximate minimum
//!    degree is linear on a path (measured ratio ≈ 4.4); a selection
//!    scan per elimination step is `O(n²)` (ratio ≈ 16–18).
//!    A ratio of two runs on one machine, so it holds on any core count.
//! 8. **Minimum-degree ordering scaling on a mesh** — from
//!    `BENCH_sparse_ldlt.json`: ordering a 316 × 316 grid (10⁵
//!    vertices) must take less than 100× as long as a 50 × 50 one (40×
//!    the vertices). Approximate minimum degree on the quotient graph
//!    measures 36–47×; an explicit elimination graph, whose cost
//!    follows the fill, about 400×. A ratio again, so it holds on any
//!    core count.
//! 9. **Blocked vs single-point compiled evaluation** — from
//!    `BENCH_eval.json`: on the 17-port interconnect at order 136 over
//!    1000 points, the point-blocked `eval_many_into` must be strictly
//!    faster than a loop of `eval_into` on the same plan (measured
//!    2.1–2.7× on a 2-core VM). Both run on one thread, so the ratio
//!    holds on any core count.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_gate`;
//! exits nonzero with a diagnostic on the first violated gate.

use mpvl_testkit::bench::target_dir;

/// Extracts `median_s` for the named result from our own bench JSON
/// (one result object per line — see `mpvl_testkit::bench::Bench`).
fn median(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    for line in json.lines() {
        if line.contains(&needle) {
            let tag = "\"median_s\": ";
            let at = line.find(tag)? + tag.len();
            let rest = &line[at..];
            let end = rest.find(',').unwrap_or(rest.len());
            return rest[..end].trim().trim_end_matches('}').trim().parse().ok();
        }
    }
    None
}

fn load(suite: &str) -> String {
    let path = target_dir()
        .join("bench")
        .join(format!("BENCH_{suite}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "bench_gate: cannot read {} ({e}); run the bench binaries first",
            path.display()
        );
        std::process::exit(1);
    })
}

fn require(json: &str, suite: &str, name: &str) -> f64 {
    median(json, name).unwrap_or_else(|| {
        eprintln!("bench_gate: BENCH_{suite}.json has no result \"{name}\"");
        std::process::exit(1);
    })
}

fn main() {
    let mut failures = 0usize;

    // Gate 1: supernodal numeric factor vs the scalar reference kernel.
    let sparse = load("sparse_ldlt");
    let scalar = require(&sparse, "sparse_ldlt", "ldlt_numeric_scalar/1360");
    let supernodal = require(&sparse, "sparse_ldlt", "ldlt_numeric_supernodal/1360");
    const FACTOR_TOLERANCE: f64 = 1.05;
    if supernodal > scalar * FACTOR_TOLERANCE {
        eprintln!(
            "bench_gate FAIL: supernodal factor at n=1360 is slower than scalar: \
             {:.3e}s vs {:.3e}s (allowed {FACTOR_TOLERANCE}x)",
            supernodal, scalar
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: supernodal factor {:.3e}s vs scalar {:.3e}s at n=1360 \
             (ratio {:.3})",
            supernodal,
            scalar,
            supernodal / scalar
        );
    }

    // Gate 2: the large AC sweep must scale with threads.
    let par = load("par_sweep");
    let t1 = require(&par, "par_sweep", "ac_sweep_large8/threads=1");
    let t4 = require(&par, "par_sweep", "ac_sweep_large8/threads=4");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores >= 2 {
        if t4 >= t1 {
            eprintln!(
                "bench_gate FAIL: ac_sweep_large8 threads=4 median {:.3e}s is not \
                 below threads=1 median {:.3e}s on a {cores}-core machine",
                t4, t1
            );
            failures += 1;
        } else {
            println!(
                "bench_gate ok: ac_sweep_large8 threads=4 {:.3e}s < threads=1 {:.3e}s \
                 (speedup {:.2}x)",
                t4,
                t1,
                t1 / t4
            );
        }
    } else {
        println!(
            "bench_gate SKIP: strict threads=4 < threads=1 check needs >= 2 cores, \
             this machine reports {cores}; checking oversubscription bound instead"
        );
        const OVERSUBSCRIBE_TOLERANCE: f64 = 1.25;
        if t4 > t1 * OVERSUBSCRIBE_TOLERANCE {
            eprintln!(
                "bench_gate FAIL: ac_sweep_large8 threads=4 median {:.3e}s exceeds \
                 {OVERSUBSCRIBE_TOLERANCE}x the threads=1 median {:.3e}s on one core \
                 (the chunked scheduler should be near-free when oversubscribed)",
                t4, t1
            );
            failures += 1;
        } else {
            println!(
                "bench_gate ok: ac_sweep_large8 threads=4 {:.3e}s within \
                 {OVERSUBSCRIBE_TOLERANCE}x of threads=1 {:.3e}s on one core",
                t4, t1
            );
        }
    }

    // Gate 3: compiled pole–residue evaluation must beat per-point LU.
    let eval = load("eval");
    let lu = require(&eval, "eval", "eval_lu/40x2001");
    let compiled = require(&eval, "eval", "eval_compiled/40x2001");
    if compiled >= lu {
        eprintln!(
            "bench_gate FAIL: compiled eval at 40x2001 is not faster than LU: \
             {:.3e}s vs {:.3e}s",
            compiled, lu
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: compiled eval {:.3e}s vs LU {:.3e}s at 40x2001 \
             (speedup {:.2}x)",
            compiled,
            lu,
            lu / compiled
        );
    }

    // Gate 4: the service registry must actually absorb repeat work.
    let service = load("service");
    let hit_ratio = require(&service, "service", "registry/warm_hit_ratio");
    let cold = require(&service, "service", "service_submit/cold");
    let warm_submit = require(&service, "service", "service_submit/registry_warm");
    const MIN_HIT_RATIO: f64 = 0.5;
    if hit_ratio < MIN_HIT_RATIO {
        eprintln!(
            "bench_gate FAIL: warm service registry hit ratio {hit_ratio:.3} is below \
             {MIN_HIT_RATIO} — repeat submits are not being content-addressed"
        );
        failures += 1;
    } else if warm_submit >= cold {
        eprintln!(
            "bench_gate FAIL: registry-warm submit {:.3e}s is not faster than a cold \
             submit {:.3e}s — a hit should skip the whole reduction",
            warm_submit, cold
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: registry hit ratio {:.3}, warm submit {:.3e}s vs cold \
             {:.3e}s (speedup {:.2}x)",
            hit_ratio,
            warm_submit,
            cold,
            cold / warm_submit
        );
    }

    // Gate 5: multi-point must out-approximate single-point at equal
    // total order over the wide band.
    let multipoint = load("multipoint");
    let em = require(&multipoint, "multipoint", "multipoint/worst_band_error");
    let es = require(&multipoint, "multipoint", "singlepoint/worst_band_error");
    if !(em.is_finite() && es.is_finite()) || em >= es {
        eprintln!(
            "bench_gate FAIL: 2-point worst-band error {em:.3e} is not below the \
             equal-order single-point error {es:.3e} — the multi-point merge is \
             not paying for its points"
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: 2-point worst-band error {em:.3e} vs single-point \
             {es:.3e} at equal total order ({:.2}x tighter)",
            es / em
        );
    }

    // Gate 6: balanced truncation must out-approximate the equal-order
    // mid-band Padé expansion on the strongly-coupled PEEC band.
    let bt = load("bt");
    let eb = require(&bt, "bt", "bt/worst_band_error");
    let ep = require(&bt, "bt", "pade/worst_band_error");
    if !(eb.is_finite() && ep.is_finite()) || eb >= ep {
        eprintln!(
            "bench_gate FAIL: balanced-truncation worst-band error {eb:.3e} is not \
             below the equal-order mid-band Padé error {ep:.3e} — the band-global \
             Hankel criterion is not paying for its Lyapunov solve"
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: balanced-truncation worst-band error {eb:.3e} vs \
             equal-order Padé {ep:.3e} on the PEEC band ({:.2}x tighter)",
            ep / eb
        );
    }

    // Gate 7: minimum-degree ordering must scale near-linearly on a
    // path (the shape of every ladder workload).
    let small = require(&sparse, "sparse_ldlt", "order_mindegree/path5000");
    let large = require(&sparse, "sparse_ldlt", "order_mindegree/path20000");
    const ORDER_SCALING_LIMIT: f64 = 8.0;
    let ratio = large / small;
    if !ratio.is_finite() || ratio >= ORDER_SCALING_LIMIT {
        eprintln!(
            "bench_gate FAIL: min-degree ordering of a 20000-vertex path took {ratio:.2}x \
             the 5000-vertex time ({large:.3e}s vs {small:.3e}s; allowed \
             {ORDER_SCALING_LIMIT}x) — selection has gone quadratic"
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: min-degree ordering path20000 {large:.3e}s vs path5000 \
             {small:.3e}s (ratio {ratio:.2}, limit {ORDER_SCALING_LIMIT})"
        );
    }

    // Gate 8: the ordering must stay near-linear on a 2-D mesh too.
    // grid316 has 40x the vertices of grid50; AMD on the quotient
    // graph measures 36-47x, an explicit elimination graph about
    // 400x (its cost follows the fill).
    let small = require(&sparse, "sparse_ldlt", "order_mindegree/grid50");
    let large = require(&sparse, "sparse_ldlt", "order_mindegree/grid316");
    const GRID_SCALING_LIMIT: f64 = 100.0;
    let ratio = large / small;
    if !ratio.is_finite() || ratio >= GRID_SCALING_LIMIT {
        eprintln!(
            "bench_gate FAIL: min-degree ordering of a 316x316 grid took {ratio:.1}x \
             the 50x50 time ({large:.3e}s vs {small:.3e}s; allowed \
             {GRID_SCALING_LIMIT}x) — ordering cost has started to follow the fill"
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: min-degree ordering grid316 {large:.3e}s vs grid50 \
             {small:.3e}s (ratio {ratio:.1}, limit {GRID_SCALING_LIMIT})"
        );
    }

    // Gate 9: the point-blocked compiled kernel must beat the
    // single-point loop it is bit-identical to.
    let blocked = require(&eval, "eval", "eval_compiled/136x1000");
    let pointwise = require(&eval, "eval", "eval_pointwise/136x1000");
    if blocked >= pointwise {
        eprintln!(
            "bench_gate FAIL: blocked compiled eval at 136x1000 is not faster than \
             the single-point loop: {blocked:.3e}s vs {pointwise:.3e}s"
        );
        failures += 1;
    } else {
        println!(
            "bench_gate ok: blocked compiled eval {blocked:.3e}s vs single-point \
             {pointwise:.3e}s at 136x1000 (speedup {:.2}x)",
            pointwise / blocked
        );
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} gate(s) failed");
        std::process::exit(1);
    }
    println!("bench_gate: all gates passed");
}
