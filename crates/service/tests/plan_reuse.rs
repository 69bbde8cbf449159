//! Compiled evaluation plans survive registry hits.
//!
//! A registry hit adopts the registry's shared model into the session
//! under a fresh `ModelId`. The session store lends a compiled plan to
//! any entry holding the same `Arc`, so a repeated hit compiles nothing.
//!
//! This suite is its own test binary because `mpvl_obs::capture` reads
//! the process-global counters: a sibling test evaluating at the same
//! moment would leak its counts into the capture. For the same reason
//! its tests run one at a time under [`SERIAL`].

use mpvl_engine::{EvalPoint, ReduceSpec};
use mpvl_service::{ReductionService, ServiceOptions, ServiceOutcome, ServiceRequest};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A 4-port RC ladder: one port per quarter of the line.
fn netlist() -> String {
    let mut s = String::new();
    for i in 1..=24 {
        let prev = if i == 1 {
            "n0".to_string()
        } else {
            format!("n{}", i - 1)
        };
        s.push_str(&format!("R{i} {prev} n{i} 50\n"));
        s.push_str(&format!("C{i} n{i} 0 1e-12\n"));
    }
    for (k, node) in ["n0", "n8", "n16", "n24"].iter().enumerate() {
        s.push_str(&format!("P{k} {node} 0\n"));
    }
    s.push_str(".end\n");
    s
}

fn request(order: usize) -> ServiceRequest {
    ServiceRequest::from_spec(&netlist(), ReduceSpec::pade_fixed(order).unwrap())
        .unwrap()
        .with_eval(vec![1e6, 3e7, 1e9, 2e10])
        .unwrap()
}

fn eval_bits(points: &[EvalPoint]) -> Vec<u64> {
    points
        .iter()
        .flat_map(|p| {
            std::iter::once(p.freq_hz.to_bits()).chain(
                p.z.as_slice()
                    .iter()
                    .flat_map(|v| [v.re.to_bits(), v.im.to_bits()]),
            )
        })
        .collect()
}

/// Everything a caller reads back except the per-adopt `ModelId`.
fn outcome_bits(o: &ServiceOutcome) -> (String, Vec<u64>) {
    (
        sympvl::write_model(&o.model),
        eval_bits(o.eval.as_deref().expect("eval requested")),
    )
}

#[test]
fn repeated_registry_hits_reuse_one_compiled_plan() {
    let _serial = serial();
    let service = ReductionService::new(ServiceOptions::default());
    let cold = service.submit(&request(8)).unwrap();
    assert!(!cold.registry_hit);

    let (hits, report) = mpvl_obs::capture(|| {
        (0..3)
            .map(|_| service.submit(&request(8)).unwrap())
            .collect::<Vec<_>>()
    });
    assert!(hits.iter().all(|o| o.registry_hit));
    assert_eq!(report.counter("engine", "eval_plan_compiles"), 1);
    assert_eq!(report.counter("engine", "eval_plan_hits"), 2);
    // Every hit is adopted under its own, never reused, id.
    let mut ids: Vec<usize> = hits.iter().map(|o| o.model_id.index()).collect();
    ids.dedup();
    assert_eq!(ids.len(), 3);
    for hit in &hits {
        assert_eq!(outcome_bits(hit), outcome_bits(&cold));
    }
}

#[test]
fn different_registry_models_in_one_session_never_share_a_plan() {
    let _serial = serial();
    let service = ReductionService::new(ServiceOptions::default());
    let cold_a = service.submit(&request(8)).unwrap();
    let cold_b = service.submit(&request(12)).unwrap();
    assert_ne!(outcome_bits(&cold_a).1, outcome_bits(&cold_b).1);

    let (hits, report) =
        mpvl_obs::capture(|| [8, 12, 8, 12].map(|order| service.submit(&request(order)).unwrap()));
    assert_eq!(service.stats().live_sessions, 1, "one netlist, one session");
    assert!(hits.iter().all(|o| o.registry_hit));
    assert_eq!(report.counter("engine", "eval_plan_compiles"), 2);
    assert_eq!(report.counter("engine", "eval_plan_hits"), 2);
    for (hit, cold) in hits.iter().zip([&cold_a, &cold_b, &cold_a, &cold_b]) {
        assert_eq!(outcome_bits(hit), outcome_bits(cold));
    }
}
