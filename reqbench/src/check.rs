//! The correctness gate, run off the timer: every returned sweep is
//! compared with the exact `mpvl_sim` AC solution at the job's checked
//! points, Padé models of RC, RL and LC circuits must carry a passivity
//! certificate, and each cold resubmission must return the bits of the
//! request it repeats.

use crate::netlists::Shape;
use crate::run::{model_fp, Record, Slot};
use crate::workload::{tolerance, Job, Method, Stream};
use mpvl_circuit::{parse_spice, CircuitClass, MnaSystem};
use mpvl_la::{Complex64, Mat};
use mpvl_sim::AcSweeper;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use sympvl::{certify, Certificate};

/// What the gate found.
#[derive(Default)]
pub struct Verdict {
    /// One line per failed request: where, which class, why.
    pub failures: Vec<String>,
    /// Worst relative error over every checked point.
    pub max_rel_err: f64,
    /// Worst relative error per class label.
    pub per_class: BTreeMap<String, f64>,
    /// Requests with at least one failure.
    pub failed_requests: usize,
    pub points_checked: usize,
    pub certified: usize,
    /// Wall time the gate took.
    pub seconds: f64,
}

impl Verdict {
    /// Prints the gate's findings: totals, worst error per class, and
    /// the first failures with their causes.
    pub fn report(&self) {
        println!(
            "check: {} points against mpvl_sim::ac_sweep in {:.1} s, {} passivity certificates, \
             worst relative error {:.3e}",
            self.points_checked, self.seconds, self.certified, self.max_rel_err
        );
        for (class, worst) in &self.per_class {
            println!("check:   {class:<14} worst relative error {worst:.3e}");
        }
        for line in self.failures.iter().take(20) {
            println!("check: FAIL {line}");
        }
    }
}

struct Reference {
    sweeper: AcSweeper,
    class: CircuitClass,
    points: HashMap<u64, Mat<Complex64>>,
}

fn frob(z: &Mat<Complex64>) -> f64 {
    z.as_slice()
        .iter()
        .map(|c| c.norm_sqr())
        .sum::<f64>()
        .sqrt()
}

fn rel_err(z: &Mat<Complex64>, exact: &Mat<Complex64>) -> f64 {
    let diff: f64 = z
        .as_slice()
        .iter()
        .zip(exact.as_slice())
        .map(|(a, b)| (*a - *b).norm_sqr())
        .sum::<f64>()
        .sqrt();
    diff / frob(exact)
}

/// Checks every record. A request counts as failed when it returned an
/// error, missed its tolerance, lacks its passivity certificate, or (a
/// cold resubmission) differs from the request it repeats.
pub fn check(stream: &Stream, records: &[Record]) -> Verdict {
    let t0 = std::time::Instant::now();
    let mut v = Verdict::default();
    let mut refs: HashMap<(Shape, u64), Reference> = HashMap::new();
    let mut first_fps: HashMap<Slot, (u64, u64)> = HashMap::new();
    let mut job_cache: Option<(Slot, Job)> = None;
    for rec in records {
        let failures_before = v.failures.len();
        check_one(
            stream,
            rec,
            &mut v,
            &mut refs,
            &mut first_fps,
            &mut job_cache,
        );
        if v.failures.len() > failures_before {
            v.failed_requests += 1;
        }
    }
    v.seconds = t0.elapsed().as_secs_f64();
    v
}

fn check_one(
    stream: &Stream,
    rec: &Record,
    v: &mut Verdict,
    refs: &mut HashMap<(Shape, u64), Reference>,
    first_fps: &mut HashMap<Slot, (u64, u64)>,
    job_cache: &mut Option<(Slot, Job)>,
) {
    let job = match &*job_cache {
        Some((slot, job)) if *slot == rec.slot => job.clone(),
        _ => {
            let job = stream.job_at(rec.slot);
            *job_cache = Some((rec.slot, job.clone()));
            job
        }
    };
    let label = job.shape.label();
    let mut fail = |why: String| v.failures.push(format!("{:?} {label}: {why}", rec.slot));
    let reply = match &rec.reply {
        Ok(reply) => reply,
        Err(e) => {
            fail(format!("request failed: {e}"));
            return;
        }
    };
    let fps = (model_fp(&reply.model), reply.sweep_fp);
    if rec.probe {
        if first_fps.get(&rec.slot) != Some(&fps) {
            fail("resubmission returned different bits".into());
        }
        if !reply.registry_hit {
            fail("resubmission missed the registry".into());
        }
        return;
    }
    first_fps.insert(rec.slot, fps);
    if refs.len() > 16 {
        refs.clear();
    }
    let reference = match refs.entry((job.shape, job.text_seed)) {
        Entry::Occupied(entry) => entry.into_mut(),
        Entry::Vacant(slot) => {
            let built = parse_spice(&job.text)
                .map_err(|e| e.to_string())
                .and_then(|(ckt, _)| {
                    let class = ckt.classify();
                    MnaSystem::assemble(&ckt)
                        .map(|sys| Reference {
                            sweeper: AcSweeper::new(&sys),
                            class,
                            points: HashMap::new(),
                        })
                        .map_err(|e| e.to_string())
                });
            match built {
                Ok(r) => slot.insert(r),
                Err(e) => {
                    fail(format!("reference assembly failed: {e}"));
                    return;
                }
            }
        }
    };
    let tol = tolerance(job.shape, job.method);
    let (mut worst, mut worst_f) = (0.0_f64, 0.0);
    for (f, z) in &reply.checked {
        let exact = match reference.points.get(&f.to_bits()) {
            Some(exact) => exact.clone(),
            None => match reference.sweeper.sweep(&[*f]) {
                Ok(mut pts) => {
                    let exact = pts.swap_remove(0).z;
                    reference.points.insert(f.to_bits(), exact.clone());
                    exact
                }
                Err(e) => {
                    fail(format!("reference sweep failed at {f:e} Hz: {e}"));
                    return;
                }
            },
        };
        // NaN counts as the worst error.
        let e = rel_err(z, &exact);
        if e.is_nan() || e > worst {
            (worst, worst_f) = (e, *f);
        }
        v.points_checked += 1;
    }
    if !worst.is_finite() || worst > tol {
        fail(format!(
            "relative error {worst:.3e} at {worst_f:.3e} Hz above tolerance {tol:.0e}"
        ));
    }
    v.max_rel_err = v.max_rel_err.max(worst);
    let class_worst = v.per_class.entry(label.clone()).or_insert(0.0);
    *class_worst = class_worst.max(worst);
    if matches!(job.method, Method::Pade | Method::Adaptive)
        && matches!(
            reference.class,
            CircuitClass::Rc | CircuitClass::Rl | CircuitClass::Lc
        )
    {
        let t = reply.model.t_matrix();
        let scale = t.as_slice().iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        match certify(&reply.model, 1e-10 * scale) {
            Ok(Certificate::ProvablyPassive { .. }) => v.certified += 1,
            Ok(other) => fail(format!("no passivity certificate: {other:?}")),
            Err(e) => fail(format!("certify failed: {e}")),
        }
    }
}
