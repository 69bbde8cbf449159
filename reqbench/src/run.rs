//! The timed part: SPICE text through `ServiceRequest::from_spec` and
//! `ReductionService::submit`, closed loop, with tracing off.

use crate::workload::{Job, Stream};
use mpvl_la::Complex64;
use mpvl_service::{ReductionService, ServiceError, ServiceOptions, ServiceRequest};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use sympvl::ReducedModel;

/// What one request returned, kept for the off-timer checks.
pub struct Reply {
    pub model: ReducedModel,
    pub registry_hit: bool,
    /// Fingerprint of the whole sweep.
    pub sweep_fp: u64,
    /// The sweep at the job's checked indices.
    pub checked: Vec<(f64, mpvl_la::Mat<Complex64>)>,
}

/// Where a request sits: the k-th set-up request or stream index i.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    Setup(usize),
    Stream(usize),
}

/// One timed request.
pub struct Record {
    pub slot: Slot,
    /// Class and method of the job.
    pub label: String,
    /// `true` for the resubmission that follows each cold request.
    pub probe: bool,
    pub seconds: f64,
    pub reply: Result<Reply, String>,
}

/// FNV-1a over `f64` bit patterns.
#[derive(Clone, Copy)]
pub struct Fp(u64);

impl Fp {
    pub fn new() -> Fp {
        Fp(0xcbf2_9ce4_8422_2325)
    }
    pub fn u64(mut self, v: u64) -> Fp {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    pub fn f64s<'a>(self, vs: impl IntoIterator<Item = &'a f64>) -> Fp {
        vs.into_iter().fold(self, |fp, v| fp.u64(v.to_bits()))
    }
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a model's Δ, T and ρ bits, shift and order.
pub fn model_fp(m: &ReducedModel) -> u64 {
    [m.delta_matrix(), m.t_matrix(), m.rho_matrix()]
        .into_iter()
        .fold(Fp::new(), |fp, mat| fp.f64s(mat.as_slice()))
        .u64(m.shift().to_bits())
        .u64(m.order() as u64)
        .get()
}

/// Fingerprint of a sweep: frequencies and every entry of every point.
pub fn sweep_fp<'a>(points: impl IntoIterator<Item = (f64, &'a mpvl_la::Mat<Complex64>)>) -> u64 {
    points
        .into_iter()
        .fold(Fp::new(), |fp, (f, z)| {
            z.as_slice().iter().fold(fp.u64(f.to_bits()), |fp, c| {
                fp.u64(c.re.to_bits()).u64(c.im.to_bits())
            })
        })
        .get()
}

/// The request exactly as a client builds it from the text.
pub fn request(job: &Job) -> Result<ServiceRequest, ServiceError> {
    ServiceRequest::from_spec(&job.text, job.spec.clone())?.with_eval(job.freqs.to_vec())
}

/// Builds the request from the job's text and submits it; returns the
/// wall time of both steps and the reply.
pub fn submit_timed(service: &ReductionService, job: &Job) -> (f64, Result<Reply, String>) {
    let t0 = Instant::now();
    let outcome = request(job).and_then(|r| service.submit(&r));
    let seconds = t0.elapsed().as_secs_f64();
    let reply = outcome.map_err(|e| e.to_string()).and_then(|out| {
        let eval = out.eval.ok_or("no sweep returned")?;
        if eval.len() != job.freqs.len() {
            return Err(format!(
                "sweep has {} of {} points",
                eval.len(),
                job.freqs.len()
            ));
        }
        Ok(Reply {
            sweep_fp: sweep_fp(eval.iter().map(|p| (p.freq_hz, &p.z))),
            checked: job
                .check
                .iter()
                .map(|&i| (eval[i].freq_hz, eval[i].z.clone()))
                .collect(),
            model: out.model,
            registry_hit: out.registry_hit,
        })
    });
    (seconds, reply)
}

/// Builds a service and sends the set-up requests; returns it with the
/// wall time taken and the set-up records.
pub fn set_up(stream: &Stream) -> (ReductionService, f64, Vec<Record>) {
    let jobs = stream.setup_jobs();
    let t0 = Instant::now();
    let service = ReductionService::new(ServiceOptions::default());
    let mut records = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let (seconds, reply) = submit_timed(&service, job);
        records.push(Record {
            slot: Slot::Setup(k),
            label: job.label(),
            probe: false,
            seconds,
            reply,
        });
    }
    (service, t0.elapsed().as_secs_f64(), records)
}

/// Runs the stream against `service` until `budget` has passed (cold
/// streams finish their cycle). Returns the records in stream order and
/// the wall time of the whole phase.
pub fn run_stream(
    service: &ReductionService,
    stream: &Stream,
    budget: Duration,
) -> (Vec<Record>, f64) {
    let t0 = Instant::now();
    let mut records = Vec::new();
    match stream.cycle() {
        Some(cycle) => {
            let mut i = 0;
            while i % cycle != 0 || t0.elapsed() < budget {
                let job = stream.job(i);
                let (seconds, reply) = submit_timed(service, &job);
                records.push(Record {
                    slot: Slot::Stream(i),
                    label: job.label(),
                    probe: false,
                    seconds,
                    reply,
                });
                let (seconds, reply) = submit_timed(service, &job);
                records.push(Record {
                    slot: Slot::Stream(i),
                    label: job.label(),
                    probe: true,
                    seconds,
                    reply,
                });
                i += 1;
            }
        }
        None => {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..stream.kind.clients())
                    .map(|_| {
                        scope.spawn(|| {
                            let mut mine = Vec::new();
                            while t0.elapsed() < budget {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let job = stream.job(i);
                                let (seconds, reply) = submit_timed(service, &job);
                                mine.push(Record {
                                    slot: Slot::Stream(i),
                                    label: job.label(),
                                    probe: false,
                                    seconds,
                                    reply,
                                });
                            }
                            mine
                        })
                    })
                    .collect();
                for client in clients {
                    records.extend(client.join().expect("client thread panicked"));
                }
            });
            records.sort_by_key(|r| r.slot);
        }
    }
    (records, t0.elapsed().as_secs_f64())
}
