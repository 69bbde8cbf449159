//! The traced run: per-layer numbers for the same seeded stream.
//!
//! First the stream runs through the service exactly as in the untraced
//! run, for half the time budget (a quarter with two clients). Then the
//! same requests are replayed, in stream order, through a mirror of the
//! service's request path built from each layer's public functions,
//! timing every call from outside:
//!
//! * **service** — `ServiceRequest::from_spec`, the shard map and the
//!   registry (mirrored here with the service's default bounds);
//! * **circuit** — `parse_spice`, `to_spice`, the re-parse of the
//!   canonical text, `MnaSystem::assemble`;
//! * **engine** — the session: its factor cache (keyed by
//!   `FactorKey`), its pool of paused runs, plan compilation and the
//!   sweep, with the engine's default bounds;
//! * **core** — `SympvlRun::new_via` with a timing closure around
//!   `factor_target`, `model_at`, `reduce_adaptive_with`,
//!   `reduce_multipoint_with`, `reduce_balanced_via`, `EvalPlan`;
//! * **sparse** — inside each factorization attempt, a shadow run of
//!   `compute_ordering(MinDegree)`, `SymbolicLdlt::analyze_with_perm`
//!   and `NumericLdlt` on the same matrix splits the attempt's time into
//!   ordering, symbolic and numeric phases.
//!
//! Calls made only to split a time (the shadow factorization, and the
//! separate `parse_spice`/`to_spice` that split `from_spec`) are kept
//! off the request's clock and count as trace overhead. The replay must
//! reproduce every model and sweep of the service run bit for bit;
//! the shadow factorization must reproduce every sparse factor's `D`.

use crate::run::{model_fp, request, run_stream, set_up, sweep_fp, Record, Slot};
use crate::stats::{median, Metrics};
use crate::workload::{Job, Stream};
use crate::{check, Outcome};
use mpvl_circuit::{parse_spice, to_spice, MnaSystem};
use mpvl_engine::{Backend, FactorKey, OrderSpec, ReduceSpec};
use mpvl_la::{Complex64, Mat};
use mpvl_service::ServiceOptions;
use mpvl_sparse::{compute_ordering, NumericLdlt, Ordering, SymbolicLdlt};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sympvl::{
    factor_target, reduce_adaptive_with, reduce_balanced_via, reduce_multipoint_with, EvalPlan,
    FactorTarget, GFactor, ReducedModel, RunProvider, Shift, SympvlError, SympvlOptions, SympvlRun,
};

/// Engine defaults mirrored by the replay (`SessionOptions::default()`).
const MAX_CACHED_FACTORS: usize = 8;
const MAX_RETAINED_RUNS: usize = 8;

/// Runs `f`; returns its result and the seconds it took.
fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The layers a request crosses, in the order of [`Layers::self_times`].
const LAYERS: [&str; 5] = ["service", "circuit", "engine", "core", "sparse"];

/// Times (seconds) and counts of one replayed request.
#[derive(Default, Clone)]
struct Layers {
    wall: f64,
    /// Time spent on shadow calls, off the request's clock.
    shadow: f64,
    /// The part of `shadow` spent inside the submit (factor shadows).
    submit_shadow: f64,
    ingest: f64,
    submit: f64,
    parse: f64,
    canonical: f64,
    reparse: f64,
    assemble: f64,
    unknowns: Vec<f64>,
    session_new: f64,
    adopt: f64,
    reduce: f64,
    eval: f64,
    // core: the factorization attempts, then the calls that triggered
    // them, each of those without its factorizations
    factor_total: f64,
    factor_sparse: f64,
    run_new: f64,
    lanczos: f64,
    multipoint: f64,
    lyapunov: f64,
    plan_compile: f64,
    eval_points_s: f64,
    poles: f64,
    // sparse shadow phases
    order: f64,
    symbolic: f64,
    numeric: f64,
    l_nnz: Vec<f64>,
    order_by_n: Vec<(f64, f64)>,
    // counts
    attempts: usize,
    failed: usize,
    dense: usize,
    wasted: f64,
    useful: usize,
    deflations: usize,
    plan_fallbacks: usize,
    points: usize,
    shadow_mismatch: usize,
    run_checkouts: usize,
    run_reuses: usize,
    /// The mirrored registry held the model.
    registry_hit: bool,
}

impl Layers {
    /// Time already attributed inside a core call: its factorizations
    /// and their shadows.
    fn nested(&self) -> f64 {
        self.factor_total + self.submit_shadow
    }

    /// Self time of each layer: every inclusive span minus the spans of
    /// the layers it called.
    fn self_times(&self) -> [f64; 5] {
        let core_in_engine = self.factor_total
            + self.run_new
            + self.lanczos
            + self.multipoint
            + self.lyapunov
            + self.plan_compile
            + self.eval_points_s;
        let sparse = self.factor_sparse;
        let core = core_in_engine - sparse + self.poles;
        let engine = self.session_new + self.adopt + self.reduce + self.eval - core_in_engine;
        let circuit = self.parse + self.canonical + self.reparse + self.assemble;
        let service = self.ingest - self.parse - self.canonical + self.submit
            - self.reparse
            - self.assemble
            - self.session_new
            - self.adopt
            - self.reduce
            - self.eval
            - self.poles;
        [service, circuit, engine, core, sparse]
    }
}

/// One factorization attempt.
struct Attempt {
    factor: Option<Arc<GFactor>>,
    seconds: f64,
}

/// The session's factor cache: LRU over `FactorKey`, failures cached.
struct Factors {
    entries: Vec<(FactorKey, Result<Arc<GFactor>, SympvlError>)>,
}

impl Factors {
    fn get(
        &mut self,
        sys: &MnaSystem,
        target: FactorTarget,
        acc: &mut Layers,
        attempts: &mut Vec<Attempt>,
    ) -> Result<Arc<GFactor>, SympvlError> {
        let key = FactorKey::of(target);
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
            return self.entries.last().expect("just pushed").1.clone();
        }
        let result = traced_factor(sys, target, acc, attempts);
        if self.entries.len() >= MAX_CACHED_FACTORS {
            drop(self.entries.remove(0));
        }
        self.entries.push((key, result.clone()));
        result
    }
}

/// `factor_target`, timed, plus the shadow split of its sparse phases.
fn traced_factor(
    sys: &MnaSystem,
    target: FactorTarget,
    acc: &mut Layers,
    attempts: &mut Vec<Attempt>,
) -> Result<Arc<GFactor>, SympvlError> {
    let (result, seconds) = secs(|| factor_target(sys, target));
    acc.attempts += 1;
    acc.factor_total += seconds;
    if result.is_err() {
        acc.failed += 1;
    }
    attempts.push(Attempt {
        factor: result.as_ref().ok().cloned(),
        seconds,
    });

    let t_shadow = Instant::now();
    let a = match target {
        FactorTarget::Unshifted => sys.g.clone(),
        FactorTarget::Shifted(s0) => sys.g.add_scaled(1.0, &sys.c, s0),
    };
    let (perm, t_order) = secs(|| compute_ordering(&a.adjacency(), Ordering::MinDegree));
    let (sym, t_sym) = secs(|| SymbolicLdlt::analyze_with_perm(&a, perm));
    let (num, t_num) = match sym {
        Ok(sym) => secs(|| {
            let mut num = NumericLdlt::new(Arc::new(sym));
            num.refactor_with_threads(&a, mpvl_par::thread_count())
                .map(|()| num)
        }),
        Err(e) => (Err(e), 0.0),
    };
    let sparse = t_order + t_sym + t_num;
    acc.order += t_order;
    acc.symbolic += t_sym;
    acc.numeric += t_num;
    acc.order_by_n.push((sys.dim() as f64, t_order));
    acc.factor_sparse += sparse.min(seconds);
    match (&result, &num) {
        (Ok(f), Ok(num)) => match &**f {
            GFactor::Sparse { fac, .. } => {
                acc.l_nnz.push(fac.l_nnz() as f64);
                let same = fac.l_nnz() == num.symbolic().l_nnz()
                    && fac
                        .d()
                        .iter()
                        .zip(num.d())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                if !same {
                    acc.shadow_mismatch += 1;
                }
            }
            GFactor::Dense(_) => acc.shadow_mismatch += 1,
        },
        // The sparse factorization broke down, so `GFactor::factor`
        // fell back to dense Bunch–Kaufman (successfully or not).
        (Ok(f), Err(_)) if matches!(**f, GFactor::Dense(_)) => acc.dense += 1,
        (Err(_), Err(_)) => acc.dense += 1,
        _ => acc.shadow_mismatch += 1,
    }
    let shadow = t_shadow.elapsed().as_secs_f64();
    acc.shadow += shadow;
    acc.submit_shadow += shadow;
    result
}

/// Run-pool key: everything of `SympvlOptions` a run depends on.
#[derive(Clone, Copy, PartialEq)]
struct RunKey([u64; 6]);

impl RunKey {
    fn of(o: &SympvlOptions) -> RunKey {
        let shift = match o.shift {
            Shift::None => u64::MAX,
            Shift::Auto => u64::MAX - 1,
            Shift::Value(s) => s.to_bits(),
        };
        let l = &o.lanczos;
        RunKey([
            shift,
            o.auto_rtol.to_bits(),
            l.dtol.to_bits(),
            l.cluster_tol.to_bits(),
            u64::from(l.full_reorth),
            l.max_cluster as u64,
        ])
    }
}

/// One mirrored session: the system plus the engine's caches.
struct Session {
    sys: MnaSystem,
    factors: Factors,
    runs: Vec<(RunKey, SympvlRun)>,
}

/// Checks a run out of the pool or builds one through the traced
/// factor cache; marks the attempt that produced the accepted factor
/// useful and every other attempt of this build wasted.
fn checkout(
    sys: &MnaSystem,
    factors: &mut Factors,
    runs: &mut Vec<(RunKey, SympvlRun)>,
    opts: &SympvlOptions,
    acc: &mut Layers,
) -> Result<SympvlRun, SympvlError> {
    let key = RunKey::of(opts);
    acc.run_checkouts += 1;
    if let Some(pos) = runs.iter().position(|(k, _)| *k == key) {
        acc.run_reuses += 1;
        return Ok(runs.remove(pos).1);
    }
    let mut attempts = Vec::new();
    let before = acc.nested();
    let (run, seconds) = secs(|| {
        SympvlRun::new_via(sys, opts, &mut |sys, target| {
            factors.get(sys, target, acc, &mut attempts)
        })
    });
    acc.run_new += seconds - (acc.nested() - before);
    for a in &attempts {
        let accepted = match (&run, &a.factor) {
            (Ok(run), Some(f)) => Arc::ptr_eq(run.factor(), f),
            _ => false,
        };
        if accepted {
            acc.useful += 1;
        } else {
            acc.wasted += a.seconds;
        }
    }
    run
}

fn checkin(runs: &mut Vec<(RunKey, SympvlRun)>, opts: &SympvlOptions, run: SympvlRun) {
    let key = RunKey::of(opts);
    if let Some(pos) = runs.iter().position(|(k, _)| *k == key) {
        if runs[pos].1.reached_order() >= run.reached_order() {
            return;
        }
        runs.remove(pos);
    }
    if runs.len() >= MAX_RETAINED_RUNS {
        runs.remove(0);
    }
    runs.push((key, run));
}

/// Routes the multi-point reduction's per-point runs through the session.
struct SessionRuns<'a> {
    factors: &'a mut Factors,
    runs: &'a mut Vec<(RunKey, SympvlRun)>,
    acc: &'a mut Layers,
}

impl RunProvider for SessionRuns<'_> {
    fn checkout(
        &mut self,
        sys: &MnaSystem,
        opts: &SympvlOptions,
    ) -> Result<SympvlRun, SympvlError> {
        checkout(sys, self.factors, self.runs, opts, self.acc)
    }

    fn checkin(&mut self, opts: &SympvlOptions, run: SympvlRun) {
        checkin(self.runs, opts, run);
    }
}

impl Session {
    /// The engine's `reduce` for one spec (by-products are the
    /// service's business, as in `ServiceRequest::engine_spec`).
    fn reduce(&mut self, spec: &ReduceSpec, acc: &mut Layers) -> Result<ReducedModel, SympvlError> {
        let Session { sys, factors, runs } = self;
        match &spec.backend {
            Backend::Pade(pade) => {
                let mut run = checkout(sys, factors, runs, &pade.sympvl, acc)?;
                let (model, seconds) = secs(|| match &pade.order {
                    OrderSpec::Fixed(order) => run.model_at(sys, *order),
                    OrderSpec::Adaptive(adaptive) => {
                        let mut opts = adaptive.clone();
                        opts.sympvl = pade.sympvl.clone();
                        reduce_adaptive_with(sys, &opts, &mut run).map(|out| out.model)
                    }
                });
                acc.lanczos += seconds;
                checkin(runs, &pade.sympvl, run);
                model
            }
            Backend::MultiPoint(opts) => {
                let before = acc.nested() + acc.run_new;
                let (out, seconds) = secs(|| {
                    let mut provider = SessionRuns {
                        factors,
                        runs,
                        acc: &mut *acc,
                    };
                    reduce_multipoint_with(sys, opts, &mut provider)
                });
                acc.multipoint += seconds - (acc.nested() + acc.run_new - before);
                out.map(|o| o.model)
            }
            Backend::BalancedTruncation(opts) => {
                let before = acc.nested();
                let mut attempts = Vec::new();
                let (out, seconds) = secs(|| {
                    reduce_balanced_via(sys, opts, &mut |sys, target| {
                        factors.get(sys, target, acc, &mut attempts)
                    })
                });
                acc.lyapunov += seconds - (acc.nested() - before);
                for a in &attempts {
                    if a.factor.is_some() {
                        acc.useful += 1;
                    } else {
                        acc.wasted += a.seconds;
                    }
                }
                out.map(|o| o.model)
            }
        }
    }

    /// The engine's `eval`: compile the plan, then evaluate the points
    /// in contiguous chunks across `MPVL_THREADS` workers.
    fn eval(
        model: &ReducedModel,
        freqs: &[f64],
        acc: &mut Layers,
    ) -> Result<Vec<Mat<Complex64>>, SympvlError> {
        let (plan, seconds) = secs(|| EvalPlan::compile(model));
        acc.plan_compile += seconds;
        if plan.fallback_reason().is_some() {
            acc.plan_fallbacks += 1;
        }
        let s: Vec<Complex64> = freqs
            .iter()
            .map(|f| Complex64::new(0.0, 2.0 * std::f64::consts::PI * f))
            .collect();
        let p = plan.ports();
        let mut outs: Vec<Mat<Complex64>> = s.iter().map(|_| Mat::zeros(p, p)).collect();
        let first_err = std::sync::Mutex::new(None);
        let ((), seconds) = secs(|| {
            mpvl_par::parallel_for_chunks_with_init(
                mpvl_par::thread_count(),
                &mut outs,
                |_| plan.workspace(),
                |ws, offset, chunk| {
                    if let Err(e) = plan.eval_many_into(ws, &s[offset..offset + chunk.len()], chunk)
                    {
                        first_err.lock().expect("error slot").get_or_insert(e);
                    }
                },
            )
        });
        acc.eval_points_s += seconds;
        acc.points += freqs.len();
        match first_err.into_inner().expect("error slot") {
            Some(e) => Err(e),
            None => Ok(outs),
        }
    }
}

/// The service's request path, mirrored with its default bounds.
struct Mirror {
    shards: Vec<(String, Session)>,
    registry: Vec<(String, Arc<ReducedModel>)>,
    max_sessions: usize,
    registry_capacity: usize,
}

/// What the replay returned for one request, for the fidelity check.
struct Replayed {
    model_fp: u64,
    sweep_fp: u64,
}

impl Mirror {
    fn new() -> Mirror {
        let opts = ServiceOptions::default();
        Mirror {
            shards: Vec::new(),
            registry: Vec::new(),
            max_sessions: opts.max_sessions,
            registry_capacity: opts.registry_capacity,
        }
    }

    fn request(&mut self, job: &Job, acc: &mut Layers) -> Result<Replayed, String> {
        let t0 = Instant::now();
        let (req, seconds) = secs(|| request(job));
        acc.ingest = seconds;
        // Shadow: split `from_spec` into its parse and canonical write.
        let t_shadow = Instant::now();
        let (parsed, parse) = secs(|| parse_spice(&job.text));
        if let Ok((ckt, _)) = parsed {
            let (_, canonical) = secs(|| to_spice(&ckt));
            acc.parse = parse.min(acc.ingest);
            acc.canonical = canonical.min(acc.ingest - acc.parse);
        }
        acc.shadow += t_shadow.elapsed().as_secs_f64();
        let req = req.map_err(|e| e.to_string())?;
        let t_submit = Instant::now();
        let result = self.submit(&req, job, acc);
        // Factor shadows ran inside both of these spans.
        acc.submit = t_submit.elapsed().as_secs_f64() - acc.submit_shadow;
        acc.reduce -= acc.submit_shadow;
        acc.wall = t0.elapsed().as_secs_f64() - acc.shadow;
        result
    }

    fn submit(
        &mut self,
        req: &mpvl_service::ServiceRequest,
        job: &Job,
        acc: &mut Layers,
    ) -> Result<Replayed, String> {
        let shard = req.shard_key().to_string();
        let session = match self.shards.iter().position(|(k, _)| *k == shard) {
            Some(pos) => {
                let entry = self.shards.remove(pos);
                self.shards.push(entry);
                &mut self.shards.last_mut().expect("just pushed").1
            }
            None => {
                let (parsed, reparse) = secs(|| parse_spice(req.canonical_netlist()));
                acc.reparse += reparse;
                let (ckt, _) = parsed.map_err(|e| e.to_string())?;
                let (sys, assemble) = secs(|| MnaSystem::assemble(&ckt));
                acc.assemble += assemble;
                let sys = sys.map_err(|e| e.to_string())?;
                acc.unknowns.push(sys.dim() as f64);
                let (session, seconds) = secs(|| Session {
                    sys,
                    factors: Factors {
                        entries: Vec::new(),
                    },
                    runs: Vec::new(),
                });
                acc.session_new += seconds;
                if self.shards.len() >= self.max_sessions {
                    self.shards.remove(0);
                }
                self.shards.push((shard, session));
                &mut self.shards.last_mut().expect("just pushed").1
            }
        };
        let key = req.registry_key().to_string();
        let model = match self.registry.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                let entry = self.registry.remove(pos);
                self.registry.push(entry);
                let cached = self.registry.last().expect("just pushed").1.clone();
                acc.registry_hit = true;
                // The engine adopts a copy of the model under a new id.
                let (model, seconds) = secs(|| (*cached).clone());
                acc.adopt += seconds;
                model
            }
            None => {
                let t = Instant::now();
                let model = session.reduce(&job.spec, acc);
                acc.reduce += t.elapsed().as_secs_f64();
                let model = model.map_err(|e| e.to_string())?;
                acc.deflations += model.deflation_count();
                if self.registry.len() >= self.registry_capacity {
                    self.registry.remove(0);
                }
                self.registry.push((key, Arc::new(model.clone())));
                model
            }
        };
        if job.spec.want.poles {
            let (poles, seconds) = secs(|| model.poles());
            acc.poles += seconds;
            poles.map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let sweep = Session::eval(&model, &job.freqs, acc);
        acc.eval += t.elapsed().as_secs_f64();
        let sweep = sweep.map_err(|e| e.to_string())?;
        Ok(Replayed {
            model_fp: model_fp(&model),
            sweep_fp: sweep_fp(job.freqs.iter().copied().zip(&sweep)),
        })
    }
}

/// Least-squares slope of `ln t` against `ln n`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(n, t)| *n > 0.0 && *t > 0.0)
        .map(|(n, t)| (n.ln(), t.ln()))
        .collect();
    let k = pts.len() as f64;
    let (sx, sy) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / k, sy / k);
    let (sxy, sxx) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    sxy / sxx
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Per-class medians of the stream requests, misses and hits apart,
/// next to the untraced latency of the same class.
fn print_breakdown(records: &[Record], per_request: &[(Layers, bool, String)]) {
    let mut untraced_by: BTreeMap<(&str, bool), Vec<f64>> = BTreeMap::new();
    for r in records {
        if let (Slot::Stream(_), Ok(reply)) = (r.slot, &r.reply) {
            untraced_by
                .entry((&r.label, reply.registry_hit))
                .or_default()
                .push(r.seconds * 1e3);
        }
    }
    let mut classes: BTreeMap<(&str, bool), Vec<&Layers>> = BTreeMap::new();
    for (acc, timed, label) in per_request {
        if *timed {
            classes
                .entry((label, acc.registry_hit))
                .or_default()
                .push(acc);
        }
    }
    println!(
        "trace: per-class medians (ms): untraced | traced wall | ingest parse canonical | reparse assemble \
         | order symbolic numeric | factor wasted | lanczos/mp/bt | plan eval | attempts dense"
    );
    for ((label, hit), accs) in &classes {
        let med =
            |f: &dyn Fn(&Layers) -> f64| median(&accs.iter().map(|a| f(a)).collect::<Vec<_>>());
        let ms = |f: &dyn Fn(&Layers) -> f64| 1e3 * med(f);
        let untraced = untraced_by
            .get(&(*label, *hit))
            .map_or(f64::NAN, |v| median(v));
        println!(
            "trace: {label:<24} {:<4} n={:<4} {untraced:>9.3} | {:>9.3} | {:.3} {:.3} {:.3} | {:.3} {:.3} \
             | {:.3} {:.3} {:.3} | {:.3} {:.3} | {:.3} | {:.3} {:.3} | {} {}",
            if *hit { "hit" } else { "miss" },
            accs.len(),
            ms(&|a| a.wall),
            ms(&|a| a.ingest),
            ms(&|a| a.parse),
            ms(&|a| a.canonical),
            ms(&|a| a.reparse),
            ms(&|a| a.assemble),
            ms(&|a| a.order),
            ms(&|a| a.symbolic),
            ms(&|a| a.numeric),
            ms(&|a| a.factor_total),
            ms(&|a| a.wasted),
            ms(&|a| a.lanczos + a.multipoint + a.lyapunov),
            ms(&|a| a.plan_compile),
            ms(&|a| a.eval_points_s),
            med(&|a| a.attempts as f64),
            med(&|a| a.dense as f64),
        );
    }
}

/// The traced run.
pub fn traced(stream: &Stream, budget: Duration) -> Outcome {
    // 1. The service run the replay must reproduce: half the budget for
    //    one client, less for more, since the replay runs one client.
    let (service, _, mut records) = set_up(stream);
    let share = 2 * stream.kind.clients() as u32;
    let (stream_records, phase_wall) = run_stream(&service, stream, budget / share);
    records.extend(stream_records);
    let registry = service.stats();
    // The factor-cache counters of the sessions still live: those of the
    // most recent distinct netlists, up to the session bound.
    let mut seen = Vec::new();
    let mut cache = (0u64, 0u64);
    for rec in records.iter().rev() {
        let job = stream.job_at(rec.slot);
        if seen.len() == ServiceOptions::default().max_sessions
            || seen.contains(&(job.shape, job.text_seed))
        {
            continue;
        }
        seen.push((job.shape, job.text_seed));
        let session = request(&job).ok().and_then(|req| service.session_of(&req));
        if let Some(session) = session {
            let stats = session.cache_stats();
            cache = (cache.0 + stats.factor_hits, cache.1 + stats.factor_misses);
        }
    }
    drop(service);

    // 2. The replay.
    let mut mirror = Mirror::new();
    let mut per_request: Vec<(Layers, bool, String)> = Vec::with_capacity(records.len());
    let mut mismatches = Vec::new();
    for rec in &records {
        let job = stream.job_at(rec.slot);
        let mut acc = Layers::default();
        let replayed = mirror.request(&job, &mut acc);
        let same = match (&replayed, &rec.reply) {
            (Ok(r), Ok(reply)) => {
                r.model_fp == model_fp(&reply.model) && r.sweep_fp == reply.sweep_fp
            }
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !same {
            mismatches.push(format!("{:?} {}", rec.slot, rec.label));
        }
        let timed = matches!(rec.slot, Slot::Stream(_));
        per_request.push((acc, timed, rec.label.clone()));
    }

    // 3. The gate, on the service's own outputs.
    let verdict = check::check(stream, &records);
    let shadow_mismatch: usize = per_request.iter().map(|(a, _, _)| a.shadow_mismatch).sum();
    for m in mismatches.iter().take(10) {
        println!("trace: FAIL replay differs from the service at {m}");
    }
    if shadow_mismatch > 0 {
        println!("trace: FAIL {shadow_mismatch} shadow factorizations differ from factor_target");
    }
    verdict.report();
    let correct = verdict.failures.is_empty() && mismatches.is_empty() && shadow_mismatch == 0;

    print_breakdown(&records, &per_request);

    // 5. Metrics: per request over the whole replay (set-up included,
    //    so every layer a workload reaches reports a time); shares and
    //    overhead over the stream.
    let all: Vec<&Layers> = per_request.iter().map(|(a, _, _)| a).collect();
    let stream_accs: Vec<&Layers> = per_request
        .iter()
        .filter(|(_, t, _)| *t)
        .map(|(a, _, _)| a)
        .collect();
    let n = all.len() as f64;
    let per_req = |f: &dyn Fn(&Layers) -> f64| all.iter().map(|a| f(a)).sum::<f64>() / n;
    let ms_per_req = |f: &dyn Fn(&Layers) -> f64| 1e3 * per_req(f);
    let flat = |f: &dyn Fn(&Layers) -> &Vec<f64>| {
        all.iter()
            .flat_map(|a| f(a).iter().copied())
            .collect::<Vec<f64>>()
    };
    let order_by_n: Vec<(f64, f64)> = all
        .iter()
        .flat_map(|a| a.order_by_n.iter().copied())
        .collect();
    let attempts = per_req(&|a| a.attempts as f64);
    let useful = per_req(&|a| a.useful as f64);

    let stream_wall: f64 = stream_accs.iter().map(|a| a.wall).sum();
    // Trace overhead: untraced over traced throughput on the same
    // requests. The untraced throughput is the end-to-end one (a single
    // client's own latencies, or the phase wall time for two clients);
    // the replay is one client, shadows included.
    let untraced_secs = if stream.kind.clients() == 1 {
        records
            .iter()
            .filter(|r| matches!(r.slot, Slot::Stream(_)))
            .map(|r| r.seconds)
            .sum()
    } else {
        phase_wall
    };
    let traced_secs: f64 = stream_accs.iter().map(|a| a.wall + a.shadow).sum();
    let mut m = Metrics::default();
    m.push("service.ingest_ms", ms_per_req(&|a| a.ingest), "ms");
    m.push("service.submit_ms", ms_per_req(&|a| a.submit), "ms");
    m.push(
        "service.registry_hit_ratio",
        registry.registry_hits as f64 / (registry.registry_hits + registry.registry_misses) as f64,
        "ratio",
    );
    m.push("circuit.parse_ms", ms_per_req(&|a| a.parse), "ms");
    m.push("circuit.canonical_ms", ms_per_req(&|a| a.canonical), "ms");
    m.push("circuit.reparse_ms", ms_per_req(&|a| a.reparse), "ms");
    m.push("circuit.assemble_ms", ms_per_req(&|a| a.assemble), "ms");
    m.push("circuit.unknowns", mean(&flat(&|a| &a.unknowns)), "count");
    m.push("sparse.order_ms", ms_per_req(&|a| a.order), "ms");
    m.push("sparse.symbolic_ms", ms_per_req(&|a| a.symbolic), "ms");
    m.push("sparse.numeric_ms", ms_per_req(&|a| a.numeric), "ms");
    m.push("sparse.l_nnz", mean(&flat(&|a| &a.l_nnz)), "count");
    m.push("sparse.order_exponent", loglog_slope(&order_by_n), "ratio");
    m.push("core.factor_attempts", attempts, "count/req");
    m.push(
        "core.factor_failed",
        per_req(&|a| a.failed as f64),
        "count/req",
    );
    m.push(
        "core.dense_fallbacks",
        per_req(&|a| a.dense as f64),
        "count/req",
    );
    m.push("core.factor_wasted_ms", ms_per_req(&|a| a.wasted), "ms");
    m.push("core.factor_useful_ratio", useful / attempts, "ratio");
    m.push("core.lanczos_ms", ms_per_req(&|a| a.lanczos), "ms");
    m.push(
        "core.deflations",
        per_req(&|a| a.deflations as f64),
        "count/req",
    );
    m.push("core.multipoint_ms", ms_per_req(&|a| a.multipoint), "ms");
    m.push("core.lyapunov_ms", ms_per_req(&|a| a.lyapunov), "ms");
    m.push(
        "core.plan_compile_ms",
        ms_per_req(&|a| a.plan_compile),
        "ms",
    );
    m.push(
        "core.plan_fallbacks",
        per_req(&|a| a.plan_fallbacks as f64),
        "count/req",
    );
    m.push("core.eval_ms", ms_per_req(&|a| a.eval_points_s), "ms");
    m.push(
        "core.eval_points",
        per_req(&|a| a.points as f64),
        "count/req",
    );
    m.push("engine.reduce_ms", ms_per_req(&|a| a.reduce), "ms");
    m.push("engine.eval_ms", ms_per_req(&|a| a.eval), "ms");
    m.push(
        "engine.factor_cache_hit_ratio",
        cache.0 as f64 / (cache.0 + cache.1).max(1) as f64,
        "ratio",
    );
    m.push(
        "engine.run_reuse_ratio",
        per_req(&|a| a.run_reuses as f64) / per_req(&|a| a.run_checkouts as f64),
        "ratio",
    );
    let mut covered = 0.0;
    for (k, layer) in LAYERS.iter().enumerate() {
        let total: f64 = stream_accs.iter().map(|a| a.self_times()[k]).sum();
        covered += total;
        m.push(&format!("{layer}.share"), total / stream_wall, "ratio");
    }
    m.push("unattributed_share", 1.0 - covered / stream_wall, "ratio");
    m.push("trace.overhead_ratio", traced_secs / untraced_secs, "ratio");
    m.push("trace.replay_mismatches", mismatches.len() as f64, "count");
    Outcome {
        correct,
        attempted: records.len(),
        failed: verdict.failed_requests,
        metrics: m,
    }
}
