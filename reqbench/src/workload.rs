//! The three workloads: which requests are sent, in which order.
//!
//! A workload is a deterministic function of its seed. Cold workloads
//! are cycles over their circuit classes, every request a never-seen
//! netlist with seeded element values; `warm_mixed` is a seeded stream
//! of resubmissions and live-session misses over a fixed catalog of
//! netlists primed during set-up.

use crate::netlists::{write_spice, Shape};
use crate::run::Slot;
use mpvl_engine::{ReduceSpec, Want};
use mpvl_sim::{lin_space, log_space};
use mpvl_testkit::SmallRng;
use std::sync::{Arc, Mutex};
use sympvl::{AdaptiveOptions, BtOptions, MultiPointOptions, Shift};

/// Relative spread of the element-value jitter applied to every request.
const JITTER: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperCold,
    ScaleCold,
    WarmMixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper_cold" => Some(Kind::PaperCold),
            "scale_cold" => Some(Kind::ScaleCold),
            "warm_mixed" => Some(Kind::WarmMixed),
            _ => None,
        }
    }

    /// Closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Kind::WarmMixed => 2,
            Kind::PaperCold | Kind::ScaleCold => 1,
        }
    }

    /// `MPVL_THREADS` for the service's internal parallelism.
    pub fn threads(self) -> usize {
        match self {
            Kind::WarmMixed => 1,
            Kind::PaperCold | Kind::ScaleCold => 2,
        }
    }

    /// `true` when every request is a never-seen netlist, followed by
    /// one resubmission of the same text that hits the registry.
    pub fn is_cold(self) -> bool {
        self != Kind::WarmMixed
    }
}

/// The reduction backend a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Pade,
    Adaptive,
    MultiPoint,
    Balanced,
}

impl Job {
    /// Class and method, as the report names them.
    pub fn label(&self) -> String {
        let suffix = match self.method {
            Method::Pade => "",
            Method::Adaptive => "/adaptive",
            Method::MultiPoint => "/multipoint",
            Method::Balanced => "/balanced",
        };
        format!("{}{suffix}", self.shape.label())
    }
}

/// One request: the SPICE text and what to do with it.
#[derive(Debug, Clone)]
pub struct Job {
    pub shape: Shape,
    pub method: Method,
    /// Seed the text was written with; with `shape` it names the netlist.
    pub text_seed: u64,
    pub text: Arc<str>,
    pub spec: ReduceSpec,
    pub freqs: Arc<[f64]>,
    /// Sweep indices checked against the exact AC solution.
    pub check: Vec<usize>,
}

/// Order, expansion point and band per class and method, and the
/// accuracy the gate demands inside that band. Orders are the lowest
/// that keep the relative error of the `Shift::Auto` model below the
/// tolerance over the whole band (see NOTES.md for how they were found).
struct ClassSpec {
    order: usize,
    shift: Shift,
    band: (f64, f64),
    linear: bool,
    tol: f64,
}

fn class_spec(shape: Shape, method: Method) -> ClassSpec {
    let auto = |order, band| ClassSpec {
        order,
        shift: Shift::Auto,
        band,
        linear: false,
        tol: 1e-3,
    };
    let c = match shape {
        Shape::Package => auto(48, (1e6, 5e8)),
        // Balanced truncation bounds the absolute error, which is small
        // against |Z| only in the low band.
        Shape::Interconnect if method == Method::Balanced => ClassSpec {
            tol: 1e-2,
            ..auto(34, (1e4, 3e6))
        },
        Shape::Interconnect => auto(136, (1e4, 5e9)),
        // The paper expands the PEEC model about 1 GHz (§7.1).
        Shape::Peec => ClassSpec {
            shift: Shift::Value((2.0 * std::f64::consts::PI * 1e9).powi(2)),
            linear: true,
            ..auto(50, (1e8, 3e9))
        },
        Shape::Ladder(n) if n <= 200 => auto(12, (1e4, 5e7)),
        Shape::Ladder(_) => auto(24, (1e8, 1e10)),
        Shape::HTree(d) if d <= 6 => auto(20, (1e5, 5e8)),
        Shape::HTree(_) => auto(30, (1e5, 5e8)),
        Shape::Mesh(_) => auto(16, (1e6, 1e10)),
    };
    match method {
        // Balanced truncation on the small warm-up ladder, and adaptive
        // requests, which stop at their own error estimate.
        Method::Balanced | Method::Adaptive => ClassSpec { tol: 1e-2, ..c },
        Method::Pade | Method::MultiPoint => c,
    }
}

/// Largest relative error `‖Z − Z_exact‖_F / ‖Z_exact‖_F` the gate
/// accepts at a checked point of this class and method.
pub fn tolerance(shape: Shape, method: Method) -> f64 {
    class_spec(shape, method).tol
}

fn sweep(shape: Shape, method: Method, points: usize) -> Vec<f64> {
    let c = class_spec(shape, method);
    if c.linear {
        lin_space(c.band.0, c.band.1, points)
    } else {
        log_space(c.band.0, c.band.1, points)
    }
}

fn spec_for(shape: Shape, method: Method, rng: &mut SmallRng) -> ReduceSpec {
    let c = class_spec(shape, method);
    let (lo, hi) = c.band;
    let spec = match method {
        Method::Pade => ReduceSpec::pade_fixed(c.order).expect("positive order"),
        Method::Adaptive => {
            // A tolerance no earlier request used, so the registry misses.
            let tol = 10f64.powf(-3.0 - 2.0 * rng.unit_f64());
            let opts = AdaptiveOptions::for_band(lo, hi)
                .and_then(|o| o.with_tol(tol))
                .and_then(|o| o.with_initial_order(c.order / 2))
                .and_then(|o| o.with_order_step((c.order / 4).max(1)))
                .and_then(|o| o.with_max_order(2 * c.order))
                .expect("valid adaptive options");
            ReduceSpec::pade_adaptive(opts)
        }
        Method::MultiPoint => ReduceSpec::multipoint(
            MultiPointOptions::for_band(lo, hi)
                .and_then(|o| o.with_total_order(c.order))
                .expect("valid multi-point options"),
        ),
        Method::Balanced => ReduceSpec::balanced(
            BtOptions::for_band(lo, hi)
                .and_then(|o| o.with_order(c.order))
                .expect("valid balanced-truncation options"),
        ),
    };
    match method {
        Method::Pade | Method::Adaptive => spec.with_shift(c.shift).expect("finite shift"),
        Method::MultiPoint | Method::Balanced => spec,
    }
}

/// An independent seed for item `b` of stream `a` under `seed`.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64() ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// Both band edges, where reduced models are least accurate, plus `k`
/// seeded interior points.
fn pick_checks(rng: &mut SmallRng, len: usize, k: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..k).map(|_| rng.gen_range(0..len)).collect();
    v.extend([0, len - 1]);
    v.sort_unstable();
    v.dedup();
    v
}

fn make_job(
    shape: Shape,
    method: Method,
    text_seed: u64,
    points: usize,
    rng: &mut SmallRng,
) -> Job {
    let text = write_spice(
        &shape.circuit(),
        &mut SmallRng::seed_from_u64(text_seed),
        JITTER,
    );
    let freqs: Arc<[f64]> = sweep(shape, method, points).into();
    Job {
        shape,
        method,
        text_seed,
        text: text.into(),
        spec: spec_for(shape, method, rng),
        check: pick_checks(rng, freqs.len(), 1),
        freqs,
    }
}

const PAPER_CLASSES: [Shape; 5] = [
    Shape::Package,
    Shape::Interconnect,
    Shape::Peec,
    Shape::Ladder(200),
    Shape::HTree(6),
];

const SCALE_CLASSES: [Shape; 5] = [
    Shape::Mesh(50),
    Shape::Mesh(100),
    Shape::Ladder(2500),
    Shape::Ladder(5000),
    Shape::HTree(8),
];

/// The requests `warm_mixed` primes in set-up and then resubmits.
const WARM_PRIMED: [(Shape, Method); 6] = [
    (Shape::Package, Method::Pade),
    (Shape::Interconnect, Method::Pade),
    (Shape::Peec, Method::Pade),
    (Shape::Mesh(50), Method::Pade),
    (Shape::Package, Method::MultiPoint),
    (Shape::Interconnect, Method::Balanced),
];

/// One request of the `warm_mixed` deck: a resubmission of primed
/// request `k`, or a miss of the given kind on primed Padé netlist `k`.
#[derive(Debug, Clone, Copy)]
enum Card {
    Hit(usize),
    Miss(usize, Method),
}

/// The `warm_mixed` mix, dealt in seeded shuffles so every 40 requests
/// hold exactly these: 80 % hits, weighted so the median request falls
/// inside one latency cluster (the interconnect hits) rather than on the
/// edge between two; 20 % misses, mostly interconnect orders, so the
/// median miss sits inside the interconnect fixed-order cluster.
#[rustfmt::skip]
const WARM_DECK: [Card; 40] = {
    use Card::{Hit, Miss};
    use Method::{Adaptive as A, Pade as F};
    [
        Hit(0), Hit(0),
        Hit(1), Hit(1), Hit(1), Hit(1), Hit(1), Hit(1), Hit(1),
        Hit(1), Hit(1), Hit(1), Hit(1), Hit(1), Hit(1), Hit(1),
        Hit(2), Hit(2), Hit(2), Hit(2), Hit(2),
        Hit(3), Hit(3), Hit(3), Hit(3), Hit(3),
        Hit(4), Hit(4),
        Hit(5), Hit(5), Hit(5), Hit(5),
        Miss(0, F),
        Miss(1, F), Miss(1, F), Miss(1, F), Miss(1, A), Miss(1, A),
        Miss(2, F),
        Miss(3, A),
    ]
};

/// Sweep points per request.
fn points(kind: Kind) -> usize {
    match kind {
        Kind::PaperCold => 200,
        Kind::ScaleCold => 50,
        Kind::WarmMixed => 1000,
    }
}

/// A workload's request stream. Cold streams are pure functions of the
/// index; the warm stream is generated in order (it tracks which orders
/// each session has already served) and memoized, so every client and
/// the traced replay see the same request at the same index.
pub struct Stream {
    pub kind: Kind,
    seed: u64,
    warm: Option<Mutex<WarmState>>,
}

struct WarmState {
    rng: SmallRng,
    primed: Vec<Job>,
    /// Fixed orders not yet requested, per primed Padé netlist.
    unused_orders: Vec<Vec<usize>>,
    jobs: Vec<Job>,
    check_pool: Vec<usize>,
    deck: Vec<Card>,
}

impl Stream {
    pub fn new(kind: Kind, seed: u64) -> Stream {
        let warm = (kind == Kind::WarmMixed).then(|| {
            let mut rng = SmallRng::seed_from_u64(mix(seed, 1, 0));
            let primed: Vec<Job> = WARM_PRIMED
                .iter()
                .map(|&(shape, method)| {
                    // One netlist per shape, shared by its Padé and
                    // multi-point/balanced requests. The catalog is the
                    // same for every seed (a server's standing models);
                    // the seed orders the requests and draws the misses.
                    let text_seed = mix(0, 2, shape_code(shape));
                    make_job(shape, method, text_seed, points(kind), &mut rng)
                })
                .collect();
            let unused_orders = primed
                .iter()
                .map(|job| {
                    // Above the primed order, so every miss is at least as
                    // accurate as the model it extends.
                    let base = class_spec(job.shape, job.method).order;
                    let mut orders: Vec<usize> = (base + 1..=base + base / 2).collect();
                    for i in (1..orders.len()).rev() {
                        orders.swap(i, rng.gen_range(0..i + 1));
                    }
                    orders
                })
                .collect();
            let check_pool = pick_checks(&mut rng, points(kind), 12);
            Mutex::new(WarmState {
                deck: Vec::new(),
                check_pool,
                rng,
                primed,
                unused_orders,
                jobs: Vec::new(),
            })
        });
        Stream { kind, seed, warm }
    }

    /// Requests per cycle for cold streams (a run ends on a cycle
    /// boundary); `None` for the warm stream.
    pub fn cycle(&self) -> Option<usize> {
        match self.kind {
            // Four class cycles: one multi-point and one balanced request.
            Kind::PaperCold => Some(4 * PAPER_CLASSES.len()),
            Kind::ScaleCold => Some(SCALE_CLASSES.len()),
            Kind::WarmMixed => None,
        }
    }

    /// Requests sent during set-up, before anything is timed: a warm-up
    /// of every backend on a small circuit outside the stream and, for
    /// `warm_mixed`, the primed netlists. The netlists are the same for
    /// every seed, so set-up does the same work in every run.
    pub fn setup_jobs(&self) -> Vec<Job> {
        let mut rng = SmallRng::seed_from_u64(mix(self.seed, 3, 0));
        let mut jobs: Vec<Job> = [
            (Shape::Ladder(100), Method::Pade),
            (Shape::Ladder(100), Method::MultiPoint),
            (Shape::Ladder(100), Method::Balanced),
            // Enough work that thread start-up does not dominate set-up.
            (Shape::Mesh(50), Method::Pade),
        ]
        .into_iter()
        .map(|(shape, method)| {
            let text_seed = mix(0, 4, shape_code(shape));
            make_job(shape, method, text_seed, points(self.kind), &mut rng)
        })
        .collect();
        if let Some(warm) = &self.warm {
            jobs.extend(warm.lock().expect("stream lock").primed.iter().cloned());
        }
        jobs
    }

    /// The request in `slot`.
    pub fn job_at(&self, slot: Slot) -> Job {
        match slot {
            Slot::Setup(k) => self.setup_jobs().swap_remove(k),
            Slot::Stream(i) => self.job(i),
        }
    }

    /// Request `i` of the stream.
    pub fn job(&self, i: usize) -> Job {
        match &self.warm {
            None => self.cold_job(i),
            Some(warm) => {
                let mut state = warm.lock().expect("stream lock");
                while state.jobs.len() <= i {
                    let next = state.next_warm();
                    state.jobs.push(next);
                }
                state.jobs[i].clone()
            }
        }
    }

    fn cold_job(&self, i: usize) -> Job {
        let classes: &[Shape] = match self.kind {
            Kind::PaperCold => &PAPER_CLASSES,
            _ => &SCALE_CLASSES,
        };
        let n = classes.len();
        // Classes come in a fixed order, so which four sessions are live
        // (and hold their cached factors) at any point is the same for
        // every seed; the seed draws the element values.
        let (cycle, shape) = (i / n, classes[i % n]);
        // About one request in ten: every other paper cycle swaps its
        // package for a multi-point or its interconnect for a balanced
        // truncation request, alternately.
        let method = match (self.kind, cycle % 4, shape) {
            (Kind::PaperCold, 1, Shape::Package) => Method::MultiPoint,
            (Kind::PaperCold, 3, Shape::Interconnect) => Method::Balanced,
            _ => Method::Pade,
        };
        let mut rng = SmallRng::seed_from_u64(mix(self.seed, 6, i as u64));
        make_job(
            shape,
            method,
            mix(self.seed, 7, i as u64),
            points(self.kind),
            &mut rng,
        )
    }
}

/// A distinct number per shape, to derive its catalog seed.
fn shape_code(shape: Shape) -> u64 {
    match shape {
        Shape::Package => 1,
        Shape::Interconnect => 2,
        Shape::Peec => 3,
        Shape::Ladder(n) => 4 + 16 * n as u64,
        Shape::HTree(d) => 5 + 16 * d as u64,
        Shape::Mesh(s) => 6 + 16 * s as u64,
    }
}

impl WarmState {
    /// The next request. Requests come in seeded shuffles of a fixed
    /// deck of 40 (see [`WARM_DECK`]): 32 resubmissions of primed
    /// requests (registry hits) and 8 misses on live sessions — a
    /// fixed order that session has not served yet, or an adaptive
    /// request with a fresh tolerance. Every request asks for the poles
    /// as well.
    fn next_warm(&mut self) -> Job {
        if self.deck.is_empty() {
            self.deck = WARM_DECK.to_vec();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..i + 1));
            }
        }
        let card = self.deck.pop().expect("deck refilled above");
        let mut job = match card {
            Card::Hit(k) => self.primed[k].clone(),
            Card::Miss(k, method) => {
                let base = &self.primed[k];
                let mut job = base.clone();
                let order = match method {
                    Method::Pade => self.unused_orders[k].pop(),
                    _ => None,
                };
                match order {
                    Some(order) => {
                        job.spec = ReduceSpec::pade_fixed(order)
                            .and_then(|s| s.with_shift(class_spec(base.shape, Method::Pade).shift))
                            .expect("valid order");
                    }
                    None => {
                        job.method = Method::Adaptive;
                        job.spec = spec_for(base.shape, Method::Adaptive, &mut self.rng);
                    }
                }
                job
            }
        };
        job.spec = job.spec.with_want(Want::model_only().with_poles());
        // Checked points come from a small per-run pool, so the exact
        // reference is computed once per netlist and point.
        job.check = (0..2)
            .map(|_| self.check_pool[self.rng.gen_range(0..self.check_pool.len())])
            .collect();
        job.check.sort_unstable();
        job.check.dedup();
        job
    }
}
