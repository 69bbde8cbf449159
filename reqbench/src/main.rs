//! reqbench — the repository's end-to-end benchmark.
//!
//! One request is SPICE text in, reduced model and frequency sweep out:
//! `ServiceRequest::from_spec` plus `ReductionService::submit` with an
//! evaluation sweep, timed from the text. See NOTES.md for the
//! workloads, the metrics, and how to read the traced breakdown.
//!
//! ```text
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     --workload paper_cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` replays the same stream through
//! each layer's public functions and reports the per-layer metrics.

mod check;
mod netlists;
mod replay;
mod run;
mod stats;
mod workload;

use run::{run_stream, set_up, Record};
use stats::{median, tail, Metrics};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Kind, Stream};

/// What a run reports on its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (paper_cold, scale_cold, warm_mixed)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reqbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The thread count is read once per process, before any parallel
    // call; the observability sink stays off in every timed run.
    std::env::set_var("MPVL_THREADS", args.kind.threads().to_string());
    std::env::remove_var("MPVL_OBS");
    let stream = Stream::new(args.kind, args.seed);
    println!(
        "reqbench: workload {:?}, seed {}, {} s, trace {}, {} client(s), MPVL_THREADS={}",
        args.kind,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.kind.clients(),
        args.kind.threads()
    );
    let result = if args.trace {
        replay::traced(&stream, Duration::from_secs(args.seconds))
    } else {
        untraced(&stream, Duration::from_secs(args.seconds))
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        result.metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// The end-to-end run: set-up, the timed stream, then the gate.
fn untraced(stream: &Stream, budget: Duration) -> Outcome {
    // `setup_s` is the median of several set-ups; the short cold ones
    // are repeated more.
    let repeats = if stream.kind.is_cold() { 9 } else { 3 };
    let mut setup_times = Vec::with_capacity(repeats);
    let mut primed = None;
    for _ in 0..repeats {
        // Drop the previous service first, so each set-up starts alike.
        drop(primed.take());
        let (service, seconds, records) = set_up(stream);
        setup_times.push(seconds);
        primed = Some((service, records));
    }
    let (service, mut records) = primed.expect("at least one set-up");
    let listed: Vec<String> = setup_times
        .iter()
        .map(|t| format!("{:.1}", t * 1e3))
        .collect();
    println!("setup: {} ms", listed.join(" "));
    println!("memory: peak RSS after set-up {:.1} MiB", peak_rss_mb());
    let (stream_records, wall) = run_stream(&service, stream, budget);
    let peak = peak_rss_mb();
    drop(service);
    records.extend(stream_records);

    let timed: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.slot, run::Slot::Stream(_)))
        .collect();
    let (first, hits, misses): (Vec<f64>, Vec<f64>, Vec<f64>) = if stream.kind.is_cold() {
        let first: Vec<f64> = timed
            .iter()
            .filter(|r| !r.probe)
            .map(|r| r.seconds)
            .collect();
        let hits = timed
            .iter()
            .filter(|r| r.probe)
            .map(|r| r.seconds)
            .collect();
        (first.clone(), hits, first)
    } else {
        let all = timed.iter().map(|r| r.seconds).collect();
        let by_hit = |want: bool| {
            timed
                .iter()
                .filter(|r| r.reply.as_ref().is_ok_and(|rep| rep.registry_hit == want))
                .map(|r| r.seconds)
                .collect::<Vec<f64>>()
        };
        (all, by_hit(true), by_hit(false))
    };
    let throughput = if stream.kind.is_cold() {
        first.len() as f64 / first.iter().sum::<f64>()
    } else {
        first.len() as f64 / wall
    };
    let (tail_ms, tail_pct) = tail(&ms(&first));
    println!(
        "stream: {} requests ({} hits, {} misses) in {:.2} s; tail is p{:.1} of {} requests",
        timed.len(),
        hits.len(),
        misses.len(),
        wall,
        tail_pct,
        first.len()
    );

    let mut by_class: std::collections::BTreeMap<(&str, bool), Vec<f64>> = Default::default();
    for r in &timed {
        let hit = r.reply.as_ref().is_ok_and(|rep| rep.registry_hit);
        by_class
            .entry((&r.label, hit))
            .or_default()
            .push(r.seconds * 1e3);
    }
    for ((label, hit), v) in &by_class {
        let kind = if *hit { "hit" } else { "miss" };
        println!(
            "class: {label:<24} {kind:<4} {:>5} requests, p50 {:>9.3} ms",
            v.len(),
            median(v)
        );
    }

    let verdict = check::check(stream, &records);
    verdict.report();
    let (attempted, failed) = (records.len(), verdict.failed_requests);
    let mut m = Metrics::default();
    m.push("throughput_rps", throughput, "1/s");
    m.push("latency_p50_ms", median(&ms(&first)), "ms");
    m.push("latency_tail_ms", tail_ms, "ms");
    m.push("hit_latency_p50_ms", median(&ms(&hits)), "ms");
    m.push("miss_latency_p50_ms", median(&ms(&misses)), "ms");
    m.push(
        "success_rate",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
    );
    m.push("max_rel_err", verdict.max_rel_err, "ratio");
    m.push("peak_rss_mb", peak, "MiB");
    m.push("setup_s", median(&setup_times), "s");
    Outcome {
        correct: verdict.failures.is_empty(),
        attempted,
        failed,
        metrics: m,
    }
}
