//! End-to-end and per-layer benchmark of the hyperspace solver stack and
//! the solver service. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload queens_seq --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calibrate;
mod layers;
mod queens;
mod service_mix;

use std::process::ExitCode;
use std::time::Duration;

use hyperspace_metrics::Stats;

/// End-to-end metrics, `(name, unit)`: an untraced run prints each one.
const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`: a traced run prints each one, with
/// 0 for a layer its workload does not reach (see README.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.self_s", "s"),
    ("sim.steps", "count"),
    ("sim.delivered", "count"),
    ("sim.ns_per_delivery", "ns"),
    ("sim.barrier_wait_s", "s"),
    ("sim.exchange_s", "s"),
    ("mapping.self_s", "s"),
    ("mapping.ns_per_msg", "ns"),
    ("mapping.choose_calls", "count"),
    ("mapping.choose_s", "s"),
    ("recursion.self_s", "s"),
    ("recursion.activations", "count"),
    ("recursion.ns_per_activation", "ns"),
    ("apps.self_s", "s"),
    ("apps.calls", "count"),
    ("apps.local_s", "s"),
    ("stack.overhead_x", "x"),
    ("service.queue_wait_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_hits", "count"),
    ("service.sat_ms", "ms"),
    ("service.queens_ms", "ms"),
    ("service.bnb_ms", "ms"),
    ("service.durable_ms", "ms"),
    ("service.hit_ms", "ms"),
    ("store.persisted", "count"),
    ("store.persist_ms", "ms"),
    ("trace.solve_s", "s"),
    ("trace.overhead_x", "x"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run_for: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run_for: Duration::from_secs(seconds.ok_or("--seconds is required")?.max(1)),
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Results attempted (solves or jobs).
    pub attempted: u64,
    /// Results that failed, timed out or were wrong.
    pub failed: u64,
    /// Run-level checks (determinism, equal reports) that failed.
    pub broken: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and other provenance, as `(key, value)`.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// Records a run-level check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.broken.push(what);
        }
    }

    /// Counts one attempted result, failed unless `ok`.
    pub fn result(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("wrong result: {}", what());
        }
    }
}

/// Median of `xs` (the lower middle one for an even count).
pub fn median(xs: &[f64]) -> f64 {
    Stats::from_slice(xs).median
}

/// Mean of `xs` without its lowest and highest tenth.
///
/// `setup_s` uses it. A set-up takes tens of microseconds, and on a
/// shared host such short operations switch between a fast and a slow
/// speed every few seconds. The median of many samples then jumps
/// between the two, while this mean averages them over the run, as a
/// multi-second solve does, and still ignores the odd stall.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    Stats::from_slice(&v[cut..v.len() - cut]).mean
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend
/// on nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit being measured, as `git rev-parse HEAD` reports it, or
/// `unknown` where that fails.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |c| c.trim().to_string())
}

/// The run's metrics in the order of the published list. Every measured
/// metric must be on the list; an end-to-end metric may not be missing,
/// and a per-layer one that is missing reads 0 (the workload does not
/// reach that layer).
fn complete(
    measured: &[(&'static str, f64, &'static str)],
    trace: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    for (name, _, unit) in measured {
        assert!(
            list.contains(&(*name, *unit)),
            "metric {name} ({unit}) is not on the published list"
        );
    }
    list.iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|m| m.0 == name).map(|m| m.1);
            assert!(
                trace || value.is_some(),
                "end-to-end metric {name} was not measured"
            );
            (name, value.unwrap_or(0.0), unit)
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: stackbench --workload <queens_seq|queens_sharded|service_mix> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "queens_seq" => queens::run(&args, queens::Engine::Sequential),
        "queens_sharded" => queens::run(&args, queens::Engine::Sharded),
        "service_mix" => service_mix::run(&args),
        other => {
            eprintln!("stackbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let metrics = complete(&out.metrics, args.trace);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{:<28} {:>16.6} ({} of {})",
        "failed_share", failed_share, out.failed, out.attempted
    );
    let mut prov = vec![
        ("commit", format!("\"{}\"", json_escape(&commit()))),
        ("nproc", nproc.to_string()),
        ("workload", format!("\"{}\"", json_escape(&args.workload))),
        ("seed", args.seed.to_string()),
        ("seconds", args.run_for.as_secs().to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    prov.extend(out.provenance.iter().map(|(k, v)| (*k, v.clone())));
    let prov: Vec<String> = prov.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("provenance {{{}}}", prov.join(", "));

    let correct = out.failed == 0 && out.broken.is_empty();
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = hyperspace_obs::JsonValue::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(hyperspace_obs::JsonValue::Array(entries)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let field = |e: &hyperspace_obs::JsonValue, f: &str| match e.get(f) {
                Some(hyperspace_obs::JsonValue::Str(s)) => s.clone(),
                other => panic!("{key} entry without a string {f}: {other:?}"),
            };
            let published: Vec<(String, String)> = entries
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect();
            let printed: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(published, printed, "{key} differs from BENCHMARK.json");
        }
    }
}
