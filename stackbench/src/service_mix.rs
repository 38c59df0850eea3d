//! `service_mix`: a closed loop against `SolverService`.
//!
//! One service (2 workers, a fresh durable store) serves the whole run,
//! as a long-lived service would. The load comes in rounds: 2 client
//! threads each submit a stream of jobs, each submitting its next job
//! only after the previous one returned. A round's stream is a pure
//! function of `(seed, stream number, client)`:
//!
//! * planted 3-SAT, 50 variables, on a 14×14 torus;
//! * `nqueens(9)` from a seeded root node on a 14×14 torus;
//! * branch-and-bound knapsack over 20 items on an 8×8 torus;
//! * `sum` checkpointed every 500 steps, persisted to the store;
//! * about 1 in 5 submissions repeats a spec the same client already
//!   received a result for, so it must be served from the cache.
//!
//! Every fresh spec carries its own step cap, far above what the job
//! needs. The cap is part of the cache key and changes nothing else, so
//! fresh specs never share a key: cache hits, durable writes and every
//! solve's counts repeat exactly for a seed, whatever the thread
//! interleaving.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperspace_apps::{knapsack_reference, sort_by_density, Item};
use hyperspace_core::{
    CheckpointSpec, MapperSpec, ObjectiveSpec, PruneSpec, RunSummary, TopologySpec,
};
use hyperspace_metrics::Stats;
use hyperspace_sat::{check_model, gen, Cnf};
use hyperspace_service::{JobKind, JobOutcome, JobRequest, JobSpec, ServiceConfig, SolverService};
use hyperspace_sim::RunOutcome;

use crate::calibrate::{Kernel, Speed};
use crate::{median, trimmed_mean, Args, Outcome, Rng};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Jobs each client submits per round.
const JOBS_PER_CLIENT: usize = 40;
/// Service constructions timed before each round, on top of the measured
/// service's own (see `crate::trimmed_mean`).
const EXTRA_SETUPS: usize = 3;
/// The calibration kernel (see `calibrate.rs`): on as many threads as
/// the service has workers, which seldom wait for each other, about as
/// much branchy integer work (the SAT jobs' DPLL search) as memory-bound
/// work (the stacks the jobs run on).
const KERNEL: Kernel = Kernel {
    threads: WORKERS,
    keys: 100_000,
    branchy: 2_000_000,
    rounds: 1,
    reference_s: 0.020,
};
/// Minimum rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// Step caps of fresh specs start here (the service's default cap).
const STEP_CAP: u64 = 1_000_000;
const SAT_VARS: u32 = 50;
const SAT_CLAUSES: usize = 213;
const QUEENS_N: u8 = 9;
const QUEENS_COUNT: u64 = 352;
const KNAPSACK_ITEMS: usize = 20;
/// `sum(n)` sizes are drawn from `SUM_BASE..SUM_BASE + SUM_RANGE`.
const SUM_BASE: u64 = 1500;
const SUM_RANGE: u64 = 500;
const SUM_INTERVAL: u64 = 500;
/// One in `REPEAT_ONE_IN` submissions repeats an earlier spec.
const REPEAT_ONE_IN: u64 = 5;

/// A job's workload, kept so it can be resubmitted and its result
/// checked.
enum Work {
    Sat(Cnf),
    Queens {
        root: u32,
    },
    Knapsack {
        items: Vec<Item>,
        capacity: u32,
        optimum: u64,
    },
    Durable {
        n: u64,
    },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sat,
    Queens,
    Knapsack,
    Durable,
}

/// A fresh spec: its workload and its unique step cap.
struct Input {
    work: Work,
    cap: u64,
}

impl Input {
    fn kind(&self) -> Kind {
        match self.work {
            Work::Sat(_) => Kind::Sat,
            Work::Queens { .. } => Kind::Queens,
            Work::Knapsack { .. } => Kind::Knapsack,
            Work::Durable { .. } => Kind::Durable,
        }
    }

    fn request(&self) -> JobRequest {
        let spec = match &self.work {
            Work::Sat(cnf) => JobSpec::new(JobKind::sat(cnf.clone()))
                .topology(TopologySpec::Torus2D { w: 14, h: 14 })
                .mapper(MapperSpec::LeastBusy {
                    status_period: None,
                }),
            Work::Queens { root } => JobSpec::new(JobKind::nqueens(QUEENS_N))
                .topology(TopologySpec::Torus2D { w: 14, h: 14 })
                .root_node(*root),
            Work::Knapsack {
                items, capacity, ..
            } => JobSpec::new(JobKind::bnb_knapsack(items.clone(), *capacity))
                .topology(TopologySpec::Torus2D { w: 8, h: 8 })
                .objective(ObjectiveSpec::Maximise)
                .prune(PruneSpec::incumbent()),
            Work::Durable { n } => JobSpec::new(JobKind::sum(*n))
                .topology(TopologySpec::Torus2D { w: 8, h: 8 })
                .checkpoint(CheckpointSpec::every(SUM_INTERVAL)),
        };
        JobRequest::new(spec.max_steps(self.cap))
    }

    /// Whether `summary` is a correct answer for this input.
    fn verify(&self, summary: &RunSummary) -> bool {
        let Some(result) = summary.result.as_deref() else {
            return false;
        };
        match &self.work {
            Work::Sat(cnf) => parse_model(result).is_some_and(|m| check_model(cnf, &m)),
            Work::Queens { .. } => result == QUEENS_COUNT.to_string(),
            Work::Knapsack { optimum, .. } => {
                result == optimum.to_string() && summary.best_incumbent == Some(*optimum as i64)
            }
            Work::Durable { n } => result == (n * (n + 1) / 2).to_string(),
        }
    }
}

/// Parses the `Debug` rendering of a satisfiable verdict,
/// `Sat([true, false, ...])`, back into a model.
fn parse_model(rendered: &str) -> Option<Vec<bool>> {
    let body = rendered.strip_prefix("Sat([")?.strip_suffix("])")?;
    body.split(", ")
        .map(|v| match v {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        })
        .collect()
}

/// One client's job stream for a round: each entry is an index into the
/// client's fresh inputs and whether it is a repeat.
struct Stream {
    inputs: Vec<Arc<Input>>,
    order: Vec<(usize, bool)>,
}

/// The stream of `client` for stream number `stream_no`; fresh specs
/// take the step caps `cap_base..`.
fn stream(seed: u64, stream_no: u64, client: u64, cap_base: u64) -> Stream {
    let mut rng = Rng::new(seed ^ stream_no.wrapping_mul(0xA076_1D64_78BD_642F) ^ (client << 56));
    let mut inputs: Vec<Arc<Input>> = Vec::new();
    let mut order = Vec::new();
    for _ in 0..JOBS_PER_CLIENT {
        if !inputs.is_empty() && rng.below(REPEAT_ONE_IN) == 0 {
            order.push((rng.below(inputs.len() as u64) as usize, true));
            continue;
        }
        // Two in five fresh jobs are SAT, one in five each of the rest.
        let work = match rng.below(5) {
            0 | 1 => Work::Sat(gen::planted_ksat(rng.next_u64(), SAT_VARS, SAT_CLAUSES, 3).0),
            2 => Work::Queens {
                root: rng.below(14 * 14) as u32,
            },
            3 => {
                let mut items: Vec<Item> = (0..KNAPSACK_ITEMS)
                    .map(|_| Item {
                        weight: 5 + rng.below(26) as u32,
                        value: 5 + rng.below(36) as u32,
                    })
                    .collect();
                sort_by_density(&mut items);
                let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
                let optimum = knapsack_reference(&items, capacity);
                Work::Knapsack {
                    items,
                    capacity,
                    optimum,
                }
            }
            _ => Work::Durable {
                n: SUM_BASE + rng.below(SUM_RANGE),
            },
        };
        order.push((inputs.len(), false));
        let cap = cap_base + inputs.len() as u64;
        inputs.push(Arc::new(Input { work, cap }));
    }
    Stream { inputs, order }
}

/// What a client saw for one job.
struct JobRecord {
    kind: Kind,
    repeat: bool,
    turnaround: Duration,
    queue_wait: Duration,
    solve: Duration,
    ok: bool,
    summary: Option<RunSummary>,
}

/// Runs one client's stream against `service`, in a closed loop. A
/// watched client reads the service's statistics and telemetry signals
/// after every job.
fn client(service: &SolverService, stream: Stream, watched: bool) -> Vec<JobRecord> {
    let mut first: Vec<Option<RunSummary>> = vec![None; stream.inputs.len()];
    let mut records = Vec::with_capacity(stream.order.len());
    for (index, repeat) in stream.order {
        let input = &stream.inputs[index];
        let t = Instant::now();
        let result = service.submit(input.request()).wait();
        let turnaround = t.elapsed();
        if watched {
            std::hint::black_box((service.stats(), service.observe().sample()));
        }
        let summary = match &result.outcome {
            JobOutcome::Completed(s) => Some(s.clone()),
            other => {
                eprintln!("job {} did not complete: {other:?}", result.id);
                None
            }
        };
        let ok = summary.as_ref().is_some_and(|s| {
            s.outcome != RunOutcome::MaxSteps
                && input.verify(s)
                && result.from_cache == repeat
                && (!repeat || first[index].as_ref() == Some(s))
        });
        if !repeat {
            first[index] = summary.clone();
        }
        records.push(JobRecord {
            kind: input.kind(),
            repeat,
            turnaround,
            queue_wait: result.queue_wait,
            solve: result.solve_time,
            ok,
            summary,
        });
    }
    records
}

/// The counts one round must repeat exactly for its stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    cache_hits: u64,
    persisted: u64,
    steps: u64,
    delivered: u64,
    activations: u64,
}

struct Round {
    traced: bool,
    /// Service constructions timed just before the round.
    setup_s: Vec<f64>,
    /// The host's speed around the set-ups and the round.
    speed: Speed,
    loop_s: f64,
    jobs: Vec<JobRecord>,
    counts: Counts,
    repeats: u64,
}

/// Runs stream `stream_no` as the `exec_no`-th round through `service`.
fn run_round(
    service: &SolverService,
    seed: u64,
    stream_no: u64,
    exec_no: u64,
    traced: bool,
) -> Round {
    let per_round = (CLIENTS * JOBS_PER_CLIENT) as u64;
    let streams: Vec<Stream> = (0..CLIENTS as u64)
        .map(|c| {
            let cap_base = STEP_CAP + exec_no * per_round + c * JOBS_PER_CLIENT as u64;
            stream(seed, stream_no, c, cap_base)
        })
        .collect();
    let repeats = streams
        .iter()
        .map(|s| s.order.iter().filter(|(_, r)| *r).count() as u64)
        .sum();
    let before = service.stats();
    let t = Instant::now();
    let jobs: Vec<JobRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|s| scope.spawn(move || client(service, s, traced)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = t.elapsed().as_secs_f64();
    // Every job has returned; drain so the workers' bookkeeping after
    // each result is in the statistics too.
    service.drain();
    let after = service.stats();
    let mut counts = Counts {
        cache_hits: after.cache_hits - before.cache_hits,
        persisted: after.persisted - before.persisted,
        steps: 0,
        delivered: 0,
        activations: 0,
    };
    for s in jobs
        .iter()
        .filter(|j| !j.repeat)
        .filter_map(|j| j.summary.as_ref())
    {
        counts.steps += s.steps;
        counts.delivered += s.total_delivered;
        counts.activations += s.activations_started;
    }
    Round {
        traced,
        setup_s: Vec::new(),
        // Scales by 1 until the caller measures the host's speed.
        speed: Speed::new(KERNEL, KERNEL.reference_s, KERNEL.reference_s),
        loop_s,
        jobs,
        counts,
        repeats,
    }
}

/// Times the construction of a service over a fresh store directory.
///
/// The cache holds one round's submissions. It evicts the oldest entry
/// first, so a repeat still finds the spec it repeats, which its own
/// round added, while memory stops growing after the first round.
fn open_service(dir: &Path) -> (f64, SolverService) {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServiceConfig {
        workers: WORKERS,
        cache_capacity: CLIENTS * JOBS_PER_CLIENT,
        store_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    };
    let t = Instant::now();
    let service = SolverService::new(cfg);
    (t.elapsed().as_secs_f64(), service)
}

/// Where this run keeps its durable stores: beside the build output, so
/// nothing is written outside the checkout.
fn stores_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("the executable lives in <target>/<profile>/");
    target
        .join("stackbench-tmp")
        .join(std::process::id().to_string())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let base = stores_dir();
    let (s, service) = open_service(&base.join("service"));
    let mut setup_s = vec![s];

    // Untraced: a new stream every round. Traced: every stream runs
    // twice, unwatched and then watched, and both rounds must agree.
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    let mut stream_no = 0u64;
    while rounds.len() < MIN_ROUNDS || started.elapsed() < args.run_for {
        let kernel_before = KERNEL.time_s();
        for _ in 0..EXTRA_SETUPS {
            let (s, extra) = open_service(&base.join("setup"));
            setup_s.push(s);
            extra.shutdown();
        }
        let exec_no = rounds.len() as u64;
        let mut plain = run_round(&service, args.seed, stream_no, exec_no, false);
        plain.setup_s = std::mem::take(&mut setup_s);
        plain.speed = Speed::new(KERNEL, kernel_before, KERNEL.time_s());
        if args.trace {
            let watched = run_round(&service, args.seed, stream_no, exec_no + 1, true);
            out.check(watched.counts == plain.counts, || {
                format!(
                    "stream {stream_no}: watched counts {:?} differ from unwatched {:?}",
                    watched.counts, plain.counts
                )
            });
            rounds.push(plain);
            rounds.push(watched);
        } else {
            rounds.push(plain);
        }
        stream_no += 1;
    }
    let (_, persist_count, persist_ns, _) = service
        .observe()
        .registry()
        .span_values()
        .into_iter()
        .find(|(name, ..)| *name == "store.persist")
        .unwrap_or(("store.persist", 0, 0, 0));
    let stats = service.shutdown();
    let _ = std::fs::remove_dir_all(&base);

    for round in &rounds {
        out.check(round.counts.cache_hits == round.repeats, || {
            format!(
                "{} cache hits for {} repeats",
                round.counts.cache_hits, round.repeats
            )
        });
        out.check(round.counts.persisted > 0, || "no durable writes".into());
        for job in &round.jobs {
            out.result(job.ok, || "a service job failed or was wrong".into());
        }
    }
    out.check(stats.failed == 0 && stats.timed_out == 0, || {
        format!(
            "{} jobs failed, {} timed out",
            stats.failed, stats.timed_out
        )
    });
    let all = || rounds.iter().flat_map(|r| r.jobs.iter());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let turnaround: Vec<f64> = all().map(|j| ms(j.turnaround)).collect();
    let fresh_solve = |keep: &dyn Fn(&Round) -> bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| keep(r))
            .flat_map(|r| r.jobs.iter())
            .filter(|j| !j.repeat)
            .map(|j| j.solve.as_secs_f64())
            .collect()
    };
    let first = rounds[0].counts;
    out.note("rounds", rounds.len());
    out.note(
        "first_round",
        format!(
            "{{\"cache_hits\": {}, \"persisted\": {}, \"steps\": {}, \"delivered\": {}, \"activations\": {}}}",
            first.cache_hits, first.persisted, first.steps, first.delivered, first.activations
        ),
    );

    if !args.trace {
        // Every figure is scaled by the host's speed around its round.
        let used = &rounds;
        let scaled = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> Vec<f64> {
            used.iter()
                .flat_map(|r| r.jobs.iter().filter_map(|j| f(j).map(|x| r.speed.scale(x))))
                .collect()
        };
        let turnaround = scaled(&|j| Some(ms(j.turnaround)));
        let solve_s = scaled(&|j| (!j.repeat).then_some(j.solve.as_secs_f64()));
        let setup_s: Vec<f64> = used
            .iter()
            .flat_map(|r| r.setup_s.iter().map(|&s| r.speed.scale(s)))
            .collect();
        let loop_s: f64 = used.iter().map(|r| r.speed.scale(r.loop_s)).sum();
        let raw_loop_s: f64 = used.iter().map(|r| r.loop_s).sum();
        let kernel_s: Vec<f64> = used.iter().map(|r| r.speed.kernel_s()).collect();
        out.note("jobs", turnaround.len());
        out.note("solve_samples", solve_s.len());
        out.note("setup_samples", setup_s.len());
        out.note("raw_jobs_per_s", turnaround.len() as f64 / raw_loop_s);
        out.note("kernel_s", median(&kernel_s));
        out.metric("solve_s", median(&solve_s), "s");
        out.metric("setup_s", trimmed_mean(&setup_s), "s");
        out.metric("job_p50_ms", median(&turnaround), "ms");
        out.metric("job_p95_ms", Stats::quantile(&turnaround, 0.95), "ms");
        out.metric("jobs_per_s", turnaround.len() as f64 / loop_s, "1/s");
        return out;
    }
    out.note("jobs", turnaround.len());

    let p50_of = |keep: &dyn Fn(&JobRecord) -> bool| {
        let xs: Vec<f64> = all()
            .filter(|j| keep(j))
            .map(|j| ms(j.turnaround))
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    let fresh = |kind: Kind| move |j: &JobRecord| !j.repeat && j.kind == kind;
    let jobs = turnaround.len() as f64;
    let hits: u64 = rounds.iter().map(|r| r.counts.cache_hits).sum();
    let queue_wait = Stats::from_slice(&all().map(|j| ms(j.queue_wait)).collect::<Vec<_>>()).mean;
    let solve = Stats::from_slice(&all().map(|j| ms(j.solve)).collect::<Vec<_>>()).mean;
    let traced_solve = median(&fresh_solve(&|r| r.traced));
    let untraced_solve = median(&fresh_solve(&|r| !r.traced));

    out.metric("sim.steps", first.steps as f64, "count");
    out.metric("sim.delivered", first.delivered as f64, "count");
    out.metric("recursion.activations", first.activations as f64, "count");
    out.metric("service.queue_wait_ms", queue_wait, "ms");
    out.metric("service.solve_ms", solve, "ms");
    out.metric(
        "service.overhead_ms",
        Stats::from_slice(&turnaround).mean - queue_wait - solve,
        "ms",
    );
    out.metric("service.cache_hit_ratio", hits as f64 / jobs, "ratio");
    out.metric("service.cache_hits", first.cache_hits as f64, "count");
    out.metric("service.sat_ms", p50_of(&fresh(Kind::Sat)), "ms");
    out.metric("service.queens_ms", p50_of(&fresh(Kind::Queens)), "ms");
    out.metric("service.bnb_ms", p50_of(&fresh(Kind::Knapsack)), "ms");
    out.metric("service.durable_ms", p50_of(&fresh(Kind::Durable)), "ms");
    out.metric("service.hit_ms", p50_of(&|j| j.repeat), "ms");
    out.metric("store.persisted", first.persisted as f64, "count");
    out.metric(
        "store.persist_ms",
        persist_ns as f64 / 1e6 / persist_count.max(1) as f64,
        "ms",
    );
    out.metric("trace.solve_s", traced_solve, "s");
    out.metric("trace.overhead_x", traced_solve / untraced_solve, "x");
    out
}
