//! `queens_seq` and `queens_sharded`: count n-queens(10) through the full
//! stack on the Figure 5 machine (14×14 torus, least-busy mapping).
//!
//! A solve takes tens of milliseconds, so a run makes hundreds of them,
//! each timed between two runs of the calibration kernel (see
//! `calibrate.rs`). The untraced run builds each solve with
//! `StackBuilder`; the traced run assembles the same stack from the
//! public constructors with a forwarding wrapper at each layer boundary
//! (see `layers.rs`) and alternates traced and untraced solves, so
//! `trace.overhead_x` compares like with like.

use std::sync::Arc;
use std::time::Instant;

use hyperspace_apps::{NQueensProgram, QueensTask};
use hyperspace_core::{
    summarise, summarise_sharded, BackendSpec, MapperSpec, PartitionSpec, StackBuilder,
    TopologySpec,
};
use hyperspace_mapping::{MapConfig, MappingHost};
use hyperspace_metrics::Stats;
use hyperspace_obs::{JobProbe, Phase};
use hyperspace_recursion::{eval_local, RecursionHost};
use hyperspace_sim::{
    NodeId, ObsHandle, RunOutcome, ShardedConfig, ShardedSimulation, SimConfig, Simulation,
};

use crate::calibrate::{Kernel, Speed};
use crate::layers::{Totals, TracedApp, TracedFactory, TracedHandler, TracedNode};
use crate::{median, trimmed_mean, Args, Outcome, Rng};

/// Board size: 71,079 messages, the same from every root.
const N: u8 = 10;
/// The number of solutions of n-queens(`N`), the count every solve and
/// the plain recursion must return.
const SOLUTIONS: u64 = 724;
/// Side of the torus.
const SIDE: u32 = 14;
/// Shards and engine threads of the sharded backend.
const SHARDS: u32 = 2;
/// Build-only stack assemblies timed before every solve, on top of the
/// solve's own (see `crate::trimmed_mean`).
const EXTRA_SETUPS: usize = 10;
/// Minimum solves of a traced run, whatever `--seconds` says. An
/// untraced run solves from every root at least once.
const MIN_TRACED_SOLVES: usize = 3;
/// The calibration kernel of each engine (see `calibrate.rs`): one
/// thread of memory-bound work for the sequential engine; two threads
/// meeting at a barrier every few microseconds of work, as the sharded
/// engine's shards do several times a step, for the sharded one.
const SEQ_KERNEL: Kernel = Kernel {
    threads: 1,
    keys: 100_000,
    branchy: 0,
    rounds: 1,
    reference_s: 0.0065,
};
const SHARDED_KERNEL: Kernel = Kernel {
    threads: SHARDS as usize,
    keys: 25_000,
    branchy: 0,
    rounds: 2500,
    reference_s: 0.020,
};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Sequential,
    Sharded,
}

/// The comparable part of a solve's report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Report {
    count: Option<u64>,
    halted: bool,
    steps: u64,
    delivered: u64,
    activations: u64,
}

fn topology() -> TopologySpec {
    TopologySpec::Torus2D { w: SIDE, h: SIDE }
}

fn mapper() -> MapperSpec {
    MapperSpec::LeastBusy {
        status_period: None,
    }
}

fn backend(engine: Engine) -> BackendSpec {
    match engine {
        Engine::Sequential => BackendSpec::Sequential,
        Engine::Sharded => BackendSpec::Sharded {
            shards: SHARDS,
            partition: PartitionSpec::Block,
            threads: Some(SHARDS),
        },
    }
}

/// A built, not yet started stack.
enum Built {
    Seq(hyperspace_core::StackSim<NQueensProgram>),
    Sharded(hyperspace_core::StackShardedSim<NQueensProgram>),
}

/// Assembles the stack through `StackBuilder` and injects the root.
fn build(engine: Engine, root: NodeId) -> Built {
    let builder = StackBuilder::new(NQueensProgram)
        .topology(topology())
        .mapper(mapper())
        .backend(backend(engine));
    let trigger = hyperspace_mapping::trigger(QueensTask::root(N));
    match engine {
        Engine::Sequential => {
            let mut sim = builder.build();
            sim.inject(root, trigger);
            Built::Seq(sim)
        }
        Engine::Sharded => {
            let mut sim = builder.build_sharded();
            sim.inject(root, trigger);
            Built::Sharded(sim)
        }
    }
}

/// Runs a built stack to its root result.
fn solve(built: Built, root: NodeId) -> Report {
    let report = match built {
        Built::Seq(mut sim) => {
            let run = sim.run_to_quiescence().expect("sequential solve");
            summarise(sim, run.outcome, root)
        }
        Built::Sharded(mut sim) => {
            let run = sim.run_to_quiescence().expect("sharded solve");
            summarise_sharded(sim, run.outcome, root)
        }
    };
    Report {
        count: report.result,
        halted: report.outcome == RunOutcome::Halted,
        steps: report.steps,
        delivered: report.metrics.total_delivered,
        activations: report.rec_totals.started,
    }
}

/// One untraced solve: `(setup_s, solve_s, report)`.
fn untraced_solve(engine: Engine, root: NodeId) -> (f64, f64, Report) {
    let t0 = Instant::now();
    let built = build(engine, root);
    let t1 = Instant::now();
    let report = solve(built, root);
    ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64(), report)
}

/// Timings of one untraced solve, as measured.
struct Timed {
    /// This solve's set-up plus the build-only ones before it.
    setup_s: Vec<f64>,
    solve_s: f64,
    job_ms: f64,
    /// The host's speed around them.
    speed: Speed,
}

/// Per-layer figures of one traced solve.
struct Traced {
    solve_s: f64,
    report: Report,
    layers: Totals,
    threads: usize,
    barrier_ns: u64,
    exchange_ns: u64,
    probe_steps: u64,
    probe_delivered: u64,
}

/// One traced solve on a stack assembled from the public constructors,
/// mirroring what `StackBuilder` does for this configuration.
fn traced_solve(engine: Engine, root: NodeId) -> Traced {
    let probe = Arc::new(JobProbe::new(0, "queens", None));
    let cfg = SimConfig {
        tick_every: mapper().status_period(),
        obs: ObsHandle::new(probe.clone()).with_phase_period(1),
        ..SimConfig::default()
    };
    let host = TracedNode(MappingHost::new(
        TracedHandler(RecursionHost::new(TracedApp(NQueensProgram))),
        TracedFactory(mapper().factory()),
        MapConfig {
            status_period: mapper().status_period(),
            halt_on_root_reply: true,
        },
    ));
    let trigger = hyperspace_mapping::trigger(QueensTask::root(N));
    let before = Totals::now();
    let t0;
    let (report, threads) = match engine {
        Engine::Sequential => {
            let mut sim = Simulation::new(topology().build(), host, cfg);
            sim.inject(root, trigger);
            t0 = Instant::now();
            let run = sim.run_to_quiescence().expect("traced sequential solve");
            let activations = sim.states().iter().map(|s| s.app.stats.started).sum();
            let count = sim.state(root).root_result().copied();
            let report = Report {
                count,
                halted: run.outcome == RunOutcome::Halted,
                steps: sim.current_step(),
                delivered: sim.metrics().total_delivered,
                activations,
            };
            (report, 1)
        }
        Engine::Sharded => {
            let scfg = ShardedConfig {
                shards: SHARDS as usize,
                partition: PartitionSpec::Block.to_partition(),
                threads: Some(SHARDS as usize),
            };
            let mut sim = ShardedSimulation::new(topology().build(), host, cfg, scfg);
            sim.inject(root, trigger);
            t0 = Instant::now();
            let run = sim.run_to_quiescence().expect("traced sharded solve");
            let nodes = (SIDE * SIDE) as NodeId;
            let activations = (0..nodes).map(|n| sim.state(n).app.stats.started).sum();
            let count = sim.state(root).root_result().copied();
            let report = Report {
                count,
                halted: run.outcome == RunOutcome::Halted,
                steps: sim.current_step(),
                delivered: sim.metrics().total_delivered,
                activations,
            };
            (report, sim.num_threads())
        }
    };
    let solve_s = t0.elapsed().as_secs_f64();
    let phases = probe.phases();
    Traced {
        solve_s,
        report,
        layers: Totals::now().since(&before),
        threads,
        barrier_ns: phases.phase_total(Phase::BarrierWait).1,
        exchange_ns: phases.phase_total(Phase::Exchange).1,
        probe_steps: probe.steps(),
        probe_delivered: probe.delivered(),
    }
}

fn check_report(out: &mut Outcome, got: &Report, want: &Report, what: &str) {
    out.result(got.count == Some(SOLUTIONS) && got.halted, || {
        format!("{what}: count {:?}, want {SOLUTIONS}", got.count)
    });
    out.check(got == want, || {
        format!("{what}: report {got:?} differs from the reference {want:?}")
    });
}

/// Every node of the torus, in an order drawn from the seed: solves
/// take their roots in this order. A solve's cost depends on its root,
/// by ±6% on the sequential engine and by up to 2× on the sharded one,
/// whose cost follows the step count. Taking every root in turn makes a
/// run's figures independent of which roots a seed would pick.
fn roots(seed: u64) -> Vec<NodeId> {
    let mut rng = Rng::new(seed);
    let mut roots: Vec<NodeId> = (0..(SIDE * SIDE) as NodeId).collect();
    for i in (1..roots.len()).rev() {
        roots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    roots
}

pub fn run(args: &Args, engine: Engine) -> Outcome {
    let mut out = Outcome::default();
    let roots = roots(args.seed);

    // Plain sequential recursion: the baseline the stack's overhead is
    // measured against. It must count the solutions too.
    let t = Instant::now();
    let count = eval_local(&NQueensProgram, QueensTask::root(N));
    let mut local_s = vec![t.elapsed().as_secs_f64()];
    out.result(count == SOLUTIONS, || {
        format!("eval_local counts {count}, want {SOLUTIONS}")
    });

    // Each root's sequential report is the reference every solve from
    // that root must repeat. The sequential workload takes its first
    // solve of each root; the sharded one makes an untimed sequential
    // solve before its first solve of a root.
    let mut reference: Vec<Option<Report>> = vec![None; roots.len()];
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let kernel = match engine {
        Engine::Sequential => SEQ_KERNEL,
        Engine::Sharded => SHARDED_KERNEL,
    };
    let min_solves = if args.trace {
        MIN_TRACED_SOLVES
    } else {
        roots.len()
    };
    let mut kernel_before = kernel.time_s();
    let started = Instant::now();
    let mut solves = 0;
    while solves < min_solves || started.elapsed() < args.run_for {
        let which = solves % roots.len();
        let root = roots[which];
        solves += 1;
        if engine == Engine::Sharded && reference[which].is_none() {
            reference[which] = Some(untraced_solve(Engine::Sequential, root).2);
            kernel_before = kernel.time_s();
        }
        let mut setup_s = Vec::with_capacity(EXTRA_SETUPS + 1);
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            let built = build(engine, root);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(built);
        }
        let (setup, solve_s, report) = untraced_solve(engine, root);
        let want = *reference[which].get_or_insert(report);
        check_report(&mut out, &report, &want, "untraced solve");
        setup_s.push(setup);
        let kernel_after = kernel.time_s();
        untraced.push(Timed {
            setup_s,
            solve_s,
            job_ms: (setup + solve_s) * 1e3,
            speed: Speed::new(kernel, kernel_before, kernel_after),
        });
        kernel_before = kernel_after;
        if args.trace {
            let t = traced_solve(engine, root);
            check_report(&mut out, &t.report, &want, "traced solve");
            out.check(
                t.probe_steps == want.steps && t.probe_delivered == want.delivered,
                || {
                    format!(
                        "probe saw {} steps / {} deliveries, report says {} / {}",
                        t.probe_steps, t.probe_delivered, want.steps, want.delivered
                    )
                },
            );
            traced.push(t);
            let t = Instant::now();
            let again = eval_local(&NQueensProgram, QueensTask::root(N));
            local_s.push(t.elapsed().as_secs_f64());
            out.result(again == SOLUTIONS, || {
                format!("eval_local counts {again}, want {SOLUTIONS}")
            });
            kernel_before = kernel.time_s();
        }
    }
    // The first root's counts, the same in every run with this seed.
    let first_root = reference[0].expect("the first root was solved");
    out.note("first_root", roots[0]);
    out.note("steps", first_root.steps);
    out.note("delivered", first_root.delivered);
    out.note("activations", first_root.activations);
    out.note(
        "roots_solved",
        reference.iter().filter(|r| r.is_some()).count(),
    );
    // Timings come from whole passes over the roots, so that every run
    // weighs every root the same.
    let whole = untraced.len() / roots.len() * roots.len();
    if whole > 0 {
        untraced.truncate(whole);
    }
    let used = untraced;
    let solve_s: Vec<f64> = used.iter().map(|t| t.solve_s).collect();
    let scaled = |f: &dyn Fn(&Timed) -> f64| -> Vec<f64> {
        used.iter().map(|t| t.speed.scale(f(t))).collect()
    };
    let job_ms = scaled(&|t| t.job_ms);
    let setup_s: Vec<f64> = used
        .iter()
        .flat_map(|t| t.setup_s.iter().map(|&s| t.speed.scale(s)))
        .collect();
    let kernel_s: Vec<f64> = used.iter().map(|t| t.speed.kernel_s()).collect();
    out.note("solves", solve_s.len());
    out.note("setup_samples", setup_s.len());
    out.note("traced_solves", traced.len());
    out.note("raw_solve_s", median(&solve_s));
    out.note("kernel_s", median(&kernel_s));

    if !args.trace {
        out.metric("solve_s", median(&scaled(&|t| t.solve_s)), "s");
        out.metric("setup_s", trimmed_mean(&setup_s), "s");
        out.metric("job_p50_ms", median(&job_ms), "ms");
        out.metric("job_p95_ms", Stats::quantile(&job_ms, 0.95), "ms");
        let busy_s: f64 = job_ms.iter().sum::<f64>() / 1e3;
        out.metric("jobs_per_s", job_ms.len() as f64 / busy_s, "1/s");
        return out;
    }

    // Per-layer figures come from one traced solve, the one with the
    // median wall time, so its four self times add up to `trace.solve_s`
    // exactly. Thread-summed times are divided by the engine's thread
    // count. Counts are the first root's, which every run solves first.
    let secs = |t: &Traced, ns: u64| ns as f64 / 1e9 / t.threads as f64;
    let sim_self = |t: &Traced| t.solve_s - secs(t, t.layers.node_ns());
    for t in &traced {
        out.check(sim_self(t) >= 0.0, || {
            format!(
                "layer times exceed the solve time: sim.self_s {}",
                sim_self(t)
            )
        });
    }
    // Every root makes the same calls, so every traced solve must count
    // the same.
    let first = &traced[0];
    for t in &traced {
        out.check(
            t.layers.choose_calls() == first.layers.choose_calls()
                && t.layers.app_calls() == first.layers.app_calls(),
            || "traced call counts differ between solves".into(),
        );
    }
    let mut by_time: Vec<&Traced> = traced.iter().collect();
    by_time.sort_by(|a, b| a.solve_s.total_cmp(&b.solve_s));
    let t = by_time[(by_time.len() - 1) / 2];
    let untraced = median(&solve_s);
    let local = median(&local_s);
    let delivered = t.report.delivered as f64;
    let mapping_self = secs(t, t.layers.mapping_self_ns());
    let recursion_self = secs(t, t.layers.recursion_self_ns());

    out.metric("sim.self_s", sim_self(t), "s");
    out.metric("sim.steps", first_root.steps as f64, "count");
    out.metric("sim.delivered", first_root.delivered as f64, "count");
    out.metric("sim.ns_per_delivery", sim_self(t) * 1e9 / delivered, "ns");
    out.metric("sim.barrier_wait_s", secs(t, t.barrier_ns), "s");
    out.metric("sim.exchange_s", secs(t, t.exchange_ns), "s");
    out.metric("mapping.self_s", mapping_self, "s");
    out.metric("mapping.ns_per_msg", mapping_self * 1e9 / delivered, "ns");
    out.metric(
        "mapping.choose_calls",
        first.layers.choose_calls() as f64,
        "count",
    );
    out.metric("mapping.choose_s", secs(t, t.layers.choose_ns()), "s");
    out.metric("recursion.self_s", recursion_self, "s");
    out.metric(
        "recursion.activations",
        first_root.activations as f64,
        "count",
    );
    out.metric(
        "recursion.ns_per_activation",
        recursion_self * 1e9 / t.report.activations as f64,
        "ns",
    );
    out.metric("apps.self_s", secs(t, t.layers.app_ns()), "s");
    out.metric("apps.calls", first.layers.app_calls() as f64, "count");
    out.metric("apps.local_s", local, "s");
    out.metric("stack.overhead_x", untraced / local, "x");
    out.metric("trace.solve_s", t.solve_s, "s");
    out.metric("trace.overhead_x", t.solve_s / untraced, "x");
    out
}
