//! Speculative-branch cancellation: soundness under the beyond-paper
//! pruning extension, and the (measured) reason it cannot outrun the
//! expansion frontier — plus anytime behaviour of branch-and-bound
//! searches interrupted by a deadline or stop handle.

use hyperspace::apps::{
    knapsack_reference, seeded_items, BnbKnapsackProgram, BnbKnapsackTask, NQueensProgram,
    QueensTask,
};
use hyperspace::core::{
    MapperSpec, ObjectiveSpec, PruneSpec, RecRunReport, StackBuilder, StopHandle, TopologySpec,
};
use hyperspace::sat::{
    brute, check_model, gen, DpllProgram, Heuristic, SimplifyMode, SubProblem, Verdict,
};
use hyperspace::sim::RunOutcome;

fn sat_report(cnf: &hyperspace::sat::Cnf, cancel: bool) -> RecRunReport<Verdict> {
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
    StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 6, h: 6 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .cancellation(cancel)
        .halt_on_root_reply(false)
        .run(SubProblem::root(cnf.clone()), 0)
}

fn solve(cnf: &hyperspace::sat::Cnf, cancel: bool) -> (Verdict, u64, u64) {
    let report = sat_report(cnf, cancel);
    (
        report.result.expect("verdict"),
        report.rec_totals.cancelled,
        report.rec_totals.stale_replies,
    )
}

#[test]
fn cancellation_preserves_verdicts_and_models() {
    for seed in 0..12u64 {
        let cnf = gen::random_ksat(seed, 10, 44, 3);
        let oracle = brute::solve(&cnf).is_sat();
        let (verdict, ..) = solve(&cnf, true);
        assert_eq!(verdict.is_sat(), oracle, "seed {seed}");
        if let Verdict::Sat(model) = verdict {
            assert!(check_model(&cnf, &model), "seed {seed}");
        }
    }
}

#[test]
fn cancellation_actually_fires_on_satisfiable_instances() {
    // On satisfiable instances the winning SAT branch triggers cancels of
    // its losing siblings.
    let mut total_cancelled = 0;
    for seed in 0..5u64 {
        let cnf = gen::uf20_91(seed);
        let (verdict, cancelled, _) = solve(&cnf, true);
        assert!(verdict.is_sat());
        total_cancelled += cancelled;
    }
    assert!(
        total_cancelled > 0,
        "speculative wins should cancel at least some losers"
    );
}

#[test]
fn no_cancels_without_the_extension() {
    let cnf = gen::uf20_91(7);
    let (_, cancelled, _) = solve(&cnf, false);
    assert_eq!(cancelled, 0);
}

/// A knapsack instance big enough that its search cannot finish within
/// any test budget: the fork-join wave expands ~2^27 subtrees.
fn endless_bnb(n: usize) -> (Vec<hyperspace::apps::Item>, u32) {
    let items = seeded_items(0x5EED, n, 12, 20);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    (items, capacity)
}

/// A feasible greedy solution value (density-first fill) — a legitimate
/// warm-start incumbent.
fn greedy_value(items: &[hyperspace::apps::Item], capacity: u32) -> i64 {
    let mut cap = capacity;
    let mut value = 0i64;
    for item in items {
        if item.weight <= cap {
            cap -= item.weight;
            value += item.value as i64;
        }
    }
    value
}

#[test]
fn stop_mid_search_returns_best_incumbent_via_stopped() {
    // An interrupted B&B run is an *anytime* solver: the report carries
    // the best feasible solution found so far even though the root
    // reply never arrived. Driven deterministically: step the machine
    // until some node provably holds an incumbent, then trip the stop
    // handle — no wall-clock dependence.
    let (items, capacity) = endless_bnb(26);
    let optimum = knapsack_reference(&items, capacity) as i64;
    let stop = StopHandle::new();
    let mut sim = StackBuilder::new(BnbKnapsackProgram)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .objective(ObjectiveSpec::Maximise)
        .prune(PruneSpec::incumbent())
        .max_steps(u64::MAX / 2)
        .stop(stop.clone())
        .build();
    sim.inject(
        0,
        hyperspace::mapping::trigger(BnbKnapsackTask::root(items, capacity)),
    );
    let mut found = false;
    for _ in 0..500_000u64 {
        sim.step().expect("unbounded queues");
        if (0..16u32).any(|node| sim.state(node).app.incumbent().is_some()) {
            found = true;
            break;
        }
    }
    assert!(found, "the search must produce an incumbent eventually");
    stop.stop();
    let outcome = sim.run_to_quiescence().expect("stop, not error").outcome;
    assert_eq!(outcome, RunOutcome::Stopped);
    let report = hyperspace::core::summarise::<BnbKnapsackProgram>(sim, outcome, 0);
    assert_eq!(report.outcome, RunOutcome::Stopped);
    assert_eq!(report.result, None, "the root reply cannot have arrived");
    let best = report.best_incumbent.expect("an incumbent was observed");
    assert!(
        best > 0 && best <= optimum,
        "incumbent {best} vs optimum {optimum}"
    );
    assert!(!report.incumbent_trace.is_empty());
    assert_eq!(
        report.incumbent_trace.iter().map(|e| e.value).max(),
        Some(best),
        "best_incumbent must be the maximum of the trace"
    );
}

#[test]
fn deadline_mid_search_returns_warm_start_incumbent() {
    // Service-style anytime run: a deadline interrupts a search that
    // was warm-started with a *weak* feasible value (half the greedy
    // fill — a tight warm start would let pruning collapse the tree
    // and finish instantly). The report ends Stopped and still carries
    // the best incumbent: at least the warm start, which is always
    // there to return even though the wave cannot have reached the
    // first leaves of a 26-item tree.
    let (items, capacity) = endless_bnb(26);
    let warm = greedy_value(&items, capacity) / 2;
    let optimum = knapsack_reference(&items, capacity) as i64;
    let report = StackBuilder::new(BnbKnapsackProgram)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::RoundRobin)
        .objective(ObjectiveSpec::Maximise)
        .prune(PruneSpec::Incumbent {
            initial: Some(warm),
        })
        .max_steps(u64::MAX / 2)
        .deadline(std::time::Duration::from_millis(250))
        .run(BnbKnapsackTask::root(items, capacity), 0);
    assert_eq!(report.outcome, RunOutcome::Stopped);
    assert_eq!(report.result, None);
    let best = report.best_incumbent.expect("warm start is an incumbent");
    assert!(
        best >= warm && best <= optimum,
        "incumbent {best} outside [{warm}, {optimum}]"
    );
}

#[test]
fn stale_replies_are_tolerated() {
    // With cancellation, replies racing their cancel messages arrive as
    // stale and must be dropped silently — the run still completes with a
    // correct verdict.
    let cnf = gen::uf20_91(3);
    let (verdict, _, _stale) = solve(&cnf, true);
    assert!(verdict.is_sat());
}

/// The stack's bookkeeping counts for one run: `(steps, deliveries,
/// [started, completed, stale_replies, speculative_wins, cancels_sent,
/// cancelled])`.
fn stack_counts<Out>(report: &RecRunReport<Out>) -> (u64, u64, [u64; 6]) {
    let r = &report.rec_totals;
    (
        report.steps,
        report.metrics.total_delivered,
        [
            r.started,
            r.completed,
            r.stale_replies,
            r.speculative_wins,
            r.cancels_sent,
            r.cancelled,
        ],
    )
}

#[test]
fn golden_stack_counts() {
    // Every delivery order is a pure function of the configuration, so
    // the ticket and call-record bookkeeping of layers 3-4 must reproduce
    // these counts exactly. A change to how tickets or records are stored
    // that moves any of them has changed behaviour, not just speed.
    let queens = StackBuilder::new(NQueensProgram)
        .topology(TopologySpec::Torus2D { w: 14, h: 14 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .run(QueensTask::root(8), 0);
    assert_eq!(queens.result, Some(92));
    assert_eq!(stack_counts(&queens), (182, 4115, [2057, 2057, 0, 0, 0, 0]));

    let cnf = gen::uf20_91(3);
    let with_cancel = sat_report(&cnf, true);
    assert!(with_cancel.result.as_ref().expect("verdict").is_sat());
    assert_eq!(
        stack_counts(&with_cancel),
        (262, 5443, [2695, 2552, 52, 33, 195, 143])
    );
    let without_cancel = sat_report(&cnf, false);
    assert!(without_cancel.result.as_ref().expect("verdict").is_sat());
    assert_eq!(
        stack_counts(&without_cancel),
        (258, 5391, [2695, 2695, 42, 42, 0, 0])
    );

    let items = seeded_items(0xB0B, 12, 12, 20);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let bnb = StackBuilder::new(BnbKnapsackProgram)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .objective(ObjectiveSpec::Maximise)
        .prune(PruneSpec::incumbent())
        .halt_on_root_reply(false)
        .run(BnbKnapsackTask::root(items.clone(), capacity), 0);
    assert_eq!(bnb.result, Some(knapsack_reference(&items, capacity)));
    assert_eq!(bnb.result, Some(99));
    assert_eq!(stack_counts(&bnb), (462, 3665, [959, 959, 0, 0, 0, 0]));
}
