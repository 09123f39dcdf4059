//! Every count and simulated metric repeats exactly at a seed, moves at
//! another seed, and (for the fleet) does not depend on the worker count.
//! Runs the small plans; `cargo test --release` keeps it quick.

use std::collections::BTreeMap;

use cagc_perfbench::{run, Plan, Workload};

type Exact = (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>);

/// The exact metrics of an untraced and a traced run, both checked.
fn exact(plan: &Plan) -> Exact {
    let e2e = run(plan, false, 0.0);
    assert!(e2e.correct(), "{} untraced: {:?}", plan.workload.name(), e2e.problems);
    let traced = run(plan, true, 0.0);
    assert!(traced.correct(), "{} traced: {:?}", plan.workload.name(), traced.problems);
    (e2e.metrics.exact(), traced.metrics.exact())
}

#[test]
fn counts_and_simulated_metrics_repeat_at_one_seed() {
    for w in Workload::ALL {
        let plan = Plan::small(w, 7);
        let (a, b) = (exact(&plan), exact(&plan));
        assert!(!a.0.is_empty() && !a.1.is_empty(), "{}: no exact metrics", w.name());
        assert_eq!(a, b, "{}: a repeat at the same seed differs", w.name());
    }
}

#[test]
fn counts_and_simulated_metrics_differ_at_another_seed() {
    for w in Workload::ALL {
        let (a, b) = (exact(&Plan::small(w, 7)), exact(&Plan::small(w, 8)));
        for name in ["blocks_erased", "lat_p999_us"] {
            assert_ne!(a.0[name], b.0[name], "{}: {name} ignores the seed", w.name());
        }
        assert_ne!(
            a.1["workloads.pages_written"],
            b.1["workloads.pages_written"],
            "{}: the generated input ignores the seed",
            w.name()
        );
    }
}

#[test]
fn fleet_counts_do_not_depend_on_the_worker_count() {
    let mut plan = Plan::small(Workload::FleetMixes, 7);
    plan.workers = 1;
    let one = exact(&plan);
    plan.workers = std::thread::available_parallelism().map_or(2, usize::from).max(2);
    assert_eq!(one, exact(&plan), "fleet counts changed with the worker count");
}
