//! The metric catalogue and the per-run value store.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; `tests/catalogue.rs` keeps the two in step.

use std::collections::BTreeMap;

/// Whether a metric repeats exactly for a given seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host wall time or memory: varies run to run.
    Wall,
    /// A count, simulated time or ratio of counts: deterministic for a
    /// seed, identical across worker counts and across runs.
    Exact,
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed. Exact metrics use `count`, `ratio`, `pages`,
    /// `op/req` or a `sim_` time unit; wall metrics use plain time units,
    /// `x`, `MB` or `kreq/s`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Wall or exact.
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Def {
    Def { name, unit, better, kind }
}

use Kind::{Exact, Wall};

/// Metrics of the untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower", Wall),
    def("wall_kreq_per_s", "kreq/s", "higher", Wall),
    def("peak_rss_mb", "MB", "lower", Wall),
    def("lat_p50_us", "sim_us", "lower", Exact),
    def("lat_p999_us", "sim_us", "lower", Exact),
    def("read_p999_us", "sim_us", "lower", Exact),
    def("gc_mean_us", "sim_us", "lower", Exact),
    def("blocks_erased", "count", "lower", Exact),
    def("waf", "ratio", "lower", Exact),
];

/// Metrics of the traced run (`--trace 1`). A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[Def] = &[
    def("workloads.generate_ms", "ms", "lower", Wall),
    def("workloads.requests", "count", "higher", Exact),
    def("workloads.pages_written", "count", "higher", Exact),
    def("core.process_us_p50", "us", "lower", Wall),
    def("core.process_us_p99", "us", "lower", Wall),
    def("core.gc_rounds", "count", "lower", Exact),
    def("core.gc_pages_migrated", "count", "lower", Exact),
    def("core.gc_pages_scanned", "count", "lower", Exact),
    def("core.gc_dedup_drops", "count", "higher", Exact),
    def("core.gc_reclaim_per_erase", "pages", "higher", Exact),
    def("core.gc_busy_sim_ms", "sim_ms", "lower", Exact),
    def("flash.reads", "count", "lower", Exact),
    def("flash.programs", "count", "lower", Exact),
    def("flash.erases", "count", "lower", Exact),
    def("flash.ops_per_req", "op/req", "lower", Exact),
    def("flash.read_busy_sim_ms", "sim_ms", "lower", Exact),
    def("flash.program_busy_sim_ms", "sim_ms", "lower", Exact),
    def("flash.erase_busy_sim_ms", "sim_ms", "lower", Exact),
    def("flash.die_util_mean", "ratio", "lower", Exact),
    def("flash.victim_dense_us", "us", "lower", Wall),
    def("ftl.victim_scan_us", "us", "lower", Wall),
    def("ftl.scan_over_dense_x", "x", "lower", Wall),
    def("dedup.lookups", "count", "lower", Exact),
    def("dedup.hits", "count", "higher", Exact),
    def("dedup.hit_rate", "ratio", "higher", Exact),
    def("dedup.inserts", "count", "lower", Exact),
    def("dedup.removals", "count", "lower", Exact),
    def("dedup.sha1_ns", "ns", "lower", Wall),
    def("dedup.memo_ns", "ns", "lower", Wall),
    def("dedup.index_op_ns", "ns", "lower", Wall),
    def("host.doorbells", "count", "lower", Exact),
    def("host.irqs", "count", "lower", Exact),
    def("host.backlogged", "count", "lower", Exact),
    def("host.pump_slices", "count", "higher", Exact),
    def("host.peak_occupancy", "count", "lower", Exact),
    def("host.queue_wait_p50_us", "sim_us", "lower", Exact),
    def("host.queue_wait_p999_us", "sim_us", "lower", Exact),
    def("host.overhead_x", "x", "lower", Wall),
    def("sim.event_ns", "ns", "lower", Wall),
    def("sim.reserve_ns", "ns", "lower", Wall),
    def("metrics.record_ns", "ns", "lower", Wall),
    def("metrics.report_ms", "ms", "lower", Wall),
    def("trace.events_recorded", "count", "higher", Exact),
    def("trace.dropped_events", "count", "lower", Exact),
    def("trace.overhead_x", "x", "lower", Wall),
    def("trace.export_jsonl_ms", "ms", "lower", Wall),
    def("trace.inspect_ms", "ms", "lower", Wall),
    def("fleet.library_ms", "ms", "lower", Wall),
    def("fleet.device_ms_p50", "ms", "lower", Wall),
    def("fleet.device_ms_max", "ms", "lower", Wall),
    def("fleet.aggregate_ms", "ms", "lower", Wall),
    def("fleet.render_ms", "ms", "lower", Wall),
    def("fleet.parallel_eff", "ratio", "higher", Wall),
    def("lat_samples", "count", "higher", Exact),
    def("bench.spanned_kreq_per_s", "kreq/s", "higher", Wall),
    def("bench.span_kreq_delta", "kreq/s", "lower", Wall),
];

/// The catalogue a mode prints.
pub fn catalogue(traced: bool) -> &'static [Def] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Values measured in one run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record a value.
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "metric {name} is not in the catalogue");
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The exact (deterministic) values among those recorded.
    pub fn exact(&self) -> BTreeMap<&'static str, f64> {
        self.values
            .iter()
            .filter(|(n, _)| lookup(n).is_some_and(|d| d.kind == Kind::Exact))
            .map(|(&n, &v)| (n, v))
            .collect()
    }
}
