//! Parallel experiment execution.
//!
//! Each simulation is single-threaded and deterministic; the experiment
//! grid (workload × scheme × policy) is embarrassingly parallel. This
//! module fans the grid out over [`cagc_harness::pool::map_ordered`]
//! with one cell per chunk: cell costs are skewed across workloads and
//! schemes, so workers claim cells one at a time, and a 3-cell grid on 2
//! workers no longer gives one worker two cells up front. The repro
//! harness regenerates whole figures in one pass, and the deterministic
//! partitioning guarantees the worker count never changes results.
//!
//! Cells that replay through the multi-queue host interface
//! (`cagc-host`, e.g. the queue-depth sweep) don't fit the
//! `(SsdConfig, &Trace)` shape; they call the same pool directly with
//! the same determinism guarantee.

use cagc_workloads::Trace;

use crate::config::SsdConfig;
use crate::report::RunReport;
use crate::ssd::Ssd;

/// Run one cell: build an SSD per the config and replay the trace.
pub fn run_cell(config: SsdConfig, trace: &Trace) -> RunReport {
    Ssd::new(config).replay(trace)
}

/// Run every `(config, trace)` cell, using up to `workers` OS threads
/// (0 ⇒ the machine's available parallelism). Results come back in input
/// order regardless of scheduling.
pub fn run_cells(cells: &[(SsdConfig, &Trace)], workers: usize) -> Vec<RunReport> {
    cagc_harness::pool::map_ordered(cells, workers, 1, |(config, trace)| {
        run_cell(config.clone(), trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use cagc_workloads::SynthConfig;

    fn tiny_trace(seed: u64) -> Trace {
        SynthConfig {
            requests: 300,
            logical_pages: 2_000,
            seed,
            prefill_fraction: 0.5,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_cells(&[], 4).is_empty());
    }

    #[test]
    fn parallel_equals_serial() {
        let trace = tiny_trace(1);
        let cells: Vec<(SsdConfig, &Trace)> = Scheme::ALL
            .iter()
            .map(|&s| (SsdConfig::tiny(s), &trace))
            .collect();
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            // Full determinism: identical counters and latency stats.
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.gc, b.gc);
            assert_eq!(a.total_programs, b.total_programs);
            assert_eq!(a.all.count, b.all.count);
            assert_eq!(a.all.max_ns, b.all.max_ns);
            assert!((a.all.mean_ns - b.all.mean_ns).abs() < 1e-9);
        }
    }

    #[test]
    fn results_preserve_input_order() {
        let t1 = tiny_trace(1);
        let t2 = tiny_trace(2);
        let cells = vec![
            (SsdConfig::tiny(Scheme::Baseline), &t1),
            (SsdConfig::tiny(Scheme::Cagc), &t2),
            (SsdConfig::tiny(Scheme::InlineDedup), &t1),
        ];
        let out = run_cells(&cells, 3);
        assert_eq!(out[0].scheme, "Baseline");
        assert_eq!(out[1].scheme, "CAGC");
        assert_eq!(out[2].scheme, "Inline-Dedupe");
    }
}
