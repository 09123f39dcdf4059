//! Behavioral tests for preemptible (sliced) GC scheduling.

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_harness::ToJson;
use cagc_workloads::{SynthConfig, Trace};

fn churn_trace(seed: u64, requests: usize) -> Trace {
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    SynthConfig {
        name: "churn".into(),
        requests,
        logical_pages: (flash.logical_pages() as f64 * 0.93) as u64,
        write_ratio: 0.8,
        dedup_ratio: 0.4,
        mean_req_pages: 2.5,
        max_req_pages: 8,
        mean_interarrival_ns: 200_000,
        seed,
        ..Default::default()
    }
    .generate()
}

fn run(cfg: SsdConfig, trace: &Trace) -> cagc_core::RunReport {
    let mut ssd = Ssd::new(cfg);
    let report = ssd.replay(trace);
    ssd.audit().expect("audit after preemptible GC");
    report
}

/// Sliced GC still reclaims space, keeps every cross-structure invariant,
/// and conserves data: same pages written, nothing lost.
#[test]
fn preempt_on_stays_consistent_across_schemes() {
    let trace = churn_trace(9, 9_000);
    for scheme in Scheme::EXTENDED {
        let off = run(SsdConfig::tiny(scheme), &trace);
        let mut cfg = SsdConfig::tiny(scheme);
        cfg.gc_preempt = true;
        cfg.gc_slice_pages = 4;
        let on = run(cfg, &trace);
        assert!(off.gc.blocks_erased > 0, "{}: GC never ran", scheme.name());
        assert!(on.gc.blocks_erased > 0, "{}: sliced GC never ran", scheme.name());
        assert_eq!(on.host_pages_written, off.host_pages_written, "{}", scheme.name());
        // Conservation holds under slicing too.
        assert_eq!(
            on.total_programs,
            on.user_programs + on.gc.pages_migrated,
            "{}: program accounting under slicing",
            scheme.name()
        );
    }
}

/// Slicing spreads migration over many short quanta instead of a few long
/// rounds: the worst single foreground write stall shrinks.
#[test]
fn preempt_shortens_worst_case_write_stall() {
    let trace = churn_trace(13, 12_000);
    let off = run(SsdConfig::tiny(Scheme::Cagc), &trace);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    cfg.gc_slice_pages = 2;
    let on = run(cfg, &trace);
    assert!(
        on.writes.max_ns < off.writes.max_ns,
        "sliced max write {} !< run-to-completion max write {}",
        on.writes.max_ns,
        off.writes.max_ns
    );
}

#[test]
fn preempt_is_deterministic() {
    let trace = churn_trace(17, 8_000);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    cfg.gc_slice_pages = 4;
    let a = run(cfg.clone(), &trace);
    let b = run(cfg, &trace);
    assert_eq!(a.to_json().render(), b.to_json().render());
}

/// `gc_pump` drains reclaimable space in the background: after pumping on
/// an idle clock, a device sitting below the high watermark climbs back
/// above its low watermark without any foreground write paying for it.
#[test]
fn gc_pump_reclaims_in_idle_windows() {
    let trace = churn_trace(21, 9_000);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    cfg.gc_slice_pages = 4;
    let mut ssd = Ssd::new(cfg);
    ssd.replay(&trace);
    let before = ssd.gc_stats().blocks_erased;
    let mut t = ssd.last_completion();
    let mut pumps = 0u32;
    while let Some(end) = ssd.gc_pump(t) {
        t = end;
        pumps += 1;
        assert!(pumps < 10_000, "pump never converged");
    }
    assert!(pumps > 0, "no pump work despite churned device");
    assert!(ssd.gc_stats().blocks_erased > before);
    ssd.audit().expect("audit after pumping");
    // Converged: free space reached the high watermark, so the pump has
    // nothing left to do.
    assert!(ssd.gc_pump(t).is_none());
}
