//! Data integrity: the simulator's whole point is to move pages around
//! aggressively (overwrites, dedup absorption, GC migration, hot/cold
//! promotion) — after all of it, every logical page must still read back
//! the content most recently written to it, under every scheme and every
//! GC entry point: run-to-completion or sliced preemptible GC, idle-window
//! GC, any victim policy, traced or not, with or without injected faults.

use cagc_core::{CmdStatus, Scheme, Ssd, SsdConfig, TraceConfig};
use cagc_dedup::ContentId;
use cagc_flash::FaultConfig;
use cagc_ftl::VictimKind;
use cagc_harness::prop::*;
use cagc_sim::SimRng;
use cagc_workloads::{OpKind, SynthConfig, Trace};
use std::collections::HashMap;

/// The GC configuration one property case runs under, drawn from `knobs`.
fn gc_config(scheme: Scheme, knobs: u64) -> (SsdConfig, bool) {
    let mut rng = SimRng::seed_from_u64(knobs);
    let mut cfg = SsdConfig::tiny(scheme);
    cfg.gc_preempt = rng.gen_bool(0.5);
    cfg.gc_slice_pages = rng.gen_range_u64(1..17) as u32;
    cfg.idle_gc = rng.gen_bool(0.5);
    cfg.victim = VictimKind::ALL[rng.gen_range_usize(0..VictimKind::ALL.len())];
    let traced = rng.gen_bool(0.5);
    if rng.gen_bool(0.5) {
        // Program, erase and ECC faults, plus the occasional last-resort
        // failure that surfaces as an error completion; never power loss.
        cfg.faults = FaultConfig {
            program_fail_prob: 0.002 + rng.next_f64() * 0.01,
            erase_fail_prob: rng.next_f64() * 0.02,
            read_ecc_prob: rng.next_f64() * 0.03,
            unrecoverable_prob: if rng.gen_bool(0.5) { 0.05 } else { 0.0 },
            seed: rng.next_u64(),
            ..FaultConfig::none()
        };
    }
    (cfg, traced)
}

/// Replay `trace` and verify the logical view against a model store.
///
/// Only writes and trims that complete with [`CmdStatus::Success`] enter
/// the model. An error completion may have applied part of a multi-page
/// request, so each page it addressed may read back either the model's
/// value or the one the failed command carried.
fn check_integrity(scheme: Scheme, trace: &Trace, knobs: u64) -> Result<(), TestCaseError> {
    let (cfg, traced) = gc_config(scheme, knobs);
    let label = format!(
        "{} preempt={} slice={} idle={} victim={} traced={traced} faults={}",
        scheme.name(),
        cfg.gc_preempt,
        cfg.gc_slice_pages,
        cfg.idle_gc,
        cfg.victim.name(),
        cfg.faults.is_active()
    );
    let mut ssd = Ssd::new(cfg);
    if traced {
        ssd.enable_tracing(TraceConfig::default());
    }
    let mut model: HashMap<u64, ContentId> = HashMap::new();
    let mut alternative: HashMap<u64, Option<ContentId>> = HashMap::new();
    for req in &trace.requests {
        let done = ssd.process_status(req).expect("no power loss is configured");
        let ok = done.status == CmdStatus::Success;
        match req.kind {
            OpKind::Write => {
                for (i, lpn) in req.lpns().enumerate() {
                    if ok {
                        model.insert(lpn, req.contents[i]);
                        alternative.remove(&lpn);
                    } else {
                        alternative.insert(lpn, Some(req.contents[i]));
                    }
                }
            }
            OpKind::Trim => {
                for lpn in req.lpns() {
                    if ok {
                        model.remove(&lpn);
                        alternative.remove(&lpn);
                    } else {
                        alternative.insert(lpn, None);
                    }
                }
            }
            OpKind::Read => {}
        }
    }
    ssd.audit().map_err(|e| TestCaseError::fail(format!("{label}: {e}")))?;
    // Every model entry must read back exactly; every absent entry must be
    // unmapped.
    for lpn in 0..trace.logical_pages {
        let expect = model.get(&lpn).copied();
        let got = ssd.stored_content(lpn);
        if alternative.get(&lpn) == Some(&got) {
            continue;
        }
        prop_assert_eq!(got, expect, "{}: lpn {} diverged from the model", label, lpn);
    }
    Ok(())
}

harness_proptest! {
    #![config(cases = 10)]

    /// GC-heavy, dedup-heavy traffic never corrupts the logical view,
    /// whichever GC entry points, policy, tracing and faults are armed.
    #[test]
    fn logical_view_survives_gc_and_dedup(
        seed in 0u64..10_000,
        dedup in 0.0f64..0.95,
        trim in 0.0f64..0.15,
        knobs in any::<u64>(),
    ) {
        let flash = cagc_flash::UllConfig::tiny_for_tests();
        let trace = SynthConfig {
            name: "integrity".into(),
            requests: 4_000,
            logical_pages: (flash.logical_pages() as f64 * 0.9) as u64,
            write_ratio: 0.85,
            dedup_ratio: dedup,
            trim_ratio: trim,
            mean_req_pages: 2.5,
            max_req_pages: 8,
            mean_interarrival_ns: 300_000,
            seed,
            ..Default::default()
        }
        .generate();
        for scheme in Scheme::EXTENDED {
            check_integrity(scheme, &trace, knobs)?;
        }
    }
}

#[test]
fn integrity_through_forced_gc_storm() {
    // Drive an SSD to heavy fragmentation, then force dozens of extra GC
    // cycles and re-verify every logical page.
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    let trace = SynthConfig {
        name: "storm".into(),
        requests: 10_000,
        logical_pages: (flash.logical_pages() as f64 * 0.9) as u64,
        write_ratio: 0.9,
        dedup_ratio: 0.7,
        mean_interarrival_ns: 400_000,
        seed: 77,
        ..Default::default()
    }
    .generate();

    for scheme in Scheme::EXTENDED {
        let mut ssd = Ssd::new(SsdConfig::tiny(scheme));
        let mut model: HashMap<u64, ContentId> = HashMap::new();
        for req in &trace.requests {
            ssd.process(req);
            match req.kind {
                cagc_workloads::OpKind::Write => {
                    for (i, lpn) in req.lpns().enumerate() {
                        model.insert(lpn, req.contents[i]);
                    }
                }
                cagc_workloads::OpKind::Trim => {
                    for lpn in req.lpns() {
                        model.remove(&lpn);
                    }
                }
                _ => {}
            }
        }
        // Force-collect far beyond the watermark's appetite.
        let mut t = 1u64 << 42;
        for _ in 0..50 {
            t = ssd.force_gc(t) + 1_000_000;
        }
        ssd.audit().unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        for (&lpn, &content) in &model {
            assert_eq!(
                ssd.stored_content(lpn),
                Some(content),
                "{}: lpn {lpn} corrupted by GC storm",
                scheme.name()
            );
        }
    }
}

#[test]
fn cagc_promotion_preserves_shared_content() {
    // Build a page shared by many LPNs, force promotion to the cold
    // region, then verify all sharers still read the same content.
    let mut ssd = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
    let mut t = 0u64;
    let tick = |t: &mut u64| {
        *t += 1_000_000;
        *t
    };
    // Ten LPNs share content 7 (written as separate physical copies, since
    // CAGC does not dedup inline).
    for lpn in 0..10 {
        ssd.process(&cagc_workloads::Request::write(
            tick(&mut t),
            lpn,
            vec![ContentId(7)],
        ));
    }
    // Fill the rest of the open block with junk and invalidate it so GC
    // picks the block up.
    for i in 0..22 {
        ssd.process(&cagc_workloads::Request::write(
            tick(&mut t),
            100 + i,
            vec![ContentId(1_000 + i)],
        ));
    }
    for i in 0..22 {
        ssd.process(&cagc_workloads::Request::write(
            tick(&mut t),
            100 + i,
            vec![ContentId(2_000 + i)],
        ));
    }
    let after = ssd.force_gc(tick(&mut t));
    ssd.force_gc(after + 1_000_000); // collect follow-up blocks too
    ssd.audit().unwrap();
    for lpn in 0..10 {
        assert_eq!(ssd.stored_content(lpn), Some(ContentId(7)), "sharer {lpn} lost content");
    }
    let r = ssd.report("promo");
    assert!(r.gc.dedup_hits >= 9, "nine duplicates should have been absorbed");
}
