//! The `fleet_mixes` workload: `run_fleet` over tenant mixes, checked
//! against a serial `simulate_device` + `FleetReport::aggregate` fold.

use std::time::{Duration, Instant};

use cagc_core::{Ssd, SsdConfig, TrafficTotals};
use cagc_fleet::{run_fleet, simulate_device, DeviceSpec, FleetConfig, FleetReport, TraceLibrary};
use cagc_harness::ToJson;
use cagc_metrics::Histogram;
use cagc_workloads::{mixer, OpKind, Trace};

use crate::plan::{fleet_specs, Plan};
use crate::reference::Speed;
use crate::single::{replay, Device};
use crate::spans::{SpanId, Spans};
use crate::{done, fresh, listed, median, micro, nproc, peak_rss_mb, quantile, HostClock, Output};

/// Fan-out workers: the plan's, or one per core.
fn workers(plan: &Plan) -> usize {
    let w = if plan.workers == 0 { nproc() } else { plan.workers };
    w.clamp(1, plan.devices.max(1))
}

/// Account a fleet report's requests and check that every request of
/// every spec was acknowledged with a latency.
fn check_fleet(out: &mut Output, specs: &[DeviceSpec], report: &FleetReport, what: &str) {
    let requests: u64 = specs.iter().flat_map(|s| &s.tenants).map(|t| t.trace.len() as u64).sum();
    let acked: u64 = report.devices.iter().flat_map(|d| &d.tenants).map(|t| t.hist.count()).sum();
    out.attempted += requests;
    out.failed += report.failed_ops;
    out.check(acked == requests, || format!("{what}: {acked} of {requests} requests acknowledged"));
}

fn fleet_requests(specs: &[DeviceSpec]) -> f64 {
    specs.iter().flat_map(|s| &s.tenants).map(|t| t.trace.len() as f64).sum()
}

/// Fold the specs serially on one fresh thread; returns the report, the
/// wall ms of each `simulate_device` and the host s of all of them.
fn serial_fold(
    specs: &[DeviceSpec],
    distinct: usize,
    mut spans: Option<(&mut Spans, SpanId)>,
) -> (FleetReport, Vec<f64>, f64) {
    fresh(|| {
        let mut device_ms = Vec::with_capacity(specs.len());
        let mut devices = Vec::with_capacity(specs.len());
        let clock = HostClock::start(1);
        for spec in specs {
            let t = Instant::now();
            devices.push(match spans.as_mut() {
                Some((sp, parent)) => {
                    sp.leaf("fleet.simulate_device", u64::from(spec.id), Some(*parent), || {
                        simulate_device(spec)
                    })
                }
                None => simulate_device(spec),
            });
            device_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let host_s = clock.seconds();
        let report = match spans {
            Some((sp, parent)) => sp.leaf("fleet.aggregate", 0, Some(parent), || {
                FleetReport::aggregate(devices, distinct)
            }),
            None => FleetReport::aggregate(devices, distinct),
        };
        (report, device_ms, host_s)
    })
}

/// `run_fleet` on a fresh thread (so a 1-worker fan-out, which runs
/// inline, also starts with a cold memo); returns it with its host s and
/// its wall s.
fn timed_fleet(cfg: &FleetConfig) -> (FleetReport, f64, f64) {
    fresh(|| {
        let clock = HostClock::start(cfg.workers);
        let wall = Instant::now();
        let report = run_fleet(cfg);
        (report, clock.seconds(), wall.elapsed().as_secs_f64())
    })
}

/// Simulated read tail and GC-period mean of one device per mix. The
/// fleet keeps only per-device summaries, so the benchmark replays each
/// mix's first device directly (the same merged stream, the same device
/// configuration) and checks its totals against that device's report.
struct Representatives {
    read_p999_us: f64,
    gc_mean_us: f64,
    lats: Vec<u64>,
    last: Option<(Ssd, String)>,
}

fn representatives(
    plan: &Plan,
    specs: &[DeviceSpec],
    fleet: &FleetReport,
    sp: &mut Spans,
    parent: Option<SpanId>,
    out: &mut Output,
) -> Representatives {
    let mut reads = Histogram::new();
    let (mut gc_sum, mut gc_count, mut all_mean) = (0.0, 0u64, Vec::new());
    let mut lats = Vec::new();
    let mut last = None;
    let cfg = plan.fleet_config(0);
    for spec in specs.iter().take(cfg.mixes.len() * cfg.seed_groups) {
        let refs: Vec<&Trace> = spec.tenants.iter().map(|t| t.trace.as_ref()).collect();
        let merged = mixer::interleave_n(&refs);
        let mut cfg = SsdConfig::paper(spec.flash, spec.scheme);
        cfg.faults = spec.faults.clone();
        cfg.gc_preempt = spec.gc_preempt;
        if let Some(floor) = spec.read_only_floor_blocks {
            cfg.read_only_floor_blocks = floor;
        }
        let r = fresh(|| {
            let s = sp.open("core.replay", u64::from(spec.id), parent);
            let r = replay(Device::Direct(Ssd::new(cfg)), &merged, Some((&mut *sp, s)));
            sp.close(s);
            r
        });
        let device = &fleet.devices[spec.id as usize];
        let mut totals = TrafficTotals::default();
        totals.add(&r.report);
        out.check(
            totals == device.totals
                && r.report.all.count == device.lat.count
                && r.report.end_ns == device.end_ns,
            || {
                format!(
                    "device {}: direct replay of its merged stream differs from the fleet's",
                    spec.id
                )
            },
        );
        for (req, &lat) in merged.requests.iter().zip(&r.lats) {
            if req.kind == OpKind::Read {
                reads.record(lat);
            }
        }
        gc_sum += r.report.during_gc.mean_ns * r.report.during_gc.count as f64;
        gc_count += r.report.during_gc.count;
        all_mean.push(r.report.gc_period_mean_ns());
        lats.extend_from_slice(&r.lats);
        last = Some((r.ssd, merged.name));
    }
    let gc_mean_ns = if gc_count > 0 { gc_sum / gc_count as f64 } else { median(&all_mean) };
    Representatives {
        read_p999_us: reads.quantile(0.999) as f64 / 1e3,
        gc_mean_us: gc_mean_ns / 1e3,
        lats,
        last,
    }
}

/// Every tenant histogram of the fleet, merged.
fn merged_latency(report: &FleetReport) -> Histogram {
    let mut h = Histogram::new();
    for t in &report.by_tenant {
        h.merge(&t.hist);
    }
    h
}

/// The untraced run: set up and run the fleet until the budget is
/// spent, then check it against the serial fold.
pub(crate) fn end_to_end(plan: &Plan, budget: Duration, out: &mut Output) {
    let w = workers(plan);
    let start = Instant::now();
    let (mut setups, mut rates, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(String, FleetReport)> = None;
    let mut speed = Speed::new(w);
    let (specs, distinct) = loop {
        // `run_fleet` synthesizes its own trace library; the set-up here
        // is the config plus the benchmark's rebuild of the same specs.
        let clock = HostClock::start(1);
        let cfg = plan.fleet_config(w);
        let mut lib = TraceLibrary::new();
        let specs = fleet_specs(&cfg, &mut lib, |_, get| get());
        let setup_s = clock.seconds();
        let (report, fleet_s, _) = timed_fleet(&cfg);
        check_fleet(out, &specs, &report, "run_fleet");
        let json = report.to_json().render();
        match &first {
            None => {
                // Later runs' new threads would inflate the high-water mark
                // with fresh malloc arenas, and so would the reference kernel.
                out.metrics.set("peak_rss_mb", peak_rss_mb());
                first = Some((json, report));
            }
            Some((j, _)) => {
                out.check(*j == json, || "a repeat fleet run of the same seed differs".into())
            }
        }
        let scale = speed.after_iteration();
        setups.push(setup_s * scale);
        raw.push(fleet_requests(&specs) / fleet_s / 1e3);
        rates.push(fleet_requests(&specs) / (fleet_s * scale) / 1e3);
        if done(start, budget, setups.len(), 1) {
            break (specs, lib.distinct());
        }
    };
    out.metrics.set("setup_s", median(&setups));
    out.metrics.set("wall_kreq_per_s", median(&rates));
    out.notes.push(format!(
        "{} fleet runs at {w} workers, setup and throughput are medians at the reference \
         speed; kreq/s per iteration {}, unscaled {}; reference kernel ms {}",
        setups.len(),
        listed(&rates),
        listed(&raw),
        listed(&speed.samples_ms())
    ));

    let (json, report) = first.expect("at least one fleet run");
    let (serial, _, _) = serial_fold(&specs, distinct, None);
    check_fleet(out, &specs, &serial, "serial fold");
    out.check(serial.to_json().render() == json, || {
        format!("serial simulate_device fold differs from run_fleet at {w} workers")
    });
    let reps = representatives(plan, &specs, &report, &mut Spans::default(), None, out);
    let lat = merged_latency(&report);
    let m = &mut out.metrics;
    m.set("lat_p50_us", lat.quantile(0.50) as f64 / 1e3);
    m.set("lat_p999_us", lat.quantile(0.999) as f64 / 1e3);
    m.set("read_p999_us", reps.read_p999_us);
    m.set("gc_mean_us", reps.gc_mean_us);
    m.set("blocks_erased", report.fleet.total_erases as f64);
    m.set("waf", report.waf());
    out.notes.push(format!(
        "latency samples: {} over every tenant; read tail and GC mean from one device per (mix, seed group)",
        lat.count()
    ));
}

/// The traced run: spans around library synthesis, every
/// `simulate_device` of a serial fold, aggregation and rendering; then
/// rounds alternating the serial fold and `run_fleet` for the parallel
/// efficiency.
pub(crate) fn traced(plan: &Plan, budget: Duration, out: &mut Output) {
    let start = Instant::now();
    let w = workers(plan);
    let cfg = plan.fleet_config(w);
    let root = out.spans.open("bench.run", 0, None);
    let lib_span = out.spans.open("fleet.library", 0, Some(root));
    let mut lib = TraceLibrary::new();
    let sp = &mut out.spans;
    let specs = fleet_specs(&cfg, &mut lib, |d, get| {
        let s = sp.open("workloads.library_get", d as u64, Some(lib_span));
        get();
        sp.close(s);
    });
    out.spans.close(lib_span);
    let library_ms = out.spans.total_ms("fleet.library");
    let m = &mut out.metrics;
    m.set("fleet.library_ms", library_ms);
    m.set("workloads.generate_ms", library_ms);
    m.set("workloads.requests", fleet_requests(&specs));
    let pages: u64 = specs.iter().flat_map(|s| &s.tenants).map(|t| t.trace.written_pages()).sum();
    m.set("workloads.pages_written", pages as f64);

    let (serial, device_ms, serial_s) =
        serial_fold(&specs, lib.distinct(), Some((&mut out.spans, root)));
    let want = out.spans.leaf("fleet.render", 0, Some(root), || serial.to_json().render());
    check_fleet(out, &specs, &serial, "serial fold");
    let m = &mut out.metrics;
    m.set("fleet.device_ms_p50", median(&device_ms));
    m.set("fleet.device_ms_max", device_ms.iter().copied().fold(0.0, f64::max));
    m.set("fleet.aggregate_ms", out.spans.total_ms("fleet.aggregate"));
    m.set("fleet.render_ms", out.spans.total_ms("fleet.render"));

    // Round 0 pairs the spanned fold above with the first `run_fleet`;
    // later rounds alternate which of the two goes first.
    let fold_s = |out: &mut Output| -> f64 {
        let (report, _, host_s) = serial_fold(&specs, lib.distinct(), None);
        check_fleet(out, &specs, &report, "serial fold");
        out.check(report.to_json().render() == want, || "a repeat serial fold differs".into());
        host_s
    };
    let phase = out.spans.open("bench.rounds", 0, Some(root));
    let mut effs = Vec::new();
    let mut round = 0;
    let mut last = None;
    while !done(start, budget, round, 2) {
        let serial_first = round % 2 == 0;
        let mut serial = match round {
            0 => serial_s,
            _ if serial_first => fold_s(out),
            _ => 0.0,
        };
        let (report, _, fleet_wall_s) = timed_fleet(&cfg);
        check_fleet(out, &specs, &report, "run_fleet");
        out.check(report.to_json().render() == want, || {
            format!("run_fleet at {w} workers differs from the serial simulate_device fold")
        });
        if !serial_first {
            serial = fold_s(out);
        }
        effs.push(serial / (w as f64 * fleet_wall_s));
        last = Some(report);
        round += 1;
    }
    out.spans.close(phase);
    out.metrics.set("fleet.parallel_eff", median(&effs));
    out.notes.push(format!("{round} rounds of serial fold and run_fleet at {w} workers"));

    let report = last.expect("at least one round");
    let t = &report.fleet;
    let m = &mut out.metrics;
    m.set("core.gc_rounds", t.gc_invocations as f64);
    m.set("core.gc_pages_migrated", t.pages_migrated as f64);
    m.set("flash.programs", t.total_programs as f64);
    m.set("flash.erases", t.total_erases as f64);
    m.set("dedup.lookups", t.dedup_lookups as f64);
    m.set("dedup.hits", t.dedup_hits as f64);
    m.set("dedup.hit_rate", t.dedup_hit_rate());
    m.set("lat_samples", merged_latency(&report).count() as f64);

    let mut sp = std::mem::take(&mut out.spans);
    let reps = representatives(plan, &specs, &report, &mut sp, Some(root), out);
    out.spans = sp;
    let process = out.spans.durations("core.process");
    out.metrics.set("core.process_us_p50", quantile(&process, 0.50) / 1e3);
    out.metrics.set("core.process_us_p99", quantile(&process, 0.99) / 1e3);
    micro::record(&reps.lats, out);
    if let Some((ssd, name)) = &reps.last {
        micro::report(ssd, name, out);
    }
    out.spans.close(root);
}
