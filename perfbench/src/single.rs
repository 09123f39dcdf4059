//! The three single-device workloads: `mail_replay`, `mail_traced` and
//! `webvm_host`.

use std::time::{Duration, Instant};

use cagc_core::{RunReport, Scheme, Ssd};
use cagc_harness::ToJson;
use cagc_host::{HostInterface, HostReport};
use cagc_workloads::Trace;

use crate::plan::{Plan, Workload};
use crate::reference::Speed;
use crate::spans::{SpanId, Spans};
use crate::{done, fresh, listed, median, micro, peak_rss_mb, quantile, HostClock, Output};

/// A device ready to replay: bare, or behind the host interface.
pub(crate) enum Device {
    Direct(Ssd),
    Host(HostInterface),
}

/// Build the plan's device, with the simulator's tracer armed or not,
/// behind the plan's host interface or not.
pub(crate) fn build(plan: &Plan, sim_traced: bool, via_host: bool) -> Device {
    let mut ssd = Ssd::new(plan.ssd_config());
    if let Some(cfg) = plan.sim_trace().filter(|_| sim_traced) {
        ssd.enable_tracing(cfg);
    }
    match plan.host_config() {
        Some(host) if via_host => Device::Host(HostInterface::new(ssd, host)),
        _ => Device::Direct(ssd),
    }
}

/// What one replay left behind.
pub(crate) struct Replay {
    /// The end-of-run device.
    pub ssd: Ssd,
    /// The device's report.
    pub report: RunReport,
    /// The host interface's report, when the replay went through it.
    pub host: Option<HostReport>,
    /// Requests that did not complete `Success`.
    pub failed: u64,
    /// Host time of the replay calls alone (see `HostClock`).
    pub host_s: f64,
    /// Per-request simulated latency in trace order, host-observed
    /// behind the host interface (0 for a torn request).
    pub lats: Vec<u64>,
}

/// Replay `trace` on `dev`. With `spans`, every `Ssd::process_status`
/// call and the closing `Ssd::report` get a span under the given parent.
pub(crate) fn replay(
    dev: Device,
    trace: &Trace,
    mut spans: Option<(&mut Spans, SpanId)>,
) -> Replay {
    let mut lats = Vec::new();
    let mut failed = 0u64;
    let clock = HostClock::start(1);
    let (ssd, host) = match dev {
        Device::Direct(mut ssd) => {
            lats.reserve(trace.len());
            match spans.as_mut() {
                None => {
                    for req in &trace.requests {
                        let done = ssd.process_status(req);
                        failed += u64::from(!done.as_ref().is_ok_and(|c| c.status.is_ok()));
                        lats.push(done.map_or(0, |c| c.end_ns.saturating_sub(req.at_ns)));
                    }
                }
                Some((sp, parent)) => {
                    for (i, req) in trace.requests.iter().enumerate() {
                        let s = sp.open("core.process", i as u64, Some(*parent));
                        let done = ssd.process_status(req);
                        sp.close(s);
                        failed += u64::from(!done.as_ref().is_ok_and(|c| c.status.is_ok()));
                        lats.push(done.map_or(0, |c| c.end_ns.saturating_sub(req.at_ns)));
                    }
                }
            }
            (ssd, None)
        }
        Device::Host(mut host) => {
            // The same engine run as `replay_closed_loop`, which builds the
            // per-command records too and drops them.
            let (report, cmds) = host.replay_closed_loop_detailed(trace);
            lats = cmds.iter().map(|c| c.latency_ns()).collect();
            let r = &report.resilience;
            failed += r.aborts + r.media_read_errors + r.write_faults + r.write_protected;
            (host.into_ssd(), Some(report))
        }
    };
    let host_s = clock.seconds();
    let report = match spans {
        Some((sp, parent)) => {
            sp.leaf("metrics.report", 0, Some(parent), || ssd.report(&trace.name))
        }
        None => ssd.report(&trace.name),
    };
    Replay { ssd, report, host, failed, host_s, lats }
}

/// Account a replay's requests and check it: the device audit passes
/// and every request was acknowledged.
fn check_replay(out: &mut Output, r: &Replay, trace: &Trace, what: &str) {
    let n = trace.len() as u64;
    out.attempted += n;
    out.failed += r.failed;
    if let Err(e) = r.ssd.audit() {
        out.problems.push(format!("{what}: Ssd::audit failed: {e}"));
    }
    let acked = r.ssd.acknowledged_requests();
    out.check(acked == n, || format!("{what}: {acked} of {n} requests acknowledged"));
    if let Some(h) = &r.host {
        let done = h.all.count;
        out.check(done == n, || format!("{what}: host completed {done} of {n} commands"));
    }
}

/// Everything the replay reports, rendered: equal for equal replays.
fn rendered(r: &Replay) -> String {
    match &r.host {
        Some(h) => h.to_json().render(),
        None => r.report.to_json().render(),
    }
}

/// The device report without its telemetry section, rendered.
fn simulated(report: &RunReport) -> String {
    let mut report = report.clone();
    report.telemetry = None;
    report.to_json().render()
}

/// The untraced run: replay the workload from a fresh set-up until the
/// budget is spent, then check the outputs.
pub(crate) fn end_to_end(plan: &Plan, budget: Duration, out: &mut Output) {
    let sim_traced = plan.sim_trace().is_some();
    let start = Instant::now();
    let (mut setups, mut rates, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    let mut speed = Speed::new(1);
    let kept = loop {
        let (setup_s, trace, r) = fresh(|| {
            let clock = HostClock::start(1);
            let trace = plan.trace();
            let dev = build(plan, sim_traced, plan.via_host());
            let setup_s = clock.seconds();
            let r = replay(dev, &trace, None);
            (setup_s, trace, r)
        });
        check_replay(out, &r, &trace, "replay");
        let json = rendered(&r);
        match &first {
            None => {
                // Later iterations run on new threads, whose fresh malloc
                // arenas would inflate the high-water mark, and so would
                // the reference kernel.
                out.metrics.set("peak_rss_mb", peak_rss_mb());
                outcomes(&r, out);
                first = Some(json);
            }
            Some(j) => out.check(*j == json, || "a repeat replay of the same seed differs".into()),
        }
        let scale = speed.after_iteration();
        setups.push(setup_s * scale);
        raw.push(trace.len() as f64 / r.host_s / 1e3);
        rates.push(trace.len() as f64 / (r.host_s * scale) / 1e3);
        if done(start, budget, setups.len(), 1) {
            break (trace, r.report);
        }
    };
    out.metrics.set("setup_s", median(&setups));
    out.metrics.set("wall_kreq_per_s", median(&rates));
    out.notes.push(format!(
        "{} replays, setup and throughput are medians at the reference speed; kreq/s per \
         iteration {}, unscaled {}; reference kernel ms {}",
        setups.len(),
        listed(&rates),
        listed(&raw),
        listed(&speed.samples_ms())
    ));
    if sim_traced {
        let (trace, traced) = kept;
        let plain = fresh(|| replay(build(plan, false, false), &trace, None));
        check_replay(out, &plain, &trace, "untraced reference");
        out.check(simulated(&traced) == simulated(&plain.report), || {
            "traced report without telemetry differs from the untraced replay".into()
        });
    }
}

/// The simulated end-to-end outcomes of one replay. `webvm_host`
/// reports host-observed latency.
fn outcomes(r: &Replay, out: &mut Output) {
    let (all, reads) = match &r.host {
        Some(h) => (&h.all, &h.reads),
        None => (&r.report.all, &r.report.reads),
    };
    // Exact order statistics of every latency, not the histogram's bucket
    // bound, which can read the same at every seed.
    let m = &mut out.metrics;
    m.set("lat_p50_us", quantile(&r.lats, 0.50) / 1e3);
    m.set("lat_p999_us", quantile(&r.lats, 0.999) / 1e3);
    m.set("read_p999_us", reads.p999_ns as f64 / 1e3);
    m.set("gc_mean_us", r.report.gc_period_mean_ns() / 1e3);
    m.set("blocks_erased", r.report.total_erases as f64);
    m.set("waf", r.report.waf());
    out.notes.push(format!(
        "latency samples: {} (reads {}, during GC {})",
        all.count, reads.count, r.report.during_gc.count
    ));
}

/// One replay configuration in the traced run's timed rounds.
#[derive(Clone, Copy)]
struct Arm {
    sim_traced: bool,
    via_host: bool,
    spanned: bool,
}

const fn arm(sim_traced: bool, via_host: bool, spanned: bool) -> Arm {
    Arm { sim_traced, via_host, spanned }
}

/// The traced run: the workload once with a span around every call into
/// a layer, then timed rounds of replay arms for the in-process ratios,
/// then per-layer micro-benchmarks on the end-of-run device.
pub(crate) fn traced(plan: &Plan, budget: Duration, out: &mut Output) {
    let start = Instant::now();
    let sim_traced = plan.sim_trace().is_some();
    let via_host = plan.via_host();
    let root = out.spans.open("bench.run", 0, None);
    let trace = out.spans.leaf("workloads.generate", 0, Some(root), || plan.trace());
    out.metrics.set("workloads.generate_ms", out.spans.total_ms("workloads.generate"));
    out.metrics.set("workloads.requests", trace.len() as f64);
    out.metrics.set("workloads.pages_written", trace.written_pages() as f64);

    let sp = &mut out.spans;
    let main = fresh(|| {
        let dev = sp.leaf("core.new", 0, Some(root), || build(plan, sim_traced, via_host));
        let name = if via_host { "host.replay_closed_loop" } else { "core.replay" };
        let parent = sp.open(name, 0, Some(root));
        let r = replay(dev, &trace, Some((&mut *sp, parent)));
        sp.close(parent);
        r
    });
    // Behind the host interface the per-request calls are out of reach,
    // so a direct replay of the same trace and device supplies them.
    let direct = via_host.then(|| {
        fresh(|| {
            let dev = sp.leaf("core.new", 1, Some(root), || build(plan, false, false));
            let parent = sp.open("core.replay", 0, Some(root));
            let r = replay(dev, &trace, Some((&mut *sp, parent)));
            sp.close(parent);
            r
        })
    });
    check_replay(out, &main, &trace, "traced replay");
    if let Some(d) = &direct {
        check_replay(out, d, &trace, "direct replay");
    }
    let process = out.spans.durations("core.process");
    out.metrics.set("core.process_us_p50", quantile(&process, 0.50) / 1e3);
    out.metrics.set("core.process_us_p99", quantile(&process, 0.99) / 1e3);
    layer_counts(&main, trace.len(), out);
    if sim_traced {
        trace_layer(&main.ssd, root, out);
    }

    let phase = out.spans.open("bench.rounds", 0, Some(root));
    let host = rounds(plan, &trace, &main, direct.as_ref(), start, budget, out);
    out.spans.close(phase);
    if let Some(h) = &host {
        host_counts(h, out);
    }

    let phase = out.spans.open("bench.micro", 0, Some(root));
    micro::victim(&main.ssd, out);
    if plan.ssd_config().scheme == Scheme::Cagc {
        micro::dedup(&trace, out);
    }
    micro::reserve(&plan.flash, out);
    if let Some(h) = &host {
        micro::events(h.peak_occupancy, out);
    }
    micro::record(&direct.as_ref().unwrap_or(&main).lats, out);
    micro::report(&main.ssd, &trace.name, out);
    out.spans.close(phase);
    out.spans.close(root);
}

/// Timed rounds of replay arms, alternating their order, for the
/// workload's in-process ratios and the benchmark's own span overhead.
/// Every arm starts from a cold memo, and every arm's simulated report
/// must equal the first one of its path. Returns the host interface's
/// report: the traced run's, or the first host arm's.
fn rounds(
    plan: &Plan,
    trace: &Trace,
    main: &Replay,
    direct: Option<&Replay>,
    start: Instant,
    budget: Duration,
    out: &mut Output,
) -> Option<HostReport> {
    // The spanned arm is last; `twin` is the arm it equals but for spans.
    // `ratio` names a metric and the arms whose host times it divides.
    type Ratio = Option<(&'static str, usize, usize)>;
    let (arms, twin, ratio): (&[Arm], usize, Ratio) = match plan.workload {
        Workload::MailTraced => (
            &[arm(false, false, false), arm(true, false, false), arm(true, false, true)],
            1,
            Some(("trace.overhead_x", 1, 0)),
        ),
        Workload::MailReplay | Workload::WebvmHost => (
            &[arm(false, true, false), arm(false, false, false), arm(false, false, true)],
            1,
            Some(("host.overhead_x", 0, 1)),
        ),
        Workload::FleetMixes => unreachable!("the fleet has its own rounds"),
    };
    // The reference report of each path, indexed by `via_host`.
    let mut want: [Option<String>; 2] = [None, None];
    want[usize::from(main.host.is_some())] = Some(simulated(&main.report));
    if let Some(d) = direct {
        want[0] = Some(simulated(&d.report));
    }
    let mut host = main.host.clone();
    let n = trace.len() as f64;
    let (mut ratios, mut spanned, mut delta) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0;
    while !done(start, budget, round, 2) {
        let mut host_s = vec![0.0; arms.len()];
        let order: Vec<usize> = if round % 2 == 0 {
            (0..arms.len()).collect()
        } else {
            (0..arms.len()).rev().collect()
        };
        for i in order {
            let a = arms[i];
            let r = fresh(|| {
                let dev = build(plan, a.sim_traced, a.via_host);
                if a.spanned {
                    let mut local = Spans::default();
                    let parent = local.open("core.replay", 0, None);
                    replay(dev, trace, Some((&mut local, parent)))
                } else {
                    replay(dev, trace, None)
                }
            });
            check_replay(out, &r, trace, "timed arm");
            let got = simulated(&r.report);
            let want = want[usize::from(a.via_host)].get_or_insert_with(|| got.clone());
            out.check(got == *want, || {
                format!("arm {i}: simulated report differs from its path's")
            });
            host_s[i] = r.host_s;
            if host.is_none() {
                host = r.host;
            }
        }
        if let Some((_, num, den)) = ratio {
            ratios.push(host_s[num] / host_s[den]);
        }
        let last = arms.len() - 1;
        spanned.push(n / host_s[last] / 1e3);
        delta.push(n / host_s[twin] / 1e3 - n / host_s[last] / 1e3);
        round += 1;
    }
    if let Some((name, _, _)) = ratio {
        out.metrics.set(name, median(&ratios));
    }
    out.metrics.set("bench.spanned_kreq_per_s", median(&spanned));
    out.metrics.set("bench.span_kreq_delta", median(&delta));
    out.notes.push(format!("{round} timed rounds of {} replay arms", arms.len()));
    host
}

/// Exact per-layer counts from the replay's reports.
fn layer_counts(r: &Replay, requests: usize, out: &mut Output) {
    let rep = &r.report;
    let gc = &rep.gc;
    let ppb = r.ssd.device().geometry().pages_per_block;
    let stats = r.ssd.device().stats();
    let m = &mut out.metrics;
    m.set("core.gc_rounds", gc.invocations as f64);
    m.set("core.gc_pages_migrated", gc.pages_migrated as f64);
    m.set("core.gc_pages_scanned", gc.pages_scanned as f64);
    m.set("core.gc_dedup_drops", gc.dedup_hits as f64);
    m.set("core.gc_reclaim_per_erase", gc.pages_reclaimed_per_erase(ppb));
    m.set("core.gc_busy_sim_ms", gc.busy_ns as f64 / 1e6);
    m.set("flash.reads", stats.reads as f64);
    m.set("flash.programs", stats.programs as f64);
    m.set("flash.erases", stats.erases as f64);
    m.set("flash.ops_per_req", stats.total_ops() as f64 / requests as f64);
    m.set("flash.read_busy_sim_ms", stats.read_busy_ns as f64 / 1e6);
    m.set("flash.program_busy_sim_ms", stats.program_busy_ns as f64 / 1e6);
    m.set("flash.erase_busy_sim_ms", stats.erase_busy_ns as f64 / 1e6);
    m.set("flash.die_util_mean", rep.die_utilization.2);
    m.set("dedup.lookups", rep.index.lookups as f64);
    m.set("dedup.hits", rep.index.hits as f64);
    m.set("dedup.hit_rate", rep.dedup_hit_rate());
    m.set("dedup.inserts", rep.index.inserts as f64);
    m.set("dedup.removals", rep.index.removals as f64);
    m.set("lat_samples", r.host.as_ref().map_or(rep.all.count, |h| h.all.count) as f64);
    if let Some(t) = &rep.telemetry {
        m.set("trace.events_recorded", t.events_recorded as f64);
        m.set("trace.dropped_events", t.dropped_events as f64);
    }
}

/// Exact host-interface counts.
fn host_counts(h: &HostReport, out: &mut Output) {
    let m = &mut out.metrics;
    m.set("host.doorbells", h.doorbells as f64);
    m.set("host.irqs", h.irqs as f64);
    m.set("host.backlogged", h.backlogged as f64);
    m.set("host.pump_slices", h.pump_slices as f64);
    m.set("host.peak_occupancy", h.peak_occupancy as f64);
    m.set("host.queue_wait_p50_us", h.queue_wait.p50_ns as f64 / 1e3);
    m.set("host.queue_wait_p999_us", h.queue_wait.p999_ns as f64 / 1e3);
}

/// Time the simulator trace's export and in-process inspection.
fn trace_layer(ssd: &Ssd, root: SpanId, out: &mut Output) {
    let sp = &mut out.spans;
    let jsonl = sp.leaf("trace.export_jsonl", 0, Some(root), || ssd.trace_jsonl());
    std::hint::black_box(jsonl.len());
    sp.leaf("trace.inspect", 0, Some(root), || {
        let parsed = cagc_trace::from_tracer(ssd.tracer());
        let profile = cagc_trace::SpanProfile::from_spans(&parsed.spans);
        let anatomy = cagc_trace::GcAnatomy::from_spans(&parsed.spans);
        std::hint::black_box((profile, anatomy));
    });
    out.metrics.set("trace.export_jsonl_ms", out.spans.total_ms("trace.export_jsonl"));
    out.metrics.set("trace.inspect_ms", out.spans.total_ms("trace.inspect"));
}
