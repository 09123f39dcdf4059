//! Regeneration of every table and figure in the paper's evaluation,
//! plus the ablations DESIGN.md calls out.
//!
//! Each function renders a human-readable text block (what `repro` prints)
//! and, where applicable, returns CSV series via [`Artifacts`] so results
//! can be checked into `results/`.

use cagc_core::{run_cells, Scheme, SsdConfig};
use cagc_metrics::{bar_chart, reduction_pct, Table};
use cagc_workloads::{FiuWorkload, TraceProfile};
use cagc_ftl::VictimKind;

use crate::paper;
use crate::scale::Scale;
use cagc_core::RunReport;

/// A rendered experiment: the text block plus named CSV artifacts.
pub struct Artifacts {
    /// Human-readable result block.
    pub text: String,
    /// `(file_name, csv_content)` pairs.
    pub csv: Vec<(String, String)>,
}

impl Artifacts {
    fn text_only(text: String) -> Self {
        Self { text, csv: Vec::new() }
    }
}

/// The aged-device replay grid behind Figs. 9, 10, 11 and 12: every
/// workload × every scheme, on a device whose logical space is nearly full
/// (see `Scale::footprint_frac`).
pub struct AgedResults {
    /// Per workload (paper order), reports in `Scheme::ALL` order
    /// (Inline-Dedupe, Baseline, CAGC).
    pub runs: Vec<(FiuWorkload, Vec<RunReport>)>,
}

impl AgedResults {
    /// Reports for one workload: (inline, baseline, cagc).
    pub fn of(&self, w: FiuWorkload) -> (&RunReport, &RunReport, &RunReport) {
        let reports = &self.runs.iter().find(|(x, _)| *x == w).expect("workload present").1;
        (&reports[0], &reports[1], &reports[2])
    }
}

/// Run the aged grid once (shared by several figures).
pub fn run_aged(scale: &Scale) -> AgedResults {
    let flash = scale.flash();
    let mut cells = Vec::new();
    let mut traces = Vec::new();
    for w in FiuWorkload::ALL {
        traces.push(
            w.synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed)
                .generate(),
        );
    }
    for trace in &traces {
        for scheme in Scheme::ALL {
            cells.push((SsdConfig::paper(flash, scheme), trace));
        }
    }
    let reports = run_cells(&cells, scale.workers);
    let mut runs = Vec::new();
    for (i, w) in FiuWorkload::ALL.into_iter().enumerate() {
        runs.push((w, reports[i * 3..i * 3 + 3].to_vec()));
    }
    AgedResults { runs }
}

// ------------------------------------------------------------- Table I

/// Table I: the SSD configuration in force at this scale.
pub fn table1(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let geom = flash.geometry();
    let mut t = Table::new(vec!["Type", "Value", "Type ", "Value "]);
    t.row(vec![
        "Page Size".into(),
        format!("{}B", flash.page_size),
        "Read".into(),
        format!("{}us", flash.timing.read_ns / 1000),
    ]);
    t.row(vec![
        "Block Size".into(),
        format!("{}KB", flash.pages_per_block * flash.page_size / 1024),
        "Write".into(),
        format!("{}us", flash.timing.program_ns / 1000),
    ]);
    t.row(vec![
        "OP Space".into(),
        format!("{:.0}%", flash.op_ratio * 100.0),
        "Erase Delay".into(),
        format!("{:.1}ms", flash.timing.erase_ns as f64 / 1e6),
    ]);
    t.row(vec![
        "Capacity".into(),
        format!("{:.0}GB (paper: 80GB)", flash.physical_bytes() as f64 / (1u64 << 30) as f64),
        "Hash".into(),
        format!("{}us", flash.hash_ns / 1000),
    ]);
    t.row(vec![
        "Workloads".into(),
        "FIU-like synthetic [9]".into(),
        "GC Watermark".into(),
        format!("{:.0}% (of OP pool)", flash.gc_watermark * 100.0),
    ]);
    t.row(vec![
        "Geometry".into(),
        format!(
            "{}ch x {}die x {}pl x {}blk x {}pg",
            geom.channels,
            geom.dies_per_channel,
            geom.planes_per_die,
            geom.blocks_per_plane,
            geom.pages_per_block
        ),
        "Logical".into(),
        format!("{:.2}GB", flash.logical_bytes() as f64 / (1u64 << 30) as f64),
    ]);
    Artifacts::text_only(format!("Table I — SSD configuration\n\n{}", t.render()))
}

// ------------------------------------------------------------ Table II

/// Table II: generate each workload and verify its measured
/// characteristics against the published ones.
pub fn table2(scale: &Scale) -> Artifacts {
    let mut t = Table::new(vec![
        "Trace", "Write Ratio", "(paper)", "Dedup Ratio", "(paper) ", "Aver. Req. Size",
        "(paper)  ",
    ]);
    let mut csv = String::from("workload,write_ratio,paper_write_ratio,dedup_ratio,paper_dedup_ratio,mean_req_kb,paper_mean_req_kb\n");
    for (i, w) in FiuWorkload::ALL.into_iter().enumerate() {
        // Characterize the steady-state request mix (the paper's Table II
        // describes the traces themselves); the prefill phase used to age
        // the device is excluded here.
        let mut cfg = w.synth_config(scale.footprint_pages(w), scale.requests.min(50_000), scale.seed);
        cfg.prefill_fraction = 0.0;
        let trace = cfg.generate();
        let p = TraceProfile::of(&trace);
        let (_, pw, pd, pk) = (paper::TABLE2[i].0, paper::TABLE2[i].1, paper::TABLE2[i].2, paper::TABLE2[i].3);
        t.row(vec![
            w.name().to_string(),
            format!("{:.1}%", p.write_ratio * 100.0),
            format!("{:.1}%", pw * 100.0),
            format!("{:.1}%", p.dedup_ratio * 100.0),
            format!("{:.1}%", pd * 100.0),
            format!("{:.1}KB", p.mean_req_kb),
            format!("{:.1}KB", pk),
        ]);
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.2},{:.2}\n",
            w.name(),
            p.write_ratio,
            pw,
            p.dedup_ratio,
            pd,
            p.mean_req_kb,
            pk
        ));
    }
    Artifacts {
        text: format!(
            "Table II — workload characteristics (measured on generated traces vs paper)\n\n{}",
            t.render()
        ),
        csv: vec![("table2.csv".into(), csv)],
    }
}

// -------------------------------------------------------------- Fig 2

/// Fig. 2 (motivation): normalized response time of Inline-Dedupe vs
/// Baseline on a **fresh** (GC-free) device — the regime of the paper's
/// preliminary Z-NAND experiment.
pub fn fig2(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    // Size each trace so total writes stay far below device capacity:
    // footprint 15% of logical space, volume ≈ 25% of physical pages.
    let budget_pages = flash.geometry().total_pages() / 4;
    let mut traces = Vec::new();
    for w in FiuWorkload::ALL {
        let requests =
            (budget_pages as f64 / (w.write_ratio() * w.mean_req_pages())) as usize;
        let fp = (flash.logical_pages() as f64 * 0.15) as u64;
        let mut cfg = w.synth_config(fp, requests, scale.seed);
        cfg.prefill_fraction = 0.5;
        traces.push(cfg.generate());
    }
    let mut cells = Vec::new();
    for trace in &traces {
        for scheme in [Scheme::Baseline, Scheme::InlineDedup] {
            cells.push((SsdConfig::paper(flash, scheme), trace));
        }
    }
    let reports = run_cells(&cells, scale.workers);

    let mut text = String::from(
        "Fig. 2 — normalized response time, fresh ULL SSD (Baseline vs Inline-Dedupe)\n\
         paper: inline dedup raised response time up to 71.9% (avg 43.1%)\n\n",
    );
    let mut bars = Vec::new();
    let mut csv = String::from("workload,baseline_mean_us,inline_mean_us,normalized\n");
    let mut increases = Vec::new();
    for (i, w) in FiuWorkload::ALL.into_iter().enumerate() {
        let base = &reports[i * 2];
        let inline = &reports[i * 2 + 1];
        assert_eq!(base.gc.invocations, 0, "fig2 must be GC-free");
        let norm = inline.all.mean_ns / base.all.mean_ns;
        increases.push((norm - 1.0) * 100.0);
        bars.push((format!("{} Baseline", w.name()), 1.0));
        bars.push((format!("{} Inline-Dedupe", w.name()), norm));
        csv.push_str(&format!(
            "{},{:.2},{:.2},{:.4}\n",
            w.name(),
            base.all.mean_ns / 1000.0,
            inline.all.mean_ns / 1000.0,
            norm
        ));
    }
    text.push_str(&bar_chart(&bars, 40));
    text.push_str(&format!(
        "\nmeasured increase: avg {:.1}%, max {:.1}%  (paper: avg {:.1}%, max {:.1}%)\n",
        increases.iter().sum::<f64>() / increases.len() as f64,
        increases.iter().cloned().fold(f64::MIN, f64::max),
        paper::FIG2_INLINE_AVG_INCREASE_PCT,
        paper::FIG2_INLINE_MAX_INCREASE_PCT
    ));
    Artifacts { text, csv: vec![("fig2.csv".into(), csv)] }
}

// -------------------------------------------------------------- Fig 6

/// Fig. 6 (motivation): distribution of invalidated pages by the peak
/// reference count of their content, per workload.
pub fn fig6(aged: &AgedResults) -> Artifacts {
    let mut t = Table::new(vec!["Workload", "ref==1", "ref==2", "ref==3", "ref>3"]);
    let mut csv = String::from("workload,ref1,ref2,ref3,ref_gt3\n");
    let mut text = String::from(
        "Fig. 6 — invalidated pages by reference count (Inline-Dedupe run: every page tracked)\n\
         paper: >80% of invalidations from refcount-1 pages; <1% from refcount>3\n\n",
    );
    let mut avg = [0.0f64; 4];
    for w in FiuWorkload::ALL {
        let (inline, _, _) = aged.of(w);
        let b = inline.invalidation_by_refcount;
        let total: u64 = b.iter().sum();
        let f = b.map(|x| if total == 0 { 0.0 } else { x as f64 / total as f64 });
        for (a, v) in avg.iter_mut().zip(f) {
            *a += v / 3.0;
        }
        t.row(vec![
            w.name().to_string(),
            format!("{:.1}%", f[0] * 100.0),
            format!("{:.1}%", f[1] * 100.0),
            format!("{:.1}%", f[2] * 100.0),
            format!("{:.2}%", f[3] * 100.0),
        ]);
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            w.name(),
            f[0],
            f[1],
            f[2],
            f[3]
        ));
    }
    t.row(vec![
        "Average".to_string(),
        format!("{:.1}%", avg[0] * 100.0),
        format!("{:.1}%", avg[1] * 100.0),
        format!("{:.1}%", avg[2] * 100.0),
        format!("{:.2}%", avg[3] * 100.0),
    ]);
    text.push_str(&t.render());
    Artifacts { text, csv: vec![("fig6.csv".into(), csv)] }
}

// ---------------------------------------------------- Figs 9 / 10 / 11

fn reduction_figure(
    aged: &AgedResults,
    title: &str,
    paper_pct: &[f64; 3],
    metric: impl Fn(&RunReport) -> f64,
    file: &str,
) -> Artifacts {
    let mut text = format!("{title}\n\n");
    let mut t = Table::new(vec!["Workload", "Baseline", "CAGC", "Reduction", "(paper)"]);
    let mut csv = String::from("workload,baseline,cagc,reduction_pct,paper_reduction_pct\n");
    for (i, w) in FiuWorkload::ALL.into_iter().enumerate() {
        let (_, base, cagc) = aged.of(w);
        let (b, c) = (metric(base), metric(cagc));
        let red = reduction_pct(b, c);
        t.row(vec![
            w.name().to_string(),
            format!("{b:.0}"),
            format!("{c:.0}"),
            format!("{red:.1}%"),
            format!("{:.1}%", paper_pct[i]),
        ]);
        csv.push_str(&format!(
            "{},{:.1},{:.1},{:.2},{:.2}\n",
            w.name(),
            b,
            c,
            red,
            paper_pct[i]
        ));
    }
    text.push_str(&t.render());
    Artifacts { text, csv: vec![(file.into(), csv)] }
}

/// Fig. 9: number of flash blocks erased, Baseline vs CAGC.
pub fn fig9(aged: &AgedResults) -> Artifacts {
    reduction_figure(
        aged,
        "Fig. 9 — flash blocks erased (Baseline vs CAGC)",
        &paper::FIG9_ERASE_REDUCTION_PCT,
        |r| r.gc.blocks_erased as f64,
        "fig9.csv",
    )
}

/// Fig. 10: number of data pages migrated during GC, Baseline vs CAGC.
pub fn fig10(aged: &AgedResults) -> Artifacts {
    reduction_figure(
        aged,
        "Fig. 10 — data pages migrated during GC (Baseline vs CAGC)",
        &paper::FIG10_MIGRATION_REDUCTION_PCT,
        |r| r.gc.pages_migrated as f64,
        "fig10.csv",
    )
}

/// Fig. 11: normalized mean response time during GC periods, all three
/// schemes.
pub fn fig11(aged: &AgedResults) -> Artifacts {
    let mut text = String::from(
        "Fig. 11 — normalized mean response time during GC periods\n\
         (normalized to Baseline; paper reductions for CAGC: 33.6% / 29.6% / 70.1%)\n\n",
    );
    let mut bars = Vec::new();
    let mut csv =
        String::from("workload,scheme,mean_during_gc_us,normalized,paper_cagc_reduction_pct\n");
    for (i, w) in FiuWorkload::ALL.into_iter().enumerate() {
        let (inline, base, cagc) = aged.of(w);
        let bmean = base.gc_period_mean_ns();
        for r in [inline, base, cagc] {
            let norm = r.gc_period_mean_ns() / bmean;
            bars.push((format!("{} {}", w.name(), r.scheme), norm));
            csv.push_str(&format!(
                "{},{},{:.2},{:.4},{:.1}\n",
                w.name(),
                r.scheme,
                r.gc_period_mean_ns() / 1000.0,
                norm,
                paper::FIG11_RESPONSE_REDUCTION_PCT[i]
            ));
        }
    }
    text.push_str(&bar_chart(&bars, 40));
    for (i, w) in FiuWorkload::ALL.into_iter().enumerate() {
        let (_, base, cagc) = aged.of(w);
        text.push_str(&format!(
            "{}: CAGC reduces GC-period response time by {:.1}% (paper: {:.1}%)\n",
            w.name(),
            reduction_pct(base.gc_period_mean_ns(), cagc.gc_period_mean_ns()),
            paper::FIG11_RESPONSE_REDUCTION_PCT[i]
        ));
    }
    Artifacts { text, csv: vec![("fig11.csv".into(), csv)] }
}

// ------------------------------------------------------------- Fig 12

/// Fig. 12: response-time CDF, Baseline vs CAGC, per workload.
pub fn fig12(aged: &AgedResults) -> Artifacts {
    let mut text = String::from("Fig. 12 — response-time CDF (Baseline vs CAGC)\n\n");
    let mut csvs = Vec::new();
    for w in FiuWorkload::ALL {
        let (_, base, cagc) = aged.of(w);
        let mut csv = String::from("scheme,latency_us,cum_fraction\n");
        for (name, r) in [("Baseline", base), ("CAGC", cagc)] {
            for p in r.cdf.downsample(64) {
                csv.push_str(&format!(
                    "{name},{:.2},{:.5}\n",
                    p.value_ns as f64 / 1000.0,
                    p.fraction
                ));
            }
        }
        let b80 = base.cdf.value_at(0.80) as f64 / 1000.0;
        let c80 = cagc.cdf.value_at(0.80) as f64 / 1000.0;
        let b99 = base.cdf.value_at(0.99) as f64 / 1000.0;
        let c99 = cagc.cdf.value_at(0.99) as f64 / 1000.0;
        text.push_str(&format!(
            "{:>7}: 80% of requests within  CAGC {:>8.1}us | Baseline {:>8.1}us\n\
             {:>7}  99% of requests within  CAGC {:>8.1}us | Baseline {:>8.1}us\n",
            w.name(),
            c80,
            b80,
            "",
            c99,
            b99
        ));
        csvs.push((format!("fig12_{}.csv", w.name().to_lowercase().replace('-', "_")), csv));
    }
    text.push_str("\n(full curves in results/fig12_*.csv)\n");
    Artifacts { text, csv: csvs }
}

// ------------------------------------------------------------- Fig 13

/// Fig. 13: CAGC's reductions under Random / Greedy / Cost-Benefit victim
/// selection — (a) blocks erased, (b) pages migrated, (c) response time.
pub fn fig13(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let mut traces = Vec::new();
    for w in FiuWorkload::ALL {
        traces.push(
            w.synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed)
                .generate(),
        );
    }
    let mut cells = Vec::new();
    for trace in &traces {
        for policy in VictimKind::ALL {
            for scheme in [Scheme::Baseline, Scheme::Cagc] {
                let mut cfg = SsdConfig::paper(flash, scheme);
                cfg.victim = policy;
                cells.push((cfg, trace));
            }
        }
    }
    let reports = run_cells(&cells, scale.workers);

    let mut text = String::from(
        "Fig. 13 — CAGC's reduction vs Baseline under different victim-selection policies\n\n",
    );
    let mut csv = String::from(
        "workload,policy,erase_reduction_pct,migration_reduction_pct,response_reduction_pct\n",
    );
    let mut t = Table::new(vec![
        "Workload", "Policy", "Blocks erased", "Pages migrated", "Response time",
    ]);
    let mut idx = 0;
    for w in FiuWorkload::ALL {
        for policy in VictimKind::ALL {
            let base = &reports[idx];
            let cagc = &reports[idx + 1];
            idx += 2;
            let er = reduction_pct(base.gc.blocks_erased as f64, cagc.gc.blocks_erased as f64);
            let mr = reduction_pct(base.gc.pages_migrated as f64, cagc.gc.pages_migrated as f64);
            let rr = reduction_pct(base.gc_period_mean_ns(), cagc.gc_period_mean_ns());
            t.row(vec![
                w.name().to_string(),
                policy.name().to_string(),
                format!("{er:.1}%"),
                format!("{mr:.1}%"),
                format!("{rr:.1}%"),
            ]);
            csv.push_str(&format!(
                "{},{},{er:.2},{mr:.2},{rr:.2}\n",
                w.name(),
                policy.name()
            ));
        }
    }
    text.push_str(&t.render());
    text.push_str(
        "\n(values are % reductions, CAGC vs Baseline; paper: CAGC improves all three \
         metrics under all three policies, bars 10-90%)\n",
    );
    Artifacts { text, csv: vec![("fig13.csv".into(), csv)] }
}

// ----------------------------------------------------------- Ablations

/// Ablation: CAGC without refcount-based placement (everything hot).
pub fn ablate_placement(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let mut text = String::from(
        "Ablation — contribution of refcount-based hot/cold placement (Sec. III-C)\n\n",
    );
    let mut t = Table::new(vec![
        "Workload", "Metric", "Baseline", "CAGC (dedup only)", "CAGC (full)",
    ]);
    let mut csv = String::from("workload,variant,blocks_erased,pages_migrated,gc_mean_us\n");
    for w in FiuWorkload::ALL {
        let trace = w
            .synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed)
            .generate();
        let mut noplace = SsdConfig::paper(flash, Scheme::Cagc);
        noplace.placement = false;
        let cells = vec![
            (SsdConfig::paper(flash, Scheme::Baseline), &trace),
            (noplace, &trace),
            (SsdConfig::paper(flash, Scheme::Cagc), &trace),
        ];
        let reps = run_cells(&cells, scale.workers);
        t.row(vec![
            w.name().to_string(),
            "blocks erased".into(),
            reps[0].gc.blocks_erased.to_string(),
            reps[1].gc.blocks_erased.to_string(),
            reps[2].gc.blocks_erased.to_string(),
        ]);
        t.row(vec![
            String::new(),
            "pages migrated".into(),
            reps[0].gc.pages_migrated.to_string(),
            reps[1].gc.pages_migrated.to_string(),
            reps[2].gc.pages_migrated.to_string(),
        ]);
        for (variant, r) in
            [("baseline", &reps[0]), ("dedup_only", &reps[1]), ("full", &reps[2])]
        {
            csv.push_str(&format!(
                "{},{variant},{},{},{:.2}\n",
                w.name(),
                r.gc.blocks_erased,
                r.gc.pages_migrated,
                r.gc_period_mean_ns() / 1000.0
            ));
        }
    }
    text.push_str(&t.render());
    Artifacts { text, csv: vec![("ablate_placement.csv".into(), csv)] }
}

/// Ablation: hash/erase overlap (Sec. III-B) vs serialized GC hashing.
pub fn ablate_overlap(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let mut text = String::from(
        "Ablation — hash pipelining in GC (Sec. III-B): overlapped vs serialized\n\n",
    );
    let mut t = Table::new(vec![
        "Workload", "GC busy (overlap)", "GC busy (serial)", "GC-period mean (overlap)",
        "GC-period mean (serial)",
    ]);
    let mut csv = String::from("workload,variant,gc_busy_ms,gc_mean_us\n");
    for w in FiuWorkload::ALL {
        let trace = w
            .synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed)
            .generate();
        let mut serial = SsdConfig::paper(flash, Scheme::Cagc);
        serial.overlap_hash = false;
        let cells = vec![
            (SsdConfig::paper(flash, Scheme::Cagc), &trace),
            (serial, &trace),
        ];
        let reps = run_cells(&cells, scale.workers);
        t.row(vec![
            w.name().to_string(),
            format!("{:.1}ms", reps[0].gc.busy_ns as f64 / 1e6),
            format!("{:.1}ms", reps[1].gc.busy_ns as f64 / 1e6),
            format!("{:.1}us", reps[0].gc_period_mean_ns() / 1000.0),
            format!("{:.1}us", reps[1].gc_period_mean_ns() / 1000.0),
        ]);
        for (variant, r) in [("overlap", &reps[0]), ("serial", &reps[1])] {
            csv.push_str(&format!(
                "{},{variant},{:.3},{:.2}\n",
                w.name(),
                r.gc.busy_ns as f64 / 1e6,
                r.gc_period_mean_ns() / 1000.0
            ));
        }
    }
    text.push_str(&t.render());
    Artifacts { text, csv: vec![("ablate_overlap.csv".into(), csv)] }
}

/// Ablation: cold-region refcount threshold sweep.
pub fn ablate_threshold(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let thresholds = [1u32, 2, 4, 8];
    let mut text =
        String::from("Ablation — cold-region refcount threshold (Sec. III-C, default 1)\n\n");
    let mut t = Table::new(vec![
        "Workload", "Threshold", "Blocks erased", "Pages migrated", "Promotions",
    ]);
    let mut csv = String::from("workload,threshold,blocks_erased,pages_migrated,promotions\n");
    for w in FiuWorkload::ALL {
        let trace = w
            .synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed)
            .generate();
        let cells: Vec<_> = thresholds
            .iter()
            .map(|&th| {
                let mut cfg = SsdConfig::paper(flash, Scheme::Cagc);
                cfg.cold_threshold = th;
                (cfg, &trace)
            })
            .collect();
        let reps = run_cells(&cells, scale.workers);
        for (th, r) in thresholds.iter().zip(&reps) {
            t.row(vec![
                w.name().to_string(),
                th.to_string(),
                r.gc.blocks_erased.to_string(),
                r.gc.pages_migrated.to_string(),
                r.gc.promotions.to_string(),
            ]);
            csv.push_str(&format!(
                "{},{th},{},{},{}\n",
                w.name(),
                r.gc.blocks_erased,
                r.gc.pages_migrated,
                r.gc.promotions
            ));
        }
    }
    text.push_str(&t.render());
    Artifacts { text, csv: vec![("ablate_threshold.csv".into(), csv)] }
}

/// Extension study: GC cost vs space utilization. Dedup's GC benefit is
/// strongly non-linear in how full the device runs (the effect behind the
/// spread of Fig. 9's bars); this sweep measures erases and WAF for
/// Baseline and CAGC across footprints.
pub fn sweep_utilization(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let fracs = [0.70, 0.80, 0.90, 0.95, 0.97];
    let mut text = String::from(
        "Extension — GC cost vs space utilization (Web-vm characteristics)\n\n",
    );
    let mut t = Table::new(vec![
        "Footprint", "Scheme", "Blocks erased", "WAF", "GC-period mean",
    ]);
    let mut csv = String::from("footprint,scheme,blocks_erased,waf,gc_mean_us\n");
    let requests = scale.requests.min(100_000);
    for &frac in &fracs {
        let fp = (flash.logical_pages() as f64 * frac) as u64;
        let trace = FiuWorkload::WebVm.synth_config(fp, requests, scale.seed).generate();
        let cells = vec![
            (SsdConfig::paper(flash, Scheme::Baseline), &trace),
            (SsdConfig::paper(flash, Scheme::Cagc), &trace),
        ];
        let reps = run_cells(&cells, scale.workers);
        for r in &reps {
            t.row(vec![
                format!("{:.0}%", frac * 100.0),
                r.scheme.clone(),
                r.gc.blocks_erased.to_string(),
                format!("{:.3}", r.waf()),
                format!("{:.1}us", r.gc_period_mean_ns() / 1000.0),
            ]);
            csv.push_str(&format!(
                "{frac},{},{},{:.4},{:.2}\n",
                r.scheme,
                r.gc.blocks_erased,
                r.waf(),
                r.gc_period_mean_ns() / 1000.0
            ));
        }
    }
    text.push_str(&t.render());
    text.push_str(
        "\nBaseline GC cost grows sharply toward full devices; CAGC flattens the\n\
         curve because deduplication shrinks the live data the collector must carry.\n",
    );
    Artifacts { text, csv: vec![("sweep_utilization.csv".into(), csv)] }
}

/// Extension study: wear totals and wear evenness. Sec. II-C notes that
/// cold-data separation can skew wear under greedy selection — CAGC's
/// cold region is rarely erased, concentrating erases on hot blocks.
/// This measures both total wear (mean erase count, endurance) and its
/// spread (stddev, evenness) per scheme and policy.
pub fn wear_study(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let mut text = String::from(
        "Extension — wear totals and evenness (Sec. II-C's wear-leveling concern)\n\n",
    );
    let mut t = Table::new(vec![
        "Workload", "Policy", "Scheme", "Erase mean", "Erase max", "Erase stddev",
    ]);
    let mut csv =
        String::from("workload,policy,scheme,erase_mean,erase_max,erase_stddev\n");
    let requests = scale.requests.min(100_000);
    for w in [FiuWorkload::Mail, FiuWorkload::WebVm] {
        let trace =
            w.synth_config(scale.footprint_pages(w), requests, scale.seed).generate();
        for policy in [VictimKind::Greedy, VictimKind::CostBenefit] {
            let mut cells = Vec::new();
            for scheme in [Scheme::Baseline, Scheme::Cagc] {
                let mut cfg = SsdConfig::paper(flash, scheme);
                cfg.victim = policy;
                cells.push((cfg, &trace));
            }
            let reps = run_cells(&cells, scale.workers);
            for r in &reps {
                t.row(vec![
                    w.name().to_string(),
                    policy.name().to_string(),
                    r.scheme.clone(),
                    format!("{:.2}", r.wear.2),
                    r.wear.1.to_string(),
                    format!("{:.2}", r.wear_stddev),
                ]);
                csv.push_str(&format!(
                    "{},{},{},{:.3},{},{:.3}\n",
                    w.name(),
                    policy.name(),
                    r.scheme,
                    r.wear.2,
                    r.wear.1,
                    r.wear_stddev
                ));
            }
        }
    }
    text.push_str(&t.render());
    text.push_str(
        "\nCAGC cuts total wear (mean erase count) roughly in half — the endurance\n\
         win implied by Fig. 9 — and, in these runs, also narrows the per-block\n\
         spread. The skew Sec. II-C worries about (a never-erased cold region) did\n\
         not dominate here; cost-benefit selection keeps the spread tightest.\n",
    );
    Artifacts { text, csv: vec![("wear_study.csv".into(), csv)] }
}

/// Extension comparison: the inline-dedup design space (the paper's
/// Sec. I/V discusses CAFTL's sampling/pre-hash mitigation). Fresh-device
/// latency (the Fig. 2 axis) and dedup coverage for Inline-Dedupe vs the
/// CAFTL-style Inline-Sampled variant vs CAGC.
pub fn compare_inline(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let budget_pages = flash.geometry().total_pages() / 4;
    let mut text = String::from(
        "Extension — inline dedup variants on a fresh ULL device\n\
         (Inline-Sampled = CAFTL-style pre-hash screening, ~CAFTL [2] in the paper)\n\n",
    );
    let mut t = Table::new(vec![
        "Workload", "Scheme", "Mean resp (norm)", "Flash programs", "Dedup hits",
    ]);
    let mut csv = String::from("workload,scheme,mean_us,normalized,programs,dedup_hits\n");
    for w in FiuWorkload::ALL {
        let requests =
            (budget_pages as f64 / (w.write_ratio() * w.mean_req_pages())) as usize;
        let fp = (flash.logical_pages() as f64 * 0.15) as u64;
        let mut cfg = w.synth_config(fp, requests, scale.seed);
        cfg.prefill_fraction = 0.5;
        let trace = cfg.generate();
        let schemes =
            [Scheme::Baseline, Scheme::InlineDedup, Scheme::InlineSampled, Scheme::Cagc];
        let cells: Vec<_> =
            schemes.iter().map(|&s| (SsdConfig::paper(flash, s), &trace)).collect();
        let reports = run_cells(&cells, scale.workers);
        let base_mean = reports[0].all.mean_ns;
        for r in &reports {
            let norm = r.all.mean_ns / base_mean;
            t.row(vec![
                w.name().to_string(),
                r.scheme.clone(),
                format!("{:.1}us ({norm:.2}x)", r.all.mean_ns / 1000.0),
                r.total_programs.to_string(),
                r.index.hits.to_string(),
            ]);
            csv.push_str(&format!(
                "{},{},{:.2},{:.4},{},{}\n",
                w.name(),
                r.scheme,
                r.all.mean_ns / 1000.0,
                norm,
                r.total_programs,
                r.index.hits
            ));
        }
    }
    text.push_str(&t.render());
    text.push_str(
        "\nInline-Sampled recovers most of Inline-Dedupe's latency loss by skipping\n\
         fingerprints for first sightings, at the cost of storing one extra copy per\n\
         duplicated content; CAGC pays nothing on the write path at all.\n",
    );
    Artifacts { text, csv: vec![("compare_inline.csv".into(), csv)] }
}

/// Extension ablation: idle-period background GC (Sec. III-B notes SSDs
/// use idle periods for GC; the paper's evaluation triggers on the
/// watermark only). Measures how much foreground interference background
/// collection removes for Baseline and CAGC.
pub fn ablate_idle_gc(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let mut text = String::from(
        "Extension — idle-period background GC (off = paper's watermark-only trigger)\n\n",
    );
    let mut t = Table::new(vec![
        "Workload", "Scheme", "Idle GC", "GC-period mean", "p99", "Blocks erased",
    ]);
    let mut csv =
        String::from("workload,scheme,idle_gc,gc_mean_us,p99_us,blocks_erased\n");
    for w in FiuWorkload::ALL {
        let trace = w
            .synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed)
            .generate();
        let mut cells = Vec::new();
        for scheme in [Scheme::Baseline, Scheme::Cagc] {
            for idle in [false, true] {
                let mut cfg = SsdConfig::paper(flash, scheme);
                cfg.idle_gc = idle;
                cells.push((cfg, &trace));
            }
        }
        let reps = run_cells(&cells, scale.workers);
        for (i, r) in reps.iter().enumerate() {
            let idle = i % 2 == 1;
            t.row(vec![
                w.name().to_string(),
                r.scheme.clone(),
                if idle { "on" } else { "off" }.to_string(),
                format!("{:.1}us", r.gc_period_mean_ns() / 1000.0),
                format!("{:.1}us", r.all.p99_ns as f64 / 1000.0),
                r.gc.blocks_erased.to_string(),
            ]);
            csv.push_str(&format!(
                "{},{},{},{:.2},{:.2},{}\n",
                w.name(),
                r.scheme,
                idle,
                r.gc_period_mean_ns() / 1000.0,
                r.all.p99_ns as f64 / 1000.0,
                r.gc.blocks_erased
            ));
        }
    }
    text.push_str(&t.render());
    Artifacts { text, csv: vec![("ablate_idle_gc.csv".into(), csv)] }
}

/// Ablation: GC watermark sweep (Table I default: 20 % of the OP pool).
pub fn ablate_watermark(scale: &Scale) -> Artifacts {
    let watermarks = [0.10, 0.20, 0.30];
    let mut text = String::from("Ablation — GC trigger watermark (fraction of OP pool)\n\n");
    let mut t = Table::new(vec![
        "Workload", "Watermark", "Scheme", "Blocks erased", "GC-period mean",
    ]);
    let mut csv = String::from("workload,watermark,scheme,blocks_erased,gc_mean_us\n");
    for w in FiuWorkload::ALL {
        let trace = w
            .synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed)
            .generate();
        for &wm in &watermarks {
            let mut flash = scale.flash();
            flash.gc_watermark = wm;
            let cells = vec![
                (SsdConfig::paper(flash, Scheme::Baseline), &trace),
                (SsdConfig::paper(flash, Scheme::Cagc), &trace),
            ];
            let reps = run_cells(&cells, scale.workers);
            for r in &reps {
                t.row(vec![
                    w.name().to_string(),
                    format!("{:.0}%", wm * 100.0),
                    r.scheme.clone(),
                    r.gc.blocks_erased.to_string(),
                    format!("{:.1}us", r.gc_period_mean_ns() / 1000.0),
                ]);
                csv.push_str(&format!(
                    "{},{wm},{},{},{:.2}\n",
                    w.name(),
                    r.scheme,
                    r.gc.blocks_erased,
                    r.gc_period_mean_ns() / 1000.0
                ));
            }
        }
    }
    text.push_str(&t.render());
    Artifacts { text, csv: vec![("ablate_watermark.csv".into(), csv)] }
}

/// Extension study — trim sensitivity (Frankie et al.: trim acts as
/// dynamic overprovisioning). A Web-vm-like stream is trim-intensified at
/// several fractions with [`cagc_workloads::inject_trims`], then each
/// point is replayed twice: honoring the hints (`honor_trim = true`, the
/// default) and ignoring them (`honor_trim = false`, a trim-blind device).
/// The gap between the two arms is the write-amplification and erase
/// headroom the hints buy; it widens with trim intensity.
pub fn sweep_trim(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let fractions = [0.0, 0.05, 0.10, 0.20, 0.35];
    let mut text = String::from(
        "Extension — trim sensitivity (trim as dynamic overprovisioning)\n\
         (each workload point replayed honoring vs ignoring the same trim stream)\n\n",
    );
    let mut t = Table::new(vec![
        "Trim frac", "Scheme", "Honored", "Blocks erased", "Pages migrated",
        "Trim-reclaimed", "WAF",
    ]);
    let mut csv = String::from(
        "trim_fraction,scheme,honor_trim,blocks_erased,pages_migrated,trim_reclaimed_pages,waf\n",
    );
    let requests = scale.requests.min(60_000);
    let base = FiuWorkload::WebVm
        .synth_config(scale.footprint_pages(FiuWorkload::WebVm), requests, scale.seed)
        .generate();
    for &frac in &fractions {
        let trace = cagc_workloads::inject_trims(&base, frac, 6, scale.seed);
        let mut cells = Vec::new();
        for scheme in [Scheme::Baseline, Scheme::Cagc] {
            for honor in [true, false] {
                let mut cfg = SsdConfig::paper(flash, scheme);
                cfg.honor_trim = honor;
                cells.push((cfg, &trace));
            }
        }
        let reps = run_cells(&cells, scale.workers);
        for (i, r) in reps.iter().enumerate() {
            let honor = i % 2 == 0;
            t.row(vec![
                format!("{:.0}%", frac * 100.0),
                r.scheme.clone(),
                if honor { "yes" } else { "no" }.to_string(),
                r.gc.blocks_erased.to_string(),
                r.gc.pages_migrated.to_string(),
                r.gc.trim_reclaimed_pages.to_string(),
                format!("{:.3}", r.waf()),
            ]);
            csv.push_str(&format!(
                "{frac},{},{honor},{},{},{},{:.4}\n",
                r.scheme,
                r.gc.blocks_erased,
                r.gc.pages_migrated,
                r.gc.trim_reclaimed_pages,
                r.waf()
            ));
        }
    }
    text.push_str(&t.render());
    text.push_str(
        "\nHonoring trims strictly dominates ignoring them, and the gap widens with\n\
         trim intensity: every trimmed page is garbage the collector reclaims for\n\
         free instead of migrating — exactly the dynamic-overprovisioning effect\n\
         Frankie et al. analyze. See docs/TRIM.md for the data path.\n",
    );
    Artifacts { text, csv: vec![("sweep_trim.csv".into(), csv)] }
}

/// Extension study — fault sensitivity. A Web-vm-like stream is replayed
/// under rising program/erase/read-ECC fault rates (seeded, deterministic;
/// see docs/FAULTS.md); every fault is absorbed by the FTL's recovery
/// policies — program retries on fresh blocks, bad-block retirement on
/// erase failure, ECC re-reads with a heroic-decode fallback — so the
/// figure of merit is what that robustness *costs*: extra programs from
/// retries, capacity lost to retirement, and latency from backoffs and
/// re-reads.
pub fn sweep_faults(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    // (program, erase, read-ECC) failure probabilities per attempt. The
    // top point is far beyond healthy NAND; it bounds the envelope.
    let rates = [0.0, 1e-4, 1e-3, 5e-3, 2e-2];
    let mut text = String::from(
        "Extension — fault sensitivity (injected program/erase/read-ECC failures)\n\
         (all faults absorbed by FTL policy; columns show what absorption costs)\n\n",
    );
    let mut t = Table::new(vec![
        "Fault rate", "Scheme", "Prog fails", "Erase fails", "ECC errs",
        "Retired", "Forced", "WAF", "Mean us", "P99 us",
    ]);
    let mut csv = String::from(
        "fault_rate,scheme,program_failures,erase_failures,read_ecc_errors,\
         blocks_retired,program_retries,forced_programs,read_retries,ecc_decodes,\
         writes_rejected,waf,mean_us,p99_us\n",
    );
    let requests = scale.requests.min(60_000);
    let trace = FiuWorkload::WebVm
        .synth_config(scale.footprint_pages(FiuWorkload::WebVm), requests, scale.seed)
        .generate();
    for &rate in &rates {
        let mut cells = Vec::new();
        for scheme in [Scheme::Baseline, Scheme::Cagc] {
            let mut cfg = SsdConfig::paper(flash, scheme);
            cfg.faults = cagc_flash::FaultConfig {
                program_fail_prob: rate,
                erase_fail_prob: rate / 10.0,
                read_ecc_prob: rate,
                seed: scale.seed,
                ..cagc_flash::FaultConfig::none()
            };
            cells.push((cfg, &trace));
        }
        let reps = run_cells(&cells, scale.workers);
        for r in &reps {
            let f = &r.faults;
            t.row(vec![
                format!("{rate}"),
                r.scheme.clone(),
                f.program_failures.to_string(),
                f.erase_failures.to_string(),
                f.read_ecc_errors.to_string(),
                f.blocks_retired.to_string(),
                f.forced_programs.to_string(),
                format!("{:.3}", r.waf()),
                format!("{:.1}", r.all.mean_ns / 1_000.0),
                format!("{:.1}", r.all.p99_ns as f64 / 1_000.0),
            ]);
            csv.push_str(&format!(
                "{rate},{},{},{},{},{},{},{},{},{},{},{:.4},{:.2},{:.2}\n",
                r.scheme,
                f.program_failures,
                f.erase_failures,
                f.read_ecc_errors,
                f.blocks_retired,
                f.program_retries,
                f.forced_programs,
                f.read_retries,
                f.ecc_decodes,
                f.writes_rejected,
                r.waf(),
                r.all.mean_ns / 1_000.0,
                r.all.p99_ns as f64 / 1_000.0,
            ));
        }
    }
    text.push_str(&t.render());
    text.push_str(
        "\nFault handling is pay-as-you-go: the zero-rate row is bit-identical to a\n\
         fault-free build, and rising rates surface as retry programs (WAF) and\n\
         retry/backoff latency rather than as lost writes — no row ever loses\n\
         acknowledged data. Erase failures permanently retire blocks; at these\n\
         rates the capacity loss stays far from the read-only floor. See\n\
         docs/FAULTS.md for the fault model and recovery policies.\n",
    );
    Artifacts { text, csv: vec![("sweep_faults.csv".into(), csv)] }
}

// ------------------------------------------- Extension: queue-depth sweep

/// Extension study — queue-depth sensitivity through the NVMe-style
/// multi-queue host interface (`cagc-host`). A GC-heavy Mail-like stream
/// is replayed **closed-loop** (fio `iodepth` semantics: the host keeps
/// exactly QD commands outstanding) at rising depths, with the device's
/// preemptible GC off and on. Host-observed latency — submission to
/// completion interrupt — therefore includes every queueing effect the
/// synchronous replay cannot see: commands stuck behind a whole-victim GC
/// round stack up with QD, which is exactly where sliced GC earns its
/// keep.
///
/// The QD=1 / preempt-off cell doubles as the interface's anchor: it is
/// asserted byte-identical (device-side report) to the sequential
/// `t = process(at = t)` chain, so every other cell differs from the
/// golden synchronous path only by what the queues add.
pub fn sweep_qd(scale: &Scale, resilient: bool) -> Artifacts {
    use cagc_core::Ssd;
    use cagc_harness::pool::map_ordered;
    use cagc_harness::ToJson;
    use cagc_host::{HostConfig, HostInterface, HostReport};
    use cagc_workloads::Request;

    let flash = scale.flash();
    let requests = scale.requests.min(60_000);
    let trace = FiuWorkload::Mail
        .synth_config(scale.footprint_pages(FiuWorkload::Mail), requests, scale.seed)
        .generate();

    let depths: [u32; 6] = [1, 2, 4, 8, 16, 32];
    let cells: Vec<(u32, bool)> = depths
        .iter()
        .flat_map(|&qd| [(qd, false), (qd, true)])
        .collect();

    let device = |preempt: bool| {
        let mut cfg = SsdConfig::paper(flash, Scheme::Cagc);
        cfg.gc_preempt = preempt;
        cfg.gc_slice_pages = 8;
        cfg
    };
    let run_cell = |&(qd, preempt): &(u32, bool)| -> HostReport {
        let mut host_cfg = HostConfig::passthrough();
        host_cfg.queue_depth = qd;
        host_cfg.gc_pump = preempt;
        if resilient {
            // Arm the full resilience policy (deadline well above the
            // fault-free tail). On a fault-free device it must be
            // invisible: verify.sh gates that this sweep's CSVs stay
            // byte-identical with and without --resilient.
            host_cfg = host_cfg.with_resilience(1_000_000_000, 3, 50_000, 10_000, scale.seed);
        }
        let mut host = HostInterface::new(Ssd::new(device(preempt)), host_cfg);
        let report = host.replay_closed_loop(&trace);
        host.ssd().audit().expect("audit after sweep-qd cell");
        report
    };
    let reports = map_ordered(&cells, scale.workers, 1, run_cell);

    // Anchor: QD=1 preempt-off is the sequential synchronous chain.
    let mut reference = Ssd::new(device(false));
    let mut t = 0;
    for r in &trace.requests {
        t = reference.process(&Request { at_ns: t, ..r.clone() });
    }
    let want = reference.report(&trace.name).to_json().render();
    let qd1 = &reports[cells.iter().position(|&c| c == (1, false)).expect("cell present")];
    assert_eq!(
        qd1.device.to_json().render(),
        want,
        "QD=1 preempt-off must be byte-identical to the synchronous chain"
    );

    let mut text = String::from(
        "Extension — queue-depth sensitivity (closed-loop, multi-queue host interface)\n\
         (host-observed read latency: submission to completion interrupt)\n\n\
         QD=1 equivalence OK (device report byte-identical to synchronous chain)\n\n",
    );
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mut tab = Table::new(vec![
        "QD", "Preempt", "Read p50 us", "p95 us", "p99 us", "p99.9 us", "max us",
        "Write p99 us", "Mean us",
    ]);
    let mut csv = String::from(
        "workload,queue_pairs,queue_depth,preempt,reads_p50_us,reads_p95_us,reads_p99_us,\
         reads_p999_us,reads_max_us,writes_p99_us,all_mean_us,backlogged,irqs,pump_slices,\
         blocks_erased,waf\n",
    );
    for (&(qd, preempt), r) in cells.iter().zip(&reports) {
        tab.row(vec![
            qd.to_string(),
            if preempt { "on" } else { "off" }.to_string(),
            format!("{:.1}", us(r.reads.p50_ns)),
            format!("{:.1}", us(r.reads.p95_ns)),
            format!("{:.1}", us(r.reads.p99_ns)),
            format!("{:.1}", us(r.reads.p999_ns)),
            format!("{:.1}", us(r.reads.max_ns)),
            format!("{:.1}", us(r.writes.p99_ns)),
            format!("{:.1}", r.all.mean_ns / 1_000.0),
        ]);
        csv.push_str(&format!(
            "{},1,{qd},{preempt},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{:.4}\n",
            trace.name,
            us(r.reads.p50_ns),
            us(r.reads.p95_ns),
            us(r.reads.p99_ns),
            us(r.reads.p999_ns),
            us(r.reads.max_ns),
            us(r.writes.p99_ns),
            r.all.mean_ns / 1_000.0,
            r.backlogged,
            r.irqs,
            r.pump_slices,
            r.device.gc.blocks_erased,
            r.device.waf(),
        ));
    }
    text.push_str(&tab.render());

    // Fig. 12-style tail curves where the preemption gap lives: QD=8.
    let mut cdf_csv = String::from("source,queue_depth,preempt,latency_us,cum_frac\n");
    for (&(qd, preempt), r) in cells.iter().zip(&reports) {
        if qd != 8 {
            continue;
        }
        for p in r.read_cdf.downsample(96) {
            cdf_csv.push_str(&format!(
                "closed-loop,{qd},{preempt},{:.3},{:.6}\n",
                us(p.value_ns),
                p.fraction
            ));
        }
    }

    text.push_str(
        "\nRead p99 climbs with queue depth — deeper queues stack more commands\n\
         behind every GC round — and preemptible GC claws the extreme tail back:\n\
         at QD >= 8 the p99.9 read latency drops versus whole-victim GC because a\n\
         queued read waits for at most one migration quantum (gc_slice_pages)\n\
         instead of a full victim migration + erase. Medians are untouched; the\n\
         knob is tail-only, exactly as intended. See docs/HOST_INTERFACE.md.\n",
    );
    Artifacts {
        text,
        csv: vec![
            ("sweep_qd.csv".into(), csv),
            ("gc_preempt_cdf.csv".into(), cdf_csv),
        ],
    }
}

/// Extension — fleet-scale multi-tenant simulation: N devices, each
/// serving a tenant blend, fanned out over the deterministic dynamic
/// scheduler (`cagc_harness::pool::map_ordered`).
///
/// Four artifacts:
///
/// * `sweep_fleet.csv` — per-mix WAF / dedup / erase rollups over a
///   (fleet size × scheme) grid of direct-replay fleets;
/// * `fleet_qos.csv` — per-(mix, tenant) end-to-end latency percentiles
///   from the largest CAGC fleet replayed through the NVMe-style
///   multi-queue host interface (`cagc_host`);
/// * `fleet_timeline.csv` — the observability plane's time-resolved view
///   of a host-mode CAGC fleet with telemetry and SLO tracking armed:
///   per-device gauge series (namespaced `dev{id}/…`), exact `fleet/…`
///   merges, and per-tenant SLO violation-rate series
///   (`slo/{mix}/{tenant}`);
/// * an **acceptance gate** (asserted, and printed for the CI log):
///   measured steady-state WAF under uniform random traffic must track
///   the Li/Lee/Lui mean-field greedy-cleaning curve
///   (`cagc_fleet::analytic`) within tolerance, averaged over a small
///   fleet of independently seeded devices.
///
/// Every fleet run is byte-identical across worker counts (the property
/// `scripts/verify.sh` gates by comparing `--workers 1` against machine
/// parallelism); `--workers` sets the fan-out width.
pub fn sweep_fleet(scale: &Scale) -> Artifacts {
    use cagc_fleet::analytic::{uniform_validation, waf_fifo, waf_greedy, UniformValidation};
    use cagc_fleet::{run_fleet, FleetConfig, FleetTelemetryConfig, SloConfig, TenantMix};

    // The fleet grid runs tiny devices: fleet effects are cross-device,
    // and per-mix ratios are stable in device size (EXPERIMENTS.md).
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    let quick = scale.requests <= 60_000;
    let (fleet_sizes, requests_per_tenant): (&[usize], usize) =
        if quick { (&[4, 8], 300) } else { (&[8, 16, 32], 1_500) };

    let base = FleetConfig {
        devices: 0, // per cell
        mixes: TenantMix::all(),
        scheme: Scheme::Cagc, // per cell
        flash,
        requests_per_tenant,
        footprint_frac: 0.90,
        seed: scale.seed,
        // 3 groups against 4 mixes: coprime cycles, so same-mix devices
        // differ (group = d % 3 is not a function of mix = d % 4).
        seed_groups: 3,
        workers: scale.workers,
        chunk: 1,
        host_queues: None,
        faults: cagc_flash::FaultConfig::none(),
        gc_preempt: false,
        read_only_floor_blocks: None,
        telemetry: None, // armed only in the observability cell
        slo: None,
    };

    let mut text = String::from(
        "Extension — fleet-scale multi-tenant simulation\n\
         (N devices x per-tenant namespace blends, deterministic dynamic fan-out)\n\n",
    );
    let mut csv = String::from(
        "fleet_devices,scheme,mix,devices,waf,dedup_hit_rate,erases,host_pages,\
         gc_migrations,distinct_traces\n",
    );
    let mut tab = Table::new(vec![
        "Fleet", "Scheme", "Mix", "Devs", "WAF", "Dedup hit", "Erases",
    ]);
    let mut qos_csv = None;
    for &devices in fleet_sizes {
        for scheme in Scheme::ALL {
            let cfg = FleetConfig { devices, scheme, ..base.clone() };
            let rep = run_fleet(&cfg);
            for m in &rep.by_mix {
                tab.row(vec![
                    devices.to_string(),
                    scheme.name().to_string(),
                    m.mix.clone(),
                    m.devices.to_string(),
                    format!("{:.4}", m.totals.waf()),
                    format!("{:.4}", m.totals.dedup_hit_rate()),
                    m.totals.total_erases.to_string(),
                ]);
                csv.push_str(&format!(
                    "{},{},{},{},{:.4},{:.4},{},{},{},{}\n",
                    devices,
                    scheme.name(),
                    m.mix,
                    m.devices,
                    m.totals.waf(),
                    m.totals.dedup_hit_rate(),
                    m.totals.total_erases,
                    m.totals.host_pages_written,
                    m.totals.pages_migrated,
                    rep.distinct_traces,
                ));
            }
            // QoS artifact: the largest CAGC fleet, replayed end-to-end
            // through the NVMe-style multi-queue host interface so tenant
            // latency includes queueing, not just device service time.
            if scheme == Scheme::Cagc && devices == *fleet_sizes.last().expect("non-empty") {
                let host_cfg = FleetConfig { host_queues: Some((2, 8)), ..cfg.clone() };
                let host_rep = run_fleet(&host_cfg);
                text.push_str(&host_rep.render());
                text.push_str("\n\n");
                qos_csv = Some(host_rep.qos_csv());
            }
        }
    }
    // Observability cell: the smallest CAGC fleet, host-mode, with the
    // fleet observability plane armed — gauges-only telemetry per device
    // (namespaced and merged into the fleet timeline) plus per-tenant
    // SLO tracking against a 100 ms host-observed objective. The plane
    // cannot perturb the simulation (gated in cagc-fleet and by
    // scripts/verify.sh), so the grid's artifacts above are
    // byte-identical to an unobserved sweep; fleet_timeline.csv adds the
    // time-resolved view.
    let obs_cfg = FleetConfig {
        devices: fleet_sizes[0],
        scheme: Scheme::Cagc,
        host_queues: Some((2, 8)),
        telemetry: Some(FleetTelemetryConfig::gauges_only(100_000_000, 1)),
        slo: Some(SloConfig::uniform(100_000_000, 900, 100_000_000)),
        ..base.clone()
    };
    let obs_rep = run_fleet(&obs_cfg);
    text.push_str("Observability cell (host-mode CAGC fleet, gauges + per-tenant SLO armed):\n");
    text.push_str(&obs_rep.render());
    text.push_str("\n\n");
    let timeline_csv = obs_rep.timeline_csv();

    text.push_str(&tab.render());

    // Acceptance gate: a small fleet of independently seeded devices
    // under the analytic model's regime (uniform random single-page
    // overwrites, greedy victims, no dedup) must land on the mean-field
    // greedy curve. FIFO bounds it from above.
    let writes = if quick { 24_000 } else { 60_000 };
    let tolerance = if quick { 0.12 } else { 0.10 };
    let vals: Vec<UniformValidation> = (0..3)
        .map(|d| uniform_validation(flash, 0.95, writes, scale.seed.wrapping_add(d)))
        .collect();
    let measured = vals.iter().map(|v| v.measured).sum::<f64>() / vals.len() as f64;
    let rho = vals[0].rho;
    let (greedy, fifo) = (vals[0].greedy, vals[0].fifo);
    let rel_err = (measured - greedy).abs() / greedy;
    text.push_str(&format!(
        "\n\nAnalytic acceptance (Li/Lee/Lui mean-field, uniform random traffic):\n\
         \x20 rho {rho:.4}  measured WAF {measured:.3} (3-device fleet)  \
         greedy model {greedy:.3}  fifo model {fifo:.3}\n\
         \x20 fleet WAF tracks analytic greedy curve: rel err {:.1}% (tolerance {:.0}%) OK\n",
        rel_err * 100.0,
        tolerance * 100.0,
    ));
    assert!(
        rel_err < tolerance,
        "fleet WAF {measured:.3} strays from analytic greedy {greedy:.3} \
         (rel err {:.1}% > {:.0}%)",
        rel_err * 100.0,
        tolerance * 100.0,
    );
    assert!(measured < fifo * 1.10, "greedy cleaning must not exceed the FIFO bound");
    debug_assert!(waf_greedy(rho, 32) < waf_fifo(rho));

    text.push_str(
        "\nDedup-rich mixes (mail-heavy) hold the lowest WAF under CAGC — cross-\n\
         tenant duplicate writes dedupe inside a device — while noisy-neighbor\n\
         fleets erase the most per host page. Per-tenant latency percentiles\n\
         (fleet_qos.csv) come from the host-interface replay of the largest\n\
         CAGC fleet; see docs/FLEET.md.\n",
    );
    Artifacts {
        text,
        csv: vec![
            ("sweep_fleet.csv".into(), csv),
            ("fleet_qos.csv".into(), qos_csv.expect("CAGC cell ran at the largest fleet size")),
            (
                "fleet_timeline.csv".into(),
                timeline_csv.expect("the observability cell was armed"),
            ),
        ],
    }
}

/// Extension — chaos campaign: fault intensity × scheme × GC preemption
/// over fleets of deliberately tiny (32-block) devices whose read-only
/// floor spans the whole device, so a single retired block degrades the
/// cell and the remaining traffic drains as attributed failures.
///
/// Two asserted gates, printed for the CI log:
///
/// * **pay-as-you-go** — the zero-intensity column is byte-identical to
///   the same fleet with [`cagc_flash::FaultConfig::none`]: an armed but
///   silent fault plan must not perturb a single byte;
/// * **degradation** — every harsh-intensity cell degrades at least one
///   device and attributes its tenants' failed ops.
///
/// `sweep_chaos.csv` is byte-identical across worker counts (gated by
/// `scripts/verify.sh` like the fleet sweep).
pub fn sweep_chaos(scale: &Scale) -> Artifacts {
    use cagc_fleet::{run_fleet, FleetConfig, TenantMix};
    use cagc_harness::ToJson;

    let quick = scale.requests <= 60_000;
    let (devices, requests_per_tenant) = if quick { (4usize, 400usize) } else { (8, 800) };

    // Micro device: GC churns within a few hundred requests, so erase
    // failures land while the replay is still short (docs/FAULTS.md).
    let flash = cagc_flash::UllConfig {
        channels: 1,
        dies_per_channel: 2,
        planes_per_die: 1,
        blocks_per_plane: 16,
        pages_per_block: 8,
        page_size: 4096,
        op_ratio: 0.12,
        gc_watermark: 0.20,
        hash_ns: 14_000,
        timing: cagc_flash::Timing::ull(),
    };
    let base = FleetConfig {
        devices,
        mixes: vec![TenantMix::balanced(), TenantMix::noisy_neighbor()],
        scheme: Scheme::Cagc, // per cell
        flash,
        requests_per_tenant,
        footprint_frac: 0.90,
        seed: scale.seed,
        seed_groups: 2,
        workers: scale.workers,
        chunk: 1,
        host_queues: None,
        faults: cagc_flash::FaultConfig::none(), // per cell
        gc_preempt: false,                       // per cell
        // The whole device: the first retirement trips read-only, long
        // before repeated erase failures can bleed the GC reserve dry.
        read_only_floor_blocks: Some(flash.geometry().total_blocks()),
        telemetry: None,
        slo: None,
    };

    // Erase-failure probability is the intensity axis; correctable ECC
    // noise and the unrecoverable escalation ride along at fixed rates.
    let intensities: [(&str, f64); 3] = [("none", 0.0), ("mild", 0.0005), ("harsh", 0.01)];
    let cell = |intensity: f64, scheme: Scheme, gc_preempt: bool| FleetConfig {
        scheme,
        gc_preempt,
        faults: cagc_flash::FaultConfig {
            erase_fail_prob: intensity,
            read_ecc_prob: if intensity > 0.0 { 0.02 } else { 0.0 },
            unrecoverable_prob: if intensity > 0.0 { 0.3 } else { 0.0 },
            seed: scale.seed.wrapping_add(0xC4A0),
            ..cagc_flash::FaultConfig::none()
        },
        ..base.clone()
    };

    let mut text = String::from(
        "Extension — chaos campaign (fault intensity x scheme x GC preemption)\n\
         (micro-device fleets; read-only floor = whole device, so the first\n\
         \x20retired block degrades the cell and drains its tenants)\n\n",
    );
    let mut csv = String::from(
        "intensity,erase_fail_prob,scheme,preempt,devices,degraded_devices,\
         surviving_devices,failed_ops,first_degradation_ns,fleet_waf,survivor_waf,\
         total_erases\n",
    );
    let mut tab = Table::new(vec![
        "Intensity", "Scheme", "Preempt", "Degraded", "Failed ops", "WAF", "Survivor WAF",
    ]);
    let mut harsh_all_degrade = true;
    for &(label, p) in &intensities {
        for scheme in Scheme::ALL {
            for preempt in [false, true] {
                let rep = run_fleet(&cell(p, scheme, preempt));
                if label == "none" {
                    // Pay-as-you-go: an armed-but-silent plan (zero
                    // probabilities, nonzero seed) must not perturb a
                    // single byte vs. a fault-free fleet.
                    let clean = run_fleet(&FleetConfig {
                        scheme,
                        gc_preempt: preempt,
                        ..base.clone()
                    });
                    assert_eq!(
                        rep.to_json().render(),
                        clean.to_json().render(),
                        "zero-intensity chaos cell must match the fault-free fleet"
                    );
                    assert_eq!(rep.degraded_devices, 0);
                    assert_eq!(rep.failed_ops, 0);
                }
                if label == "harsh" && rep.degraded_devices == 0 {
                    harsh_all_degrade = false;
                }
                let survivors = rep.fleet.runs - rep.degraded_devices;
                let survivor_waf =
                    if survivors > 0 { rep.survivor_totals.waf() } else { f64::NAN };
                tab.row(vec![
                    label.to_string(),
                    scheme.name().to_string(),
                    if preempt { "on" } else { "off" }.to_string(),
                    format!("{}/{}", rep.degraded_devices, rep.fleet.runs),
                    rep.failed_ops.to_string(),
                    format!("{:.4}", rep.waf()),
                    format!("{survivor_waf:.4}"),
                ]);
                csv.push_str(&format!(
                    "{label},{p},{},{preempt},{},{},{survivors},{},{},{:.4},{survivor_waf:.4},{}\n",
                    scheme.name(),
                    rep.fleet.runs,
                    rep.degraded_devices,
                    rep.failed_ops,
                    rep.first_degradation_ns.unwrap_or(0),
                    rep.waf(),
                    rep.fleet.total_erases,
                ));
            }
        }
    }
    assert!(
        harsh_all_degrade,
        "every harsh-intensity cell must degrade at least one device"
    );
    text.push_str(&tab.render());
    text.push_str(
        "\nchaos gate OK: zero-fault cells byte-identical to the fault-free fleet,\n\
         every harsh cell degrades at least one device with tenant attribution.\n\
         Degraded cells reject writes as write-protected (NVMe 0x120) while\n\
         surviving devices keep serving; see docs/FAULTS.md.\n",
    );
    Artifacts { text, csv: vec![("sweep_chaos.csv".into(), csv)] }
}
