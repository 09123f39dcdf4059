//! The four workloads: what each generates and how each device is
//! configured. README.md says why each was chosen.

use cagc_core::{Scheme, SsdConfig, TraceConfig};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_fleet::{DeviceSpec, FleetConfig, TenantMix, TenantTrace, TraceLibrary};
use cagc_host::HostConfig;
use cagc_workloads::{FiuWorkload, Trace};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Mail on a 1 GB CAGC device, direct `Ssd::process` per request.
    MailReplay,
    /// The same shape, smaller, with 1-in-64 simulator tracing armed.
    MailTraced,
    /// Read-heavy Web-vm on Baseline behind the NVMe host interface.
    WebvmHost,
    /// A 128-device fleet of tenant mixes.
    FleetMixes,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] =
        [Workload::MailReplay, Workload::MailTraced, Workload::WebvmHost, Workload::FleetMixes];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MailReplay => "mail_replay",
            Workload::MailTraced => "mail_traced",
            Workload::WebvmHost => "webvm_host",
            Workload::FleetMixes => "fleet_mixes",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Fraction of a single device's logical space the trace addresses.
const FOOTPRINT: f64 = 0.95;
/// Fraction of a fleet device's logical space its tenants share.
const FLEET_FOOTPRINT: f64 = 0.90;
/// Web-vm's write share, lowered from Table II's 0.785 so reads matter.
const WEBVM_WRITE_RATIO: f64 = 0.30;

/// Tenant-trace variants per fleet slot. Coprime with the four mixes, so
/// the 128 devices cover all 28 (mix, variant) pairs; with 4 variants
/// device `d` would always pair mix `d % 4` with variant `d % 4`, leaving
/// four distinct devices and seed-to-seed latency swings of 20%.
const FLEET_SEED_GROUPS: usize = 7;

/// The fleet's device: the 32 MiB test device's capacity spread over 16
/// dies instead of 4. On 4 dies the three tenants outrun the device, its
/// queues grow for the whole run, and latency measures the backlog.
fn fleet_device() -> UllConfig {
    UllConfig {
        channels: 4,
        dies_per_channel: 4,
        blocks_per_plane: 16,
        ..UllConfig::tiny_for_tests()
    }
}

/// A workload at a size and seed.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated trace.
    pub seed: u64,
    /// Device shape (every fleet device has the same one).
    pub flash: UllConfig,
    /// Timed requests per trace, or per tenant for the fleet; the
    /// prefill that brings the empty device to steady state comes on top.
    pub requests: usize,
    /// Fleet devices (fleet only).
    pub devices: usize,
    /// Fleet fan-out workers, 0 = one per core (fleet only).
    pub workers: usize,
}

impl Plan {
    /// The benchmark's size.
    pub fn full(workload: Workload, seed: u64) -> Self {
        let gb = UllConfig::scaled_gb(1);
        let (flash, requests, devices) = match workload {
            Workload::MailReplay => (gb, 540_000, 0),
            Workload::MailTraced => (gb, 190_000, 0),
            Workload::WebvmHost => (gb, 580_000, 0),
            Workload::FleetMixes => (fleet_device(), 4_000, 128),
        };
        Self { workload, seed, flash, requests, devices, workers: 0 }
    }

    /// A small size on 32 MiB devices, for the tests.
    pub fn small(workload: Workload, seed: u64) -> Self {
        let (flash, requests, devices) = match workload {
            Workload::FleetMixes => (fleet_device(), 300, 8),
            _ => (UllConfig::tiny_for_tests(), 6_000, 0),
        };
        Self { workload, seed, flash, requests, devices, workers: 0 }
    }

    /// Whether this is the fleet workload.
    pub fn is_fleet(&self) -> bool {
        self.workload == Workload::FleetMixes
    }

    /// Generate the single-device trace.
    pub fn trace(&self) -> Trace {
        let pages = (self.flash.logical_pages() as f64 * FOOTPRINT) as u64;
        match self.workload {
            Workload::MailReplay | Workload::MailTraced => {
                FiuWorkload::Mail.synth_config(pages, self.requests, self.seed).generate()
            }
            Workload::WebvmHost => {
                let mut cfg = FiuWorkload::WebVm.synth_config(pages, self.requests, self.seed);
                cfg.write_ratio = WEBVM_WRITE_RATIO;
                cfg.generate()
            }
            Workload::FleetMixes => panic!("the fleet has no single trace"),
        }
    }

    /// The single device's configuration.
    pub fn ssd_config(&self) -> SsdConfig {
        match self.workload {
            Workload::WebvmHost => {
                let mut cfg = SsdConfig::paper(self.flash, Scheme::Baseline);
                cfg.gc_preempt = true;
                cfg.gc_slice_pages = 8;
                cfg
            }
            _ => SsdConfig::paper(self.flash, Scheme::Cagc),
        }
    }

    /// The NVMe host interface: in front of `webvm_host`'s device, and
    /// behind the host arm of `mail_replay`'s traced run. `nvme` arms the
    /// idle-window GC pump.
    pub fn host_config(&self) -> Option<HostConfig> {
        matches!(self.workload, Workload::WebvmHost | Workload::MailReplay)
            .then(|| HostConfig::nvme(2, 16))
    }

    /// Whether the workload itself replays through the host interface.
    pub fn via_host(&self) -> bool {
        self.workload == Workload::WebvmHost
    }

    /// The simulator's own tracer, if armed.
    pub fn sim_trace(&self) -> Option<TraceConfig> {
        (self.workload == Workload::MailTraced)
            .then(|| TraceConfig { sample: 64, ..TraceConfig::default() })
    }

    /// The fleet configuration at `workers` fan-out workers.
    pub fn fleet_config(&self, workers: usize) -> FleetConfig {
        FleetConfig {
            devices: self.devices,
            mixes: TenantMix::all(),
            scheme: Scheme::Cagc,
            flash: self.flash,
            requests_per_tenant: self.requests,
            footprint_frac: FLEET_FOOTPRINT,
            seed: self.seed,
            seed_groups: FLEET_SEED_GROUPS,
            workers,
            chunk: 1,
            host_queues: None,
            faults: FaultConfig::none(),
            gc_preempt: false,
            read_only_floor_blocks: None,
            telemetry: None,
            slo: None,
        }
    }
}

/// Rebuild the device specs `run_fleet` builds internally (its
/// `build_specs` is private), calling `get` around every
/// `TraceLibrary::get` so the caller can time each. The output check
/// that a serial fold over these specs renders byte-identical to
/// `run_fleet` proves the rebuild matches.
pub fn fleet_specs(
    cfg: &FleetConfig,
    lib: &mut TraceLibrary,
    mut timed: impl FnMut(usize, &mut dyn FnMut()),
) -> Vec<DeviceSpec> {
    let logical = cfg.flash.logical_pages();
    (0..cfg.devices)
        .map(|d| {
            let mix = &cfg.mixes[d % cfg.mixes.len()];
            let group = (d % cfg.seed_groups.max(1)) as u64;
            let per_tenant_pages =
                (logical as f64 * cfg.footprint_frac / mix.tenants.len() as f64) as u64;
            let mut tenants = Vec::with_capacity(mix.tenants.len());
            timed(d, &mut || {
                for (slot, ts) in mix.tenants.iter().enumerate() {
                    tenants.push(TenantTrace {
                        label: format!("{}[{slot}]", ts.workload.name()),
                        trace: lib.get(
                            ts.workload,
                            per_tenant_pages,
                            cfg.requests_per_tenant,
                            cfg.seed.wrapping_add(group * 1009 + slot as u64 * 523),
                            ts.rate_factor,
                        ),
                    });
                }
            });
            let mut faults = cfg.faults.clone();
            faults.seed = faults.seed.wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            DeviceSpec {
                id: d as u32,
                mix_name: mix.name.to_string(),
                scheme: cfg.scheme,
                flash: cfg.flash,
                tenants,
                host_queues: cfg.host_queues,
                faults,
                gc_preempt: cfg.gc_preempt,
                read_only_floor_blocks: cfg.read_only_floor_blocks,
                telemetry: cfg.telemetry.clone(),
                slo: cfg.slo.clone(),
            }
        })
        .collect()
}
