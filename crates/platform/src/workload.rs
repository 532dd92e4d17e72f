//! One driver for every evaluation application.
//!
//! An application (the Vorbis back-end, the ray tracer) supplies a
//! [`Workload`]: its elaborated design under one domain map, the domain
//! placement, the input stream and the sink that ends a run. The
//! [`Driver`] owns everything else — the co-simulation's construction,
//! running it to completion under a fault model and recovery policy,
//! assembling the [`Run`] counters, autosave, resume from a snapshot
//! file and in-process migration — so repartitioning an application
//! costs only its domain annotations.
//!
//! Construction is fixed, so two processes driving the same workload
//! build interchangeable systems (the snapshot's design fingerprint
//! certifies it):
//!
//! * the software partition is the hub ([`SW`]), scheduled with
//!   [`Strategy::Dataflow`] on the chosen [`ExecBackend`];
//! * one hardware partition per distinct hardware domain, in order of
//!   first appearance in [`Workload::domains`], each on the
//!   [`ml507_link`]; an all-software map keeps one unused [`HW`]
//!   partition so the platform shape is the same;
//! * the fault model applies to the *first* hardware partition only;
//! * channels between two accelerators route through the hub
//!   ([`InterHwRouting::ViaHub`]).

use crate::cosim::{Cosim, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use crate::link::{ml507_link, FaultConfig, LinkStats};
use crate::persist::CheckpointPolicy;
use crate::PlatformError;
use bcl_core::design::Design;
use bcl_core::domain::{HW, SW};
use bcl_core::error::ElabError;
use bcl_core::partition::partition;
use bcl_core::sched::{ExecBackend, Strategy, SwOptions};
use bcl_core::value::Value;
use std::path::Path;

/// What an evaluation application supplies to be run by the [`Driver`].
pub trait Workload {
    /// Elaborates the design under this workload's domain map.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors.
    fn design(&self) -> Result<Design, ElabError>;

    /// The domain of each placeable component, in configuration order;
    /// software and repeated domains may appear.
    fn domains(&self) -> Vec<String>;

    /// The source the input stream is queued on, and the stream.
    fn source(&self) -> (&str, Vec<Value>);

    /// The sink the output arrives on, and the number of values on it
    /// that completes a run.
    fn sink(&self) -> (&str, usize);

    /// FPGA cycles a fault-free run may take before it counts as hung.
    fn cycle_budget(&self) -> u64;
}

/// The counters and output of a completed run.
#[derive(Debug, Clone)]
pub struct Run {
    /// End-to-end execution time in FPGA cycles.
    pub fpga_cycles: u64,
    /// CPU cycles consumed by the software partition (incl. driver work).
    pub sw_cpu_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
    /// The values the sink consumed, in arrival order.
    pub output: Vec<Value>,
    /// Hardware partitions still executing in hardware at the end of the
    /// run (partitions spliced into software by a failover don't count).
    pub hw_partitions: usize,
    /// True if a partition was failed over to software during the run.
    pub failed_over: bool,
    /// True if a software-owned partition was revived back into hardware
    /// during the run.
    pub revived: bool,
    /// Guards actually evaluated across all schedulers (cache hits are
    /// excluded; naive mode would evaluate `guard_evals +
    /// guard_evals_skipped` times).
    pub guard_evals: u64,
    /// Guard evaluations the event-driven schedulers skipped.
    pub guard_evals_skipped: u64,
}

/// Runs a [`Workload`] on the modeled platform: by default on
/// [`ExecBackend::Compiled`], over a fault-free link, with
/// [`RecoveryPolicy::Fail`].
pub struct Driver<'w, W: ?Sized> {
    workload: &'w W,
    backend: ExecBackend,
    faults: FaultConfig,
    policy: RecoveryPolicy,
}

fn err(e: impl std::fmt::Display) -> PlatformError {
    PlatformError::new(e.to_string())
}

impl<'w, W: Workload + ?Sized> Driver<'w, W> {
    /// A fault-free production-path driver for `workload`.
    pub fn new(workload: &'w W) -> Self {
        Driver {
            workload,
            backend: ExecBackend::Compiled,
            faults: FaultConfig::none(),
            policy: RecoveryPolicy::Fail,
        }
    }

    /// Runs on `backend` instead.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Injects `faults` on the first hardware partition's link. Runs
    /// with faults get 500× the fault-free cycle budget.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Recovers from scripted partition faults with `policy`.
    pub fn policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the co-simulation with the input stream queued and
    /// nothing run yet — the construction phase of a run.
    ///
    /// # Errors
    ///
    /// Elaboration, partitioning and platform errors (all of which
    /// indicate internal bugs rather than user error).
    pub fn build(&self) -> Result<Cosim, PlatformError> {
        let design = self.workload.design().map_err(err)?;
        let parts = partition(&design, SW).map_err(err)?;
        let backend = self.backend;
        let sw_opts = SwOptions {
            strategy: Strategy::Dataflow,
            event_driven: backend.event_driven(),
            flat: backend.flat(),
            compiled: backend.compiled(),
            ..Default::default()
        };
        let mut hw_domains: Vec<String> = Vec::new();
        for d in self.workload.domains() {
            if d != SW && !hw_domains.contains(&d) {
                hw_domains.push(d);
            }
        }
        if hw_domains.is_empty() {
            hw_domains.push(HW.to_string());
        }
        let cfgs: Vec<HwPartitionCfg> = hw_domains
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let cfg = HwPartitionCfg::new(d)
                    .with_link(ml507_link())
                    .with_event_driven(backend.event_driven())
                    .with_compiled(backend.compiled());
                if i == 0 {
                    cfg.with_faults(self.faults.clone())
                } else {
                    cfg
                }
            })
            .collect();
        let mut cosim = Cosim::multi(&parts, SW, &cfgs, InterHwRouting::ViaHub, sw_opts)?;
        cosim.set_recovery_policy(self.policy);
        let (source, values) = self.workload.source();
        for v in values {
            cosim.push_source(source, v);
        }
        Ok(cosim)
    }

    /// Runs a co-simulation from [`Driver::build`] (fresh or resumed) to
    /// completion and assembles the [`Run`] — the simulation phase.
    ///
    /// # Errors
    ///
    /// Simulation errors, and runs that stall or exhaust the budget.
    pub fn finish(&self, mut cosim: Cosim) -> Result<Run, PlatformError> {
        let (sink, want) = self.workload.sink();
        let mut budget = self.workload.cycle_budget();
        if self.faults.is_active() || self.faults.has_partition_faults() {
            // Retransmission rounds multiply the fault-free time.
            budget = budget.saturating_mul(500);
        }
        let outcome = cosim
            .run_until(|c| c.sink_count(sink) == want, budget)
            .map_err(err)?;
        if !outcome.is_done() {
            return Err(PlatformError::new(format!(
                "run did not finish ({outcome:?}) with {}/{want} values on `{sink}`",
                cosim.sink_count(sink)
            )));
        }
        let (guard_evals, guard_evals_skipped) = cosim.guard_eval_totals();
        Ok(Run {
            fpga_cycles: outcome.fpga_cycles(),
            sw_cpu_cycles: cosim.sw.cpu_cycles(),
            link: cosim.link_stats(),
            output: cosim.sink_values(sink).to_vec(),
            hw_partitions: cosim.hw_partition_count(),
            failed_over: cosim.failed_over(),
            revived: cosim.revived(),
            guard_evals,
            guard_evals_skipped,
        })
    }

    /// Builds and runs to completion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Driver::build`] and [`Driver::finish`].
    pub fn run(&self) -> Result<Run, PlatformError> {
        self.finish(self.build()?)
    }

    /// Runs to completion while writing crash-consistent snapshots as
    /// `autosave` says; if the process dies mid-run,
    /// [`Driver::resume_from_file`] picks the run back up from the
    /// latest complete snapshot, bit- and cycle-identically.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Driver::run`], plus snapshot I/O failures.
    pub fn run_autosaving(&self, autosave: CheckpointPolicy) -> Result<Run, PlatformError> {
        let mut cosim = self.build()?;
        cosim.set_autosave(autosave);
        self.finish(cosim)
    }

    /// Rebuilds the co-simulation (as a fresh process would), restores
    /// the snapshot file into it, and runs to completion. The completed
    /// run is bit- and cycle-identical to one never interrupted.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Driver::run`], plus every typed snapshot
    /// error (corrupt bytes, wrong design, topology skew).
    pub fn resume_from_file(&self, snapshot: &Path) -> Result<Run, PlatformError> {
        let mut cosim = self.build()?;
        cosim.resume_from_file(snapshot).map_err(err)?;
        self.finish(cosim)
    }

    /// Live migration in-process: runs to `split_cycle`, serializes the
    /// whole system to bytes, restores them into a freshly built
    /// co-simulation and finishes there. Returns the completed run and
    /// the snapshot size in bytes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Driver::run`], plus every typed snapshot
    /// error.
    pub fn migrate_at(&self, split_cycle: u64) -> Result<(Run, usize), PlatformError> {
        let mut first = self.build()?;
        let out = first
            .run_until(|c| c.fpga_cycles >= split_cycle, u64::MAX)
            .map_err(err)?;
        if !out.is_done() {
            return Err(PlatformError::new(format!(
                "run never reached split cycle {split_cycle} ({out:?})"
            )));
        }
        let bytes = first.snapshot_bytes().map_err(err)?;
        drop(first);
        let mut second = self.build()?;
        second.resume_from(&mut bytes.as_slice()).map_err(err)?;
        Ok((self.finish(second)?, bytes.len()))
    }
}
