//! The four HW/SW decompositions of the ray tracer (Figure 14) and the
//! harness that measures them on the modeled platform (Figure 13, right).
//!
//! | Partition | BVH Trav + Box Inter + BVH Mem | Geom Inter | Scene Mem |
//! |---|---|---|---|
//! | A (full SW) | SW | SW | SW |
//! | B | SW | **HW** | SW (triangles shipped per request) |
//! | C | **HW** | **HW** | **HW** (on-chip block RAM) |
//! | D | **HW** | SW | SW |
//!
//! Ray Gen and the Bitmap always stay in software. The paper's findings:
//! C is fastest (intersection engine plus scene in BRAM — only rays and
//! hits cross the bus); B and D are *slower than all-software A* because
//! each leaf visit pays a bus crossing.

use crate::bcl::{build_design, image_of_values, RtConfig};
use crate::bvh::{build_bvh, Bvh};
use crate::geom::make_scene;
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::sched::{ExecBackend, Strategy, SwOptions};
use bcl_core::value::Value;
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use bcl_platform::link::{FaultConfig, LinkConfig, LinkStats};
use bcl_platform::PlatformError;

/// Domain name of the second accelerator in multi-accelerator
/// partitions (the first uses [`HW`]).
pub const HW2: &str = "HW2";

/// The partitions evaluated in Figure 13 (right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtPartition {
    /// Full software.
    A,
    /// Geometry intersection in hardware, scene memory in software.
    B,
    /// Traversal + intersection in hardware with on-chip scene memory.
    C,
    /// Traversal in hardware, geometry intersection + scene in software.
    D,
    /// Traversal and geometry intersection in *separate* accelerators
    /// (scene memory on-chip with the intersection engine): the
    /// three-domain decomposition exercising the multi-accelerator
    /// co-simulation — the request/response streams cross between the
    /// two hardware partitions.
    E,
}

impl RtPartition {
    /// All partitions in presentation order.
    pub const ALL: [RtPartition; 4] = [
        RtPartition::A,
        RtPartition::B,
        RtPartition::C,
        RtPartition::D,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            RtPartition::A => "A",
            RtPartition::B => "B",
            RtPartition::C => "C",
            RtPartition::D => "D",
            RtPartition::E => "E",
        }
    }

    /// Human-readable description.
    pub fn description(&self) -> &'static str {
        match self {
            RtPartition::A => "full SW",
            RtPartition::B => "Geom Inter in HW, scene in SW",
            RtPartition::C => "Trav+Geom in HW, scene in BRAM",
            RtPartition::D => "Trav in HW, Geom+scene in SW",
            RtPartition::E => "Trav and Geom+scene in separate accelerators",
        }
    }

    /// The builder configuration for this partition.
    pub fn config(&self, width: usize, height: usize) -> RtConfig {
        let (trav, geom, remote) = match self {
            RtPartition::A => (SW, SW, false),
            RtPartition::B => (SW, HW, true),
            RtPartition::C => (HW, HW, false),
            RtPartition::D => (HW, SW, false),
            RtPartition::E => (HW, HW2, false),
        };
        RtConfig {
            trav: trav.into(),
            geom: geom.into(),
            remote_scene: remote,
            width,
            height,
            depth: 4,
        }
    }
}

/// The modeled platform (same ML507 calibration as the Vorbis runs).
pub fn ml507_link() -> LinkConfig {
    LinkConfig {
        sw_word_cost: 32,
        ..Default::default()
    }
}

/// The result of tracing a scene under one partition.
#[derive(Debug, Clone)]
pub struct RtRun {
    /// Partition measured.
    pub partition: RtPartition,
    /// End-to-end execution time in FPGA cycles.
    pub fpga_cycles: u64,
    /// Software CPU cycles (rule work; driver time shows up in
    /// `fpga_cycles`).
    pub sw_cpu_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
    /// The rendered image, pixel order.
    pub image: Vec<i64>,
    /// Rays traced.
    pub rays: usize,
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

impl RtRun {
    /// FPGA cycles per ray.
    pub fn cycles_per_ray(&self) -> f64 {
        self.fpga_cycles as f64 / self.rays.max(1) as f64
    }
}

/// Runs one partition over a scene.
///
/// # Errors
///
/// Propagates build/partition/platform errors and simulation timeouts.
pub fn run_partition(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
) -> Result<RtRun, PlatformError> {
    run_partition_with_faults(which, bvh, width, height, FaultConfig::none())
}

/// Runs one partition over a scene on a link with deterministic fault
/// injection: the reliable transport must hide the faults, so the
/// rendered image is bit-identical to a fault-free run.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn run_partition_with_faults(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
) -> Result<RtRun, PlatformError> {
    run_partition_with_recovery(which, bvh, width, height, faults, RecoveryPolicy::Fail)
}

/// Runs one partition with a fault model and a recovery policy for
/// scripted hardware-partition faults (checkpoint restart or software
/// failover); the rendered image stays bit-identical to a fault-free run.
///
/// # Errors
///
/// Same conditions as [`run_partition`], plus partition loss when the
/// policy gives up.
pub fn run_partition_with_recovery(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
    policy: RecoveryPolicy,
) -> Result<RtRun, PlatformError> {
    run_partition_full(
        which,
        bvh,
        width,
        height,
        faults,
        policy,
        ExecBackend::Compiled,
    )
}

/// Runs one partition on the reference executor ([`ExecBackend::Naive`]:
/// every guard re-evaluated every step by the AST interpreter). Cycle
/// counts and the image are identical to [`run_partition`]; only
/// simulator wall-clock time differs. Used as the test oracle and
/// benchmark baseline for the production path.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn run_partition_naive(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
) -> Result<RtRun, PlatformError> {
    run_partition_full(
        which,
        bvh,
        width,
        height,
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        ExecBackend::Naive,
    )
}

/// Runs one partition on the production path ([`ExecBackend::Compiled`]:
/// closure-threaded native rules over the bit-packed flat arena) through
/// the [`build_cosim`]/[`run_built`] split. Cycle counts and the image
/// are identical to [`run_partition`].
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn run_partition_compiled(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
) -> Result<RtRun, PlatformError> {
    let cosim = build_cosim(which, bvh, width, height, ExecBackend::Compiled)?;
    run_built(cosim, which, width * height)
}

/// Builds the fault-free co-simulation for a partition on the given
/// executor backend, with the ray stream queued but nothing run yet.
/// Together with [`run_built`] this splits a partition run into its
/// one-time construction phase (elaborate + partition + lower rules)
/// and its simulation phase, so benchmarks can time them separately.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn build_cosim(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    backend: ExecBackend,
) -> Result<Cosim, PlatformError> {
    make_cosim(
        which,
        bvh,
        width,
        height,
        FaultConfig::none(),
        RecoveryPolicy::Fail,
        backend,
    )
}

/// Runs a co-simulation built by [`build_cosim`] to ray-stream
/// completion — the simulation phase of a partition run.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn run_built(cosim: Cosim, which: RtPartition, want: usize) -> Result<RtRun, PlatformError> {
    finish_run(cosim, which, want, false)
}

/// Builds the co-simulation for a partition exactly as every run entry
/// point does, with the ray stream queued. Deterministic in its
/// arguments, so two processes calling it with the same arguments get
/// interchangeable systems — the contract [`resume_partition`] and
/// [`run_partition_migrated`] rely on (the design fingerprint pins it).
pub fn make_cosim(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    backend: ExecBackend,
) -> Result<Cosim, PlatformError> {
    let cfg = which.config(width, height);
    let design = build_design(bvh, &cfg).map_err(|e| PlatformError::new(e.to_string()))?;
    let parts = partition(&design, SW).map_err(|e| PlatformError::new(e.to_string()))?;
    let sw_opts = SwOptions {
        strategy: Strategy::Dataflow,
        event_driven: backend.event_driven(),
        flat: backend.flat(),
        compiled: backend.compiled(),
        ..Default::default()
    };
    // One link configuration per distinct hardware domain; the fault
    // model (including scripted partition faults) applies to the first
    // one — for partition E that is the traversal accelerator.
    let mut hw_domains: Vec<&str> = Vec::new();
    for d in [cfg.trav.as_str(), cfg.geom.as_str()] {
        if d != SW && !hw_domains.contains(&d) {
            hw_domains.push(d);
        }
    }
    if hw_domains.is_empty() {
        // Keep the two-domain configuration shape for all-software runs.
        hw_domains.push(HW);
    }
    let cfgs: Vec<HwPartitionCfg> = hw_domains
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let c = HwPartitionCfg::new(d)
                .with_link(ml507_link())
                .with_event_driven(backend.event_driven())
                .with_compiled(backend.compiled());
            if i == 0 {
                c.with_faults(faults.clone())
            } else {
                c
            }
        })
        .collect();
    let mut cosim = Cosim::multi(&parts, SW, &cfgs, InterHwRouting::ViaHub, sw_opts)?;
    cosim.set_recovery_policy(policy);
    let rays = width * height;
    for p in 0..rays as i64 {
        cosim.push_source("pixSrc", Value::int(32, p));
    }
    Ok(cosim)
}

/// Runs a built co-simulation to image completion and assembles the
/// [`RtRun`]. Works identically for fresh and resumed systems.
fn finish_run(
    mut cosim: Cosim,
    which: RtPartition,
    rays: usize,
    faulty: bool,
) -> Result<RtRun, PlatformError> {
    let mut max_cycles = 60_000u64 * rays as u64 + 50_000;
    if faulty {
        max_cycles = max_cycles.saturating_mul(500);
    }
    let outcome = cosim
        .run_until(|c| c.sink_count("bitmap") == rays, max_cycles)
        .map_err(|e| PlatformError::new(e.to_string()))?;
    if !outcome.is_done() {
        return Err(PlatformError::new(format!(
            "partition {} did not finish ({outcome:?}) with {}/{} pixels",
            which.label(),
            cosim.sink_count("bitmap"),
            rays
        )));
    }
    let (guard_evals, guard_evals_skipped) = cosim.guard_eval_totals();
    Ok(RtRun {
        partition: which,
        fpga_cycles: outcome.fpga_cycles(),
        sw_cpu_cycles: cosim.sw.cpu_cycles(),
        link: cosim.link_stats(),
        image: image_of_values(cosim.sink_values("bitmap"), rays),
        rays,
        hw_partitions: cosim.hw_partition_count(),
        failed_over: cosim.failed_over(),
        revived: cosim.revived(),
        guard_evals,
        guard_evals_skipped,
    })
}

fn run_partition_full(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    backend: ExecBackend,
) -> Result<RtRun, PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let cosim = make_cosim(which, bvh, width, height, faults, policy, backend)?;
    finish_run(cosim, which, width * height, faulty)
}

/// Runs a partition while autosaving crash-consistent snapshots every
/// `interval` FPGA cycles into `dir` (see
/// [`CheckpointPolicy`](bcl_platform::persist::CheckpointPolicy)). If
/// the process dies mid-render, [`resume_partition`] picks the run back
/// up from the latest complete autosave, bit- and cycle-identically.
///
/// # Errors
///
/// Same conditions as [`run_partition_with_recovery`], plus snapshot
/// I/O failures.
#[allow(clippy::too_many_arguments)]
pub fn run_partition_autosaving(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    interval: u64,
    dir: &std::path::Path,
) -> Result<RtRun, PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let mut cosim = make_cosim(
        which,
        bvh,
        width,
        height,
        faults,
        policy,
        ExecBackend::Compiled,
    )?;
    cosim.set_autosave(bcl_platform::persist::CheckpointPolicy::new(interval, dir));
    finish_run(cosim, which, width * height, faulty)
}

/// Resumes a render from a snapshot file written by an autosaving run
/// (or an explicit [`Cosim::write_snapshot_file`]) in a fresh process:
/// rebuilds the co-simulation from the same arguments, restores the
/// snapshot into it, and finishes the image. The completed run is bit-
/// and cycle-identical to one that was never interrupted.
///
/// # Errors
///
/// Same conditions as [`run_partition_with_recovery`], plus every typed
/// snapshot error (corrupt bytes, wrong design, topology skew).
pub fn resume_partition(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    snapshot: &std::path::Path,
) -> Result<RtRun, PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let mut cosim = make_cosim(
        which,
        bvh,
        width,
        height,
        faults,
        policy,
        ExecBackend::Compiled,
    )?;
    cosim
        .resume_from_file(snapshot)
        .map_err(|e| PlatformError::new(e.to_string()))?;
    finish_run(cosim, which, width * height, faulty)
}

/// Live migration in-process: runs a partition to `split_cycle`,
/// serializes the whole system to bytes, restores them into a *freshly
/// built* co-simulation (exactly what a new process would construct),
/// and finishes the image there. Returns the completed run and the
/// snapshot size in bytes.
///
/// # Errors
///
/// Same conditions as [`run_partition_with_recovery`], plus every typed
/// snapshot error.
pub fn run_partition_migrated(
    which: RtPartition,
    bvh: &Bvh,
    width: usize,
    height: usize,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    split_cycle: u64,
) -> Result<(RtRun, usize), PlatformError> {
    let faulty = faults.is_active() || faults.has_partition_faults();
    let mut first = make_cosim(
        which,
        bvh,
        width,
        height,
        faults.clone(),
        policy,
        ExecBackend::Compiled,
    )?;
    let out = first
        .run_until(|c| c.fpga_cycles >= split_cycle, u64::MAX)
        .map_err(|e| PlatformError::new(e.to_string()))?;
    if !out.is_done() {
        return Err(PlatformError::new(format!(
            "partition {} never reached split cycle {split_cycle} ({out:?})",
            which.label()
        )));
    }
    let bytes = first
        .snapshot_bytes()
        .map_err(|e| PlatformError::new(e.to_string()))?;
    drop(first);
    let mut second = make_cosim(
        which,
        bvh,
        width,
        height,
        faults,
        policy,
        ExecBackend::Compiled,
    )?;
    second
        .resume_from(&mut bytes.as_slice())
        .map_err(|e| PlatformError::new(e.to_string()))?;
    let run = finish_run(second, which, width * height, faulty)?;
    Ok((run, bytes.len()))
}

/// Convenience: the paper's benchmark scene (1024 primitives).
pub fn paper_scene(seed: u64) -> Bvh {
    build_bvh(&make_scene(1024, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::gen_rays;
    use crate::native::render;

    #[test]
    fn every_partition_renders_identically() {
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        let want = render(&bvh, &gen_rays(w, h));
        for p in RtPartition::ALL {
            let run = run_partition(p, &bvh, w, h).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert_eq!(run.image, want, "partition {}", p.label());
        }
    }

    #[test]
    fn figure13_right_shape_holds() {
        // C fastest; B and D slower than all-software A (§7.2).
        let scene = make_scene(96, 17);
        let bvh = build_bvh(&scene);
        let (w, h) = (6, 6);
        let t = |p| {
            run_partition(p, &bvh, w, h)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"))
                .fpga_cycles
        };
        let (a, b, c, d) = (
            t(RtPartition::A),
            t(RtPartition::B),
            t(RtPartition::C),
            t(RtPartition::D),
        );
        assert!(c < a, "C ({c}) must beat full software ({a})");
        assert!(b > a, "B ({b}) must lose to full software ({a})");
        assert!(d > a, "D ({d}) must lose to full software ({a})");
    }

    #[test]
    fn partition_faults_recover_to_identical_image() {
        use bcl_platform::link::PartitionFault;
        let scene = make_scene(16, 2);
        let bvh = build_bvh(&scene);
        let clean = run_partition(RtPartition::C, &bvh, 2, 2).unwrap();
        let restart = run_partition_with_recovery(
            RtPartition::C,
            &bvh,
            2,
            2,
            FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(2_000)),
            RecoveryPolicy::restart(1_000),
        )
        .unwrap();
        assert_eq!(restart.image, clean.image);
        assert_eq!(restart.fpga_cycles, clean.fpga_cycles);
        let failover = run_partition_with_recovery(
            RtPartition::C,
            &bvh,
            2,
            2,
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(2_000)),
            RecoveryPolicy::failover(1_000),
        )
        .unwrap();
        assert_eq!(failover.image, clean.image);
    }

    #[test]
    fn three_domain_partition_renders_identically_and_survives_death() {
        use bcl_platform::link::PartitionFault;
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        let want = render(&bvh, &gen_rays(w, h));
        let clean = run_partition(RtPartition::E, &bvh, w, h).unwrap();
        assert_eq!(clean.image, want, "partition E output mismatch");
        assert_eq!(clean.hw_partitions, 2, "E runs two accelerators");
        // Kill the traversal accelerator mid-render: the image must come
        // out bit-identical, with the intersection accelerator still in
        // hardware at the end.
        let die_at = clean.fpga_cycles / 2;
        let failover = run_partition_with_recovery(
            RtPartition::E,
            &bvh,
            w,
            h,
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(die_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
        )
        .unwrap();
        assert!(
            failover.fpga_cycles > die_at,
            "the fault must strike mid-render"
        );
        assert_eq!(failover.image, clean.image);
        assert!(failover.failed_over);
        assert_eq!(
            failover.hw_partitions, 1,
            "the intersection accelerator must survive in hardware"
        );
    }

    #[test]
    fn traversal_death_then_revival_finishes_render_in_hardware() {
        use bcl_platform::link::PartitionFault;
        // Full lifecycle on the two-accelerator partition: the traversal
        // accelerator dies mid-render, software absorbs it (the
        // intersection accelerator keeps running in hardware), then a
        // scripted revival splices traversal back out into hardware and
        // the render finishes with both accelerators live.
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        let clean = run_partition(RtPartition::E, &bvh, w, h).unwrap();
        let die_at = clean.fpga_cycles / 2;
        // Shortly after the failover grace period (die_at / 4): with the
        // intersection accelerator still in hardware the software-owned
        // phase is not dramatically slower, so an early revival is the
        // only schedule guaranteed to fire before the render completes.
        let revive_at = die_at + die_at / 2;
        let run = run_partition_with_recovery(
            RtPartition::E,
            &bvh,
            w,
            h,
            FaultConfig::none()
                .with_partition_fault(PartitionFault::DieAt(die_at))
                .with_partition_fault(PartitionFault::ReviveAt(revive_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
        )
        .unwrap();
        assert!(run.failed_over, "the death must strike mid-render");
        assert!(run.revived, "the revival must fire before the render ends");
        assert_eq!(
            run.image, clean.image,
            "die → failover → revive must not change the image"
        );
        assert_eq!(
            run.hw_partitions, 2,
            "both accelerators must finish the render in hardware"
        );
    }

    #[test]
    fn compiled_backend_is_cycle_identical_on_partitions() {
        let scene = make_scene(48, 5);
        let bvh = build_bvh(&scene);
        let (w, h) = (4, 4);
        for p in [RtPartition::A, RtPartition::C] {
            let base = run_partition_naive(p, &bvh, w, h).unwrap();
            let compiled = run_partition_compiled(p, &bvh, w, h).unwrap();
            assert_eq!(compiled.image, base.image, "partition {}", p.label());
            assert_eq!(
                compiled.fpga_cycles,
                base.fpga_cycles,
                "partition {}",
                p.label()
            );
            assert_eq!(
                compiled.sw_cpu_cycles,
                base.sw_cpu_cycles,
                "partition {}",
                p.label()
            );
        }
    }

    #[test]
    fn full_sw_has_no_traffic() {
        let scene = make_scene(16, 2);
        let bvh = build_bvh(&scene);
        let run = run_partition(RtPartition::A, &bvh, 2, 2).unwrap();
        assert_eq!(run.link.msgs_to_hw, 0);
    }

    #[test]
    fn partition_b_ships_triangles() {
        let scene = make_scene(16, 2);
        let bvh = build_bvh(&scene);
        let b = run_partition(RtPartition::B, &bvh, 2, 2).unwrap();
        let c = run_partition(RtPartition::C, &bvh, 2, 2).unwrap();
        assert!(
            b.link.words_to_hw > c.link.words_to_hw,
            "B ({} words) carries triangle data; C ({} words) only rays",
            b.link.words_to_hw,
            c.link.words_to_hw
        );
    }
}
