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
//! each leaf visit pays a bus crossing. Runs go through the shared
//! [`Driver`]; this module supplies the [`Workload`].

use crate::bcl::{build_design, image_of_values, RtConfig};
use crate::bvh::Bvh;
use bcl_core::design::Design;
use bcl_core::domain::{HW, SW};
use bcl_core::error::ElabError;
use bcl_core::sched::ExecBackend;
use bcl_core::value::Value;
use bcl_platform::cosim::RecoveryPolicy;
pub use bcl_platform::link::ml507_link;
use bcl_platform::link::{FaultConfig, LinkStats};
use bcl_platform::workload::{Driver, Run, Workload};
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

/// A partition tracing a scene: what the [`Driver`] runs.
#[derive(Debug, Clone)]
pub struct RtWorkload<'a> {
    partition: RtPartition,
    bvh: &'a Bvh,
    cfg: RtConfig,
}

impl<'a> RtWorkload<'a> {
    /// Partition `partition` tracing `bvh` at `width`×`height` pixels.
    pub fn new(partition: RtPartition, bvh: &'a Bvh, width: usize, height: usize) -> Self {
        RtWorkload {
            partition,
            bvh,
            cfg: partition.config(width, height),
        }
    }

    fn rays(&self) -> usize {
        self.cfg.width * self.cfg.height
    }
}

impl Workload for RtWorkload<'_> {
    fn design(&self) -> Result<Design, ElabError> {
        build_design(self.bvh, &self.cfg)
    }

    fn domains(&self) -> Vec<String> {
        // Partition E's fault model lands on the traversal accelerator.
        vec![self.cfg.trav.clone(), self.cfg.geom.clone()]
    }

    fn source(&self) -> (&str, Vec<Value>) {
        let pixels = (0..self.rays() as i64).map(|p| Value::int(32, p));
        ("pixSrc", pixels.collect())
    }

    fn sink(&self) -> (&str, usize) {
        ("bitmap", self.rays())
    }

    fn cycle_budget(&self) -> u64 {
        60_000 * self.rays() as u64 + 50_000
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
    fn new(w: &RtWorkload, run: Run) -> RtRun {
        let rays = w.rays();
        RtRun {
            partition: w.partition,
            fpga_cycles: run.fpga_cycles,
            sw_cpu_cycles: run.sw_cpu_cycles,
            link: run.link,
            image: image_of_values(&run.output, rays),
            rays,
            hw_partitions: run.hw_partitions,
            failed_over: run.failed_over,
            revived: run.revived,
            guard_evals: run.guard_evals,
            guard_evals_skipped: run.guard_evals_skipped,
        }
    }

    /// FPGA cycles per ray.
    pub fn cycles_per_ray(&self) -> f64 {
        self.fpga_cycles as f64 / self.rays.max(1) as f64
    }
}

/// Runs one partition over a scene on the production path
/// ([`ExecBackend::Compiled`]).
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
    let w = RtWorkload::new(which, bvh, width, height);
    Ok(RtRun::new(&w, Driver::new(&w).run()?))
}

/// The production path under the name the cross-checks use: identical
/// to [`run_partition`].
pub use run_partition as run_partition_compiled;

/// Runs one partition with a link fault model and a recovery policy for
/// scripted hardware-partition faults (checkpoint restart or software
/// failover); the rendered image stays bit-identical to a fault-free run.
/// The fault model applies to the first hardware partition — for
/// partition E that is the traversal accelerator.
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
    let w = RtWorkload::new(which, bvh, width, height);
    let run = Driver::new(&w).faults(faults).policy(policy).run()?;
    Ok(RtRun::new(&w, run))
}

/// Runs one partition on the reference executor ([`ExecBackend::Naive`]:
/// every guard re-evaluated every step by the AST interpreter). Cycle
/// counts and the image are identical to [`run_partition`]; only
/// simulator wall-clock time differs.
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
    let w = RtWorkload::new(which, bvh, width, height);
    let run = Driver::new(&w).backend(ExecBackend::Naive).run()?;
    Ok(RtRun::new(&w, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::build_bvh;
    use crate::geom::gen_rays;
    use crate::geom::make_scene;
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
