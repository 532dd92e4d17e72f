//! The six HW/SW decompositions of the Vorbis back-end (Figure 12) and
//! the harness that measures them on the modeled platform (Figure 13,
//! left).
//!
//! | Partition | IMDCT FSMs + tables | IFFT core | Window |
//! |---|---|---|---|
//! | F (full SW) | SW | SW | SW |
//! | A | SW | SW | **HW** |
//! | B | SW | **HW** | SW |
//! | C | SW | **HW** | **HW** |
//! | D | **HW** | **HW** | SW |
//! | E (full HW back-end) | **HW** | **HW** | **HW** |
//!
//! The input stream always originates in software (the Vorbis front end
//! is plain C++ in the paper) and the PCM output is always consumed in
//! software. Runs go through the shared [`Driver`]; this module supplies
//! the [`Workload`].

use crate::bcl::{build_design, frame_value, pcm_of_values, BackendOptions, VorbisDomains};
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

/// The partitions evaluated in Figure 13 (left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VorbisPartition {
    /// Window in hardware; IMDCT and IFFT in software.
    A,
    /// IFFT core in hardware.
    B,
    /// IFFT core and window in hardware, IMDCT in software.
    C,
    /// IMDCT and IFFT in hardware, window in software.
    D,
    /// Entire back-end in hardware.
    E,
    /// Entire back-end in software.
    F,
    /// IMDCT and IFFT in one accelerator, windowing in a second: the
    /// three-domain decomposition exercising the multi-accelerator
    /// co-simulation (the `chPost` stream crosses between the two
    /// hardware partitions).
    G,
}

impl VorbisPartition {
    /// All partitions, in the paper's presentation order.
    pub const ALL: [VorbisPartition; 6] = [
        VorbisPartition::A,
        VorbisPartition::B,
        VorbisPartition::C,
        VorbisPartition::D,
        VorbisPartition::E,
        VorbisPartition::F,
    ];

    /// The label used in Figure 13.
    pub fn label(&self) -> &'static str {
        match self {
            VorbisPartition::A => "A",
            VorbisPartition::B => "B",
            VorbisPartition::C => "C",
            VorbisPartition::D => "D",
            VorbisPartition::E => "E",
            VorbisPartition::F => "F",
            VorbisPartition::G => "G",
        }
    }

    /// Human-readable description of the hardware contents.
    pub fn description(&self) -> &'static str {
        match self {
            VorbisPartition::A => "window in HW",
            VorbisPartition::B => "IFFT in HW",
            VorbisPartition::C => "IFFT + window in HW",
            VorbisPartition::D => "IMDCT + IFFT in HW",
            VorbisPartition::E => "full back-end in HW",
            VorbisPartition::F => "full SW",
            VorbisPartition::G => "IMDCT + IFFT in one accelerator, window in a second",
        }
    }

    /// Domain placement for this partition.
    pub fn domains(&self) -> VorbisDomains {
        if let VorbisPartition::G = self {
            return VorbisDomains {
                imdct: HW.to_string(),
                ifft: HW.to_string(),
                window: HW2.to_string(),
            };
        }
        let pick = |hw: bool| if hw { HW.to_string() } else { SW.to_string() };
        let (imdct, ifft, window) = match self {
            VorbisPartition::A => (false, false, true),
            VorbisPartition::B => (false, true, false),
            VorbisPartition::C => (false, true, true),
            VorbisPartition::D => (true, true, false),
            VorbisPartition::E => (true, true, true),
            VorbisPartition::F => (false, false, false),
            VorbisPartition::G => unreachable!(),
        };
        VorbisDomains {
            imdct: pick(imdct),
            ifft: pick(ifft),
            window: pick(window),
        }
    }
}

/// A partition decoding a frame stream: what the [`Driver`] runs.
#[derive(Debug, Clone, Copy)]
pub struct VorbisWorkload<'a> {
    partition: VorbisPartition,
    frames: &'a [Vec<i64>],
}

impl<'a> VorbisWorkload<'a> {
    /// Partition `partition` decoding `frames`.
    pub fn new(partition: VorbisPartition, frames: &'a [Vec<i64>]) -> Self {
        VorbisWorkload { partition, frames }
    }
}

impl Workload for VorbisWorkload<'_> {
    fn design(&self) -> Result<Design, ElabError> {
        build_design(&BackendOptions {
            domains: self.partition.domains(),
            ..Default::default()
        })
    }

    fn domains(&self) -> Vec<String> {
        let d = self.partition.domains();
        vec![d.imdct, d.ifft, d.window]
    }

    fn source(&self) -> (&str, Vec<Value>) {
        ("src", self.frames.iter().map(|f| frame_value(f)).collect())
    }

    fn sink(&self) -> (&str, usize) {
        ("audioDev", self.frames.len())
    }

    fn cycle_budget(&self) -> u64 {
        // Even the slowest partition needs < 40k cycles/frame.
        40_000 * self.frames.len() as u64 + 10_000
    }
}

/// The result of running one partition over a frame stream.
#[derive(Debug, Clone)]
pub struct VorbisRun {
    /// Partition measured.
    pub partition: VorbisPartition,
    /// End-to-end execution time in FPGA cycles (the Figure 13 metric).
    pub fpga_cycles: u64,
    /// CPU cycles consumed by the software partition (incl. driver work).
    pub sw_cpu_cycles: u64,
    /// Link traffic.
    pub link: LinkStats,
    /// Decoded PCM stream.
    pub pcm: Vec<i64>,
    /// Frames decoded.
    pub frames: usize,
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

impl VorbisRun {
    fn new(w: &VorbisWorkload, run: Run) -> VorbisRun {
        VorbisRun {
            partition: w.partition,
            fpga_cycles: run.fpga_cycles,
            sw_cpu_cycles: run.sw_cpu_cycles,
            link: run.link,
            pcm: pcm_of_values(&run.output),
            frames: w.frames.len(),
            hw_partitions: run.hw_partitions,
            failed_over: run.failed_over,
            revived: run.revived,
            guard_evals: run.guard_evals,
            guard_evals_skipped: run.guard_evals_skipped,
        }
    }

    /// FPGA cycles per frame.
    pub fn cycles_per_frame(&self) -> f64 {
        self.fpga_cycles as f64 / self.frames.max(1) as f64
    }
}

/// Runs a partition over a frame stream on the modeled platform, on the
/// production path ([`ExecBackend::Compiled`]).
///
/// # Errors
///
/// Propagates elaboration/partitioning/platform errors (all of which
/// indicate internal bugs rather than user error) and simulation timeouts.
pub fn run_partition(
    which: VorbisPartition,
    frames: &[Vec<i64>],
) -> Result<VorbisRun, PlatformError> {
    let w = VorbisWorkload::new(which, frames);
    Ok(VorbisRun::new(&w, Driver::new(&w).run()?))
}

/// The production path under the name the cross-checks use: identical
/// to [`run_partition`].
pub use run_partition as run_partition_compiled;

/// Runs a partition with a link fault model and a recovery policy for
/// scripted hardware-partition faults: the reliable transport hides
/// link faults, restart-from-checkpoint replays to the exact fault-free
/// trajectory, failover-to-software finishes the stream with the lost
/// partition fused into software (any other accelerators keep running
/// in hardware). Either way the decoded PCM is bit-identical to a
/// fault-free run.
///
/// The fault model applies to the *first* hardware partition — for the
/// multi-accelerator partition G that is the IMDCT+IFFT accelerator.
///
/// # Errors
///
/// Same conditions as [`run_partition`], plus partition loss when the
/// policy gives up.
pub fn run_partition_with_recovery(
    which: VorbisPartition,
    frames: &[Vec<i64>],
    faults: FaultConfig,
    policy: RecoveryPolicy,
) -> Result<VorbisRun, PlatformError> {
    let w = VorbisWorkload::new(which, frames);
    let run = Driver::new(&w).faults(faults).policy(policy).run()?;
    Ok(VorbisRun::new(&w, run))
}

/// Runs a partition on the reference executor ([`ExecBackend::Naive`]:
/// every guard re-evaluated every step by the AST interpreter). Cycle
/// counts and PCM are identical to [`run_partition`]; only simulator
/// wall-clock time differs.
///
/// # Errors
///
/// Same conditions as [`run_partition`].
pub fn run_partition_naive(
    which: VorbisPartition,
    frames: &[Vec<i64>],
) -> Result<VorbisRun, PlatformError> {
    let w = VorbisWorkload::new(which, frames);
    let run = Driver::new(&w).backend(ExecBackend::Naive).run()?;
    Ok(VorbisRun::new(&w, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::frame_stream;
    use crate::native::NativeBackend;

    #[test]
    fn every_partition_decodes_identically() {
        let frames = frame_stream(3, 21);
        let expected = NativeBackend::new().run(&frames);
        for p in VorbisPartition::ALL {
            let run = run_partition(p, &frames).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert_eq!(run.pcm, expected, "partition {} output mismatch", p.label());
            assert!(run.fpga_cycles > 0);
        }
    }

    #[test]
    fn partition_faults_recover_to_identical_pcm() {
        use bcl_platform::link::PartitionFault;
        let frames = frame_stream(2, 21);
        let clean = run_partition(VorbisPartition::E, &frames).unwrap();
        // Mid-decode reset, restart from checkpoint: identical PCM *and*
        // identical end-to-end time (the replay converges to the
        // fault-free trajectory).
        let restart = run_partition_with_recovery(
            VorbisPartition::E,
            &frames,
            FaultConfig::none().with_partition_fault(PartitionFault::ResetAt(5_000)),
            RecoveryPolicy::restart(2_000),
        )
        .unwrap();
        assert_eq!(restart.pcm, clean.pcm);
        assert_eq!(restart.fpga_cycles, clean.fpga_cycles);
        // Mid-decode death, software takeover: identical PCM, slower.
        let failover = run_partition_with_recovery(
            VorbisPartition::E,
            &frames,
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(5_000)),
            RecoveryPolicy::failover(2_000),
        )
        .unwrap();
        assert_eq!(failover.pcm, clean.pcm);
    }

    #[test]
    fn accelerator_death_then_revival_finishes_decode_in_hardware() {
        use bcl_platform::link::PartitionFault;
        // The full lifecycle on the all-hardware partition: the
        // accelerator dies mid-decode, software takes over, then a
        // scripted revival moves the live state back into hardware and
        // the decode finishes there — bit-identical to the clean run.
        let frames = frame_stream(2, 21);
        let clean = run_partition(VorbisPartition::E, &frames).unwrap();
        let die_at = clean.fpga_cycles / 2;
        // Well inside the software-owned phase: software decodes at a
        // fraction of hardware speed, so one clean-run-length after the
        // death it still has most of the remaining frames queued.
        let revive_at = die_at + clean.fpga_cycles;
        let run = run_partition_with_recovery(
            VorbisPartition::E,
            &frames,
            FaultConfig::none()
                .with_partition_fault(PartitionFault::DieAt(die_at))
                .with_partition_fault(PartitionFault::ReviveAt(revive_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
        )
        .unwrap();
        assert!(run.failed_over, "the death must strike mid-decode");
        assert!(run.revived, "the revival must fire before the decode ends");
        assert_eq!(
            run.pcm, clean.pcm,
            "die → failover → revive must not change the PCM"
        );
        assert_eq!(
            run.hw_partitions, 1,
            "the decode must finish back in hardware"
        );
    }

    #[test]
    fn three_domain_partition_decodes_identically() {
        let frames = frame_stream(3, 21);
        let expected = NativeBackend::new().run(&frames);
        let run = run_partition(VorbisPartition::G, &frames).unwrap();
        assert_eq!(run.pcm, expected, "G output mismatch");
        assert_eq!(run.hw_partitions, 2, "G runs two accelerators");
        assert!(!run.failed_over);
    }

    #[test]
    fn three_domain_accelerator_death_fails_over_survivor_stays_in_hw() {
        use bcl_platform::link::PartitionFault;
        // The headline multi-accelerator scenario: the IMDCT+IFFT
        // accelerator dies mid-stream, the run completes bit-identical to
        // the fault-free decode, and the window accelerator keeps
        // executing in hardware throughout.
        let frames = frame_stream(3, 21);
        let clean = run_partition(VorbisPartition::G, &frames).unwrap();
        let die_at = clean.fpga_cycles / 2;
        let failover = run_partition_with_recovery(
            VorbisPartition::G,
            &frames,
            FaultConfig::none().with_partition_fault(PartitionFault::DieAt(die_at)),
            RecoveryPolicy::failover((die_at / 4).max(1)),
        )
        .unwrap();
        assert!(
            failover.fpga_cycles > die_at,
            "the fault must strike mid-stream"
        );
        assert_eq!(failover.pcm, clean.pcm, "death must not corrupt the PCM");
        assert!(failover.failed_over);
        assert_eq!(
            failover.hw_partitions, 1,
            "the window accelerator must survive in hardware"
        );
    }

    #[test]
    fn compiled_backend_is_cycle_identical_on_partitions() {
        let frames = frame_stream(2, 21);
        for p in [VorbisPartition::E, VorbisPartition::F] {
            let base = run_partition_naive(p, &frames).unwrap();
            let compiled = run_partition_compiled(p, &frames).unwrap();
            assert_eq!(compiled.pcm, base.pcm, "partition {}", p.label());
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
    fn full_sw_has_no_link_traffic() {
        let frames = frame_stream(2, 3);
        let run = run_partition(VorbisPartition::F, &frames).unwrap();
        assert_eq!(run.link.msgs_to_hw, 0);
        assert_eq!(run.link.msgs_to_sw, 0);
    }

    #[test]
    fn full_hw_crosses_only_frames_and_pcm() {
        let frames = frame_stream(2, 3);
        let run = run_partition(VorbisPartition::E, &frames).unwrap();
        // chIn: K words per frame; chOut: K words per frame.
        assert_eq!(run.link.words_to_hw, (2 * crate::kernel::K) as u64);
        assert_eq!(run.link.words_to_sw, (2 * crate::kernel::K) as u64);
    }

    #[test]
    fn per_partition_traffic_matches_the_analysis() {
        // Words per frame crossing the bus, per partition (the §7.1
        // communication analysis): raw frame = 32 words, complex frame =
        // 128, real frame = 64, PCM = 32.
        let frames = frame_stream(4, 1);
        let words = |p| {
            let r = run_partition(p, &frames).unwrap();
            ((r.link.words_to_hw + r.link.words_to_sw) / 4) as usize
        };
        assert_eq!(
            words(VorbisPartition::A),
            64 + 32,
            "real frame over, PCM back"
        );
        assert_eq!(
            words(VorbisPartition::B),
            128 + 128,
            "complex frame each way"
        );
        assert_eq!(
            words(VorbisPartition::C),
            128 + 128 + 64 + 32,
            "four crossings"
        );
        assert_eq!(words(VorbisPartition::D), 32 + 64, "raw over, real back");
        assert_eq!(words(VorbisPartition::E), 32 + 32, "raw over, PCM back");
        assert_eq!(words(VorbisPartition::F), 0);
    }

    #[test]
    fn figure13_shape_holds_on_small_stream() {
        // The qualitative claims of §7.1, on a short stream:
        //  - E is the fastest;
        //  - A and C are slower than F (window/IFFT moves don't pay);
        //  - D beats F (one crossing, frame-granularity transfers).
        let frames = frame_stream(12, 77);
        let t = |p| run_partition(p, &frames).unwrap().fpga_cycles;
        let (a, c, d, e, f) = (
            t(VorbisPartition::A),
            t(VorbisPartition::C),
            t(VorbisPartition::D),
            t(VorbisPartition::E),
            t(VorbisPartition::F),
        );
        assert!(e < f, "E ({e}) must beat F ({f})");
        assert!(e < d, "E ({e}) must beat D ({d})");
        assert!(d < f, "D ({d}) must beat F ({f})");
        assert!(a > f, "A ({a}) must be slower than F ({f})");
        assert!(c > f, "C ({c}) must be slower than F ({f})");
    }
}
