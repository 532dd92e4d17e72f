//! The workload driver's run modes on both evaluation applications, one
//! generic test body each: an autosaved run resumed from its snapshot
//! file, an in-process migration at half the run, and the reference
//! executor must all finish bit- and cycle-identical to a clean run.

use bcl_core::sched::ExecBackend;
use bcl_platform::persist::CheckpointPolicy;
use bcl_platform::workload::{Driver, Run, Workload};
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::make_scene;
use bcl_raytrace::partitions::{RtPartition, RtWorkload};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{VorbisPartition, VorbisWorkload};
use std::path::PathBuf;

/// A per-case scratch directory, removed when the case ends (pass or
/// fail).
struct TempDir(PathBuf);

impl TempDir {
    fn new(case: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("bcl_workload_driver_{case}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What must not change between two runs of the same workload.
fn observed(run: &Run) -> (u64, u64, &[bcl_core::value::Value]) {
    (run.fpga_cycles, run.sw_cpu_cycles, &run.output)
}

fn every_run_mode_matches_a_clean_run(case: &str, workload: &dyn Workload) {
    let clean = Driver::new(workload).run().unwrap();
    assert!(clean.fpga_cycles > 0);

    // Autosave three times over the run, then resume from the last
    // snapshot, as a process restarted after a crash would.
    let dir = TempDir::new(case);
    let autosave = CheckpointPolicy::new(clean.fpga_cycles / 3, &dir.0);
    let saved = Driver::new(workload)
        .run_autosaving(autosave.clone())
        .unwrap();
    assert_eq!(observed(&saved), observed(&clean), "{case}: autosave");
    let snapshot = autosave.snapshot_path();
    let mut probe = Driver::new(workload).build().unwrap();
    probe.resume_from_file(&snapshot).unwrap();
    assert!(
        probe.fpga_cycles > 0 && probe.fpga_cycles < clean.fpga_cycles,
        "{case}: the last autosave must be mid-run, got cycle {}",
        probe.fpga_cycles
    );
    let resumed = Driver::new(workload).resume_from_file(&snapshot).unwrap();
    assert_eq!(observed(&resumed), observed(&clean), "{case}: resume");
    assert_eq!(resumed.link, clean.link, "{case}: resume link traffic");
    let missing = dir.0.join("missing.bckp");
    assert!(
        Driver::new(workload).resume_from_file(&missing).is_err(),
        "{case}: resume must read the snapshot it is given"
    );

    let (migrated, bytes) = Driver::new(workload)
        .migrate_at(clean.fpga_cycles / 2)
        .unwrap();
    assert!(bytes > 0, "{case}: empty snapshot");
    assert_eq!(observed(&migrated), observed(&clean), "{case}: migrate");
    assert_eq!(migrated.link, clean.link, "{case}: migrate link traffic");

    let naive = Driver::new(workload)
        .backend(ExecBackend::Naive)
        .run()
        .unwrap();
    assert_eq!(observed(&naive), observed(&clean), "{case}: naive");
}

#[test]
fn vorbis_full_hardware_partition_survives_every_run_mode() {
    let frames = frame_stream(3, 21);
    let workload = VorbisWorkload::new(VorbisPartition::E, &frames);
    every_run_mode_matches_a_clean_run("vorbis_e", &workload);
}

#[test]
fn raytrace_three_domain_partition_survives_every_run_mode() {
    let bvh = build_bvh(&make_scene(48, 5));
    let workload = RtWorkload::new(RtPartition::E, &bvh, 4, 4);
    every_run_mode_matches_a_clean_run("raytrace_e", &workload);
}
