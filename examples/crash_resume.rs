//! Crash-consistent autosave: a child process decodes a long Vorbis
//! stream while autosaving a `BCKP` snapshot every few hundred FPGA
//! cycles. The parent waits for the first autosave to land, then kills
//! the child with SIGKILL — no signal handler, no flushing, the worst
//! possible death. Because every autosave is written atomically (temp
//! file + fsync + rename), the snapshot on disk is always a complete,
//! CRC-verified consistent cut; the parent resumes the decode from it in
//! this process and checks the finished run is bit- and cycle-identical
//! to one that was never interrupted.
//!
//! ```sh
//! cargo run --release --example crash_resume
//! ```

use bcl_platform::persist::CheckpointPolicy;
use bcl_platform::workload::Driver;
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{VorbisPartition, VorbisWorkload};
use std::process::Command;
use std::time::{Duration, Instant};

const AUTOSAVE_INTERVAL: u64 = 200;

fn frames() -> Vec<Vec<i64>> {
    // Long enough that the child is still decoding when the kill lands.
    frame_stream(64, 21)
}

/// Child half: decode with autosave armed. This process will be killed
/// without warning; it never gets to exit cleanly.
fn child(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    let frames = frames();
    let workload = VorbisWorkload::new(VorbisPartition::E, &frames);
    Driver::new(&workload).run_autosaving(CheckpointPolicy::new(AUTOSAVE_INTERVAL, dir))?;
    Ok(())
}

fn parent() -> Result<(), Box<dyn std::error::Error>> {
    let frames = frames();
    let workload = VorbisWorkload::new(VorbisPartition::E, &frames);
    let dir = std::env::temp_dir().join(format!("bcl_crash_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let snapshot = dir.join("autosave.bckp");

    // The uninterrupted reference the resumed run must match exactly.
    let reference = Driver::new(&workload).run()?;
    println!(
        "reference:  {} frames in {} cycles",
        reference.output.len(),
        reference.fpga_cycles
    );

    let mut worker = Command::new(std::env::current_exe()?)
        .arg("--child")
        .arg(&dir)
        .spawn()?;
    // Kill as soon as the first complete autosave exists. If the child
    // somehow finishes first, the last autosave still resumes correctly —
    // the demo's claim doesn't depend on winning the race.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !snapshot.exists() {
        if Instant::now() > deadline {
            let _ = worker.kill();
            return Err("child never produced an autosave".into());
        }
        if worker.try_wait()?.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.kill().ok(); // SIGKILL — the child gets no chance to clean up
    worker.wait()?;
    println!(
        "parent:     killed the worker; {} on disk ({} bytes)",
        snapshot.file_name().unwrap().to_string_lossy(),
        std::fs::metadata(&snapshot)?.len()
    );

    let resumed = Driver::new(&workload).resume_from_file(&snapshot)?;
    println!(
        "resumed:    {} frames in {} cycles",
        resumed.output.len(),
        resumed.fpga_cycles
    );

    let ok = resumed.output == reference.output && resumed.fpga_cycles == reference.fpga_cycles;
    println!(
        "\nresumed run is bit- and cycle-identical: {}",
        if ok { "yes" } else { "NO!" }
    );
    std::fs::remove_dir_all(&dir).ok();
    if !ok {
        return Err("resume diverged from the reference run".into());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--child") {
        let dir = args.last().expect("child receives the autosave dir");
        child(std::path::Path::new(dir))
    } else {
        parent()
    }
}
