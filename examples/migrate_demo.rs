//! Live migration across processes: the parent runs the Vorbis decode
//! (partition E — the full back-end in hardware) to a mid-stream split
//! point, serializes the whole co-simulated system to the versioned
//! `BCKP` snapshot format, and pipes the bytes to a freshly spawned
//! child process. The child re-elaborates the same design from scratch,
//! restores the snapshot into it (the design fingerprint in the header
//! proves the two processes built interchangeable systems), and finishes
//! the decode. The parent checks that the migrated run's PCM and cycle
//! count are identical to an uninterrupted reference run.
//!
//! ```sh
//! cargo run --release --example migrate_demo
//! ```

use bcl_platform::workload::{Driver, Run};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{VorbisPartition, VorbisWorkload};
use std::io::{Read, Write};
use std::process::{Command, Stdio};

const SPLIT_CYCLE: u64 = 800;

fn frames() -> Vec<Vec<i64>> {
    frame_stream(3, 21)
}

/// Reduces a finished decode to its cycle count and a PCM hash that
/// fits on one stdout line.
fn summary(run: &Run) -> (u64, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for x in bcl_vorbis::bcl::pcm_of_values(&run.output) {
        hash = (hash ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (run.fpga_cycles, hash)
}

/// Child half: read a snapshot from stdin, restore it into a freshly
/// elaborated system, finish the decode, report the result upstream.
/// Both processes build the system through the same driver — identical
/// by construction, which is exactly what the snapshot's design
/// fingerprint certifies.
fn child() -> Result<(), Box<dyn std::error::Error>> {
    let frames = frames();
    let workload = VorbisWorkload::new(VorbisPartition::E, &frames);
    let driver = Driver::new(&workload);
    let mut cosim = driver.build()?;
    cosim.resume_from(&mut std::io::stdin().lock())?;
    let resumed_at = cosim.fpga_cycles;
    let (cycles, hash) = summary(&driver.finish(cosim)?);
    println!("resumed_at={resumed_at} cycles={cycles} pcm_hash={hash:016x}");
    Ok(())
}

fn parent() -> Result<(), Box<dyn std::error::Error>> {
    // The uninterrupted reference the migrated run must match exactly.
    let frames = frames();
    let workload = VorbisWorkload::new(VorbisPartition::E, &frames);
    let driver = Driver::new(&workload);
    let (ref_cycles, ref_hash) = summary(&driver.run()?);
    println!("reference:  cycles={ref_cycles} pcm_hash={ref_hash:016x}");

    let mut cosim = driver.build()?;
    let out = cosim.run_until(|c| c.fpga_cycles >= SPLIT_CYCLE, 10_000_000)?;
    if !out.is_done() {
        return Err(format!("never reached the split point: {out:?}").into());
    }
    let snapshot = cosim.snapshot_bytes()?;
    drop(cosim); // this process is done with the system — it lives in the bytes now
    println!(
        "parent:     decoded to cycle {}, snapshot is {} bytes",
        out.fpga_cycles(),
        snapshot.len()
    );

    let mut child = Command::new(std::env::current_exe()?)
        .arg("--child")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    child
        .stdin
        .take()
        .expect("child stdin is piped")
        .write_all(&snapshot)?;
    let mut report = String::new();
    child
        .stdout
        .take()
        .expect("child stdout is piped")
        .read_to_string(&mut report)?;
    let status = child.wait()?;
    if !status.success() {
        return Err(format!("child failed: {status}").into());
    }
    print!("child:      {report}");

    let field = |key: &str| -> Option<&str> {
        report
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    };
    let cycles: u64 = field("cycles")
        .ok_or("child report missing cycles")?
        .parse()?;
    let hash = field("pcm_hash").ok_or("child report missing pcm_hash")?;
    let ok = cycles == ref_cycles && hash == format!("{ref_hash:016x}");
    println!(
        "\nmigrated run is bit- and cycle-identical: {}",
        if ok { "yes" } else { "NO!" }
    );
    if !ok {
        return Err("migration diverged from the reference run".into());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--child") {
        child()
    } else {
        parent()
    }
}
