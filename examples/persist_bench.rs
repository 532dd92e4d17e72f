//! Measures the durable-snapshot machinery for EXPERIMENTS.md R2:
//! snapshot size and encode/decode latency as a function of the live
//! state the system carries, and the wall-clock overhead autosave adds
//! to a real decode at various intervals.
//!
//! ```sh
//! cargo run --release --example persist_bench
//! ```

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::domain::{HW, SW};
use bcl_core::partition::partition;
use bcl_core::program::Program;
use bcl_core::sched::SwOptions;
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_platform::cosim::{Checkpoint, Cosim};
use bcl_platform::link::{FaultConfig, LinkConfig};
use bcl_platform::persist::CheckpointPolicy;
use bcl_platform::workload::Driver;
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::partitions::{run_partition, VorbisPartition, VorbisWorkload};
use std::time::Instant;

/// The failback demo's offload kernel with a `scratch`-entry register
/// file: the knob that scales the partition's live state.
fn offload_design(scratch: usize) -> bcl_core::design::Design {
    let mut m = ModuleBuilder::new("Offload");
    m.source("src", Type::Int(32), SW);
    m.sink("snk", Type::Int(32), SW);
    m.channel("inSync", 16, Type::Int(32), SW, HW);
    m.channel("outSync", 16, Type::Int(32), HW, SW);
    m.rule("feed", with_first("x", "src", enq("inSync", var("x"))));
    m.regfile(
        "scratch",
        scratch,
        Type::Int(32),
        vec![Value::int(32, 0); scratch],
    );
    m.rule(
        "compute",
        with_first(
            "x",
            "inSync",
            par(vec![
                upd(
                    "scratch",
                    and(var("x"), cint(32, scratch as i64 - 1)),
                    var("x"),
                ),
                enq("outSync", add(var("x"), var("x"))),
            ]),
        ),
    );
    m.rule("drain", with_first("y", "outSync", enq("snk", var("y"))));
    bcl_core::elaborate(&Program::with_root(m.build())).unwrap()
}

/// Median-of-N wall-clock time for one call, in microseconds.
fn time_us(n: u32, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn size_and_latency() -> Result<(), Box<dyn std::error::Error>> {
    println!("snapshot size and codec latency vs live state (median of 64):\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "scratch", "bytes", "encode (us)", "decode (us)"
    );
    for scratch in [4usize, 64, 256, 1024, 4096] {
        let parts = partition(&offload_design(scratch), SW)?;
        let mut cs = Cosim::with_faults(
            &parts,
            SW,
            HW,
            LinkConfig::default(),
            FaultConfig::none(),
            SwOptions::default(),
        )?;
        for i in 0..600i64 {
            cs.push_source("src", Value::int(32, i));
        }
        // Mid-stream steady state: FIFOs occupied, scratch partly written.
        let out = cs.run_until(|c| c.fpga_cycles >= 400, 1_000_000)?;
        assert!(out.is_done());
        let bytes = cs.snapshot_bytes()?;
        let encode = time_us(64, || {
            cs.snapshot_bytes().unwrap();
        });
        let decode = time_us(64, || {
            Checkpoint::read_from(&mut bytes.as_slice()).unwrap();
        });
        println!(
            "{:>8} {:>10} {:>12.1} {:>12.1}",
            scratch,
            bytes.len(),
            encode,
            decode
        );
    }
    Ok(())
}

fn autosave_overhead() -> Result<(), Box<dyn std::error::Error>> {
    let frames = frame_stream(32, 21);
    let dir = std::env::temp_dir().join(format!("bcl_persist_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let baseline = {
        let t = Instant::now();
        let run = run_partition(VorbisPartition::E, &frames)?;
        (t.elapsed().as_secs_f64() * 1e3, run.fpga_cycles)
    };
    println!(
        "\nautosave overhead, Vorbis E on {} frames ({} cycles, {:.1} ms without autosave):\n",
        frames.len(),
        baseline.1,
        baseline.0
    );
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "interval", "saves", "wall (ms)", "overhead"
    );
    let workload = VorbisWorkload::new(VorbisPartition::E, &frames);
    for interval in [2_000u64, 500, 100] {
        let t = Instant::now();
        let run = Driver::new(&workload).run_autosaving(CheckpointPolicy::new(interval, &dir))?;
        let wall = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            run.fpga_cycles, baseline.1,
            "autosave must not change timing"
        );
        println!(
            "{:>10} {:>10} {:>12.1} {:>9.0}%",
            interval,
            run.fpga_cycles / interval + 1,
            wall,
            (wall / baseline.0 - 1.0) * 100.0
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    size_and_latency()?;
    autosave_overhead()
}
