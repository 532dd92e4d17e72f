//! Demonstrates the N-partition co-simulation: the three-domain Vorbis
//! decode (IMDCT+IFFT in one accelerator, windowing in a second) is run
//! with the inter-accelerator stream routed through the software hub,
//! then over a direct fabric link, and finally with the IMDCT+IFFT
//! accelerator dying mid-stream and failing over to software while the
//! window accelerator keeps running in hardware. The PCM is
//! bit-identical in all four configurations (including the all-software
//! reference).
//!
//! ```sh
//! cargo run --release --example multi_accel_demo [n_frames]
//! ```

use bcl_core::domain::SW;
use bcl_core::partition::partition;
use bcl_core::sched::{Strategy, SwOptions};
use bcl_platform::cosim::{Cosim, CosimOutcome, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use bcl_platform::link::ml507_link;
use bcl_platform::link::{FaultConfig, PartitionFault};
use bcl_vorbis::bcl::{build_design, frame_value, pcm_of_values, BackendOptions};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::{VorbisPartition, HW2};

struct DemoRun {
    pcm: Vec<i64>,
    fpga_cycles: u64,
    hw_partitions: usize,
    failed_over: bool,
    per_part: Vec<(String, u64, u64)>, // (domain, hw_cycles, cpu-link words)
}

fn run_g(
    frames: &[Vec<i64>],
    routing: InterHwRouting,
    faults: FaultConfig,
    policy: RecoveryPolicy,
) -> Result<DemoRun, Box<dyn std::error::Error>> {
    let opts = BackendOptions {
        domains: VorbisPartition::G.domains(),
        ..Default::default()
    };
    let design = build_design(&opts)?;
    let parts = partition(&design, SW)?;
    let cfgs = [
        HwPartitionCfg::new(bcl_core::domain::HW)
            .with_link(ml507_link())
            .with_faults(faults),
        HwPartitionCfg::new(HW2).with_link(ml507_link()),
    ];
    let sw_opts = SwOptions {
        strategy: Strategy::Dataflow,
        ..Default::default()
    };
    let mut cosim = Cosim::multi(&parts, SW, &cfgs, routing, sw_opts)?;
    cosim.set_recovery_policy(policy);
    for f in frames {
        cosim.push_source("src", frame_value(f));
    }
    let want = frames.len();
    let outcome = cosim.run_until(|c| c.sink_count("audioDev") == want, 40_000_000)?;
    if !matches!(outcome, CosimOutcome::Done { .. }) {
        return Err(format!("run did not finish: {outcome:?}").into());
    }
    let per_part = cosim
        .hw_domains()
        .iter()
        .map(|d| {
            let stats = cosim.partition_link_stats(d).unwrap_or_default();
            (
                d.to_string(),
                cosim.partition_hw_cycles(d).unwrap_or(0),
                stats.words_to_hw + stats.words_to_sw,
            )
        })
        .collect();
    Ok(DemoRun {
        pcm: pcm_of_values(cosim.sink_values("audioDev")),
        fpga_cycles: outcome.fpga_cycles(),
        hw_partitions: cosim.hw_partition_count(),
        failed_over: cosim.failed_over(),
        per_part,
    })
}

fn report(name: &str, run: &DemoRun, golden: &[i64]) {
    println!(
        "{name}: {} cycles, {} accelerator(s){}, PCM bit-identical: {}",
        run.fpga_cycles,
        run.hw_partitions,
        if run.failed_over { ", failed over" } else { "" },
        if run.pcm == golden { "yes" } else { "NO!" },
    );
    for (dom, cycles, words) in &run.per_part {
        println!("  {dom}: {cycles} hw cycles, {words} words over the CPU link");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let frames = frame_stream(n, 21);
    let golden = NativeBackend::new().run(&frames);
    println!(
        "three-domain Vorbis (partition G: {}), {n} frames\n",
        VorbisPartition::G.description()
    );

    let hub = run_g(
        &frames,
        InterHwRouting::ViaHub,
        FaultConfig::none(),
        RecoveryPolicy::Fail,
    )?;
    report("hub routing   ", &hub, &golden);

    let fabric = run_g(
        &frames,
        InterHwRouting::fabric(),
        FaultConfig::none(),
        RecoveryPolicy::Fail,
    )?;
    report("fabric routing", &fabric, &golden);
    println!(
        "  (fabric keeps the chPost stream off the CPU link: {} vs {} words)\n",
        fabric.per_part.iter().map(|p| p.2).sum::<u64>(),
        hub.per_part.iter().map(|p| p.2).sum::<u64>(),
    );

    let die_at = hub.fpga_cycles / 2;
    let failover = run_g(
        &frames,
        InterHwRouting::ViaHub,
        FaultConfig::none().with_partition_fault(PartitionFault::DieAt(die_at)),
        RecoveryPolicy::failover((die_at / 4).max(1)),
    )?;
    report(
        &format!("IMDCT+IFFT accelerator dies @ {die_at}"),
        &failover,
        &golden,
    );
    println!(
        "  the window accelerator finished the stream in hardware: {}",
        if failover.hw_partitions == 1 {
            "yes"
        } else {
            "NO!"
        }
    );
    Ok(())
}
