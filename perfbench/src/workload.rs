//! The workloads and the one operation they are made of: build a
//! partition's co-simulation from public calls, stream its input to
//! completion, and check the output against the hand-written native
//! gold.
//!
//! The construction below mirrors the app crates' `make_cosim_full` on
//! the production path (`ExecBackend::Compiled` on the flat arena):
//! `Strategy::Dataflow`, `ml507_link()`, `InterHwRouting::ViaHub` and
//! the same hardware-domain order. The traced run proves the mirror
//! exact against `run_partition_compiled`.

use crate::stats::Histogram;
use crate::trace::{self, Tracer};
use bcl_core::compile::compile_plans;
use bcl_core::domain::{HW, SW};
use bcl_core::partition::{partition, Partitioned};
use bcl_core::sched::{Strategy, SwOptions};
use bcl_core::value::Value;
use bcl_core::xform::{compile_design, CompileOpts, ExecMode};
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting, RecoveryPolicy};
use bcl_platform::link::{FaultConfig, PartitionFault};
use bcl_raytrace::bvh::{build_bvh, Bvh};
use bcl_raytrace::geom::{gen_rays, make_scene};
use bcl_raytrace::partitions::RtPartition;
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::VorbisPartition;
use std::time::Instant;

/// Triangles in every generated scene (the quick-bench scene size).
const SCENE_TRIS: usize = 64;
/// Frames and image side of the short inputs `explore` sweeps, also
/// used by the traced run's cross-checks.
const EXPLORE_FRAMES: usize = 8;
const EXPLORE_SIDE: usize = 4;

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The input-generation seeds of one workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub frames: u64,
    pub scene: u64,
    pub faults: u64,
}

impl Seeds {
    pub fn of(seed: u64) -> Seeds {
        Seeds {
            frames: derive(seed, 1),
            scene: derive(seed, 2),
            faults: derive(seed, 3),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum App {
    Vorbis(VorbisPartition),
    Rt(RtPartition),
}

/// A partition's input stream.
enum Stream {
    Frames(Vec<Vec<i64>>),
    Rays { bvh: Bvh, side: usize },
}

/// One partition on one input: everything an operation needs.
pub struct Case {
    app: App,
    stream: Stream,
    /// The native decoder's PCM or the native renderer's image.
    gold: Vec<i64>,
    faults: FaultConfig,
    policy: RecoveryPolicy,
    /// Whether each evaluation migrates at the stream midpoint.
    pub migrates: bool,
}

impl Case {
    fn new(app: App, size: usize, seeds: Seeds, bvh: &Bvh) -> Case {
        let (stream, gold) = match app {
            App::Vorbis(_) => {
                let frames = frame_stream(size, seeds.frames);
                let gold = NativeBackend::new().run(&frames);
                (Stream::Frames(frames), gold)
            }
            App::Rt(_) => {
                let gold = bcl_raytrace::native::render(bvh, &gen_rays(size, size));
                let stream = Stream::Rays {
                    bvh: bvh.clone(),
                    side: size,
                };
                (stream, gold)
            }
        };
        Case {
            app,
            stream,
            gold,
            faults: FaultConfig::none(),
            policy: RecoveryPolicy::Fail,
            migrates: false,
        }
    }

    pub fn label(&self) -> String {
        match (&self.app, &self.stream) {
            (App::Vorbis(p), Stream::Frames(f)) => format!("vorbis-{}/{}f", p.label(), f.len()),
            (App::Rt(p), Stream::Rays { side, .. }) => format!("rt-{}/{side}x{side}", p.label()),
            _ => unreachable!("cases pair each app with its stream"),
        }
    }

    /// Values the sink must consume for the stream to be complete.
    fn want(&self) -> usize {
        match &self.stream {
            Stream::Frames(f) => f.len(),
            Stream::Rays { side, .. } => side * side,
        }
    }

    fn sink(&self) -> &'static str {
        match self.app {
            App::Vorbis(_) => "audioDev",
            App::Rt(_) => "bitmap",
        }
    }

    /// The drivers' cycle bound: generous for the slowest partition,
    /// multiplied for retransmission rounds when faults are injected.
    fn max_cycles(&self) -> u64 {
        let want = self.want() as u64;
        let bound = match self.app {
            App::Vorbis(_) => 40_000 * want + 10_000,
            App::Rt(_) => 60_000 * want + 50_000,
        };
        if self.faults.is_active() || self.faults.has_partition_faults() {
            bound.saturating_mul(500)
        } else {
            bound
        }
    }

    fn output(&self, cosim: &Cosim) -> Vec<i64> {
        let values = cosim.sink_values(self.sink());
        match self.app {
            App::Vorbis(_) => bcl_vorbis::bcl::pcm_of_values(values),
            App::Rt(_) => bcl_raytrace::bcl::image_of_values(values, self.want()),
        }
    }

    /// Wall-clock of the native decoder or renderer on this input.
    pub fn time_native(&self) -> u64 {
        let t = Instant::now();
        let out = match &self.stream {
            Stream::Frames(f) => NativeBackend::new().run(f),
            Stream::Rays { bvh, side } => {
                bcl_raytrace::native::render(bvh, &gen_rays(*side, *side))
            }
        };
        let dur = ns(t);
        std::hint::black_box(out);
        dur
    }

    /// The same partition on the short `explore` input (for the traced
    /// run's cross-checks); `bvh` is the workload's scene.
    fn explore_twin(&self, seeds: Seeds, bvh: &Bvh) -> Case {
        let size = match self.app {
            App::Vorbis(_) => EXPLORE_FRAMES,
            App::Rt(_) => EXPLORE_SIDE,
        };
        Case::new(self.app, size, seeds, bvh)
    }

    /// Builds this case's co-simulation, one timed public call per
    /// construction layer.
    fn build(&self) -> Result<Built, String> {
        let t0 = Instant::now();
        let (design, hw_domains, link) = match (&self.app, &self.stream) {
            (App::Vorbis(p), _) => {
                let domains = p.domains();
                let hw = hw_order([&domains.imdct, &domains.ifft, &domains.window]);
                let opts = bcl_vorbis::bcl::BackendOptions {
                    domains,
                    ..Default::default()
                };
                let design = bcl_vorbis::bcl::build_design(&opts);
                (design, hw, bcl_vorbis::partitions::ml507_link())
            }
            (App::Rt(p), Stream::Rays { bvh, side }) => {
                let cfg = p.config(*side, *side);
                let hw = hw_order([&cfg.trav, &cfg.geom]);
                let design = bcl_raytrace::bcl::build_design(bvh, &cfg);
                (design, hw, bcl_raytrace::partitions::ml507_link())
            }
            _ => unreachable!("cases pair each app with its stream"),
        };
        let design = design.map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let parts = partition(&design, SW).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let cfgs: Vec<HwPartitionCfg> = hw_domains
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let cfg = HwPartitionCfg::new(d)
                    .with_link(link)
                    .with_event_driven(true)
                    .with_compiled(true);
                if i == 0 {
                    cfg.with_faults(self.faults.clone())
                } else {
                    cfg
                }
            })
            .collect();
        let mut cosim = Cosim::multi(&parts, SW, &cfgs, InterHwRouting::ViaHub, sw_options())
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        cosim.set_recovery_policy(self.policy);
        match &self.stream {
            Stream::Frames(frames) => {
                for f in frames {
                    cosim.push_source("src", bcl_vorbis::bcl::frame_value(f));
                }
            }
            Stream::Rays { side, .. } => {
                for p in 0..(side * side) as i64 {
                    cosim.push_source("pixSrc", Value::int(32, p));
                }
            }
        }
        let t4 = Instant::now();
        Ok(Built {
            rules: design.rules.len() as u64,
            prims: design.prims.len() as u64,
            channels: parts.channels.len() as u64,
            cosim,
            parts,
            hw_domains,
            at: [t0, t1, t2, t3, t4],
        })
    }

    /// Streams until the sink holds `until` values.
    fn run(
        &self,
        cosim: &mut Cosim,
        until: usize,
        steps: Option<&mut Steps>,
    ) -> Result<(), String> {
        let sink = self.sink();
        let done = |c: &Cosim| c.sink_count(sink) >= until;
        let max = self.max_cycles();
        let outcome = match steps {
            None => cosim.run_until(done, max).map_err(|e| e.to_string())?,
            Some(steps) => run_stepwise(cosim, done, max, steps)?,
        };
        if outcome.is_done() {
            Ok(())
        } else {
            Err(format!("{} did not finish: {outcome:?}", self.label()))
        }
    }

    /// One operation: build, run (migrating at the stream midpoint if
    /// the case says so), and check the output against the native gold.
    /// Never panics on a failure; the error is returned in the result.
    pub fn evaluate(&self, migrate: bool, ledger: Option<&mut Ledger>) -> Eval {
        let mut ev = Eval::default();
        let t = Instant::now();
        let mut ledger = ledger;
        let op = ledger.as_mut().map_or(0, |l| l.begin_op());
        let res = self.evaluate_into(migrate, op, &mut ledger, &mut ev);
        ev.wall_ns = ns(t);
        if let Err(e) = res {
            ev.error = Some(e);
        }
        if let Some(l) = ledger {
            l.tracer.record(op, "op", t, ev.wall_ns);
            // Outside the operation's window, so `trace.overhead` sees
            // only the spans, histograms and stepwise replay.
            if let Ok(built) = self.build() {
                retime_lowering(&built, &mut ev.counters, &mut l.tracer, op);
            }
        }
        ev
    }

    fn evaluate_into(
        &self,
        migrate: bool,
        op: u64,
        ledger: &mut Option<&mut Ledger>,
        ev: &mut Eval,
    ) -> Result<(), String> {
        let mut cosim = self.counted_build(op, ledger, ev)?;
        let want = self.want();
        if migrate {
            self.counted_run(&mut cosim, want / 2, op, ledger, ev)?;
            let t = Instant::now();
            let bytes = cosim.snapshot_bytes().map_err(|e| e.to_string())?;
            ev.snapshot_ns = ns(t);
            ev.counters.ckpt_words += cosim.checkpoint_copied_words();
            drop(cosim);
            cosim = self.counted_build(op, ledger, ev)?;
            let t = Instant::now();
            cosim
                .resume_from(&mut bytes.as_slice())
                .map_err(|e| e.to_string())?;
            ev.resume_ns = ns(t);
            ev.snapshot_bytes = bytes.len() as u64;
            if let Some(l) = ledger.as_mut() {
                let at = t - std::time::Duration::from_nanos(ev.snapshot_ns);
                l.tracer.record(op, "persist.snapshot", at, ev.snapshot_ns);
                l.tracer.record(op, "persist.resume", t, ev.resume_ns);
            }
        }
        self.counted_run(&mut cosim, want, op, ledger, ev)?;
        ev.fpga_cycles = cosim.fpga_cycles;
        ev.cpu_cycles = cosim.sw.cpu_cycles();
        let c = &mut ev.counters;
        let rep = cosim.sw.report();
        c.sw_fired = rep.total_fired;
        c.sw_failed = rep.failed.iter().sum();
        (c.guard_evals, c.guard_skipped) = cosim.guard_eval_totals();
        let link = cosim.link_stats();
        c.link_words = link.words_to_hw + link.words_to_sw;
        c.link_msgs = link.msgs_to_hw + link.msgs_to_sw;
        c.faults_injected = link.dropped_to_hw
            + link.dropped_to_sw
            + link.corrupted_to_hw
            + link.corrupted_to_sw
            + link.duplicated_to_hw
            + link.duplicated_to_sw
            + link.reordered_to_hw
            + link.reordered_to_sw;
        let transport = cosim.transport_stats();
        c.crc_rejects = transport.crc_rejects_to_hw + transport.crc_rejects_to_sw;
        c.ack_frames = transport.ack_frames_to_hw + transport.ack_frames_to_sw;
        c.ckpt_words += cosim.checkpoint_copied_words();
        if self.output(&cosim) != self.gold {
            return Err(format!(
                "{}: output differs from the native gold",
                self.label()
            ));
        }
        Ok(())
    }

    /// [`Case::build`] with its allocations counted and, when traced,
    /// its stages recorded as spans.
    fn counted_build(
        &self,
        op: u64,
        ledger: &mut Option<&mut Ledger>,
        ev: &mut Eval,
    ) -> Result<Cosim, String> {
        let traced = ledger.is_some();
        let a0 = trace::allocations();
        trace::set_counting(traced);
        let built = self.build();
        trace::set_counting(false);
        ev.counters.alloc_setup += trace::allocations() - a0;
        let built = built?;
        let at = built.at;
        let gap = |i: usize| at[i + 1].duration_since(at[i]).as_nanos() as u64;
        let stages = Stages {
            elab: gap(0),
            partition: gap(1),
            build: gap(2),
            load: gap(3),
        };
        ev.setup.push(stages);
        let c = &mut ev.counters;
        (c.rules, c.prims, c.channels) = (built.rules, built.prims, built.channels);
        if let Some(l) = ledger.as_mut() {
            for (i, name) in ["elab", "partition", "cosim.build", "cosim.load"]
                .into_iter()
                .enumerate()
            {
                l.tracer.record(op, name, at[i], gap(i));
            }
        }
        Ok(built.cosim)
    }

    fn counted_run(
        &self,
        cosim: &mut Cosim,
        until: usize,
        op: u64,
        ledger: &mut Option<&mut Ledger>,
        ev: &mut Eval,
    ) -> Result<(), String> {
        let traced = ledger.is_some();
        let a0 = trace::allocations();
        let t = Instant::now();
        trace::set_counting(traced);
        let steps = ledger.as_mut().filter(|l| !l.extra).map(|l| &mut l.steps);
        let res = self.run(cosim, until, steps);
        trace::set_counting(false);
        let dur = ns(t);
        ev.run_ns += dur;
        ev.counters.alloc_run += trace::allocations() - a0;
        if let Some(l) = ledger.as_mut() {
            l.tracer.record(op, "run", t, dur);
        }
        res
    }
}

/// What a cross-check compares: modeled cycles, output and link traffic.
#[derive(Debug, PartialEq, Eq)]
struct Summary {
    fpga_cycles: u64,
    cpu_cycles: u64,
    output: Vec<i64>,
    link_words: u64,
    link_msgs: u64,
}

impl Summary {
    fn of_vorbis(r: bcl_vorbis::partitions::VorbisRun) -> Summary {
        Summary {
            fpga_cycles: r.fpga_cycles,
            cpu_cycles: r.sw_cpu_cycles,
            output: r.pcm,
            link_words: r.link.words_to_hw + r.link.words_to_sw,
            link_msgs: r.link.msgs_to_hw + r.link.msgs_to_sw,
        }
    }

    fn of_rt(r: bcl_raytrace::partitions::RtRun) -> Summary {
        Summary {
            fpga_cycles: r.fpga_cycles,
            cpu_cycles: r.sw_cpu_cycles,
            output: r.image,
            link_words: r.link.words_to_hw + r.link.words_to_sw,
            link_msgs: r.link.msgs_to_hw + r.link.msgs_to_sw,
        }
    }

    /// A passing evaluation of `case` (its output matched the gold).
    fn of_eval(case: &Case, ev: &Eval) -> Summary {
        Summary {
            fpga_cycles: ev.fpga_cycles,
            cpu_cycles: ev.cpu_cycles,
            output: case.gold.clone(),
            link_words: ev.counters.link_words,
            link_msgs: ev.counters.link_msgs,
        }
    }
}

fn agree(what: &str, ours: &Summary, theirs: Result<Summary, String>) -> Result<(), String> {
    let theirs = theirs?;
    if *ours == theirs {
        return Ok(());
    }
    Err(format!(
        "{what}: benchmark (fpga {}, cpu {}, words {}, msgs {}) vs crate (fpga {}, cpu {}, words {}, msgs {}), outputs {}",
        ours.fpga_cycles,
        ours.cpu_cycles,
        ours.link_words,
        ours.link_msgs,
        theirs.fpga_cycles,
        theirs.cpu_cycles,
        theirs.link_words,
        theirs.link_msgs,
        if ours.output == theirs.output { "equal" } else { "differ" }
    ))
}

impl Case {
    /// The traced run's cross-checks for this partition, each its own
    /// pass or fail. On the `explore`-size input, the co-simulation
    /// built here must match the crate's `run_partition_compiled` (the
    /// construction mirror is exact) and `ExecBackend::Naive` (modeled
    /// cycles, output, traffic). A fault-injected case must also match
    /// the crate's fault-recovery driver on its own input; `reference`
    /// is a passing evaluation of this case.
    pub fn cross_checks(
        &self,
        seeds: Seeds,
        bvh: &Bvh,
        reference: &Eval,
    ) -> Vec<(String, Result<(), String>)> {
        let twin = self.explore_twin(seeds, bvh);
        let label = twin.label();
        let ours = twin.evaluate(false, None);
        if let Some(e) = ours.error {
            return vec![(label, Err(e))];
        }
        let ours = Summary::of_eval(&twin, &ours);
        let err = |e: bcl_platform::PlatformError| e.to_string();
        let (compiled, naive) = match (&twin.app, &twin.stream) {
            (App::Vorbis(p), Stream::Frames(f)) => {
                use bcl_vorbis::partitions as vp;
                (
                    vp::run_partition_compiled(*p, f)
                        .map(Summary::of_vorbis)
                        .map_err(err),
                    vp::run_partition_naive(*p, f)
                        .map(Summary::of_vorbis)
                        .map_err(err),
                )
            }
            (App::Rt(p), Stream::Rays { bvh, side }) => {
                use bcl_raytrace::partitions as rp;
                (
                    rp::run_partition_compiled(*p, bvh, *side, *side)
                        .map(Summary::of_rt)
                        .map_err(err),
                    rp::run_partition_naive(*p, bvh, *side, *side)
                        .map(Summary::of_rt)
                        .map_err(err),
                )
            }
            _ => unreachable!("cases pair each app with its stream"),
        };
        let mut out = vec![
            (
                format!("{label} mirrors run_partition_compiled"),
                agree("mirror", &ours, compiled),
            ),
            (
                format!("{label} matches ExecBackend::Naive"),
                agree("naive", &ours, naive),
            ),
        ];
        if let (true, App::Vorbis(p), Stream::Frames(f)) =
            (self.faults.is_active(), &self.app, &self.stream)
        {
            let theirs = bcl_vorbis::partitions::run_partition_with_recovery(
                *p,
                f,
                self.faults.clone(),
                self.policy,
            )
            .map(Summary::of_vorbis)
            .map_err(err);
            out.push((
                format!("{} matches run_partition_with_recovery", self.label()),
                agree("faulty", &Summary::of_eval(self, reference), theirs),
            ));
        }
        out
    }
}

/// The drivers' hardware-domain order: first appearance, software
/// excluded; an all-software partitioning keeps one (unused) hardware
/// configuration so the platform shape matches.
fn hw_order<const N: usize>(domains: [&String; N]) -> Vec<String> {
    let mut hw: Vec<String> = Vec::new();
    for d in domains {
        if d != SW && !hw.contains(d) {
            hw.push(d.clone());
        }
    }
    if hw.is_empty() {
        hw.push(HW.to_string());
    }
    hw
}

fn sw_options() -> SwOptions {
    SwOptions {
        strategy: Strategy::Dataflow,
        event_driven: true,
        flat: true,
        compiled: true,
        ..Default::default()
    }
}

/// A built co-simulation plus what its construction saw.
struct Built {
    cosim: Cosim,
    parts: Partitioned,
    hw_domains: Vec<String>,
    rules: u64,
    prims: u64,
    channels: u64,
    /// Start, then the end of elaboration, partitioning, platform build
    /// and input loading.
    at: [Instant; 5],
}

/// Re-runs the two lowering passes `Cosim::multi` performs internally,
/// on a separate, untimed build after the operation, so their share of
/// `cosim.build` can be estimated: `xform::compile_design` and `compile::compile_plans` on
/// the executing software design and on each hardware partition, with
/// the options the software runner and `HwSim` use.
fn retime_lowering(built: &Built, c: &mut Counters, tracer: &mut Tracer, op: u64) {
    let hw_opts = CompileOpts {
        lift: true,
        sequentialize: false,
    };
    let mut designs = vec![(built.cosim.sw_design(), sw_options().compile)];
    for d in &built.hw_domains {
        if let Ok(design) = built.parts.partition(d) {
            designs.push((design, hw_opts));
        }
    }
    let (mut xform_ns, mut compile_ns) = (0, 0);
    let t0 = Instant::now();
    for (design, opts) in designs {
        let t = Instant::now();
        let plans = compile_design(design, opts);
        xform_ns += ns(t);
        let t = Instant::now();
        std::hint::black_box(compile_plans(&plans, design));
        compile_ns += ns(t);
        c.plans += plans.len() as u64;
        c.inplace += plans.iter().filter(|p| p.mode == ExecMode::InPlace).count() as u64;
    }
    c.xform_ns = xform_ns;
    c.compile_ns = compile_ns;
    tracer.record(op, "xform+compile", t0, xform_ns + compile_ns);
}

/// `Cosim::run_until`, one timed step at a time. Each call runs the
/// program's own loop with a completion check that also answers yes
/// once the loop has made one step, so which path runs, the steps and
/// the checks between them are the program's; only the timing is added.
/// A step is one `SwRunner::step` on the all-software fast path,
/// otherwise one FPGA cycle (`Cosim::step` and the stall check).
fn run_stepwise(
    cosim: &mut Cosim,
    done: impl Fn(&Cosim) -> bool,
    max: u64,
    steps: &mut Steps,
) -> Result<bcl_platform::CosimOutcome, String> {
    use bcl_platform::CosimOutcome;
    use std::cell::Cell;
    loop {
        // Only picks the histogram. `InterHwRouting::ViaHub` builds no
        // fabric links, so this is the program's fast-path condition.
        let fast = cosim.hw_partition_count() == 0 && !cosim.failed_over();
        let checks = Cell::new(0u32);
        let one_step = |c: &Cosim| {
            checks.set(checks.get() + 1);
            checks.get() > 1 || done(c)
        };
        let t = Instant::now();
        let out = cosim.run_until(one_step, max).map_err(|e| e.to_string())?;
        let dur = ns(t);
        if checks.get() < 2 || !matches!(out, CosimOutcome::Done { .. }) {
            return Ok(out);
        }
        if fast {
            steps.sw.record(dur);
        } else {
            steps.cosim.record(dur);
        }
    }
}

/// Wall-clock of each construction layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub elab: u64,
    pub partition: u64,
    pub build: u64,
    pub load: u64,
}

impl Stages {
    /// The whole construction: `build_design` through inputs queued.
    pub fn total(&self) -> u64 {
        self.elab + self.partition + self.build + self.load
    }
}

/// Counts one operation saw; everything but the sizes and the
/// allocation counts is read from the finished co-simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub rules: u64,
    pub prims: u64,
    pub channels: u64,
    pub plans: u64,
    pub inplace: u64,
    pub xform_ns: u64,
    pub compile_ns: u64,
    pub sw_fired: u64,
    pub sw_failed: u64,
    pub guard_evals: u64,
    pub guard_skipped: u64,
    pub link_words: u64,
    pub link_msgs: u64,
    pub faults_injected: u64,
    pub crc_rejects: u64,
    pub ack_frames: u64,
    pub ckpt_words: u64,
    pub alloc_setup: u64,
    pub alloc_run: u64,
}

/// What one operation measured.
#[derive(Debug, Default)]
pub struct Eval {
    pub wall_ns: u64,
    /// One entry per co-simulation built (two when migrating).
    pub setup: Vec<Stages>,
    pub run_ns: u64,
    pub snapshot_ns: u64,
    pub resume_ns: u64,
    pub snapshot_bytes: u64,
    pub fpga_cycles: u64,
    pub cpu_cycles: u64,
    pub counters: Counters,
    pub error: Option<String>,
}

/// Per-step timings of the traced run phases.
#[derive(Default)]
pub struct Steps {
    pub sw: Histogram,
    pub cosim: Histogram,
}

/// The traced run's state: the span log, step histograms, and the
/// next operation id.
#[derive(Default)]
pub struct Ledger {
    pub tracer: Tracer,
    pub steps: Steps,
    /// Set while an extra migration runs: its steps stay out of
    /// [`Ledger::steps`].
    pub extra: bool,
    next_op: u64,
}

impl Ledger {
    fn begin_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }
}

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 4] = ["explore", "stream-sw", "stream-hw", "faulty"];

/// A workload: its cases, in the order one pass evaluates them.
pub struct Workload {
    pub cases: Vec<Case>,
    pub seeds: Seeds,
    pub bvh: Bvh,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        use RtPartition as R;
        use VorbisPartition as V;
        let seeds = Seeds::of(seed);
        let bvh = build_bvh(&make_scene(SCENE_TRIS, seeds.scene));
        let specs: Vec<(App, usize)> = match name {
            "explore" => [V::A, V::B, V::C, V::D, V::E, V::F, V::G]
                .map(|p| (App::Vorbis(p), EXPLORE_FRAMES))
                .into_iter()
                .chain([R::A, R::B, R::C, R::D, R::E].map(|p| (App::Rt(p), EXPLORE_SIDE)))
                .collect(),
            "stream-sw" => vec![(App::Vorbis(V::F), 128), (App::Rt(R::A), 24)],
            "stream-hw" => vec![(App::Vorbis(V::E), 128), (App::Rt(R::C), 16)],
            "faulty" => vec![(App::Vorbis(V::C), 32)],
            _ => {
                return Err(format!(
                    "unknown workload `{name}` (expected one of {WORKLOADS:?})"
                ))
            }
        };
        let mut cases: Vec<Case> = specs
            .into_iter()
            .map(|(app, size)| Case::new(app, size, seeds, &bvh))
            .collect();
        if name == "faulty" {
            let case = &mut cases[0];
            // Strike the reset halfway through the fault-free run's
            // cycle count; checkpoint eight times per clean run.
            let clean = case.evaluate(false, None);
            if let Some(e) = clean.error {
                return Err(format!("fault-free calibration failed: {e}"));
            }
            let half = clean.fpga_cycles / 2;
            case.faults = FaultConfig::uniform(seeds.faults, 0.02, 0.01, 0.01, 0.01)
                .with_partition_fault(PartitionFault::ResetAt(half));
            case.policy = RecoveryPolicy::restart((clean.fpga_cycles / 8).max(1));
            case.migrates = true;
        }
        Ok(Workload { cases, seeds, bvh })
    }
}
