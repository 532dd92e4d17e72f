//! Wall-clock comparison of the two executors over the Figure 13 quick
//! benchmarks:
//!
//! * **naive** — the reference: per-step AST interpretation of every
//!   guard and body on the tree store ([`ExecBackend::Naive`]);
//! * **compiled** — the production path: the event-driven scheduler
//!   driving closure-threaded native rules over the bit-packed arena
//!   store, with single-word values travelling as bare `u64`s through
//!   the port API ([`ExecBackend::Compiled`]).
//!
//! Every leg is timed in **two phases** via the suites' public
//! `build_cosim`/`run_built` split: the one-time construction phase
//! (elaborate + partition + lower rules + build the platform) and the
//! simulation phase (stream the workload to completion). The `*_run_ns`
//! fields compare the executors; the plain `*_ns` fields are end to end.
//!
//! Each suite also times its hand-written native decoder (the paper's
//! F2 baseline) so the JSON records how much interpretation overhead
//! the compiled backend leaves on the table (simulation phase vs F2 —
//! the native decoders have no construction phase to exclude).
//!
//! Emits a machine-readable JSON summary.
//!
//! ```text
//! bench_summary [output.json]    # default: bench_summary.json
//! ```
//!
//! Cycle counts and outputs are asserted identical across both
//! executors for every partition — the speedups are pure simulator
//! wall-clock, not a change in what is simulated.

use bcl_core::sched::ExecBackend;
use bcl_raytrace::bvh::build_bvh;
use bcl_raytrace::geom::{gen_rays, make_scene};
use bcl_raytrace::native::render;
use bcl_raytrace::partitions::{build_cosim as build_rt, run_built as run_built_rt, RtPartition};
use bcl_vorbis::frames::frame_stream;
use bcl_vorbis::native::NativeBackend;
use bcl_vorbis::partitions::{build_cosim, run_built, VorbisPartition};
use std::fmt::Debug;
use std::fmt::Write as _;
use std::time::Instant;

const REPS: u32 = 5;

const BACKENDS: [ExecBackend; 2] = [ExecBackend::Naive, ExecBackend::Compiled];

/// Best-of-N total and simulation-phase wall clock for one leg.
struct Leg {
    total_ns: u128,
    run_ns: u128,
}

impl Leg {
    fn unmeasured() -> Leg {
        Leg {
            total_ns: u128::MAX,
            run_ns: u128::MAX,
        }
    }
}

struct Entry {
    bench: &'static str,
    partition: &'static str,
    fpga_cycles: u64,
    naive: Leg,
    compiled: Leg,
    /// Wall clock of the suite's hand-written native decoder (F2).
    native_ns: u128,
    guard_evals: u64,
    guard_evals_skipped: u64,
}

impl Entry {
    /// Compiled vs naive, end to end.
    fn speedup(&self) -> f64 {
        self.naive.total_ns as f64 / self.compiled.total_ns.max(1) as f64
    }

    /// The same comparison over the simulation phase only — the number
    /// that isolates the executor from the shared construction constant.
    fn run_speedup(&self) -> f64 {
        self.naive.run_ns as f64 / self.compiled.run_ns.max(1) as f64
    }

    /// How many times slower the compiled simulator's simulation phase
    /// still is than the suite's hand-written native decoder (lower is
    /// better; 1.0 would mean zero interpretation overhead left).
    fn compiled_vs_native(&self) -> f64 {
        self.compiled.run_ns as f64 / self.native_ns.max(1) as f64
    }
}

/// What the equality check compares between the two legs of one
/// partition: modeled FPGA cycles, CPU cycles, and the output stream.
type Observed<O> = (u64, u64, O);

/// Times both legs of one partition, interleaving reps across backends
/// (both legs inside each rep, not all reps of one leg back to back) so
/// that machine-load drift lands on each backend equally, and takes the
/// per-leg best across reps. `build` is timed as construction, `run` as
/// simulation; `observe` extracts what must agree across the legs plus
/// the guard counters of the compiled leg.
fn measure<C, R, O: PartialEq + Debug>(
    label: &str,
    mut build: impl FnMut(ExecBackend) -> C,
    mut run: impl FnMut(C) -> R,
    observe: impl Fn(&R) -> (Observed<O>, (u64, u64)),
) -> ([Leg; 2], u64, (u64, u64)) {
    let mut legs = [Leg::unmeasured(), Leg::unmeasured()];
    let mut first = Vec::new();
    for rep in 0..REPS {
        for (leg, backend) in legs.iter_mut().zip(BACKENDS) {
            let t0 = Instant::now();
            let c = build(backend);
            let t1 = Instant::now();
            let r = run(c);
            leg.run_ns = leg.run_ns.min(t1.elapsed().as_nanos());
            leg.total_ns = leg.total_ns.min(t0.elapsed().as_nanos());
            if rep == 0 {
                first.push(observe(&r));
            }
        }
    }
    let (naive, _) = &first[0];
    let (compiled, guards) = &first[1];
    assert_eq!(
        naive, compiled,
        "{label}: naive and compiled disagree on (fpga cycles, cpu cycles, output)"
    );
    (legs, compiled.0, *guards)
}

/// Best-of-N wall clock for one closure (used for the F2 natives).
fn time_best<T>(mut f: impl FnMut() -> T) -> u128 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench_summary.json".to_string());
    let mut entries: Vec<Entry> = Vec::new();
    let mut push = |bench, partition, native_ns, m: ([Leg; 2], u64, (u64, u64))| {
        let ([naive, compiled], fpga_cycles, (guard_evals, guard_evals_skipped)) = m;
        entries.push(Entry {
            bench,
            partition,
            fpga_cycles,
            naive,
            compiled,
            native_ns,
            guard_evals,
            guard_evals_skipped,
        });
    };

    let frames = frame_stream(8, 1);
    let vorbis_native_ns = time_best(|| NativeBackend::new().run(&frames));
    for p in VorbisPartition::ALL {
        let m = measure(
            &format!("vorbis {}", p.label()),
            |b| build_cosim(p, &frames, b).unwrap(),
            |c| run_built(c, p, frames.len()).unwrap(),
            |r| {
                (
                    (r.fpga_cycles, r.sw_cpu_cycles, r.pcm.clone()),
                    (r.guard_evals, r.guard_evals_skipped),
                )
            },
        );
        push("fig13_vorbis", p.label(), vorbis_native_ns, m);
    }

    let bvh = build_bvh(&make_scene(64, 1));
    let (w, h) = (4, 4);
    let rays = gen_rays(w, h);
    let rt_native_ns = time_best(|| render(&bvh, &rays));
    for p in RtPartition::ALL {
        let m = measure(
            &format!("raytrace {}", p.label()),
            |b| build_rt(p, &bvh, w, h, b).unwrap(),
            |c| run_built_rt(c, p, w * h).unwrap(),
            |r| {
                (
                    (r.fpga_cycles, r.sw_cpu_cycles, r.image.clone()),
                    (r.guard_evals, r.guard_evals_skipped),
                )
            },
        );
        push("fig13_raytrace", p.label(), rt_native_ns, m);
    }

    let sum = |f: fn(&Entry) -> u128| entries.iter().map(f).sum::<u128>();
    let overall = sum(|e| e.naive.total_ns) as f64 / sum(|e| e.compiled.total_ns).max(1) as f64;
    let overall_run = sum(|e| e.naive.run_ns) as f64 / sum(|e| e.compiled.run_ns).max(1) as f64;

    println!(
        "{:<16} {:<4} {:>11} {:>11} {:>8} {:>8} {:>9}",
        "bench", "part", "naive_ms", "compiled", "speedup", "run", "vs_F2"
    );
    for e in &entries {
        println!(
            "{:<16} {:<4} {:>11.3} {:>11.3} {:>7.2}x {:>7.2}x {:>8.1}x",
            e.bench,
            e.partition,
            e.naive.total_ns as f64 / 1e6,
            e.compiled.total_ns as f64 / 1e6,
            e.speedup(),
            e.run_speedup(),
            e.compiled_vs_native()
        );
    }
    println!("overall compiled-vs-naive speedup: {overall:.2}x  (sim phase {overall_run:.2}x)");

    let mut json = String::from("{\n  \"benchmark\": \"naive_vs_compiled\",\n");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"overall_speedup\": {overall:.4},");
    let _ = writeln!(json, "  \"overall_run_speedup\": {overall_run:.4},");
    let _ = writeln!(json, "  \"vorbis_native_ns\": {vorbis_native_ns},");
    let _ = writeln!(json, "  \"raytrace_native_ns\": {rt_native_ns},");
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"bench\": \"{}\", \"partition\": \"{}\", \"fpga_cycles\": {}, \
             \"naive_ns\": {}, \"compiled_ns\": {}, \"naive_run_ns\": {}, \
             \"compiled_run_ns\": {}, \"speedup\": {:.4}, \"run_speedup\": {:.4}, \
             \"compiled_vs_native_ratio\": {:.4}, \"guard_evals\": {}, \
             \"guard_evals_skipped\": {}}}",
            e.bench,
            e.partition,
            e.fpga_cycles,
            e.naive.total_ns,
            e.compiled.total_ns,
            e.naive.run_ns,
            e.compiled.run_ns,
            e.speedup(),
            e.run_speedup(),
            e.compiled_vs_native(),
            e.guard_evals,
            e.guard_evals_skipped
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
