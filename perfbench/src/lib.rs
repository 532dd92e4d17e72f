//! Closed-loop benchmark of the BCL co-simulation production path.
//!
//! One caller in one thread evaluates partitions back to back; each
//! operation starts only after the previous one has finished and been
//! checked against the native gold. See `README.md` for the workloads,
//! the metrics and which layer metric should move which end-to-end one.
//!
//! ```text
//! perfbench --workload <explore|stream-sw|stream-hw|faulty> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result; the lines
//! before it are a human-readable table.

pub mod calib;
pub mod stats;
pub mod trace;
pub mod workload;

use stats::{median, percentile, quartiles, Histogram, Ratio};
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Case, Eval, Ledger, Workload};

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("eval_ms_p50", "ms"),
    ("sim_cycles_per_s", "cycles/s"),
    ("migrate_pause_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with their units.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("elab.ms", "ms"),
    ("partition.ms", "ms"),
    ("xform.ms", "ms"),
    ("compile.ms", "ms"),
    ("cosim.build_ms", "ms"),
    ("cosim.load_ms", "ms"),
    ("cosim.build_self_ms", "ms"),
    ("elab.rules", "count"),
    ("elab.prims", "count"),
    ("partition.channels", "count"),
    ("xform.inplace_ratio", "ratio"),
    ("sched.sw.step_ns_p50", "ns"),
    ("sched.sw.step_ns_p99", "ns"),
    ("sched.sw.fired", "count"),
    ("sched.sw.failed", "count"),
    ("sched.sw.fire_ratio", "ratio"),
    ("sched.guard_evals", "count"),
    ("sched.guard_skip_ratio", "ratio"),
    ("cosim.step_ns_p50", "ns"),
    ("cosim.step_ns_p99", "ns"),
    ("link.words", "count"),
    ("link.msgs", "count"),
    ("link.faults_injected", "count"),
    ("transactor.crc_rejects", "count"),
    ("transactor.ack_frames", "count"),
    ("persist.snapshot_ms", "ms"),
    ("persist.resume_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("cosim.checkpoint_copied_words", "count"),
    ("alloc.setup_count", "count"),
    ("alloc.run_count", "count"),
    ("model.fpga_cycles", "cycles"),
    ("model.cpu_cycles", "cycles"),
    ("native.ratio", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Operations an untraced run must complete, so that the table's
/// `eval_ms_p90` has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Off `faulty`, one migration (a separate, otherwise untimed
/// evaluation) follows every this many operations, so
/// `migrate_pause_ms` is measured on every workload.
const OPS_PER_MIGRATION: usize = 8;
/// Migrations each partition must have had before a run may end.
const MIN_MIGRATIONS: usize = 3;
/// Measuring stops here whatever the sample counts, so a run always
/// ends within its time limit.
const HARD_STOP_S: f64 = 120.0;
/// Timed repetitions of the native decoder or renderer per input.
const NATIVE_REPS: usize = 101;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Entry point of both binaries; `counting_alloc` says whether the
/// caller installed [`trace::CountingAlloc`].
pub fn main_with(counting_alloc: bool) -> std::process::ExitCode {
    match run(counting_alloc) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

/// Attempted and failed operations, failures explained on stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    /// An evaluation passes when it finished, matched the gold, and
    /// modeled exactly the cycles of the case's reference evaluation.
    fn eval(&mut self, case: &Case, ev: &Eval, reference: &Eval) {
        let res = match &ev.error {
            Some(e) => Err(e.clone()),
            None if (ev.fpga_cycles, ev.cpu_cycles)
                != (reference.fpga_cycles, reference.cpu_cycles) =>
            {
                Err(format!(
                    "modeled cycles (fpga {}, cpu {}) differ from the reference (fpga {}, cpu {})",
                    ev.fpga_cycles, ev.cpu_cycles, reference.fpga_cycles, reference.cpu_cycles
                ))
            }
            None => Ok(()),
        };
        self.check(&case.label(), res);
    }
}

/// One recorded evaluation.
struct Rec {
    case: usize,
    pass: usize,
    traced: bool,
    /// A migration taken for `migrate_pause_ms` rather than an operation
    /// of the workload.
    extra: bool,
    ev: Eval,
}

fn run(counting_alloc: bool) -> Result<(), String> {
    let args = parse_args()?;
    if args.trace && !counting_alloc {
        return Err("--trace 1 needs the perfbench-traced binary".into());
    }
    let wl = Workload::new(&args.workload, args.seed)?;
    let cases = &wl.cases;
    let mut tally = Tally::default();

    // Warm-up: one evaluation of each case, checked against the gold,
    // which also fixes the modeled counts every later one must repeat.
    let refs: Vec<Eval> = cases.iter().map(|c| c.evaluate(c.migrates, None)).collect();
    for (c, ev) in cases.iter().zip(&refs) {
        let res = ev.error.clone().map_or(Ok(()), Err);
        tally.check(&format!("{} (reference)", c.label()), res);
    }

    let mut ledger = args.trace.then(Ledger::default);
    let mut natives: Vec<f64> = Vec::new();
    if args.trace {
        for (c, r) in cases.iter().zip(&refs) {
            for (what, res) in c.cross_checks(wl.seeds, &wl.bvh, r) {
                tally.check(&what, res);
            }
            let t: Vec<f64> = (0..NATIVE_REPS).map(|_| c.time_native() as f64).collect();
            natives.push(median(&t).unwrap_or(0.0));
        }
    }

    let min_ops = if args.trace { 0 } else { MIN_OPS };
    let migrating = cases.iter().any(|c| c.migrates);
    let mut recs: Vec<Rec> = Vec::new();
    let mut pass_walls: Vec<f64> = Vec::new();
    // Untraced runs sample the host-speed probe after every pass.
    let mut probe = (!args.trace).then(calib::Probe::default);
    let mut migrations = vec![0usize; cases.len()];
    let (mut ops, mut since_migration, mut next_migration) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    for pass in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= args.seconds as f64
            && ops >= min_ops
            && (migrating || migrations.iter().all(|&m| m >= MIN_MIGRATIONS));
        if enough || elapsed >= HARD_STOP_S {
            break;
        }
        let t = Instant::now();
        for (i, c) in cases.iter().enumerate() {
            // Traced runs interleave an untraced twin of every operation,
            // alternating which goes first, for `trace.overhead`.
            let order: &[bool] = match (args.trace, pass % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in order {
                let ev = c.evaluate(c.migrates, if traced { ledger.as_mut() } else { None });
                tally.eval(c, &ev, &refs[i]);
                ops += usize::from(!traced);
                recs.push(Rec {
                    case: i,
                    pass,
                    traced,
                    extra: false,
                    ev,
                });
            }
        }
        pass_walls.push(t.elapsed().as_nanos() as f64);
        if let Some(p) = probe.as_mut() {
            p.sample();
        }
        since_migration += cases.len();
        while !migrating && since_migration >= OPS_PER_MIGRATION {
            since_migration -= OPS_PER_MIGRATION;
            let i = next_migration % cases.len();
            next_migration += 1;
            if let Some(l) = ledger.as_mut() {
                l.extra = true;
            }
            let ev = cases[i].evaluate(true, ledger.as_mut());
            if let Some(l) = ledger.as_mut() {
                l.extra = false;
            }
            tally.eval(&cases[i], &ev, &refs[i]);
            migrations[i] += 1;
            recs.push(Rec {
                case: i,
                pass,
                traced: args.trace,
                extra: true,
                ev,
            });
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} (frames seed {:#x}, scene seed {:#x}, fault seed {:#x}); closed loop, 1 caller, {} operations in {:.1} s",
        args.workload,
        args.seed,
        wl.seeds.frames,
        wl.seeds.scene,
        wl.seeds.faults,
        recs.iter().filter(|r| !r.extra).count(),
        start.elapsed().as_secs_f64()
    );
    for (c, r) in cases.iter().zip(&refs) {
        let _ = writeln!(
            out,
            "  model {:<16} fpga_cycles {:>9}  cpu_cycles {:>10}",
            c.label(),
            r.fpga_cycles,
            r.cpu_cycles
        );
    }
    let metrics = if args.trace {
        let ledger = ledger.as_ref().expect("traced runs keep a ledger");
        let m = per_layer(cases, &refs, &recs, ledger, &natives, &mut out);
        let path = std::path::PathBuf::from(format!(
            ".bench_trace/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match ledger.tracer.write_jsonl(&path) {
            Ok(()) => {
                let _ = writeln!(
                    out,
                    "  {} spans written to {}",
                    ledger.tracer.span_count(),
                    path.display()
                );
            }
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        m
    } else {
        let probe = probe.as_ref().expect("untraced runs sample the probe");
        end_to_end(cases.len(), &recs, &pass_walls, probe, &mut out)?
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if metrics
        .iter()
        .map(|&(n, u, _)| (n, u))
        .ne(expected.iter().copied())
    {
        return Err("the reported metrics differ from the declared list".into());
    }
    let _ = writeln!(
        out,
        "  failed_ratio {} ({} failed / {} attempted)",
        Ratio::new(tally.failed as f64, tally.attempted as f64).value(),
        tally.failed,
        tally.attempted
    );
    print!("{out}");
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (k, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Mean over cases of each case's median sample: the expected value
/// for one partition drawn evenly from the workload, robust to outliers
/// within a partition. Cases without samples are left out.
fn case_mean_of_medians(cases: usize, samples: impl Iterator<Item = (usize, f64)>) -> (f64, usize) {
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); cases];
    let mut n = 0;
    for (c, v) in samples {
        by[c].push(v);
        n += 1;
    }
    let meds: Vec<f64> = by.iter().filter_map(|v| median(v)).collect();
    (meds.iter().sum::<f64>() / meds.len().max(1) as f64, n)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

type Metric = (&'static str, &'static str, f64);

/// The end-to-end figures of one run, each timing taken from the pass
/// it ran in and multiplied by that pass's factor.
struct Summary {
    setup_s: f64,
    sweep_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    quartiles_ms: [f64; 3],
    cycles_per_s: f64,
    pause_ms: f64,
}

fn summarize(
    cases: usize,
    recs: &[Rec],
    pass_walls: &[f64],
    factor: &dyn Fn(usize) -> f64,
) -> Result<Summary, String> {
    let ops: Vec<&Rec> = recs.iter().filter(|r| !r.extra).collect();
    let (setup, _) = case_mean_of_medians(
        cases,
        ops.iter().flat_map(|r| {
            r.ev.setup
                .iter()
                .map(|s| (r.case, s.total() as f64 * factor(r.pass)))
        }),
    );
    let wall_ms = |r: &Rec| r.ev.wall_ns as f64 / 1e6 * factor(r.pass);
    let walls: Vec<f64> = ops.iter().map(|r| wall_ms(r)).collect();
    // Pooled, the median of a mix of partitions of very different sizes
    // falls in the gap between two of them and jumps from run to run;
    // per partition it does not.
    let (p50, _) = case_mean_of_medians(cases, ops.iter().map(|r| (r.case, wall_ms(r))));
    let n = walls.len();
    let p90 = percentile(&walls, 90.0)
        .ok_or_else(|| format!("eval_ms_p90 needs 100 operations, got {n}"))?;
    let sweeps: Vec<f64> = pass_walls
        .iter()
        .enumerate()
        .map(|(pass, w)| w * factor(pass))
        .collect();
    let mut rates = Vec::with_capacity(pass_walls.len());
    for pass in 0..pass_walls.len() {
        let (cycles, run_ns) = ops
            .iter()
            .filter(|r| r.pass == pass)
            .fold((0u64, 0u64), |(c, t), r| {
                (c + r.ev.fpga_cycles, t + r.ev.run_ns)
            });
        rates.push(Ratio::new(cycles as f64, run_ns as f64 / 1e9 * factor(pass)).value());
    }
    let (pause, _) = case_mean_of_medians(
        cases,
        recs.iter().filter(|r| r.ev.snapshot_bytes > 0).map(|r| {
            let ns = (r.ev.snapshot_ns + r.ev.resume_ns) as f64;
            (r.case, ns / 1e6 * factor(r.pass))
        }),
    );
    Ok(Summary {
        setup_s: setup / 1e9,
        sweep_s: median(&sweeps).unwrap_or(0.0) / 1e9,
        p50_ms: p50,
        p90_ms: p90,
        quartiles_ms: quartiles(&walls).expect("operations exist"),
        cycles_per_s: median(&rates).unwrap_or(0.0),
        pause_ms: pause,
    })
}

fn end_to_end(
    cases: usize,
    recs: &[Rec],
    pass_walls: &[f64],
    probe: &calib::Probe,
    out: &mut String,
) -> Result<Vec<Metric>, String> {
    let probe_ns = probe.samples();
    if probe_ns.len() != pass_walls.len() {
        return Err("the host-speed probe needs one sample per pass".into());
    }
    let raw = summarize(cases, recs, pass_walls, &|_| 1.0)?;
    let scaled = summarize(cases, recs, pass_walls, &|pass| {
        calib::REFERENCE_NS / probe_ns[pass]
    })?;
    let n = recs.iter().filter(|r| !r.extra).count();
    let builds: usize = recs
        .iter()
        .filter(|r| !r.extra)
        .map(|r| r.ev.setup.len())
        .sum();
    let migrations = recs.iter().filter(|r| r.ev.snapshot_bytes > 0).count();
    let passes = pass_walls.len();
    let _ = writeln!(
        out,
        "  host probe {:.4} ms (median of {passes} samples, one after each pass); each pass's timings scaled by {:.1} ms / its sample, raw values in brackets",
        median(probe_ns).unwrap_or(0.0) / 1e6,
        calib::REFERENCE_NS / 1e6
    );
    let [q1, _, q3] = raw.quartiles_ms;
    let rss = peak_rss_mb()?;
    // The reported metrics, then one the table shows but the JSON does
    // not: a tail percentile of one run measures how long the host was
    // contended during it, and spreads over runs of the same code by
    // more than the medians do even once scaled.
    let rows: Vec<(&'static str, &'static str, f64, f64, String)> = vec![
        (
            "setup_s",
            "s",
            scaled.setup_s,
            raw.setup_s,
            format!("median per partition, averaged over {cases} partitions; {builds} builds"),
        ),
        ("sweep_s", "s", scaled.sweep_s, raw.sweep_s, format!("median of {passes} passes")),
        (
            "eval_ms_p50",
            "ms",
            scaled.p50_ms,
            raw.p50_ms,
            format!("median per partition, averaged over {cases} partitions; {n} operations"),
        ),
        (
            "sim_cycles_per_s",
            "cycles/s",
            scaled.cycles_per_s,
            raw.cycles_per_s,
            format!("median over {passes} passes of modeled FPGA cycles / run-phase host seconds"),
        ),
        (
            "migrate_pause_ms",
            "ms",
            scaled.pause_ms,
            raw.pause_ms,
            format!("snapshot_bytes + resume_from, median per partition, averaged over partitions; {migrations} migrations"),
        ),
        ("peak_rss_mb", "MB", rss, rss, "VmHWM, not scaled".to_string()),
        (
            "eval_ms_p90",
            "ms",
            scaled.p90_ms,
            raw.p90_ms,
            format!("table only; {n} operations, pooled; raw quartiles {q1:.3} / {q3:.3} ms"),
        ),
    ];
    let mut m = Vec::with_capacity(END_TO_END.len());
    for (name, unit, v, raw_v, note) in rows {
        let _ = writeln!(out, "  {name:<20} {v:>14.6} {unit:<9} [{raw_v:.6}] {note}");
        if m.len() < END_TO_END.len() {
            m.push((name, unit, v));
        }
    }
    Ok(m)
}

fn per_layer(
    cases: &[Case],
    refs: &[Eval],
    recs: &[Rec],
    ledger: &Ledger,
    natives: &[f64],
    out: &mut String,
) -> Vec<Metric> {
    let k = cases.len();
    let traced_ops = || recs.iter().filter(|r| r.traced && !r.extra);
    let untraced_ops = || recs.iter().filter(|r| !r.traced && !r.extra);
    // Timings: per-partition medians averaged over partitions.
    let stage_ms = |f: fn(&workload::Stages) -> u64| {
        case_mean_of_medians(
            k,
            traced_ops().flat_map(|r| r.ev.setup.iter().map(move |s| (r.case, f(s) as f64 / 1e6))),
        )
        .0
    };
    let counter_ms = |f: fn(&workload::Counters) -> u64| {
        case_mean_of_medians(
            k,
            traced_ops().map(|r| (r.case, f(&r.ev.counters) as f64 / 1e6)),
        )
        .0
    };
    // Counts: one evaluation of each partition (the last traced one),
    // summed over partitions.
    let mut last: Vec<Option<&Eval>> = vec![None; k];
    let mut last_migration: Vec<Option<&Eval>> = vec![None; k];
    for r in recs.iter().filter(|r| r.traced) {
        if !r.extra {
            last[r.case] = Some(&r.ev);
        }
        if r.ev.snapshot_bytes > 0 {
            last_migration[r.case] = Some(&r.ev);
        }
    }
    let per_pass = |f: fn(&workload::Counters) -> u64| {
        last.iter().flatten().map(|e| f(&e.counters)).sum::<u64>()
    };
    let migrations = || recs.iter().filter(|r| r.traced && r.ev.snapshot_bytes > 0);

    let elab = stage_ms(|s| s.elab);
    let part = stage_ms(|s| s.partition);
    let build = stage_ms(|s| s.build);
    let load = stage_ms(|s| s.load);
    let xform = counter_ms(|c| c.xform_ns);
    let compile = counter_ms(|c| c.compile_ns);
    let inplace = Ratio::new(per_pass(|c| c.inplace) as f64, per_pass(|c| c.plans) as f64);
    let fired = per_pass(|c| c.sw_fired);
    let failed = per_pass(|c| c.sw_failed);
    let fire = Ratio::new(fired as f64, (fired + failed) as f64);
    let evals = per_pass(|c| c.guard_evals);
    let skipped = per_pass(|c| c.guard_skipped);
    let skip = Ratio::new(skipped as f64, (evals + skipped) as f64);
    let pct = |h: &Histogram, p: f64| h.percentile(p).unwrap_or(0.0);
    let (sw, cy) = (&ledger.steps.sw, &ledger.steps.cosim);
    let snapshot = case_mean_of_medians(
        k,
        migrations().map(|r| (r.case, r.ev.snapshot_ns as f64 / 1e6)),
    );
    let resume = case_mean_of_medians(
        k,
        migrations().map(|r| (r.case, r.ev.resume_ns as f64 / 1e6)),
    );
    let snap_bytes: u64 = last_migration
        .iter()
        .flatten()
        .map(|e| e.snapshot_bytes)
        .sum();
    let model_fpga: u64 = refs.iter().map(|e| e.fpga_cycles).sum();
    let model_cpu: u64 = refs.iter().map(|e| e.cpu_cycles).sum();
    let run_base = case_mean_of_medians(k, untraced_ops().map(|r| (r.case, r.ev.run_ns as f64))).0;
    let native = Ratio::new(run_base * k as f64, natives.iter().sum());
    let traced_wall =
        case_mean_of_medians(k, traced_ops().map(|r| (r.case, r.ev.wall_ns as f64))).0;
    let plain_wall =
        case_mean_of_medians(k, untraced_ops().map(|r| (r.case, r.ev.wall_ns as f64))).0;
    let overhead = Ratio::new(traced_wall, plain_wall);
    let plain_setup = case_mean_of_medians(
        k,
        untraced_ops().flat_map(|r| r.ev.setup.iter().map(|s| (r.case, s.total() as f64 / 1e6))),
    )
    .0;

    let m: Vec<(Metric, String)> = vec![
        (
            ("elab.ms", "ms", elab),
            "build_design: builder + elaborate".into(),
        ),
        (("partition.ms", "ms", part), "partition::partition".into()),
        (
            ("xform.ms", "ms", xform),
            "xform::compile_design, re-run per partition design".into(),
        ),
        (
            ("compile.ms", "ms", compile),
            "compile::compile_plans, re-run per partition design".into(),
        ),
        (("cosim.build_ms", "ms", build), "Cosim::multi".into()),
        (
            ("cosim.load_ms", "ms", load),
            "recovery policy + push_source".into(),
        ),
        (
            ("cosim.build_self_ms", "ms", build - xform - compile),
            "estimate: cosim.build_ms - xform.ms - compile.ms".into(),
        ),
        (
            ("elab.rules", "count", per_pass(|c| c.rules) as f64),
            "per pass".into(),
        ),
        (
            ("elab.prims", "count", per_pass(|c| c.prims) as f64),
            "per pass".into(),
        ),
        (
            (
                "partition.channels",
                "count",
                per_pass(|c| c.channels) as f64,
            ),
            "per pass".into(),
        ),
        (
            ("xform.inplace_ratio", "ratio", inplace.value()),
            format!("{} InPlace of {} plans", inplace.num, inplace.base),
        ),
        (
            ("sched.sw.step_ns_p50", "ns", pct(sw, 50.0)),
            format!("{} SwRunner::step calls", sw.count()),
        ),
        (
            ("sched.sw.step_ns_p99", "ns", pct(sw, 99.0)),
            format!("{} SwRunner::step calls", sw.count()),
        ),
        (
            ("sched.sw.fired", "count", fired as f64),
            "per pass, SwReport".into(),
        ),
        (
            ("sched.sw.failed", "count", failed as f64),
            "per pass, SwReport".into(),
        ),
        (
            ("sched.sw.fire_ratio", "ratio", fire.value()),
            format!("{} fired of {} attempts", fire.num, fire.base),
        ),
        (
            ("sched.guard_evals", "count", evals as f64),
            "per pass, guard_eval_totals".into(),
        ),
        (
            ("sched.guard_skip_ratio", "ratio", skip.value()),
            format!("{} skipped of {} guard checks", skip.num, skip.base),
        ),
        (
            ("cosim.step_ns_p50", "ns", pct(cy, 50.0)),
            format!("{} run_until cycles", cy.count()),
        ),
        (
            ("cosim.step_ns_p99", "ns", pct(cy, 99.0)),
            format!("{} run_until cycles", cy.count()),
        ),
        (
            ("link.words", "count", per_pass(|c| c.link_words) as f64),
            "per pass".into(),
        ),
        (
            ("link.msgs", "count", per_pass(|c| c.link_msgs) as f64),
            "per pass".into(),
        ),
        (
            (
                "link.faults_injected",
                "count",
                per_pass(|c| c.faults_injected) as f64,
            ),
            "per pass: drop + corrupt + duplicate + reorder".into(),
        ),
        (
            (
                "transactor.crc_rejects",
                "count",
                per_pass(|c| c.crc_rejects) as f64,
            ),
            "per pass".into(),
        ),
        (
            (
                "transactor.ack_frames",
                "count",
                per_pass(|c| c.ack_frames) as f64,
            ),
            "per pass".into(),
        ),
        (
            ("persist.snapshot_ms", "ms", snapshot.0),
            format!("{} migrations", snapshot.1),
        ),
        (
            ("persist.resume_ms", "ms", resume.0),
            format!("{} migrations", resume.1),
        ),
        (
            ("persist.snapshot_bytes", "bytes", snap_bytes as f64),
            "one snapshot per partition".into(),
        ),
        (
            (
                "cosim.checkpoint_copied_words",
                "count",
                per_pass(|c| c.ckpt_words) as f64,
            ),
            "per pass".into(),
        ),
        (
            (
                "alloc.setup_count",
                "count",
                per_pass(|c| c.alloc_setup) as f64,
            ),
            "per pass".into(),
        ),
        (
            ("alloc.run_count", "count", per_pass(|c| c.alloc_run) as f64),
            "per pass".into(),
        ),
        (
            ("model.fpga_cycles", "cycles", model_fpga as f64),
            "per pass".into(),
        ),
        (
            ("model.cpu_cycles", "cycles", model_cpu as f64),
            "per pass".into(),
        ),
        (
            ("native.ratio", "ratio", native.value()),
            format!(
                "run phase {:.3} ms over native {:.3} ms",
                native.num / 1e6,
                native.base / 1e6
            ),
        ),
        (
            ("trace.overhead", "ratio", overhead.value()),
            format!(
                "traced {:.3} ms over untraced {:.3} ms per operation",
                overhead.num / 1e6,
                overhead.base / 1e6
            ),
        ),
    ];
    for ((name, unit, v), note) in &m {
        let _ = writeln!(out, "  {name:<30} {v:>14.4} {unit:<6} {note}");
    }
    let layers = elab + part + build + load;
    let _ = writeln!(
        out,
        "  setup accounting: elab + partition + cosim.build + cosim.load = {layers:.3} ms; untraced setup {plain_setup:.3} ms (ratio {:.3}, trace.overhead {:.3})",
        Ratio::new(layers, plain_setup).value(),
        overhead.value()
    );
    m.into_iter().map(|(m, _)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn case_means_skip_empty_cases() {
        let (v, n) = case_mean_of_medians(3, [(0, 1.0), (0, 3.0), (2, 10.0)].into_iter());
        assert_eq!(n, 3);
        assert_eq!(v, (2.0 + 10.0) / 2.0);
    }
}
