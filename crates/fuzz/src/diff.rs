//! The differential harness: one generated design, six executor legs,
//! one verdict.
//!
//! [`run_case`] pushes a spec through the full toolchain and then runs
//! the elaborated design on every executor the workspace has:
//!
//! 1. the naive interpreter (`SwRunner` with `event_driven: false`,
//!    `compiled: false`), the reference every other leg is held to,
//! 2. the fused single-process design (`fuse_partitioned`),
//! 3. the N-partition co-simulation under the given fault plan, with
//!    event-driven scheduling on the interpreter,
//! 4. the flat arena store (`SwOptions { flat: true }`) under the naive
//!    interpreter, which must be bit- and cycle-identical to leg 1,
//! 5. the closure-threaded native backend (`SwOptions { compiled: true
//!    }`): compiled naive and compiled event-driven software runs, each
//!    bit- and cycle-identical to leg 1, plus a compiled co-simulation
//!    cycle-identical to leg 3, and
//! 6. the production path (`compiled: true, flat: true`): the same
//!    native closures over the flat arena, with scalar port traffic
//!    running as unboxed `u64` words — again bit- and cycle-identical.
//!
//! All output streams must equal the spec's gold model bit-for-bit. For
//! fault-free plans the co-simulation additionally runs with naive
//! hardware scheduling and the modeled FPGA cycle counts must agree
//! exactly.
//!
//! Failures come back as `Err(String)` with the pretty-printed program
//! embedded, so a failing case can be promoted into `tests/corpus/`
//! verbatim.

use crate::gen::{build_program, expected_outputs, DesignSpec, FaultPlan};
use bcl_core::domain::SW;
use bcl_core::partition::{fuse_partitioned, partition};
use bcl_core::sched::{Strategy, SwOptions, SwRunner};
use bcl_core::value::Value;
use bcl_core::{analysis, elaborate, Design};
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting};

/// Firing budget for the pure-software runs (generated designs process
/// at most a dozen items through a handful of stages).
const SW_BUDGET: u64 = 1_000_000;

/// Cycle budget for the co-simulated runs (large enough to ride out
/// go-back-N retransmission storms and late revivals).
const COSIM_BUDGET: u64 = 4_000_000;

fn sink_ints(d: &Design, runner: &SwRunner, path: &str) -> Result<Vec<i64>, String> {
    let id = d
        .prim_id(path)
        .ok_or_else(|| format!("design lost its `{path}` sink"))?;
    runner
        .store
        .try_sink_values(id)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|v| v.as_int().map_err(|e| e.to_string()))
        .collect()
}

fn run_sw(d: &Design, spec: &DesignSpec, event_driven: bool) -> Result<SwRunner, String> {
    run_sw_on(d, spec, event_driven, false, false)
}

fn run_sw_on(
    d: &Design,
    spec: &DesignSpec,
    event_driven: bool,
    flat: bool,
    compiled: bool,
) -> Result<SwRunner, String> {
    let opts = SwOptions {
        strategy: Strategy::Dataflow,
        event_driven,
        flat,
        compiled,
        ..SwOptions::default()
    };
    let mut r = SwRunner::new(d, opts);
    let src = d
        .prim_id("src")
        .ok_or_else(|| "design lost its `src` source".to_string())?;
    for &v in &spec.items {
        r.store
            .try_push_source(src, Value::int(spec.width, v))
            .map_err(|e| e.to_string())?;
    }
    let fired = r
        .run_until_quiescent(SW_BUDGET)
        .map_err(|e| format!("software run failed: {e}"))?;
    if fired >= SW_BUDGET {
        return Err(format!(
            "software run did not quiesce in {SW_BUDGET} firings"
        ));
    }
    Ok(r)
}

/// Runs one generated case through every executor; `Err` carries a
/// human-readable report including the pretty-printed program.
pub fn run_case(spec: &DesignSpec, plan: &FaultPlan) -> Result<(), String> {
    let program = build_program(spec);
    let text = bcl_frontend::pretty::pretty_program(&program);
    run_case_inner(spec, plan, &program)
        .map_err(|e| format!("{e}\nspec: {spec:?}\nplan: {plan:?}\nprogram:\n{text}"))
}

fn run_case_inner(
    spec: &DesignSpec,
    plan: &FaultPlan,
    program: &bcl_core::program::Program,
) -> Result<(), String> {
    // Front door: a generated spec is well-typed by construction, so
    // every static stage must accept it.
    bcl_frontend::typecheck::typecheck(program).map_err(|e| format!("typecheck: {e}"))?;
    let design = elaborate(program).map_err(|e| format!("elaborate: {e}"))?;
    analysis::validate(&design).map_err(|errs| {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        format!("validate rejected a generated design: {}", msgs.join("; "))
    })?;

    let gold = expected_outputs(spec);

    // Leg 1: naive interpreter.
    let naive = run_sw(&design, spec, false)?;
    let got_a = sink_ints(&design, &naive, "snk")?;
    if got_a != gold {
        return Err(format!(
            "naive interpreter disagrees with gold model:\n  got  {got_a:?}\n  want {gold:?}"
        ));
    }
    let ra = naive.report();

    // Leg 4: the flat arena store under the naive interpreter — equal
    // sink stream and equal SwReport (per-rule firing counts and
    // modeled cpu_cycles) to leg 1.
    let flat_run = run_sw_on(&design, spec, false, true, false)?;
    let got = sink_ints(&design, &flat_run, "snk")?;
    if got != gold {
        return Err(format!(
            "flat store disagrees with gold model:\n  got  {got:?}\n  want {gold:?}"
        ));
    }
    let rf = flat_run.report();
    if rf != ra {
        return Err(format!(
            "flat store is not cycle-identical to the tree store:\n  \
             tree {ra:?}\n  flat {rf:?}"
        ));
    }

    // Legs 5 and 6 (software half): the closure-threaded native backend
    // on the tree store and on the flat arena, in both guard scheduling
    // modes. Each run must be bit- and cycle-identical to leg 1.
    for event_driven in [false, true] {
        for flat in [false, true] {
            let native_run = run_sw_on(&design, spec, event_driven, flat, true)?;
            let got = sink_ints(&design, &native_run, "snk")?;
            if got != gold {
                return Err(format!(
                    "compiled backend (event_driven={event_driven}, flat={flat}) disagrees \
                     with gold model:\n  got  {got:?}\n  want {gold:?}"
                ));
            }
            let rn = native_run.report();
            if rn != ra {
                return Err(format!(
                    "compiled backend (event_driven={event_driven}, flat={flat}) is not \
                     cycle-identical to the naive interpreter:\n  interp {ra:?}\n  \
                     compiled {rn:?}"
                ));
            }
        }
    }

    // Leg 2: fused single-process design.
    let parts = partition(&design, SW).map_err(|e| format!("partition: {e}"))?;
    let fused = fuse_partitioned(&parts).map_err(|e| format!("fuse: {e}"))?;
    let fused_run = run_sw(&fused.design, spec, true)?;
    let got_c = sink_ints(&fused.design, &fused_run, "snk")?;
    if got_c != gold {
        return Err(format!(
            "fused design disagrees with gold model:\n  got  {got_c:?}\n  want {gold:?}"
        ));
    }

    // Leg 3: N-partition co-simulation under the fault plan.
    let hw = parts.hw_domains(SW);
    let cosim_cycles_of =
        |hw_event_driven: bool, flat: bool, compiled: bool| -> Result<(Vec<i64>, u64), String> {
            let cfgs: Vec<HwPartitionCfg> = hw
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let fc = if i == 0 {
                        plan.fault_config()
                    } else {
                        plan.link_only_config()
                    };
                    HwPartitionCfg::new(d)
                        .with_faults(fc)
                        .with_event_driven(hw_event_driven)
                        .with_compiled(compiled)
                })
                .collect();
            let routing = if plan.fabric {
                InterHwRouting::fabric()
            } else {
                InterHwRouting::ViaHub
            };
            let sw_opts = SwOptions {
                flat,
                compiled,
                ..SwOptions::default()
            };
            let mut cs = Cosim::multi(&parts, SW, &cfgs, routing, sw_opts)
                .map_err(|e| format!("cosim setup: {e}"))?;
            if let Some(p) = plan.recovery() {
                cs.set_recovery_policy(p);
            }
            for &v in &spec.items {
                cs.try_push_source("src", Value::int(spec.width, v))
                    .map_err(|e| format!("cosim push: {e}"))?;
            }
            let n = gold.len();
            let out = cs
                .run_until(|c| c.sink_count("snk") == n, COSIM_BUDGET)
                .map_err(|e| format!("cosim run: {e}"))?;
            if !out.is_done() {
                return Err(format!(
                    "cosim did not deliver all {n} outputs within {COSIM_BUDGET} cycles \
                 (got {})",
                    cs.sink_count("snk")
                ));
            }
            let got: Vec<i64> = cs
                .sink_values("snk")
                .iter()
                .map(|v| v.as_int().map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            Ok((got, out.fpga_cycles()))
        };

    let (got_d, cycles_event) = cosim_cycles_of(true, false, false)?;
    if got_d != gold {
        return Err(format!(
            "co-simulation disagrees with gold model:\n  got  {got_d:?}\n  want {gold:?}"
        ));
    }

    // Leg 5 (platform half): the same co-simulation with every
    // scheduler on the native backend — same value stream, same modeled
    // FPGA time.
    let (got_native, cycles_native) = cosim_cycles_of(true, false, true)?;
    if got_native != gold {
        return Err(format!(
            "compiled co-simulation disagrees with gold model:\n  \
             got  {got_native:?}\n  want {gold:?}"
        ));
    }
    if cycles_native != cycles_event {
        return Err(format!(
            "compiled co-simulation is not cycle-identical to the interpreter: \
             {cycles_native} vs {cycles_event} FPGA cycles"
        ));
    }

    // Leg 6 (platform half): the native backend over flat arena stores
    // on both sides of the link — unboxed port traffic, same stream,
    // same time.
    let (got_word, cycles_word) = cosim_cycles_of(true, true, true)?;
    if got_word != gold {
        return Err(format!(
            "compiled+flat co-simulation disagrees with gold model:\n  \
             got  {got_word:?}\n  want {gold:?}"
        ));
    }
    if cycles_word != cycles_event {
        return Err(format!(
            "compiled+flat co-simulation is not cycle-identical to the interpreter: \
             {cycles_word} vs {cycles_event} FPGA cycles"
        ));
    }

    // For fault-free plans the event-driven and naive hardware
    // schedulers must also agree on modeled FPGA time exactly.
    if plan.is_fault_free() && !hw.is_empty() {
        let (got_naive_hw, cycles_naive) = cosim_cycles_of(false, false, false)?;
        if got_naive_hw != gold {
            return Err(format!(
                "naive-hardware co-simulation disagrees with gold model:\n  \
                 got  {got_naive_hw:?}\n  want {gold:?}"
            ));
        }
        if cycles_event != cycles_naive {
            return Err(format!(
                "event-driven hardware is not cycle-identical to naive hardware: \
                 {cycles_event} vs {cycles_naive} FPGA cycles"
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{PartitionPlan, StageSpec, Transform};

    fn spec() -> DesignSpec {
        DesignSpec {
            width: 16,
            depth: 2,
            stages: vec![
                StageSpec {
                    domain: 1,
                    transform: Transform::AddConst(7),
                },
                StageSpec {
                    domain: 2,
                    transform: Transform::RegFileMix(4),
                },
            ],
            diamond: None,
            wrap_stage: None,
            items: vec![1, 2, 3, 2, 1],
        }
    }

    #[test]
    fn clean_case_passes() {
        run_case(&spec(), &FaultPlan::quiet()).unwrap();
    }

    #[test]
    fn faulted_case_passes() {
        let plan = FaultPlan {
            seed: 7,
            drop: 20,
            corrupt: 10,
            dup: 10,
            reorder: 10,
            fabric: true,
            partition: Some(PartitionPlan::Die {
                at: 40,
                interval: 25,
            }),
        };
        run_case(&spec(), &plan).unwrap();
    }

    #[test]
    fn all_software_case_passes() {
        let mut s = spec();
        for st in &mut s.stages {
            st.domain = 0;
        }
        run_case(&s, &FaultPlan::quiet()).unwrap();
    }
}
