//! Replay of checked-in regression designs (`tests/corpus/*.bcl`).
//!
//! When the differential property in `tests/fuzz_farm.rs` finds a
//! failing case, the error report embeds the pretty-printed program;
//! the fix lands together with that program checked in under
//! `tests/corpus/`, where [`replay`] re-runs it through every executor
//! on every test run — the fuzz farm's findings become ordinary
//! deterministic regression tests. Files under `tests/corpus/invalid/`
//! go through [`must_reject`] instead: the pipeline must refuse them
//! with a typed error at some stage and must never panic.
//!
//! Replay feeds every source the same fixed stream (0..16, normalized
//! to the source's width), so corpus designs need no side-channel
//! input files.

use bcl_core::domain::SW;
use bcl_core::partition::{fuse_partitioned, partition};
use bcl_core::prim::PrimSpec;
use bcl_core::sched::{ExecBackend, SwOptions, SwRunner};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::{analysis, elaborate, Design, PrimId};
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting};
use std::collections::BTreeMap;

/// Items fed to every source during replay.
const FEED: i64 = 16;

/// Firing budget for software replays.
const SW_BUDGET: u64 = 1_000_000;

/// Cycle budget for the co-simulated replay.
const COSIM_BUDGET: u64 = 4_000_000;

fn source_width(d: &Design, id: PrimId) -> Result<u32, String> {
    match &d.prim(id).spec {
        PrimSpec::Source {
            ty: Type::Int(w), ..
        } => Ok(*w),
        PrimSpec::Source { ty, .. } => Err(format!(
            "corpus replay only feeds Int sources; `{}` has type {ty:?}",
            d.prim(id).path
        )),
        _ => unreachable!("sources() returned a non-source"),
    }
}

/// Runs a design on a [`SwRunner`] with preloaded sources and returns
/// the per-sink output streams, keyed by sink path.
fn run_sw(d: &Design, backend: ExecBackend) -> Result<BTreeMap<String, Vec<i64>>, String> {
    let mut r = SwRunner::new(
        d,
        SwOptions {
            event_driven: backend.event_driven(),
            flat: backend.flat(),
            compiled: backend.compiled(),
            ..SwOptions::default()
        },
    );
    for id in d.sources() {
        let w = source_width(d, id)?;
        for v in 0..FEED {
            r.store
                .try_push_source(id, Value::int(w, v))
                .map_err(|e| e.to_string())?;
        }
    }
    let fired = r
        .run_until_quiescent(SW_BUDGET)
        .map_err(|e| format!("software replay failed: {e}"))?;
    if fired >= SW_BUDGET {
        return Err(format!("replay did not quiesce in {SW_BUDGET} firings"));
    }
    let mut out = BTreeMap::new();
    for id in d.sinks() {
        let vals: Vec<i64> = r
            .store
            .try_sink_values(id)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|v| v.as_int().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        out.insert(d.prim(id).path.to_string(), vals);
    }
    Ok(out)
}

/// Replays one corpus design through parse → typecheck → elaborate →
/// validate and then through every executor leg of the differential
/// harness ([`crate::diff::run_case`]), requiring agreement.
pub fn replay(src: &str) -> Result<(), String> {
    let program = bcl_frontend::parser::parse(src).map_err(|e| format!("parse: {e}"))?;
    bcl_frontend::typecheck::typecheck(&program).map_err(|e| format!("typecheck: {e}"))?;
    let design = elaborate(&program).map_err(|e| format!("elaborate: {e}"))?;
    analysis::validate(&design).map_err(|errs| {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        format!("validate: {}", msgs.join("; "))
    })?;

    // The reference and the production executor.
    let naive = run_sw(&design, ExecBackend::Naive)?;
    let compiled = run_sw(&design, ExecBackend::Compiled)?;
    if naive != compiled {
        return Err(format!(
            "compiled backend disagrees with naive interpreter:\n  naive {naive:?}\n  \
             compiled {compiled:?}"
        ));
    }

    // Fused single-process design.
    let parts = partition(&design, SW).map_err(|e| format!("partition: {e}"))?;
    let fused = fuse_partitioned(&parts).map_err(|e| format!("fuse: {e}"))?;
    let fused_out = run_sw(&fused.design, ExecBackend::Compiled)?;
    if fused_out != naive {
        return Err(format!(
            "fused design disagrees:\n  fused {fused_out:?}\n  naive {naive:?}"
        ));
    }

    // Fault-free N-partition co-simulation.
    let hw = parts.hw_domains(SW);
    let cfgs: Vec<HwPartitionCfg> = hw.iter().map(|d| HwPartitionCfg::new(d)).collect();
    let mut cs = Cosim::multi(
        &parts,
        SW,
        &cfgs,
        InterHwRouting::ViaHub,
        SwOptions::default(),
    )
    .map_err(|e| format!("cosim setup: {e}"))?;
    for id in design.sources() {
        let w = source_width(&design, id)?;
        let path = design.prim(id).path.to_string();
        for v in 0..FEED {
            cs.try_push_source(&path, Value::int(w, v))
                .map_err(|e| format!("cosim push: {e}"))?;
        }
    }
    let want_counts: BTreeMap<&str, usize> =
        naive.iter().map(|(k, v)| (k.as_str(), v.len())).collect();
    let out = cs
        .run_until(
            |c| want_counts.iter().all(|(path, n)| c.sink_count(path) == *n),
            COSIM_BUDGET,
        )
        .map_err(|e| format!("cosim run: {e}"))?;
    if !out.is_done() {
        return Err(format!(
            "cosim replay did not reach the software sink counts within {COSIM_BUDGET} cycles"
        ));
    }
    for (path, want) in &naive {
        let got: Vec<i64> = cs
            .sink_values(path)
            .iter()
            .map(|v| v.as_int().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        if &got != want {
            return Err(format!(
                "cosim disagrees at sink `{path}`:\n  cosim {got:?}\n  naive {want:?}"
            ));
        }
    }
    Ok(())
}

/// Replays an intentionally invalid corpus file: some pipeline stage
/// must reject it with a typed error. Returns `Err` if the whole
/// pipeline accepted it.
pub fn must_reject(src: &str) -> Result<(), String> {
    let program = match bcl_frontend::parser::parse(src) {
        Err(_) => return Ok(()),
        Ok(p) => p,
    };
    if bcl_frontend::typecheck::typecheck(&program).is_err() {
        return Ok(());
    }
    let design = match elaborate(&program) {
        Err(_) => return Ok(()),
        Ok(d) => d,
    };
    if analysis::validate(&design).is_err() {
        return Ok(());
    }
    Err("pipeline accepted a corpus file expected to be rejected".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = r#"
module Top {
  source src : Int#(8) @ SW;
  sink snk : Int#(8) @ SW;
  sync q[2] : Int#(8) from SW to HW;
  sync r[2] : Int#(8) from HW to SW;
  rule feed: let x = src.first() in { q.enq(x + 1i8) | src.deq() }
  rule work: let y = q.first() in { r.enq(y * 2i8) | q.deq() }
  rule drain: let z = r.first() in { snk.enq(z) | r.deq() }
}
"#;

    #[test]
    fn replay_accepts_simple_pipeline() {
        replay(SIMPLE).unwrap();
    }

    #[test]
    fn must_reject_catches_type_error() {
        let bad = SIMPLE.replace("x + 1i8", "x + true");
        must_reject(&bad).unwrap();
    }

    #[test]
    fn must_reject_fails_on_valid_input() {
        assert!(must_reject(SIMPLE).is_err());
    }
}
