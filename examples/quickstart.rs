//! Quickstart: write a BCL design, run it as software, run it as
//! hardware, and see that the two agree — the language's core promise.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Because the two sides are interchangeable, the co-simulator can move
//! a partition between them *at runtime*: an accelerator can die
//! mid-stream, fail over to a re-fused software design, and later be
//! revived back into hardware — all without changing a single output
//! bit. `examples/failover_demo.rs` shows the die → failover half,
//! `examples/failback_demo.rs` the full die → failover → revive arc
//! (throughput collapsing to CPU speed and recovering after the
//! handback).

use bcl_core::builder::{dsl::*, ModuleBuilder};
use bcl_core::program::Program;
use bcl_core::sched::{HwSim, SwOptions, SwRunner};
use bcl_core::types::Type;
use bcl_core::value::Value;
use bcl_core::{PrimMethod, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A classic: Euclid's GCD as two guarded atomic rules, plus a stream
    // interface — pairs go in, GCDs come out.
    let mut m = ModuleBuilder::new("GcdServer");
    m.source("req", Type::vector(2, Type::Int(32)), "SW");
    m.sink("resp", Type::Int(32), "SW");
    m.reg("x", Value::int(32, 0));
    m.reg("y", Value::int(32, 0));
    m.reg("busy", Value::Bool(false));

    // Accept a request when idle.
    m.rule(
        "accept",
        when_a(
            eq(read("busy"), cbool(false)),
            with_first(
                "p",
                "req",
                par(vec![
                    write("x", index(var("p"), cint(32, 0))),
                    write("y", index(var("p"), cint(32, 1))),
                    write("busy", cbool(true)),
                ]),
            ),
        ),
    );
    // The two GCD rules (compare §4's rule style).
    let running = and(eq(read("busy"), cbool(true)), ne(read("y"), cint(32, 0)));
    m.rule(
        "swap",
        when_a(
            and(running.clone(), gt(read("x"), read("y"))),
            par(vec![write("x", read("y")), write("y", read("x"))]),
        ),
    );
    m.rule(
        "subtract",
        when_a(
            and(running, le(read("x"), read("y"))),
            write("y", sub_e(read("y"), read("x"))),
        ),
    );
    // Deliver the answer.
    m.rule(
        "deliver",
        when_a(
            and(eq(read("busy"), cbool(true)), eq(read("y"), cint(32, 0))),
            par(vec![enq("resp", read("x")), write("busy", cbool(false))]),
        ),
    );

    let design = bcl_core::elaborate(&Program::with_root(m.build()))?;
    println!(
        "design `{}`: {} primitives, {} rules\n",
        design.name,
        design.prims.len(),
        design.rules.len()
    );

    let requests = [(105i64, 45i64), (1071, 462), (17, 5), (270, 192)];
    let load = |store: &mut Store| {
        let src = design.prim_id("req").expect("req");
        for (a, b) in requests {
            store.push_source(src, Value::Vec(vec![Value::int(32, a), Value::int(32, b)]));
        }
    };

    // --- software execution -------------------------------------------
    // Both schedulers run event-driven by default: rules lower once to
    // native closures, guard verdicts are cached, and only rules whose
    // read set intersects the prims written since the last probe are
    // re-evaluated. `SwOptions { event_driven: false, compiled: false,
    // .. }` (likewise `HwOptions`) selects the naive evaluate-every-guard
    // reference mode on the AST interpreter — same results, slower.
    let mut store = Store::new(&design);
    load(&mut store);
    let mut sw = SwRunner::with_store(&design, store, SwOptions::default());
    sw.run_until_quiescent(100_000)?;
    let snk = design.prim_id("resp").expect("resp");
    let sw_out: Vec<i64> = sw
        .store
        .sink_values(snk)
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    println!(
        "software schedule : {sw_out:?}  ({} CPU cycles)",
        sw.cpu_cycles()
    );

    // --- hardware execution --------------------------------------------
    let mut store = Store::new(&design);
    load(&mut store);
    let mut hw = HwSim::with_store(&design, store)?;
    hw.run_until_quiescent(1_000_000)?;
    let hw_out: Vec<i64> = hw
        .store
        .sink_values(snk)
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    println!(
        "hardware schedule : {hw_out:?}  ({} clock cycles)",
        hw.cycles
    );

    assert_eq!(sw_out, hw_out, "one-rule-at-a-time semantics: both agree");
    for ((a, b), g) in requests.iter().zip(&sw_out) {
        println!("  gcd({a}, {b}) = {g}");
    }

    // Peek at the register state to show it is ordinary, inspectable data.
    let x = design.prim_id("x").expect("x");
    println!(
        "\nfinal x register: {}",
        sw.store.state(x).call_value(PrimMethod::RegRead, &[])?
    );
    println!(
        "\nBecause both sides agree, a partition can move between them at\n\
         runtime: try `cargo run --release --example failback_demo` for the\n\
         die -> failover -> revive arc on a co-simulated accelerator."
    );
    Ok(())
}
