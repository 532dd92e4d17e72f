//! Construction-cost pins for rule lowering, counted in heap
//! allocations (wall clock is too noisy to pin in a test).
//!
//! 1. Lowering is a single bottom-up pass: a guard or body whose root
//!    cannot take the word path, sitting over a deep chain that can,
//!    costs allocations linear in the chain's depth. A lowerer that
//!    retries the word path at every level is quadratic here.
//! 2. Building the all-software Vorbis partition (F) with the compiled
//!    executor on the flat store stays under a fixed allocation budget,
//!    so building an unused executable form cannot quietly return.

use bcl_core::ast::{Action, Expr, Path, PrimId, PrimMethod, RuleDef, Target};
use bcl_core::compile::compile_plan;
use bcl_core::design::{Design, PrimDef};
use bcl_core::domain::SW;
use bcl_core::partition::partition;
use bcl_core::prim::PrimSpec;
use bcl_core::sched::{Strategy, SwOptions};
use bcl_core::value::{BinOp, UnOp, Value};
use bcl_core::xform::{compile_rule, CompileOpts};
use bcl_platform::cosim::{Cosim, HwPartitionCfg, InterHwRouting};
use bcl_vorbis::bcl::{build_design, BackendOptions};
use bcl_vorbis::partitions::{ml507_link, VorbisPartition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation count, so tests
/// running in parallel threads do not see each other's allocations.
struct CountingAlloc;

fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread-local counters are const-initialized `Cell`s,
// which neither allocate nor register destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread (its result is dropped outside
/// the counted window).
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    drop(out);
    ALLOCS.with(|n| n.get())
}

const A: PrimId = PrimId(0);

fn d1() -> Design {
    Design {
        name: "chain".into(),
        prims: vec![PrimDef {
            path: Path::new("a"),
            spec: PrimSpec::Reg {
                init: Value::int(32, 0),
            },
        }],
        ..Default::default()
    }
}

fn rd() -> Expr {
    Expr::Call(Target::Prim(A, PrimMethod::RegRead), vec![])
}

fn add(x: Expr, y: Expr) -> Expr {
    Expr::Bin(BinOp::Add, Box::new(x), Box::new(y))
}

fn var(i: usize) -> Expr {
    Expr::Var(format!("x{i}"))
}

/// `let x1 = a + 1 in let x2 = x1 + 1 in ... in body`: every bound value
/// is a word expression; `body` (over `x<depth>`) is not.
fn let_chain(depth: usize, body: Expr) -> Expr {
    let mut e = body;
    for i in (1..=depth).rev() {
        let prev = if i == 1 { rd() } else { var(i - 1) };
        e = Expr::Let(
            format!("x{i}"),
            Box::new(add(prev, Expr::int(32, 1))),
            Box::new(e),
        );
    }
    e
}

/// `a + (a + (... + !a))`: a word operand at every level, a non-word
/// expression at the bottom.
fn spine(depth: usize) -> Expr {
    let mut e = Expr::Un(UnOp::Not, Box::new(rd()));
    for _ in 0..depth {
        e = add(rd(), e);
    }
    e
}

fn lowering_allocs(body: Action) -> u64 {
    let d = d1();
    let plan = compile_rule(
        &RuleDef {
            name: "r".into(),
            body,
        },
        CompileOpts::default(),
    );
    allocs_of(|| compile_plan(&plan, &d))
}

#[test]
fn lowering_allocations_grow_linearly_with_depth() {
    let write = |e: Expr| Action::Write(Target::Prim(A, PrimMethod::RegWrite), Box::new(e));
    // `!` of an integer has no word form.
    let body_chain = |d: usize| write(let_chain(d, Expr::Un(UnOp::Not, Box::new(var(d)))));
    // The lifted guard is a `let` chain whose root is a vector comparison.
    let guard = |d: usize| {
        let vec_of = |x| Box::new(Expr::MkVec(vec![x]));
        let g = let_chain(d, Expr::Bin(BinOp::Eq, vec_of(var(d)), vec_of(var(d))));
        Action::When(Box::new(g), Box::new(write(Expr::int(32, 1))))
    };
    let shapes: [(&str, &dyn Fn(usize) -> Action); 3] = [
        ("body let chain", &body_chain),
        ("body operand spine", &|d| write(spine(d))),
        ("guard let chain", &guard),
    ];
    for (name, shape) in shapes {
        let at50 = lowering_allocs(shape(50));
        let at100 = lowering_allocs(shape(100));
        // Linear growth doubles the count (plus a constant); quadratic
        // growth quadruples it.
        assert!(
            at100 * 10 <= at50 * 25,
            "{name}: {at50} allocations at depth 50 but {at100} at depth 100 — \
             lowering is not linear in depth"
        );
    }
}

#[test]
fn vorbis_f_compiled_cosim_build_stays_within_its_allocation_budget() {
    let domains = VorbisPartition::F.domains();
    let design = build_design(&BackendOptions {
        domains,
        ..Default::default()
    })
    .unwrap();
    let parts = partition(&design, SW).unwrap();
    let sw_opts = SwOptions {
        strategy: Strategy::Dataflow,
        event_driven: true,
        flat: true,
        compiled: true,
        ..Default::default()
    };
    let cfgs = [HwPartitionCfg::new(bcl_core::domain::HW)
        .with_link(ml507_link())
        .with_compiled(true)];
    let n = allocs_of(|| Cosim::multi(&parts, SW, &cfgs, InterHwRouting::ViaHub, sw_opts).unwrap());
    eprintln!("Cosim::multi for Vorbis F (compiled, flat): {n} allocations");
    // About 113k with one lowering per rule. Lowering every rule twice
    // (a boxed twin beside the word lowering: ~35k more) or retrying the
    // word path per node (~90k more) breaks the bound.
    assert!(n <= 135_000, "{n} allocations building Vorbis F");
}
