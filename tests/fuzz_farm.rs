//! The differential fuzz farm (ROADMAP 4c).
//!
//! Random well-typed designs × random partitions × random fault
//! schedules, with every executor required to produce bit-identical
//! output streams (and cycle-identical modeled costs where the
//! comparison is meaningful). Failing cases are minimized at the spec
//! level before being reported, and previously-found regressions are
//! replayed from `tests/corpus/`.

use bcl_core::ast::{PrimId, Target};
use bcl_core::domain::SW;
use bcl_core::{analysis, elaborate, partition};
use bcl_fuzz::gen::{build_program, PartitionPlan, StageSpec, Transform};
use bcl_fuzz::{arb_design, arb_faults, run_case, shrink_case, DesignSpec, FaultPlan};
use proptest::prelude::*;

// ---- the differential property -----------------------------------------

proptest! {
    // ISSUE 7 acceptance: at least 256 generated cases per run.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every generated (design, fault plan) pair must agree across the
    /// six legs of `run_case` — the naive interpreter, the fused design,
    /// the N-partition co-simulation, the flat arena store, and the
    /// native closures on both stores — all equal to the gold model.
    #[test]
    fn all_executors_agree(spec in arb_design(), plan in arb_faults()) {
        if let Err(e) = run_case(&spec, &plan) {
            // The vendored proptest has no shrinking; minimize at the
            // spec level before reporting.
            let (ms, mp) =
                shrink_case(&spec, &plan, |s, p| run_case(s, p).is_err());
            let me = run_case(&ms, &mp).err().unwrap_or_default();
            prop_assert!(
                false,
                "differential mismatch.\n--- original failure ---\n{e}\n\
                 --- minimized reproducer ---\n{me}"
            );
        }
    }
}

// ---- corrupted designs must be rejected, never panic -------------------

/// Ways to corrupt an elaborated design after the fact.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// Point every rule target at a primitive id past the end.
    DanglingPrim,
    /// Drop the last primitive, leaving dangling references behind.
    TruncatePrims,
    /// Duplicate a primitive path.
    DuplicatePath,
    /// Swap each rule's first write method for a nonsensical one.
    WrongMethod,
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::DanglingPrim),
        Just(Corruption::TruncatePrims),
        Just(Corruption::DuplicatePath),
        Just(Corruption::WrongMethod),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `validate` (or a downstream typed error) must catch every
    /// corrupted design; nothing may panic.
    #[test]
    fn corrupted_designs_are_rejected(spec in arb_design(), how in arb_corruption()) {
        let program = build_program(&spec);
        let mut d = elaborate(&program).expect("generated specs elaborate");
        let n = d.prims.len();
        match how {
            Corruption::DanglingPrim => {
                for r in &mut d.rules {
                    visit_targets(&mut r.body, &mut |t| {
                        let m = match t {
                            Target::Prim(_, m) => *m,
                            Target::Named(..) => bcl_core::PrimMethod::RegRead,
                        };
                        *t = Target::Prim(PrimId(n + 7), m);
                    });
                }
            }
            Corruption::TruncatePrims => {
                d.prims.pop();
            }
            Corruption::DuplicatePath => {
                let first = d.prims[0].clone();
                d.prims.push(first);
            }
            Corruption::WrongMethod => {
                for r in &mut d.rules {
                    visit_targets(&mut r.body, &mut |t| {
                        if let Target::Prim(id, m) = t {
                            if m.is_write() {
                                // A value method in action position (and
                                // usually the wrong kind too).
                                *t = Target::Prim(*id, bcl_core::PrimMethod::First);
                            }
                        }
                    });
                }
            }
        }
        // The front door must reject it with typed diagnostics…
        let validated = analysis::validate(&d);
        prop_assert!(
            validated.is_err(),
            "validate accepted a corrupted design ({how:?})"
        );
        // …and the partitioner must degrade to Err, not panic, even
        // when called without validation.
        let _ = partition::partition(&d, SW);
    }
}

/// Applies `f` to every method-call target in an action tree.
fn visit_targets(a: &mut bcl_core::Action, f: &mut impl FnMut(&mut Target)) {
    use bcl_core::Action::*;
    match a {
        NoAction => {}
        Write(t, e) => {
            f(t);
            visit_expr_targets(e, f);
        }
        Call(t, args) => {
            f(t);
            for e in args {
                visit_expr_targets(e, f);
            }
        }
        If(c, th, el) => {
            visit_expr_targets(c, f);
            visit_targets(th, f);
            visit_targets(el, f);
        }
        When(c, b) | Loop(c, b) => {
            visit_expr_targets(c, f);
            visit_targets(b, f);
        }
        LocalGuard(b) => visit_targets(b, f),
        Let(_, e, b) => {
            visit_expr_targets(e, f);
            visit_targets(b, f);
        }
        Par(a, b) | Seq(a, b) => {
            visit_targets(a, f);
            visit_targets(b, f);
        }
    }
}

/// Applies `f` to every method-call target in an expression tree.
fn visit_expr_targets(e: &mut bcl_core::Expr, f: &mut impl FnMut(&mut Target)) {
    use bcl_core::Expr::*;
    match e {
        Const(_) | Var(_) => {}
        Un(_, a) => visit_expr_targets(a, f),
        Bin(_, a, b) => {
            visit_expr_targets(a, f);
            visit_expr_targets(b, f);
        }
        Cond(c, a, b) => {
            visit_expr_targets(c, f);
            visit_expr_targets(a, f);
            visit_expr_targets(b, f);
        }
        When(c, b) | Index(c, b) => {
            visit_expr_targets(c, f);
            visit_expr_targets(b, f);
        }
        Let(_, a, b) => {
            visit_expr_targets(a, f);
            visit_expr_targets(b, f);
        }
        Call(t, args) => {
            f(t);
            for a in args {
                visit_expr_targets(a, f);
            }
        }
        Field(a, _) => visit_expr_targets(a, f),
        MkVec(xs) => {
            for x in xs {
                visit_expr_targets(x, f);
            }
        }
        MkStruct(fs) => {
            for (_, x) in fs {
                visit_expr_targets(x, f);
            }
        }
        UpdateIndex(a, i, v) => {
            visit_expr_targets(a, f);
            visit_expr_targets(i, f);
            visit_expr_targets(v, f);
        }
        UpdateField(a, _, v) => {
            visit_expr_targets(a, f);
            visit_expr_targets(v, f);
        }
    }
}

// ---- corpus replay ------------------------------------------------------

fn corpus_files(dir: &str) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {dir}: {e}"))
        .filter_map(|x| x.ok())
        .map(|x| x.path())
        .filter(|p| p.extension().is_some_and(|e| e == "bcl"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_replays_through_every_executor() {
    let files = corpus_files("tests/corpus");
    assert!(!files.is_empty(), "tests/corpus must not be empty");
    for f in files {
        let src = std::fs::read_to_string(&f).unwrap();
        bcl_fuzz::corpus::replay(&src)
            .unwrap_or_else(|e| panic!("corpus replay failed for {}: {e}", f.display()));
    }
}

#[test]
fn invalid_corpus_is_rejected_without_panicking() {
    let files = corpus_files("tests/corpus/invalid");
    assert!(!files.is_empty(), "tests/corpus/invalid must not be empty");
    for f in files {
        let src = std::fs::read_to_string(&f).unwrap();
        bcl_fuzz::corpus::must_reject(&src).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
    }
}

// ---- deterministic faulted smoke cases ---------------------------------

fn smoke_spec() -> DesignSpec {
    DesignSpec {
        width: 16,
        depth: 2,
        stages: vec![
            StageSpec {
                domain: 1,
                transform: Transform::AccAdd(3),
            },
            StageSpec {
                domain: 2,
                transform: Transform::XorConst(21),
            },
            StageSpec {
                domain: 3,
                transform: Transform::MulConst(5),
            },
        ],
        diamond: Some(1),
        wrap_stage: None,
        items: vec![3, 1, 4, 1, 5, 9, 2, 6],
    }
}

#[test]
fn smoke_die_with_failover() {
    let plan = FaultPlan {
        seed: 42,
        drop: 15,
        corrupt: 5,
        dup: 5,
        reorder: 5,
        fabric: false,
        partition: Some(PartitionPlan::Die {
            at: 60,
            interval: 30,
        }),
    };
    run_case(&smoke_spec(), &plan).unwrap();
}

#[test]
fn smoke_die_then_revive() {
    let plan = FaultPlan {
        seed: 1,
        drop: 0,
        corrupt: 0,
        dup: 0,
        reorder: 0,
        fabric: true,
        partition: Some(PartitionPlan::DieRevive {
            die: 50,
            revive: 400,
            interval: 25,
        }),
    };
    run_case(&smoke_spec(), &plan).unwrap();
}

#[test]
fn smoke_reset_with_checkpoint_restart() {
    let plan = FaultPlan {
        seed: 9,
        drop: 10,
        corrupt: 0,
        dup: 10,
        reorder: 0,
        fabric: false,
        partition: Some(PartitionPlan::Reset {
            at: 80,
            restart: true,
            interval: 40,
        }),
    };
    run_case(&smoke_spec(), &plan).unwrap();
}
