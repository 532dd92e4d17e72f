//! Rule schedulers: the software execution strategy (§6.2–6.3) and the
//! BSV-style synchronous hardware scheduler (§6.4).
//!
//! The same elaborated design can be driven by either scheduler; the paper's
//! central observation is that software wants to "pass the algorithm over
//! the data" (run rules in dataflow order, one datum end-to-end) while
//! hardware wants to "pass the data through the algorithm" (fire every
//! stage once per clock on different data). Both schedulers resolve the
//! nondeterministic choice of the one-rule-at-a-time semantics — neither
//! can produce a behaviour the rules don't allow.

mod hw;
mod sw;

pub use hw::{hw_check, HwOptions, HwReport, HwSim, HwSnapshot};
pub use sw::{ExecBackend, Strategy, SwOptions, SwReport, SwRunner, SwSnapshot};

use crate::ast::{Action, Expr};
use crate::compile::{compile_plans_for, NativeFrame, NativeRule};
use crate::design::Design;
use crate::error::ExecResult;
use crate::exec::{
    eval_guard_compiled, eval_guard_ro, run_rule, run_rule_compiled, run_rule_inplace,
    run_rule_inplace_compiled, RuleOutcome, Vm,
};
use crate::store::{Cost, ShadowPolicy, Store};
use crate::xform::{RulePlan, RuleProgs};

/// The one executable form a scheduler runs its rules through, chosen
/// and built at construction: no other form is lowered. Every executor
/// is bit- and cycle-identical in verdicts, state and metered costs (the
/// fuzz farm proves it); only wall-clock time differs.
#[derive(Debug)]
enum Executor {
    /// The AST interpreter alone: the naive reference mode.
    Interp,
    /// The stack-machine [`Vm`], one program pair per rule.
    Vm { vm: Vm, progs: Vec<RuleProgs> },
    /// Closure-threaded native rules, lowered for the store kind the
    /// scheduler was built over ([`compile_plans_for`]).
    Native {
        frame: NativeFrame,
        natives: Vec<NativeRule>,
    },
}

impl Executor {
    /// `compiled` selects native rules; otherwise event-driven
    /// scheduling runs the Vm and the naive mode the interpreter.
    fn new(
        plans: &[RulePlan],
        design: &Design,
        store: &Store,
        event_driven: bool,
        compiled: bool,
    ) -> Executor {
        if compiled {
            Executor::Native {
                frame: NativeFrame::new(),
                natives: compile_plans_for(plans, design, store),
            }
        } else if event_driven {
            Executor::Vm {
                vm: Vm::default(),
                progs: plans.iter().map(RuleProgs::of).collect(),
            }
        } else {
            Executor::Interp
        }
    }

    /// Evaluates rule `i`'s lifted guard `g` against the committed store.
    fn eval_guard(
        &mut self,
        i: usize,
        store: &mut Store,
        g: &Expr,
        cost: &mut Cost,
    ) -> ExecResult<bool> {
        match self {
            Executor::Vm { vm, progs } => match &progs[i].guard {
                Some(p) => eval_guard_compiled(vm, store, p, cost),
                None => eval_guard_ro(store, g, cost),
            },
            Executor::Native { frame, natives } => natives[i].eval_guard(frame, store, g, cost),
            Executor::Interp => eval_guard_ro(store, g, cost),
        }
    }

    /// Executes rule `i`'s body as a transaction.
    fn run(
        &mut self,
        i: usize,
        store: &mut Store,
        body: &Action,
        policy: ShadowPolicy,
    ) -> ExecResult<(RuleOutcome, Cost)> {
        match self {
            Executor::Vm { vm, progs } => match &progs[i].body {
                Some(p) => run_rule_compiled(vm, store, p, policy),
                None => run_rule(store, body, policy),
            },
            Executor::Native { frame, natives } => natives[i].run(frame, store, body, policy),
            Executor::Interp => run_rule(store, body, policy),
        }
    }

    /// Executes rule `i`'s fully guard-lifted body in place.
    fn run_inplace(&mut self, i: usize, store: &mut Store, body: &Action) -> ExecResult<Cost> {
        match self {
            Executor::Vm { vm, progs } => match &progs[i].body {
                Some(p) => run_rule_inplace_compiled(vm, store, p),
                None => run_rule_inplace(store, body),
            },
            Executor::Native { frame, natives } => natives[i].run_inplace(frame, store, body),
            Executor::Interp => run_rule_inplace(store, body),
        }
    }
}

/// Converts the abstract cost counters of rule execution into CPU cycles.
///
/// The weights model the generated C++ of §6.2: ALU ops are ~1 cycle,
/// shadow and commit copies are memory traffic, a rollback is a pipeline
/// disaster, and a transaction that could not be guard-lifted pays the
/// try/catch setup the paper works so hard to remove (Figures 9/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per weighted ALU operation.
    pub op: u64,
    /// Per primitive value-method call.
    pub read: u64,
    /// Per primitive action-method call.
    pub write: u64,
    /// Per word copied into a shadow.
    pub shadow_word: u64,
    /// Per word copied at commit.
    pub commit_word: u64,
    /// Per rollback (exception unwind + state restore).
    pub rollback: u64,
    /// Fixed overhead per scheduler guard evaluation.
    pub guard_eval: u64,
    /// Fixed overhead per transactional rule attempt (try/catch setup).
    pub txn_setup: u64,
    /// Fixed overhead per in-place (guard-lifted) rule execution.
    pub inplace_run: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            op: 1,
            read: 1,
            write: 1,
            shadow_word: 2,
            commit_word: 2,
            rollback: 25,
            guard_eval: 2,
            txn_setup: 30,
            inplace_run: 2,
        }
    }
}

impl CostModel {
    /// Total CPU cycles for a set of counters.
    pub fn cycles(&self, c: &Cost) -> u64 {
        c.ops * self.op
            + c.reads * self.read
            + c.writes * self.write
            + c.shadow_words * self.shadow_word
            + c.commit_words * self.commit_word
            + c.rollbacks * self.rollback
            + c.guard_evals * self.guard_eval
            + c.txn_setups * self.txn_setup
            + c.inplace_runs * self.inplace_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_weighs_counters() {
        let m = CostModel::default();
        let mut c = Cost::default();
        assert_eq!(m.cycles(&c), 0);
        c.ops = 10;
        c.rollbacks = 1;
        assert_eq!(m.cycles(&c), 10 + 25);
        c.txn_setups = 2;
        assert_eq!(m.cycles(&c), 10 + 25 + 60);
    }
}
