//! The software rule scheduler (§6.2–6.3).
//!
//! A [`SwRunner`] owns the committed store and a compiled [`RulePlan`] per
//! rule. Each `step` selects one rule (per the chosen [`Strategy`]),
//! evaluates its lifted guard if there is one, and executes it — in place
//! when the plan allows, transactionally otherwise. All work is metered
//! through the [`CostModel`] so the runner can report "CPU cycles", which
//! is what stands in for wall-clock time of the generated C++.

use super::{CostModel, Executor};
use crate::analysis::{successors, Sensitivity};
use crate::ast::PrimId;
use crate::codec::{self, ByteReader, ByteWriter, CodecResult};
use crate::design::Design;
use crate::error::ExecResult;
use crate::exec::RuleOutcome;
use crate::store::{Cost, ShadowPolicy, Store, StoreSnapshot};
use crate::xform::{compile_design, CompileOpts, ExecMode, RulePlan};
use std::collections::VecDeque;

/// Rule selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Cycle through rules in definition order, remembering the position.
    RoundRobin,
    /// Always probe rules in definition order (definition order = static
    /// priority).
    Priority,
    /// After a rule fires, try its dataflow successors first — the §6.3
    /// "construction of longer sequences of rule invocations which
    /// successfully execute without guard failures". This is what lets the
    /// software pass a whole audio frame through the pipeline while the
    /// data is hot.
    #[default]
    Dataflow,
}

/// The executor/store combination a run should use — a shorthand over
/// the [`SwOptions`] `event_driven`/`flat`/`compiled` flags for callers
/// (benchmarks, tests) that sweep backends. Both backends are bit- and
/// cycle-identical in results and metered costs; only wall-clock
/// simulator time differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// The reference: naive scheduler (every guard re-evaluated every
    /// step) driving the AST interpreter on the tree store.
    Naive,
    /// The production path: event-driven scheduler driving
    /// closure-threaded native rules ([`crate::compile`]) on the flat
    /// arena store.
    Compiled,
}

impl ExecBackend {
    /// The [`SwOptions::event_driven`] flag for this backend.
    pub fn event_driven(self) -> bool {
        self == ExecBackend::Compiled
    }

    /// The [`SwOptions::flat`] flag for this backend.
    pub fn flat(self) -> bool {
        self == ExecBackend::Compiled
    }

    /// The [`SwOptions::compiled`] flag for this backend.
    pub fn compiled(self) -> bool {
        self == ExecBackend::Compiled
    }
}

/// Configuration for a software runner.
#[derive(Debug, Clone, Copy)]
pub struct SwOptions {
    /// Rule compilation options (lifting / sequentialization toggles).
    pub compile: CompileOpts,
    /// Shadow pricing policy for transactional rules.
    pub shadow: ShadowPolicy,
    /// Rule selection strategy.
    pub strategy: Strategy,
    /// Cycle-cost weights.
    pub model: CostModel,
    /// Event-driven guard scheduling: cache each guard's verdict together
    /// with its cost delta and replay both while no primitive in the
    /// guard's read set has been written. Modeled `cpu_cycles` are
    /// bit-identical to the naive mode (an unchanged read set means the
    /// evaluation path, and hence its cost, could not have differed); only
    /// wall-clock time improves. `false` is the naive reference mode.
    pub event_driven: bool,
    /// Back the runner's store with the bit-packed arena representation
    /// ([`Store::new_flat`]) instead of the tree-of-`Value` reference
    /// store. Semantics, metered costs, and error texts are identical —
    /// the fuzz farm proves it — only wall-clock time changes. Off by
    /// default because [`Store::state`] reads the tree store only.
    pub flat: bool,
    /// Execute rules through the closure-threaded native backend
    /// ([`crate::compile`]), lowered once for this runner's store kind;
    /// `false` runs the AST interpreter, the reference executor. Metered
    /// costs, verdicts, and error texts are bit-identical either way (the
    /// fuzz farm proves it); only wall-clock time changes.
    pub compiled: bool,
}

impl Default for SwOptions {
    fn default() -> SwOptions {
        SwOptions {
            compile: CompileOpts::default(),
            shadow: ShadowPolicy::default(),
            strategy: Strategy::default(),
            model: CostModel::default(),
            event_driven: true,
            flat: false,
            compiled: true,
        }
    }
}

/// Per-run statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwReport {
    /// Rules fired, per rule index.
    pub fired: Vec<u64>,
    /// Failed attempts (guard false or rollback), per rule index.
    pub failed: Vec<u64>,
    /// Total rules fired.
    pub total_fired: u64,
    /// CPU cycles consumed (per the cost model).
    pub cpu_cycles: u64,
}

/// Everything that changes as a [`SwRunner`] executes: the committed
/// store, the cost counters (and therefore `cpu_cycles`), the per-rule
/// statistics, and the scheduler's own state (round-robin cursor and
/// dataflow chain). Restoring a snapshot makes the runner bit-identical
/// to the moment of capture — budget accounting included, so a
/// [`SwRunner::run_for`] after a restore spends exactly the cycles the
/// original run would have.
#[derive(Debug, Clone)]
pub struct SwSnapshot {
    store: StoreSnapshot,
    cost: Cost,
    fired: Vec<u64>,
    failed: Vec<u64>,
    total_fired: u64,
    rr_next: usize,
    chain: VecDeque<usize>,
}

impl SwSnapshot {
    /// The captured store, for shape validation against a design.
    pub fn store(&self) -> &StoreSnapshot {
        &self.store
    }

    /// Number of rules the capturing runner had (length of the per-rule
    /// statistics vectors).
    pub fn rule_count(&self) -> usize {
        self.fired.len()
    }

    /// Appends this snapshot's stable binary encoding: store, cost
    /// counters, per-rule statistics, and the scheduler cursor/chain.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.store.encode(w);
        self.cost.encode(w);
        codec::encode_u64s(w, &self.fired);
        codec::encode_u64s(w, &self.failed);
        w.u64(self.total_fired);
        w.usize(self.rr_next);
        w.u64(self.chain.len() as u64);
        for i in &self.chain {
            w.usize(*i);
        }
    }

    /// Decodes a snapshot previously written by [`SwSnapshot::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<SwSnapshot> {
        let store = StoreSnapshot::decode(r)?;
        let cost = Cost::decode(r)?;
        let fired = codec::decode_u64s(r)?;
        let failed = codec::decode_u64s(r)?;
        let total_fired = r.u64()?;
        let rr_next = r.usize()?;
        let n = r.seq_len(8)?;
        let mut chain = VecDeque::with_capacity(n);
        for _ in 0..n {
            chain.push_back(r.usize()?);
        }
        Ok(SwSnapshot {
            store,
            cost,
            fired,
            failed,
            total_fired,
            rr_next,
            chain,
        })
    }
}

/// Executes the rules of one (software) partition.
#[derive(Debug)]
pub struct SwRunner {
    plans: Vec<RulePlan>,
    succ: Vec<Vec<usize>>,
    sens: Sensitivity,
    /// The committed program state.
    pub store: Store,
    opts: SwOptions,
    /// Accumulated cost counters.
    pub cost: Cost,
    fired: Vec<u64>,
    failed: Vec<u64>,
    total_fired: u64,
    rr_next: usize,
    chain: VecDeque<usize>,
    /// Per-rule cached guard verdict and the cost delta its evaluation
    /// charged; `None` when a prim in the guard's read set was written
    /// since the last evaluation.
    verdicts: Vec<Option<(bool, Cost)>>,
    dirty_scratch: Vec<PrimId>,
    exec: Executor,
}

impl SwRunner {
    /// Creates a runner for a design with a fresh store.
    pub fn new(design: &Design, opts: SwOptions) -> SwRunner {
        SwRunner::with_store(design, Store::new_like(design, opts.flat), opts)
    }

    /// Creates a runner with a pre-populated store (e.g. preloaded sources).
    pub fn with_store(design: &Design, store: Store, opts: SwOptions) -> SwRunner {
        let plans = compile_design(design, opts.compile);
        let n = plans.len();
        let sens = Sensitivity::of_plans(&plans, store.len());
        let exec = Executor::new(&plans, design, &store, opts.compiled);
        SwRunner {
            plans,
            succ: successors(design),
            sens,
            store,
            opts,
            cost: Cost::default(),
            fired: vec![0; n],
            failed: vec![0; n],
            total_fired: 0,
            rr_next: 0,
            chain: VecDeque::new(),
            verdicts: vec![None; n],
            dirty_scratch: Vec::new(),
            exec,
        }
    }

    /// The number of rules.
    pub fn rule_count(&self) -> usize {
        self.plans.len()
    }

    /// The compiled plan for a rule (for inspection/tests).
    pub fn plan(&self, i: usize) -> &RulePlan {
        &self.plans[i]
    }

    /// CPU cycles consumed so far.
    pub fn cpu_cycles(&self) -> u64 {
        self.opts.model.cycles(&self.cost)
    }

    /// Attempts one specific rule. Returns whether it fired.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors (double write, type errors, unsound
    /// lifting); guard failures are *not* errors.
    pub fn try_rule(&mut self, i: usize) -> ExecResult<bool> {
        if self.opts.event_driven {
            self.sync_dirty();
        }
        let plan = &self.plans[i];
        if let Some(g) = &plan.guard {
            let ok = if self.opts.event_driven {
                if let Some((v, c)) = &self.verdicts[i] {
                    // Cache hit: replay the recorded cost delta so modeled
                    // cpu_cycles stay bit-identical to an actual
                    // re-evaluation (which, with an unchanged read set,
                    // could only have taken the identical path).
                    let v = *v;
                    let c = *c;
                    self.cost.add(&c);
                    self.cost.guard_evals_skipped += 1;
                    v
                } else {
                    let mut delta = Cost::default();
                    let v = self.exec.eval_guard(i, &mut self.store, g, &mut delta)?;
                    self.cost.add(&delta);
                    self.verdicts[i] = Some((v, delta));
                    v
                }
            } else {
                self.exec
                    .eval_guard(i, &mut self.store, g, &mut self.cost)?
            };
            if !ok {
                self.failed[i] += 1;
                return Ok(false);
            }
        }
        let fired = match plan.mode {
            ExecMode::InPlace => {
                let c = self.exec.run_inplace(i, &mut self.store, &plan.body)?;
                self.cost.add(&c);
                true
            }
            ExecMode::Transactional => {
                let (out, c) = self
                    .exec
                    .run(i, &mut self.store, &plan.body, self.opts.shadow)?;
                self.cost.add(&c);
                out == RuleOutcome::Fired
            }
        };
        if fired {
            self.fired[i] += 1;
            self.total_fired += 1;
        } else {
            self.failed[i] += 1;
        }
        Ok(fired)
    }

    /// Fires at most one rule according to the strategy. Returns `false`
    /// when no rule can fire (the partition is quiescent until new input
    /// arrives).
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors from rule bodies.
    pub fn step(&mut self) -> ExecResult<bool> {
        let n = self.plans.len();
        if n == 0 {
            return Ok(false);
        }
        if self.opts.strategy == Strategy::Dataflow {
            while let Some(i) = self.chain.pop_front() {
                if self.try_rule(i)? {
                    self.enqueue_successors(i);
                    return Ok(true);
                }
            }
        }
        let start = match self.opts.strategy {
            Strategy::Priority => 0,
            _ => self.rr_next,
        };
        for k in 0..n {
            let i = (start + k) % n;
            if self.try_rule(i)? {
                self.rr_next = (i + 1) % n;
                if self.opts.strategy == Strategy::Dataflow {
                    self.enqueue_successors(i);
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Drains the store's scheduler dirty set and invalidates the cached
    /// verdict of every rule whose guard reads a dirtied primitive.
    fn sync_dirty(&mut self) {
        self.store.drain_sched_dirty(&mut self.dirty_scratch);
        for id in self.dirty_scratch.drain(..) {
            for &r in &self.sens.readers_of[id.0] {
                self.verdicts[r] = None;
            }
        }
    }

    fn enqueue_successors(&mut self, i: usize) {
        for &s in &self.succ[i] {
            if !self.chain.contains(&s) {
                self.chain.push_back(s);
            }
        }
        // Re-trying the same rule keeps draining multi-element FIFOs.
        if !self.chain.contains(&i) {
            self.chain.push_back(i);
        }
    }

    /// Runs until no rule can fire or `max_firings` rules have fired.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors from rule bodies.
    pub fn run_until_quiescent(&mut self, max_firings: u64) -> ExecResult<u64> {
        let mut fired = 0;
        while fired < max_firings && self.step()? {
            fired += 1;
        }
        Ok(fired)
    }

    /// Runs until at least `budget` additional CPU cycles have been
    /// consumed or the partition goes quiescent. Returns `(cycles_spent,
    /// quiescent)`. Used by the co-simulation to interleave the software
    /// timeline with the hardware clock.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors from rule bodies.
    pub fn run_for(&mut self, budget: u64) -> ExecResult<(u64, bool)> {
        let start = self.cpu_cycles();
        loop {
            let spent = self.cpu_cycles() - start;
            if spent >= budget {
                return Ok((spent, false));
            }
            if !self.step()? {
                return Ok((self.cpu_cycles() - start, true));
            }
        }
    }

    /// Adds external cycles (e.g. driver marshaling work) to the runner's
    /// cost, modeled as plain ALU ops.
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.cost.ops += cycles / self.opts.model.op.max(1);
    }

    /// Captures the runner's complete mutable state for a later
    /// [`SwRunner::restore`]. The compiled plans and options are
    /// immutable and are not copied. Takes `&mut self` because the
    /// snapshot is incremental: only prims written since the previous
    /// snapshot are copied.
    pub fn snapshot(&mut self) -> SwSnapshot {
        SwSnapshot {
            store: self.store.snapshot_cow(),
            cost: self.cost,
            fired: self.fired.clone(),
            failed: self.failed.clone(),
            total_fired: self.total_fired,
            rr_next: self.rr_next,
            chain: self.chain.clone(),
        }
    }

    /// Rewinds the runner to a previously captured snapshot. Execution
    /// from here is bit-identical to execution from the capture point.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a runner over a different design.
    pub fn restore(&mut self, snap: &SwSnapshot) {
        assert_eq!(
            self.fired.len(),
            snap.fired.len(),
            "snapshot from a different design"
        );
        self.store.restore_cow(&snap.store);
        self.cost = snap.cost;
        self.fired.clone_from(&snap.fired);
        self.failed.clone_from(&snap.failed);
        self.total_fired = snap.total_fired;
        self.rr_next = snap.rr_next;
        self.chain.clone_from(&snap.chain);
        // restore_cow marks the whole store sched-dirty; clearing the
        // cache here keeps it honest if introspected before the next step.
        self.verdicts.fill(None);
    }

    /// A snapshot of run statistics.
    pub fn report(&self) -> SwReport {
        SwReport {
            fired: self.fired.clone(),
            failed: self.failed.clone(),
            total_fired: self.total_fired,
            cpu_cycles: self.cpu_cycles(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Action, Expr, Path, PrimId, PrimMethod, RuleDef, Target};
    use crate::design::{Design, PrimDef};
    use crate::prim::PrimSpec;
    use crate::types::Type;
    use crate::value::{BinOp, Value};

    /// in(Source) -> [double] -> q -> [emit] -> out(Sink)
    fn pipeline() -> Design {
        let src = PrimId(0);
        let q = PrimId(1);
        let snk = PrimId(2);
        Design {
            name: "pipe".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("in"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(32),
                        domain: "SW".into(),
                    },
                },
                PrimDef {
                    path: Path::new("q"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(32),
                    },
                },
                PrimDef {
                    path: Path::new("out"),
                    spec: PrimSpec::Sink {
                        ty: Type::Int(32),
                        domain: "SW".into(),
                    },
                },
            ],
            rules: vec![
                RuleDef {
                    name: "double".into(),
                    body: Action::Par(
                        Box::new(Action::Call(
                            Target::Prim(q, PrimMethod::Enq),
                            vec![Expr::Bin(
                                BinOp::Mul,
                                Box::new(Expr::Call(Target::Prim(src, PrimMethod::First), vec![])),
                                Box::new(Expr::int(32, 2)),
                            )],
                        )),
                        Box::new(Action::Call(Target::Prim(src, PrimMethod::Deq), vec![])),
                    ),
                },
                RuleDef {
                    name: "emit".into(),
                    body: Action::Par(
                        Box::new(Action::Call(
                            Target::Prim(snk, PrimMethod::Enq),
                            vec![Expr::Call(Target::Prim(q, PrimMethod::First), vec![])],
                        )),
                        Box::new(Action::Call(Target::Prim(q, PrimMethod::Deq), vec![])),
                    ),
                },
            ],
            ..Default::default()
        }
    }

    fn run_all(strategy: Strategy, compile: CompileOpts) -> (SwRunner, Vec<i64>) {
        let d = pipeline();
        let mut store = Store::new(&d);
        for i in 0..5 {
            store.push_source(PrimId(0), Value::int(32, i));
        }
        let opts = SwOptions {
            strategy,
            compile,
            ..Default::default()
        };
        let mut r = SwRunner::with_store(&d, store, opts);
        r.run_until_quiescent(1000).unwrap();
        let out: Vec<i64> = r
            .store
            .sink_values(PrimId(2))
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        (r, out)
    }

    #[test]
    fn all_strategies_produce_same_output() {
        for strat in [Strategy::RoundRobin, Strategy::Priority, Strategy::Dataflow] {
            let (_, out) = run_all(strat, CompileOpts::default());
            assert_eq!(out, vec![0, 2, 4, 6, 8], "{strat:?}");
        }
    }

    /// Every scheduler × store × executor combination lands on the
    /// naive tree-store interpreter's outputs and report exactly.
    #[test]
    fn every_backend_is_cycle_identical() {
        let mut runs = Vec::new();
        for event_driven in [false, true] {
            for flat in [false, true] {
                for compiled in [false, true] {
                    let d = pipeline();
                    let mut store = Store::new_like(&d, flat);
                    for i in 0..5 {
                        store.push_source(PrimId(0), Value::int(32, i));
                    }
                    let opts = SwOptions {
                        event_driven,
                        flat,
                        compiled,
                        ..Default::default()
                    };
                    let mut r = SwRunner::with_store(&d, store, opts);
                    r.run_until_quiescent(1000).unwrap();
                    let out: Vec<i64> = r
                        .store
                        .sink_values(PrimId(2))
                        .iter()
                        .map(|v| v.as_int().unwrap())
                        .collect();
                    runs.push(((event_driven, flat, compiled), out, r.report()));
                }
            }
        }
        let (_, out0, report0) = &runs[0];
        for (cfg, out, report) in &runs[1..] {
            assert_eq!((out, report), (out0, report0), "{cfg:?}");
        }
    }

    #[test]
    fn optimized_matches_unoptimized_output() {
        let (_, out1) = run_all(Strategy::Dataflow, CompileOpts::default());
        let (_, out2) = run_all(
            Strategy::Dataflow,
            CompileOpts {
                lift: false,
                sequentialize: false,
            },
        );
        assert_eq!(out1, out2);
    }

    #[test]
    fn lifting_is_cheaper() {
        let (opt, _) = run_all(Strategy::Dataflow, CompileOpts::default());
        let (unopt, _) = run_all(
            Strategy::Dataflow,
            CompileOpts {
                lift: false,
                sequentialize: false,
            },
        );
        assert!(
            opt.cpu_cycles() < unopt.cpu_cycles(),
            "lifted {} !< unlifted {}",
            opt.cpu_cycles(),
            unopt.cpu_cycles()
        );
        // The optimized run uses the in-place fast path.
        assert!(opt.cost.inplace_runs > 0);
        assert_eq!(opt.cost.rollbacks, 0);
    }

    #[test]
    fn dataflow_probes_less_than_round_robin() {
        let (df, _) = run_all(Strategy::Dataflow, CompileOpts::default());
        let (rr, _) = run_all(Strategy::RoundRobin, CompileOpts::default());
        let df_fails: u64 = df.report().failed.iter().sum();
        let rr_fails: u64 = rr.report().failed.iter().sum();
        // On this tiny two-rule pipeline round-robin happens to align well;
        // dataflow chaining must stay in the same ballpark (its wins show
        // on deep pipelines, exercised by the Vorbis benches).
        assert!(
            df_fails <= rr_fails + 8,
            "dataflow {df_fails} much worse than round-robin {rr_fails}"
        );
    }

    #[test]
    fn quiescence_is_reported() {
        let d = pipeline();
        let mut r = SwRunner::new(&d, SwOptions::default());
        assert!(!r.step().unwrap(), "empty source: nothing can fire");
        let (spent, quiescent) = r.run_for(1_000).unwrap();
        assert!(quiescent);
        assert!(spent < 1_000);
    }

    #[test]
    fn run_for_respects_budget() {
        let d = pipeline();
        let mut store = Store::new(&d);
        for i in 0..1000 {
            store.push_source(PrimId(0), Value::int(32, i));
        }
        let mut r = SwRunner::with_store(&d, store, SwOptions::default());
        let (spent, quiescent) = r.run_for(50).unwrap();
        assert!(!quiescent);
        assert!(spent >= 50);
        assert!(spent < 500, "should stop soon after the budget: {spent}");
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let d = pipeline();
        let mut store = Store::new(&d);
        for i in 0..50 {
            store.push_source(PrimId(0), Value::int(32, i));
        }
        let mut r = SwRunner::with_store(&d, store, SwOptions::default());
        r.run_for(200).unwrap();
        let snap = r.snapshot();
        let cpu_at_snap = r.cpu_cycles();

        // First continuation: record the exact budget-accounting and
        // output trajectory.
        let mut trace = Vec::new();
        loop {
            let (spent, quiescent) = r.run_for(64).unwrap();
            trace.push((spent, quiescent, r.cpu_cycles(), r.total_fired));
            if quiescent {
                break;
            }
        }
        let out1 = r.store.sink_values(PrimId(2)).to_vec();

        // Restore and replay: every run_for must spend the same cycles.
        r.restore(&snap);
        assert_eq!(r.cpu_cycles(), cpu_at_snap, "cpu_cycles survives restore");
        for &(spent, quiescent, cpu, fired) in &trace {
            let (s2, q2) = r.run_for(64).unwrap();
            assert_eq!(
                (s2, q2, r.cpu_cycles(), r.total_fired),
                (spent, quiescent, cpu, fired)
            );
        }
        assert_eq!(r.store.sink_values(PrimId(2)), &out1[..]);
    }

    #[test]
    fn report_counts_fired_rules() {
        let (r, _) = run_all(Strategy::Priority, CompileOpts::default());
        let rep = r.report();
        assert_eq!(rep.fired, vec![5, 5]);
        assert_eq!(rep.total_fired, 10);
        assert!(rep.cpu_cycles > 0);
    }
}
