//! The compiled execution backend: rule programs lowered to
//! closure-threaded native code.
//!
//! The event-driven Vm ([`crate::exec::Vm`]) still pays per-instruction
//! costs on every rule firing: an opcode dispatch, program-counter
//! bookkeeping, and a heap-allocated value stack that every operand is
//! copied through (plus a fresh argument `Vec` per method call). This
//! module removes all of that with a one-time lowering pass: each guard
//! and rule body is compiled — straight from the (already lifted and
//! sequentialized) AST, so control flow stays structured — into a tree of
//! monomorphized Rust closures threaded into a single callable. Operands
//! flow through machine registers as closure return values, let-bound
//! locals become pre-resolved slots in a reusable [`NativeFrame`],
//! `Index`/`Field` on a let-bound base are fused into direct slot
//! accesses (no base clone), and method-call argument lists of arity
//! ≤ 2 live on the stack.
//!
//! **Cost parity is load-bearing.** Every closure charges exactly the ops
//! the AST interpreter ([`crate::exec::eval`]/[`crate::exec::exec`]) and
//! the Vm charge, at the same evaluation points, into the same [`Cost`]
//! ledgers (via `NativePort`, a closed, fully monomorphized port enum —
//! a `&mut dyn PrimPort` here would pay a virtual call per charge, which
//! measurably loses to the stack machine). Modeled
//! `cpu_cycles`/`fpga_cycles` are therefore bit-identical across all
//! three executors (the cycle-regression pins and the fuzz farm's
//! compiled legs both assert this). Only wall-clock time changes.
//!
//! Coverage is identical to the stack-machine compiler
//! ([`crate::xform::compile_expr`]/[`crate::xform::compile_action`]):
//! lowering returns `None` for `localGuard` bodies, unelaborated `Named`
//! targets, and unbound variables, and the schedulers fall back to the
//! AST interpreter for exactly those rules in every backend.
//!
//! ## One lowering per rule, matched to the store
//!
//! Each rule is lowered once, for the store kind it will run on. On a
//! tree-backed store ([`compile_expr`]/[`compile_action`]) every
//! operand is a boxed [`Value`]. On a flat-arena store
//! ([`Store::new_flat`]; [`compile_plan`]/[`compile_plans`]) a
//! [`Design`]-derived layout table lets scalar subexpressions flow as
//! packed `u64` words end-to-end, which removes the last source of
//! boxed-`Value` traffic: the primitive-port boundary. Word-typed
//! register reads, FIFO heads, and regfile cells come through
//! [`Store::call_value_word_at`]/[`Store::call_action_word_at`] without
//! ever materializing a `Value`; field names and element offsets of
//! packed aggregates are resolved to bit offsets at lower time; and
//! `MkVec`/`MkStruct` arguments to `enq`/register writes are packed
//! directly into frame scratch words instead of building `Vec`/`Struct`
//! heap values. Guard probes lowered entirely to the word domain return
//! a bare `u64` verdict.
//!
//! The flat lowering is a single bottom-up pass. Each node yields a word
//! thunk with its scalar type when all its operands did and their types
//! admit it, and a boxed thunk otherwise, with word operands wrapped in
//! a (charge-free) rematerialization. Aggregate-access chains and
//! aggregate method arguments stay open until their consumer picks the
//! packed or the boxed form, so no subtree is lowered twice. Cost
//! metering is bit-identical to the boxed path: every word closure
//! charges the same [`Cost`] deltas at the same evaluation points, and
//! any expression the word form cannot prove chargeable-identically is
//! boxed.
//!
//! [`compile_plans_for`] picks the lowering by store kind. A lowering
//! that meets the other store kind at run time (a runner whose store was
//! swapped) is not run: [`NativeRule`]'s entry points fall back to the
//! AST interpreter, which charges identical costs.

use crate::ast::{Action, Expr, PrimId, PrimMethod, Target};
use crate::design::Design;
use crate::error::{ExecError, ExecResult};
use crate::exec::{eval_guard_ro, run_rule, run_rule_inplace, RuleOutcome};
use crate::prim::PrimSpec;
use crate::store::{Cost, ShadowPolicy, Store, Txn};
use crate::types::{Layout, LayoutKind};
use crate::value::{
    copy_bits, copy_bits_within, get_bits, mask, put_bits, sign_extend, BinOp, UnOp, Value,
};
use crate::xform::RulePlan;
use std::fmt;
use std::sync::Arc;

/// Scratch space for compiled rules: the local-slot file. One frame is
/// kept per scheduler and reused across every guard and body execution;
/// it grows to the largest program's footprint once and is never cleared
/// (every slot is stored by its `let` before any load can see it).
#[derive(Debug, Default)]
pub struct NativeFrame {
    slots: Vec<Value>,
    /// Word scratch for the flat lowering: unboxed scalar locals (one
    /// word each) and bit-packed aggregate regions, addressed by bit
    /// offset. Grows like `slots` and is likewise never cleared.
    words: Vec<u64>,
}

impl NativeFrame {
    /// A fresh frame with no slots.
    pub fn new() -> NativeFrame {
        NativeFrame::default()
    }

    #[inline]
    fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Value::Bool(false));
        }
    }

    #[inline]
    fn ensure_words(&mut self, n: usize) {
        if self.words.len() < n {
            self.words.resize(n, 0);
        }
    }
}

type ExprThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<Value> + Send + Sync>;
type ActThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<()> + Send + Sync>;
type WordThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<u64> + Send + Sync>;
type PlaceThunk =
    Box<dyn for<'s> Fn(&mut NativePort<'s>, &mut NativeFrame) -> ExecResult<Place> + Send + Sync>;

/// The scalar type of an unboxed word in the flat lowering. Mirrors the
/// three leaf [`Value`] variants; the packed representation is always
/// the value's `write_flat` bit pattern in the low `width()` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordTy {
    Bool,
    Bits(u32),
    Int(u32),
}

impl WordTy {
    #[inline]
    fn width(self) -> u32 {
        match self {
            WordTy::Bool => 1,
            WordTy::Bits(w) | WordTy::Int(w) => w,
        }
    }

    fn of_layout(l: &Layout) -> Option<WordTy> {
        match l.kind {
            LayoutKind::Bool => Some(WordTy::Bool),
            LayoutKind::Bits(w) if w <= 64 => Some(WordTy::Bits(w)),
            LayoutKind::Int(w) if w <= 64 => Some(WordTy::Int(w)),
            _ => None,
        }
    }

    /// A constant's word type and packed bits, for scalar constants.
    fn of_value(v: &Value) -> Option<(WordTy, u64)> {
        match v {
            Value::Bool(b) => Some((WordTy::Bool, *b as u64)),
            Value::Bits { width, bits } => Some((WordTy::Bits(*width), *bits)),
            Value::Int { width, val } => Some((WordTy::Int(*width), (*val as u64) & mask(*width))),
            _ => None,
        }
    }

    /// The `as_int` view of a packed word: raw for `Bool`/`Bits`,
    /// sign-extended for `Int` — exactly [`Value::as_int`] on the
    /// materialized value.
    #[inline]
    fn view_int(self, w: u64) -> i64 {
        match self {
            WordTy::Bool | WordTy::Bits(_) => w as i64,
            WordTy::Int(wd) => sign_extend(wd, w),
        }
    }

    /// Rebuilds the canonical boxed value. Charge-free (scalar `Value`s
    /// are inline enum variants, no heap).
    #[inline]
    fn materialize(self, w: u64) -> Value {
        match self {
            WordTy::Bool => Value::Bool(w != 0),
            WordTy::Bits(wd) => Value::Bits { width: wd, bits: w },
            WordTy::Int(wd) => Value::Int {
                width: wd,
                val: sign_extend(wd, w),
            },
        }
    }
}

/// Lower-time knowledge about one primitive, derived from the
/// [`Design`]: what word-level methods it supports and the packed
/// layout of its element type.
struct PrimInfo {
    kind: PrimKindInfo,
    layout: Layout,
}

/// The word-relevant primitive kind (mirrors `flat.rs`'s arena mapping:
/// synchronizers flatten to FIFOs, sources/sinks stay dynamic).
#[derive(Clone, Copy)]
enum PrimKindInfo {
    Reg,
    Fifo,
    RegFile { size: usize },
    Dyn,
}

/// Builds the per-primitive layout table the flat lowering pass keys on.
fn prim_infos(design: &Design) -> Vec<PrimInfo> {
    design
        .prims
        .iter()
        .map(|p| {
            let kind = match &p.spec {
                PrimSpec::Reg { .. } => PrimKindInfo::Reg,
                PrimSpec::Fifo { .. } | PrimSpec::Sync { .. } => PrimKindInfo::Fifo,
                PrimSpec::RegFile { size, .. } => PrimKindInfo::RegFile { size: *size },
                PrimSpec::Source { .. } | PrimSpec::Sink { .. } => PrimKindInfo::Dyn,
            };
            PrimInfo {
                kind,
                layout: Layout::of(&p.spec.value_type()),
            }
        })
        .collect()
}

/// A resolved packed location: frame scratch words or a primitive
/// element, plus a bit offset accumulated from lower-time field offsets
/// and runtime element indices.
#[derive(Clone, Copy)]
struct Place {
    kind: PlaceKind,
    off: u32,
}

#[derive(Clone, Copy)]
enum PlaceKind {
    /// Bit `bit` of the frame's word scratch.
    Frame { bit: usize },
    /// The element addressed by `(id, m, cell)` through the word port.
    Prim {
        id: PrimId,
        m: PrimMethod,
        cell: usize,
    },
}

#[inline]
fn read_place_word(
    p: &mut NativePort<'_>,
    f: &NativeFrame,
    pl: Place,
    width: u32,
) -> ExecResult<u64> {
    match pl.kind {
        PlaceKind::Frame { bit } => Ok(get_bits(&f.words, bit + pl.off as usize, width)),
        PlaceKind::Prim { id, m, cell } => p.peek_word(id, m, cell, pl.off, width),
    }
}

#[inline]
fn copy_place_packed(
    p: &mut NativePort<'_>,
    f: &mut NativeFrame,
    pl: Place,
    width: u32,
    dst_bit: usize,
) -> ExecResult<()> {
    match pl.kind {
        PlaceKind::Frame { bit } => {
            copy_bits_within(&mut f.words, bit + pl.off as usize, dst_bit, width);
            Ok(())
        }
        PlaceKind::Prim { id, m, cell } => {
            p.peek_packed(id, m, cell, pl.off, width, &mut f.words, dst_bit)
        }
    }
}

/// How a let-bound name is stored in the frame: a boxed [`Value`] slot,
/// an unboxed word, or a bit-packed aggregate region.
#[derive(Clone)]
enum Binding {
    Boxed(usize),
    Word { slot: usize, ty: WordTy },
    Packed { base: usize, layout: Arc<Layout> },
}

/// Where a compiled closure reads and writes primitives. A closed enum
/// rather than `&mut dyn PrimPort`: the Vm is monomorphized over its
/// port, so matching it means the per-node cost charges and method
/// calls here must also compile to direct code — a vtable call per
/// `ops += 1` measurably loses to the stack machine.
pub(crate) enum NativePort<'s> {
    /// Transactional rule body.
    Txn(Txn<'s>),
    /// Read-only guard probe over the committed store.
    Ro {
        /// The committed store.
        store: &'s Store,
        /// Ledger for the probe's reads and ops.
        cost: &'s mut Cost,
    },
    /// Fully guard-lifted body writing straight to the committed store.
    InPlace {
        /// The committed store.
        store: &'s mut Store,
        /// Ledger for the run.
        cost: Cost,
    },
}

impl NativePort<'_> {
    #[inline]
    fn cost(&mut self) -> &mut Cost {
        match self {
            NativePort::Txn(t) => &mut t.cost,
            NativePort::Ro { cost, .. } => cost,
            NativePort::InPlace { cost, .. } => cost,
        }
    }

    #[inline]
    fn call_value(&mut self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<Value> {
        match self {
            NativePort::Txn(t) => t.call_value(id, m, args),
            NativePort::Ro { store, cost } => {
                cost.reads += 1;
                store.call_value_at(id, m, args)
            }
            NativePort::InPlace { store, cost } => {
                cost.reads += 1;
                store.call_value_at(id, m, args)
            }
        }
    }

    #[inline]
    fn call_action(&mut self, id: PrimId, m: PrimMethod, args: &[Value]) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action(id, m, args),
            NativePort::Ro { .. } => Err(ExecError::Malformed(format!(
                "action method `{m:?}` called in a guard expression"
            ))),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_at(id, m, args)
            }
        }
    }

    /// Charges one read without performing one — used when a word place
    /// is resolved first and its packed bits are fetched later, so the
    /// charge lands where the boxed path's `call_value` would put it.
    #[inline]
    fn charge_read(&mut self) {
        self.cost().reads += 1;
    }

    /// Word-level `call_value`: one read charged, the element's packed
    /// bits returned without materializing a [`Value`].
    #[inline]
    fn call_value_word(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
    ) -> ExecResult<u64> {
        match self {
            NativePort::Txn(t) => t.call_value_word(id, m, cell, off, width),
            NativePort::Ro { store, cost } => {
                cost.reads += 1;
                store.call_value_word_at(id, m, cell, off, width)
            }
            NativePort::InPlace { store, cost } => {
                cost.reads += 1;
                store.call_value_word_at(id, m, cell, off, width)
            }
        }
    }

    /// Uncharged word read (shadow-aware under a transaction): the
    /// caller has already charged the access via [`Self::charge_read`].
    #[inline]
    fn peek_word(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
    ) -> ExecResult<u64> {
        match self {
            NativePort::Txn(t) => t.peek_value_word(id, m, cell, off, width),
            NativePort::Ro { store, .. } => store.call_value_word_at(id, m, cell, off, width),
            NativePort::InPlace { store, .. } => store.call_value_word_at(id, m, cell, off, width),
        }
    }

    /// Uncharged packed-aggregate read into frame scratch; same charging
    /// contract as [`Self::peek_word`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn peek_packed(
        &self,
        id: PrimId,
        m: PrimMethod,
        cell: usize,
        off: u32,
        width: u32,
        dst: &mut [u64],
        dst_bit: usize,
    ) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.peek_value_packed(id, m, cell, off, width, dst, dst_bit),
            NativePort::Ro { store, .. } => {
                store.call_value_packed_at(id, m, cell, off, width, dst, dst_bit)
            }
            NativePort::InPlace { store, .. } => {
                store.call_value_packed_at(id, m, cell, off, width, dst, dst_bit)
            }
        }
    }

    /// Word-level `call_action`: one write charged, the payload an
    /// unboxed word. `cell` is signed so regfile index errors keep the
    /// boxed error order (see [`Store::call_action_word_at`]).
    #[inline]
    fn call_action_word(&mut self, id: PrimId, m: PrimMethod, cell: i64, w: u64) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action_word(id, m, cell, w),
            NativePort::Ro { .. } => Err(ExecError::Malformed(format!(
                "action method `{m:?}` called in a guard expression"
            ))),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_word_at(id, m, cell, w)
            }
        }
    }

    /// Packed-aggregate `call_action` from frame scratch bits.
    #[inline]
    fn call_action_packed(
        &mut self,
        id: PrimId,
        m: PrimMethod,
        cell: i64,
        src: &[u64],
        src_bit: usize,
    ) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.call_action_packed(id, m, cell, src, src_bit),
            NativePort::Ro { .. } => Err(ExecError::Malformed(format!(
                "action method `{m:?}` called in a guard expression"
            ))),
            NativePort::InPlace { store, cost } => {
                cost.writes += 1;
                store.call_action_packed_at(id, m, cell, src, src_bit)
            }
        }
    }

    #[inline]
    fn policy(&self) -> ShadowPolicy {
        match self {
            NativePort::Txn(t) => t.policy,
            NativePort::Ro { .. } => ShadowPolicy::Partial,
            NativePort::InPlace { .. } => ShadowPolicy::InPlace,
        }
    }

    #[inline]
    fn loop_bound(&self) -> u64 {
        match self {
            NativePort::Txn(t) => t.max_loop_iters,
            _ => 1_000_000,
        }
    }

    fn par_start(&mut self) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.par_start(),
            NativePort::Ro { .. } => Err(ExecError::Malformed(
                "parallel composition reached a port without transaction frames".into(),
            )),
            NativePort::InPlace { .. } => Err(ExecError::Malformed(
                "parallel composition reached an in-place (guard-lifted) execution".into(),
            )),
        }
    }

    fn par_mid(&mut self) {
        if let NativePort::Txn(t) = self {
            t.par_mid();
        }
    }

    fn par_end(&mut self) -> ExecResult<()> {
        match self {
            NativePort::Txn(t) => t.par_end(),
            _ => Ok(()),
        }
    }
}

/// Frame footprint of one lowering: boxed slots and scratch words.
#[derive(Debug, Clone, Copy, Default)]
struct Footprint {
    slots: usize,
    words: usize,
}

impl NativeFrame {
    #[inline]
    fn enter(&mut self, fp: Footprint) {
        self.ensure(fp.slots);
        self.ensure_words(fp.words);
    }
}

/// An expression (typically a lifted guard) lowered to a native
/// closure for one store kind: boxed for tree-backed stores
/// ([`compile_expr`]), word-level for flat-arena stores ([`compile_plan`]).
pub struct CompiledExpr {
    eval: GuardEval,
    frame: Footprint,
    flat: bool,
}

/// A guard whose word lowering reaches its Bool root returns a bare
/// `u64` verdict (no `Value` is ever materialized); anything else is a
/// boxed closure whose subexpressions may still take the word path.
enum GuardEval {
    Word(WordThunk),
    Boxed(ExprThunk),
}

impl CompiledExpr {
    /// Whether this lowering runs on `store`: a flat lowering needs a
    /// flat-arena store, a boxed one a tree-backed store.
    pub fn fits(&self, store: &Store) -> bool {
        self.flat == store.is_flat()
    }
}

impl fmt::Debug for CompiledExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledExpr")
            .field("slots", &self.frame.slots)
            .field("words", &self.frame.words)
            .field("flat", &self.flat)
            .finish_non_exhaustive()
    }
}

/// A rule body lowered to a native closure for one store kind (see
/// [`CompiledExpr`]).
pub struct CompiledAction {
    thunk: ActThunk,
    frame: Footprint,
    flat: bool,
}

impl CompiledAction {
    /// Whether this lowering runs on `store` (see [`CompiledExpr::fits`]).
    pub fn fits(&self, store: &Store) -> bool {
        self.flat == store.is_flat()
    }
}

impl fmt::Debug for CompiledAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledAction")
            .field("slots", &self.frame.slots)
            .field("words", &self.frame.words)
            .field("flat", &self.flat)
            .finish_non_exhaustive()
    }
}

/// A [`RulePlan`] lowered to native closures for one store kind. `None`
/// components fall back to the AST interpreter, mirroring the
/// stack-machine fallback exactly; so does a lowering that meets a store
/// of the other kind at run time (the interpreter charges identical
/// costs, so only wall-clock time differs).
#[derive(Debug, Default)]
pub struct NativeRule {
    /// The lifted guard, when present and compilable.
    pub guard: Option<CompiledExpr>,
    /// The rule body, when compilable.
    pub body: Option<CompiledAction>,
}

impl NativeRule {
    /// Evaluates the rule's lifted guard `g` against the committed store
    /// (guard failures fold to `Ok(false)`): natively when the lowering
    /// fits the store, through [`eval_guard_ro`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors (type errors, bounds).
    pub fn eval_guard(
        &self,
        frame: &mut NativeFrame,
        store: &mut Store,
        g: &Expr,
        cost: &mut Cost,
    ) -> ExecResult<bool> {
        match self.guard.as_ref().filter(|cg| cg.fits(store)) {
            Some(cg) => eval_guard_native(frame, store, cg, cost),
            None => eval_guard_ro(store, g, cost),
        }
    }

    /// Executes the rule body `body` as a transaction: natively when the
    /// lowering fits the store, through [`run_rule`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors (double writes, type errors).
    pub fn run(
        &self,
        frame: &mut NativeFrame,
        store: &mut Store,
        body: &Action,
        policy: ShadowPolicy,
    ) -> ExecResult<(RuleOutcome, Cost)> {
        match self.body.as_ref().filter(|cb| cb.fits(store)) {
            Some(cb) => run_rule_native(frame, store, cb, policy),
            None => run_rule(store, body, policy),
        }
    }

    /// Executes a fully guard-lifted body in place: natively when the
    /// lowering fits the store, through [`run_rule_inplace`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates dynamic errors; a guard failure is an unsound-lifting
    /// error.
    pub fn run_inplace(
        &self,
        frame: &mut NativeFrame,
        store: &mut Store,
        body: &Action,
    ) -> ExecResult<Cost> {
        match self.body.as_ref().filter(|cb| cb.fits(store)) {
            Some(cb) => run_rule_inplace_native(frame, store, cb),
            None => run_rule_inplace(store, body),
        }
    }
}

/// One expression node after the single lowering pass. `Word` and
/// `Boxed` are final. `Place` is an aggregate-access chain whose form —
/// a packed [`Place`] or a boxed value — is picked by its consumer, so
/// no subtree is ever lowered twice.
enum Low {
    Word(WordThunk, WordTy),
    Boxed(ExprThunk),
    Place(Chain),
}

/// An aggregate-access chain (`r.read()`, `f.first()`, `rf.sub(i)`,
/// a packed let-bound name, then `.field`/`[index]` steps) resolved at
/// lower time: field offsets folded, index subexpressions already
/// word-lowered. `layout` is the chain's result layout.
struct Chain {
    node: Node,
    layout: Layout,
}

enum Node {
    /// A let-bound name held as a packed frame region.
    Frame { base: usize },
    /// `r.read()` on a register.
    Reg(PrimId),
    /// `f.first()` on a FIFO.
    First(PrimId),
    /// `rf.sub(i)` on a regfile.
    Sub {
        id: PrimId,
        size: usize,
        idx: WordThunk,
        ity: WordTy,
    },
    Field {
        inner: Box<Chain>,
        off: u32,
        name: String,
    },
    Index {
        inner: Box<Chain>,
        len: usize,
        stride: u32,
        idx: WordThunk,
        ity: WordTy,
    },
}

/// A chain as a word leaf when its layout is a scalar word (the place
/// chain carries all charges, the final bit extraction is free), as a
/// deferred [`Low::Place`] otherwise.
fn leaf(node: Node, layout: Layout) -> Low {
    match WordTy::of_layout(&layout) {
        Some(ty) => {
            let width = ty.width();
            let pt = place_thunk(node);
            Low::Word(
                Box::new(move |p, f| {
                    let pl = pt(p, f)?;
                    read_place_word(p, f, pl, width)
                }),
                ty,
            )
        }
        None => Low::Place(Chain { node, layout }),
    }
}

/// The packed-place form of a chain. Charges exactly what the boxed
/// chain charges, in the same order: the port read first (including the
/// FIFO-empty guard failure, so later field/index ops are not charged
/// on the failing path), then one op per field/index step.
fn place_thunk(node: Node) -> PlaceThunk {
    match node {
        Node::Frame { base } => Box::new(move |_, _| {
            Ok(Place {
                kind: PlaceKind::Frame { bit: base },
                off: 0,
            })
        }),
        Node::Reg(id) => Box::new(move |p, _| {
            p.charge_read();
            Ok(Place {
                kind: PlaceKind::Prim {
                    id,
                    m: PrimMethod::RegRead,
                    cell: 0,
                },
                off: 0,
            })
        }),
        Node::First(id) => Box::new(move |p, _| {
            p.charge_read();
            if p.peek_word(id, PrimMethod::NotEmpty, 0, 0, 1)? == 0 {
                return Err(ExecError::GuardFail);
            }
            Ok(Place {
                kind: PlaceKind::Prim {
                    id,
                    m: PrimMethod::First,
                    cell: 0,
                },
                off: 0,
            })
        }),
        Node::Sub { id, size, idx, ity } => Box::new(move |p, f| {
            let iv = ity.view_int(idx(p, f)?);
            p.charge_read();
            let cell = usize::try_from(iv)
                .map_err(|_| ExecError::Bounds(format!("negative index {iv}")))?;
            if cell >= size {
                return Err(ExecError::Bounds(format!("sub {cell} out of {size}")));
            }
            Ok(Place {
                kind: PlaceKind::Prim {
                    id,
                    m: PrimMethod::Sub,
                    cell,
                },
                off: 0,
            })
        }),
        Node::Field { inner, off, .. } => {
            let inner = place_thunk(inner.node);
            Box::new(move |p, f| {
                let mut pl = inner(p, f)?;
                p.cost().ops += 1;
                pl.off += off;
                Ok(pl)
            })
        }
        Node::Index {
            inner,
            len,
            stride,
            idx,
            ity,
        } => {
            let inner = place_thunk(inner.node);
            Box::new(move |p, f| {
                let mut pl = inner(p, f)?;
                let iv = ity.view_int(idx(p, f)?);
                let idx = usize::try_from(iv)
                    .map_err(|_| ExecError::Bounds(format!("negative index {iv}")))?;
                p.cost().ops += 1;
                if idx >= len {
                    return Err(ExecError::Bounds(format!("index {idx} out of {len}")));
                }
                pl.off += idx as u32 * stride;
                Ok(pl)
            })
        }
    }
}

/// The boxed-value form of a chain: exactly the boxed lowering of the
/// same AST — a port `call_value` at the root, `field`/`index` on the
/// materialized value per step, and the fused slot accesses for steps
/// directly on a let-bound packed name.
fn boxed_chain(c: Chain) -> ExprThunk {
    let Chain { node, layout } = c;
    match node {
        Node::Frame { base } => Box::new(move |_, f| Ok(Value::read_flat(&layout, &f.words, base))),
        Node::Reg(id) => Box::new(move |p, _| p.call_value(id, PrimMethod::RegRead, &[])),
        Node::First(id) => Box::new(move |p, _| p.call_value(id, PrimMethod::First, &[])),
        Node::Sub { id, idx, ity, .. } => {
            let a0 = boxed(Low::Word(idx, ity));
            Box::new(move |p, f| {
                let v0 = a0(p, f)?;
                p.call_value(id, PrimMethod::Sub, std::slice::from_ref(&v0))
            })
        }
        Node::Field { inner, off, name } => {
            if let Node::Frame { base } = inner.node {
                // Field of a let-bound struct: fused like the Vm's
                // `LoadField`, the offset resolved at lower time.
                let foff = off as usize;
                return Box::new(move |p, f| {
                    p.cost().ops += 1;
                    Ok(Value::read_flat(&layout, &f.words, base + foff))
                });
            }
            field_of(boxed_chain(*inner), name)
        }
        Node::Index {
            inner,
            len,
            stride,
            idx,
            ity,
        } => {
            let i = boxed(Low::Word(idx, ity));
            if let Node::Frame { base } = inner.node {
                return frame_index(base, len, stride, layout, i);
            }
            index_of(boxed_chain(*inner), i)
        }
    }
}

/// Indexing a let-bound packed vector, fused like the Vm's `LoadIndex`:
/// the element is read straight out of the frame region without
/// building the vector.
fn frame_index(base: usize, len: usize, stride: u32, elem: Layout, i: ExprThunk) -> ExprThunk {
    Box::new(move |p, f| {
        let iv = i(p, f)?.as_index()?;
        p.cost().ops += 1;
        if iv >= len {
            return Err(ExecError::Bounds(format!("index {iv} out of {len}")));
        }
        Ok(Value::read_flat(
            &elem,
            &f.words,
            base + iv * stride as usize,
        ))
    })
}

/// The boxed form of any lowered node: word results are rematerialized
/// at the boxed boundary (charge-free — scalar `Value`s are inline enum
/// variants, no heap).
fn boxed(l: Low) -> ExprThunk {
    match l {
        Low::Word(wt, ty) => Box::new(move |p, f| Ok(ty.materialize(wt(p, f)?))),
        Low::Boxed(t) => t,
        Low::Place(c) => boxed_chain(c),
    }
}

fn field_of(v: ExprThunk, name: String) -> ExprThunk {
    Box::new(move |p, f| {
        let vv = v(p, f)?;
        p.cost().ops += 1;
        vv.field(&name).cloned()
    })
}

fn index_of(v: ExprThunk, i: ExprThunk) -> ExprThunk {
    Box::new(move |p, f| {
        let vv = v(p, f)?;
        let iv = i(p, f)?.as_index()?;
        p.cost().ops += 1;
        vv.index(iv).cloned()
    })
}

fn mk_vec(ts: Vec<ExprThunk>) -> ExprThunk {
    let n = ts.len() as u64;
    Box::new(move |p, f| {
        let mut out = Vec::with_capacity(ts.len());
        for t in &ts {
            out.push(t(p, f)?);
        }
        p.cost().ops += n;
        Ok(Value::Vec(out))
    })
}

fn mk_struct(names: Vec<String>, ts: Vec<ExprThunk>) -> ExprThunk {
    let n = ts.len() as u64;
    Box::new(move |p, f| {
        let mut out = Vec::with_capacity(ts.len());
        for (name, t) in names.iter().zip(&ts) {
            out.push((name.clone(), t(p, f)?));
        }
        p.cost().ops += n;
        Ok(Value::Struct(out))
    })
}

/// The word-domain form of a unary op, when the operand type admits it.
fn word_un(op: UnOp, ty: WordTy) -> Option<fn(u64, u64) -> u64> {
    Some(match (op, ty) {
        (UnOp::Not, WordTy::Bool) => |w, _| w ^ 1,
        (UnOp::Neg, WordTy::Int(_) | WordTy::Bits(_)) => |w, m| w.wrapping_neg() & m,
        (UnOp::Inv, WordTy::Int(_) | WordTy::Bits(_)) => |w, m| !w & m,
        _ => return None,
    })
}

/// Whether a binary op over two word operands has a word form: every
/// one but the Bool×Bool ops `Value::bin_op` has no 1-bit form of.
fn word_bin_ok(op: BinOp, aty: WordTy, bty: WordTy) -> bool {
    (aty, bty) != (WordTy::Bool, WordTy::Bool)
        || matches!(
            op,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Ne | BinOp::Eq
        )
}

/// The word-domain form of a binary op (see [`word_bin_ok`]). Every
/// arm's packed result equals the `write_flat` bits of the boxed value
/// the interpreter would produce, and every charge lands at the same
/// point ([`Value::bin_op`]'s division errors included).
fn word_bin(op: BinOp, at: WordThunk, aty: WordTy, bt: WordThunk, bty: WordTy) -> Low {
    let charge = op.cpu_cost();
    // Boolean logic stays in the 1-bit domain (mirrors the
    // `(Bool, Bool)` branch of `Value::bin_op`).
    if (aty, bty) == (WordTy::Bool, WordTy::Bool) {
        let apply: fn(u64, u64) -> u64 = match op {
            BinOp::And => |x, y| x & y,
            BinOp::Or => |x, y| x | y,
            BinOp::Xor | BinOp::Ne => |x, y| x ^ y,
            BinOp::Eq => |x, y| (x == y) as u64,
            _ => unreachable!("checked by word_bin_ok"),
        };
        return Low::Word(
            Box::new(move |p, f| {
                let x = at(p, f)?;
                let y = bt(p, f)?;
                p.cost().ops += charge;
                Ok(apply(x, y))
            }),
            WordTy::Bool,
        );
    }
    if op.is_comparison() {
        return Low::Word(
            Box::new(move |p, f| {
                let x = aty.view_int(at(p, f)?);
                let y = bty.view_int(bt(p, f)?);
                p.cost().ops += charge;
                let r = match op {
                    BinOp::Eq => x == y,
                    BinOp::Ne => x != y,
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    BinOp::Ge => x >= y,
                    _ => unreachable!(),
                };
                Ok(r as u64)
            }),
            WordTy::Bool,
        );
    }
    // Arithmetic wraps at the left operand's width; a Bool left operand
    // promotes to Int(64), like `as_int`.
    let (width, rty) = match aty {
        WordTy::Bool => (64, WordTy::Int(64)),
        WordTy::Bits(w) => (w, WordTy::Bits(w)),
        WordTy::Int(w) => (w, WordTy::Int(w)),
    };
    let m = mask(width);
    Low::Word(
        Box::new(move |p, f| {
            let x = aty.view_int(at(p, f)?);
            let y = bty.view_int(bt(p, f)?);
            p.cost().ops += charge;
            let r: i64 = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::FixMul(fx) => (((x as i128) * (y as i128)) >> fx) as i64,
                BinOp::FixDiv(fx) => {
                    if y == 0 {
                        return Err(ExecError::Malformed("fixed-point division by zero".into()));
                    }
                    (((x as i128) << fx) / (y as i128)) as i64
                }
                BinOp::Div => {
                    if y == 0 {
                        return Err(ExecError::Malformed("division by zero".into()));
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(ExecError::Malformed("remainder by zero".into()));
                    }
                    x.wrapping_rem(y)
                }
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32 & 63),
                BinOp::Shr => x.wrapping_shr(y as u32 & 63),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => unreachable!(),
            };
            Ok((r as u64) & m)
        }),
        rty,
    )
}

/// A method call's lowered argument list; arity ≤ 2 stays on the stack
/// at run time (the Vm allocates a `Vec` per call via `split_off`).
enum Args {
    A0,
    A1(ExprThunk),
    A2(ExprThunk, ExprThunk),
    N(Vec<ExprThunk>),
}

fn value_call(id: PrimId, m: PrimMethod, args: Args) -> ExprThunk {
    match args {
        Args::A0 => Box::new(move |p, _| p.call_value(id, m, &[])),
        Args::A1(a0) => Box::new(move |p, f| {
            let v0 = a0(p, f)?;
            p.call_value(id, m, std::slice::from_ref(&v0))
        }),
        Args::A2(a0, a1) => Box::new(move |p, f| {
            let v0 = a0(p, f)?;
            let v1 = a1(p, f)?;
            p.call_value(id, m, &[v0, v1])
        }),
        Args::N(ts) => Box::new(move |p, f| {
            let mut vals = Vec::with_capacity(ts.len());
            for t in &ts {
                vals.push(t(p, f)?);
            }
            p.call_value(id, m, &vals)
        }),
    }
}

fn action_call(id: PrimId, m: PrimMethod, args: Args) -> ActThunk {
    match args {
        Args::A0 => Box::new(move |p, _| p.call_action(id, m, &[])),
        Args::A1(a0) => Box::new(move |p, f| {
            let v0 = a0(p, f)?;
            p.call_action(id, m, std::slice::from_ref(&v0))
        }),
        Args::A2(a0, a1) => Box::new(move |p, f| {
            let v0 = a0(p, f)?;
            let v1 = a1(p, f)?;
            p.call_action(id, m, &[v0, v1])
        }),
        Args::N(ts) => Box::new(move |p, f| {
            let mut vals = Vec::with_capacity(ts.len());
            for t in &ts {
                vals.push(t(p, f)?);
            }
            p.call_action(id, m, &vals)
        }),
    }
}

/// An action-method argument on the flat pass, before the call decides
/// whether it travels as a word, as packed scratch bits, or boxed.
enum Payload<'a> {
    Low(Low),
    /// A constant that is not a scalar word.
    Const(&'a Value),
    /// `MkVec` elements (`fields: None`) or `MkStruct` fields.
    Make(Vec<Payload<'a>>, Option<&'a [(String, Expr)]>),
}

impl Payload<'_> {
    /// The packed width, or `None` when some part has no packed form.
    fn packed_width(&self) -> Option<u32> {
        match self {
            Payload::Low(Low::Word(_, ty)) => Some(ty.width()),
            Payload::Low(Low::Place(c)) => Some(c.layout.width),
            Payload::Low(Low::Boxed(_)) => None,
            Payload::Const(v) => Some(Layout::of(&v.type_of()).width),
            Payload::Make(es, _) => es.iter().map(Payload::packed_width).sum(),
        }
    }

    /// A closure writing the payload's packed bits into frame scratch at
    /// `dst` — the zero-`Value` path for aggregate method arguments.
    /// `MkVec`/`MkStruct` pack elements at their running offsets and
    /// charge one op per element after evaluation, like the boxed
    /// constructors; constants pre-pack at lower time. Only called once
    /// [`Self::packed_width`] has answered `Some`.
    fn pack(self, dst: usize) -> (ActThunk, u32) {
        match self {
            Payload::Low(Low::Word(wt, ty)) => {
                let width = ty.width();
                (
                    Box::new(move |p, f| {
                        let w = wt(p, f)?;
                        put_bits(&mut f.words, dst, width, w);
                        Ok(())
                    }),
                    width,
                )
            }
            Payload::Low(Low::Place(c)) => {
                let width = c.layout.width;
                let pt = place_thunk(c.node);
                (
                    Box::new(move |p, f| {
                        let pl = pt(p, f)?;
                        copy_place_packed(p, f, pl, width, dst)
                    }),
                    width,
                )
            }
            Payload::Low(Low::Boxed(_)) => unreachable!("boxed payloads have no packed width"),
            Payload::Const(v) => {
                let lay = Layout::of(&v.type_of());
                let mut ws = vec![0u64; lay.words64().max(1)];
                v.write_flat(&mut ws, 0);
                let width = lay.width;
                (
                    Box::new(move |_, f| {
                        copy_bits(&ws, 0, &mut f.words, dst, width);
                        Ok(())
                    }),
                    width,
                )
            }
            Payload::Make(es, _) => {
                let n = es.len() as u64;
                let mut at = dst;
                let parts: Vec<ActThunk> = es
                    .into_iter()
                    .map(|e| {
                        let (t, w) = e.pack(at);
                        at += w as usize;
                        t
                    })
                    .collect();
                (
                    Box::new(move |p, f| {
                        for t in &parts {
                            t(p, f)?;
                        }
                        p.cost().ops += n;
                        Ok(())
                    }),
                    (at - dst) as u32,
                )
            }
        }
    }

    /// The boxed form: exactly the boxed lowering of the same AST.
    fn boxed(self) -> ExprThunk {
        match self {
            Payload::Low(l) => boxed(l),
            Payload::Const(v) => {
                let v = v.clone();
                Box::new(move |_, _| Ok(v.clone()))
            }
            Payload::Make(es, fields) => {
                let ts = es.into_iter().map(Payload::boxed).collect();
                match fields {
                    None => mk_vec(ts),
                    Some(fs) => mk_struct(fs.iter().map(|(n, _)| n.clone()).collect(), ts),
                }
            }
        }
    }
}

/// How an action-method payload reaches a primitive lane.
enum Lane {
    Word(WordThunk),
    /// Packed into frame scratch at the given bit offset.
    Packed(ActThunk, usize),
    Boxed(ExprThunk),
}

/// Compile-time lexical scope: let-bound names resolved to bindings.
/// `prims` is `Some` for the flat (word-lowering) pass and `None` for
/// the boxed pass, which then behaves exactly like the pre-word
/// backend: every binding is boxed and every port call carries a
/// [`Value`].
struct Lowerer<'a> {
    scope: Vec<(&'a str, Binding)>,
    slots: usize,
    /// Word-scratch footprint (in 64-bit words) for the flat pass.
    words: usize,
    prims: Option<&'a [PrimInfo]>,
}

impl<'a> Lowerer<'a> {
    fn new(prims: Option<&'a [PrimInfo]>) -> Lowerer<'a> {
        Lowerer {
            scope: Vec::new(),
            slots: 0,
            words: 0,
            prims,
        }
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            slots: self.slots,
            words: self.words,
        }
    }

    fn lookup(&self, n: &str) -> Option<Binding> {
        self.scope
            .iter()
            .rev()
            .find(|(name, _)| *name == n)
            .map(|(_, b)| b.clone())
    }

    fn info(&self, id: PrimId) -> Option<&'a PrimInfo> {
        self.prims.and_then(|ps| ps.get(id.0))
    }

    /// Reserves a contiguous word-scratch region for `bits` packed bits
    /// and returns its base bit offset.
    fn alloc_region(&mut self, bits: u32) -> usize {
        let at = self.words;
        self.words += (bits as usize).div_ceil(64).max(1);
        at * 64
    }

    /// The boxed lowering of an expression (word results rematerialized).
    fn expr(&mut self, e: &'a Expr) -> Option<ExprThunk> {
        self.lower(e).map(boxed)
    }

    fn exprs(&mut self, es: impl IntoIterator<Item = &'a Expr>) -> Option<Vec<ExprThunk>> {
        es.into_iter().map(|e| self.expr(e)).collect()
    }

    fn args(&mut self, es: &'a [Expr]) -> Option<Args> {
        Some(match es {
            [] => Args::A0,
            [a0] => Args::A1(self.expr(a0)?),
            [a0, a1] => Args::A2(self.expr(a0)?, self.expr(a1)?),
            _ => Args::N(self.exprs(es)?),
        })
    }

    /// Lowers an expression bottom-up in one pass; `None` when it is not
    /// compilable at all (unelaborated names, unbound variables). On the
    /// flat pass a node takes the word path iff all its operands did and
    /// their types admit it; otherwise it is boxed, wrapping word
    /// operands in a rematerialization. Evaluation order and
    /// cost-charge points mirror the AST interpreter either way.
    fn lower(&mut self, e: &'a Expr) -> Option<Low> {
        Some(match e {
            Expr::Const(v) => match WordTy::of_value(v).filter(|_| self.prims.is_some()) {
                Some((ty, w)) => Low::Word(Box::new(move |_, _| Ok(w)), ty),
                None => {
                    let v = v.clone();
                    Low::Boxed(Box::new(move |_, _| Ok(v.clone())))
                }
            },
            Expr::Var(n) => match self.lookup(n)? {
                Binding::Boxed(s) => Low::Boxed(Box::new(move |_, f| Ok(f.slots[s].clone()))),
                Binding::Word { slot, ty } => {
                    Low::Word(Box::new(move |_, f| Ok(f.words[slot])), ty)
                }
                Binding::Packed { base, layout } => Low::Place(Chain {
                    node: Node::Frame { base },
                    layout: (*layout).clone(),
                }),
            },
            Expr::Un(op, a) => {
                let op = *op;
                match self.lower(a)? {
                    Low::Word(at, aty) if word_un(op, aty).is_some() => {
                        let apply = word_un(op, aty)?;
                        let m = mask(aty.width());
                        Low::Word(
                            Box::new(move |p, f| {
                                let w = at(p, f)?;
                                p.cost().ops += 1;
                                Ok(apply(w, m))
                            }),
                            aty,
                        )
                    }
                    la => {
                        let a = boxed(la);
                        Low::Boxed(Box::new(move |p, f| {
                            let va = a(p, f)?;
                            p.cost().ops += 1;
                            Value::un_op(op, &va)
                        }))
                    }
                }
            }
            Expr::Bin(op, a, b) => {
                let op = *op;
                match (self.lower(a)?, self.lower(b)?) {
                    (Low::Word(at, aty), Low::Word(bt, bty)) if word_bin_ok(op, aty, bty) => {
                        word_bin(op, at, aty, bt, bty)
                    }
                    (la, lb) => {
                        let (a, b) = (boxed(la), boxed(lb));
                        let charge = op.cpu_cost();
                        Low::Boxed(Box::new(move |p, f| {
                            let va = a(p, f)?;
                            let vb = b(p, f)?;
                            p.cost().ops += charge;
                            Value::bin_op(op, &va, &vb)
                        }))
                    }
                }
            }
            Expr::Cond(c, t, fl) => match (self.lower(c)?, self.lower(t)?, self.lower(fl)?) {
                (Low::Word(ct, WordTy::Bool), Low::Word(tt, tty), Low::Word(ft, fty))
                    if tty == fty =>
                {
                    Low::Word(
                        Box::new(move |p, f| {
                            let vc = ct(p, f)? != 0;
                            p.cost().ops += 1;
                            if vc {
                                tt(p, f)
                            } else {
                                ft(p, f)
                            }
                        }),
                        tty,
                    )
                }
                (lc, lt, lf) => {
                    let (c, t, fl) = (boxed(lc), boxed(lt), boxed(lf));
                    Low::Boxed(Box::new(move |p, f| {
                        let vc = c(p, f)?.as_bool()?;
                        p.cost().ops += 1;
                        if vc {
                            t(p, f)
                        } else {
                            fl(p, f)
                        }
                    }))
                }
            },
            // The guard is evaluated first, like the interpreter.
            Expr::When(v, g) => match (self.lower(v)?, self.lower(g)?) {
                (Low::Word(vt, vty), Low::Word(gt, WordTy::Bool)) => Low::Word(
                    Box::new(move |p, f| {
                        let gv = gt(p, f)? != 0;
                        p.cost().ops += 1;
                        if gv {
                            vt(p, f)
                        } else {
                            Err(ExecError::GuardFail)
                        }
                    }),
                    vty,
                ),
                (lv, lg) => {
                    let (v, g) = (boxed(lv), boxed(lg));
                    Low::Boxed(Box::new(move |p, f| {
                        let gv = g(p, f)?.as_bool()?;
                        p.cost().ops += 1;
                        if gv {
                            v(p, f)
                        } else {
                            Err(ExecError::GuardFail)
                        }
                    }))
                }
            },
            Expr::Let(n, v, b) => {
                let (vt, binding) = self.bind_value(v)?;
                self.scope.push((n, binding));
                let lb = self.lower(b);
                self.scope.pop();
                match lb? {
                    Low::Word(bt, bty) => Low::Word(
                        Box::new(move |p, f| {
                            vt(p, f)?;
                            bt(p, f)
                        }),
                        bty,
                    ),
                    lb => {
                        let b = boxed(lb);
                        Low::Boxed(Box::new(move |p, f| {
                            vt(p, f)?;
                            b(p, f)
                        }))
                    }
                }
            }
            Expr::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                let Some(info) = self.info(id) else {
                    return Some(Low::Boxed(value_call(id, m, self.args(args)?)));
                };
                match (info.kind, m, args.as_slice()) {
                    // FIFO occupancy probes are 1-bit words already.
                    (PrimKindInfo::Fifo, PrimMethod::NotEmpty | PrimMethod::NotFull, []) => {
                        Low::Word(
                            Box::new(move |p, _| p.call_value_word(id, m, 0, 0, 1)),
                            WordTy::Bool,
                        )
                    }
                    (PrimKindInfo::Reg, PrimMethod::RegRead, []) => {
                        leaf(Node::Reg(id), info.layout.clone())
                    }
                    (PrimKindInfo::Fifo, PrimMethod::First, []) => {
                        leaf(Node::First(id), info.layout.clone())
                    }
                    (PrimKindInfo::RegFile { size }, PrimMethod::Sub, [i]) => {
                        match self.lower(i)? {
                            Low::Word(idx, ity) => {
                                leaf(Node::Sub { id, size, idx, ity }, info.layout.clone())
                            }
                            li => Low::Boxed(value_call(id, m, Args::A1(boxed(li)))),
                        }
                    }
                    _ => Low::Boxed(value_call(id, m, self.args(args)?)),
                }
            }
            Expr::Index(v, i) => {
                // Indexing a let-bound vector is fused into a direct slot
                // access, like the Vm's `LoadIndex`: the element is copied
                // straight out of the slot without cloning the vector.
                // `Var` evaluation is infallible, so hoisting it past the
                // index expression cannot reorder failures; charged cost
                // is identical.
                if let Expr::Var(n) = v.as_ref() {
                    let li = self.lower(i)?;
                    return Some(match self.lookup(n)? {
                        Binding::Packed { base, layout } => match (vector_dims(&layout), li) {
                            (Some((len, stride, elem)), Low::Word(idx, ity)) => {
                                let inner = Chain {
                                    node: Node::Frame { base },
                                    layout: (*layout).clone(),
                                };
                                leaf(
                                    Node::Index {
                                        inner: Box::new(inner),
                                        len,
                                        stride,
                                        idx,
                                        ity,
                                    },
                                    elem,
                                )
                            }
                            (Some((len, stride, elem)), li) => {
                                Low::Boxed(frame_index(base, len, stride, elem, boxed(li)))
                            }
                            (None, li) => {
                                let i = boxed(li);
                                Low::Boxed(Box::new(move |p, f| {
                                    let iv = i(p, f)?.as_index()?;
                                    p.cost().ops += 1;
                                    Value::read_flat(&layout, &f.words, base).index(iv).cloned()
                                }))
                            }
                        },
                        Binding::Boxed(s) => {
                            let i = boxed(li);
                            Low::Boxed(Box::new(move |p, f| {
                                let iv = i(p, f)?.as_index()?;
                                p.cost().ops += 1;
                                f.slots[s].index(iv).cloned()
                            }))
                        }
                        // A word binding is a scalar: indexing it is a
                        // type error. Materialize for the identical
                        // error message.
                        Binding::Word { slot, ty } => {
                            let i = boxed(li);
                            Low::Boxed(Box::new(move |p, f| {
                                let iv = i(p, f)?.as_index()?;
                                p.cost().ops += 1;
                                ty.materialize(f.words[slot]).index(iv).cloned()
                            }))
                        }
                    });
                }
                match (self.lower(v)?, self.lower(i)?) {
                    (Low::Place(c), Low::Word(idx, ity)) => match vector_dims(&c.layout) {
                        Some((len, stride, elem)) => leaf(
                            Node::Index {
                                inner: Box::new(c),
                                len,
                                stride,
                                idx,
                                ity,
                            },
                            elem,
                        ),
                        None => Low::Boxed(index_of(boxed_chain(c), boxed(Low::Word(idx, ity)))),
                    },
                    (lv, li) => Low::Boxed(index_of(boxed(lv), boxed(li))),
                }
            }
            Expr::Field(v, name) => {
                // Field of a let-bound struct: fused like the Vm's
                // `LoadField`.
                if let Expr::Var(n) = v.as_ref() {
                    let name = name.clone();
                    return Some(match self.lookup(n)? {
                        Binding::Packed { base, layout } => match struct_field(&layout, &name) {
                            Some((off, flay)) => {
                                let inner = Chain {
                                    node: Node::Frame { base },
                                    layout: (*layout).clone(),
                                };
                                leaf(
                                    Node::Field {
                                        inner: Box::new(inner),
                                        off,
                                        name,
                                    },
                                    flay,
                                )
                            }
                            // A missing field materializes for the boxed
                            // error message.
                            None => Low::Boxed(Box::new(move |p, f| {
                                p.cost().ops += 1;
                                Value::read_flat(&layout, &f.words, base)
                                    .field(&name)
                                    .cloned()
                            })),
                        },
                        Binding::Boxed(s) => Low::Boxed(Box::new(move |p, f| {
                            p.cost().ops += 1;
                            f.slots[s].field(&name).cloned()
                        })),
                        Binding::Word { slot, ty } => Low::Boxed(Box::new(move |p, f| {
                            p.cost().ops += 1;
                            ty.materialize(f.words[slot]).field(&name).cloned()
                        })),
                    });
                }
                match self.lower(v)? {
                    Low::Place(c) => match struct_field(&c.layout, name) {
                        Some((off, flay)) => leaf(
                            Node::Field {
                                inner: Box::new(c),
                                off,
                                name: name.clone(),
                            },
                            flay,
                        ),
                        None => Low::Boxed(field_of(boxed_chain(c), name.clone())),
                    },
                    lv => Low::Boxed(field_of(boxed(lv), name.clone())),
                }
            }
            Expr::MkVec(es) => Low::Boxed(mk_vec(self.exprs(es)?)),
            Expr::MkStruct(fs) => {
                let ts = self.exprs(fs.iter().map(|(_, e)| e))?;
                Low::Boxed(mk_struct(fs.iter().map(|(n, _)| n.clone()).collect(), ts))
            }
            Expr::UpdateIndex(v, i, x) => {
                let v = self.expr(v)?;
                let i = self.expr(i)?;
                let x = self.expr(x)?;
                Low::Boxed(Box::new(move |p, f| {
                    let vv = v(p, f)?;
                    let iv = i(p, f)?.as_index()?;
                    let xv = x(p, f)?;
                    // Functional update costs a copy of the vector.
                    p.cost().ops += vv.as_vec().map(|s| s.len() as u64).unwrap_or(1);
                    vv.update_index(iv, xv)
                }))
            }
            Expr::UpdateField(v, name, x) => {
                let v = self.expr(v)?;
                let x = self.expr(x)?;
                let name = name.clone();
                Low::Boxed(Box::new(move |p, f| {
                    let vv = v(p, f)?;
                    let xv = x(p, f)?;
                    p.cost().ops += 1;
                    vv.update_field(&name, xv)
                }))
            }
        })
    }

    /// Lowers a let-bound value to the cheapest binding it supports:
    /// an unboxed word, a packed aggregate region (copied bitwise from
    /// its place, no `Value` built), or a boxed slot. The returned
    /// thunk performs the store; charges are exactly the value
    /// expression's own (the slot store itself is free, as in the
    /// interpreter).
    fn bind_value(&mut self, v: &'a Expr) -> Option<(ActThunk, Binding)> {
        Some(match self.lower(v)? {
            Low::Word(wt, ty) => {
                let slot = self.words;
                self.words += 1;
                let t: ActThunk = Box::new(move |p, f| {
                    f.words[slot] = wt(p, f)?;
                    Ok(())
                });
                (t, Binding::Word { slot, ty })
            }
            Low::Place(Chain { node, layout })
                if matches!(
                    layout.kind,
                    LayoutKind::Vector { .. } | LayoutKind::Struct { .. }
                ) =>
            {
                let base = self.alloc_region(layout.width);
                let width = layout.width;
                let pt = place_thunk(node);
                let t: ActThunk = Box::new(move |p, f| {
                    let pl = pt(p, f)?;
                    copy_place_packed(p, f, pl, width, base)
                });
                (
                    t,
                    Binding::Packed {
                        base,
                        layout: Arc::new(layout),
                    },
                )
            }
            low => {
                let v = boxed(low);
                let slot = self.slots;
                self.slots += 1;
                let t: ActThunk = Box::new(move |p, f| {
                    f.slots[slot] = v(p, f)?;
                    Ok(())
                });
                (t, Binding::Boxed(slot))
            }
        })
    }

    /// Lowers an action-method argument, leaving aggregate constants and
    /// constructors open so the call can pack them.
    fn payload(&mut self, e: &'a Expr) -> Option<Payload<'a>> {
        Some(match e {
            Expr::Const(v) if WordTy::of_value(v).is_none() => Payload::Const(v),
            Expr::MkVec(es) => Payload::Make(
                es.iter().map(|e| self.payload(e)).collect::<Option<_>>()?,
                None,
            ),
            Expr::MkStruct(fs) => Payload::Make(
                fs.iter()
                    .map(|(_, e)| self.payload(e))
                    .collect::<Option<_>>()?,
                Some(fs),
            ),
            _ => Payload::Low(self.lower(e)?),
        })
    }

    /// Routes a payload to a `width`-bit primitive lane: as a word when
    /// it is one of exactly that width, as packed scratch bits when
    /// every part packs to exactly that width (the boxed path's runtime
    /// width check, proved at lower time), boxed otherwise.
    fn lane(&mut self, pl: Payload<'a>, width: u32) -> Lane {
        match pl {
            Payload::Low(Low::Word(wt, ty)) if ty.width() == width => Lane::Word(wt),
            Payload::Low(Low::Word(wt, ty)) => Lane::Boxed(boxed(Low::Word(wt, ty))),
            pl if pl.packed_width() == Some(width) => {
                let dst = self.alloc_region(width);
                Lane::Packed(pl.pack(dst).0, dst)
            }
            pl => Lane::Boxed(pl.boxed()),
        }
    }

    /// An action-method call. On the flat pass, register writes, FIFO
    /// enqueues, and regfile updates whose payload fits the lane travel
    /// as a word or as packed scratch bits; every other call passes
    /// boxed `Value`s (whose subexpressions may still take the word
    /// path).
    fn call_action(&mut self, id: PrimId, m: PrimMethod, args: &'a [Expr]) -> Option<ActThunk> {
        let Some(info) = self.info(id) else {
            return Some(action_call(id, m, self.args(args)?));
        };
        let lane_width = info.layout.width;
        Some(match (info.kind, m, args) {
            (PrimKindInfo::Reg, PrimMethod::RegWrite, [e])
            | (PrimKindInfo::Fifo, PrimMethod::Enq, [e]) => {
                let pl = self.payload(e)?;
                match self.lane(pl, lane_width) {
                    Lane::Word(wt) => Box::new(move |p, f| {
                        let w = wt(p, f)?;
                        p.call_action_word(id, m, 0, w)
                    }),
                    Lane::Packed(pt, dst) => Box::new(move |p, f| {
                        pt(p, f)?;
                        p.call_action_packed(id, m, 0, &f.words, dst)
                    }),
                    Lane::Boxed(a0) => action_call(id, m, Args::A1(a0)),
                }
            }
            (PrimKindInfo::RegFile { .. }, PrimMethod::Upd, [i, e]) => {
                let li = self.lower(i)?;
                let pl = self.payload(e)?;
                let Low::Word(it, ity) = li else {
                    return Some(action_call(id, m, Args::A2(boxed(li), pl.boxed())));
                };
                match self.lane(pl, lane_width) {
                    Lane::Word(wt) => Box::new(move |p, f| {
                        let iv = ity.view_int(it(p, f)?);
                        let w = wt(p, f)?;
                        p.call_action_word(id, PrimMethod::Upd, iv, w)
                    }),
                    Lane::Packed(pt, dst) => Box::new(move |p, f| {
                        let iv = ity.view_int(it(p, f)?);
                        pt(p, f)?;
                        p.call_action_packed(id, PrimMethod::Upd, iv, &f.words, dst)
                    }),
                    Lane::Boxed(a1) => action_call(id, m, Args::A2(boxed(Low::Word(it, ity)), a1)),
                }
            }
            _ => action_call(id, m, self.args(args)?),
        })
    }

    fn action(&mut self, a: &'a Action) -> Option<ActThunk> {
        Some(match a {
            Action::NoAction => Box::new(|_, _| Ok(())),
            Action::Write(t, e) => {
                let (id, m) = prim_target(t)?;
                return self.call_action(id, m, std::slice::from_ref(e));
            }
            Action::Call(t, args) => {
                let (id, m) = prim_target(t)?;
                return self.call_action(id, m, args);
            }
            Action::If(c, th, el) => {
                let c = self.expr(c)?;
                let th = self.action(th)?;
                let el = self.action(el)?;
                Box::new(move |p, f| {
                    let vc = c(p, f)?.as_bool()?;
                    p.cost().ops += 1;
                    if vc {
                        th(p, f)
                    } else {
                        el(p, f)
                    }
                })
            }
            Action::Seq(x, y) => {
                let x = self.action(x)?;
                let y = self.action(y)?;
                Box::new(move |p, f| {
                    x(p, f)?;
                    y(p, f)
                })
            }
            Action::When(g, x) => {
                let g = self.expr(g)?;
                let x = self.action(x)?;
                Box::new(move |p, f| {
                    let gv = g(p, f)?.as_bool()?;
                    p.cost().ops += 1;
                    if gv {
                        x(p, f)
                    } else if p.policy() == ShadowPolicy::InPlace {
                        // A failing guard on the in-place path is a lifting
                        // bug: earlier writes cannot be rolled back.
                        Err(ExecError::Malformed(
                            "guard failed during in-place execution (unsound lifting)".into(),
                        ))
                    } else {
                        Err(ExecError::GuardFail)
                    }
                })
            }
            Action::Let(n, e, x) => {
                let (et, binding) = self.bind_value(e)?;
                self.scope.push((n, binding));
                let x = self.action(x);
                self.scope.pop();
                let x = x?;
                Box::new(move |p, f| {
                    et(p, f)?;
                    x(p, f)
                })
            }
            Action::Loop(c, body) => {
                let c = self.expr(c)?;
                let body = self.action(body)?;
                Box::new(move |p, f| {
                    let mut iters = 0u64;
                    loop {
                        let cv = c(p, f)?.as_bool()?;
                        p.cost().ops += 1;
                        if !cv {
                            return Ok(());
                        }
                        body(p, f)?;
                        iters += 1;
                        if iters > p.loop_bound() {
                            return Err(ExecError::Malformed(format!(
                                "loop exceeded {} iterations",
                                p.loop_bound()
                            )));
                        }
                    }
                })
            }
            Action::Par(x, y) => {
                // Mirror the Vm's ParStart/ParMid/ParEnd frame discipline
                // through the port; an error mid-branch propagates with
                // the frames unbalanced and rollback clears them, exactly
                // like the stack machine.
                let x = self.action(x)?;
                let y = self.action(y)?;
                Box::new(move |p, f| {
                    p.par_start()?;
                    x(p, f)?;
                    p.par_mid();
                    y(p, f)?;
                    p.par_end()
                })
            }
            // localGuard absorbs guard failures into a discardable frame,
            // which needs catch semantics the closure chain does not model;
            // it stays on the interpreter (same fallback as the Vm).
            Action::LocalGuard(..) => return None,
        })
    }
}

/// The length, stride and element layout of a vector layout.
fn vector_dims(layout: &Layout) -> Option<(usize, u32, Layout)> {
    match &layout.kind {
        LayoutKind::Vector { len, stride, elem } => Some((*len, *stride, (**elem).clone())),
        _ => None,
    }
}

/// The offset and layout of a named field of a struct layout.
fn struct_field(layout: &Layout, name: &str) -> Option<(u32, Layout)> {
    match &layout.kind {
        LayoutKind::Struct { fields } => fields
            .iter()
            .find(|fl| fl.name == name)
            .map(|fl| (fl.offset, fl.layout.clone())),
        _ => None,
    }
}

fn prim_target(t: &Target) -> Option<(PrimId, PrimMethod)> {
    match t {
        Target::Prim(id, m) => Some((*id, *m)),
        Target::Named(..) => None,
    }
}

/// Lowers a guard for the store kind `prims` selects (`None`: tree).
fn lower_guard(e: &Expr, prims: Option<&[PrimInfo]>) -> Option<CompiledExpr> {
    let mut l = Lowerer::new(prims);
    let eval = match l.lower(e)? {
        // Guards are Bool-typed; a non-Bool root must keep the boxed
        // `as_bool` error, so only Bool roots take the bare-word form.
        Low::Word(wt, WordTy::Bool) => GuardEval::Word(wt),
        low => GuardEval::Boxed(boxed(low)),
    };
    Some(CompiledExpr {
        eval,
        frame: l.footprint(),
        flat: prims.is_some(),
    })
}

/// Lowers a rule body for the store kind `prims` selects.
fn lower_body(a: &Action, prims: Option<&[PrimInfo]>) -> Option<CompiledAction> {
    let mut l = Lowerer::new(prims);
    let thunk = l.action(a)?;
    Some(CompiledAction {
        thunk,
        frame: l.footprint(),
        flat: prims.is_some(),
    })
}

/// Lowers an expression (typically a lifted guard) to a native closure
/// for tree-backed stores. `None` when it references unelaborated names
/// or free variables — callers fall back to the AST interpreter. Use
/// [`compile_plan`] (which knows the [`Design`]) for the flat-store
/// word-path lowering.
pub fn compile_expr(e: &Expr) -> Option<CompiledExpr> {
    lower_guard(e, None)
}

/// Lowers a rule body to a native closure for tree-backed stores, or
/// `None` if it uses constructs the backend does not model
/// (`localGuard`, unelaborated names).
pub fn compile_action(a: &Action) -> Option<CompiledAction> {
    lower_body(a, None)
}

fn compile_plan_with(plan: &RulePlan, prims: Option<&[PrimInfo]>) -> NativeRule {
    NativeRule {
        guard: plan.guard.as_ref().and_then(|g| lower_guard(g, prims)),
        body: lower_body(&plan.body, prims),
    }
}

/// Lowers one compiled rule plan to native closures for flat-arena
/// stores. The design is consulted for primitive element layouts so
/// that scalar port traffic runs unboxed (see the module docs).
pub fn compile_plan(plan: &RulePlan, design: &Design) -> NativeRule {
    compile_plan_with(plan, Some(&prim_infos(design)))
}

/// Lowers every plan of a design for flat-arena stores, building the
/// layout table once.
pub fn compile_plans(plans: &[RulePlan], design: &Design) -> Vec<NativeRule> {
    let infos = prim_infos(design);
    plans
        .iter()
        .map(|p| compile_plan_with(p, Some(&infos)))
        .collect()
}

/// Lowers every plan once, for the kind of `store` it will run on: the
/// word lowering ([`compile_plans`]) for a flat-arena store, the boxed
/// one ([`compile_expr`]/[`compile_action`]) for a tree-backed store.
pub fn compile_plans_for(plans: &[RulePlan], design: &Design, store: &Store) -> Vec<NativeRule> {
    if store.is_flat() {
        compile_plans(plans, design)
    } else {
        plans.iter().map(|p| compile_plan_with(p, None)).collect()
    }
}

fn store_mismatch(flat: bool) -> ExecError {
    let (lowered, store) = if flat {
        ("flat-arena", "tree-backed")
    } else {
        ("tree-backed", "flat-arena")
    };
    ExecError::Malformed(format!(
        "rule lowered for a {lowered} store run on a {store} store"
    ))
}

/// Native counterpart of [`crate::exec::eval_guard_ro`] /
/// [`crate::exec::eval_guard_compiled`]: evaluates a lowered guard
/// directly against the committed store, folding guard failures to
/// `Ok(false)`. Charges identical cost to both. The lowering must fit
/// the store ([`CompiledExpr::fits`]; [`NativeRule::eval_guard`] falls
/// back to the interpreter instead).
pub fn eval_guard_native(
    frame: &mut NativeFrame,
    store: &Store,
    guard: &CompiledExpr,
    cost: &mut Cost,
) -> ExecResult<bool> {
    if !guard.fits(store) {
        return Err(store_mismatch(guard.flat));
    }
    cost.guard_evals += 1;
    frame.enter(guard.frame);
    let mut port = NativePort::Ro { store, cost };
    let r = match &guard.eval {
        GuardEval::Word(t) => t(&mut port, frame).map(|w| w != 0),
        GuardEval::Boxed(t) => t(&mut port, frame).and_then(|v| v.as_bool()),
    };
    match r {
        Err(ExecError::GuardFail) => Ok(false),
        r => r,
    }
}

/// Native counterpart of [`crate::exec::run_rule_compiled`]: executes a
/// lowered body as a transaction, committing on success and rolling back
/// on guard failure. The lowering must fit the store.
pub fn run_rule_native(
    frame: &mut NativeFrame,
    store: &mut Store,
    body: &CompiledAction,
    policy: ShadowPolicy,
) -> ExecResult<(RuleOutcome, Cost)> {
    if !body.fits(store) {
        return Err(store_mismatch(body.flat));
    }
    frame.enter(body.frame);
    let mut txn = Txn::new(store, policy);
    txn.cost.txn_setups += 1;
    let mut port = NativePort::Txn(txn);
    let r = (body.thunk)(&mut port, frame);
    let NativePort::Txn(txn) = port else {
        unreachable!("rule body cannot change its port variant")
    };
    match r {
        Ok(()) => Ok((RuleOutcome::Fired, txn.commit())),
        Err(ExecError::GuardFail) => Ok((RuleOutcome::GuardFailed, txn.rollback())),
        Err(e) => Err(e),
    }
}

/// Native counterpart of [`crate::exec::run_rule_inplace_compiled`]:
/// executes a fully guard-lifted body straight against the committed
/// store — no transaction, no frame stack, no shadow map. Cost-identical
/// to the in-place interpreter and Vm paths. The lowering must fit the
/// store.
pub fn run_rule_inplace_native(
    frame: &mut NativeFrame,
    store: &mut Store,
    body: &CompiledAction,
) -> ExecResult<Cost> {
    if !body.fits(store) {
        return Err(store_mismatch(body.flat));
    }
    frame.enter(body.frame);
    let mut cost = Cost::default();
    cost.inplace_runs += 1;
    let mut port = NativePort::InPlace { store, cost };
    let r = (body.thunk)(&mut port, frame);
    let NativePort::InPlace { cost, .. } = port else {
        unreachable!("rule body cannot change its port variant")
    };
    match r {
        Ok(()) => Ok(cost),
        Err(ExecError::GuardFail) => Err(ExecError::Malformed(
            "guard failure during in-place execution (unsound lifting)".into(),
        )),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Path, PrimId, PrimMethod, RuleDef};
    use crate::design::{Design, PrimDef};
    use crate::exec::{eval_guard_compiled, run_rule_compiled, run_rule_inplace_compiled, Vm};
    use crate::prim::PrimSpec;
    use crate::types::Type;
    use crate::value::BinOp;
    use crate::xform::{compile_rule, CompileOpts, ExecMode};

    const A: PrimId = PrimId(0);
    const F: PrimId = PrimId(1);
    const B: PrimId = PrimId(2);

    fn d3() -> Design {
        Design {
            name: "t".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("a"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
                PrimDef {
                    path: Path::new("f"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(32),
                    },
                },
                PrimDef {
                    path: Path::new("b"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
            ],
            ..Default::default()
        }
    }

    fn wr(id: PrimId, e: Expr) -> Action {
        Action::Write(Target::Prim(id, PrimMethod::RegWrite), Box::new(e))
    }
    fn rd(id: PrimId) -> Expr {
        Expr::Call(Target::Prim(id, PrimMethod::RegRead), vec![])
    }
    fn enq(id: PrimId, e: Expr) -> Action {
        Action::Call(Target::Prim(id, PrimMethod::Enq), vec![e])
    }

    /// Five-way parity: the native backend must match the AST
    /// interpreter AND the stack machine in verdicts, final state, and —
    /// bit for bit — cost counters; the flat-store word lowering must
    /// match the flat-store interpreter the same way, with identical
    /// costs to the tree legs.
    fn assert_native_parity(rule: &RuleDef, design: &Design, setup: impl Fn(&mut Store)) {
        let plan = compile_rule(rule, CompileOpts::default());
        let tree = compile_plan_with(&plan, None);
        let flat = compile_plan(&plan, design);
        let mut s_ast = Store::new(design);
        setup(&mut s_ast);
        let mut s_vm = s_ast.clone();
        let mut s_nat = s_ast.clone();
        let mut s_fla = Store::new_flat(design);
        setup(&mut s_fla);
        let mut s_fln = s_fla.clone();
        let mut vm = Vm::new();
        let mut frame = NativeFrame::new();
        if let Some(g) = &plan.guard {
            let prog = crate::xform::compile_expr(g).expect("guard compiles to Prog");
            let cg = tree.guard.as_ref().expect("guard compiles natively");
            let fg = flat.guard.as_ref().expect("guard word-lowers");
            let mut c_ast = Cost::default();
            let mut c_vm = Cost::default();
            let mut c_nat = Cost::default();
            let mut c_fla = Cost::default();
            let mut c_fln = Cost::default();
            let v_ast = eval_guard_ro(&mut s_ast, g, &mut c_ast).unwrap();
            let v_vm = eval_guard_compiled(&mut vm, &s_vm, &prog, &mut c_vm).unwrap();
            let v_nat = eval_guard_native(&mut frame, &s_nat, cg, &mut c_nat).unwrap();
            let v_fla = eval_guard_ro(&mut s_fla, g, &mut c_fla).unwrap();
            let v_fln = eval_guard_native(&mut frame, &s_fln, fg, &mut c_fln).unwrap();
            assert_eq!(v_ast, v_nat, "guard verdict for {}", rule.name);
            assert_eq!(v_vm, v_nat, "guard verdict vm/native for {}", rule.name);
            assert_eq!(c_ast, c_nat, "guard cost for {}", rule.name);
            assert_eq!(c_vm, c_nat, "guard cost vm/native for {}", rule.name);
            assert_eq!(v_fla, v_nat, "guard verdict flat/tree for {}", rule.name);
            assert_eq!(v_fln, v_nat, "guard verdict flat-native for {}", rule.name);
            assert_eq!(c_fla, c_nat, "guard cost flat-ast for {}", rule.name);
            assert_eq!(c_fln, c_nat, "guard cost flat-native for {}", rule.name);
        }
        let prog = crate::xform::compile_action(&plan.body).expect("body compiles to Prog");
        let cb = tree.body.as_ref().expect("body compiles natively");
        let fb = flat.body.as_ref().expect("body word-lowers");
        let (out_ast, cost_ast) = run_rule(&mut s_ast, &plan.body, ShadowPolicy::Partial).unwrap();
        let (out_vm, cost_vm) =
            run_rule_compiled(&mut vm, &mut s_vm, &prog, ShadowPolicy::Partial).unwrap();
        let (out_nat, cost_nat) =
            run_rule_native(&mut frame, &mut s_nat, cb, ShadowPolicy::Partial).unwrap();
        let (out_fla, cost_fla) = run_rule(&mut s_fla, &plan.body, ShadowPolicy::Partial).unwrap();
        let (out_fln, cost_fln) =
            run_rule_native(&mut frame, &mut s_fln, fb, ShadowPolicy::Partial).unwrap();
        assert_eq!(out_ast, out_nat, "outcome for {}", rule.name);
        assert_eq!(out_vm, out_nat, "outcome vm/native for {}", rule.name);
        assert_eq!(cost_ast, cost_nat, "body cost for {}", rule.name);
        assert_eq!(cost_vm, cost_nat, "body cost vm/native for {}", rule.name);
        assert_eq!(s_ast, s_nat, "state for {}", rule.name);
        assert_eq!(s_vm, s_nat, "state vm/native for {}", rule.name);
        assert_eq!(out_fla, out_nat, "outcome flat-ast for {}", rule.name);
        assert_eq!(out_fln, out_nat, "outcome flat-native for {}", rule.name);
        assert_eq!(cost_fla, cost_nat, "body cost flat-ast for {}", rule.name);
        assert_eq!(
            cost_fln, cost_nat,
            "body cost flat-native for {}",
            rule.name
        );
        assert_eq!(s_fla, s_fln, "state flat-ast/flat-native for {}", rule.name);
        for id in (0..design.prims.len()).map(PrimId) {
            assert_eq!(
                s_nat.get_state(id),
                s_fln.get_state(id),
                "prim {} state tree/flat for {}",
                id.0,
                rule.name
            );
        }
    }

    /// In-place parity for fully lifted rules, on both store backends.
    fn assert_inplace_parity(rule: &RuleDef, design: &Design, setup: impl Fn(&mut Store)) {
        let plan = compile_rule(rule, CompileOpts::default());
        assert_eq!(plan.mode, ExecMode::InPlace, "{} must lift", rule.name);
        let cb = compile_action(&plan.body).expect("body compiles natively");
        let fb = compile_plan(&plan, design).body.expect("body word-lowers");
        let prog = crate::xform::compile_action(&plan.body).expect("body compiles to Prog");
        let mut s_ast = Store::new(design);
        setup(&mut s_ast);
        let mut s_vm = s_ast.clone();
        let mut s_nat = s_ast.clone();
        let mut s_fla = Store::new_flat(design);
        setup(&mut s_fla);
        let mut s_fln = s_fla.clone();
        let mut vm = Vm::new();
        let mut frame = NativeFrame::new();
        let c_ast = run_rule_inplace(&mut s_ast, &plan.body).unwrap();
        let c_vm = run_rule_inplace_compiled(&mut vm, &mut s_vm, &prog).unwrap();
        let c_nat = run_rule_inplace_native(&mut frame, &mut s_nat, &cb).unwrap();
        let c_fla = run_rule_inplace(&mut s_fla, &plan.body).unwrap();
        let c_fln = run_rule_inplace_native(&mut frame, &mut s_fln, &fb).unwrap();
        assert_eq!(c_ast, c_nat, "in-place cost for {}", rule.name);
        assert_eq!(c_vm, c_nat, "in-place cost vm/native for {}", rule.name);
        assert_eq!(s_ast, s_nat, "in-place state for {}", rule.name);
        assert_eq!(s_vm, s_nat, "in-place state vm/native for {}", rule.name);
        assert_eq!(c_fla, c_nat, "in-place cost flat-ast for {}", rule.name);
        assert_eq!(c_fln, c_nat, "in-place cost flat-native for {}", rule.name);
        assert_eq!(s_fla, s_fln, "in-place state flat for {}", rule.name);
        for id in (0..design.prims.len()).map(PrimId) {
            assert_eq!(
                s_nat.get_state(id),
                s_fln.get_state(id),
                "in-place prim {} state tree/flat for {}",
                id.0,
                rule.name
            );
        }
    }

    /// The paper's running example: `Rule foo {a := 1; f.enq(a); a := 0}`.
    fn rule_foo() -> RuleDef {
        RuleDef {
            name: "foo".into(),
            body: Action::Seq(
                Box::new(wr(A, Expr::int(32, 1))),
                Box::new(Action::Seq(
                    Box::new(enq(F, rd(A))),
                    Box::new(wr(A, Expr::int(32, 0))),
                )),
            ),
        }
    }

    #[test]
    fn native_execution_matches_interpreter_and_vm() {
        let d = d3();
        assert_native_parity(&rule_foo(), &d, |_| {});
        assert_native_parity(&rule_foo(), &d, |s| {
            for _ in 0..2 {
                s.call_action_at(F, PrimMethod::Enq, &[Value::int(32, 0)])
                    .unwrap();
            }
        });
        // Conditional both ways.
        let cond = RuleDef {
            name: "c".into(),
            body: Action::If(
                Box::new(Expr::Bin(
                    BinOp::Gt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 0)),
                )),
                Box::new(enq(F, rd(A))),
                Box::new(wr(B, Expr::int(32, 9))),
            ),
        };
        assert_native_parity(&cond, &d, |_| {});
        assert_native_parity(&cond, &d, |s| {
            s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(32, 3)])
                .unwrap();
        });
        // Nested lets with shadowing.
        let lets = RuleDef {
            name: "lets".into(),
            body: Action::Let(
                "x".into(),
                Box::new(Expr::int(32, 3)),
                Box::new(Action::Let(
                    "x".into(),
                    Box::new(Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Var("x".into())),
                        Box::new(Expr::int(32, 1)),
                    )),
                    Box::new(wr(A, Expr::Var("x".into()))),
                )),
            ),
        };
        assert_native_parity(&lets, &d, |_| {});
        // A loop with per-iteration condition cost.
        let lp = RuleDef {
            name: "lp".into(),
            body: Action::Loop(
                Box::new(Expr::Bin(
                    BinOp::Lt,
                    Box::new(rd(A)),
                    Box::new(Expr::int(32, 3)),
                )),
                Box::new(wr(
                    A,
                    Expr::Bin(BinOp::Add, Box::new(rd(A)), Box::new(Expr::int(32, 1))),
                )),
            ),
        };
        assert_native_parity(&lp, &d, |_| {});
        // Vector expressions, including the fused LoadIndex path.
        let vecs = RuleDef {
            name: "vecs".into(),
            body: Action::Let(
                "v".into(),
                Box::new(Expr::UpdateIndex(
                    Box::new(Expr::MkVec(vec![
                        Expr::int(32, 10),
                        Expr::int(32, 20),
                        Expr::int(32, 30),
                    ])),
                    Box::new(Expr::int(32, 1)),
                    Box::new(Expr::int(32, 99)),
                )),
                Box::new(wr(
                    A,
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Index(
                            Box::new(Expr::Var("v".into())),
                            Box::new(Expr::int(32, 1)),
                        )),
                        Box::new(Expr::Index(
                            Box::new(Expr::Var("v".into())),
                            Box::new(Expr::int(32, 2)),
                        )),
                    ),
                )),
            ),
        };
        assert_native_parity(&vecs, &d, |_| {});
        // Struct expressions, including the fused LoadField path.
        let structs = RuleDef {
            name: "structs".into(),
            body: Action::Let(
                "s".into(),
                Box::new(Expr::UpdateField(
                    Box::new(Expr::MkStruct(vec![
                        ("re".into(), Expr::int(32, 7)),
                        ("im".into(), Expr::int(32, 8)),
                    ])),
                    "im".into(),
                    Box::new(Expr::int(32, 80)),
                )),
                Box::new(wr(
                    A,
                    Expr::Field(Box::new(Expr::Var("s".into())), "im".into()),
                )),
            ),
        };
        assert_native_parity(&structs, &d, |_| {});
        // A residual mid-sequence guard (deq;enq on the same FIFO) — the
        // native body must fail/rollback exactly like the interpreter.
        let residual = RuleDef {
            name: "res".into(),
            body: Action::Seq(
                Box::new(Action::Call(Target::Prim(F, PrimMethod::Deq), vec![])),
                Box::new(enq(F, Expr::int(32, 1))),
            ),
        };
        assert_native_parity(&residual, &d, |_| {});
        assert_native_parity(&residual, &d, |s| {
            s.call_action_at(F, PrimMethod::Enq, &[Value::int(32, 5)])
                .unwrap();
        });
        // A true swap keeps its Par body; the native closure drives the
        // same par_start/par_mid/par_end frame discipline.
        let swap = RuleDef {
            name: "swap".into(),
            body: Action::Par(Box::new(wr(A, rd(B))), Box::new(wr(B, rd(A)))),
        };
        assert_native_parity(&swap, &d, |s| {
            s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(32, 7)])
                .unwrap();
        });
        // When-expression guard folding.
        let when_e = RuleDef {
            name: "when_e".into(),
            body: wr(
                A,
                Expr::When(
                    Box::new(rd(B)),
                    Box::new(Expr::Bin(
                        BinOp::Gt,
                        Box::new(rd(B)),
                        Box::new(Expr::int(32, 5)),
                    )),
                ),
            ),
        };
        assert_native_parity(&when_e, &d, |_| {});
    }

    #[test]
    fn native_inplace_matches_interpreter_and_vm() {
        let d = d3();
        assert_inplace_parity(&rule_foo(), &d, |_| {});
        let lg = RuleDef {
            name: "lg".into(),
            body: Action::LocalGuard(Box::new(enq(F, Expr::int(32, 1)))),
        };
        // The lifter turns this into a plain conditional, which the
        // native backend executes in place.
        assert_inplace_parity(&lg, &d, |_| {});
    }

    /// A lowering that meets a store of the other kind falls back to the
    /// AST interpreter: verdicts, costs and state match the interpreter
    /// on that store, and the raw native entry points refuse the pair.
    #[test]
    fn mismatched_store_falls_back_to_interpreter() {
        let d = d_word();
        // Guard: rf.sub(a) > 0 && f.notEmpty. Body: n63 := rf.sub(a) + 1;
        // a := a + 1 (in place once lifted).
        let sub_a = Expr::Call(Target::Prim(RF, PrimMethod::Sub), vec![rd(A)]);
        let rule = RuleDef {
            name: "mix".into(),
            body: Action::When(
                Box::new(Expr::Bin(
                    BinOp::Ge,
                    Box::new(sub_a.clone()),
                    Box::new(Expr::int(63, 0)),
                )),
                Box::new(Action::Seq(
                    Box::new(wr(
                        N63,
                        Expr::Bin(BinOp::Add, Box::new(sub_a), Box::new(Expr::int(63, 1))),
                    )),
                    Box::new(wr(
                        A,
                        Expr::Bin(BinOp::Add, Box::new(rd(A)), Box::new(Expr::int(32, 1))),
                    )),
                )),
            ),
        };
        let plan = compile_rule(&rule, CompileOpts::default());
        let g = plan.guard.as_ref().expect("guard lifted");
        let setup = |s: &mut Store| {
            s.call_action_at(RF, PrimMethod::Upd, &[Value::int(32, 0), Value::int(63, 4)])
                .unwrap();
        };
        for flat_lowering in [true, false] {
            let native = if flat_lowering {
                compile_plan(&plan, &d)
            } else {
                compile_plan_with(&plan, None)
            };
            // The store of the other kind, and an interpreter twin.
            let mut s_nat = Store::new_like(&d, !flat_lowering);
            setup(&mut s_nat);
            let mut s_ast = s_nat.clone();
            let mut frame = NativeFrame::new();
            let cg = native.guard.as_ref().expect("guard lowers");
            let cb = native.body.as_ref().expect("body lowers");
            assert!(!cg.fits(&s_nat) && !cb.fits(&s_nat));
            assert!(eval_guard_native(&mut frame, &s_nat, cg, &mut Cost::default()).is_err());
            assert!(run_rule_native(&mut frame, &mut s_nat, cb, ShadowPolicy::Partial).is_err());
            assert!(run_rule_inplace_native(&mut frame, &mut s_nat, cb).is_err());
            assert_eq!(s_nat, s_ast, "refused runs leave the store alone");

            let (mut g_nat, mut g_ast) = (Cost::default(), Cost::default());
            let v_nat = native
                .eval_guard(&mut frame, &mut s_nat, g, &mut g_nat)
                .unwrap();
            let v_ast = eval_guard_ro(&mut s_ast, g, &mut g_ast).unwrap();
            assert!(v_nat);
            assert_eq!(
                (v_nat, g_nat),
                (v_ast, g_ast),
                "guard, flat={flat_lowering}"
            );
            let r_nat = native
                .run(&mut frame, &mut s_nat, &plan.body, ShadowPolicy::Partial)
                .unwrap();
            let r_ast = run_rule(&mut s_ast, &plan.body, ShadowPolicy::Partial).unwrap();
            assert_eq!(r_nat, r_ast, "transactional body, flat={flat_lowering}");
            assert_eq!(s_nat, s_ast, "state after body, flat={flat_lowering}");
            let c_nat = native
                .run_inplace(&mut frame, &mut s_nat, &plan.body)
                .unwrap();
            let c_ast = run_rule_inplace(&mut s_ast, &plan.body).unwrap();
            assert_eq!(c_nat, c_ast, "in-place body, flat={flat_lowering}");
            assert_eq!(s_nat, s_ast, "state after in-place, flat={flat_lowering}");

            // On the matching store the same rule runs natively, with
            // the same verdict and costs.
            let mut s_fit = Store::new_like(&d, flat_lowering);
            setup(&mut s_fit);
            let mut c_fit = Cost::default();
            assert!(cg.fits(&s_fit) && cb.fits(&s_fit));
            let v_fit = eval_guard_native(&mut frame, &s_fit, cg, &mut c_fit).unwrap();
            assert_eq!((v_fit, c_fit), (v_ast, g_ast));
            let r_fit = run_rule_native(&mut frame, &mut s_fit, cb, ShadowPolicy::Partial).unwrap();
            assert_eq!(r_fit, r_ast);
        }
    }

    #[test]
    fn double_write_reported_identically() {
        let d = d3();
        let body = Action::Par(
            Box::new(wr(A, Expr::int(32, 1))),
            Box::new(wr(A, Expr::int(32, 2))),
        );
        let cb = compile_action(&body).expect("Par compiles");
        let mut s = Store::new(&d);
        let mut frame = NativeFrame::new();
        let err = run_rule_native(&mut frame, &mut s, &cb, ShadowPolicy::Partial).unwrap_err();
        let mut s2 = Store::new(&d);
        let err2 = run_rule(&mut s2, &body, ShadowPolicy::Partial).unwrap_err();
        assert_eq!(format!("{err}"), format!("{err2}"));
    }

    #[test]
    fn coverage_matches_stack_machine() {
        // localGuard, unelaborated names, and unbound variables fall back
        // to the interpreter — in both compiled backends.
        let lg = Action::LocalGuard(Box::new(Action::NoAction));
        assert!(compile_action(&lg).is_none());
        assert!(crate::xform::compile_action(&lg).is_none());
        let named = Action::Call(Target::Named("x".into(), "enq".into()), vec![]);
        assert!(compile_action(&named).is_none());
        assert!(crate::xform::compile_action(&named).is_none());
        let unbound = Expr::Var("nope".into());
        assert!(compile_expr(&unbound).is_none());
        assert!(crate::xform::compile_expr(&unbound).is_none());
    }

    #[test]
    fn guard_failures_fold_to_false() {
        let d = d3();
        let s = Store::new(&d);
        let mut frame = NativeFrame::new();
        let mut cost = Cost::default();
        // Guard reads f.first on an empty FIFO -> false, not an error.
        let g = Expr::Bin(
            BinOp::Gt,
            Box::new(Expr::Call(Target::Prim(F, PrimMethod::First), vec![])),
            Box::new(Expr::int(32, 0)),
        );
        let cg = compile_expr(&g).unwrap();
        assert!(!eval_guard_native(&mut frame, &s, &cg, &mut cost).unwrap());
        assert_eq!(cost.guard_evals, 1);
        // And cost parity with the interpreter on the failure path.
        let mut s2 = Store::new(&d);
        let mut cost2 = Cost::default();
        assert!(!eval_guard_ro(&mut s2, &g, &mut cost2).unwrap());
        assert_eq!(cost, cost2);
    }

    /// A design exercising the word paths: a complex-pair FIFO, a
    /// regfile, and scalar registers at awkward widths.
    fn d_word() -> Design {
        let pair = Type::Struct(vec![
            ("re".into(), Type::Int(32)),
            ("im".into(), Type::Int(32)),
        ]);
        Design {
            name: "w".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("a"),
                    spec: PrimSpec::Reg {
                        init: Value::int(32, 0),
                    },
                },
                PrimDef {
                    path: Path::new("f"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Vector(2, Box::new(pair)),
                    },
                },
                PrimDef {
                    path: Path::new("rf"),
                    spec: PrimSpec::RegFile {
                        size: 4,
                        ty: Type::Int(63),
                        init: vec![],
                    },
                },
                PrimDef {
                    path: Path::new("n63"),
                    spec: PrimSpec::Reg {
                        init: Value::int(63, -5),
                    },
                },
                PrimDef {
                    path: Path::new("b64"),
                    spec: PrimSpec::Reg {
                        init: Value::bits(64, u64::MAX - 2),
                    },
                },
            ],
            ..Default::default()
        }
    }

    const RF: PrimId = PrimId(2);
    const N63: PrimId = PrimId(3);
    const B64: PrimId = PrimId(4);
    const FV: PrimId = PrimId(1);

    fn mkpair(re: i64, im: i64) -> Expr {
        Expr::MkStruct(vec![
            ("re".into(), Expr::int(32, re)),
            ("im".into(), Expr::int(32, im)),
        ])
    }

    #[test]
    fn word_path_aggregate_fifo_chain() {
        let d = d_word();
        // Let x = f.first(); a := x[1].im; f.deq(); f.enq([{1,2},{3,4}])
        let body = Action::Let(
            "x".into(),
            Box::new(Expr::Call(Target::Prim(FV, PrimMethod::First), vec![])),
            Box::new(Action::Seq(
                Box::new(wr(
                    A,
                    Expr::Field(
                        Box::new(Expr::Index(
                            Box::new(Expr::Var("x".into())),
                            Box::new(Expr::int(32, 1)),
                        )),
                        "im".into(),
                    ),
                )),
                Box::new(Action::Seq(
                    Box::new(Action::Call(Target::Prim(FV, PrimMethod::Deq), vec![])),
                    Box::new(Action::Call(
                        Target::Prim(FV, PrimMethod::Enq),
                        vec![Expr::MkVec(vec![mkpair(1, 2), mkpair(3, 4)])],
                    )),
                )),
            )),
        );
        let rule = RuleDef {
            name: "agg".into(),
            body,
        };
        let payload = Value::Vec(vec![
            Value::Struct(vec![
                ("re".into(), Value::int(32, 7)),
                ("im".into(), Value::int(32, -9)),
            ]),
            Value::Struct(vec![
                ("re".into(), Value::int(32, 11)),
                ("im".into(), Value::int(32, 13)),
            ]),
        ]);
        // Empty FIFO: guard-fails identically everywhere.
        assert_native_parity(&rule, &d, |_| {});
        let p = payload.clone();
        assert_native_parity(&rule, &d, move |s| {
            s.call_action_at(FV, PrimMethod::Enq, std::slice::from_ref(&p))
                .unwrap();
        });
    }

    #[test]
    fn word_path_regfile_and_widths() {
        let d = d_word();
        // rf.upd(a, n63 + 1); n63 := rf.sub(a) - 7; b64 := ~b64; a := a + 1
        let body = Action::Seq(
            Box::new(Action::Call(
                Target::Prim(RF, PrimMethod::Upd),
                vec![
                    rd(A),
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Call(Target::Prim(N63, PrimMethod::RegRead), vec![])),
                        Box::new(Expr::int(63, 1)),
                    ),
                ],
            )),
            Box::new(Action::Seq(
                Box::new(wr(
                    N63,
                    Expr::Bin(
                        BinOp::Sub,
                        Box::new(Expr::Call(Target::Prim(RF, PrimMethod::Sub), vec![rd(A)])),
                        Box::new(Expr::int(63, 7)),
                    ),
                )),
                Box::new(Action::Seq(
                    Box::new(wr(
                        B64,
                        Expr::Un(
                            UnOp::Inv,
                            Box::new(Expr::Call(Target::Prim(B64, PrimMethod::RegRead), vec![])),
                        ),
                    )),
                    Box::new(wr(
                        A,
                        Expr::Bin(BinOp::Add, Box::new(rd(A)), Box::new(Expr::int(32, 1))),
                    )),
                )),
            )),
        );
        let rule = RuleDef {
            name: "rfw".into(),
            body,
        };
        assert_native_parity(&rule, &d, |_| {});
        assert_native_parity(&rule, &d, |s| {
            s.call_action_at(A, PrimMethod::RegWrite, &[Value::int(32, 3)])
                .unwrap();
        });
    }

    #[test]
    fn word_path_regfile_error_parity() {
        let d = d_word();
        // Out-of-range dynamic upd: error text must match the
        // interpreter's, on both backends.
        let body = Action::Call(
            Target::Prim(RF, PrimMethod::Upd),
            vec![Expr::int(32, 9), Expr::int(63, 1)],
        );
        let cb = lower_body(&body, Some(&prim_infos(&d))).expect("compiles");
        let mut frame = NativeFrame::new();
        let mut s_flat = Store::new_flat(&d);
        let err_flat =
            run_rule_native(&mut frame, &mut s_flat, &cb, ShadowPolicy::Partial).unwrap_err();
        let mut s_tree = Store::new(&d);
        let err_tree = run_rule(&mut s_tree, &body, ShadowPolicy::Partial).unwrap_err();
        assert_eq!(format!("{err_flat}"), format!("{err_tree}"));
        // Negative dynamic index, same contract.
        let neg = Action::Call(
            Target::Prim(RF, PrimMethod::Upd),
            vec![Expr::int(32, -1), Expr::int(63, 1)],
        );
        let cb = lower_body(&neg, Some(&prim_infos(&d))).expect("compiles");
        let err_flat =
            run_rule_native(&mut frame, &mut s_flat, &cb, ShadowPolicy::Partial).unwrap_err();
        let err_tree = run_rule(&mut s_tree, &neg, ShadowPolicy::Partial).unwrap_err();
        assert_eq!(format!("{err_flat}"), format!("{err_tree}"));
    }

    #[test]
    fn word_guards_never_materialize() {
        let d = d_word();
        // A typical guard: f.notEmpty && (a > 0). Must lower to a bare
        // word thunk on the flat path.
        let g = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Call(Target::Prim(FV, PrimMethod::NotEmpty), vec![])),
            Box::new(Expr::Bin(
                BinOp::Gt,
                Box::new(rd(A)),
                Box::new(Expr::int(32, 0)),
            )),
        );
        let cg = lower_guard(&g, Some(&prim_infos(&d))).expect("compiles");
        assert!(
            matches!(cg.eval, GuardEval::Word(_)),
            "guard should lower to the bare-word form"
        );
        // And it evaluates with interpreter-identical cost and verdict.
        let s = Store::new_flat(&d);
        let mut frame = NativeFrame::new();
        let mut c_nat = Cost::default();
        let v_nat = eval_guard_native(&mut frame, &s, &cg, &mut c_nat).unwrap();
        let mut s2 = Store::new_flat(&d);
        let mut c_ast = Cost::default();
        let v_ast = eval_guard_ro(&mut s2, &g, &mut c_ast).unwrap();
        assert_eq!(v_nat, v_ast);
        assert_eq!(c_nat, c_ast);
    }
}
