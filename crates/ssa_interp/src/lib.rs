//! # `ssa_interp` — a reference interpreter for [`ssa_ir`]
//!
//! The interpreter serves two purposes in the reproduction of *Effective
//! Function Merging in the SSA Form* (PLDI 2020):
//!
//! 1. **Differential testing.** A merged function must behave exactly like the
//!    first input function when called with `fid = false` (plus the original
//!    arguments) and exactly like the second with `fid = true`. The test
//!    suites execute both and compare return values *and* the trace of
//!    external calls.
//! 2. **Runtime-overhead measurement (Figure 25).** Dynamic instruction counts
//!    over the same inputs stand in for wall-clock runtime on the paper's
//!    testbed.
//!
//! External (declared-only) functions are modelled as deterministic pure
//! functions of their name and arguments, so any two executions that perform
//! the same external call sequence observe the same values.

use ssa_ir::{
    BinOp, CastKind, Constant, Function, ICmpPred, InstId, InstKind, Module, Type, Value,
};
use std::collections::HashMap;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IValue {
    /// An integer of a given bit width.
    Int { bits: u16, value: i64 },
    /// A 64-bit float.
    Float(f64),
    /// A pointer into the interpreter's memory (slot index).
    Ptr(usize),
    /// The undefined value; using it in arithmetic yields zero, matching the
    /// "never actually used" guarantee SalSSA relies on.
    Undef,
}

impl IValue {
    /// Boolean runtime value.
    pub fn bool(v: bool) -> IValue {
        IValue::Int {
            bits: 1,
            value: i64::from(v),
        }
    }

    /// 32-bit integer runtime value.
    pub fn i32(v: i32) -> IValue {
        IValue::Int {
            bits: 32,
            value: i64::from(v),
        }
    }

    /// 64-bit integer runtime value.
    pub fn i64(v: i64) -> IValue {
        IValue::Int { bits: 64, value: v }
    }

    /// Interprets the value as an integer (undef reads as 0).
    pub fn as_int(self) -> i64 {
        match self {
            IValue::Int { value, .. } => value,
            IValue::Ptr(p) => p as i64,
            IValue::Float(f) => f as i64,
            IValue::Undef => 0,
        }
    }

    /// Interprets the value as a boolean.
    pub fn as_bool(self) -> bool {
        self.as_int() != 0
    }
}

impl fmt::Display for IValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IValue::Int { value, .. } => write!(f, "{value}"),
            IValue::Float(v) => write!(f, "{v}"),
            IValue::Ptr(p) => write!(f, "ptr#{p}"),
            IValue::Undef => write!(f, "undef"),
        }
    }
}

/// One recorded call to an external (declared-only) function.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalCall {
    /// Callee name.
    pub name: String,
    /// Argument values at the call.
    pub args: Vec<i64>,
    /// The value the model returned.
    pub result: i64,
}

/// Errors that abort interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The dynamic instruction budget was exhausted (probable infinite loop).
    StepLimit,
    /// Call stack exceeded the recursion limit.
    RecursionLimit,
    /// An `unreachable` instruction was executed.
    Unreachable,
    /// A memory access was out of bounds or through a bad pointer.
    BadPointer,
    /// The named function was not found in the module.
    UnknownFunction(String),
    /// A block ended without a terminator.
    MissingTerminator,
    /// Division or remainder by zero.
    DivisionByZero,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit => write!(f, "dynamic instruction budget exhausted"),
            InterpError::RecursionLimit => write!(f, "recursion limit exceeded"),
            InterpError::Unreachable => write!(f, "executed unreachable"),
            InterpError::BadPointer => write!(f, "bad pointer dereference"),
            InterpError::UnknownFunction(n) => write!(f, "unknown function @{n}"),
            InterpError::MissingTerminator => write!(f, "block without terminator"),
            InterpError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The result of executing a function.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Returned value (`None` for void functions).
    pub ret: Option<IValue>,
    /// Dynamic instruction count (including callees).
    pub steps: u64,
    /// Trace of calls to external functions, in execution order.
    pub external_calls: Vec<ExternalCall>,
}

/// Interpreter over one module.
#[derive(Debug)]
pub struct Interpreter<'m> {
    module: &'m Module,
    /// Maximum dynamic instructions before aborting.
    pub step_limit: u64,
    /// Maximum call depth.
    pub recursion_limit: usize,
    memory: Vec<IValue>,
    steps: u64,
    external_calls: Vec<ExternalCall>,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter for `module` with default limits.
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Interpreter {
            module,
            step_limit: 1_000_000,
            recursion_limit: 64,
            memory: Vec::new(),
            steps: 0,
            external_calls: Vec::new(),
        }
    }

    /// Runs the named function with integer arguments, returning the outcome.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] when execution aborts (step limit, bad
    /// memory access, unknown callee, ...).
    pub fn run(&mut self, name: &str, args: &[i64]) -> Result<ExecOutcome, InterpError> {
        self.memory.clear();
        self.steps = 0;
        self.external_calls.clear();
        let function = self
            .module
            .function(name)
            .ok_or_else(|| InterpError::UnknownFunction(name.to_string()))?;
        let arg_values: Vec<IValue> = function
            .params
            .iter()
            .zip(args.iter().copied().chain(std::iter::repeat(0)))
            .map(|(ty, v)| match ty {
                Type::Float => IValue::Float(v as f64),
                Type::Ptr => IValue::Ptr(self.alloc_external(v)),
                Type::Int(bits) => IValue::Int {
                    bits: *bits,
                    value: truncate(*bits, v),
                },
                Type::Void => IValue::Undef,
            })
            .collect();
        let ret = self.call_function(function, &arg_values, 0)?;
        Ok(ExecOutcome {
            ret,
            steps: self.steps,
            external_calls: std::mem::take(&mut self.external_calls),
        })
    }

    fn alloc_external(&mut self, seed: i64) -> usize {
        // Give pointer arguments a small backing buffer with deterministic
        // contents derived from the seed.
        let base = self.memory.len();
        for i in 0..16 {
            self.memory.push(IValue::i64(mix(seed, i)));
        }
        base
    }

    fn call_function(
        &mut self,
        function: &Function,
        args: &[IValue],
        depth: usize,
    ) -> Result<Option<IValue>, InterpError> {
        if depth > self.recursion_limit {
            return Err(InterpError::RecursionLimit);
        }
        let mut regs: HashMap<InstId, IValue> = HashMap::new();
        let mut block = function.entry();
        let mut prev_block = None;
        loop {
            // Phis first, evaluated simultaneously from the edge taken.
            let phis = function.block(block).phis.clone();
            let mut phi_values = Vec::with_capacity(phis.len());
            for &phi in &phis {
                self.tick()?;
                let InstKind::Phi { incomings } = &function.inst(phi).kind else {
                    continue;
                };
                let incoming = prev_block
                    .and_then(|p| incomings.iter().find(|(_, b)| *b == p))
                    .map(|(v, _)| self.value(&regs, args, *v))
                    .unwrap_or(IValue::Undef);
                phi_values.push((phi, incoming));
            }
            for (phi, v) in phi_values {
                regs.insert(phi, v);
            }

            // Block body.
            for &inst in &function.block(block).insts {
                self.tick()?;
                let result = self.exec_inst(function, &mut regs, args, inst, depth)?;
                if let Some(v) = result {
                    regs.insert(inst, v);
                }
            }

            // Terminator.
            let term = function
                .block(block)
                .term
                .ok_or(InterpError::MissingTerminator)?;
            self.tick()?;
            match function.inst(term).kind.clone() {
                InstKind::Br { dest } => {
                    prev_block = Some(block);
                    block = dest;
                }
                InstKind::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let c = self.value(&regs, args, cond).as_bool();
                    prev_block = Some(block);
                    block = if c { if_true } else { if_false };
                }
                InstKind::Switch {
                    value,
                    default,
                    cases,
                } => {
                    let v = self.value(&regs, args, value).as_int();
                    prev_block = Some(block);
                    block = cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(default);
                }
                InstKind::Ret { value } => {
                    return Ok(value.map(|v| self.value(&regs, args, v)));
                }
                InstKind::Invoke {
                    callee,
                    args: call_args,
                    normal,
                    ..
                } => {
                    let argv: Vec<IValue> = call_args
                        .iter()
                        .map(|a| self.value(&regs, args, *a))
                        .collect();
                    // The model never throws, so invokes always continue to the
                    // normal destination.
                    let result = self.dispatch_call(&callee, &argv, depth)?;
                    if let Some(v) = result {
                        regs.insert(term, v);
                    }
                    prev_block = Some(block);
                    block = normal;
                }
                InstKind::Resume { .. } => return Ok(None),
                InstKind::Unreachable => return Err(InterpError::Unreachable),
                _ => return Err(InterpError::MissingTerminator),
            }
        }
    }

    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(InterpError::StepLimit)
        } else {
            Ok(())
        }
    }

    fn value(&self, regs: &HashMap<InstId, IValue>, args: &[IValue], value: Value) -> IValue {
        match value {
            Value::Inst(id) => regs.get(&id).copied().unwrap_or(IValue::Undef),
            Value::Arg(i) => args.get(i as usize).copied().unwrap_or(IValue::Undef),
            Value::Const(Constant::Int { bits, value }) => IValue::Int { bits, value },
            Value::Const(Constant::Float(bits)) => IValue::Float(f64::from_bits(bits)),
            Value::Const(Constant::Undef(_)) => IValue::Undef,
            Value::Const(Constant::Null) => IValue::Ptr(usize::MAX),
        }
    }

    fn exec_inst(
        &mut self,
        function: &Function,
        regs: &mut HashMap<InstId, IValue>,
        args: &[IValue],
        inst: InstId,
        depth: usize,
    ) -> Result<Option<IValue>, InterpError> {
        let data = function.inst(inst);
        let kind = data.kind.clone();
        let ty = data.ty;
        Ok(match kind {
            InstKind::Binary { op, lhs, rhs } => {
                let l = self.value(regs, args, lhs);
                let r = self.value(regs, args, rhs);
                Some(self.binary(op, l, r, ty)?)
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let l = self.value(regs, args, lhs).as_int();
                let r = self.value(regs, args, rhs).as_int();
                Some(IValue::bool(icmp(pred, l, r)))
            }
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.value(regs, args, cond).as_bool();
                Some(if c {
                    self.value(regs, args, if_true)
                } else {
                    self.value(regs, args, if_false)
                })
            }
            InstKind::Call {
                callee,
                args: call_args,
            } => {
                let argv: Vec<IValue> = call_args
                    .iter()
                    .map(|a| self.value(regs, args, *a))
                    .collect();
                self.dispatch_call(&callee, &argv, depth)?
            }
            InstKind::LandingPad => Some(IValue::Ptr(usize::MAX)),
            InstKind::Alloca { .. } => {
                self.memory.push(IValue::Undef);
                Some(IValue::Ptr(self.memory.len() - 1))
            }
            InstKind::Load { ptr } => {
                let p = match self.value(regs, args, ptr) {
                    IValue::Ptr(p) => p,
                    other => other.as_int() as usize,
                };
                Some(*self.memory.get(p).ok_or(InterpError::BadPointer)?)
            }
            InstKind::Store { value, ptr } => {
                let p = match self.value(regs, args, ptr) {
                    IValue::Ptr(p) => p,
                    other => other.as_int() as usize,
                };
                let val = self.value(regs, args, value);
                *self.memory.get_mut(p).ok_or(InterpError::BadPointer)? = val;
                None
            }
            InstKind::Gep {
                base,
                index,
                stride,
            } => {
                let b = match self.value(regs, args, base) {
                    IValue::Ptr(p) => p,
                    other => other.as_int() as usize,
                };
                let idx = self.value(regs, args, index).as_int();
                // Model GEP at slot granularity: one slot per `stride` bytes.
                let _ = stride;
                let addr = (b as i64 + idx).max(0) as usize;
                Some(IValue::Ptr(addr))
            }
            InstKind::Cast { kind, value } => {
                let v = self.value(regs, args, value);
                Some(self.cast(kind, v, ty))
            }
            InstKind::Phi { .. } => Some(IValue::Undef),
            other if other.is_terminator() => None,
            _ => None,
        })
    }

    fn dispatch_call(
        &mut self,
        callee: &str,
        args: &[IValue],
        depth: usize,
    ) -> Result<Option<IValue>, InterpError> {
        if let Some(function) = self.module.function(callee) {
            return self.call_function(function, args, depth + 1);
        }
        // External model: a deterministic pure hash of name and arguments.
        let arg_ints: Vec<i64> = args.iter().map(|a| a.as_int()).collect();
        let mut h: i64 = 0x7F4A_7C15;
        for b in callee.bytes() {
            h = mix(h, i64::from(b));
        }
        for &a in &arg_ints {
            h = mix(h, a);
        }
        // Keep the result in a friendly range so later arithmetic stays tame.
        let result = (h & 0xFFFF).abs();
        self.external_calls.push(ExternalCall {
            name: callee.to_string(),
            args: arg_ints,
            result,
        });
        Ok(Some(IValue::Int {
            bits: 64,
            value: result,
        }))
    }

    fn binary(&self, op: BinOp, lhs: IValue, rhs: IValue, ty: Type) -> Result<IValue, InterpError> {
        if op.is_float() {
            let l = match lhs {
                IValue::Float(f) => f,
                other => other.as_int() as f64,
            };
            let r = match rhs {
                IValue::Float(f) => f,
                other => other.as_int() as f64,
            };
            let v = match op {
                BinOp::FAdd => l + r,
                BinOp::FSub => l - r,
                BinOp::FMul => l * r,
                BinOp::FDiv => l / r,
                _ => unreachable!(),
            };
            return Ok(IValue::Float(v));
        }
        let bits = if ty.is_int() { ty.bits() } else { 64 };
        let l = lhs.as_int();
        let r = rhs.as_int();
        let value = match op {
            BinOp::Add => l.wrapping_add(r),
            BinOp::Sub => l.wrapping_sub(r),
            BinOp::Mul => l.wrapping_mul(r),
            BinOp::SDiv => {
                if r == 0 {
                    return Err(InterpError::DivisionByZero);
                }
                l.wrapping_div(r)
            }
            BinOp::UDiv => {
                if r == 0 {
                    return Err(InterpError::DivisionByZero);
                }
                ((l as u64) / (r as u64)) as i64
            }
            BinOp::SRem => {
                if r == 0 {
                    return Err(InterpError::DivisionByZero);
                }
                l.wrapping_rem(r)
            }
            BinOp::URem => {
                if r == 0 {
                    return Err(InterpError::DivisionByZero);
                }
                ((l as u64) % (r as u64)) as i64
            }
            BinOp::And => l & r,
            BinOp::Or => l | r,
            BinOp::Xor => l ^ r,
            BinOp::Shl => l.wrapping_shl(r as u32 & 63),
            BinOp::LShr => ((l as u64).wrapping_shr(r as u32 & 63)) as i64,
            BinOp::AShr => l.wrapping_shr(r as u32 & 63),
            _ => unreachable!(),
        };
        Ok(IValue::Int {
            bits,
            value: truncate(bits, value),
        })
    }

    fn cast(&self, kind: CastKind, value: IValue, to_ty: Type) -> IValue {
        match kind {
            CastKind::SIToFP => IValue::Float(value.as_int() as f64),
            CastKind::FPToSI => IValue::i64(match value {
                IValue::Float(f) => f as i64,
                other => other.as_int(),
            }),
            CastKind::IntToPtr => IValue::Ptr(value.as_int() as usize),
            CastKind::Trunc
            | CastKind::ZExt
            | CastKind::SExt
            | CastKind::Bitcast
            | CastKind::PtrToInt => {
                let bits = if to_ty.is_int() { to_ty.bits() } else { 64 };
                IValue::Int {
                    bits,
                    value: truncate(bits, value.as_int()),
                }
            }
        }
    }
}

fn icmp(pred: ICmpPred, l: i64, r: i64) -> bool {
    let (lu, ru) = (l as u64, r as u64);
    match pred {
        ICmpPred::Eq => l == r,
        ICmpPred::Ne => l != r,
        ICmpPred::Slt => l < r,
        ICmpPred::Sle => l <= r,
        ICmpPred::Sgt => l > r,
        ICmpPred::Sge => l >= r,
        ICmpPred::Ult => lu < ru,
        ICmpPred::Ule => lu <= ru,
        ICmpPred::Ugt => lu > ru,
        ICmpPred::Uge => lu >= ru,
    }
}

fn truncate(bits: u16, value: i64) -> i64 {
    if bits >= 64 {
        value
    } else {
        let m = (1i64 << bits) - 1;
        let v = value & m;
        let sign = 1i64 << (bits - 1);
        if bits > 1 && (v & sign) != 0 {
            v | !m
        } else {
            v
        }
    }
}

fn mix(a: i64, b: i64) -> i64 {
    let mut x = (a ^ b).wrapping_mul(0x10000_0001B3);
    x ^= x >> 33;
    x.wrapping_mul(0x51AF_D7ED_558C_CD1F_u64 as i64)
}

/// Runs `function_name` in `module` and returns the outcome; convenience used
/// by tests and benches.
///
/// # Errors
///
/// Propagates any [`InterpError`] from the run.
pub fn run_function(
    module: &Module,
    function_name: &str,
    args: &[i64],
) -> Result<ExecOutcome, InterpError> {
    Interpreter::new(module).run(function_name, args)
}

/// Checks that two functions in (possibly different) modules behave
/// identically on the given inputs: same return value and same external call
/// trace.
///
/// # Errors
///
/// Returns a description of the first divergence (or of an interpreter error).
pub fn check_equivalent(
    module_a: &Module,
    name_a: &str,
    args_a: &[i64],
    module_b: &Module,
    name_b: &str,
    args_b: &[i64],
) -> Result<(), String> {
    let ra = run_function(module_a, name_a, args_a);
    let rb = run_function(module_b, name_b, args_b);
    compare_outcomes(name_a, ra, name_b, rb)
}

/// Why a fuel-limited oracle run failed to validate a merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleFailure {
    /// The two executions observably diverged.
    Mismatch(String),
    /// An execution exhausted the fuel budget before a verdict was reached;
    /// the caller should refuse the commit conservatively.
    Timeout,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFailure::Mismatch(m) => write!(f, "{m}"),
            OracleFailure::Timeout => {
                write!(f, "differential oracle exhausted its fuel budget")
            }
        }
    }
}

fn run_with_fuel(
    module: &Module,
    function_name: &str,
    args: &[i64],
    fuel: Option<u64>,
) -> Result<ExecOutcome, InterpError> {
    let mut interp = Interpreter::new(module);
    if let Some(fuel) = fuel {
        interp.step_limit = fuel;
    }
    interp.run(function_name, args)
}

/// [`check_equivalent`] under a step budget: `fuel`, or the interpreter's
/// default [`Interpreter::step_limit`] when `None`. Hitting the budget on
/// either side is an [`OracleFailure::Timeout`] — no verdict, neither a pass
/// nor a mismatch.
pub fn check_equivalent_with_fuel(
    module_a: &Module,
    name_a: &str,
    args_a: &[i64],
    module_b: &Module,
    name_b: &str,
    args_b: &[i64],
    fuel: Option<u64>,
) -> Result<(), OracleFailure> {
    let ra = run_with_fuel(module_a, name_a, args_a, fuel);
    let rb = run_with_fuel(module_b, name_b, args_b, fuel);
    if matches!(ra, Err(InterpError::StepLimit)) || matches!(rb, Err(InterpError::StepLimit)) {
        return Err(OracleFailure::Timeout);
    }
    compare_outcomes(name_a, ra, name_b, rb).map_err(OracleFailure::Mismatch)
}

fn compare_outcomes(
    name_a: &str,
    ra: Result<ExecOutcome, InterpError>,
    name_b: &str,
    rb: Result<ExecOutcome, InterpError>,
) -> Result<(), String> {
    // Two executions that fail in the same way (e.g. both exhaust the step
    // budget because the source program does not terminate under the external
    // model) are considered equivalent.
    if let (Err(ea), Err(eb)) = (&ra, &rb) {
        return if ea == eb {
            Ok(())
        } else {
            Err(format!("executions fail differently: {ea} vs {eb}"))
        };
    }
    let a = ra.map_err(|e| format!("{name_a}: {e}"))?;
    let b = rb.map_err(|e| format!("{name_b}: {e}"))?;
    let ra = a.ret.map(|v| v.as_int());
    let rb = b.ret.map(|v| v.as_int());
    if ra != rb {
        return Err(format!("return values differ: {ra:?} vs {rb:?}"));
    }
    if a.external_calls != b.external_calls {
        return Err(format!(
            "external call traces differ:\n  {:?}\nvs\n  {:?}",
            a.external_calls, b.external_calls
        ));
    }
    Ok(())
}

/// Differentially tests that `name` behaves identically in `before` and
/// `after` on deterministically sampled random inputs (plus the all-zeros and
/// all-ones edge vectors). This is the semantic oracle the merge drivers run,
/// opt-in, on every committed merge: the merged-and-thunked module must be
/// observationally equivalent to the original.
///
/// Sampling is a pure function of `(name, seed, sample index)`, so a reported
/// mismatch reproduces exactly.
///
/// # Errors
///
/// Returns the first divergence found, prefixed with the offending argument
/// vector; or an error when `name` is not defined in `before`.
pub fn differential_check(
    before: &Module,
    after: &Module,
    name: &str,
    samples: usize,
    seed: u64,
) -> Result<(), String> {
    differential_check_with_fuel(before, after, name, samples, seed, None)
        .map_err(|failure| failure.to_string())
}

/// [`differential_check`] under a per-execution step budget: any sampled run
/// that exhausts `fuel` steps (the interpreter's default limit when `None`)
/// yields [`OracleFailure::Timeout`] instead of a verdict, bounding
/// worst-case oracle latency per candidate. `fuel: None` is what
/// [`differential_check`] runs.
///
/// # Errors
///
/// Returns the first divergence or timeout found; or a mismatch when `name`
/// is not defined in `before`.
pub fn differential_check_with_fuel(
    before: &Module,
    after: &Module,
    name: &str,
    samples: usize,
    seed: u64,
    fuel: Option<u64>,
) -> Result<(), OracleFailure> {
    let function = before.function(name).ok_or_else(|| {
        OracleFailure::Mismatch(format!("@{name} is not defined in the original module"))
    })?;
    let num_args = function.params.len();
    let mut state = seed;
    for b in name.bytes() {
        state = state.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
    }
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut vectors: Vec<Vec<i64>> = vec![vec![0; num_args], vec![1; num_args]];
    for _ in 0..samples {
        // Small magnitudes keep comparisons and loop bounds on interesting
        // paths instead of saturating everything.
        vectors.push((0..num_args).map(|_| (next() % 257) as i64 - 128).collect());
    }
    for args in &vectors {
        check_equivalent_with_fuel(before, name, args, after, name, args, fuel).map_err(
            |failure| match failure {
                OracleFailure::Mismatch(e) => {
                    OracleFailure::Mismatch(format!("args {args:?}: {e}"))
                }
                OracleFailure::Timeout => OracleFailure::Timeout,
            },
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_module;

    fn module(text: &str) -> Module {
        parse_module(text).unwrap()
    }

    #[test]
    fn straight_line_arithmetic() {
        let m = module("define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 5\n  %b = mul i32 %a, 2\n  ret i32 %b\n}");
        let out = run_function(&m, "f", &[10]).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 30);
        assert!(out.steps >= 3);
    }

    #[test]
    fn branches_and_phis() {
        let m = module(
            r#"
define i32 @abs(i32 %x) {
entry:
  %neg = icmp slt i32 %x, 0
  br i1 %neg, label %n, label %p
n:
  %m = sub i32 0, %x
  br label %join
p:
  br label %join
join:
  %r = phi i32 [ %m, %n ], [ %x, %p ]
  ret i32 %r
}
"#,
        );
        assert_eq!(
            run_function(&m, "abs", &[-7])
                .unwrap()
                .ret
                .unwrap()
                .as_int(),
            7
        );
        assert_eq!(
            run_function(&m, "abs", &[9]).unwrap().ret.unwrap().as_int(),
            9
        );
    }

    #[test]
    fn loops_terminate_and_count_steps() {
        let m = module(
            r#"
define i32 @sum(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#,
        );
        let out = run_function(&m, "sum", &[10]).unwrap();
        assert_eq!(out.ret.unwrap().as_int(), 45);
        let shorter = run_function(&m, "sum", &[3]).unwrap();
        assert!(shorter.steps < out.steps);
    }

    #[test]
    fn memory_operations() {
        let m = module(
            r#"
define i32 @mem(i32 %x) {
entry:
  %slot = alloca i32
  store i32 %x, ptr %slot
  %v = load i32, ptr %slot
  %r = add i32 %v, 1
  ret i32 %r
}
"#,
        );
        assert_eq!(
            run_function(&m, "mem", &[41])
                .unwrap()
                .ret
                .unwrap()
                .as_int(),
            42
        );
    }

    #[test]
    fn external_calls_are_deterministic_and_traced() {
        let m = module(
            "define i64 @f(i64 %x) {\nentry:\n  %a = call i64 @ext(i64 %x)\n  %b = call i64 @ext(i64 %x)\n  %s = add i64 %a, %b\n  ret i64 %s\n}",
        );
        let o1 = run_function(&m, "f", &[3]).unwrap();
        let o2 = run_function(&m, "f", &[3]).unwrap();
        assert_eq!(o1.ret, o2.ret);
        assert_eq!(o1.external_calls.len(), 2);
        assert_eq!(o1.external_calls, o2.external_calls);
        assert_eq!(o1.external_calls[0].result, o1.external_calls[1].result);
        let o3 = run_function(&m, "f", &[4]).unwrap();
        assert_ne!(o1.ret, o3.ret);
    }

    #[test]
    fn internal_calls_are_executed() {
        let m = module(
            r#"
define i32 @callee(i32 %x) {
entry:
  %r = mul i32 %x, 3
  ret i32 %r
}

define i32 @caller(i32 %x) {
entry:
  %r = call i32 @callee(i32 %x)
  %s = add i32 %r, 1
  ret i32 %s
}
"#,
        );
        assert_eq!(
            run_function(&m, "caller", &[5])
                .unwrap()
                .ret
                .unwrap()
                .as_int(),
            16
        );
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let m = module(
            "define void @spin() {\nentry:\n  br label %again\nagain:\n  br label %again\n}",
        );
        let mut interp = Interpreter::new(&m);
        interp.step_limit = 1000;
        assert_eq!(interp.run("spin", &[]).unwrap_err(), InterpError::StepLimit);
    }

    #[test]
    fn fuel_budget_times_out_instead_of_passing() {
        // Both sides loop forever: under the default limit and under an
        // explicit fuel budget alike it is a timeout, not a verdict.
        let text =
            "define i32 @f(i32 %x) {\nentry:\n  br label %again\nagain:\n  br label %again\n}";
        let m = module(text);
        assert_eq!(
            differential_check_with_fuel(&m, &m, "f", 2, 7, None),
            Err(OracleFailure::Timeout)
        );
        assert_eq!(
            differential_check_with_fuel(&m, &m, "f", 2, 7, Some(64)),
            Err(OracleFailure::Timeout)
        );
        assert_eq!(
            differential_check(&m, &m, "f", 2, 7),
            Err(OracleFailure::Timeout.to_string())
        );
        // A terminating function passes under a generous budget and under
        // the default limit.
        let t = module("define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}");
        assert!(differential_check_with_fuel(&t, &t, "f", 2, 7, Some(1000)).is_ok());
        assert!(differential_check_with_fuel(&t, &t, "f", 2, 7, None).is_ok());
        // One side terminates, the other loops: no verdict either, so the
        // drivers count a timeout rather than a semantic rejection.
        for fuel in [None, Some(64)] {
            assert_eq!(
                differential_check_with_fuel(&t, &m, "f", 2, 7, fuel),
                Err(OracleFailure::Timeout)
            );
        }
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let m = module("define i32 @d(i32 %x) {\nentry:\n  %r = sdiv i32 %x, 0\n  ret i32 %r\n}");
        assert_eq!(
            run_function(&m, "d", &[5]).unwrap_err(),
            InterpError::DivisionByZero
        );
    }

    #[test]
    fn switch_dispatch() {
        let m = module(
            r#"
define i32 @sw(i32 %x) {
entry:
  switch i32 %x, label %other [ 1: label %one, 2: label %two ]
one:
  ret i32 100
two:
  ret i32 200
other:
  ret i32 0
}
"#,
        );
        assert_eq!(
            run_function(&m, "sw", &[1]).unwrap().ret.unwrap().as_int(),
            100
        );
        assert_eq!(
            run_function(&m, "sw", &[2]).unwrap().ret.unwrap().as_int(),
            200
        );
        assert_eq!(
            run_function(&m, "sw", &[7]).unwrap().ret.unwrap().as_int(),
            0
        );
    }

    #[test]
    fn invoke_continues_on_normal_path() {
        let m = module(
            r#"
define i64 @inv(i64 %x) {
entry:
  %r = invoke i64 @may_throw(i64 %x) to label %ok unwind label %pad
pad:
  %lp = landingpad
  resume ptr %lp
ok:
  %s = add i64 %r, 1
  ret i64 %s
}
"#,
        );
        let out = run_function(&m, "inv", &[2]).unwrap();
        assert_eq!(out.external_calls.len(), 1);
        assert_eq!(out.ret.unwrap().as_int(), out.external_calls[0].result + 1);
    }

    #[test]
    fn check_equivalent_detects_divergence() {
        let a = module("define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}");
        let b = module("define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 2\n  ret i32 %r\n}");
        assert!(check_equivalent(&a, "f", &[1], &a, "f", &[1]).is_ok());
        assert!(check_equivalent(&a, "f", &[1], &b, "f", &[1]).is_err());
    }

    #[test]
    fn equivalence_compares_external_traces() {
        let a = module(
            "define void @f(i64 %x) {\nentry:\n  %r = call i64 @sink(i64 %x)\n  ret void\n}",
        );
        let b =
            module("define void @f(i64 %x) {\nentry:\n  %r = call i64 @sink(i64 0)\n  ret void\n}");
        assert!(check_equivalent(&a, "f", &[5], &b, "f", &[5]).is_err());
        assert!(check_equivalent(&a, "f", &[0], &b, "f", &[0]).is_ok());
    }

    #[test]
    fn undef_reads_as_zero() {
        let m = module("define i32 @u() {\nentry:\n  %r = add i32 undef, 5\n  ret i32 %r\n}");
        assert_eq!(run_function(&m, "u", &[]).unwrap().ret.unwrap().as_int(), 5);
    }

    #[test]
    fn narrow_integers_wrap() {
        let m = module("define i8 @w(i8 %x) {\nentry:\n  %r = add i8 %x, 100\n  ret i8 %r\n}");
        assert_eq!(
            run_function(&m, "w", &[100]).unwrap().ret.unwrap().as_int(),
            -56
        );
    }

    #[test]
    fn differential_check_accepts_identical_and_flags_divergence() {
        let a = module("define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}");
        assert!(differential_check(&a, &a, "f", 4, 7).is_ok());
        // Diverges only away from zero/one; the random samples must find it.
        let b = module(
            "define i32 @f(i32 %x) {\nentry:\n  %c = icmp sgt i32 %x, 1\n  %d = select i1 %c, i32 2, i32 1\n  %r = add i32 %x, %d\n  ret i32 %r\n}",
        );
        let err = differential_check(&a, &b, "f", 8, 7).unwrap_err();
        assert!(err.contains("args"), "{err}");
        assert!(differential_check(&a, &b, "missing", 2, 0).is_err());
    }
}
