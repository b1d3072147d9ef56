//! IR verifier: structural well-formedness, type rules, CFG and SSA
//! (dominance) properties.
//!
//! Every merged function produced by the FMSA baseline or by SalSSA is run
//! through this verifier in the test suites; a verifier failure means the
//! merge produced ill-formed code.

use crate::dominators::DomTree;
use crate::function::Function;
use crate::ids::{BlockId, InstId};
use crate::instruction::{BinOp, InstKind};
use crate::module::Module;
use crate::printer::Namer;
use crate::types::Type;
use crate::value::Value;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Stable diagnostic codes assigned to verifier failures. The `analysis`
/// crate re-exports these as part of its documented code table, so the
/// mapping from check to code is append-only: add codes, never renumber.
pub mod codes {
    /// Function has no entry block.
    pub const NO_ENTRY: &str = "E001";
    /// Malformed CFG structure: entry predecessors/phis, missing
    /// terminators, stale instruction or block references, misplaced phis
    /// or terminators.
    pub const CFG: &str = "E002";
    /// Instruction type-rule violation.
    pub const TYPES: &str = "E003";
    /// Instruction operand references a dangling value.
    pub const DANGLING_VALUE: &str = "E004";
    /// Phi incoming edges disagree with the block's predecessors.
    pub const PHI: &str = "E005";
    /// Landing-pad placement rules violated.
    pub const LANDING_PAD: &str = "E006";
    /// SSA dominance violation.
    pub const DOMINANCE: &str = "E007";
}

/// A single verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The function in which the problem was found.
    pub function: String,
    /// The module the function came from; empty when the function was
    /// verified standalone ([`verify_function`] has no module context —
    /// [`verify_module`] fills this in).
    pub module: String,
    /// Stable diagnostic code (see [`codes`]).
    pub code: &'static str,
    /// Description of the problem, including the offending entity.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.module.is_empty() {
            write!(f, "verifier: in @{}: {}", self.function, self.message)
        } else {
            write!(
                f,
                "verifier: in {}: @{}: {}",
                self.module, self.function, self.message
            )
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies an entire module. Returns all problems found, each carrying the
/// module name as provenance.
pub fn verify_module(module: &Module) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for f in module.functions() {
        errors.extend(verify_function(f).into_iter().map(|mut e| {
            e.module = module.name.clone();
            e
        }));
    }
    errors
}

/// Verifies a single function. Returns all problems found (empty = valid).
pub fn verify_function(function: &Function) -> Vec<VerifyError> {
    let mut v = Verifier {
        function,
        namer: OnceCell::new(),
        errors: Vec::new(),
    };
    v.run();
    v.errors
}

/// Convenience wrapper that panics with a readable report when verification
/// fails; used liberally in tests.
///
/// # Panics
///
/// Panics if the function is not well-formed.
pub fn assert_valid(function: &Function) {
    let errors = verify_function(function);
    if !errors.is_empty() {
        let report: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        panic!(
            "function @{} failed verification:\n{}\n\n{}",
            function.name,
            report.join("\n"),
            crate::printer::print_function(function)
        );
    }
}

struct Verifier<'a> {
    function: &'a Function,
    /// Printer names, read only to report an error: built on the first one.
    namer: OnceCell<Namer>,
    errors: Vec<VerifyError>,
}

impl<'a> Verifier<'a> {
    fn namer(&self) -> &Namer {
        self.namer.get_or_init(|| Namer::new(self.function))
    }

    fn error(&mut self, code: &'static str, message: String) {
        self.errors.push(VerifyError {
            function: self.function.name.clone(),
            module: String::new(),
            code,
            message,
        });
    }

    fn run(&mut self) {
        if self.function.try_entry().is_none() {
            self.error(codes::NO_ENTRY, "function has no entry block".into());
            return;
        }
        let preds = self.function.predecessors();
        self.check_blocks(&preds);
        self.check_instructions();
        self.check_phis(&preds);
        self.check_landing_pads();
        self.check_dominance();
    }

    fn check_blocks(&mut self, preds: &HashMap<BlockId, Vec<BlockId>>) {
        let entry = self.function.entry();
        if !preds.get(&entry).map(Vec::is_empty).unwrap_or(true) {
            self.error(codes::CFG, "entry block must not have predecessors".into());
        }
        if !self.function.block(entry).phis.is_empty() {
            self.error(codes::CFG, "entry block must not contain phi-nodes".into());
        }
        for block in self.function.block_ids() {
            let data = self.function.block(block);
            if data.term.is_none() {
                self.error(
                    codes::CFG,
                    format!(
                        "block %{} has no terminator",
                        self.namer().block_name(block)
                    ),
                );
            }
            for inst in data.all_insts() {
                if !self.function.contains_inst(inst) {
                    self.error(
                        codes::CFG,
                        format!(
                            "block %{} references a removed instruction",
                            self.namer().block_name(block)
                        ),
                    );
                    continue;
                }
                if self.function.inst(inst).block != block {
                    self.error(
                        codes::CFG,
                        format!(
                            "instruction %{} parent pointer disagrees with its containing block",
                            self.namer().inst_name(inst)
                        ),
                    );
                }
            }
            for &phi in &data.phis {
                if self.function.contains_inst(phi) && !self.function.inst(phi).kind.is_phi() {
                    self.error(
                        codes::CFG,
                        format!(
                            "non-phi instruction %{} stored in phi list of %{}",
                            self.namer().inst_name(phi),
                            self.namer().block_name(block)
                        ),
                    );
                }
            }
            for &inst in &data.insts {
                if !self.function.contains_inst(inst) {
                    continue;
                }
                let kind = &self.function.inst(inst).kind;
                if kind.is_phi() || kind.is_terminator() {
                    self.error(
                        codes::CFG,
                        format!(
                            "phi or terminator stored in the body of %{}",
                            self.namer().block_name(block)
                        ),
                    );
                }
            }
            if let Some(term) = data.term {
                if self.function.contains_inst(term)
                    && !self.function.inst(term).kind.is_terminator()
                {
                    self.error(
                        codes::CFG,
                        format!(
                            "terminator slot of %{} holds a non-terminator",
                            self.namer().block_name(block)
                        ),
                    );
                }
            }
        }
        // Successor references must point at live blocks.
        for block in self.function.block_ids() {
            for succ in self.function.successors(block) {
                if !self.function.contains_block(succ) {
                    self.error(
                        codes::CFG,
                        format!(
                            "%{} branches to a removed block",
                            self.namer().block_name(block)
                        ),
                    );
                }
            }
        }
    }

    fn check_instructions(&mut self) {
        for block in self.function.block_ids() {
            for inst in self.function.block(block).all_insts() {
                if !self.function.contains_inst(inst) {
                    continue;
                }
                self.check_inst_types(inst);
                self.check_operands_exist(inst);
            }
        }
    }

    fn value_exists(&self, value: Value) -> bool {
        match value {
            Value::Inst(id) => self.function.contains_inst(id),
            Value::Arg(i) => (i as usize) < self.function.params.len(),
            Value::Const(_) => true,
        }
    }

    fn check_operands_exist(&mut self, inst: InstId) {
        let data = self.function.inst(inst);
        let mut bad = Vec::new();
        data.kind.for_each_operand(|v| {
            if !self.value_exists(v) {
                bad.push(v);
            }
        });
        for v in bad {
            self.error(
                codes::DANGLING_VALUE,
                format!(
                    "instruction %{} uses a dangling value {v:?}",
                    self.namer().inst_name(inst)
                ),
            );
        }
    }

    fn check_inst_types(&mut self, inst: InstId) {
        let data = self.function.inst(inst);
        let ty_of = |v: Value| self.function.value_type(v);
        let mut problems: Vec<String> = Vec::new();
        match &data.kind {
            InstKind::Binary { op, lhs, rhs } => {
                if !self.value_exists(*lhs) || !self.value_exists(*rhs) {
                    return;
                }
                let lt = ty_of(*lhs);
                let rt = ty_of(*rhs);
                if lt != rt {
                    problems.push(format!("binary operand types differ ({lt} vs {rt})"));
                }
                if data.ty != lt {
                    problems.push(format!(
                        "binary result type {} differs from operand type {lt}",
                        data.ty
                    ));
                }
                let float_op = op.is_float();
                if float_op && !lt.is_float() {
                    problems.push(format!("float operator {op} applied to {lt}"));
                }
                if !float_op && !lt.is_int() {
                    problems.push(format!("integer operator {op} applied to {lt}"));
                }
            }
            InstKind::ICmp { lhs, rhs, .. } => {
                if self.value_exists(*lhs) && self.value_exists(*rhs) {
                    let lt = ty_of(*lhs);
                    let rt = ty_of(*rhs);
                    if lt != rt {
                        problems.push(format!("icmp operand types differ ({lt} vs {rt})"));
                    }
                    if !(lt.is_int() || lt.is_ptr()) {
                        problems.push(format!("icmp applied to {lt}"));
                    }
                }
                if data.ty != Type::I1 {
                    problems.push("icmp must produce i1".into());
                }
            }
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                if self.value_exists(*cond) && ty_of(*cond) != Type::I1 {
                    problems.push("select condition must be i1".into());
                }
                if self.value_exists(*if_true)
                    && self.value_exists(*if_false)
                    && ty_of(*if_true) != ty_of(*if_false)
                {
                    problems.push("select arms have different types".into());
                }
                if self.value_exists(*if_true) && data.ty != ty_of(*if_true) {
                    problems.push("select result type differs from its arms".into());
                }
            }
            InstKind::Load { ptr } => {
                if self.value_exists(*ptr) && !ty_of(*ptr).is_ptr() {
                    problems.push("load pointer operand is not a pointer".into());
                }
                if !data.ty.is_first_class() {
                    problems.push("load must produce a value".into());
                }
            }
            InstKind::Store { ptr, .. } => {
                if self.value_exists(*ptr) && !ty_of(*ptr).is_ptr() {
                    problems.push("store pointer operand is not a pointer".into());
                }
                if data.ty != Type::Void {
                    problems.push("store produces no value".into());
                }
            }
            InstKind::Gep { base, index, .. } => {
                if self.value_exists(*base) && !ty_of(*base).is_ptr() {
                    problems.push("gep base must be a pointer".into());
                }
                if self.value_exists(*index) && !ty_of(*index).is_int() {
                    problems.push("gep index must be an integer".into());
                }
            }
            InstKind::Alloca { .. } if data.ty != Type::Ptr => {
                problems.push("alloca must produce a pointer".into());
            }
            InstKind::CondBr { cond, .. }
                if self.value_exists(*cond) && ty_of(*cond) != Type::I1 =>
            {
                problems.push("conditional branch condition must be i1".into());
            }
            InstKind::Switch { value, .. }
                if self.value_exists(*value) && !ty_of(*value).is_int() =>
            {
                problems.push("switch value must be an integer".into());
            }
            InstKind::Ret { value } => match value {
                Some(v) => {
                    if self.function.ret_ty == Type::Void {
                        problems.push("void function returns a value".into());
                    } else if self.value_exists(*v) && ty_of(*v) != self.function.ret_ty {
                        problems.push(format!(
                            "return type mismatch: returns {} but function returns {}",
                            ty_of(*v),
                            self.function.ret_ty
                        ));
                    }
                }
                None => {
                    if self.function.ret_ty != Type::Void {
                        problems.push("non-void function returns void".into());
                    }
                }
            },
            InstKind::Phi { incomings } => {
                for (v, _) in incomings {
                    if self.value_exists(*v) && !v.is_undef() && ty_of(*v) != data.ty {
                        problems.push(format!(
                            "phi incoming value type {} differs from phi type {}",
                            ty_of(*v),
                            data.ty
                        ));
                    }
                }
            }
            // Also reached by the guarded Alloca/CondBr/Switch arms above
            // when their type rule holds — this arm must stay empty; add new
            // checks for those kinds inside their guards, not here.
            _ => {}
        }
        // `xor` on booleans is used by the xor-branch optimization; every other
        // type rule is covered above. No additional checks needed here, but we
        // keep the arm to document the intent.
        if let InstKind::Binary { op: BinOp::Xor, .. } = &data.kind {}
        for p in problems {
            self.error(
                codes::TYPES,
                format!("%{}: {}", self.namer().inst_name(inst), p),
            );
        }
    }

    fn check_phis(&mut self, preds: &HashMap<BlockId, Vec<BlockId>>) {
        for block in self.function.block_ids() {
            let expected: HashSet<BlockId> = preds
                .get(&block)
                .map(|v| v.iter().copied().collect())
                .unwrap_or_default();
            for &phi in &self.function.block(block).phis {
                if !self.function.contains_inst(phi) {
                    continue;
                }
                let InstKind::Phi { incomings } = &self.function.inst(phi).kind else {
                    continue;
                };
                let mut seen: HashSet<BlockId> = HashSet::new();
                for (_, pred) in incomings {
                    if !seen.insert(*pred) {
                        self.error(
                            codes::PHI,
                            format!(
                                "phi %{} lists predecessor %{} twice",
                                self.namer().inst_name(phi),
                                self.namer().block_name(*pred)
                            ),
                        );
                    }
                    if !expected.contains(pred) {
                        self.error(codes::PHI, format!(
                            "phi %{} has an incoming edge from %{} which is not a predecessor of %{}",
                            self.namer().inst_name(phi),
                            self.namer().block_name(*pred),
                            self.namer().block_name(block)
                        ));
                    }
                }
                for pred in &expected {
                    if !seen.contains(pred) {
                        self.error(
                            codes::PHI,
                            format!(
                                "phi %{} is missing an incoming value for predecessor %{}",
                                self.namer().inst_name(phi),
                                self.namer().block_name(*pred)
                            ),
                        );
                    }
                }
            }
        }
    }

    fn check_landing_pads(&mut self) {
        // A landing pad must be the first non-phi instruction of its block and
        // that block must be the unwind destination of at least one invoke.
        let mut unwind_dests: HashSet<BlockId> = HashSet::new();
        for block in self.function.block_ids() {
            if let Some(term) = self.function.block(block).term {
                if let InstKind::Invoke { unwind, .. } = &self.function.inst(term).kind {
                    unwind_dests.insert(*unwind);
                }
            }
        }
        for block in self.function.block_ids() {
            let data = self.function.block(block);
            for (pos, &inst) in data.insts.iter().enumerate() {
                if !self.function.contains_inst(inst) {
                    continue;
                }
                if matches!(self.function.inst(inst).kind, InstKind::LandingPad) {
                    if pos != 0 {
                        self.error(
                            codes::LANDING_PAD,
                            format!(
                                "landingpad %{} is not the first non-phi instruction of %{}",
                                self.namer().inst_name(inst),
                                self.namer().block_name(block)
                            ),
                        );
                    }
                    if !unwind_dests.contains(&block) {
                        self.error(
                            codes::LANDING_PAD,
                            format!(
                                "landingpad block %{} is not the unwind destination of any invoke",
                                self.namer().block_name(block)
                            ),
                        );
                    }
                }
            }
        }
        // Conversely, unwind destinations must start with a landing pad.
        for block in unwind_dests {
            if !self.function.contains_block(block) {
                continue;
            }
            let data = self.function.block(block);
            let first_ok = data
                .insts
                .first()
                .map(|i| matches!(self.function.inst(*i).kind, InstKind::LandingPad))
                .unwrap_or(false);
            if !first_ok {
                self.error(
                    codes::LANDING_PAD,
                    format!(
                        "unwind destination %{} does not start with a landingpad",
                        self.namer().block_name(block)
                    ),
                );
            }
        }
    }

    fn check_dominance(&mut self) {
        let function = self.function;
        let domtree = DomTree::compute(function);
        for block in function.block_ids() {
            if !domtree.is_reachable(block) {
                continue;
            }
            for inst in function.block(block).all_insts() {
                if !function.contains_inst(inst) {
                    continue;
                }
                let kind = &function.inst(inst).kind;
                if let InstKind::Phi { incomings } = kind {
                    for &(value, pred) in incomings {
                        if let Value::Inst(def) = value {
                            if !function.contains_inst(def) {
                                continue;
                            }
                            // A phi use happens at the end of the predecessor.
                            if domtree.is_reachable(pred)
                                && !domtree.def_dominates_use(function, def, inst, pred)
                                && function.inst(def).block != pred
                            {
                                let db = function.inst(def).block;
                                if !domtree.dominates(db, pred) {
                                    self.error(codes::DOMINANCE, format!(
                                        "phi %{} incoming value %{} does not dominate predecessor %{}",
                                        self.namer().inst_name(inst),
                                        self.namer().inst_name(def),
                                        self.namer().block_name(pred)
                                    ));
                                }
                            }
                        }
                    }
                } else {
                    kind.for_each_operand(|v| {
                        let Value::Inst(def) = v else { return };
                        if function.contains_inst(def)
                            && !domtree.def_dominates_use(function, def, inst, block)
                        {
                            self.error(
                                codes::DOMINANCE,
                                format!(
                                "use of %{} in %{} (block %{}) is not dominated by its definition",
                                self.namer().inst_name(def),
                                self.namer().inst_name(inst),
                                self.namer().block_name(block)
                            ),
                            );
                        }
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instruction::{BinOp, ICmpPred};

    fn valid_diamond() -> Function {
        let mut b = FunctionBuilder::new("ok", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let t = b.create_block("t");
        let e = b.create_block("e");
        let j = b.create_block("j");
        b.switch_to(entry);
        let c = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let a = b.binary(BinOp::Add, Value::Arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(e);
        let s = b.binary(BinOp::Sub, Value::Arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I32, vec![(a, t), (s, e)]);
        b.ret(Some(p));
        b.finish()
    }

    #[test]
    fn valid_function_passes() {
        assert!(verify_function(&valid_diamond()).is_empty());
    }

    #[test]
    fn missing_terminator_is_reported() {
        let mut f = Function::new("f", vec![], Type::Void);
        f.add_block("entry");
        let errs = verify_function(&f);
        assert!(errs.iter().any(|e| e.message.contains("no terminator")));
    }

    #[test]
    fn phi_missing_incoming_is_reported() {
        let mut f = valid_diamond();
        let j = f.block_by_name("j").unwrap();
        let phi = f.block(j).phis[0];
        if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            incomings.pop();
        }
        let errs = verify_function(&f);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("missing an incoming value")));
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut b = FunctionBuilder::new("bad", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        let v = b.binary(BinOp::Add, Value::Arg(0), Value::i64(1));
        b.ret(Some(v));
        let errs = verify_function(&b.finish());
        assert!(errs
            .iter()
            .any(|e| e.message.contains("operand types differ")));
    }

    #[test]
    fn dominance_violation_is_reported() {
        // Use a value defined in a non-dominating sibling branch.
        let mut b = FunctionBuilder::new("dom", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let t = b.create_block("t");
        let e = b.create_block("e");
        let j = b.create_block("j");
        b.switch_to(entry);
        let c = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let a = b.binary(BinOp::Add, Value::Arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        // Direct use of `a` here violates dominance (path through `e`).
        let bad = b.binary(BinOp::Mul, a, Value::i32(2));
        b.ret(Some(bad));
        let errs = verify_function(&b.finish());
        assert!(errs.iter().any(|e| e.message.contains("not dominated")));
    }

    #[test]
    fn ret_type_mismatch_is_reported() {
        let mut b = FunctionBuilder::new("retbad", vec![], Type::I32);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        b.ret(None);
        let errs = verify_function(&b.finish());
        assert!(errs.iter().any(|e| e.message.contains("returns void")));
    }

    #[test]
    fn entry_with_phi_is_reported() {
        let mut f = Function::new("f", vec![Type::I32], Type::I32);
        let entry = f.add_block("entry");
        f.append_inst(entry, InstKind::Phi { incomings: vec![] }, Type::I32);
        f.append_inst(
            entry,
            InstKind::Ret {
                value: Some(Value::Arg(0)),
            },
            Type::Void,
        );
        let errs = verify_function(&f);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("entry block must not contain phi")));
    }

    #[test]
    fn landingpad_rules() {
        // Landing pad in a block that is not an unwind destination.
        let mut b = FunctionBuilder::new("lp", vec![], Type::Void);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        b.landing_pad();
        b.ret(None);
        let errs = verify_function(&b.finish());
        assert!(errs
            .iter()
            .any(|e| e.message.contains("not the unwind destination")));
    }

    #[test]
    fn module_verification_aggregates_function_errors() {
        let mut m = Module::new("m");
        m.add_function(valid_diamond());
        let mut bad = Function::new("bad", vec![], Type::Void);
        bad.add_block("entry");
        m.add_function(bad);
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].function, "bad");
    }
}
