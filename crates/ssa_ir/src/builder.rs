//! A convenience builder for constructing functions programmatically.
//!
//! The builder keeps a current insertion block and offers one method per
//! instruction kind, returning the produced [`Value`]. It is used pervasively
//! by the test suites, the examples and the synthetic workload generator.

use crate::function::Function;
use crate::ids::{BlockId, InstId};
use crate::instruction::{BinOp, CastKind, ICmpPred, InstKind};
use crate::types::Type;
use crate::value::Value;

/// Builds instructions into a [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    function: Function,
    current: Option<BlockId>,
    name_counter: usize,
}

impl FunctionBuilder {
    /// Starts building a function with the given signature.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> FunctionBuilder {
        FunctionBuilder {
            function: Function::new(name, params, ret_ty),
            current: None,
            name_counter: 0,
        }
    }

    /// Finishes building and returns the function.
    pub fn finish(self) -> Function {
        self.function
    }

    /// Immutable access to the function under construction.
    pub fn function(&self) -> &Function {
        &self.function
    }

    /// Mutable access to the function under construction.
    pub fn function_mut(&mut self) -> &mut Function {
        &mut self.function
    }

    /// Creates a new block and returns its id (does not change the insertion
    /// point).
    pub fn create_block(&mut self, name: impl Into<String>) -> BlockId {
        self.function.add_block(name)
    }

    /// Sets the insertion point to the end of `block`.
    pub fn switch_to(&mut self, block: BlockId) -> &mut Self {
        self.current = Some(block);
        self
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no insertion point has been set.
    pub fn current_block(&self) -> BlockId {
        self.current.expect("no insertion block set")
    }

    /// The values of the formal parameters.
    pub fn args(&self) -> Vec<Value> {
        self.function.arg_values()
    }

    fn emit(&mut self, kind: InstKind, ty: Type) -> InstId {
        let block = self.current_block();
        let id = self.function.append_inst(block, kind, ty);
        if ty.is_first_class() {
            self.name_counter += 1;
            self.function
                .set_inst_name(id, format!("v{}", self.name_counter));
        }
        id
    }

    /// Emits a binary operation.
    pub fn binary(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Value {
        let ty = self.function.value_type(lhs);
        Value::Inst(self.emit(InstKind::Binary { op, lhs, rhs }, ty))
    }

    /// Emits an integer comparison.
    pub fn icmp(&mut self, pred: ICmpPred, lhs: Value, rhs: Value) -> Value {
        Value::Inst(self.emit(InstKind::ICmp { pred, lhs, rhs }, Type::I1))
    }

    /// Emits a select.
    pub fn select(&mut self, cond: Value, if_true: Value, if_false: Value) -> Value {
        let ty = self.function.value_type(if_true);
        Value::Inst(self.emit(
            InstKind::Select {
                cond,
                if_true,
                if_false,
            },
            ty,
        ))
    }

    /// Emits a call to `callee` returning a value of type `ret_ty`.
    pub fn call(&mut self, callee: impl Into<String>, args: Vec<Value>, ret_ty: Type) -> Value {
        let id = self.emit(
            InstKind::Call {
                callee: callee.into(),
                args,
            },
            ret_ty,
        );
        Value::Inst(id)
    }

    /// Emits an invoke terminator.
    pub fn invoke(
        &mut self,
        callee: impl Into<String>,
        args: Vec<Value>,
        ret_ty: Type,
        normal: BlockId,
        unwind: BlockId,
    ) -> Value {
        let id = self.emit(
            InstKind::Invoke {
                callee: callee.into(),
                args,
                normal,
                unwind,
            },
            ret_ty,
        );
        Value::Inst(id)
    }

    /// Emits a landing pad (must be the first non-phi instruction of an unwind
    /// destination).
    pub fn landing_pad(&mut self) -> Value {
        Value::Inst(self.emit(InstKind::LandingPad, Type::Ptr))
    }

    /// Emits a resume terminator.
    pub fn resume(&mut self, value: Value) {
        self.emit(InstKind::Resume { value }, Type::Void);
    }

    /// Emits a phi-node with the given incoming `(value, block)` pairs.
    pub fn phi(&mut self, ty: Type, incomings: Vec<(Value, BlockId)>) -> Value {
        Value::Inst(self.emit(InstKind::Phi { incomings }, ty))
    }

    /// Emits an alloca for a slot of type `ty`.
    pub fn alloca(&mut self, ty: Type) -> Value {
        Value::Inst(self.emit(InstKind::Alloca { ty }, Type::Ptr))
    }

    /// Emits a load of type `ty` through `ptr`.
    pub fn load(&mut self, ptr: Value, ty: Type) -> Value {
        Value::Inst(self.emit(InstKind::Load { ptr }, ty))
    }

    /// Emits a store of `value` through `ptr`.
    pub fn store(&mut self, value: Value, ptr: Value) {
        self.emit(InstKind::Store { value, ptr }, Type::Void);
    }

    /// Emits pointer arithmetic (`base + index * stride`).
    pub fn gep(&mut self, base: Value, index: Value, stride: u32) -> Value {
        Value::Inst(self.emit(
            InstKind::Gep {
                base,
                index,
                stride,
            },
            Type::Ptr,
        ))
    }

    /// Emits a cast to `to_ty`.
    pub fn cast(&mut self, kind: CastKind, value: Value, to_ty: Type) -> Value {
        Value::Inst(self.emit(InstKind::Cast { kind, value }, to_ty))
    }

    /// Emits an unconditional branch.
    pub fn br(&mut self, dest: BlockId) {
        self.emit(InstKind::Br { dest }, Type::Void);
    }

    /// Emits a conditional branch.
    pub fn cond_br(&mut self, cond: Value, if_true: BlockId, if_false: BlockId) {
        self.emit(
            InstKind::CondBr {
                cond,
                if_true,
                if_false,
            },
            Type::Void,
        );
    }

    /// Emits a switch.
    pub fn switch(&mut self, value: Value, default: BlockId, cases: Vec<(i64, BlockId)>) {
        self.emit(
            InstKind::Switch {
                value,
                default,
                cases,
            },
            Type::Void,
        );
    }

    /// Emits a return of `value`.
    pub fn ret(&mut self, value: Option<Value>) {
        self.emit(InstKind::Ret { value }, Type::Void);
    }

    /// Emits an unreachable terminator.
    pub fn unreachable(&mut self) {
        self.emit(InstKind::Unreachable, Type::Void);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_diamond() {
        // A classic diamond: entry -> (then | else) -> join, with a phi.
        let mut b = FunctionBuilder::new("diamond", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let then_bb = b.create_block("then");
        let else_bb = b.create_block("else");
        let join = b.create_block("join");

        b.switch_to(entry);
        let arg = b.args()[0];
        let cond = b.icmp(ICmpPred::Sgt, arg, Value::i32(0));
        b.cond_br(cond, then_bb, else_bb);

        b.switch_to(then_bb);
        let doubled = b.binary(BinOp::Add, arg, arg);
        b.br(join);

        b.switch_to(else_bb);
        let negated = b.binary(BinOp::Sub, Value::i32(0), arg);
        b.br(join);

        b.switch_to(join);
        let merged = b.phi(Type::I32, vec![(doubled, then_bb), (negated, else_bb)]);
        b.ret(Some(merged));

        let f = b.finish();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 8);
        assert_eq!(f.successors(entry), vec![then_bb, else_bb]);
        assert_eq!(f.block(join).phis.len(), 1);
    }

    #[test]
    fn builder_names_values() {
        let mut b = FunctionBuilder::new("named", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        let v = b.binary(BinOp::Mul, Value::Arg(0), Value::i32(3));
        b.ret(Some(v));
        let f = b.finish();
        let id = v.as_inst().unwrap();
        assert!(f.inst(id).name.is_some());
    }

    #[test]
    #[should_panic(expected = "no insertion block")]
    fn emitting_without_block_panics() {
        let mut b = FunctionBuilder::new("broken", vec![], Type::Void);
        b.ret(None);
    }
}
