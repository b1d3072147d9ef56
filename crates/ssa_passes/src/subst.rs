//! Deferred value substitution.
//!
//! A pass that retires many values (absorbed phis, promoted loads, trivial
//! phis) records what each one's uses take instead and rewrites the function
//! once at the end, rather than scanning the whole function per retired
//! value. Reads made in between go through [`ValueSubst::resolve`], so they
//! see exactly what the eager rewrite would have left in the IR.

use ssa_ir::{Function, InstId, Value};
use std::collections::HashMap;

/// Retired instruction results, each mapped to the value that replaces it.
#[derive(Debug, Default)]
pub(crate) struct ValueSubst(HashMap<InstId, Value>);

impl ValueSubst {
    /// The value `value` stands for once every recorded substitution is
    /// applied.
    pub(crate) fn resolve(&self, mut value: Value) -> Value {
        while let Value::Inst(inst) = value {
            match self.0.get(&inst) {
                Some(&next) => value = next,
                None => break,
            }
        }
        value
    }

    /// Records that the uses of `inst` take `value`. The caller passes a
    /// resolved value other than `inst` itself, which keeps the chains
    /// acyclic.
    pub(crate) fn insert(&mut self, inst: InstId, value: Value) {
        debug_assert_ne!(value, Value::Inst(inst));
        self.0.insert(inst, value);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Rewrites every use of a retired value in `function`, in one pass.
    pub(crate) fn apply(&self, function: &mut Function) {
        if self.is_empty() {
            return;
        }
        let resolved: HashMap<InstId, Value> = self
            .0
            .keys()
            .map(|&inst| (inst, self.resolve(Value::Inst(inst))))
            .collect();
        function.rewrite_values(|value| match value {
            Value::Inst(inst) => resolved.get(&inst).copied().unwrap_or(value),
            _ => value,
        });
    }
}
