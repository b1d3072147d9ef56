//! Dead-code elimination: removes side-effect-free instructions whose results
//! are never used, iterating to a fixed point.

use ssa_ir::{Function, InstId, Value};
use std::collections::HashSet;

/// Removes dead instructions. Returns the number of instructions removed.
///
/// Uses are counted once; removing an instruction releases its operands, and
/// an operand left without uses is removed in turn, which reaches the same
/// fixed point as re-counting after every round of removals.
pub fn eliminate_dead_code(function: &mut Function) -> usize {
    let all: Vec<InstId> = function
        .block_ids()
        .flat_map(|b| function.block(b).all_insts())
        .collect();
    // Tables indexed by instruction id; only instructions listed in a block
    // are candidates, and only their results are counted.
    let slots = all
        .iter()
        .map(|i| i.as_u32() as usize + 1)
        .max()
        .unwrap_or(0);
    let mut listed = vec![false; slots];
    for inst in &all {
        listed[inst.as_u32() as usize] = true;
    }
    let mut uses = vec![0u32; slots];
    for &inst in &all {
        function.inst(inst).kind.for_each_operand(|v| {
            if let Value::Inst(d) = v {
                if let Some(n) = uses.get_mut(d.as_u32() as usize) {
                    *n += 1;
                }
            }
        });
    }
    let removable = |function: &Function, inst: InstId| {
        let data = function.inst(inst);
        data.ty.is_first_class() && !data.kind.has_side_effects()
    };
    let mut worklist: Vec<InstId> = all
        .into_iter()
        .filter(|&inst| uses[inst.as_u32() as usize] == 0 && removable(function, inst))
        .collect();
    let mut dead = worklist.clone();
    while let Some(inst) = worklist.pop() {
        function.inst(inst).kind.for_each_operand(|v| {
            let Value::Inst(d) = v else { return };
            let i = d.as_u32() as usize;
            let Some(n) = uses.get_mut(i) else { return };
            *n -= 1;
            // A listed instruction is dead once it has no uses; it reaches
            // zero exactly once.
            if *n == 0 && listed[i] && removable(function, d) {
                dead.push(d);
                worklist.push(d);
            }
        });
    }
    function.remove_insts(&dead);
    dead.len()
}

/// Removes blocks that are unreachable from the entry, fixing up phi-nodes in
/// the surviving blocks. Returns the number of blocks removed.
pub fn remove_unreachable_blocks(function: &mut Function) -> usize {
    let rpo = function.reverse_post_order();
    if rpo.len() == function.num_blocks() {
        return 0;
    }
    let reachable: HashSet<_> = rpo.iter().copied().collect();
    let dead: Vec<_> = function
        .block_ids()
        .filter(|b| !reachable.contains(b))
        .collect();
    if dead.is_empty() {
        return 0;
    }
    let dead_set: HashSet<_> = dead.iter().copied().collect();
    // Remove phi incomings that reference dead predecessors.
    for block in function.block_ids().collect::<Vec<_>>() {
        if dead_set.contains(&block) {
            continue;
        }
        for phi in function.block(block).phis.clone() {
            if let ssa_ir::InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind {
                incomings.retain(|(_, b)| !dead_set.contains(b));
            }
        }
    }
    function.remove_blocks(&dead_set);
    dead.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;
    use ssa_ir::verifier::assert_valid;

    #[test]
    fn removes_unused_pure_instructions() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  %dead1 = add i32 %x, 1
  %dead2 = mul i32 %dead1, 2
  %live = add i32 %x, 5
  ret i32 %live
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.num_insts(), 2);
        assert_valid(&f);
    }

    #[test]
    fn keeps_side_effecting_instructions() {
        let text = r#"
define void @f(i32 %x, ptr %p) {
entry:
  %unused = call i32 @rand()
  store i32 %x, ptr %p
  ret void
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(f.num_insts(), 3);
    }

    #[test]
    fn removes_unreachable_blocks_and_fixes_phis() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  br label %live
dead:
  %d = add i32 %x, 1
  br label %live
live:
  %p = phi i32 [ %x, %entry ], [ %d, %dead ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = remove_unreachable_blocks(&mut f);
        assert_eq!(removed, 1);
        // The phi now has a single incoming; trivial-phi cleanup makes it valid SSA.
        crate::phi_dedup::simplify_trivial_phis(&mut f);
        assert_valid(&f);
        assert_eq!(f.num_blocks(), 2);
    }

    #[test]
    fn dce_is_idempotent() {
        let text = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  ret i32 %a\n}";
        let mut f = parse_function(text).unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(eliminate_dead_code(&mut f), 0);
    }
}
