//! Test code shared by the integration-test crates that compare the planner
//! driver with the paper's whole-module loop.

use salssa::{build_thunk, estimate_profit, merge_pair, MergeOptions, MergeRecord};
use ssa_ir::Module;
use ssa_passes::codesize::Target;
use std::collections::HashSet;

/// A from-scratch reference of the paper's whole-module loop, sharing only
/// the leaf machinery (`merge_pair`, `estimate_profit`, `build_thunk`) with
/// the planner-based driver: walk functions largest first, try the top-`t`
/// ranked candidates, commit the most profitable positive merge, replace the
/// pair by merged + thunks. Returns the records and the number of pairs
/// scored.
pub fn reference_merge(
    module: &mut Module,
    threshold: usize,
    min_size: usize,
) -> (Vec<MergeRecord>, usize) {
    let options = MergeOptions::default();
    let ranking = fm_align::Ranking::build(module);
    let mut unavailable: HashSet<String> = HashSet::new();
    let mut records = Vec::new();
    let mut scored = 0;
    for name in ranking.names_by_size_desc() {
        if unavailable.contains(&name)
            || module
                .function(&name)
                .is_none_or(|f| f.num_insts() < min_size)
        {
            continue;
        }
        let exclude: Vec<String> = unavailable.iter().cloned().collect();
        let mut best: Option<(i64, String, salssa::PairMerge)> = None;
        for candidate in ranking.candidates(&name, threshold, &exclude) {
            if unavailable.contains(&candidate)
                || candidate == name
                || module
                    .function(&candidate)
                    .is_none_or(|f| f.num_insts() < min_size)
            {
                continue;
            }
            let (f1, f2) = (
                module.function(&name).unwrap(),
                module.function(&candidate).unwrap(),
            );
            // The same admissible pre-filter the planner applies: skipping a
            // provably unprofitable pair can never change the committed set,
            // and keeps the reference's attempt schedule comparable.
            let band = Some(fm_align::Band::new(salssa::options::DEFAULT_BAND_SLACK));
            if fm_align::prefilter_rejects(f1, f2, Target::X86Like, band) {
                continue;
            }
            let merged_name = format!("merged.{}.{}", f1.name, f2.name);
            scored += 1;
            let Some(pair) = merge_pair(f1, f2, &options, &merged_name) else {
                continue;
            };
            let profit = estimate_profit(f1, f2, &pair, Target::X86Like);
            let improves = best.as_ref().map(|(p, _, _)| profit > *p).unwrap_or(true);
            if improves && profit > 0 {
                best = Some((profit, candidate.clone(), pair));
            }
        }
        if let Some((profit, candidate, pair)) = best {
            let f1 = module.remove_function(&name).unwrap();
            let f2 = module.remove_function(&candidate).unwrap();
            let record = MergeRecord {
                f1: name.clone(),
                f2: candidate.clone(),
                merged_name: pair.merged.name.clone(),
                profit_bytes: profit,
                sizes: (f1.num_insts(), f2.num_insts(), pair.merged.num_insts()),
                coalesced_pairs: pair.repair.coalesced_pairs,
            };
            let thunk1 = build_thunk(&f1, &pair.merged, &pair.param_f1, false);
            let thunk2 = build_thunk(&f2, &pair.merged, &pair.param_f2, true);
            module.add_function(pair.merged);
            module.add_function(thunk1);
            module.add_function(thunk2);
            unavailable.insert(name);
            unavailable.insert(candidate);
            unavailable.insert(record.merged_name.clone());
            records.push(record);
        }
    }
    (records, scored)
}
