//! Byte-identity pin of merged output.
//!
//! The planner-equivalence suite compares the driver with a reference loop
//! that shares its pair-merging machinery, so a change that alters merged
//! code in both the same way passes it. This suite compares the printed
//! merged IR of three fixed inputs, and the reports' commit and pairs-scored
//! counts, with constants captured from a known-good build. A pass rewrite
//! that is meant to change only the cost of the pipeline (never its output)
//! must leave every constant here as it is; a change that is meant to alter
//! merged code recaptures them from the `actual` values the failure message
//! prints.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use salssa::{merge_module, merge_pair, DriverConfig, MergeOptions, SalSsaMerger};
use ssa_ir::{print_function, print_module, Module};
use workloads::{generate_function, make_clone, Divergence, FunctionSpec, PerfTier};
use xmerge::{xmerge_corpus, XMergeConfig};

/// FNV-1a, 64-bit: a std-only, platform-independent hash of printed IR.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_modules(modules: &[Module]) -> u64 {
    let mut hash = FNV_OFFSET;
    for module in modules {
        fnv1a(&mut hash, print_module(module).as_bytes());
    }
    hash
}

/// `(output hash, commits, pairs scored)` of one pinned input.
type Pin = (u64, usize, usize);

fn assert_pin(what: &str, actual: Pin, expected: Pin) {
    assert_eq!(
        actual, expected,
        "{what}: merged output changed (actual = {actual:#x?}, expected = {expected:#x?})"
    );
}

#[test]
fn perf_tier_s_xmerge_output_is_pinned() {
    let mut modules = PerfTier::S.spec().generate();
    let report = xmerge_corpus(&mut modules, &XMergeConfig::new());
    let actual = (
        hash_modules(&modules),
        report.num_commits() + report.num_intra_merges(),
        report.planner.speculative_scores + report.planner.inline_scores,
    );
    assert_pin(
        "PerfTier::S xmerge",
        actual,
        (0x11de_6b46_e1e7_d461, 24, 131),
    );
}

#[test]
fn spec2006_quarter_scale_intra_output_is_pinned() {
    // The `salssa merge` defaults.
    let merger = SalSsaMerger::default();
    let config = DriverConfig::default();
    let mut modules = Vec::new();
    let (mut commits, mut pairs) = (0, 0);
    for spec in workloads::scale(workloads::spec2006(), 0.25) {
        let mut module = spec.generate();
        let report = merge_module(&mut module, &merger, &config);
        commits += report.committed.len();
        pairs += report.planner.speculative_scores + report.planner.inline_scores;
        modules.push(module);
    }
    let actual = (hash_modules(&modules), commits, pairs);
    assert_pin(
        "spec2006 x0.25 intra",
        actual,
        (0x8159_c21b_cb66_fc59, 20, 170),
    );
}

#[test]
fn thousand_instruction_pair_output_is_pinned() {
    let mut rng = SmallRng::seed_from_u64(1000);
    let spec = FunctionSpec {
        name: "pin_base".to_string(),
        size: 1000,
        ..FunctionSpec::default()
    };
    let base = generate_function(&spec, &mut rng);
    let clone = make_clone(
        &base,
        "pin_clone",
        Divergence::medium(),
        &mut rng,
        &spec.callees,
    );
    let merge = merge_pair(&base, &clone, &MergeOptions::default(), "pin_merged")
        .expect("the clone pair must merge");
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, print_function(&merge.merged).as_bytes());
    // One pair, one merge: the count slots carry the merged size and the
    // phis SSA repair inserted instead.
    let actual = (hash, merge.merged_size(), merge.repair.phis_inserted);
    assert_pin(
        "1000-instruction pair",
        actual,
        (0x7a29_28b8_5bec_9bd9, 1322, 84),
    );
}
