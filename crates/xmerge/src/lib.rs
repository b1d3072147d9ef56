//! # `xmerge` — cross-module function merging
//!
//! The paper's SalSSA pipeline merges functions within a single module; real
//! deployments (ThinLTO-style link-time optimization) must find similar
//! functions wherever they live across hundreds of translation units. This
//! crate scales the reproduction to that setting:
//!
//! * [`index`] — the **summary index**: per-function MinHash/opcode-frequency
//!   fingerprints plus size metadata, built per module and merged across a
//!   corpus without holding any IR;
//! * [`discover`](mod@discover) — **sharded candidate discovery**: index
//!   entries are bucketed by MinHash band (LSH) and shard co-occupants are
//!   scored in parallel, avoiding the whole-program quadratic pair scan;
//! * [`pipeline`] — the end-to-end run: speculative parallel scoring of
//!   every discovered candidate, then sequential profit-ordered commits that
//!   import the donor function into the host module ([`ssa_ir::linker`]),
//!   merge with the existing pairwise machinery, and leave a thunk behind in
//!   the donor so every module keeps exporting working symbols;
//! * [`json`] — machine-readable reports for trajectory tracking.
//!
//! The `salssa xmerge <dir>` CLI subcommand streams a directory of `.ll`
//! modules through this crate end to end.
//!
//! ## Example
//!
//! ```rust
//! use ssa_ir::parse_module;
//! use xmerge::{xmerge_corpus, XMergeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = |k: i64| format!(
//!     "define i32 @f{k}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  %b = mul i32 %a, 3\n  %c = call i32 @h(i32 %b)\n  %d = xor i32 %c, %x\n  %e = call i32 @h(i32 %d)\n  %g = sub i32 %e, %a\n  %h2 = mul i32 %g, %b\n  %i = call i32 @h(i32 %h2)\n  %j = add i32 %i, %d\n  ret i32 %j\n}}");
//! let mut a = parse_module(&text(1))?;
//! a.name = "a".to_string();
//! let mut b = parse_module(&text(2))?;
//! b.name = "b".to_string();
//! let mut corpus = vec![a, b];
//! let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
//! assert_eq!(report.num_merges(), 1);
//! # Ok(())
//! # }
//! ```

pub mod discover;
pub mod explain;
pub mod index;
pub mod json;
pub mod pipeline;

pub use discover::{discover, CandidatePair, DiscoveryConfig};
pub use explain::{explain_pair, ExplainStep, Explanation};
pub use index::{CorpusIndex, FunctionSummary, IndexReuse, ModuleIndex};
pub use json::{corpus_report_json, merge_report_json};
pub use pipeline::{
    xmerge_corpus, CorpusMergeReport, CrossMergeRecord, FixpointConfig, HostPolicy, ModuleStats,
    XMergeConfig,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ssa_ir::verifier::verify_module;
    use ssa_ir::{link_modules, parse_module, Module};
    use workloads::{generate_function, make_clone, Divergence, FunctionSpec};

    /// Two modules holding a cross-module clone pair plus noise.
    fn small_corpus() -> Vec<Module> {
        let mut rng = SmallRng::seed_from_u64(41);
        let callees = vec!["helper_x".to_string(), "helper_y".to_string()];
        let base = generate_function(
            &FunctionSpec {
                name: "worker_a".into(),
                size: 40,
                callees: callees.clone(),
                ..FunctionSpec::default()
            },
            &mut rng,
        );
        let clone = make_clone(&base, "worker_b", Divergence::low(), &mut rng, &callees);
        let noise = generate_function(
            &FunctionSpec {
                name: "noise".into(),
                size: 30,
                ..FunctionSpec::default()
            },
            &mut rng,
        );
        let mut a = Module::new("mod_a");
        a.add_function(base);
        let mut b = Module::new("mod_b");
        b.add_function(clone);
        b.add_function(noise);
        vec![a, b]
    }

    #[test]
    fn pipeline_merges_across_modules_and_keeps_modules_valid() {
        let mut corpus = small_corpus();
        let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
        assert_eq!(report.num_merges(), 1, "{report}");
        let record = &report.committed[0];
        assert!(record.profit_bytes > 0);
        assert_ne!(record.host_module, record.donor_module);
        for m in &corpus {
            assert!(verify_module(m).is_empty(), "module {} broke", m.name);
        }
        // Both original symbols still exist somewhere, plus the merged one.
        let all_names: Vec<String> = corpus
            .iter()
            .flat_map(|m| m.functions().iter().map(|f| f.name.clone()))
            .collect();
        assert!(all_names.contains(&"worker_a".to_string()));
        assert!(all_names.contains(&"worker_b".to_string()));
        assert!(all_names.contains(&record.merged_name));
        // The donor declares the merged function it now calls.
        let donor = corpus
            .iter()
            .find(|m| m.name == record.donor_module)
            .unwrap();
        assert!(donor
            .declarations()
            .iter()
            .any(|d| d.name == record.merged_name));
        assert!(report.size_after < report.size_before);
    }

    #[test]
    fn pipeline_with_oracle_commits_identically_on_sound_merges() {
        let mut plain = small_corpus();
        let baseline = xmerge_corpus(&mut plain, &XMergeConfig::new());
        let mut checked = small_corpus();
        let report = xmerge_corpus(
            &mut checked,
            &XMergeConfig::new().with_check_semantics(true),
        );
        assert_eq!(report.semantic_rejections, 0);
        assert_eq!(report.committed, baseline.committed);
        for (a, b) in plain.iter().zip(&checked) {
            assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
        }
        // The linked whole program stays well-formed and verifier-clean.
        let linked = link_modules(&checked, "prog").unwrap();
        assert!(verify_module(&linked).is_empty());
    }

    #[test]
    fn odr_identical_copies_dedup_instead_of_merging() {
        let text = "define i32 @shared(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  %b = mul i32 %a, 2\n  %c = call i32 @h(i32 %b)\n  ret i32 %c\n}";
        let mut a = parse_module(text).unwrap();
        a.name = "a".to_string();
        let mut b = parse_module(text).unwrap();
        b.name = "b".to_string();
        let mut corpus = vec![a, b];
        let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
        assert_eq!(report.num_commits(), 1);
        let record = &report.committed[0];
        assert!(record.odr_dedup, "{report}");
        assert_eq!(record.f1, "shared");
        // Exactly one definition remains; the other module declares it.
        let definitions: usize = corpus.iter().map(|m| m.num_functions()).sum();
        assert_eq!(definitions, 1);
        let declarer = corpus.iter().find(|m| m.num_functions() == 0).unwrap();
        assert!(declarer.declarations().iter().any(|d| d.name == "shared"));
        assert!(link_modules(&corpus, "prog").is_ok());
    }

    #[test]
    fn n_way_odr_duplicates_collapse_to_a_single_definition() {
        let text = "define i32 @shared(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  %b = mul i32 %a, 2\n  %c = call i32 @h(i32 %b)\n  ret i32 %c\n}";
        let mut corpus: Vec<Module> = (0..3)
            .map(|i| {
                let mut m = parse_module(text).unwrap();
                m.name = format!("m{i}");
                m
            })
            .collect();
        let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
        // The kept copy services every duplicate: two dedups, one definition.
        assert_eq!(report.num_commits(), 2, "{report}");
        assert!(report.committed.iter().all(|r| r.odr_dedup));
        assert_eq!(corpus.iter().map(|m| m.num_functions()).sum::<usize>(), 1);
        for m in corpus.iter().filter(|m| m.num_functions() == 0) {
            assert!(m.declarations().iter().any(|d| d.name == "shared"));
        }
        assert!(link_modules(&corpus, "prog").is_ok());
    }

    #[test]
    fn same_named_modules_are_uniquified_not_silently_skipped() {
        // parse_module names every module "parsed"; the pipeline must still
        // see two distinct translation units.
        let text = |k: i64| {
            format!(
                "define i32 @f{k}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  %b = mul i32 %a, 3\n  %c = call i32 @h(i32 %b)\n  %d = xor i32 %c, %x\n  %e = call i32 @h(i32 %d)\n  %g = sub i32 %e, %a\n  %h2 = mul i32 %g, %b\n  %i = call i32 @h(i32 %h2)\n  %j = add i32 %i, %d\n  ret i32 %j\n}}"
            )
        };
        let mut corpus = vec![
            parse_module(&text(1)).unwrap(),
            parse_module(&text(2)).unwrap(),
        ];
        let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
        assert_eq!(report.num_merges(), 1, "{report}");
        assert_ne!(corpus[0].name, corpus[1].name);
    }

    #[test]
    fn empty_and_singleton_corpora_report_cleanly() {
        let mut empty: Vec<Module> = Vec::new();
        let report = xmerge_corpus(&mut empty, &XMergeConfig::new());
        assert_eq!(report.modules, 0);
        assert_eq!(report.num_commits(), 0);
        let mut single = vec![small_corpus().remove(1)];
        let report = xmerge_corpus(&mut single, &XMergeConfig::new());
        assert_eq!(report.modules, 1);
        assert_eq!(report.candidates, 0, "no cross-module pairs in one module");
    }

    /// The admissible pre-filter must change the cost of a run, never its
    /// outcome: with a hopeless (tiny, provably unprofitable) pair seeded
    /// next to a genuinely mergeable clone pair, the prefiltered run rejects
    /// the tiny pair before scoring yet commits exactly the same records and
    /// produces byte-identical modules.
    #[test]
    fn prefilter_rejects_hopeless_pairs_without_changing_commits() {
        use ssa_ir::parse_function;
        let tiny = |name: &str, k: i32| {
            format!(
                "define i32 @{name}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  %b = xor i32 %a, %x\n  ret i32 %b\n}}"
            )
        };
        let build = || {
            let mut corpus = small_corpus();
            // Identical opcode sequences (LSH finds them), different
            // constants (no ODR passthrough), 7 shared bytes vs a 20-byte
            // margin: provably unprofitable.
            corpus[0].add_function(parse_function(&tiny("tiny_a", 1)).unwrap());
            corpus[1].add_function(parse_function(&tiny("tiny_b", 2)).unwrap());
            corpus
        };
        let mut on = build();
        let on_report = xmerge_corpus(&mut on, &XMergeConfig::new());
        let mut off = build();
        let off_report = xmerge_corpus(&mut off, &XMergeConfig::new().with_prefilter(false));
        assert_eq!(on_report.committed, off_report.committed, "{on_report}");
        assert!(on_report.num_merges() >= 1, "{on_report}");
        assert!(on_report.planner.prefilter_checked > 0);
        assert!(
            on_report.planner.prefilter_rejected > 0,
            "the tiny pair must be rejected by the admissible bound: {on_report}"
        );
        assert_eq!(off_report.planner.prefilter_rejected, 0);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
        }
    }

    #[test]
    fn odr_hazards_are_skipped_not_committed() {
        // donor's worker_b calls @helper, which donor and host define with
        // DIFFERENT bodies: moving worker_b's logic into the host would make
        // its calls resolve to the wrong helper.
        let worker = |name: &str, k: i32| {
            format!(
                r#"
define i32 @{name}(i32 %n) {{
L1:
  %x0 = call i32 @helper(i32 %n)
  %x0b = add i32 %x0, %n
  %x1 = call i32 @helper(i32 %x0b)
  %x1b = xor i32 %x1, %n
  %x2 = icmp slt i32 %x1b, {k}
  br i1 %x2, label %L2, label %L3
L2:
  %x3 = call i32 @helper(i32 %x1)
  %x3b = add i32 %x3, {k}
  br label %L4
L3:
  %x4 = call i32 @helper(i32 %x1)
  %x4b = mul i32 %x4, {k}
  br label %L4
L4:
  %x5 = phi i32 [ %x3b, %L2 ], [ %x4b, %L3 ]
  %x6 = call i32 @helper(i32 %x5)
  ret i32 %x6
}}
"#
            )
        };
        let host_text = format!(
            "define i32 @helper(i32 %x) {{\nentry:\n  %r = add i32 %x, 100\n  ret i32 %r\n}}\n{}",
            worker("worker_a", 3)
        );
        let donor_text = format!(
            "define i32 @helper(i32 %x) {{\nentry:\n  %r = sub i32 %x, 5\n  ret i32 %r\n}}\n{}",
            worker("worker_b", 7)
        );
        let mut host = parse_module(&host_text).unwrap();
        host.name = "host".to_string();
        let mut donor = parse_module(&donor_text).unwrap();
        donor.name = "donor".to_string();
        let snapshot: Vec<String> = [&host, &donor]
            .iter()
            .map(|m| ssa_ir::print_module(m))
            .collect();
        let mut corpus = vec![host, donor];
        let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
        // worker_a/worker_b pair up (identical shapes) but must be skipped.
        assert_eq!(report.num_merges(), 0, "{report}");
        assert!(report.hazard_skips > 0 || report.candidates == 0);
        let after: Vec<String> = corpus.iter().map(ssa_ir::print_module).collect();
        assert_eq!(
            snapshot, after,
            "hazardous pairs must leave the corpus untouched"
        );
    }
}
