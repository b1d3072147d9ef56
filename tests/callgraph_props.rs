//! Property tests of the call-graph subsystem: the resolved graph's edges
//! must exactly mirror the call instructions of the corpus — under arbitrary
//! builder- and linker-driven mutations. Plus an SCC unit test on a mutually
//! recursive module.

use callgraph::{CallEdge, CallGraph, CorpusCallIndex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssa_ir::{import_function, parse_module, rename_symbol, Linkage, Module};
use workloads::{generate_function, make_clone, Divergence, FunctionSpec};

/// Recomputes the expected edge list straight from the modules (own-module
/// definition first, then the first externally visible definition in corpus
/// order; no definition = external site), independent of the index layer.
fn expected_edges(modules: &[Module]) -> (Vec<CallEdge>, u64) {
    let mut nodes: Vec<(usize, String)> = Vec::new();
    let mut node_of = std::collections::HashMap::new();
    let mut external_def: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for (mi, m) in modules.iter().enumerate() {
        for f in m.functions() {
            let id = nodes.len();
            nodes.push((mi, f.name.clone()));
            node_of.insert((mi, f.name.clone()), id);
            if f.linkage == Linkage::External {
                external_def.entry(f.name.clone()).or_insert(id);
            }
        }
    }
    let mut edges = Vec::new();
    let mut external_sites = 0u64;
    let mut caller = 0usize;
    for (mi, m) in modules.iter().enumerate() {
        for f in m.functions() {
            let mut counts: Vec<(String, u32)> = f.callee_counts().into_iter().collect();
            counts.sort_unstable();
            for (callee, count) in counts {
                match node_of
                    .get(&(mi, callee.clone()))
                    .or_else(|| external_def.get(&callee))
                {
                    Some(&target) => edges.push(CallEdge {
                        caller,
                        callee: target,
                        count,
                    }),
                    None => external_sites += u64::from(count),
                }
            }
            caller += 1;
        }
    }
    edges.sort_unstable_by_key(|e| (e.caller, e.callee));
    (edges, external_sites)
}

/// A small corpus whose functions call each other by name, then a seeded
/// sequence of linker mutations (renames, imports, linkage flips, removals).
fn mutated_corpus(seed: u64, mutations: usize) -> Vec<Module> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut modules: Vec<Module> = Vec::new();
    for mi in 0..3 {
        let mut m = Module::new(format!("m{mi}"));
        let base = generate_function(
            &FunctionSpec {
                name: format!("worker{mi}"),
                size: 18,
                // Callees include symbols defined in this corpus (dup, the
                // other modules' workers) and library names with no
                // definition anywhere.
                callees: vec![
                    "dup".to_string(),
                    format!("worker{}", (mi + 1) % 3),
                    "lib_only".to_string(),
                ],
                ..FunctionSpec::default()
            },
            &mut rng,
        );
        let clone = make_clone(
            &base,
            "dup",
            Divergence::low(),
            &mut rng,
            &["lib_only".to_string()],
        );
        m.add_function(base);
        m.add_function(clone);
        modules.push(m);
    }
    for step in 0..mutations {
        let mi = rng.gen_range(0..modules.len());
        match rng.gen_range(0..4u8) {
            0 => {
                // Rename a random definition (call sites follow).
                if let Some(f) = modules[mi].functions().first() {
                    let from = f.name.clone();
                    let _ = rename_symbol(&mut modules[mi], &from, &format!("renamed{step}"));
                }
            }
            1 => {
                // Import a random donor function into another module.
                let di = (mi + 1 + rng.gen_range(0..modules.len() - 1)) % modules.len();
                let donor_fn = modules[di].functions().first().map(|f| f.name.clone());
                if let Some(name) = donor_fn {
                    let donor = modules[di].clone();
                    let _ = import_function(&mut modules[mi], &donor, &name);
                }
            }
            2 => {
                // Flip a definition to internal linkage (resolution changes:
                // other modules' calls can no longer bind to it).
                let name = modules[mi].functions().last().map(|f| f.name.clone());
                if let Some(name) = name {
                    modules[mi]
                        .function_mut(&name)
                        .unwrap()
                        .set_linkage(Linkage::Internal);
                }
            }
            _ => {
                // Remove a definition, stranding its callers (external site).
                if modules[mi].num_functions() > 1 {
                    let name = modules[mi].functions().last().map(|f| f.name.clone());
                    if let Some(name) = name {
                        modules[mi].remove_function(&name);
                    }
                }
            }
        }
    }
    modules
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The resolved graph's edges exactly match the corpus's call
    /// instructions, whatever sequence of builder/linker mutations produced
    /// the corpus.
    #[test]
    fn graph_edges_exactly_match_call_instructions(seed in 0u64..300, mutations in 0usize..12) {
        let modules = mutated_corpus(seed, mutations);
        let index = CorpusCallIndex::build(&modules);
        let graph = CallGraph::resolve(&index);
        let (edges, external_sites) = expected_edges(&modules);
        prop_assert_eq!(&graph.edges, &edges);
        prop_assert_eq!(graph.num_external_sites(), external_sites);
        // Node set mirrors the definitions, module by module.
        prop_assert_eq!(graph.num_nodes(), modules.iter().map(Module::num_functions).sum::<usize>());
        let mut node = 0usize;
        for (mi, m) in modules.iter().enumerate() {
            for f in m.functions() {
                prop_assert_eq!(graph.nodes[node].module, mi);
                prop_assert_eq!(&graph.nodes[node].name, &f.name);
                prop_assert_eq!(graph.nodes[node].linkage, f.linkage);
                node += 1;
            }
        }
    }

    /// Locality totals are conserved: summing each side over all nodes
    /// counts every non-self resolved site exactly once.
    #[test]
    fn locality_totals_conserve_call_sites(seed in 0u64..200, mutations in 0usize..10) {
        let modules = mutated_corpus(seed, mutations);
        let graph = CallGraph::resolve(&CorpusCallIndex::build(&modules));
        let locality = graph.locality();
        let self_sites: u64 = graph.edges.iter()
            .filter(|e| e.caller == e.callee)
            .map(|e| u64::from(e.count))
            .sum();
        let callee_side: u64 = locality.iter()
            .map(|l| u64::from(l.intra_callees) + u64::from(l.cross_callees))
            .sum();
        let caller_side: u64 = locality.iter()
            .map(|l| u64::from(l.intra_callers) + u64::from(l.cross_callers))
            .sum();
        prop_assert_eq!(callee_side, graph.num_resolved_sites() - self_sites);
        prop_assert_eq!(caller_side, graph.num_resolved_sites() - self_sites);
    }
}

/// Tarjan on a mutually recursive module: `even`/`odd` form one SCC, the
/// self-recursive `loop_fn` its own, and acyclic helpers are singletons, with
/// the condensation in reverse topological order.
#[test]
fn scc_condensation_on_mutually_recursive_module() {
    let text = r#"
define i32 @even(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %yes, label %rec
yes:
  ret i32 1
rec:
  %m = sub i32 %n, 1
  %r = call i32 @odd(i32 %m)
  ret i32 %r
}

define i32 @odd(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %no, label %rec
no:
  ret i32 0
rec:
  %m = sub i32 %n, 1
  %r = call i32 @even(i32 %m)
  %t = call i32 @leaf(i32 %r)
  ret i32 %t
}

define i32 @loop_fn(i32 %n) {
entry:
  %r = call i32 @loop_fn(i32 %n)
  ret i32 %r
}

define i32 @leaf(i32 %n) {
entry:
  %r = add i32 %n, 1
  ret i32 %r
}

define i32 @top(i32 %n) {
entry:
  %r = call i32 @even(i32 %n)
  ret i32 %r
}
"#;
    let mut m = parse_module(text).unwrap();
    m.name = "rec".to_string();
    let graph = CallGraph::resolve(&CorpusCallIndex::build(&[m]));
    let cond = graph.condensation();
    assert_eq!(cond.components.len(), 4);
    let even = graph.node_id(0, "even").unwrap();
    let odd = graph.node_id(0, "odd").unwrap();
    let loop_fn = graph.node_id(0, "loop_fn").unwrap();
    let leaf = graph.node_id(0, "leaf").unwrap();
    let top = graph.node_id(0, "top").unwrap();
    assert_eq!(
        cond.component_of[even], cond.component_of[odd],
        "mutual recursion collapses into one component"
    );
    let mutual = cond.component_of[even];
    assert_eq!(cond.components[mutual], vec![even, odd]);
    assert_ne!(cond.component_of[loop_fn], mutual);
    assert_eq!(cond.components[cond.component_of[loop_fn]], vec![loop_fn]);
    // Reverse topological order: callees close before their callers.
    assert!(cond.component_of[leaf] < mutual);
    assert!(mutual < cond.component_of[top]);
    for (caller_c, callee_c) in &cond.edges {
        assert!(caller_c > callee_c, "{caller_c} must come after {callee_c}");
    }
    // The condensation DAG has exactly mutual->leaf and top->mutual.
    assert_eq!(cond.edges.len(), 2);
}
