//! End-to-end tests of the parallel batch driver: verdict parity with the
//! sequential pipeline, warm-cache incrementality (a second run against a
//! persisted cache discharges zero new SMT queries), and solver-statistics
//! threading.

use std::path::PathBuf;

use intrinsic_verify::core::pipeline::{load_methods, verify_method_in, PipelineConfig};
use intrinsic_verify::driver::{verify_selections, DriverConfig, Selection};
use intrinsic_verify::structures::lists;

fn temp_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ids-driver-test-{}-{}.cache",
        std::process::id(),
        tag
    ))
}

fn sll_selection(ids: &intrinsic_verify::core::IntrinsicDefinition) -> Selection<'_> {
    Selection {
        name: "Singly-Linked List",
        definition: ids,
        methods_src: lists::SINGLY_LINKED_LIST_METHODS,
        methods: vec!["set_key".into(), "delete_front".into()],
    }
}

#[test]
fn parallel_verdicts_match_sequential_pipeline() {
    let ids = lists::singly_linked_list();
    let selections = vec![sll_selection(&ids)];
    let config = DriverConfig {
        jobs: 4,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);

    let merged = load_methods(&ids, lists::SINGLY_LINKED_LIST_METHODS).unwrap();
    for report in &batch.reports {
        let sequential =
            verify_method_in(&ids, &merged, &report.method, PipelineConfig::default()).unwrap();
        assert_eq!(
            report.outcome.is_verified(),
            sequential.outcome.is_verified(),
            "verdict diverged for {}",
            report.method
        );
        assert_eq!(report.num_vcs, sequential.num_vcs);
        // Statistics are threaded through both paths.
        assert!(report.solver.sat_propagations > 0, "{:?}", report.solver);
        assert!(sequential.solver.sat_propagations > 0);
    }
}

#[test]
fn warm_cache_rerun_discharges_zero_smt_queries() {
    let cache = temp_cache("warm");
    std::fs::remove_file(&cache).ok();
    let ids = lists::singly_linked_list();
    let selections = vec![sll_selection(&ids)];
    let config = DriverConfig {
        jobs: 2,
        cache_path: Some(cache.clone()),
        ..DriverConfig::default()
    };

    let cold = verify_selections(&selections, &config);
    assert!(cold.all_verified(), "{:?}", cold.errors);
    assert!(cold.stats.smt_queries > 0, "cold run must query the solver");
    assert!(cache.exists(), "cache file must be persisted");

    let warm = verify_selections(&selections, &config);
    assert!(warm.all_verified(), "{:?}", warm.errors);
    assert_eq!(
        warm.stats.smt_queries, 0,
        "warm re-run must be answered entirely from the cache"
    );
    assert_eq!(warm.stats.cache_hits, warm.stats.vcs);

    // Verdicts and row shapes are identical between cold and warm runs.
    assert_eq!(cold.reports.len(), warm.reports.len());
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(c.method, w.method);
        assert_eq!(c.outcome.is_verified(), w.outcome.is_verified());
        assert_eq!(c.num_vcs, w.num_vcs);
    }
    std::fs::remove_file(&cache).ok();
}

#[test]
fn pool_modes_report_identically_across_structures() {
    // One batch spanning several structure families plus a refuted method,
    // run through the structure pool: every method's report must equal the
    // sequential fresh-solver pipeline's — outcome kind and failing-VC
    // description, and VC count. Only solver-internal statistics
    // (conflicts, propagations, times, prelude reuse) may differ between
    // the two solving strategies.
    use intrinsic_verify::structures::trees;
    let sll = lists::singly_linked_list();
    let circ = lists::circular_list();
    let bst = trees::bst();
    let methods = |names: &[&str]| names.iter().map(|m| m.to_string()).collect::<Vec<_>>();
    let selections = vec![
        Selection {
            name: "Singly-Linked List",
            definition: &sll,
            methods_src: lists::SINGLY_LINKED_LIST_METHODS,
            methods: methods(&["set_key", "find"]),
        },
        Selection {
            name: "Singly-Linked List (buggy)",
            definition: &sll,
            methods_src: intrinsic_verify::structures::buggy::BUGGY_LIST_METHODS,
            methods: methods(&["insert_front_forgets_length"]),
        },
        Selection {
            name: "Circular List",
            definition: &circ,
            methods_src: lists::CIRCULAR_LIST_METHODS,
            methods: methods(&["rotate_entry", "set_node_key"]),
        },
        Selection {
            name: "Binary Search Tree",
            definition: &bst,
            methods_src: trees::BST_METHODS,
            methods: methods(&["bst_find_min"]),
        },
    ];
    let batch = verify_selections(
        &selections,
        &DriverConfig {
            jobs: 2,
            ..DriverConfig::default()
        },
    );
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    let mut reports = batch.reports.iter();
    for sel in &selections {
        let merged = load_methods(sel.definition, sel.methods_src).unwrap();
        for method in &sel.methods {
            let a = reports.next().expect("one report per selected method");
            let seq = verify_method_in(sel.definition, &merged, method, PipelineConfig::default())
                .unwrap();
            assert_eq!(a.structure, seq.structure);
            assert_eq!(a.method, seq.method);
            // Full outcome equality: kind *and* failing-VC description.
            assert_eq!(
                a.outcome, seq.outcome,
                "{}::{} diverged from the sequential pipeline",
                a.structure, a.method
            );
            assert_eq!(a.num_vcs, seq.num_vcs, "{}::{}", a.structure, a.method);
            // Stats-consistency: the pool did real solving work.
            if a.outcome.is_verified() {
                assert!(a.solver.theory_rounds > 0, "{}: {:?}", a.method, a.solver);
            }
        }
    }
    assert!(reports.next().is_none());
    assert_eq!(
        batch.stats.cache_hits + batch.stats.smt_queries + batch.stats.skipped_vcs,
        batch.stats.vcs,
        "{:?}",
        batch.stats
    );
    assert!(!batch.all_verified(), "the buggy method must fail");
}

#[test]
fn failing_methods_keep_failing_under_the_driver() {
    let ids = lists::singly_linked_list();
    let selections = vec![Selection {
        name: "Singly-Linked List (buggy)",
        definition: &ids,
        methods_src: intrinsic_verify::structures::buggy::BUGGY_LIST_METHODS,
        methods: vec![
            "insert_front_forgets_length".into(),
            "leaves_broken_set_nonempty".into(),
        ],
    }];
    let config = DriverConfig {
        jobs: 2,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    assert_eq!(batch.reports.len(), 2);
    for report in &batch.reports {
        assert!(
            !report.outcome.is_verified(),
            "{} must be refuted",
            report.method
        );
    }
    assert!(!batch.all_verified());
}

/// The incremental theory session asserts only the per-check delta: keeping
/// its trail across theory conflicts lets consecutive checks share the
/// prefix the SAT backjump kept. Pinned on SLL `insert_front`, whose VCs
/// take thousands of theory checks each; the solver is deterministic, so the
/// ratio is a fixed figure (0.0015 with a check at every propagation
/// fixpoint; 0.27 when the session was checked once per complete model).
#[test]
fn theory_session_asserts_only_the_delta() {
    let ids = lists::singly_linked_list();
    let selections = vec![Selection {
        name: "Singly-Linked List",
        definition: &ids,
        methods_src: lists::SINGLY_LINKED_LIST_METHODS,
        methods: vec!["insert_front".into()],
    }];
    let config = DriverConfig {
        jobs: 1,
        ..DriverConfig::default()
    };
    let batch = verify_selections(&selections, &config);
    assert!(batch.all_verified(), "{:?}", batch.errors);
    let stats = batch.stats.solver;
    assert!(stats.theory_rounds > 100, "{stats:?}");
    assert!(stats.theory_lits > 0, "{stats:?}");
    let ratio = stats.theory_lits_asserted as f64 / stats.theory_lits as f64;
    assert!(
        ratio < 0.5,
        "asserted {} of {} literals handed to the session ({ratio:.2})",
        stats.theory_lits_asserted,
        stats.theory_lits
    );
}
