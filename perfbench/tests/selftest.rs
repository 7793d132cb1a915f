//! Self-tests of the benchmark: its inputs are deterministic and well-formed,
//! its answer table covers the registry, and its exact counts repeat.

use ids_core::pipeline::{load_methods, prepare_method_in, MethodTask, PipelineConfig};
use ids_driver::verify_selections;
use ids_perfbench::mutants::{all_mutants, mutate, straight_line_prefix};
use ids_perfbench::run::{
    driver_config, exact_counts, selections, traced_pass, traced_prepare, Score,
};
use ids_perfbench::workloads::{
    build, known_answer, Answer, Batch, Registry, Unit, BUGGY_LABEL, HEAVY_TAIL, WORKLOADS,
};
use ids_vcgen::Encoding;

#[test]
fn workloads_are_deterministic_in_the_seed() {
    let registry = Registry::load();
    for name in WORKLOADS {
        let a = build(name, 7, &registry).unwrap();
        let b = build(name, 7, &Registry::load()).unwrap();
        let sources = |w: &ids_perfbench::workloads::Workload| -> Vec<(String, String)> {
            w.batches
                .iter()
                .flat_map(|b| b.units.iter().map(|u| (u.label.clone(), u.source.clone())))
                .collect()
        };
        assert_eq!(
            sources(&a),
            sources(&b),
            "{name}: same seed, different inputs"
        );
        for batch in &a.batches {
            let mut labels: Vec<&str> = batch.units.iter().map(|u| u.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(
                labels.len(),
                batch.units.len(),
                "{name}: unit labels of {} repeat; errors could not be told apart",
                batch.label
            );
        }
        let c = build(name, 8, &registry).unwrap();
        let order = |w: &ids_perfbench::workloads::Workload| -> Vec<String> {
            w.batches.iter().map(|b| b.label.clone()).collect()
        };
        assert_ne!(
            order(&a),
            order(&c),
            "{name}: the seed does not reach the inputs"
        );
    }
}

#[test]
fn every_mutant_typechecks_and_differs_by_one_assert_false() {
    let registry = Registry::load();
    let workload = build("refute_mutants", 3, &registry).unwrap();
    let mut mutants = 0;
    for batch in &workload.batches {
        for unit in &batch.units {
            let definition = registry.definition(unit.structure);
            load_methods(definition, &unit.source)
                .unwrap_or_else(|e| panic!("{} does not typecheck: {e}", unit.label));
            if batch.label == BUGGY_LABEL {
                continue;
            }
            mutants += 1;
            assert_eq!(unit.methods.len(), 1);
            assert_eq!(unit.methods[0].1, Answer::Refuted);
            let original = &registry.benchmarks[unit.structure];
            let count = |src: &str| src.matches("assert false;").count();
            assert_eq!(count(&unit.source), count(original.methods_src) + 1);
        }
    }
    // One mutant per insertion index of every straight-line prefix.
    assert_eq!(mutants, 104);
}

#[test]
fn mutate_rejects_an_index_past_the_prefix() {
    let registry = Registry::load();
    let b = &registry.benchmarks[0];
    let program = ids_ivl::parse_program(b.methods_src).unwrap();
    let body = program.procedure("find").unwrap().body.as_ref().unwrap();
    let n = straight_line_prefix(body);
    assert!(mutate(b.methods_src, "find", n).is_ok());
    assert!(mutate(b.methods_src, "find", n + 1).is_err());
    assert_eq!(all_mutants(b.methods_src, "find").unwrap().len(), n + 1);
}

#[test]
fn known_answers_cover_the_registry_and_buggy_methods() {
    let registry = Registry::load();
    for b in &registry.benchmarks {
        for m in &b.methods {
            assert_eq!(
                known_answer(b.name, m),
                Ok(Answer::Valid),
                "{}::{m}",
                b.name
            );
        }
    }
    for &(structure, method) in HEAVY_TAIL {
        assert_eq!(known_answer(structure, method), Ok(Answer::Valid));
    }
    let buggy = ids_ivl::parse_program(ids_structures::buggy::BUGGY_LIST_METHODS).unwrap();
    for p in &buggy.procedures {
        assert_eq!(known_answer(BUGGY_LABEL, &p.name), Ok(Answer::Refuted));
    }
}

/// Two runs of one seed over a cheap slice of a workload: every count the
/// benchmark reports as exact must come out identical.
fn counts_repeat(workload: &str, keep: &[&str]) {
    let mut runs = Vec::new();
    let mut encoding = None;
    for _ in 0..2 {
        let registry = Registry::load();
        let mut w = build(workload, 5, &registry).unwrap();
        w.batches.retain(|b| keep.contains(&b.label.as_str()));
        assert_eq!(w.batches.len(), keep.len());
        encoding = Some(w.encoding);
        let config = driver_config(w.encoding, None);
        let mut score = Score::default();
        let (_, _, layers, _) = traced_pass(&registry, &w, &config, &mut score).unwrap();
        assert_eq!(score.failed, 0, "{:?}", score.problems);
        runs.push(layers);
    }
    for name in exact_counts(encoding.unwrap()) {
        assert!(runs[0][name] > 0.0, "{workload}: {name} is zero");
        assert_eq!(runs[0][name], runs[1][name], "{workload}: {name} differs");
    }
}

#[test]
fn exact_counts_repeat_across_runs_of_one_seed() {
    counts_repeat("cold_mid", &["Red-Black Tree", "Circular List"]);
    counts_repeat("refute_mutants", &["Treap", BUGGY_LABEL]);
    counts_repeat("quantified_rq3", &["Red-Black Tree", "Treap"]);
}

/// Several units of one batch can hold the same method name; each must be
/// scored against its own report, and a unit that fails to load must count
/// as failed.
#[test]
fn score_pairs_each_unit_with_its_own_report() {
    let registry = Registry::load();
    let sll = registry
        .benchmarks
        .iter()
        .position(|b| b.name == "Singly-Linked List")
        .unwrap();
    let src = registry.benchmarks[sll].methods_src;
    let unit = |label: &str, source: String, answer| Unit {
        label: label.to_string(),
        structure: sll,
        source,
        methods: vec![("find".to_string(), answer)],
    };
    let batch = Batch {
        label: "Singly-Linked List".to_string(),
        units: vec![
            unit("find", src.to_string(), Answer::Valid),
            // Deliberately wrong: the mutant is refuted.
            unit(
                "find +assert false @0",
                mutate(src, "find", 0).unwrap().source,
                Answer::Valid,
            ),
            unit("unparsable", "procedure find(".to_string(), Answer::Valid),
        ],
    };
    let report = verify_selections(
        &selections(&registry, &batch),
        &driver_config(Encoding::Decidable, None),
    );
    assert_eq!(report.reports.len(), 2);
    let mut score = Score::default();
    score.add(&batch, &report);
    assert_eq!(
        (score.attempted, score.failed),
        (3, 2),
        "{:?}",
        score.problems
    );
    assert!(score.problems[0].contains("@0"), "{:?}", score.problems);
}

/// What `verify_tasks` would be handed, without the term manager's contents
/// and the prepare time.
fn task_fingerprint(t: &MethodTask) -> String {
    let keys: Vec<u128> = (0..t.num_vcs()).map(|vi| t.vc_key(vi)).collect();
    format!(
        "{:?}",
        (
            (
                &t.structure,
                &t.method,
                keys,
                &t.vcs,
                &t.hypotheses,
                t.tm.len()
            ),
            (t.encoding, t.profile, &t.slice_hints),
            (t.loc, t.spec, t.annotations, t.lc_size),
            (&t.wellbehaved_violations, &t.ghost_violations),
        )
    )
}

/// The traced pass builds its tasks step by step; they must be the tasks
/// `verify_selections` builds through `prepare_method_in`.
#[test]
fn traced_prepare_matches_prepare_method_in() {
    let registry = Registry::load();
    for name in WORKLOADS {
        let workload = build(name, 2, &registry).unwrap();
        let config = PipelineConfig {
            encoding: workload.encoding,
            profile: driver_config(workload.encoding, None).solver_profile,
            ..PipelineConfig::default()
        };
        for batch in &workload.batches {
            let traced = traced_prepare(&registry, batch, config).unwrap();
            let mut driver = Vec::new();
            for unit in &batch.units {
                let definition = registry.definition(unit.structure);
                let merged = load_methods(definition, &unit.source).unwrap();
                for (method, _) in &unit.methods {
                    driver.push(prepare_method_in(definition, &merged, method, config).unwrap());
                }
            }
            let prints =
                |tasks: &[MethodTask]| tasks.iter().map(task_fingerprint).collect::<Vec<_>>();
            assert_eq!(prints(&traced), prints(&driver), "{name}: {}", batch.label);
        }
    }
}
