//! Ablation bench for a design choice called out in DESIGN.md: **per-assert
//! VC splitting vs. one monolithic VC** — the pipeline mirrors Boogie's
//! split-on-every-assert discipline; the ablation conjoins every
//! verification condition of a method into a single validity query.
//!
//! The ablation runs on a small, fast benchmark method so that Criterion can
//! afford several samples.

use criterion::{criterion_group, criterion_main, Criterion};
use ids_core::fwyb::expand_program;
use ids_ivl::parse_program;
use ids_smt::{SatResult, Solver, SolverConfig, TermManager};
use ids_structures::lists;
use ids_vcgen::{Encoding, VcGen};

/// Expands one benchmark method and returns its verification conditions in a
/// fresh term manager.
fn vcs_of(method: &str) -> (TermManager, Vec<ids_smt::TermId>) {
    let ids = lists::singly_linked_list();
    let methods = parse_program(lists::SINGLY_LINKED_LIST_METHODS).expect("parse");
    let expanded = expand_program(&ids, &methods).expect("expand");
    let mut tm = TermManager::new();
    let vcgen = VcGen::new(&expanded, Encoding::Decidable);
    let vcs = vcgen.vcs_for(&mut tm, method).expect("vcs");
    let formulas = vcs.iter().map(|vc| vc.formula).collect();
    (tm, formulas)
}

fn check_all_valid(tm: &mut TermManager, formulas: &[ids_smt::TermId], config: SolverConfig) {
    for &f in formulas {
        let mut solver = Solver::with_config(config);
        assert_eq!(
            solver.check_valid(tm, f),
            SatResult::Sat,
            "VC must be valid"
        );
    }
}

fn split_vs_monolithic_vcs(c: &mut Criterion) {
    let (tm, formulas) = vcs_of("set_key");
    let mut g = c.benchmark_group("ablation/vc-splitting");
    g.sample_size(10);
    g.bench_function("per-assert-split", |b| {
        b.iter(|| {
            let mut tm = tm.clone();
            check_all_valid(&mut tm, &formulas, SolverConfig::default());
        })
    });
    g.bench_function("monolithic", |b| {
        b.iter(|| {
            let mut tm = tm.clone();
            let conj = tm.and(formulas.clone());
            let mut solver = Solver::new();
            assert_eq!(solver.check_valid(&mut tm, conj), SatResult::Sat);
        })
    });
    g.finish();
}

criterion_group!(benches, split_vs_monolithic_vcs);
criterion_main!(benches);
