//! Bounded quantifier handling for the *quantified* (Dafny-style) encoding
//! used in the paper's RQ3 comparison.
//!
//! The decidable FWYB pipeline never produces quantifiers; this module exists
//! only so the repository can reproduce the experiment that contrasts
//! decidable verification conditions with the quantifier-laden conditions a
//! Dafny-like frontend generates for allocation and frame reasoning.
//!
//! Strategy: polarity-directed ground instantiation.
//! * a `forall` in *negative* polarity is Skolemized (bound variables replaced
//!   by fresh constants) — sound and complete;
//! * a `forall` in *positive* polarity is replaced by the finite conjunction of
//!   its instances over all ground terms of the bound sorts occurring in the
//!   problem (several rounds, with a cap) — sound for `Unsat` answers but
//!   incomplete, which is exactly the predictability gap the paper criticises.

use std::collections::HashMap;

use crate::term::{Op, Sort, TermId, TermManager};

/// Configuration of the instantiation engine.
#[derive(Clone, Copy, Debug)]
pub struct QuantConfig {
    /// Number of instantiation rounds.
    pub rounds: usize,
    /// Maximum number of instances generated per `forall` occurrence per round.
    pub max_instances_per_forall: usize,
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig {
            rounds: 2,
            max_instances_per_forall: 2000,
        }
    }
}

/// Eliminates quantifiers from the assertions by Skolemization and bounded
/// ground instantiation.
///
/// Returns the new assertion list plus a flag that is true when the
/// elimination was *approximate* (some positive `forall` was replaced by a
/// finite instantiation, or a quantifier could not be handled): in that case a
/// `Sat` answer on the result does not transfer back to the original formula,
/// while `Unsat` does.
pub fn eliminate_quantifiers(
    tm: &mut TermManager,
    assertions: &[TermId],
    config: QuantConfig,
) -> (Vec<TermId>, bool) {
    let mut current: Vec<TermId> = assertions.to_vec();
    let mut approximate = false;
    for _ in 0..config.rounds.max(1) {
        if current.iter().all(|&a| !contains_forall(tm, a)) {
            break;
        }
        let pool = ground_pool(tm, &current);
        current = current
            .iter()
            .map(|&a| transform(tm, a, true, &pool, &config, &mut approximate))
            .collect();
    }
    if current.iter().any(|&a| contains_forall(tm, a)) {
        approximate = true;
    }
    (current, approximate)
}

/// Returns true if the term contains a `forall`.
pub fn contains_forall(tm: &TermManager, t: TermId) -> bool {
    tm.subterms(&[t])
        .iter()
        .any(|&s| matches!(tm.term(s).op, Op::Forall(_)))
}

fn ground_pool(tm: &TermManager, roots: &[TermId]) -> HashMap<Sort, Vec<TermId>> {
    let mut pool: HashMap<Sort, Vec<TermId>> = HashMap::new();
    // Names of variables bound anywhere — excluded from the pool, since they
    // are not ground.
    let mut bound_names: Vec<String> = Vec::new();
    for t in tm.subterms(roots) {
        if let Op::Forall(bound) = &tm.term(t).op {
            bound_names.extend(bound.iter().map(|(n, _)| n.clone()));
        }
    }
    for t in tm.subterms(roots) {
        let term = tm.term(t);
        // A pooled term must not mention any bound variable anywhere inside.
        let mentions_bound = tm.subterms(&[t]).iter().any(|&s| match &tm.term(s).op {
            Op::Var(n) => bound_names.contains(n),
            _ => false,
        });
        let is_groundish = term.args.is_empty() || matches!(term.op, Op::Select | Op::App(_));
        if !mentions_bound
            && is_groundish
            && matches!(term.sort, Sort::Loc | Sort::Int | Sort::Real)
        {
            let v = pool.entry(term.sort.clone()).or_default();
            if !v.contains(&t) {
                v.push(t);
            }
        }
    }
    pool
}

fn transform(
    tm: &mut TermManager,
    t: TermId,
    positive: bool,
    pool: &HashMap<Sort, Vec<TermId>>,
    config: &QuantConfig,
    approximate: &mut bool,
) -> TermId {
    let term = tm.term(t).clone();
    match &term.op {
        Op::Forall(bound) => {
            let body = term.args[0];
            if positive {
                // Instantiate over all tuples from the pool (bounded).
                *approximate = true;
                let mut instances = Vec::new();
                let tuples = cartesian(tm, bound, pool);
                for subst in tuples.into_iter().take(config.max_instances_per_forall) {
                    let inst = tm.substitute(body, &subst);
                    let inst = transform(tm, inst, positive, pool, config, approximate);
                    instances.push(inst);
                }
                if instances.is_empty() {
                    tm.tru()
                } else {
                    tm.and(instances)
                }
            } else {
                // Skolemize: replace bound variables by fresh constants.
                let mut subst = HashMap::new();
                for (name, sort) in bound {
                    let sk = tm.fresh_var(&format!("sk_{}", name), sort.clone());
                    subst.insert(name.clone(), sk);
                }
                let inst = tm.substitute(body, &subst);
                transform(tm, inst, positive, pool, config, approximate)
            }
        }
        Op::Not => {
            let inner = transform(tm, term.args[0], !positive, pool, config, approximate);
            tm.not(inner)
        }
        Op::Implies => {
            let lhs = transform(tm, term.args[0], !positive, pool, config, approximate);
            let rhs = transform(tm, term.args[1], positive, pool, config, approximate);
            tm.implies(lhs, rhs)
        }
        Op::And | Op::Or => {
            let args: Vec<TermId> = term
                .args
                .iter()
                .map(|&a| transform(tm, a, positive, pool, config, approximate))
                .collect();
            if term.op == Op::And {
                tm.and(args)
            } else {
                tm.or(args)
            }
        }
        Op::Iff | Op::Ite => {
            // Mixed polarity below — only safe if quantifier-free below; the
            // caller marks the run approximate if a quantifier survives.
            t
        }
        _ => t,
    }
}

fn cartesian(
    tm: &TermManager,
    bound: &[(String, Sort)],
    pool: &HashMap<Sort, Vec<TermId>>,
) -> Vec<HashMap<String, TermId>> {
    let _ = tm;
    let mut result: Vec<HashMap<String, TermId>> = vec![HashMap::new()];
    for (name, sort) in bound {
        let candidates = pool.get(sort).cloned().unwrap_or_default();
        let mut next = Vec::new();
        for partial in &result {
            for &c in &candidates {
                let mut m = partial.clone();
                m.insert(name.clone(), c);
                next.push(m);
            }
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;
    use crate::solver::{Solver, SolverConfig};

    #[test]
    fn positive_forall_instantiation_proves() {
        // forall x. p(x)   together with   not p(a)   is unsat.
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::Loc);
        let bx = tm.var("x", Sort::Loc);
        let px = tm.app("p", vec![bx], Sort::Bool);
        let all = tm.forall(vec![("x".into(), Sort::Loc)], px);
        let pa = tm.app("p", vec![a], Sort::Bool);
        let npa = tm.not(pa);
        let mut solver = Solver::with_config(SolverConfig::quantified());
        assert_eq!(solver.check(&mut tm, &[all, npa]), SatResult::Unsat);
    }

    #[test]
    fn positive_forall_instantiation_never_yields_sat() {
        // forall x. p(x)   together with   p(a)   is satisfiable, but a model
        // of the finitely many instances need not satisfy the quantifier.
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::Loc);
        let bx = tm.var("x", Sort::Loc);
        let px = tm.app("p", vec![bx], Sort::Bool);
        let all = tm.forall(vec![("x".into(), Sort::Loc)], px);
        let pa = tm.app("p", vec![a], Sort::Bool);
        let mut solver = Solver::with_config(SolverConfig::quantified());
        assert_eq!(solver.check(&mut tm, &[all, pa]), SatResult::Unknown);
        // Validity: (forall x. p(x)) -> p(a) holds, while the invalid
        // (forall x. p(x)) -> q(a) is Unknown, not a counterexample.
        let valid = tm.implies(all, pa);
        assert_eq!(solver.check_valid(&mut tm, valid), SatResult::Sat);
        let qa = tm.app("q", vec![a], Sort::Bool);
        let invalid = tm.implies(all, qa);
        assert_eq!(solver.check_valid(&mut tm, invalid), SatResult::Unknown);
    }

    #[test]
    fn negative_forall_skolemizes() {
        // not (forall x. p(x))  alone is satisfiable.
        let mut tm = TermManager::new();
        let bx = tm.var("x", Sort::Loc);
        let px = tm.app("p", vec![bx], Sort::Bool);
        let all = tm.forall(vec![("x".into(), Sort::Loc)], px);
        let nall = tm.not(all);
        let mut solver = Solver::with_config(SolverConfig::quantified());
        assert_eq!(solver.check(&mut tm, &[nall]), SatResult::Sat);
    }

    #[test]
    fn frame_style_quantifier() {
        // forall i. i != x -> f'(i) = f(i),  together with  y != x and
        // f'(y) != f(y)  is unsat.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let i = tm.var("i", Sort::Loc);
        let fi = tm.app("f", vec![i], Sort::Int);
        let fpi = tm.app("fp", vec![i], Sort::Int);
        let ne = tm.neq(i, x);
        let eq = tm.eq(fpi, fi);
        let body = tm.implies(ne, eq);
        let frame = tm.forall(vec![("i".into(), Sort::Loc)], body);
        let fy = tm.app("f", vec![y], Sort::Int);
        let fpy = tm.app("fp", vec![y], Sort::Int);
        let ne_xy = tm.neq(y, x);
        let ne_f = tm.neq(fpy, fy);
        let mut solver = Solver::with_config(SolverConfig::quantified());
        assert_eq!(
            solver.check(&mut tm, &[frame, ne_xy, ne_f]),
            SatResult::Unsat
        );
    }
}
