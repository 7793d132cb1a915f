//! Linear arithmetic over rationals and integers: a general simplex solver in
//! the style of Dutertre–de Moura, using delta-rationals for strict
//! inequalities, plus branch-and-bound for integer variables.
//!
//! The solver is used in batch mode by the theory layer: all bounds derived
//! from the asserted arithmetic literals are loaded (each carrying a literal
//! *tag*), then [`Simplex::check`] either produces a satisfying assignment or
//! a conflict — a set of tags of jointly inconsistent bounds.

use std::collections::HashMap;

use crate::fxmap::FxHashMap;
use crate::rational::{DeltaRat, Rat};

/// A linear expression: a constant plus a sum of `coeff * variable` terms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinExpr {
    /// The constant offset.
    pub constant: Rat,
    /// Coefficients per arithmetic variable index (no zero entries).
    pub terms: HashMap<usize, Rat>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// The constant expression `c`.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            constant: c,
            terms: HashMap::new(),
        }
    }

    /// The expression consisting of a single variable.
    pub fn variable(v: usize) -> LinExpr {
        let mut terms = HashMap::new();
        terms.insert(v, Rat::ONE);
        LinExpr {
            constant: Rat::ZERO,
            terms,
        }
    }

    /// Adds `k * v` to the expression.
    pub fn add_term(&mut self, k: Rat, v: usize) {
        let entry = self.terms.entry(v).or_insert(Rat::ZERO);
        *entry += k;
        if entry.is_zero() {
            self.terms.remove(&v);
        }
    }

    /// True if the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The relation of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `expr <= 0`
    Le,
    /// `expr < 0`
    Lt,
    /// `expr = 0`
    Eq,
    /// `expr != 0` — handled by the caller via case splitting; the simplex
    /// core rejects it.
    Neq,
}

/// Result of an arithmetic consistency check.
#[derive(Clone, Debug)]
pub enum ArithOutcome {
    /// Satisfiable; maps every arithmetic variable to its value.
    Sat(Vec<DeltaRat>),
    /// Unsatisfiable; tags of a jointly inconsistent subset of constraints.
    Conflict(Vec<usize>),
    /// Resource limit reached (only possible with integer branching).
    Unknown,
}

const NO_TAG: usize = usize::MAX;

/// How the simplex picks its pivots.
///
/// Verdicts (and the *existence* of a conflict) are identical under every
/// rule; only the pivot count — and which of several valid conflict
/// explanations is returned — may differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PivotRule {
    /// Bland's rule: smallest-index violated basic variable, first eligible
    /// entering variable. Never cycles, but blind to progress — the legacy
    /// behaviour and the default for a bare [`Simplex`].
    #[default]
    Bland,
    /// Largest-violation leaving variable + largest-coefficient (Dantzig
    /// style) entering variable for the first `bland_after` pivots of the
    /// instance, then permanent fallback to Bland's rule. The fallback bounds
    /// the heuristic phase, so termination is inherited from Bland.
    Hybrid {
        /// Pivot count after which the instance switches to Bland's rule.
        bland_after: u64,
    },
}

impl PivotRule {
    /// The default heuristic phase length of the tuned profile.
    pub const DEFAULT_BLAND_AFTER: u64 = 512;

    /// The tuned hybrid rule with the default fallback threshold.
    pub fn hybrid() -> PivotRule {
        PivotRule::Hybrid {
            bland_after: PivotRule::DEFAULT_BLAND_AFTER,
        }
    }
}

#[derive(Clone, Debug)]
struct Bound {
    value: DeltaRat,
    tag: usize,
}

/// The simplex solver.
///
/// Variables are dense indices `0..num_vars`; the caller declares which are
/// integer-sorted. Constraints are added with [`Simplex::add_constraint`] and
/// the final consistency check is [`Simplex::check`].
#[derive(Clone, Debug, Default)]
pub struct Simplex {
    num_vars: usize,
    is_int: Vec<bool>,
    // Tableau: basic variable index -> row (coeffs over nonbasic variables).
    rows: FxHashMap<usize, FxHashMap<usize, Rat>>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    assignment: Vec<DeltaRat>,
    rule: PivotRule,
    /// Undo trail of bound tightenings: `(var, is_upper, previous bound)` per
    /// accepted tightening, in assertion order. [`Simplex::undo_to`] restores
    /// the recorded bounds in reverse, which is sound because assertions only
    /// ever *tighten*: restoring relaxes, so the current assignment (nonbasic
    /// variables at or within their bounds) stays valid and the tableau —
    /// equivalent under pivoting to the original defining equations — is
    /// untouched. This is what makes basis-preserving warm restarts possible:
    /// retracted rounds only roll back bound changes, never the basis.
    bound_trail: Vec<(usize, bool, Option<Bound>)>,
    /// Slack-variable reuse across warm-restart rounds, keyed by the sorted
    /// linear part of the defining expression (invariant under pivoting: the
    /// tableau always implies `s = linear part`, however the rows are
    /// currently arranged). `None` = disabled (the batch path, which drops
    /// the solver after one check, keeps its historical one-slack-per-call
    /// behaviour byte for byte).
    slack_of: Option<FxHashMap<Vec<(usize, Rat)>, usize>>,
    /// Pivot-count statistic.
    pub pivots: u64,
}

impl Simplex {
    /// Creates a solver with no variables, using Bland's pivot rule.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Creates a solver with an explicit pivot rule.
    pub fn with_rule(rule: PivotRule) -> Simplex {
        Simplex {
            rule,
            ..Simplex::default()
        }
    }

    /// True if a [`PivotRule::Hybrid`] instance has exhausted its heuristic
    /// phase and switched to Bland's rule.
    pub fn in_bland_fallback(&self) -> bool {
        match self.rule {
            PivotRule::Bland => false,
            PivotRule::Hybrid { bland_after } => self.pivots >= bland_after,
        }
    }

    /// Adds a variable; `is_int` marks it integer-sorted. Returns its index.
    pub fn new_var(&mut self, is_int: bool) -> usize {
        let v = self.num_vars;
        self.num_vars += 1;
        self.is_int.push(is_int);
        self.lower.push(None);
        self.upper.push(None);
        self.assignment.push(DeltaRat::ZERO);
        v
    }

    /// Number of variables (including internal slack variables).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Turns on slack-variable reuse: later constraints whose linear part
    /// matches an earlier one share its slack variable (and therefore combine
    /// their bounds on it) instead of allocating a fresh variable and row.
    /// Used by persistent theory sessions, where the same literal is asserted
    /// again after a retraction and must not grow the tableau each round.
    pub(crate) fn enable_slack_reuse(&mut self) {
        if self.slack_of.is_none() {
            self.slack_of = Some(FxHashMap::default());
        }
    }

    /// A restore point for [`Simplex::undo_to`]: the current length of the
    /// bound-undo trail.
    pub(crate) fn mark(&self) -> usize {
        self.bound_trail.len()
    }

    /// Restores every bound recorded after `mark`, in reverse order. The
    /// tableau, the assignment and any slack variables introduced since the
    /// mark are kept: a slack with no bounds can never participate in a
    /// conflict, and the assignment only becomes *more* feasible as bounds
    /// relax.
    pub(crate) fn undo_to(&mut self, mark: usize) {
        while self.bound_trail.len() > mark {
            let (x, is_upper, old) = self.bound_trail.pop().expect("trail above mark");
            if is_upper {
                self.upper[x] = old;
            } else {
                self.lower[x] = old;
            }
        }
    }

    /// Adds the constraint `expr rel 0` tagged with `tag`.
    /// Returns `Err(conflict)` on an immediately detected conflict.
    ///
    /// # Panics
    /// Panics if `rel` is [`Rel::Neq`] (the caller must case-split).
    pub fn add_constraint(
        &mut self,
        expr: &LinExpr,
        rel: Rel,
        tag: usize,
    ) -> Result<(), Vec<usize>> {
        if rel == Rel::Neq {
            panic!("Neq must be split by the caller")
        }
        if expr.is_constant() {
            let c = expr.constant;
            let ok = match rel {
                Rel::Le => c <= Rat::ZERO,
                Rel::Lt => c < Rat::ZERO,
                Rel::Eq => c.is_zero(),
                Rel::Neq => unreachable!(),
            };
            return if ok { Ok(()) } else { Err(vec![tag]) };
        }
        // Normalize to a bound on a single (possibly slack) variable:
        //   expr = constant + linear_part ;  linear_part rel -constant
        let var = if expr.terms.len() == 1 {
            let (&v, &c) = expr.terms.iter().next().unwrap();
            if c == Rat::ONE {
                Some((v, Rat::ONE))
            } else {
                Some((v, c))
            }
        } else {
            None
        };
        let (x, scale) = match var {
            Some((v, c)) => (v, c),
            None => {
                let key: Option<Vec<(usize, Rat)>> = self.slack_of.is_some().then(|| {
                    let mut k: Vec<(usize, Rat)> =
                        expr.terms.iter().map(|(&v, &c)| (v, c)).collect();
                    k.sort_unstable_by_key(|&(v, _)| v);
                    k
                });
                let reused = key
                    .as_ref()
                    .and_then(|k| self.slack_of.as_ref().and_then(|m| m.get(k)).copied());
                match reused {
                    Some(s) => (s, Rat::ONE),
                    None => {
                        // Introduce a slack variable s = linear part.
                        let s = self.new_var(false);
                        let mut row = FxHashMap::default();
                        for (&v, &c) in &expr.terms {
                            row.insert(v, c);
                        }
                        // Substitute any basic variables appearing in the new row.
                        let row = self.substitute_basics(row);
                        self.assignment[s] = self.row_value(&row);
                        self.rows.insert(s, row);
                        if let (Some(k), Some(m)) = (key, self.slack_of.as_mut()) {
                            m.insert(k, s);
                        }
                        (s, Rat::ONE)
                    }
                }
            }
        };
        // linear part = scale * x ; constraint: scale*x rel -constant
        let rhs = -expr.constant;
        let bound = rhs / scale;
        let flipped = scale.is_negative();
        match (rel, flipped) {
            (Rel::Eq, _) => {
                self.assert_upper(x, DeltaRat::from_rat(bound), tag)?;
                self.assert_lower(x, DeltaRat::from_rat(bound), tag)?;
            }
            (Rel::Le, false) => self.assert_upper(x, DeltaRat::from_rat(bound), tag)?,
            (Rel::Le, true) => self.assert_lower(x, DeltaRat::from_rat(bound), tag)?,
            (Rel::Lt, false) => self.assert_upper(x, DeltaRat::new(bound, -Rat::ONE), tag)?,
            (Rel::Lt, true) => self.assert_lower(x, DeltaRat::new(bound, Rat::ONE), tag)?,
            (Rel::Neq, _) => unreachable!(),
        }
        Ok(())
    }

    fn substitute_basics(&self, row: FxHashMap<usize, Rat>) -> FxHashMap<usize, Rat> {
        let mut out: FxHashMap<usize, Rat> = FxHashMap::default();
        for (v, c) in row {
            if let Some(basic_row) = self.rows.get(&v) {
                for (&w, &cw) in basic_row {
                    let e = out.entry(w).or_insert(Rat::ZERO);
                    *e += c * cw;
                }
            } else {
                let e = out.entry(v).or_insert(Rat::ZERO);
                *e += c;
            }
        }
        out.retain(|_, c| !c.is_zero());
        out
    }

    fn row_value(&self, row: &FxHashMap<usize, Rat>) -> DeltaRat {
        let mut val = DeltaRat::ZERO;
        for (&v, &c) in row {
            val = val + self.assignment[v].scale(c);
        }
        val
    }

    fn assert_upper(&mut self, x: usize, c: DeltaRat, tag: usize) -> Result<(), Vec<usize>> {
        if let Some(l) = &self.lower[x] {
            if c < l.value {
                return Err(vec![tag, l.tag]);
            }
        }
        let tighter = match &self.upper[x] {
            Some(u) => c < u.value,
            None => true,
        };
        if tighter {
            self.bound_trail.push((x, true, self.upper[x].take()));
            self.upper[x] = Some(Bound { value: c, tag });
            if !self.rows.contains_key(&x) && self.assignment[x] > c {
                self.update_nonbasic(x, c);
            }
        }
        Ok(())
    }

    fn assert_lower(&mut self, x: usize, c: DeltaRat, tag: usize) -> Result<(), Vec<usize>> {
        if let Some(u) = &self.upper[x] {
            if c > u.value {
                return Err(vec![tag, u.tag]);
            }
        }
        let tighter = match &self.lower[x] {
            Some(l) => c > l.value,
            None => true,
        };
        if tighter {
            self.bound_trail.push((x, false, self.lower[x].take()));
            self.lower[x] = Some(Bound { value: c, tag });
            if !self.rows.contains_key(&x) && self.assignment[x] < c {
                self.update_nonbasic(x, c);
            }
        }
        Ok(())
    }

    fn update_nonbasic(&mut self, x: usize, v: DeltaRat) {
        let delta = v - self.assignment[x];
        self.assignment[x] = v;
        let basics: Vec<usize> = self.rows.keys().copied().collect();
        for b in basics {
            if let Some(&c) = self.rows[&b].get(&x) {
                self.assignment[b] = self.assignment[b] + delta.scale(c);
            }
        }
    }

    /// Picks the violated basic variable to fix next: smallest index under
    /// Bland's rule, largest violation (ties to the smallest index) in the
    /// hybrid heuristic phase. Returns `(var, is_below_lower)`.
    /// The heuristic scan needs a *ranking*, not exact arithmetic: violation
    /// magnitudes are compared as lossy `f64` approximations (exact
    /// delta-rational subtraction would gcd-normalize on every candidate),
    /// with the smallest index breaking ties so the choice stays
    /// deterministic regardless of hash-map iteration order. A wrong ranking
    /// can only cost extra pivots, never correctness.
    fn violated_basic(&self, heuristic: bool) -> Option<(usize, bool)> {
        if !heuristic {
            // Bland: smallest violated index (the index order is what
            // guarantees cycle-freedom, so keep the sort).
            let mut basics: Vec<usize> = self.rows.keys().copied().collect();
            basics.sort_unstable();
            for b in basics {
                if let Some(l) = &self.lower[b] {
                    if self.assignment[b] < l.value {
                        return Some((b, true));
                    }
                }
                if let Some(u) = &self.upper[b] {
                    if self.assignment[b] > u.value {
                        return Some((b, false));
                    }
                }
            }
            return None;
        }
        let approx = |v: DeltaRat| -> f64 { v.real.to_f64() + 1e-9 * v.delta.to_f64() };
        let mut best: Option<(usize, bool, f64)> = None;
        for &b in self.rows.keys() {
            let violation = if let Some(l) = self.lower[b]
                .as_ref()
                .filter(|l| self.assignment[b] < l.value)
            {
                Some((true, approx(l.value) - approx(self.assignment[b])))
            } else {
                self.upper[b]
                    .as_ref()
                    .filter(|u| self.assignment[b] > u.value)
                    .map(|u| (false, approx(self.assignment[b]) - approx(u.value)))
            };
            let Some((below, amount)) = violation else {
                continue;
            };
            let better = match best {
                None => true,
                Some((bb, _, ba)) => amount > ba || (amount == ba && b < bb),
            };
            if better {
                best = Some((b, below, amount));
            }
        }
        best.map(|(b, below, _)| (b, below))
    }

    fn pivot_and_update(&mut self, xi: usize, xj: usize, v: DeltaRat) {
        self.pivots += 1;
        let aij = self.rows[&xi][&xj];
        let theta = (v - self.assignment[xi]).scale(aij.recip());
        self.assignment[xi] = v;
        self.assignment[xj] = self.assignment[xj] + theta;
        let basics: Vec<usize> = self.rows.keys().copied().collect();
        for b in basics {
            if b != xi {
                if let Some(&c) = self.rows[&b].get(&xj) {
                    self.assignment[b] = self.assignment[b] + theta.scale(c);
                }
            }
        }
        self.pivot(xi, xj);
    }

    fn pivot(&mut self, xi: usize, xj: usize) {
        // xi is basic with row R: xi = sum_k a_k x_k  (xj among them).
        let row = self.rows.remove(&xi).expect("pivot on basic var");
        let aij = row[&xj];
        // Solve for xj: xj = (1/aij) xi - sum_{k != j} (a_k/aij) x_k
        let mut new_row: FxHashMap<usize, Rat> = FxHashMap::default();
        new_row.insert(xi, aij.recip());
        for (&k, &a) in &row {
            if k != xj {
                new_row.insert(k, -(a / aij));
            }
        }
        // Substitute into all other rows.
        let keys: Vec<usize> = self.rows.keys().copied().collect();
        for b in keys {
            let coeff = self.rows[&b].get(&xj).copied();
            if let Some(c) = coeff {
                let mut r = self.rows[&b].clone();
                r.remove(&xj);
                for (&k, &a) in &new_row {
                    let e = r.entry(k).or_insert(Rat::ZERO);
                    *e += c * a;
                }
                r.retain(|_, v| !v.is_zero());
                self.rows.insert(b, r);
            }
        }
        self.rows.insert(xj, new_row);
    }

    /// Runs the simplex algorithm, then branch-and-bound if integer variables
    /// have fractional values.
    pub fn check(&mut self) -> ArithOutcome {
        match self.check_rational() {
            ArithOutcome::Sat(_) => self.branch_and_bound(0),
            other => other,
        }
    }

    fn check_rational(&mut self) -> ArithOutcome {
        let heartbeat_every = ids_obs::heartbeat_interval();
        loop {
            // Liveness for pivot blow-ups: the conflict-based cadence is
            // scaled up — pivots are much cheaper than SAT conflicts.
            if heartbeat_every != 0
                && self.pivots != 0
                && self.pivots.is_multiple_of(heartbeat_every * 4)
            {
                ids_obs::emit_heartbeat(ids_obs::Heartbeat {
                    pivots: self.pivots,
                    ..ids_obs::Heartbeat::default()
                });
            }
            // Heuristic pivoting runs only while the hybrid rule's budget
            // lasts; afterwards every choice follows Bland's rule, which
            // cannot cycle, so the loop terminates under either rule.
            let heuristic = match self.rule {
                PivotRule::Bland => false,
                PivotRule::Hybrid { bland_after } => self.pivots < bland_after,
            };
            let (xi, below) = match self.violated_basic(heuristic) {
                None => return ArithOutcome::Sat(self.assignment.clone()),
                Some(v) => v,
            };
            let row: Vec<(usize, Rat)> = {
                let mut r: Vec<(usize, Rat)> =
                    self.rows[&xi].iter().map(|(&k, &v)| (k, v)).collect();
                r.sort_unstable_by_key(|&(k, _)| k);
                r
            };
            let target = if below {
                self.lower[xi].as_ref().unwrap().value
            } else {
                self.upper[xi].as_ref().unwrap().value
            };
            // `xi` must move towards `target`; a nonbasic `xj` with
            // coefficient `a` can absorb that move iff it has slack in the
            // required direction.
            let needs_increase = |a: Rat| -> bool {
                if below {
                    a.is_positive()
                } else {
                    a.is_negative()
                }
            };
            let mut pivot_var: Option<(usize, Rat)> = None;
            for &(xj, a) in &row {
                let can = if needs_increase(a) {
                    self.upper[xj]
                        .as_ref()
                        .is_none_or(|u| self.assignment[xj] < u.value)
                } else {
                    self.lower[xj]
                        .as_ref()
                        .is_none_or(|l| self.assignment[xj] > l.value)
                };
                if !can {
                    continue;
                }
                if !heuristic {
                    // Bland: first eligible index (the row is index-sorted).
                    pivot_var = Some((xj, a));
                    break;
                }
                // Dantzig style: largest |coefficient| moves the violated
                // variable furthest per unit of xj (ties to smallest index).
                if pivot_var.is_none_or(|(_, best)| a.abs() > best.abs()) {
                    pivot_var = Some((xj, a));
                }
            }
            match pivot_var {
                Some((xj, _)) => self.pivot_and_update(xi, xj, target),
                None => {
                    // Conflict: the violated bound of xi plus, per column,
                    // the bound that blocks the required movement.
                    let own = if below {
                        self.lower[xi].as_ref().unwrap().tag
                    } else {
                        self.upper[xi].as_ref().unwrap().tag
                    };
                    let mut tags = vec![own];
                    for &(xj, a) in &row {
                        if needs_increase(a) {
                            tags.push(self.upper[xj].as_ref().unwrap().tag);
                        } else {
                            tags.push(self.lower[xj].as_ref().unwrap().tag);
                        }
                    }
                    tags.retain(|&t| t != NO_TAG);
                    tags.sort_unstable();
                    tags.dedup();
                    return ArithOutcome::Conflict(tags);
                }
            }
        }
    }

    fn branch_and_bound(&mut self, depth: usize) -> ArithOutcome {
        const MAX_DEPTH: usize = 60;
        let assignment = match self.check_rational() {
            ArithOutcome::Sat(a) => a,
            other => return other,
        };
        // Find an integer variable with a fractional (or infinitesimal) value.
        let frac = (0..self.num_vars).find(|&v| {
            self.is_int[v] && (!assignment[v].delta.is_zero() || !assignment[v].real.is_integer())
        });
        let v = match frac {
            None => return ArithOutcome::Sat(assignment),
            Some(v) => v,
        };
        if std::env::var("IDS_SMT_DEBUG").is_ok() {
            eprintln!("BB depth={} var={} val={}", depth, v, assignment[v]);
        }
        if depth >= MAX_DEPTH {
            return ArithOutcome::Unknown;
        }
        let val = assignment[v];
        // The two branches x <= floor(val) and x >= floor(val) + 1. For values
        // with a negative delta at an integer point, floor of the real part
        // still gives the right split.
        let fl = if val.delta.is_negative() && val.real.is_integer() {
            val.real.floor() - 1
        } else {
            val.real.floor()
        };
        // Branch order heuristic: if the infinitesimal pushes the value
        // upwards (a strict lower bound is active), explore the "round up"
        // branch first — this avoids chasing unbounded descents when the
        // fractional value keeps shifting between variables.
        let up_first = val.delta.is_positive();
        // Branches run on a clone; the clone's pivot count (which started at
        // the parent's) is folded back so `pivots` reports the whole tree.
        let run_branch = |this: &mut Simplex, up: bool| -> ArithOutcome {
            let mut s = this.clone();
            let asserted = if up {
                s.assert_lower(v, DeltaRat::from_rat(Rat::from_int(fl + 1)), NO_TAG)
            } else {
                s.assert_upper(v, DeltaRat::from_rat(Rat::from_int(fl)), NO_TAG)
            };
            let out = match asserted {
                Err(mut tags) => {
                    tags.retain(|&t| t != NO_TAG);
                    ArithOutcome::Conflict(tags)
                }
                Ok(()) => s.branch_and_bound(depth + 1),
            };
            this.pivots = s.pivots;
            out
        };
        let first_out = run_branch(self, up_first);
        if let ArithOutcome::Sat(a) = first_out {
            return ArithOutcome::Sat(a);
        }
        let second_out = run_branch(self, !up_first);
        let (left_out, right_out) = (first_out, second_out);
        match (left_out, right_out) {
            (ArithOutcome::Unknown, _) | (_, ArithOutcome::Unknown) => ArithOutcome::Unknown,
            (ArithOutcome::Sat(a), _) | (_, ArithOutcome::Sat(a)) => ArithOutcome::Sat(a),
            (ArithOutcome::Conflict(mut t1), ArithOutcome::Conflict(t2)) => {
                t1.extend(t2);
                t1.retain(|&t| t != NO_TAG);
                t1.sort_unstable();
                t1.dedup();
                ArithOutcome::Conflict(t1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(s: &mut Simplex, terms: &[(i128, usize)], rhs: i128, tag: usize) {
        // sum terms <= rhs  ==>  sum terms - rhs <= 0
        let mut e = LinExpr::constant(Rat::from_int(-rhs));
        for &(c, v) in terms {
            e.add_term(Rat::from_int(c), v);
        }
        s.add_constraint(&e, Rel::Le, tag).unwrap();
    }

    #[test]
    fn simple_feasible() {
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let y = s.new_var(false);
        le(&mut s, &[(1, x), (1, y)], 10, 0);
        le(&mut s, &[(-1, x)], -2, 1); // x >= 2
        le(&mut s, &[(-1, y)], -3, 2); // y >= 3
        assert!(matches!(s.check(), ArithOutcome::Sat(_)));
    }

    #[test]
    fn simple_infeasible_with_core() {
        // The conflict between two direct bounds is detected either eagerly at
        // assertion time or by the check; either way the core is {0, 1}.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        s.add_constraint(&e1, Rel::Le, 0).unwrap(); // x <= 1
        let mut e2 = LinExpr::constant(Rat::from_int(5));
        e2.add_term(-Rat::ONE, x);
        let tags = match s.add_constraint(&e2, Rel::Le, 1) {
            Err(tags) => tags,
            Ok(()) => match s.check() {
                ArithOutcome::Conflict(tags) => tags,
                other => panic!("expected conflict, got {:?}", other),
            },
        };
        let mut tags = tags;
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1]);
    }

    #[test]
    fn chain_infeasible() {
        // x <= y, y <= z, z <= x - 1 : infeasible.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let y = s.new_var(false);
        let z = s.new_var(false);
        le(&mut s, &[(1, x), (-1, y)], 0, 0);
        le(&mut s, &[(1, y), (-1, z)], 0, 1);
        le(&mut s, &[(1, z), (-1, x)], -1, 2);
        match s.check() {
            ArithOutcome::Conflict(tags) => {
                assert_eq!(tags, vec![0, 1, 2]);
            }
            other => panic!("expected conflict, got {:?}", other),
        }
    }

    #[test]
    fn strict_inequality() {
        // x < 1 and x > 0 is satisfiable over rationals.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        s.add_constraint(&e1, Rel::Lt, 0).unwrap(); // x - 1 < 0
        let mut e2 = LinExpr::zero();
        e2.add_term(-Rat::ONE, x);
        s.add_constraint(&e2, Rel::Lt, 1).unwrap(); // -x < 0
        assert!(matches!(s.check(), ArithOutcome::Sat(_)));
    }

    #[test]
    fn strict_cycle_infeasible() {
        // x < y and y < x.
        let mut s = Simplex::new();
        let x = s.new_var(false);
        let y = s.new_var(false);
        let mut e1 = LinExpr::zero();
        e1.add_term(Rat::ONE, x);
        e1.add_term(-Rat::ONE, y);
        s.add_constraint(&e1, Rel::Lt, 0).unwrap();
        let mut e2 = LinExpr::zero();
        e2.add_term(Rat::ONE, y);
        e2.add_term(-Rat::ONE, x);
        s.add_constraint(&e2, Rel::Lt, 1).unwrap();
        assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
    }

    #[test]
    fn integer_branching() {
        // 0 < x < 1 with x integer: infeasible; over rationals feasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        s.add_constraint(&e1, Rel::Lt, 0).unwrap();
        let mut e2 = LinExpr::zero();
        e2.add_term(-Rat::ONE, x);
        s.add_constraint(&e2, Rel::Lt, 1).unwrap();
        assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
    }

    #[test]
    fn integer_feasible() {
        // 2x + 3y = 12, x >= 1, y >= 1 has integer solution x=3,y=2.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let mut e = LinExpr::constant(Rat::from_int(-12));
        e.add_term(Rat::from_int(2), x);
        e.add_term(Rat::from_int(3), y);
        s.add_constraint(&e, Rel::Eq, 0).unwrap();
        le(&mut s, &[(-1, x)], -1, 1);
        le(&mut s, &[(-1, y)], -1, 2);
        match s.check() {
            ArithOutcome::Sat(a) => {
                assert!(a[x].real.is_integer() && a[x].delta.is_zero());
                assert!(a[y].real.is_integer() && a[y].delta.is_zero());
            }
            other => panic!("expected sat, got {:?}", other),
        }
    }

    #[test]
    fn equality_propagation_style() {
        // x = y + 1, y = z + 1, x = z : infeasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let z = s.new_var(true);
        let mut e1 = LinExpr::constant(Rat::from_int(-1));
        e1.add_term(Rat::ONE, x);
        e1.add_term(-Rat::ONE, y);
        s.add_constraint(&e1, Rel::Eq, 0).unwrap();
        let mut e2 = LinExpr::constant(Rat::from_int(-1));
        e2.add_term(Rat::ONE, y);
        e2.add_term(-Rat::ONE, z);
        s.add_constraint(&e2, Rel::Eq, 1).unwrap();
        let mut e3 = LinExpr::zero();
        e3.add_term(Rat::ONE, x);
        e3.add_term(-Rat::ONE, z);
        s.add_constraint(&e3, Rel::Eq, 2).unwrap();
        assert!(matches!(s.check(), ArithOutcome::Conflict(_)));
    }
}
