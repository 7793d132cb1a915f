//! Seeded `assert false;` mutants of registry methods.
//!
//! A mutant is the method file re-printed with one `assert false;` inserted
//! into the straight-line top-level prefix of one method's body. The prefix
//! ends at the first top-level `if`, `while` or `return`, so the inserted
//! assertion is reached on every path that gets past the method's
//! preconditions: its VC is refutable, and the mutant's known answer is
//! Refuted.

use ids_ivl::{parse_program, program_to_string, Block, Expr, Stmt};

/// A small deterministic generator (SplitMix64): the same seed always yields
/// the same stream, on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated mutant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutant {
    /// The mutated method.
    pub method: String,
    /// Where `assert false;` was inserted among the body's top-level statements.
    pub index: usize,
    /// The whole method file, re-printed with the mutation.
    pub source: String,
}

/// Number of leading top-level statements of `body` that are straight-line
/// code (no branching, looping or early return).
pub fn straight_line_prefix(body: &Block) -> usize {
    body.stmts
        .iter()
        .take_while(|s| !matches!(s, Stmt::If { .. } | Stmt::While { .. } | Stmt::Return))
        .count()
}

/// Inserts `assert false;` into `method` of the method file `src` before
/// top-level statement `index` of its body (`index` may equal the length of
/// the straight-line prefix: right after its last statement).
pub fn mutate(src: &str, method: &str, index: usize) -> Result<Mutant, String> {
    let mut program = parse_program(src).map_err(|e| e.to_string())?;
    let body = program
        .procedures
        .iter_mut()
        .find(|p| p.name == method)
        .and_then(|p| p.body.as_mut())
        .ok_or_else(|| format!("no method body '{method}'"))?;
    if index > straight_line_prefix(body) {
        return Err(format!(
            "{method}: index {index} is past the straight-line prefix"
        ));
    }
    body.stmts.insert(index, Stmt::Assert(Expr::BoolLit(false)));
    Ok(Mutant {
        method: method.to_string(),
        index,
        source: program_to_string(&program),
    })
}

/// Every mutant of `method`, one per insertion index of its straight-line
/// prefix, in index order.
pub fn all_mutants(src: &str, method: &str) -> Result<Vec<Mutant>, String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let body = program
        .procedure(method)
        .and_then(|p| p.body.as_ref())
        .ok_or_else(|| format!("no method body '{method}'"))?;
    (0..=straight_line_prefix(body))
        .map(|index| mutate(src, method, index))
        .collect()
}
