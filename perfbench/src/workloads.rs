//! The benchmark's workloads and the hand-written table of known answers.
//!
//! Every workload is a list of *batches*; one batch is one
//! `ids_driver::verify_selections` call covering one data structure (the
//! unit a user re-verifies after editing a structure, and the scope of the
//! driver's default structure-level solver pool). A *pass* runs every batch
//! of the workload once, in a seed-chosen order.
//!
//! Every cold pass is followed by warm re-verification passes over the cache
//! it wrote (see `main.rs`), so the warm path is measured on every workload.
//! Every workload but `quantified_rq3` uses the decidable encoding.

use ids_core::IntrinsicDefinition;
use ids_structures::{buggy, Benchmark};
use ids_vcgen::Encoding;

use crate::mutants::{all_mutants, Rng};

/// The verdict a method must receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Every VC of the method is valid.
    Valid,
    /// Some VC of the method has a counterexample.
    Refuted,
}

/// Label of the batch holding the deliberately broken list methods.
pub const BUGGY_LABEL: &str = "Singly-Linked List (buggy)";

/// Known answers, written by hand from the paper's Table 2 (every shipped
/// method verifies) and from `buggy.rs` (every method there is broken by
/// construction). Never derived from a run of the verifier.
///
/// Seeded `assert false;` mutants are not listed: their answer is always
/// [`MUTANT_ANSWER`].
pub const KNOWN_ANSWERS: &[(&str, &str, Answer)] = &[
    ("Singly-Linked List", "insert_front", Answer::Valid),
    ("Singly-Linked List", "insert_back", Answer::Valid),
    ("Singly-Linked List", "find", Answer::Valid),
    ("Singly-Linked List", "append_node", Answer::Valid),
    ("Singly-Linked List", "set_key", Answer::Valid),
    ("Singly-Linked List", "delete_front", Answer::Valid),
    ("Sorted List", "sorted_insert", Answer::Valid),
    ("Sorted List", "sorted_find", Answer::Valid),
    ("Sorted List (w. min, max)", "concatenate", Answer::Valid),
    ("Sorted List (w. min, max)", "find_last", Answer::Valid),
    ("Circular List", "rotate_entry", Answer::Valid),
    ("Circular List", "set_node_key", Answer::Valid),
    ("Binary Search Tree", "bst_find", Answer::Valid),
    ("Binary Search Tree", "bst_find_min", Answer::Valid),
    ("Binary Search Tree", "bst_right_rotate", Answer::Valid),
    ("Treap", "treap_find", Answer::Valid),
    ("Treap", "treap_raise_root_priority", Answer::Valid),
    ("AVL Tree", "avl_find_min", Answer::Valid),
    ("AVL Tree", "avl_find", Answer::Valid),
    ("Red-Black Tree", "rb_find", Answer::Valid),
    ("Red-Black Tree", "rb_find_min", Answer::Valid),
    ("Red-Black Tree", "rb_blacken_root", Answer::Valid),
    ("BST+Scaffolding", "scaffolding_of", Answer::Valid),
    (
        "Scheduler Queue (overlaid SLL+BST)",
        "peek_request",
        Answer::Valid,
    ),
    (
        "Scheduler Queue (overlaid SLL+BST)",
        "update_single_request",
        Answer::Valid,
    ),
    (BUGGY_LABEL, "insert_front_forgets_length", Answer::Refuted),
    (BUGGY_LABEL, "leaves_broken_set_nonempty", Answer::Refuted),
    (BUGGY_LABEL, "wrong_keys_postcondition", Answer::Refuted),
];

/// The answer of every `assert false;` mutant: the assertion sits in the
/// straight-line prefix, so some execution reaches it.
pub const MUTANT_ANSWER: Answer = Answer::Refuted;

/// Methods left out of every workload: each takes far longer cold than a
/// whole pass of the rest (single core: `insert_back` 167 s,
/// `bst_right_rotate` 40 s; `sorted_insert` has never finished).
pub const HEAVY_TAIL: &[(&str, &str)] = &[
    ("Singly-Linked List", "insert_back"),
    ("Sorted List", "sorted_insert"),
    ("Binary Search Tree", "bst_right_rotate"),
];

/// The names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["cold_mid", "refute_mutants", "quantified_rq3"];

/// Left out of `quantified_rq3` on top of [`HEAVY_TAIL`]: quantified, it
/// takes 34 s cold.
pub const QUANTIFIED_TAIL: (&str, &str) = ("Singly-Linked List", "insert_front");

/// One `Selection` of a batch: a definition, a method file and its methods.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Reporting label of the selection.
    pub label: String,
    /// Index of the definition in the registry.
    pub structure: usize,
    /// The method file (a registry file, or a mutant of one).
    pub source: String,
    /// The methods to verify, each with its known answer.
    pub methods: Vec<(String, Answer)>,
}

/// One `verify_selections` call.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Reporting label (the structure).
    pub label: String,
    /// The selections of the call.
    pub units: Vec<Unit>,
}

impl Batch {
    /// Every (method, known answer) pair of the batch.
    pub fn expected(&self) -> impl Iterator<Item = &(String, Answer)> {
        self.units.iter().flat_map(|u| u.methods.iter())
    }
}

/// A whole workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Time of one untraced round (a cold pass and its warm
    /// re-verification), measured single-threaded on a 2-core x86-64 VM. A
    /// run plans its number of rounds from `--seconds` and this figure
    /// alone, so every run of a workload measures the same work.
    pub nominal_round_s: f64,
    /// The VC encoding every batch uses.
    pub encoding: Encoding,
    /// The batches of one pass, in the order a pass runs them.
    pub batches: Vec<Batch>,
}

/// The registry of definitions the workloads draw from.
pub struct Registry {
    /// The Table-2 benchmarks, in registry order.
    pub benchmarks: Vec<Benchmark>,
}

impl Registry {
    /// Builds the registry (parses every shipped method file).
    pub fn load() -> Registry {
        Registry {
            benchmarks: ids_structures::all_benchmarks(),
        }
    }

    /// The definition of the structure at `index`.
    pub fn definition(&self, index: usize) -> &IntrinsicDefinition {
        &self.benchmarks[index].definition
    }
}

/// The hand-written answer of a registry or `buggy.rs` method.
pub fn known_answer(label: &str, method: &str) -> Result<Answer, String> {
    KNOWN_ANSWERS
        .iter()
        .find(|(l, m, _)| *l == label && *m == method)
        .map(|&(_, _, a)| a)
        .ok_or_else(|| format!("no known answer for {label}::{method}"))
}

/// Builds workload `name` from `seed`: the seed fixes the batch order and,
/// for `refute_mutants`, the order of the mutants inside each batch.
///
/// `refute_mutants` holds the mutant at *every* index of every method's
/// straight-line prefix (104 mutants) rather than one seed-chosen mutant
/// per method: the mutant cost is so skewed (three of `insert_front`'s 14
/// indices cost 1.3–1.7 s each, the other eleven at most 35 ms) that with
/// one mutant per method the pass time ranged 0.69–1.95 s over six seeds.
pub fn build(name: &str, seed: u64, registry: &Registry) -> Result<Workload, String> {
    let mut rng = Rng::new(seed);
    let (name, nominal_round_s, encoding) = match name {
        "cold_mid" => ("cold_mid", 10.5, Encoding::Decidable),
        "refute_mutants" => ("refute_mutants", 8.5, Encoding::Decidable),
        "quantified_rq3" => ("quantified_rq3", 12.0, Encoding::Quantified),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let mut batches = Vec::new();
    for (index, b) in registry.benchmarks.iter().enumerate() {
        let methods: Vec<&String> = b
            .methods
            .iter()
            .filter(|m| !HEAVY_TAIL.contains(&(b.name, m.as_str())))
            .filter(|m| name != "quantified_rq3" || QUANTIFIED_TAIL != (b.name, m.as_str()))
            .collect();
        if methods.is_empty() {
            continue;
        }
        let units = if name == "refute_mutants" {
            let mut units = Vec::new();
            for m in methods {
                for mutant in all_mutants(b.methods_src, m)? {
                    units.push(Unit {
                        label: format!("{} / {} +assert false @{}", b.name, m, mutant.index),
                        structure: index,
                        source: mutant.source,
                        methods: vec![(m.clone(), MUTANT_ANSWER)],
                    });
                }
            }
            rng.shuffle(&mut units);
            units
        } else {
            let methods = methods
                .into_iter()
                .map(|m| Ok((m.clone(), known_answer(b.name, m)?)))
                .collect::<Result<_, String>>()?;
            vec![Unit {
                label: b.name.to_string(),
                structure: index,
                source: b.methods_src.to_string(),
                methods,
            }]
        };
        batches.push(Batch {
            label: b.name.to_string(),
            units,
        });
    }
    if name == "refute_mutants" {
        let sll = registry
            .benchmarks
            .iter()
            .position(|b| b.name == "Singly-Linked List")
            .ok_or("registry has no Singly-Linked List")?;
        let methods = ids_ivl::parse_program(buggy::BUGGY_LIST_METHODS)
            .map_err(|e| e.to_string())?
            .procedures
            .into_iter()
            .map(|p| Ok((p.name.clone(), known_answer(BUGGY_LABEL, &p.name)?)))
            .collect::<Result<_, String>>()?;
        batches.push(Batch {
            label: BUGGY_LABEL.to_string(),
            units: vec![Unit {
                label: BUGGY_LABEL.to_string(),
                structure: sll,
                source: buggy::BUGGY_LIST_METHODS.to_string(),
                methods,
            }],
        });
    }
    rng.shuffle(&mut batches);
    Ok(Workload {
        name,
        nominal_round_s,
        encoding,
        batches,
    })
}
