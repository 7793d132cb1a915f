//! Golden-schema test of the observability timeline: a small linked-list run
//! captured between `trace_start` and `trace_stop` must produce well-formed
//! lanes — every Begin matched by an End of the same name in LIFO order,
//! timestamps monotone within a lane — whose span names cover the pipeline
//! phases the trace export advertises, and whose Chrome trace_event JSON
//! rendering carries the markers Perfetto keys on.
//!
//! This is its own test binary (not a `#[test]` inside `pool_parity`)
//! because tracing is process-global: a concurrently running test would
//! interleave its events into the capture.

use intrinsic_verify::core::IntrinsicDefinition;
use intrinsic_verify::driver::{verify_selections, DriverConfig, Selection};
use intrinsic_verify::obs;
use std::collections::HashSet;

fn list_ids() -> IntrinsicDefinition {
    IntrinsicDefinition::parse(
        "acyclic-list",
        r#"
        field next: Loc;
        field ghost prev: Loc;
        field ghost length: Int;
        "#,
        "(x.next != nil ==> x.next.prev == x && x.length == x.next.length + 1) \
         && (x.prev != nil ==> x.prev.next == x) \
         && (x.next == nil ==> x.length == 1) \
         && (x.length >= 1)",
        "y",
        "y.prev == nil",
        &[
            ("next", &["x", "old(x.next)"]),
            ("prev", &["x", "old(x.prev)"]),
            ("length", &["x", "x.prev"]),
        ],
    )
    .unwrap()
}

const METHODS_SRC: &str = r#"
    procedure insert_front(x: Loc) returns (r: Loc)
      requires Br == {} && x != nil && x.prev == nil;
      ensures Br == {} && r != nil && r.prev == nil;
      modifies {};
    {
      InferLCOutsideBr(x);
      var z: Loc;
      NewObj(z);
      Mut(z, next, x);
      Mut(z, length, x.length + 1);
      Mut(z, prev, nil);
      Mut(x, prev, z);
      AssertLCAndRemove(z);
      AssertLCAndRemove(x);
      r := z;
    }
    procedure touch(x: Loc)
      requires Br == {} && x != nil;
      ensures Br == {};
      modifies {};
    {
      InferLCOutsideBr(x);
      AssertLCAndRemove(x);
    }
"#;

#[test]
fn chrome_trace_schema_is_well_formed() {
    let ids = list_ids();
    let selection = Selection {
        name: "acyclic-list",
        definition: &ids,
        methods_src: METHODS_SRC,
        methods: vec!["insert_front".to_string(), "touch".to_string()],
    };

    obs::trace_start();
    let batch = verify_selections(
        std::slice::from_ref(&selection),
        &DriverConfig {
            jobs: 1,
            cache_path: None,
            ..DriverConfig::default()
        },
    );
    let lanes = obs::trace_stop();

    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    assert!(batch.all_verified());
    assert!(!lanes.is_empty(), "tracing captured no lanes");

    let mut names: HashSet<&'static str> = HashSet::new();
    for lane in &lanes {
        let mut open: Vec<&'static str> = Vec::new();
        let mut last_ts = 0u64;
        for e in &lane.events {
            assert!(
                e.ts_us >= last_ts,
                "lane {}: timestamps not monotone ({} after {})",
                lane.lane,
                e.ts_us,
                last_ts
            );
            last_ts = e.ts_us;
            names.insert(e.name);
            match e.kind {
                obs::EventKind::Begin => open.push(e.name),
                obs::EventKind::End => {
                    let begun = open.pop().unwrap_or_else(|| {
                        panic!("lane {}: End '{}' without a Begin", lane.lane, e.name)
                    });
                    assert_eq!(
                        begun, e.name,
                        "lane {}: spans closed out of LIFO order",
                        lane.lane
                    );
                }
                obs::EventKind::Instant => {}
            }
        }
        assert!(
            open.is_empty(),
            "lane {}: unclosed spans {:?}",
            lane.lane,
            open
        );
    }

    // The phases the subsystem advertises must all appear on a run that
    // lowers, converts, searches and theory-checks real VCs.
    for phase in [
        "resolve",
        "solve",
        "structure",
        "prepare",
        "vc",
        "prelude",
        "lower",
        "cnf",
        "sat",
        "euf",
        "simplex",
    ] {
        assert!(
            names.contains(phase),
            "no '{}' span in trace (got {:?})",
            phase,
            names
        );
    }

    let json = obs::chrome_trace_json(&lanes);
    assert!(json.starts_with("{\"traceEvents\":["), "not a trace object");
    assert!(json.trim_end().ends_with("]}"), "unterminated trace object");
    for marker in [
        "\"ph\":\"B\"",
        "\"ph\":\"E\"",
        "\"ph\":\"M\"",
        "\"name\":\"thread_name\"",
        "\"name\":\"sat\"",
    ] {
        assert!(json.contains(marker), "trace JSON lacks {}", marker);
    }
}
