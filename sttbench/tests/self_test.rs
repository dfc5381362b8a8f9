//! Self-tests of the benchmark: determinism, seeding, correctness
//! checking and agreement with `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path sttbench/Cargo.toml`.

use std::collections::BTreeMap;
use sttbench::digest::{trace_digest, Checks};
use sttbench::metrics::{self, Values, END_TO_END, PER_LAYER};
use sttbench::replay::{Bench, Ladder, LadderPass, ORG_KEYS};
use sttbench::run::{build_bench, reference_for};
use sttbench::spans::Tracer;
use sttbench::Workload;
use sttcache::{by_cli, Platform};

fn bench(workload: Workload, seed: u64) -> Bench {
    let (reference, variant) = reference_for(workload, seed).expect("reference parses");
    build_bench(workload, seed, &reference, &variant, &mut Tracer::new()).expect("set-up works")
}

fn trace_digests(b: &Bench) -> Vec<(String, u64)> {
    b.inputs
        .traces
        .iter()
        .map(|t| (t.label.clone(), trace_digest(&t.trace)))
        .collect()
}

#[test]
fn two_runs_at_one_seed_give_identical_counters_and_digests() {
    let a = bench(Workload::PaperFigures, 7);
    let b = bench(Workload::PaperFigures, 7);
    assert_eq!(trace_digests(&a), trace_digests(&b));
    assert_eq!(a.digests(), b.digests());

    // Warm once, so lazy one-time initialisation is outside the
    // compared passes.
    let mut checks = Checks::default();
    a.ladder(&mut Tracer::new(), &mut checks);
    let first = a.ladder(&mut Tracer::new(), &mut checks);
    let second = b.ladder(&mut Tracer::new(), &mut checks);
    assert_eq!(first.counters, second.counters);
    assert_eq!(
        Ladder::fastest(&[&first]).counts(),
        Ladder::fastest(&[&second]).counts()
    );
    let work = |p: &LadderPass| -> Vec<_> {
        p.calls
            .iter()
            .map(|c| (c.name, c.events, c.allocs))
            .collect()
    };
    assert_eq!(work(&first), work(&second));
    assert_eq!(checks.failed, 0, "mismatches: {:?}", checks.mismatches);

    let c1 = bench(Workload::ChaseSharedL2, 11);
    let c2 = bench(Workload::ChaseSharedL2, 11);
    assert_eq!(trace_digests(&c1), trace_digests(&c2));
}

#[test]
fn a_different_seed_changes_the_chase_traces_but_not_the_affine_ones() {
    assert_eq!(
        trace_digests(&bench(Workload::AffineReplay, 1)),
        trace_digests(&bench(Workload::AffineReplay, 2))
    );
    let one = bench(Workload::ChaseSharedL2, 1);
    let two = bench(Workload::ChaseSharedL2, 2);
    let (d1, d2) = (trace_digests(&one), trace_digests(&two));
    for i in 0..one.inputs.singles {
        assert_ne!(d1[i], d2[i], "chase instance {} ignores the seed", d1[i].0);
    }
    // The affine partner of the mixes is not seeded.
    assert_eq!(d1[one.inputs.singles..], d2[two.inputs.singles..]);
}

#[test]
fn a_perturbed_result_is_counted_as_failed() {
    let b = bench(Workload::AffineReplay, 0);
    let i = b
        .inputs
        .traces
        .iter()
        .position(|t| t.label == "gemm/all")
        .expect("the affine set has gemm/all");
    let o = ORG_KEYS
        .iter()
        .position(|k| *k == "vwb")
        .expect("vwb is pinned");
    let platform =
        Platform::new(by_cli("vwb").expect("catalog has vwb").organization).expect("vwb is valid");
    let mut result = platform.run_trace(&b.inputs.traces[i].trace);

    let mut checks = Checks::default();
    b.check_single(i, o, &result, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (1, 0));

    result.core.cycles += 1;
    b.check_single(i, o, &result, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    assert!(checks.failed_share() > 0.0);
    assert_eq!(checks.mismatches, vec!["gemm/all/vwb".to_string()]);
}

#[test]
fn an_unperturbed_pass_matches_the_reference() {
    let b = bench(Workload::PaperFigures, 0);
    let mut checks = Checks::default();
    let cycles = b.pass(&mut checks);
    assert_eq!(checks.failed, 0, "mismatches: {:?}", checks.mismatches);
    assert_eq!(checks.attempted as usize, b.inputs.singles * ORG_KEYS.len());
    assert!(b.penalty_gap_pp(&cycles) > 0.0);
}

// A minimal JSON reader, enough for BENCHMARK.json and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing data after JSON value");
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    skip_ws(b, pos);
    assert_eq!(b[*pos] as char, c as char, "at byte {pos}");
    *pos += 1;
}

fn string(b: &[u8], pos: &mut usize) -> String {
    expect(b, pos, b'"');
    let start = *pos;
    while b[*pos] != b'"' {
        assert_ne!(b[*pos], b'\\', "escapes are not expected here");
        *pos += 1;
    }
    *pos += 1;
    String::from_utf8(b[start..*pos - 1].to_vec()).expect("UTF-8")
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(m);
            }
            loop {
                let k = string(b, pos);
                expect(b, pos, b':');
                assert!(m.insert(k, value(b, pos)).is_none(), "duplicate key");
                skip_ws(b, pos);
                *pos += 1;
                if b[*pos - 1] == b'}' {
                    return Json::Obj(m);
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut a = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(a);
            }
            loop {
                a.push(value(b, pos));
                skip_ws(b, pos);
                *pos += 1;
                if b[*pos - 1] == b']' {
                    return Json::Arr(a);
                }
            }
        }
        b'"' => Json::Str(string(b, pos)),
        b't' | b'f' | b'n' => {
            let word: String = b[*pos..]
                .iter()
                .take_while(|c| c.is_ascii_alphabetic())
                .map(|&c| c as char)
                .collect();
            *pos += word.len();
            match word.as_str() {
                "true" => Json::Bool(true),
                "false" => Json::Bool(false),
                "null" => Json::Null,
                w => panic!("bad literal {w}"),
            }
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("ASCII");
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = benchmark_json();
    assert_eq!(
        doc.keys(),
        vec![
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| {
            let why = w.get("why").str();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").str()
        })
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);

    let e2e = doc.get("end_to_end").arr();
    assert_eq!(e2e.len(), END_TO_END.len());
    let mut setup_bound = 0.0;
    let mut max_bound: f64 = 0.0;
    for (j, d) in e2e.iter().zip(END_TO_END) {
        assert_eq!(j.keys(), vec!["better", "bound", "name", "unit"]);
        assert_eq!(
            (
                j.get("name").str(),
                j.get("unit").str(),
                j.get("better").str()
            ),
            (d.name, d.unit, d.better)
        );
        let bound = j.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        max_bound = max_bound.max(bound);
        if d.name == "setup_s" {
            setup_bound = bound;
        }
        assert!(!d.note.is_empty());
    }
    assert_eq!(
        setup_bound, max_bound,
        "setup_s must have the largest bound"
    );

    let per_layer = doc.get("per_layer").arr();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (j, d) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(j.keys(), vec!["better", "name", "unit"]);
        assert_eq!(
            (
                j.get("name").str(),
                j.get("unit").str(),
                j.get("better").str()
            ),
            (d.name, d.unit, d.better)
        );
        // Every per-layer metric names what it should move.
        assert!(
            d.note.starts_with("nothing")
                || ["wall_s", "sim_events_per_s", "setup_s", "peak_rss_mib"]
                    .iter()
                    .any(|m| d.note.contains(m)),
            "{}: {}",
            d.name,
            d.note
        );
    }

    let command: Vec<&str> = doc.get("command").arr().iter().map(Json::str).collect();
    assert!(command.iter().any(|a| a.starts_with("sttbench/")));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    assert_eq!(doc.get("paths").arr(), &[Json::Str("sttbench".into())]);
}

#[test]
fn the_result_metrics_are_valid_json_in_table_order() {
    let mut v = Values::default();
    for (i, d) in END_TO_END.iter().enumerate() {
        v.set(d.name, 0.1 + i as f64 * 1e-9);
    }
    v.check_against(END_TO_END).expect("complete");
    let json = parse(&v.to_json(END_TO_END));
    let names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(json.keys(), sorted);
    assert_eq!(json.get("wall_s").get("unit").str(), "s");
    assert_eq!(json.get("wall_s").get("value").num(), 0.1);
    assert!(v.check_against(PER_LAYER).is_err());
    assert_eq!(metrics::json_number(1e-7), "1e-7");
}
