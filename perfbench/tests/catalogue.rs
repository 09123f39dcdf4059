//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! command prints, with the same units and directions, and only workloads
//! the command knows.

use cagc_harness::Json;
use cagc_perfbench::metric::{Def, END_TO_END, PER_LAYER};
use cagc_perfbench::Workload;

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    match obj {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object looking up {key}"),
    }
}

fn text(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn list(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn assert_same(json: &Json, key: &str, defs: &[Def]) {
    let listed: Vec<(&str, &str, &str)> = list(field(json, key))
        .iter()
        .map(|m| (text(field(m, "name")), text(field(m, "unit")), text(field(m, "better"))))
        .collect();
    let printed: Vec<(&str, &str, &str)> =
        defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
    assert_eq!(listed, printed, "BENCHMARK.json {key} differs from the catalogue");
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    assert_same(&json, "end_to_end", END_TO_END);
    assert_same(&json, "per_layer", PER_LAYER);
    for w in list(field(&json, "workloads")) {
        let name = text(field(w, "name"));
        assert!(Workload::parse(name).is_some(), "BENCHMARK.json workload {name} is unknown");
    }
}
