//! Tiny runs of every workload, untraced and traced, plus a check that
//! the harness's metric catalog is the one `BENCHMARK.json` declares.

use perfbench::json::Json;
use perfbench::{RunOpts, Workload, END_TO_END, PER_LAYER};

fn catalog(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.arr(key)
        .unwrap()
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            other => panic!("malformed metric {other:?}"),
        })
        .collect()
}

fn owned(c: &[(&str, &str)]) -> Vec<(String, String)> {
    c.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(catalog(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(catalog(&doc, "per_layer"), owned(PER_LAYER));
    let names: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| Json::Str(w.name().to_string()))
        .collect();
    let declared: Vec<Json> = doc
        .arr("workloads")
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().clone())
        .collect();
    assert_eq!(declared, names);
}

fn result_metrics(line: &str) -> Vec<String> {
    let doc = Json::parse(line).unwrap();
    match doc.get("metrics") {
        Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

#[test]
fn tiny_untraced_runs_are_correct_and_report_every_metric() {
    for w in Workload::ALL {
        let r = w.run(&RunOpts::tiny(3, false)).unwrap();
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        assert!(r.attempted > 0 && r.failed == 0, "{}", w.name());
        for (name, _) in END_TO_END {
            let v = r
                .get(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(result_metrics(&r.result_line(END_TO_END)), names);
    }
}

#[test]
fn tiny_traced_runs_report_the_ledger() {
    for w in Workload::ALL {
        let r = w.run(&RunOpts::tiny(4, true)).unwrap();
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        for name in [
            "traced.throughput_ops_s",
            "wire.encode_ns",
            "handoff.rtt_ns",
            "client.rtt_us",
            "store.direct_ns",
            "tm.tx_ns.kv",
            "engine.execute_ns.kv",
            "ds.direct_ns.insert",
            "ref.lock_ops_s",
            "ref.tle_ops_s",
        ] {
            let v = r
                .get(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(result_metrics(&r.result_line(PER_LAYER)), names);
    }
}

#[test]
fn the_contended_workload_reaches_the_engine_phases_the_kv_one_does_not() {
    let pq = Workload::EnginePq.run(&RunOpts::tiny(5, true)).unwrap();
    let kv = Workload::KvRead.run(&RunOpts::tiny(5, true)).unwrap();
    assert!(pq.get("engine.phase_share.private").unwrap() < 1.0);
    assert!(pq.get("engine.op_p50_ns.remove_min").unwrap() > 0.0);
    assert_eq!(kv.get("engine.phase_share.private"), Some(1.0));
    assert!(kv.get("kv.avg_batch").unwrap() >= 1.0);
}
