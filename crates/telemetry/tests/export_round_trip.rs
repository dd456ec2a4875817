//! The JSON exports (snapshot and chrome trace) must round-trip
//! through `serde_json`: parse → re-serialize → parse yields an equal
//! `Value` tree, and the parsed structure carries the recorded data.

use octopus_telemetry::{span, Registry};

#[test]
fn snapshot_json_round_trips_through_serde_json() {
    let reg = Registry::new();
    reg.counter("executor_walks_pruned_total").add(41);
    reg.gauge("drift_meter").set(0.75);
    let h = reg.histogram("ring_publish_ns");
    for v in [0u64, 3, 900, 1 << 40] {
        h.record(v);
    }

    let json = reg.snapshot().to_json();
    let value = serde_json::from_str(&json).expect("snapshot JSON must parse");
    let reparsed = serde_json::from_str(&serde_json::to_string(&value)).unwrap();
    assert_eq!(value, reparsed, "canonical form must be a fixed point");

    assert_eq!(
        value
            .get("counters")
            .and_then(|c| c.get("executor_walks_pruned_total"))
            .and_then(|v| v.as_u64()),
        Some(41)
    );
    assert_eq!(
        value
            .get("gauges")
            .and_then(|g| g.get("drift_meter"))
            .and_then(|v| v.as_f64()),
        Some(0.75)
    );
    let hist = value
        .get("histograms")
        .and_then(|h| h.get("ring_publish_ns"))
        .expect("histogram family present");
    assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(4));
    let buckets = hist.get("buckets").and_then(|b| b.as_array()).unwrap();
    let total: u64 = buckets
        .iter()
        .map(|pair| pair.as_array().unwrap()[1].as_u64().unwrap())
        .sum();
    assert_eq!(total, 4, "sparse buckets must sum to count");
}

#[test]
fn chrome_trace_round_trips_through_serde_json() {
    let reg = Registry::new();
    let tracer = reg.tracer();
    {
        let _step = span!(tracer, "step");
        let _crawl = span!(tracer, "crawl");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let trace = tracer.chrome_trace_json();
    let value = serde_json::from_str(&trace).expect("chrome trace must parse");
    let reparsed = serde_json::from_str(&serde_json::to_string(&value)).unwrap();
    assert_eq!(value, reparsed);

    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), 2);
    for e in events {
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(e.get("ts").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        let name = e.get("name").and_then(|v| v.as_str()).unwrap();
        assert!(name == "step" || name == "crawl");
    }
}
