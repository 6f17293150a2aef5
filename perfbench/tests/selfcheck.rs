//! Self-checks of the benchmark's own code: the order statistics, the
//! outcome digest, the record format, and the metric and workload names
//! against `BENCHMARK.json`.

use gfc_core::units::Time;
use gfc_topology::cbd::all_pairs_depgraph;
use perfbench::measure::Record;
use perfbench::outcome::{table_line, Outcome};
use perfbench::report::{end_to_end, per_layer, result_line, valid_name};
use perfbench::stats::{median, percentile, quartiles, sum_of_column_minima};
use perfbench::workload::{
    build, ft8_fabric, ft8_search, generate, slice_end, Kind, FT8_FAILURE_SEED,
};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);
}

#[test]
fn median_and_percentile() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 99.0), 99.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
}

#[test]
fn column_minima_sum_each_slice_at_its_fastest() {
    let a: &[u64] = &[5, 1, 7];
    let b: &[u64] = &[3, 4, 7];
    assert_eq!(sum_of_column_minima(&[a, b]), 3 + 1 + 7);
    assert_eq!(sum_of_column_minima(&[a]), 13);
}

#[test]
fn slices_cover_the_horizon_exactly() {
    let h = Time(1_000_003);
    assert_eq!(slice_end(h, 10, 1), Time(100_000));
    assert_eq!(slice_end(h, 10, 9), Time(900_000));
    assert_eq!(slice_end(h, 10, 10), h);
}

/// A short ring run: the digest is a pure function of the inputs.
fn short_ring(seed: u64) -> Outcome {
    let mut inputs = generate(Kind::Ring3Gfc, seed);
    inputs.horizon = Time::from_millis(4);
    let mut d = build(&inputs, Kind::Ring3Gfc.engine(), inputs.cfg.telemetry);
    d.advance(&inputs, inputs.horizon);
    Outcome::of(&d)
}

#[test]
fn digest_is_stable_across_in_process_runs() {
    let a = short_ring(3);
    let b = short_ring(3);
    assert!(a.events > 0 && a.delivered_bytes > 0, "the run did work: {a:?}");
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    // Another variant staggers the flows differently.
    let c = short_ring(4);
    assert_ne!(a.digest(), c.digest());
    assert!(!a.diff(&c).is_empty());
    // Seeds pick variants modulo the variant count.
    assert_eq!(generate(Kind::Ring3Gfc, 3).variant, generate(Kind::Ring3Gfc, 19).variant);
}

#[test]
fn a_sliced_run_has_the_outcome_of_an_unsliced_one() {
    for kind in [Kind::Ring3Gfc, Kind::Ft8PermW1] {
        let mut inputs = generate(kind, 2);
        inputs.horizon = Time::from_micros(300);
        let run = |slices: u64| {
            let mut d = build(&inputs, kind.engine(), inputs.cfg.telemetry);
            for k in 1..=slices {
                d.advance(&inputs, slice_end(inputs.horizon, slices, k));
            }
            Outcome::of(&d)
        };
        assert_eq!(run(1), run(kind.slices()), "{}", kind.name());
    }
}

#[test]
fn table_lines_carry_their_digest() {
    let o = short_ring(1);
    let line = table_line(Kind::Ring3Gfc, 1, &o);
    let cols: Vec<&str> = line.split('\t').collect();
    assert_eq!(cols[0], "ring3_gfc");
    assert_eq!(cols[2], o.digest());
    assert_eq!(cols.len(), 3 + Outcome::FIELDS.len());
}

#[test]
fn record_line_round_trips() {
    let r = Record {
        run_s: 1.25,
        slice_ns: vec![1_250_000, 1_249_999, 0, u64::MAX],
        setup_s: 0.000_038,
        events: 11_258_447,
        delivered_bytes: 1_874_229_000,
        rss_mb: 3.25,
        digest: "5489b9a06fb96158".into(),
        ok: true,
    };
    assert_eq!(Record::parse(&r.to_line()), Some(r));
    assert_eq!(Record::parse("run 1: failed"), None);
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut all: Vec<String> =
        end_to_end().into_iter().chain(per_layer()).map(|s| s.name).collect();
    for n in &all {
        assert!(valid_name(n), "invalid metric name {n}");
    }
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "duplicate metric names");
    assert!(
        !valid_name("a b") && !valid_name("") && !valid_name(".x") && !valid_name(&"x".repeat(65))
    );
}

/// The values of `field` in one top-level array of `BENCHMARK.json`.
fn field_in(json: &str, key: &str, field: &str) -> Vec<String> {
    let start =
        json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split(&format!("\"{field}\""))
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted value").to_owned())
        .collect()
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let units: Vec<String> = specs.iter().map(|s| s.unit.to_owned()).collect();
        assert_eq!(field_in(&json, key, "name"), names, "{key} names");
        assert_eq!(field_in(&json, key, "unit"), units, "{key} units");
    }
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_owned()).collect();
    assert_eq!(field_in(&json, "workloads", "name"), kinds);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let specs = end_to_end();
    let line = result_line(true, 3, 0, &specs, |_| Some(1.5));
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    assert!(line.ends_with("}}"));
}

#[test]
fn pinned_ft8_fabric_is_connected_and_cbd_free() {
    let ft = ft8_fabric(FT8_FAILURE_SEED);
    assert!(ft.topo.hosts_connected());
    assert!(all_pairs_depgraph(&ft.topo).find_cycle().is_none());
}

/// The full failure search (hundreds of dependency graphs); run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn ft8_search_lands_on_the_pinned_seed() {
    assert_eq!(ft8_search().0, FT8_FAILURE_SEED);
}
