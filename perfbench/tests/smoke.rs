//! Toy-size smoke test of the benchmark itself.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use nlheat_sim::RunSim;
use perfbench::{dist, inputs, run, Opts, Outcome, Size, Workload, END_TO_END, PER_LAYER};

fn toy(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Opts {
        workload,
        seed,
        seconds: 0.2,
        trace,
        size: Size::Toy,
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares: the objects
/// that carry a `unit` (workload objects carry a `why` instead).
fn declared_metrics() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let field = |obj: &str, key: &str| {
        let start = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = obj[start..].find('"')?;
        Some(obj[start..start + len].to_string())
    };
    spec.split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let declared = declared_metrics();
    let table: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        declared, table,
        "BENCHMARK.json and the metric tables disagree"
    );
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = toy(w, 1, trace);
            assert_eq!(
                out.failed,
                0,
                "{} (trace {trace}) failed its gate",
                w.name()
            );
            assert!(out.attempted > 0);
            let want = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want, "{} (trace {trace})", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{}: {} must never be 0", w.name(), m.name);
                }
            }
            let line = out.to_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn deterministic_counts_repeat_for_one_seed() {
    for w in [
        Workload::HeteroDist,
        Workload::SimScale16,
        Workload::Plan10k,
    ] {
        let (a, b) = (toy(w, 3, false), toy(w, 3, false));
        assert_eq!(
            a.get("sim_makespan_s"),
            b.get("sim_makespan_s"),
            "{}",
            w.name()
        );
        assert!(a.get("busy_frac").is_some_and(|v| v > 0.0));
    }
    let (a, b) = (
        toy(Workload::HeteroDist, 3, true),
        toy(Workload::HeteroDist, 3, true),
    );
    for name in [
        "fabric.messages",
        "lb.moves",
        "migrate.sds",
        "kernel.interactions",
        "halo.patches",
    ] {
        assert_eq!(a.get(name), b.get(name), "{name}");
    }
    assert!(a.get("lb.moves").unwrap() > 0.0, "the toy run must migrate");
    // the replayed plans and the reconstructed parcels match the run
    assert_eq!(a.failed, 0);
    let (s, t) = (
        toy(Workload::SimScale16, 3, true),
        toy(Workload::SimScale16, 3, true),
    );
    assert_eq!(s.get("lb.moves"), t.get("lb.moves"));
}

#[test]
fn perturbed_reference_fails_the_gate() {
    let sc = inputs::scenario(Workload::HeteroDist, Size::Toy, 1);
    let initial = sc
        .partition
        .initial_owners(&sc.sd_grid(), sc.cluster.len() as u32);
    let sim = sc.run_sim();
    let solve = dist::solve(&sc, true);
    let mut reference = dist::serial_reference(&sc);
    let ok = dist::checks(&solve.report, &reference, &initial, Some(&sim.lb_plans));
    assert!(ok.iter().all(|(_, r)| r.is_ok()), "{ok:?}");

    let cell = reference.len() / 2;
    reference[cell] = f64::from_bits(reference[cell].to_bits() + 1);
    let bad = dist::checks(&solve.report, &reference, &initial, Some(&sim.lb_plans));
    let field = bad
        .iter()
        .find(|(n, _)| *n == "field==serial")
        .expect("field check");
    assert!(field.1.is_err(), "a one-ulp change must fail bit identity");

    // a plan that moves an SD from a rank that does not own it breaks the
    // single-hop contract
    let mut report = solve.report.clone();
    if let Some(mv) = report.lb_plans.first_mut().and_then(|p| p.first_mut()) {
        mv.from = (mv.from + 1) % sc.cluster.len() as u32;
        let hop = dist::checks(&report, &dist::serial_reference(&sc), &initial, None);
        assert!(hop.iter().any(|(n, r)| *n == "single-hop" && r.is_err()));
        assert!(hop.iter().any(|(n, r)| *n == "plans==sim" && r.is_err()));
    }
}
