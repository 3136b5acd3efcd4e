//! Rolling deploy through the versioned model store: publish a
//! better-trained BranchyNet as v2, hot-swap the edge tier onto it in the
//! middle of a live fleet run, and read the accuracy and SLO deltas off
//! the same run.
//!
//! The deploy story the store exists for: v1 (one epoch) exits early on
//! fewer images, so the edge pool runs hot; v2 (four epochs, same data)
//! is both *more accurate* and *cheaper per request* — a better exit rate
//! means more traffic takes the short path. Publishing v2 validates the
//! checkpoint bytes once; the swap itself exchanges the tier's cost
//! profile between requests, so in-flight work finishes on v1's pricing
//! while everything after the cutover is served on v2's.
//!
//! Run with: `cargo run --release --example rolling_deploy`

use cbnet::experiments::ExperimentScale;
use cbnet_repro::prelude::*;

/// SLO attainment and sojourn percentiles over one slice of the record
/// stream (requests that *arrived* in `[from_ms, to_ms)`).
struct Window {
    offered: usize,
    dropped: usize,
    attained: usize,
    p50_ms: f64,
    p95_ms: f64,
}

fn window(report: &FleetReport, from_ms: f64, to_ms: f64) -> Window {
    let mut sojourns: Vec<f64> = Vec::new();
    let (mut offered, mut dropped, mut attained) = (0, 0, 0);
    for rec in &report.records {
        let at = rec.request.gateway_ms;
        if at < from_ms || at >= to_ms {
            continue;
        }
        offered += 1;
        match rec.outcome {
            edgesim::fleet::FleetOutcome::Completed { finish_ms, .. } => {
                let sojourn = finish_ms - at;
                if sojourn <= report.slo_ms {
                    attained += 1;
                }
                sojourns.push(sojourn);
            }
            edgesim::fleet::FleetOutcome::Dropped => dropped += 1,
        }
    }
    sojourns.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| {
        if sojourns.is_empty() {
            0.0
        } else {
            sojourns[((sojourns.len() - 1) as f64 * q).round() as usize]
        }
    };
    Window {
        offered,
        dropped,
        attained,
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
    }
}

fn print_window(label: &str, w: &Window) {
    println!(
        "{label:<18} {:>7} {:>7.1}% {:>8.1}% {:>9.2} {:>9.2}",
        w.offered,
        100.0 * w.dropped as f64 / w.offered.max(1) as f64,
        100.0 * w.attained as f64 / (w.offered - w.dropped).max(1) as f64,
        w.p50_ms,
        w.p95_ms,
    );
}

fn main() {
    println!("Rolling deploy: hot-swap the edge tier v1 -> v2 mid-run\n");

    // Same data (same seed), different training budgets: the only thing
    // that separates v1 from v2 is epochs.
    let scale_v1 = ExperimentScale {
        n_train: 1_200,
        n_test: 300,
        epochs: 1,
        seed: 7,
    };
    let scale_v2 = ExperimentScale {
        epochs: 4,
        ..scale_v1
    };
    let mut reg_v1 = ModelRegistry::train(Family::MnistLike, &scale_v1);
    let mut reg_v2 = ModelRegistry::train(Family::MnistLike, &scale_v2);

    // Score both candidates on the shared test set and price them on the
    // edge device — the swap changes model *and* cost profile together.
    let test_x = reg_v1.split().test.images.clone();
    let test_y = reg_v1.split().test.labels.clone();
    let edge_device = DeviceModel::raspberry_pi4();
    let stats = |reg: &mut ModelRegistry| {
        let mut m = reg.model(ModelKind::BranchyNet);
        let acc = accuracy(&m.predict_batch(&test_x), &test_y);
        let profile = CostProfile::empirical(m.sample_costs(&test_x, &edge_device));
        let exit = m.exit_rate().unwrap_or(0.0);
        (acc, exit, profile)
    };
    let (acc_v1, exit_v1, profile_v1) = stats(&mut reg_v1);
    let (acc_v2, exit_v2, profile_v2) = stats(&mut reg_v2);
    println!(
        "v1 (1 epoch):  accuracy {:5.1}%, exit rate {:5.1}%, edge mean {:.2} ms",
        100.0 * acc_v1,
        100.0 * exit_v1,
        profile_v1.mean_ms()
    );
    println!(
        "v2 (4 epochs): accuracy {:5.1}%, exit rate {:5.1}%, edge mean {:.2} ms\n",
        100.0 * acc_v2,
        100.0 * exit_v2,
        profile_v2.mean_ms()
    );

    // Publish both checkpoints into the versioned store (bytes validated
    // once, at publish) and point the edge tier at v1.
    let mut store = ModelStore::new(2);
    let v1 = store
        .publish_from(&mut reg_v1, ModelKind::BranchyNet)
        .expect("v1 publishes");
    let v2 = store
        .publish_from(&mut reg_v2, ModelKind::BranchyNet)
        .expect("v2 publishes");
    store.activate(0, v1).expect("edge tier starts on v1");
    println!(
        "published {v1} ({} B) and {v2} ({} B); edge tier serving {v1}",
        store.get(v1).expect("v1 exists").bytes().len(),
        store.get(v2).expect("v2 exists").bytes().len(),
    );

    // A two-tier fleet pushed slightly past the edge pool's v1 capacity,
    // with the swap scheduled halfway through the expected run.
    let requests = 12_000;
    let rate_hz = 1.05 * 2.0 * 1000.0 / profile_v1.mean_ms();
    let slo_ms = 3.0 * profile_v1.mean_ms();
    let swap_at_ms = 0.5 * requests as f64 / rate_hz * 1000.0;
    let cfg = FleetConfig {
        tiers: vec![
            Tier {
                name: "edge".into(),
                device: edge_device,
                servers: 2,
                profile: profile_v1.clone(),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 64 },
                link: None,
            },
            Tier {
                name: "cloud".into(),
                device: DeviceModel::preset(Device::GciCpu),
                servers: 2,
                profile: CostProfile::constant(1.5),
                scheduler: SchedulerKind::ShortestService,
                admission: AdmissionPolicy::Unbounded,
                link: Some(NetworkLink::wifi(4 * 784)),
            },
        ],
        arrivals: ArrivalProcess::poisson(rate_hz),
        requests,
        seed: 23,
        slo_ms,
    };
    let swap = TierSwap {
        tier: 0,
        at_ms: swap_at_ms,
        profile: profile_v2.clone(),
        version: v2.version,
        policy: SwapPolicy::Immediate,
    };
    println!(
        "{requests} requests @ {rate_hz:.0} req/s, SLO {slo_ms:.2} ms, swap at {:.0} ms\n",
        swap_at_ms
    );

    // Static routing: with no offload valve, the edge queue carries the
    // full 5% overload, so the deltas below are the *deploy's* doing.
    let mut sim = FleetSim::new(&cfg, RecordMode::Full).expect("valid config");
    sim.schedule_swap(swap).expect("the edge tier exists");
    sim.run(&mut edgesim::fleet::AlwaysLocal, None)
        .expect("routing stays in range");
    let report = sim.report();
    assert_eq!(sim.swaps_applied(), 1, "the scheduled swap applied");
    store.activate(0, v2).expect("handoff completes on v2");

    // Split the one run at the cutover: arrivals before the swap were
    // served on v1's pricing, arrivals after on v2's.
    let end_ms = report
        .records
        .iter()
        .map(|r| r.request.gateway_ms)
        .fold(0.0, f64::max)
        + 1.0;
    println!("window              offered   drop%  slo_att%   p50(ms)   p95(ms)");
    println!("-------------------------------------------------------------------");
    let before = window(&report, 0.0, swap_at_ms);
    let after = window(&report, swap_at_ms, end_ms);
    print_window("before swap (v1)", &before);
    print_window("after swap  (v2)", &after);

    let d_att = 100.0
        * (after.attained as f64 / (after.offered - after.dropped).max(1) as f64
            - before.attained as f64 / (before.offered - before.dropped).max(1) as f64);
    println!(
        "\ndeltas across the cutover: accuracy {:+.1} pts, exit rate {:+.1} pts, \
         SLO attainment {:+.1} pts, p95 {:+.2} ms",
        100.0 * (acc_v2 - acc_v1),
        100.0 * (exit_v2 - exit_v1),
        d_att,
        after.p95_ms - before.p95_ms,
    );
    println!(
        "edge tier now serving {} — in-flight v1 requests finished on v1's pricing;\n\
         the store kept both versions addressable throughout the deploy.",
        store
            .active(0)
            .map(|m| m.version().to_string())
            .unwrap_or_default()
    );
}
