//! Model-store harness: save/load timing for the tensor-store checkpoint
//! format against the legacy `CBR1` envelope, a corrupt-byte fuzz loop over
//! the new format, and a rolling-deploy fleet smoke driven by the versioned
//! [`ModelStore`]. Emits a machine-readable `BENCH_store.json`.
//!
//! ```text
//! cargo run --release -p bench --bin model_store
//! ```
//!
//! Three load paths are timed per comparator, best-of-N wall clock each:
//!
//! * **legacy** — `load_model` on a hand-assembled `CBR1` envelope (the
//!   writer is gone; the byte layout is pinned by the golden-bytes test).
//!   Decodes every float through a per-element `get_f32_le` loop.
//! * **cold** — `load_model` on the new format: one aligned copy of the
//!   blob, header parse, allocating model construction.
//! * **hot** — the serving route: header parsed **once**, then
//!   `import_tensors` refills a preallocated same-architecture slot
//!   straight from the zero-copy tensor views (the path the allocation
//!   guard pins allocation-free).
//!
//! Environment:
//! * `BENCH_STORE_JSON` — output path (default `BENCH_store.json`; `-`
//!   skips writing).
//! * `CBNET_MODEL_STORE_SMOKE=1` — fewer repetitions, smaller fuzz loop and
//!   deploy workload (CI smoke; timings are real, just noisier).
//! * `BENCH_STORE_ENFORCE` — assert the acceptance bar: hot load ≥ 5× the
//!   legacy path on the largest comparator.
//! * `CBNET_OBS=metrics|trace` — run the rolling-deploy smoke observed;
//!   metrics land in `METRICS.json` (`CBNET_METRICS_JSON`) and, under
//!   `trace`, the span ring in `TRACE.jsonl` (`CBNET_TRACE_JSONL`) for
//!   `obs_check` validation — swap spans included.

use std::io::Write as _;
use std::time::Instant;

use cbnet::experiments::ExperimentScale;
use cbnet::pipeline::CbnetModel;
use cbnet::registry::{ModelKind, ModelRegistry, CHECKPOINT_MAGIC};
use cbnet::ModelStore;
use datasets::Family;
use edgesim::fleet::{NetworkLink, SloSojourn, SwapPolicy, Tier, TierSwap};
use edgesim::{
    AdmissionPolicy, ArrivalProcess, CostProfile, DeviceModel, FleetConfig, FleetSim, RecordMode,
    SchedulerKind, SimObserver,
};
use models::branchynet::BranchyNet;
use nn::Network;
use obs::{MetricsRegistry, ObsMode};
use rand::Rng;
use tensorstore::{AlignedBytes, SerializeTensors, TensorFile};

/// One timed comparator.
struct Row {
    kind: ModelKind,
    blob_bytes: usize,
    legacy_bytes: usize,
    save_ns: f64,
    load_cold_ns: f64,
    load_hot_ns: f64,
    legacy_load_ns: f64,
}

impl Row {
    fn hot_speedup(&self) -> f64 {
        self.legacy_load_ns / self.load_hot_ns
    }
    fn cold_speedup(&self) -> f64 {
        self.legacy_load_ns / self.load_cold_ns
    }
}

/// Best-of (minimum) wall-clock nanoseconds of `reps` runs of `f`, after
/// one warm-up — noise on a shared runner is additive, so the minimum is
/// the stable estimate, and both sides of every ratio use it.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Assemble the legacy `CBR1` envelope for `kind` from `reg`'s trained
/// models (magic, one-byte kind tag, `u64`-length-prefixed stage blocks —
/// the layout the golden-bytes test pins).
fn legacy_envelope(reg: &ModelRegistry, kind: ModelKind) -> bytes::Bytes {
    use bytes::BufMut;
    let mut buf = bytes::BytesMut::new();
    buf.put_slice(CHECKPOINT_MAGIC);
    let blocks: Vec<bytes::Bytes> = match kind {
        ModelKind::LeNet => {
            buf.put_u8(0);
            vec![reg.trained().lenet.save()]
        }
        ModelKind::BranchyNet => {
            buf.put_u8(1);
            vec![reg.trained().artifacts.branchynet.save()]
        }
        ModelKind::Cbnet => {
            buf.put_u8(4);
            vec![
                reg.trained().artifacts.cbnet.autoencoder.save(),
                reg.trained().artifacts.cbnet.lightweight.save(),
            ]
        }
        other => panic!("no legacy envelope assembled for {other}"),
    };
    for b in &blocks {
        buf.put_u64_le(b.len() as u64);
        buf.put_slice(b);
    }
    buf.freeze()
}

/// A preallocated same-architecture slot for the hot (in-place refill)
/// load path, built once per comparator from the parsed file.
enum Slot {
    Net(Network),
    Branchy(BranchyNet),
    Pipeline(CbnetModel),
}

impl Slot {
    fn from_file(kind: ModelKind, file: &TensorFile<'_>) -> Slot {
        match kind {
            ModelKind::LeNet => {
                Slot::Net(Network::from_tensor_file(file, "").expect("LeNet slot builds"))
            }
            ModelKind::BranchyNet => Slot::Branchy(
                BranchyNet::from_tensor_file(file, "").expect("BranchyNet slot builds"),
            ),
            ModelKind::Cbnet => {
                Slot::Pipeline(CbnetModel::from_tensor_file(file, "").expect("CBNet slot builds"))
            }
            other => panic!("no slot for {other}"),
        }
    }

    fn import(&mut self, file: &TensorFile<'_>) {
        match self {
            Slot::Net(n) => n.import_tensors(file, "").expect("hot import"),
            Slot::Branchy(b) => b.import_tensors(file, "").expect("hot import"),
            Slot::Pipeline(p) => p.import_tensors(file, "").expect("hot import"),
        }
    }
}

/// Flip one pseudo-random bit per iteration and feed the blob back through
/// `load_model`: every outcome must be a clean `Ok`/`Err`, never a panic.
/// Returns (accepted, rejected).
fn fuzz_loads(
    reg: &mut ModelRegistry,
    kind: ModelKind,
    blob: &bytes::Bytes,
    iters: usize,
    seed: u64,
) -> (usize, usize) {
    let mut rng = tensor::random::rng_from_seed(seed);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for _ in 0..iters {
        let mut corrupted = blob.to_vec();
        let idx = rng.gen_range(0..corrupted.len());
        corrupted[idx] ^= 1 << rng.gen_range(0..8u32);
        match reg.load_model(kind, bytes::Bytes::from(corrupted)) {
            Ok(()) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    // Restore the pristine weights the fuzz may have perturbed.
    reg.load_model(kind, blob.clone())
        .expect("pristine blob reloads");
    (accepted, rejected)
}

/// The two-tier rolling-deploy topology the smoke runs on.
fn deploy_config(requests: usize) -> FleetConfig {
    FleetConfig {
        tiers: vec![
            Tier {
                name: "edge".into(),
                device: DeviceModel::raspberry_pi4(),
                servers: 2,
                profile: CostProfile::bimodal(4.0, 14.0, 0.7),
                scheduler: SchedulerKind::Fifo,
                admission: AdmissionPolicy::Bounded { max_queue: 32 },
                link: None,
            },
            Tier {
                name: "cloud".into(),
                device: DeviceModel::gci_cpu(),
                servers: 4,
                profile: CostProfile::constant(1.5),
                scheduler: SchedulerKind::ShortestService,
                admission: AdmissionPolicy::Unbounded,
                link: Some(NetworkLink::wifi(16 * 1024)),
            },
        ],
        arrivals: ArrivalProcess::poisson(200.0),
        requests,
        seed: 41,
        slo_ms: 30.0,
    }
}

fn main() {
    let smoke = std::env::var("CBNET_MODEL_STORE_SMOKE").is_ok();
    let (reps, fuzz_iters, deploy_requests) = if smoke {
        (5, 64, 2_000)
    } else {
        (9, 256, 8_000)
    };
    let scale = ExperimentScale {
        n_train: 400,
        n_test: 80,
        epochs: 1,
        seed: 0xC0FFEE,
    };
    println!("=== model_store — checkpoint format timing ({reps} reps/point) ===\n");

    let mut reg = ModelRegistry::train(Family::MnistLike, &scale);
    let mut dst = ModelRegistry::train(
        Family::MnistLike,
        &ExperimentScale {
            seed: 0xBEEF,
            ..scale
        },
    );

    let kinds = [ModelKind::LeNet, ModelKind::BranchyNet, ModelKind::Cbnet];
    let mut rows = Vec::new();
    for kind in kinds {
        let save_ns = best_ns(reps, || {
            std::hint::black_box(reg.save_model(kind));
        });
        let blob = reg.save_model(kind);
        let legacy = legacy_envelope(&reg, kind);

        let load_cold_ns = best_ns(reps, || {
            dst.load_model(kind, blob.clone()).expect("cold load");
        });
        let legacy_load_ns = best_ns(reps, || {
            dst.load_model(kind, legacy.clone()).expect("legacy load");
        });

        // Hot path: parse once, refill a preallocated slot per repetition.
        let aligned = AlignedBytes::from_slice(&blob);
        let file = TensorFile::parse(aligned.as_slice()).expect("blob parses");
        let mut slot = Slot::from_file(kind, &file);
        let load_hot_ns = best_ns(reps, || slot.import(&file));

        rows.push(Row {
            kind,
            blob_bytes: blob.len(),
            legacy_bytes: legacy.len(),
            save_ns,
            load_cold_ns,
            load_hot_ns,
            legacy_load_ns,
        });
    }

    println!(
        "{:<11} {:>10} {:>12} {:>10} {:>10} {:>10} {:>11} {:>9} {:>9}",
        "model",
        "bytes",
        "legacy_bytes",
        "save_us",
        "cold_us",
        "hot_us",
        "legacy_us",
        "hot_x",
        "cold_x"
    );
    for r in &rows {
        println!(
            "{:<11} {:>10} {:>12} {:>10.1} {:>10.1} {:>10.1} {:>11.1} {:>8.1}x {:>8.1}x",
            r.kind.name(),
            r.blob_bytes,
            r.legacy_bytes,
            r.save_ns / 1e3,
            r.load_cold_ns / 1e3,
            r.load_hot_ns / 1e3,
            r.legacy_load_ns / 1e3,
            r.hot_speedup(),
            r.cold_speedup(),
        );
    }
    let largest = rows
        .iter()
        .max_by_key(|r| r.blob_bytes)
        .expect("at least one comparator");
    println!(
        "\nlargest comparator: {} ({} bytes) — hot load {:.1}x the legacy path",
        largest.kind.name(),
        largest.blob_bytes,
        largest.hot_speedup()
    );

    // Corrupt-byte fuzz: single bit flips over the new-format blobs must
    // always come back as a clean Ok (data-section flip: perturbed weights)
    // or a diagnosable Err (header/arch flip) — a panic aborts the harness.
    println!("\n=== corrupt-byte fuzz — {fuzz_iters} single-bit flips per kind ===");
    let mut fuzz_rows = Vec::new();
    for kind in [ModelKind::LeNet, ModelKind::Cbnet] {
        let blob = reg.save_model(kind);
        let (accepted, rejected) = fuzz_loads(&mut dst, kind, &blob, fuzz_iters, 0xF1F0);
        println!("  {kind}: {accepted} loads accepted, {rejected} rejected, 0 panics");
        fuzz_rows.push((kind, accepted, rejected));
    }

    // Rolling-deploy smoke: publish two versions, serve v1, hot-swap the
    // edge tier to v2 mid-run, finish the control-plane handoff.
    println!("\n=== rolling deploy — {deploy_requests} requests, 2 tiers ===");
    let cfg = deploy_config(deploy_requests);
    let mut store = ModelStore::new(cfg.tiers.len());
    let v1 = store
        .publish_from(&mut reg, ModelKind::Cbnet)
        .expect("v1 publishes");
    let v2 = store
        .publish_from(&mut dst, ModelKind::Cbnet)
        .expect("v2 publishes");
    store.activate(0, v1).expect("v1 activates");
    let swap = TierSwap {
        tier: 0,
        at_ms: 3_000.0,
        profile: CostProfile::bimodal(3.0, 10.0, 0.7),
        version: v2.version,
        policy: SwapPolicy::Immediate,
    };
    let mode = ObsMode::resolve();
    let mut sim = FleetSim::new(&cfg, RecordMode::Full).expect("deploy config is valid");
    sim.schedule_swap(swap)
        .expect("swap targets a tier of the config");
    let mut observer = mode
        .metrics_enabled()
        .then(|| SimObserver::for_fleet(&cfg, "slo"));
    sim.run(&mut SloSojourn { slo_ms: 18.0 }, observer.as_mut())
        .expect("the SLO policy routes in range");
    let (report, applied) = (sim.report(), sim.swaps_applied());
    if let Some(observer) = &observer {
        let mut acc = MetricsRegistry::new();
        acc.merge_from(observer.registry());
        let path =
            std::env::var("CBNET_METRICS_JSON").unwrap_or_else(|_| "METRICS.json".to_string());
        std::fs::write(&path, acc.write_json(mode))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} (mode {})", mode.name());
        if mode.trace_enabled() {
            let path =
                std::env::var("CBNET_TRACE_JSONL").unwrap_or_else(|_| "TRACE.jsonl".to_string());
            std::fs::write(&path, observer.trace_jsonl())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("wrote {path} (rolling-deploy span ring, swap spans included)");
        }
    }
    store.activate(0, v2).expect("v2 activates");
    assert_eq!(applied, 1, "the scheduled swap applied");
    assert_eq!(
        report.completed + report.dropped,
        cfg.requests,
        "conservation across the swap"
    );
    assert_eq!(store.active_version(0), Some(v2), "handoff finished on v2");
    println!(
        "  {} completed + {} dropped = {} offered; swap applied, tier 0 now {v2}",
        report.completed, report.dropped, cfg.requests
    );

    let path = std::env::var("BENCH_STORE_JSON").unwrap_or_else(|_| "BENCH_store.json".into());
    if path != "-" {
        // Hand-rolled JSON: the workspace has no serde and the schema is flat.
        let mut json = String::from("{\n  \"comparators\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"kind\": \"{}\", \"blob_bytes\": {}, \"legacy_bytes\": {}, \
                 \"save_ns\": {:.0}, \"load_cold_ns\": {:.0}, \"load_hot_ns\": {:.0}, \
                 \"legacy_load_ns\": {:.0}, \"hot_speedup\": {:.2}, \"cold_speedup\": {:.2}}}{}\n",
                r.kind.name(),
                r.blob_bytes,
                r.legacy_bytes,
                r.save_ns,
                r.load_cold_ns,
                r.load_hot_ns,
                r.legacy_load_ns,
                r.hot_speedup(),
                r.cold_speedup(),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "  ],\n  \"largest\": {{\"kind\": \"{}\", \"blob_bytes\": {}, \"hot_speedup\": {:.2}}},\n",
            largest.kind.name(),
            largest.blob_bytes,
            largest.hot_speedup()
        ));
        json.push_str("  \"fuzz\": [\n");
        for (i, (kind, accepted, rejected)) in fuzz_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"kind\": \"{}\", \"iterations\": {}, \"accepted\": {}, \"rejected\": {}}}{}\n",
                kind.name(),
                accepted + rejected,
                accepted,
                rejected,
                if i + 1 < fuzz_rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "  ],\n  \"rolling_deploy\": {{\"requests\": {}, \"completed\": {}, \"dropped\": {}, \
             \"swaps_applied\": {}, \"published\": {}, \"final_version\": {}}}\n}}\n",
            cfg.requests,
            report.completed,
            report.dropped,
            applied,
            store.published(),
            v2.version
        ));
        let mut f = std::fs::File::create(&path).expect("create BENCH_store.json");
        f.write_all(json.as_bytes())
            .expect("write BENCH_store.json");
        println!("\nwrote {path}");
    }

    // Acceptance bar — fail loudly in CI if the zero-copy win regresses.
    if std::env::var("BENCH_STORE_ENFORCE").is_ok() {
        assert!(
            largest.hot_speedup() >= 5.0,
            "hot load is only {:.2}x the legacy path on {} (< 5x)",
            largest.hot_speedup(),
            largest.kind.name()
        );
    }
}
