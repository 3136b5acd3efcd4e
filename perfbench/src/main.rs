//! perfbench — the end-to-end benchmark of this repository.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer_easy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Set-up generates MNIST-like data and trains LeNet, BranchyNet and CBNet,
//! round-trips them through checkpoints, prices BranchyNet on the simulator
//! tiers and builds the simulators. The timed window then interleaves
//! inference passes and simulator runs in the workload's proportion, and
//! the run ends with the output checks. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from spans
//! recorded around every call) with `--trace 1`. See README.md.

mod checks;
mod infer;
mod setup;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nn::CostKind;
use obs::ObsMode;

use infer::{ModelSamples, Ops, Reference};
use setup::{Bench, Workload, MODELS};
use stats::{best, least, median};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <infer_easy|infer_hard|fleet_sim> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]";

/// A metric's name and unit.
type Spec = (&'static str, &'static str);
/// Measured values by metric name.
type Values = Vec<(&'static str, f64)>;

/// The end-to-end metrics of untraced runs.
const END_TO_END: [Spec; 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cbnet_img_per_s", "img/s"),
    ("branchynet_img_per_s", "img/s"),
    ("lenet_img_per_s", "img/s"),
    ("cbnet_b1_ms", "ms"),
    ("branchynet_b1_ms", "ms"),
    ("lenet_b1_ms", "ms"),
    ("sim_edge_req_per_s", "req/s"),
    ("sim_fleet_req_per_s", "req/s"),
];

/// The per-layer metrics of traced runs.
const PER_LAYER: [Spec; 35] = [
    ("datasets.generate_s", "s"),
    ("cbnet.train_pipeline_s", "s"),
    ("models.train_lenet_s", "s"),
    ("tensorstore.save_ms", "ms"),
    ("tensorstore.load_ms", "ms"),
    ("tensorstore.bytes", "bytes"),
    ("edgesim.profile_ms", "ms"),
    ("edgesim.build_ms", "ms"),
    ("models.cbnet.autoencoder_us", "us"),
    ("models.cbnet.classifier_us", "us"),
    ("models.cbnet.autoencoder_b1_us", "us"),
    ("models.cbnet.classifier_b1_us", "us"),
    ("models.branchynet.exit_rate", "share"),
    ("models.branchynet.trunk_us", "us"),
    ("models.branchynet.exit_head_us", "us"),
    ("models.branchynet.tail_us_per_row", "us"),
    ("models.branchynet.compaction_us", "us"),
    ("nn.lenet.conv_us", "us"),
    ("nn.lenet.dense_us", "us"),
    ("nn.lenet.other_us", "us"),
    ("tensor.dense_gflops", "GFLOP/s"),
    ("tensor.dense_b1_gbps", "GB/s"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("edgesim.edge.events_per_req", "events/req"),
    ("edgesim.fleet.events_per_req", "events/req"),
    ("edgesim.edge.ns_per_event", "ns"),
    ("edgesim.fleet.ns_per_event", "ns"),
    ("edgesim.fleet.offload_share", "share"),
    ("edgesim.fleet.tier0.completed", "count"),
    ("edgesim.fleet.tier1.completed", "count"),
    ("edgesim.fleet.tier2.completed", "count"),
    ("edgesim.edge.dropped", "count"),
    ("edgesim.fleet.dropped", "count"),
    ("obs.probe_overhead_pct", "%"),
    ("obs.observer_overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 20.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds {value}: need a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: need 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Pin what the numbers depend on: one compute thread, the best backend
/// this CPU has, and library observability off (the traced mode installs
/// its probe and observers explicitly).
fn pin_environment() {
    std::env::set_var("TENSOR_NUM_THREADS", "1");
    std::env::set_var("CBNET_OBS", "off");
    obs::mode::set_override(ObsMode::Off);
    tensor::backend::set_override(tensor::backend::Backend::auto().kind());
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

/// Peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn provenance(args: &Args) -> String {
    format!(
        "provenance: cpu=\"{}\" nproc={} threads={} backend={} obs={} commit={} seed={} \
         budget={}x{}ep train_seed={:#x} workload={} seconds={} trace={}",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tensor::parallel::max_threads(),
        tensor::backend::Backend::resolve().name(),
        ObsMode::resolve().name(),
        commit(),
        args.seed,
        setup::TRAIN_SAMPLES,
        setup::TRAIN_EPOCHS,
        setup::TRAIN_SEED,
        args.workload.name(),
        args.seconds,
        u8::from(args.trace),
    )
}

/// One simulator round: `edge` then `fleet`, each reset and run once.
/// Returns the round's wall time, s.
fn sim_round(bench: &mut Bench, rps: &mut [Vec<f64>; 2], ops: &mut Ops) -> f64 {
    let start = Instant::now();
    for (case, out) in [&mut bench.edge, &mut bench.fleet]
        .into_iter()
        .zip(rps.iter_mut())
    {
        match case.run(None) {
            Ok(ns) => {
                let r = case.report();
                out.push(r.offered as f64 / (ns as f64 * 1e-9));
                ops.add(r.offered, checks::lost_requests(&r));
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ops.add(case.cfg.requests, case.cfg.requests);
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// The untraced window: inference rounds and simulator rounds in the
/// workload's proportion of wall time, for `seconds`.
fn measure(bench: &mut Bench, reference: &Reference, args: &Args, ops: &mut Ops) -> Values {
    let share = args.workload.sim_share();
    let mut models: Vec<ModelSamples> = MODELS.iter().map(|_| ModelSamples::default()).collect();
    let mut rps = [Vec::new(), Vec::new()];
    let (mut t_infer, mut t_sim, mut round) = (0.0, 0.0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || round == 0 || rps[0].is_empty() {
        if t_sim * (1.0 - share) < t_infer * share {
            t_sim += sim_round(bench, &mut rps, ops);
        } else {
            t_infer += infer::timed_round(
                &mut bench.reg,
                &bench.stream,
                reference,
                round,
                &mut models,
                ops,
            );
            round += 1;
        }
    }

    println!(
        "timed window: {round} inference rounds, {} simulator rounds",
        rps[0].len()
    );
    let images = bench.stream.labels.len();
    for (kind, s) in MODELS.iter().zip(&models) {
        let (p90, p99, n) = stats::tails(&s.b1_ms);
        println!(
            "  {kind:<10} batch 32: best {:.0} img/s, median pass {:.0} over {} passes; \
             batch 1: best pass median {:.4} ms; all calls: median {:.4} ms, p90 {p90:.4} ms, \
             p99 {p99:.4} ms over {n} calls",
            s.best_img_per_s(images),
            s.median_img_per_s(images),
            s.pass_s.len(),
            least(&s.b1_pass_ms),
            median(&s.b1_ms),
        );
    }
    let per_image_us: Vec<f64> = models
        .iter()
        .map(|s| 1e6 / s.best_img_per_s(images))
        .collect();
    println!(
        "  per-image batch-32 time, CBNet : LeNet : BranchyNet = {:.2} : 1 : {:.2}",
        per_image_us[0] / per_image_us[2],
        per_image_us[1] / per_image_us[2],
    );
    for (case, r) in [&bench.edge, &bench.fleet].into_iter().zip(&rps) {
        println!(
            "  sim {}: best {:.0} req/s, median {:.0} over {} runs",
            case.name,
            best(r),
            median(r),
            r.len()
        );
        let r = case.report();
        println!(
            "  sim {}: {} requests, sojourn p50 {:.3} ms, p99 {:.3} ms (Lean histogram), \
             offloaded {}, dropped {}",
            case.name, r.offered, r.end_to_end.p50_ms, r.end_to_end.p99_ms, r.offloaded, r.dropped
        );
        for t in &r.tiers {
            let util = t.per_server_utilization.iter().sum::<f64>()
                / t.per_server_utilization.len().max(1) as f64;
            println!(
                "    tier {:<9} completed {:>7}, dropped {:>6}, utilization {:.3}, \
                 sojourn p50 {:.3} ms, p99 {:.3} ms",
                t.name, t.completed, t.dropped, util, t.serving.p50_ms, t.serving.p99_ms
            );
        }
    }

    vec![
        ("cbnet_img_per_s", models[0].best_img_per_s(images)),
        ("branchynet_img_per_s", models[1].best_img_per_s(images)),
        ("lenet_img_per_s", models[2].best_img_per_s(images)),
        ("cbnet_b1_ms", least(&models[0].b1_pass_ms)),
        ("branchynet_b1_ms", least(&models[1].b1_pass_ms)),
        ("lenet_b1_ms", least(&models[2].b1_pass_ms)),
        ("sim_edge_req_per_s", best(&rps[0])),
        ("sim_fleet_req_per_s", best(&rps[1])),
    ]
}

/// Median over the spans named `name` of `scale · ns / items`.
fn per_item(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    let v: Vec<f64> = tracer
        .named(name)
        .map(|s| scale * s.ns() as f64 / s.items.max(1) as f64)
        .collect();
    median(&v)
}

/// Median over the spans named `name` of `items / ns`.
fn rate(tracer: &Tracer, name: &str) -> f64 {
    let v: Vec<f64> = tracer
        .named(name)
        .map(|s| s.items as f64 / s.ns().max(1) as f64)
        .collect();
    median(&v)
}

/// Median span time of `name` over that of `base`, as a percent overhead.
fn overhead_pct(tracer: &Tracer, name: &str, base: &str) -> f64 {
    let ns = |n: &str| median(&tracer.named(n).map(|s| s.ns() as f64).collect::<Vec<_>>());
    100.0 * (ns(name) / ns(base) - 1.0)
}

/// The traced window: per-layer rounds for `seconds`, then the per-layer
/// metrics derived from the recorded spans.
fn trace_layers(
    bench: &mut Bench,
    reference: &Reference,
    args: &Args,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Result<Values, String> {
    let mut layers = infer::Traced::new(&bench.reg, &bench.stream);
    let mut observers = [
        bench.fleet.observer(ObsMode::Metrics),
        bench.fleet.observer(ObsMode::Trace),
    ];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0;
    while Instant::now() < deadline || round == 0 {
        layers.round(&mut bench.reg, &bench.stream, reference, tracer, round, ops);
        for (case, name) in [
            (&mut bench.edge, "edgesim.edge.run"),
            (&mut bench.fleet, "edgesim.fleet.run"),
        ] {
            let g = tracer.group();
            tracer.span(name, g, case.cfg.requests as u64, || case.run(None))?;
            ops.add(case.cfg.requests, checks::lost_requests(&case.report()));
        }
        for (obs, name) in observers
            .iter_mut()
            .zip(["edgesim.fleet.run_metrics", "edgesim.fleet.run_traced"])
        {
            let g = tracer.group();
            let fleet = &mut bench.fleet;
            tracer.span(name, g, fleet.cfg.requests as u64, || fleet.run(Some(obs)))?;
            ops.add(fleet.cfg.requests, checks::lost_requests(&fleet.report()));
        }
        round += 1;
    }
    println!(
        "traced window: {round} rounds, {} spans",
        tracer.spans().len()
    );

    // BranchyNet's compaction: `infer` minus its three stages, per batch.
    let mut by_group: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in tracer.spans() {
        let e = by_group.entry(s.group).or_default();
        match s.name {
            "models.branchynet.infer" => e.0 += s.ns() as f64,
            "models.branchynet.trunk"
            | "models.branchynet.exit_head"
            | "models.branchynet.tail" => e.1 += s.ns() as f64,
            _ => {}
        }
    }
    let compaction: Vec<f64> = by_group
        .values()
        .filter(|(infer, _)| *infer > 0.0)
        .map(|(infer, stages)| (infer - stages) / setup::BATCH as f64 / 1e3)
        .collect();

    let edge = bench.edge.report();
    let fleet = bench.fleet.report();
    let sim_ns_per_event = |name: &str, events: u64| {
        median(
            &tracer
                .named(name)
                .map(|s| s.ns() as f64)
                .collect::<Vec<_>>(),
        ) / events as f64
    };
    println!(
        "  observer overhead on fleet runs: metrics mode {:+.2}%, trace mode {:+.2}%",
        overhead_pct(tracer, "edgesim.fleet.run_metrics", "edgesim.fleet.run"),
        overhead_pct(tracer, "edgesim.fleet.run_traced", "edgesim.fleet.run"),
    );
    let setup_total = |name: &str, scale: f64| tracer.total_ns(name) as f64 * scale;
    Ok(vec![
        (
            "datasets.generate_s",
            setup_total("datasets.generate", 1e-9),
        ),
        (
            "cbnet.train_pipeline_s",
            setup_total("cbnet.train_pipeline", 1e-9),
        ),
        (
            "models.train_lenet_s",
            setup_total("models.train_lenet", 1e-9),
        ),
        ("tensorstore.save_ms", setup_total("tensorstore.save", 1e-6)),
        ("tensorstore.load_ms", setup_total("tensorstore.load", 1e-6)),
        ("tensorstore.bytes", bench.checkpoint_bytes as f64),
        ("edgesim.profile_ms", setup_total("edgesim.profile", 1e-6)),
        ("edgesim.build_ms", setup_total("edgesim.build", 1e-6)),
        (
            "models.cbnet.autoencoder_us",
            per_item(tracer, "models.cbnet.autoencoder", 1e-3),
        ),
        (
            "models.cbnet.classifier_us",
            per_item(tracer, "models.cbnet.classifier", 1e-3),
        ),
        (
            "models.cbnet.autoencoder_b1_us",
            per_item(tracer, "models.cbnet.autoencoder_b1", 1e-3),
        ),
        (
            "models.cbnet.classifier_b1_us",
            per_item(tracer, "models.cbnet.classifier_b1", 1e-3),
        ),
        (
            "models.branchynet.exit_rate",
            layers.early as f64 / layers.rows.max(1) as f64,
        ),
        (
            "models.branchynet.trunk_us",
            per_item(tracer, "models.branchynet.trunk", 1e-3),
        ),
        (
            "models.branchynet.exit_head_us",
            per_item(tracer, "models.branchynet.exit_head", 1e-3),
        ),
        (
            "models.branchynet.tail_us_per_row",
            per_item(tracer, "models.branchynet.tail", 1e-3),
        ),
        ("models.branchynet.compaction_us", median(&compaction)),
        ("nn.lenet.conv_us", layers.lenet_us(CostKind::Conv)),
        ("nn.lenet.dense_us", layers.lenet_us(CostKind::Dense)),
        ("nn.lenet.other_us", layers.lenet_us(CostKind::Other)),
        ("tensor.dense_gflops", rate(tracer, "tensor.matmul_bt_bias")),
        (
            "tensor.dense_b1_gbps",
            rate(tracer, "tensor.matmul_bt_bias_b1"),
        ),
        ("tensor.conv_gflops", rate(tracer, "tensor.conv2d_batch")),
        (
            "edgesim.edge.events_per_req",
            bench.edge.events() as f64 / edge.offered as f64,
        ),
        (
            "edgesim.fleet.events_per_req",
            bench.fleet.events() as f64 / fleet.offered as f64,
        ),
        (
            "edgesim.edge.ns_per_event",
            sim_ns_per_event("edgesim.edge.run", bench.edge.events()),
        ),
        (
            "edgesim.fleet.ns_per_event",
            sim_ns_per_event("edgesim.fleet.run", bench.fleet.events()),
        ),
        ("edgesim.fleet.offload_share", fleet.offload_rate()),
        (
            "edgesim.fleet.tier0.completed",
            fleet.tiers[0].completed as f64,
        ),
        (
            "edgesim.fleet.tier1.completed",
            fleet.tiers[1].completed as f64,
        ),
        (
            "edgesim.fleet.tier2.completed",
            fleet.tiers[2].completed as f64,
        ),
        ("edgesim.edge.dropped", edge.dropped as f64),
        ("edgesim.fleet.dropped", fleet.dropped as f64),
        (
            "obs.probe_overhead_pct",
            overhead_pct(tracer, "nn.lenet.pass_probed", "nn.lenet.pass"),
        ),
        (
            "obs.observer_overhead_pct",
            overhead_pct(tracer, "edgesim.fleet.run_traced", "edgesim.fleet.run"),
        ),
    ])
}

/// The output checks. Per-image and per-request failures are counted in
/// `ops`; the aggregate checks return their failures.
fn check_outputs(
    bench: &mut Bench,
    reference: &Reference,
    args: &Args,
    ops: &mut Ops,
) -> Vec<String> {
    let mut failures = Vec::new();
    let stream = &bench.stream;
    for (m, kind) in MODELS.iter().enumerate() {
        let acc = checks::accuracy(&reference.b32[m], &stream.labels);
        let agree = checks::agreement(&reference.b1[m], &reference.b32[m]);
        println!(
            "check {kind}: accuracy {:.2}%, batch-1/batch-32 agreement {:.2}%",
            100.0 * acc,
            100.0 * agree
        );
        if acc < args.workload.accuracy_floor() {
            failures.push(format!(
                "{kind} accuracy {:.2}% is under the {:.0}% floor",
                100.0 * acc,
                100.0 * args.workload.accuracy_floor()
            ));
        }
        if agree < checks::BATCH_AGREEMENT_FLOOR {
            failures.push(format!(
                "{kind} batch-1 and batch-32 predictions agree on only {:.2}%",
                100.0 * agree
            ));
        }
        // The reloaded weights predict exactly what the trained ones did.
        ops.add(
            stream.labels.len(),
            checks::mismatches(&bench.before_reload[m], &reference.b32[m]),
        );
    }

    let bn = &mut bench.reg.trained_mut().artifacts.branchynet;
    let threshold = bn.config().entropy_threshold;
    for b in &stream.batches {
        let infer: Vec<(usize, bool)> = bn
            .infer(b)
            .iter()
            .map(|o| {
                (
                    o.prediction,
                    o.exit == models::branchynet::ExitDecision::Early,
                )
            })
            .collect();
        let full = bn.infer_full(b);
        ops.add(
            infer.len(),
            checks::exit_rule_mismatches(&infer, &full, threshold),
        );
    }

    let err = checks::lean_quantile_error();
    for case in [&bench.edge, &bench.fleet] {
        let lean = case.report();
        if let Err(e) = checks::conservation(&lean) {
            failures.push(format!("{}: conservation: {e}", case.name));
        }
        match case.full_report() {
            Ok(full) => {
                ops.add(full.offered, checks::lost_requests(&full));
                if let Err(e) = checks::lean_agrees_with_full(&lean, &full, err) {
                    failures.push(format!("{}: Lean vs Full: {e}", case.name));
                }
                println!(
                    "check sim {}: exact p50 {:.4} ms / p99 {:.4} ms, Lean {:.4} / {:.4}",
                    case.name,
                    full.end_to_end.p50_ms,
                    full.end_to_end.p99_ms,
                    lean.end_to_end.p50_ms,
                    lean.end_to_end.p99_ms
                );
            }
            Err(e) => {
                ops.add(case.cfg.requests, case.cfg.requests);
                failures.push(format!("{}: Full-record run: {e}", case.name));
            }
        }
    }

    let s = bench.profiles[0].mean_ms();
    match sim::md1_run(s, sim::MD1_RHO, sim::MD1_REQUESTS, args.seed ^ 0x3D1) {
        Ok((mean, util)) => {
            ops.add(sim::MD1_REQUESTS, 0);
            println!(
                "check M/D/1: s = {s:.4} ms, ρ = {}: mean sojourn {mean:.4} ms vs P-K {:.4} ms, \
                 utilization {util:.4}",
                sim::MD1_RHO,
                checks::pk_mean_sojourn_ms(s, sim::MD1_RHO)
            );
            if let Err(e) = checks::md1_agrees(mean, util, s, sim::MD1_RHO) {
                failures.push(e);
            }
        }
        Err(e) => {
            ops.add(sim::MD1_REQUESTS, sim::MD1_REQUESTS);
            failures.push(format!("M/D/1 run: {e}"));
        }
    }
    failures
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Write the spans and print each layer's self time, largest first.
fn write_trace(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans and per-layer self times written to {}",
        path.display()
    );
    let mut selfs: Vec<_> = tracer.self_times().into_iter().collect();
    selfs.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in selfs {
        println!(
            "  self {:>10.3} ms  total {:>10.3} ms  calls {:>6}  {name}",
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6,
            t.calls
        );
    }
    Ok(())
}

/// Print every metric of `names`, then the result line; returns whether
/// the run is correct.
fn print_result(names: &[Spec], metrics: Values, failures: &[String], ops: Ops) -> bool {
    for f in failures {
        println!("CHECK FAILED: {f}");
    }
    let values: BTreeMap<&str, f64> = metrics.into_iter().collect();
    let mut body = Vec::new();
    for (name, unit) in names {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        println!("metric {name} = {v} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    let correct = failures.is_empty() && values.values().all(|v| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
    correct
}

fn run(args: &Args, origin: Instant) -> Result<bool, String> {
    let mut tracer = Tracer::new(args.trace, origin);
    let mut bench = setup::build(args.workload, args.seed, &mut tracer)?;
    let setup_s = origin.elapsed().as_secs_f64();
    println!("{}", provenance(args));
    println!(
        "set-up {setup_s:.3} s; stream {} images, {:.1}% hard; BranchyNet threshold {:.4}",
        bench.stream.labels.len(),
        100.0 * bench.stream.hard.iter().filter(|&&h| h).count() as f64
            / bench.stream.labels.len() as f64,
        bench
            .reg
            .trained()
            .artifacts
            .branchynet
            .config()
            .entropy_threshold,
    );
    for (&d, p) in edgesim::Device::ALL.iter().zip(&bench.profiles) {
        let device = edgesim::DeviceModel::preset(d);
        let mut modeled = |kind| bench.reg.model(kind).cost_profile(&device).mean_ms();
        println!(
            "modeled per-image latency on {d}: CBNet {:.4} ms, LeNet {:.4} ms; BranchyNet \
             on this stream: mean {:.4} ms (min {:.4}, max {:.4}, easy share {:.3})",
            modeled(cbnet::ModelKind::Cbnet),
            modeled(cbnet::ModelKind::LeNet),
            p.mean_ms(),
            p.min_ms(),
            p.max_ms(),
            p.easy_fraction()
        );
    }

    // Warm-up: reference predictions (every plan gets built) and one run of
    // each simulator, none of it timed.
    let reference = Reference::take(&mut bench.reg, &bench.stream);
    sim_round(
        &mut bench,
        &mut [Vec::new(), Vec::new()],
        &mut Ops::default(),
    );

    let mut ops = Ops::default();
    if args.trace {
        let metrics = trace_layers(&mut bench, &reference, args, &mut tracer, &mut ops)?;
        let failures = check_outputs(&mut bench, &reference, args, &mut ops);
        write_trace(&tracer, args)?;
        Ok(print_result(&PER_LAYER, metrics, &failures, ops))
    } else {
        let mut metrics = vec![("setup_s", setup_s)];
        metrics.extend(measure(&mut bench, &reference, args, &mut ops));
        let failures = check_outputs(&mut bench, &reference, args, &mut ops);
        metrics.push(("peak_rss_mb", peak_rss_mb()?));
        Ok(print_result(&END_TO_END, metrics, &failures, ops))
    }
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    pin_environment();
    match run(&args, origin) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let named: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        want.extend(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n));
        assert_eq!(named, want);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload infer_hard --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::InferHard, 7, 3.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload fleet_sim").is_err());
        assert!(args("--workload fleet_sim --seed 1 --trace 2").is_err());
        assert!(args("--workload fleet_sim --seed 1 --seconds 0").is_err());
    }
}
