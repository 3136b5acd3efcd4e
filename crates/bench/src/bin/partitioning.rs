//! Extension experiment: CBNet on-device versus Neurosurgeon-style DNN
//! partitioning — the comparison the paper motivates in §I ("DNN
//! partitioning algorithms … can be affected by network delays and
//! intermittent connections between the cloud and the edge") but does not
//! quantify.
//!
//! LeNet runs on a Raspberry Pi 4 edge device with a GCI+GPU cloud backend;
//! the partitioner picks the optimal split per network condition. CBNet
//! runs fully on-device.

use edgesim::fleet::NetworkLink;
use edgesim::partition::{best_split, evaluate_splits};
use edgesim::DeviceModel;
use models::autoencoder::AutoencoderConfig;
use models::branchynet::{BranchyNet, BranchyNetConfig};
use models::lenet::build_lenet;
use models::lightweight::extract_lightweight;
use tensor::random::rng_from_seed;

fn main() {
    println!("=== Partitioning comparison (extension) — RPi 4 edge + GCI/GPU cloud ===\n");
    let mut rng = rng_from_seed(0);
    let lenet = build_lenet(&mut rng);
    let specs = lenet.specs();
    let edge = DeviceModel::raspberry_pi4();
    let cloud = DeviceModel::gci_gpu();

    // CBNet's on-device cost (untrained weights — cost depends only on the
    // architecture).
    let bn = BranchyNet::new(BranchyNetConfig::default(), &mut rng);
    let lw = extract_lightweight(&bn);
    let ae_specs =
        models::autoencoder::ConvertingAutoencoder::new(AutoencoderConfig::mnist(), &mut rng)
            .specs();
    let cbnet_ms = edge.price_specs(&ae_specs).total_ms + edge.price_network(&lw).total_ms;

    println!("CBNet fully on-device: {cbnet_ms:.3} ms/image (network-independent)\n");

    // Bandwidths in Mbit/s (the labels give MB/s); each transfer is priced
    // by its own activation size, so the links carry no fixed payload.
    let wifi = NetworkLink::new(5.0, 80.0, 0);
    let links = [
        (
            "ideal LAN (1 ms, 100 MB/s)",
            NetworkLink::new(1.0, 800.0, 0),
        ),
        ("WiFi (5 ms, 10 MB/s)", wifi),
        ("good LTE (25 ms, 2 MB/s)", NetworkLink::new(25.0, 16.0, 0)),
        (
            "congested cellular (60 ms, 0.5 MB/s)",
            NetworkLink::new(60.0, 4.0, 0),
        ),
    ];

    println!("link                                     best split  edge(ms)  net(ms)   cloud(ms)  total(ms)  vs CBNet");
    println!("-----------------------------------------------------------------------------------------------------------");
    for (name, link) in links {
        let best = best_split(&specs, &edge, &cloud, &link, 10);
        let split_desc = if best.split == specs.len() {
            "on-device".to_string()
        } else {
            format!("after L{}", best.split)
        };
        println!(
            "{name:<40} {split_desc:<10} {:>8.3}  {:>8.3}  {:>8.3}  {:>9.3}  {:>7.2}×",
            best.edge_ms,
            best.network_ms,
            best.cloud_ms,
            best.total_ms(),
            best.total_ms() / cbnet_ms
        );
    }

    println!("\nPer-split detail on WiFi:");
    let all = evaluate_splits(&specs, &edge, &cloud, &wifi, 10);
    println!("split  edge(ms)  net(ms)  cloud(ms)  total(ms)");
    for c in &all {
        println!(
            "{:>5}  {:>8.3}  {:>7.3}  {:>9.3}  {:>9.3}",
            c.split,
            c.edge_ms,
            c.network_ms,
            c.cloud_ms,
            c.total_ms()
        );
    }
    println!("\nEven the best partitioned execution pays the uplink on every image;");
    println!("CBNet's on-device latency beats it on all but ideal-LAN conditions, with");
    println!("no exposure to network variance or disconnection — the paper's §I claim.");
}
