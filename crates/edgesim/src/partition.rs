//! Neurosurgeon-style DNN partitioning \[15\] between an edge device and the
//! cloud.
//!
//! The paper positions CBNet against DNN partitioning (§I, §II-C): offloading
//! layers to the cloud "can be affected by network delays and intermittent
//! connections". This module makes that comparison quantitative: given an
//! architecture, an edge device model, a cloud device model, and a
//! [`NetworkLink`] (one-way latency + bandwidth, the same link model the
//! fleet offloads over), it evaluates every layer-granularity split point
//! and returns the optimum — exactly Neurosurgeon's search, over our cost
//! models.
//!
//! Split semantics for split point `k ∈ 0..=n`: layers `[0, k)` run on the
//! edge, the activation after layer `k−1` (or the raw input for `k = 0`)
//! is uploaded, layers `[k, n)` run in the cloud, and the (tiny) result
//! returns. `k = n` is pure on-device execution with no network use. Each
//! transfer ships f32 features, priced by
//! [`NetworkLink::transfer_bytes_ms`]; the link's `payload_bytes` plays no
//! part here.

use nn::LayerSpec;

use crate::device::DeviceModel;
use crate::fleet::NetworkLink;

/// Bytes of `features` f32 activations on the wire.
fn f32_bytes(features: usize) -> u64 {
    4 * features as u64
}

/// The cost of one candidate split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCost {
    /// Split index `k` (layers before `k` run on the edge).
    pub split: usize,
    /// Edge compute, ms.
    pub edge_ms: f64,
    /// Network transfer (activation upload + result download), ms.
    pub network_ms: f64,
    /// Cloud compute, ms.
    pub cloud_ms: f64,
}

impl SplitCost {
    /// End-to-end latency of this split.
    pub fn total_ms(&self) -> f64 {
        self.edge_ms + self.network_ms + self.cloud_ms
    }
}

/// Evaluate every split point; returns costs indexed by split `k ∈ 0..=n`.
pub fn evaluate_splits(
    specs: &[LayerSpec],
    edge: &DeviceModel,
    cloud: &DeviceModel,
    link: &NetworkLink,
    classes: usize,
) -> Vec<SplitCost> {
    let n = specs.len();
    // Prefix sums of per-layer cost on each device.
    let mut edge_prefix = vec![0.0f64; n + 1];
    let mut cloud_prefix = vec![0.0f64; n + 1];
    for (i, s) in specs.iter().enumerate() {
        edge_prefix[i + 1] = edge_prefix[i] + edge.layer_ms(s);
        cloud_prefix[i + 1] = cloud_prefix[i] + cloud.layer_ms(s);
    }
    let input_features = specs.first().map_or(0, |s| match s {
        LayerSpec::Dense { in_dim, .. } => *in_dim,
        LayerSpec::Conv2d { geom, .. } => geom.in_channels * geom.in_h * geom.in_w,
        other => other.out_features(),
    });
    (0..=n)
        .map(|k| {
            let network_ms = if k == n {
                0.0 // fully on-device
            } else {
                let upload_features = if k == 0 {
                    input_features
                } else {
                    specs[k - 1].out_features()
                };
                link.transfer_bytes_ms(f32_bytes(upload_features))
                    + link.transfer_bytes_ms(f32_bytes(classes))
            };
            SplitCost {
                split: k,
                edge_ms: edge_prefix[k],
                network_ms,
                cloud_ms: cloud_prefix[n] - cloud_prefix[k],
            }
        })
        .collect()
}

/// The minimum-latency split (Neurosurgeon's output).
pub fn best_split(
    specs: &[LayerSpec],
    edge: &DeviceModel,
    cloud: &DeviceModel,
    link: &NetworkLink,
    classes: usize,
) -> SplitCost {
    evaluate_splits(specs, edge, cloud, link, classes)
        .into_iter()
        .min_by(|a, b| a.total_ms().total_cmp(&b.total_ms()))
        // lint:allow(panic-in-lib, reason = "evaluate_splits always yields the on-device split, so the iterator is non-empty by construction")
        .expect("at least the on-device split exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::ActivationKind;

    fn toy_specs() -> Vec<LayerSpec> {
        vec![
            LayerSpec::Dense {
                in_dim: 784,
                out_dim: 256,
            },
            LayerSpec::Activation {
                kind: ActivationKind::Relu,
                dim: 256,
            },
            LayerSpec::Dense {
                in_dim: 256,
                out_dim: 10,
            },
        ]
    }

    /// WiFi: a 5 ms leg at 80 Mbit/s.
    fn wifi() -> NetworkLink {
        NetworkLink::new(5.0, 80.0, 0)
    }

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let l = NetworkLink::new(10.0, 8.0, 0);
        // 250k floats = 1 MB at 8 Mbit/s = 1000 ms + 10 ms latency.
        assert!((l.transfer_bytes_ms(f32_bytes(250_000)) - 1010.0).abs() < 1.0);
        assert!((l.transfer_bytes_ms(0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn split_count_and_endpoints() {
        let specs = toy_specs();
        let edge = DeviceModel::raspberry_pi4();
        let cloud = DeviceModel::gci_cpu();
        let costs = evaluate_splits(&specs, &edge, &cloud, &wifi(), 10);
        assert_eq!(costs.len(), 4);
        // k = n: pure edge, no network, no cloud.
        let last = costs.last().unwrap();
        assert_eq!(last.network_ms, 0.0);
        assert_eq!(last.cloud_ms, 0.0);
        assert!(last.edge_ms > 0.0);
        // k = 0: pure cloud; edge does nothing.
        assert_eq!(costs[0].edge_ms, 0.0);
        assert!(costs[0].network_ms > 0.0);
        assert!(costs[0].cloud_ms > 0.0);
    }

    #[test]
    fn fast_link_prefers_offloading_slow_link_stays_local() {
        let specs = toy_specs();
        let edge = DeviceModel::raspberry_pi4();
        let cloud = DeviceModel::gci_gpu();
        // Absurdly fast link: offloading early must win (cloud ≫ edge).
        let fast = NetworkLink::new(0.001, 80_000.0, 0);
        let best_fast = best_split(&specs, &edge, &cloud, &fast, 10);
        assert!(best_fast.split < specs.len(), "fast link should offload");
        // Terrible link: staying on-device must win.
        let slow = NetworkLink::new(500.0, 0.08, 0);
        let best_slow = best_split(&specs, &edge, &cloud, &slow, 10);
        assert_eq!(best_slow.split, specs.len(), "slow link should stay local");
    }

    #[test]
    fn best_split_is_minimum() {
        let specs = toy_specs();
        let edge = DeviceModel::raspberry_pi4();
        let cloud = DeviceModel::gci_cpu();
        let link = wifi();
        let all = evaluate_splits(&specs, &edge, &cloud, &link, 10);
        let best = best_split(&specs, &edge, &cloud, &link, 10);
        assert!(all.iter().all(|c| best.total_ms() <= c.total_ms() + 1e-12));
    }

    #[test]
    fn late_splits_upload_smaller_activations() {
        // Splitting after the 256-wide layer uploads less than uploading the
        // 784-wide input.
        let specs = toy_specs();
        let edge = DeviceModel::raspberry_pi4();
        let cloud = DeviceModel::gci_cpu();
        // Congested cellular: a 60 ms leg at 4 Mbit/s.
        let link = NetworkLink::new(60.0, 4.0, 0);
        let costs = evaluate_splits(&specs, &edge, &cloud, &link, 10);
        assert!(costs[1].network_ms < costs[0].network_ms);
    }
}
