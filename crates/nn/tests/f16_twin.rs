//! The lifecycle of `Dense`'s f16 twin: it serves only f16-exact weights,
//! and no route that changes the weights can leave a stale twin serving.
//!
//! Each case rounds a layer's weights to f16, runs it (the twin is now
//! live), changes the weights to *other* f16-exact values through one
//! mutation route, and runs a batch-1 pass: the output must equal the f32
//! kernel on the new weights bit for bit. A twin left stale would compute
//! with the old weights (and, in debug builds, trip the kernel's
//! `debug_assert`).

use nn::{step_with, Dense, ForwardPlan, Layer, Network, Sgd};
use tensor::backend::Backend;
use tensor::half::round_f16;
use tensor::random::rng_from_seed;
use tensor::Tensor;
use tensorstore::{AlignedBytes, SerializeTensors, TensorFile};

const IN: usize = 83;
const OUT: usize = 37;

fn backends() -> impl Iterator<Item = Backend> {
    [Some(Backend::scalar()), Backend::simd()]
        .into_iter()
        .flatten()
}

fn round_weights(d: &mut Dense) {
    for w in d.weights_mut().data_mut() {
        *w = round_f16(*w);
    }
}

/// The f32 entry on the layer's current weights: what a batch-1 pass must
/// reproduce bit for bit.
fn f32_reference(d: &Dense, x: &[f32], be: Backend) -> Vec<f32> {
    let mut y = vec![0.0f32; OUT];
    let w = d.weights().data();
    be.matmul_bt_bias_into(x, w, Some(d.bias().data()), &mut y, 1, IN, OUT);
    y
}

fn run_b1(d: &mut Dense, x: &[f32], be: Backend) -> Vec<f32> {
    let mut y = vec![f32::NAN; OUT];
    d.forward_into(x, 1, &mut y, &mut [], be);
    y
}

fn input(seed: u64) -> Vec<f32> {
    let mut rng = rng_from_seed(seed);
    Tensor::rand_uniform(&[1, IN], -1.0, 1.0, &mut rng).into_vec()
}

#[test]
fn twin_serves_only_f16_exact_weights() {
    let mut d = Dense::new(IN, OUT, &mut rng_from_seed(1));
    assert!(!d.serves_f16(), "Glorot weights are not f16-exact");
    round_weights(&mut d);
    assert!(d.serves_f16(), "rounded weights serve the twin");
    d.weights_mut().data_mut()[7] = f32::NAN;
    assert!(!d.serves_f16(), "a NaN weight is inexact");
    d.weights_mut().data_mut()[7] = 0.1;
    assert!(!d.serves_f16(), "0.1 is not an f16 value");
    d.weights_mut().data_mut()[7] = 0.125;
    // Checkpoint loads build layers through `from_params`: they serve too.
    let mut rebuilt = Dense::from_params(d.weights().clone(), d.bias().clone());
    assert!(rebuilt.serves_f16());
}

#[test]
fn weights_mut_never_leaves_a_stale_twin() {
    let x = input(2);
    for be in backends() {
        let mut d = Dense::new(IN, OUT, &mut rng_from_seed(3));
        round_weights(&mut d);
        let before = run_b1(&mut d, &x, be);
        for w in d.weights_mut().data_mut() {
            *w = round_f16(*w * 0.75 + 0.0625);
        }
        assert!(d.serves_f16());
        let after = run_b1(&mut d, &x, be);
        assert_ne!(before, after, "the change must be visible");
        assert_eq!(after, f32_reference(&d, &x, be), "{}", be.name());
    }
}

#[test]
fn optimizer_step_never_leaves_a_stale_twin() {
    let x = input(4);
    for be in backends() {
        let mut d = Dense::new(IN, OUT, &mut rng_from_seed(5));
        round_weights(&mut d);
        // Gradients −W and 0: one SGD step at lr 1 doubles every weight,
        // which keeps it f16-exact.
        for (p, g) in d.params_and_grads() {
            for (gv, &pv) in g.data_mut().iter_mut().zip(p.data()) {
                *gv = if p.rank() == 2 { -pv } else { 0.0 };
            }
        }
        let before = run_b1(&mut d, &x, be);
        assert!(d.serves_f16());
        step_with(&mut Sgd::new(1.0), |f| d.visit_params_and_grads(f));
        let after = run_b1(&mut d, &x, be);
        assert!(d.serves_f16(), "doubled f16 values stay f16-exact");
        assert_ne!(before, after, "the step must be visible");
        assert_eq!(after, f32_reference(&d, &x, be), "{}", be.name());
    }
}

#[test]
fn import_tensors_never_leaves_a_stale_twin() {
    let x = Tensor::from_vec(input(6), &[1, IN]);
    let rounded_net = |seed: u64| {
        let mut d = Dense::new(IN, OUT, &mut rng_from_seed(seed));
        round_weights(&mut d);
        Network::new().push(d)
    };
    let other = rounded_net(8);
    let bytes = other.save_tensors().expect("saves");
    let buf = AlignedBytes::from_slice(&bytes);
    let file = TensorFile::parse(buf.as_slice()).expect("parses");
    fn p(net: &Network) -> Vec<&Tensor> {
        net.layers()[0].params()
    }
    for be in backends() {
        let mut net = rounded_net(7);
        let mut plan = ForwardPlan::with_backend(&net, 1, be);
        let before = plan.run(net.layers_mut(), &x).to_vec();
        net.import_tensors(&file, "").expect("same architecture");
        let after = plan.run(net.layers_mut(), &x).to_vec();
        assert_ne!(before, after, "the import must be visible");
        let mut want = vec![0.0f32; OUT];
        let params = p(&net);
        be.matmul_bt_bias_into(
            x.data(),
            params[0].data(),
            Some(params[1].data()),
            &mut want,
            1,
            IN,
            OUT,
        );
        assert_eq!(after, want, "{}", be.name());
        assert_eq!(params[0].data(), p(&other)[0].data());
    }
}
