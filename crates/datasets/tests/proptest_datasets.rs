//! Property-based tests for dataset generation and sampling invariants.

use datasets::{generate, Family, GeneratorConfig, IMAGE_PIXELS, NUM_CLASSES};
use proptest::prelude::*;
use tensor::random::rng_from_seed;

fn family_from(idx: usize) -> Family {
    Family::ALL[idx % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_pixels_always_normalised(
        fam_idx in 0usize..3, n in 1usize..80, seed in 0u64..1000
    ) {
        let d = generate(&GeneratorConfig::new(family_from(fam_idx), n, seed));
        prop_assert_eq!(d.len(), n);
        prop_assert!(d.images.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!(d.images.all_finite());
        prop_assert!(d.labels.iter().all(|&l| l < NUM_CLASSES));
    }

    #[test]
    fn generation_deterministic_under_thread_counts(
        fam_idx in 0usize..3, seed in 0u64..1000
    ) {
        // Per-sample RNG streams mean the output is identical however the
        // parallel renderer chunks the work; regenerate twice and compare.
        let cfg = GeneratorConfig::new(family_from(fam_idx), 48, seed);
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.images, b.images);
        prop_assert_eq!(a.gen_hard, b.gen_hard);
    }

    #[test]
    fn odd_n_images_are_a_prefix_of_n_plus_one(
        fam_idx in 0usize..3, half in 0usize..40, seed in 0u64..1000
    ) {
        // Labels and hardness are drawn in order and every image has its
        // own RNG, so the first `n` images cannot depend on how many follow
        // or on where the thread split falls. An odd `n` puts the split of
        // `n` and of `n + 1` rows on different images.
        let n = 2 * half + 1;
        let fam = family_from(fam_idx);
        let a = generate(&GeneratorConfig::new(fam, n, seed));
        let b = generate(&GeneratorConfig::new(fam, n + 1, seed));
        prop_assert_eq!(a.images.data(), &b.images.data()[..n * IMAGE_PIXELS]);
        prop_assert_eq!(&a.labels[..], &b.labels[..n]);
        prop_assert_eq!(&a.gen_hard[..], &b.gen_hard[..n]);
    }

    #[test]
    fn hard_fraction_controllable(frac in 0.0f32..1.0, seed in 0u64..1000) {
        let d = generate(&GeneratorConfig {
            family: Family::MnistLike,
            n: 600,
            hard_fraction: Some(frac),
            seed,
        });
        prop_assert!((d.hard_fraction() - frac).abs() < 0.08,
            "requested {frac}, got {}", d.hard_fraction());
    }

    #[test]
    fn stratified_subsets_preserve_mix(
        ratio in 0.1f32..1.0, seed in 0u64..1000
    ) {
        let d = generate(&GeneratorConfig {
            family: Family::FmnistLike,
            n: 500,
            hard_fraction: Some(0.3),
            seed,
        });
        let mut rng = rng_from_seed(seed ^ 1);
        let s = d.stratified_ratio(ratio, &mut rng);
        // Subset size tracks the ratio and the hard mix is preserved.
        let expect = (500.0 * ratio).round();
        prop_assert!((s.len() as f32 - expect).abs() <= 2.0);
        if s.len() >= 50 {
            prop_assert!((s.hard_fraction() - d.hard_fraction()).abs() < 0.06,
                "mix drifted: {} vs {}", s.hard_fraction(), d.hard_fraction());
        }
    }

    #[test]
    fn subset_rows_match_sources(seed in 0u64..1000, n in 10usize..60) {
        let d = generate(&GeneratorConfig::new(Family::KmnistLike, n, seed));
        let idx: Vec<usize> = (0..n).step_by(3).collect();
        let s = d.subset(&idx);
        for (k, &i) in idx.iter().enumerate() {
            prop_assert_eq!(s.images.row_slice(k), d.images.row_slice(i));
            prop_assert_eq!(s.labels[k], d.labels[i]);
            prop_assert_eq!(s.gen_hard[k], d.gen_hard[i]);
        }
    }

    #[test]
    fn batches_partition_dataset(seed in 0u64..1000, n in 1usize..50, bs in 1usize..17) {
        let d = generate(&GeneratorConfig::new(Family::MnistLike, n, seed));
        let mut seen = 0usize;
        for (x, labels) in d.batches(bs) {
            prop_assert_eq!(x.dims()[0], labels.len());
            prop_assert!(labels.len() <= bs);
            seen += labels.len();
        }
        prop_assert_eq!(seen, n);
    }

    #[test]
    fn idx_roundtrip_quantisation_bounded(seed in 0u64..1000) {
        let d = generate(&GeneratorConfig::new(Family::MnistLike, 6, seed));
        let img = datasets::idx::parse_images(&datasets::idx::to_idx_images(&d)).unwrap();
        let lbl = datasets::idx::parse_labels(&datasets::idx::to_idx_labels(&d)).unwrap();
        prop_assert_eq!(&lbl, &d.labels);
        prop_assert!(img.max_abs_diff(&d.images) <= 0.5 / 255.0 + 1e-6);
        prop_assert_eq!(img.dims(), &[6, IMAGE_PIXELS]);
    }
}
