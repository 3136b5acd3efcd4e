//! Dataset generation: prototypes + pose jitter + corruption = samples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Tensor;

use crate::dataset::{Dataset, Split};
use crate::family::Family;
use crate::glyphs::{prototype, rasterize, Pose};
use crate::transforms;
use crate::{IMAGE_PIXELS, NUM_CLASSES};

/// Configuration for procedural dataset generation.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Which glyph family / difficulty profile.
    pub family: Family,
    /// Number of samples to generate.
    pub n: usize,
    /// Fraction of hard samples; `None` uses the family default from the
    /// paper's measurements.
    pub hard_fraction: Option<f32>,
    /// Master seed; every sample derives an independent stream from it.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Convenience constructor with the family's default hard fraction.
    pub fn new(family: Family, n: usize, seed: u64) -> Self {
        GeneratorConfig {
            family,
            n,
            hard_fraction: None,
            seed,
        }
    }

    fn resolved_hard_fraction(&self) -> f32 {
        self.hard_fraction
            .unwrap_or_else(|| self.family.default_hard_fraction())
    }
}

/// Per-sample RNG: independent deterministic stream per (seed, index).
fn sample_rng(master: u64, index: usize) -> StdRng {
    // SplitMix-style mixing keeps streams uncorrelated across indices.
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Render one sample.
///
/// Easy samples get a light pose jitter and faint sensor noise. Hard samples
/// get an aggressive pose (rotation up to ±0.55 rad, scale 0.6–1.35,
/// translation up to ±0.12) plus one to three pixel-space corruptions —
/// blur, occlusion, heavy noise, salt-and-pepper, or resolution degradation —
/// mirroring the paper's description of hard inputs.
fn render_sample(family: Family, class: usize, hard: bool, rng: &mut StdRng, out: &mut [f32]) {
    let prims = prototype(family, class);
    let pose = if hard {
        Pose {
            rotation: rng.gen_range(-0.55..0.55),
            scale: rng.gen_range(0.6..1.35),
            dx: rng.gen_range(-0.12..0.12),
            dy: rng.gen_range(-0.12..0.12),
        }
    } else {
        Pose {
            rotation: rng.gen_range(-0.08..0.08),
            scale: rng.gen_range(0.94..1.06),
            dx: rng.gen_range(-0.025..0.025),
            dy: rng.gen_range(-0.025..0.025),
        }
    };
    rasterize(&prims, &pose, out);
    if hard {
        let n_corruptions = rng.gen_range(1..=3);
        for _ in 0..n_corruptions {
            match rng.gen_range(0..5) {
                0 => transforms::blur(out, rng.gen_range(1..=3)),
                1 => transforms::occlude(out, rng.gen_range(0.06..0.16), rng),
                2 => transforms::add_noise(out, rng.gen_range(0.10..0.25), rng),
                3 => transforms::salt_pepper(out, rng.gen_range(0.02..0.08), rng),
                _ => transforms::degrade_resolution(out),
            }
        }
        transforms::jitter_contrast(out, rng);
    } else {
        transforms::add_noise(out, 0.02, rng);
    }
}

/// Generate one dataset.
///
/// Classes are balanced (round-robin); hardness is assigned by a per-sample
/// Bernoulli draw with the configured fraction, then rendering runs in
/// parallel across samples — each sample owns an independent seeded RNG, so
/// the output is identical regardless of thread count.
pub fn generate(cfg: &GeneratorConfig) -> Dataset {
    let hard_fraction = cfg.resolved_hard_fraction();
    assert!(
        (0.0..=1.0).contains(&hard_fraction),
        "hard fraction must be in [0, 1]"
    );
    let n = cfg.n;
    let master = cfg.seed ^ cfg.family.seed_offset();

    // Assign class and hardness first (cheap, sequential, deterministic)…
    let mut labels = Vec::with_capacity(n);
    let mut hard = Vec::with_capacity(n);
    {
        let mut rng = StdRng::seed_from_u64(master);
        for i in 0..n {
            labels.push(i % NUM_CLASSES);
            hard.push(rng.gen::<f32>() < hard_fraction);
        }
    }

    // …then render in parallel over disjoint chunks of whole images.
    let mut images = Tensor::zeros(&[n, IMAGE_PIXELS]);
    {
        let labels_ref = &labels;
        let hard_ref = &hard;
        tensor::parallel::par_row_chunks_mut(images.data_mut(), IMAGE_PIXELS, |s0, chunk| {
            for (k, row) in chunk.chunks_exact_mut(IMAGE_PIXELS).enumerate() {
                let s = s0 + k;
                let mut rng = sample_rng(master, s);
                render_sample(cfg.family, labels_ref[s], hard_ref[s], &mut rng, row);
            }
        });
    }

    Dataset::new(images, labels, hard, Some(cfg.family))
}

/// Generate a train/test pair with disjoint sample streams.
pub fn generate_pair(family: Family, n_train: usize, n_test: usize, seed: u64) -> Split {
    let train = generate(&GeneratorConfig::new(family, n_train, seed));
    let test = generate(&GeneratorConfig::new(
        family,
        n_test,
        seed.wrapping_add(0xDEAD_BEEF),
    ));
    Split { train, test }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::new(Family::MnistLike, 64, 7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.gen_hard, b.gen_hard);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::new(Family::MnistLike, 32, 1));
        let b = generate(&GeneratorConfig::new(Family::MnistLike, 32, 2));
        assert_ne!(a.images, b.images);
    }

    #[test]
    fn families_render_differently() {
        let a = generate(&GeneratorConfig::new(Family::MnistLike, 20, 5));
        let b = generate(&GeneratorConfig::new(Family::FmnistLike, 20, 5));
        assert_ne!(a.images, b.images);
    }

    #[test]
    fn classes_are_balanced() {
        let d = generate(&GeneratorConfig::new(Family::KmnistLike, 100, 3));
        assert_eq!(d.class_counts(), [10; NUM_CLASSES]);
    }

    #[test]
    fn hard_fraction_tracks_config() {
        let cfg = GeneratorConfig {
            family: Family::MnistLike,
            n: 2000,
            hard_fraction: Some(0.4),
            seed: 11,
        };
        let d = generate(&cfg);
        assert!(
            (d.hard_fraction() - 0.4).abs() < 0.04,
            "{}",
            d.hard_fraction()
        );
    }

    #[test]
    fn default_hard_fractions_apply() {
        let d = generate(&GeneratorConfig::new(Family::FmnistLike, 2000, 13));
        assert!(
            (d.hard_fraction() - 0.23).abs() < 0.04,
            "{}",
            d.hard_fraction()
        );
    }

    #[test]
    fn pixels_are_normalised() {
        let d = generate(&GeneratorConfig::new(Family::FmnistLike, 50, 21));
        assert!(d.images.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(d.images.all_finite());
    }

    #[test]
    fn hard_samples_differ_more_from_prototype() {
        // Hard samples should on average be farther (L2) from their class
        // prototype rendering than easy samples — the property CBNet's
        // converting autoencoder exploits.
        let d = generate(&GeneratorConfig {
            family: Family::MnistLike,
            n: 400,
            hard_fraction: Some(0.5),
            seed: 31,
        });
        let mut proto = vec![vec![0.0f32; IMAGE_PIXELS]; NUM_CLASSES];
        for (c, buf) in proto.iter_mut().enumerate() {
            rasterize(&prototype(Family::MnistLike, c), &Pose::default(), buf);
        }
        let (mut hard_d, mut hard_n, mut easy_d, mut easy_n) = (0.0f64, 0, 0.0f64, 0);
        for i in 0..d.len() {
            let img = d.images.row_slice(i);
            let p = &proto[d.labels[i]];
            let dist: f64 = img
                .iter()
                .zip(p)
                .map(|(a, b)| ((a - b) * (a - b)) as f64)
                .sum();
            if d.gen_hard[i] {
                hard_d += dist;
                hard_n += 1;
            } else {
                easy_d += dist;
                easy_n += 1;
            }
        }
        let hard_mean = hard_d / hard_n as f64;
        let easy_mean = easy_d / easy_n as f64;
        assert!(
            hard_mean > 1.5 * easy_mean,
            "hard {hard_mean:.2} vs easy {easy_mean:.2}"
        );
    }

    #[test]
    fn generate_pair_train_test_disjoint_streams() {
        let split = generate_pair(Family::MnistLike, 40, 40, 17);
        assert_eq!(split.train.len(), 40);
        assert_eq!(split.test.len(), 40);
        assert_ne!(split.train.images, split.test.images);
    }
}
