//! Fixture: the f16 weight twin is re-derived on the inference hot path.

pub struct F16Twin {
    bits: Vec<u16>,
    exact: bool,
}

impl F16Twin {
    pub fn new(len: usize) -> F16Twin {
        // The constructor allocates the buffer once: exempt.
        F16Twin {
            bits: vec![0; len],
            exact: false,
        }
    }

    pub fn refresh(&mut self, src: &[f32]) -> bool {
        // Violation: a per-refresh copy of the source.
        let copy = src.to_vec();
        self.exact = copy.len() == self.bits.len();
        self.exact
    }

    pub fn image(&self) -> Option<&[u16]> {
        // In-place access lints clean.
        self.exact.then_some(self.bits.as_slice())
    }
}
