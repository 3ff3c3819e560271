//! The SLIDE network: sparse input layer → dense hidden stack → LSH-sampled
//! softmax output, with per-sample forward/backward passes designed to be
//! driven by many HOGWILD workers concurrently (all methods take `&self`;
//! parameter mutation goes through the documented racy kernels).

use crate::activation::relu_backward_mask;
use crate::config::{NetworkConfig, Precision};
use crate::layer::{DenseLayer, SampledOutputLayer, SparseInputLayer};
use crate::retrieval::output_layer_seed;
use crate::scratch::WorkerScratch;
use slide_mem::SparseVecRef;

/// A complete SLIDE model.
///
/// # Examples
///
/// ```
/// use slide_core::{Network, NetworkConfig};
///
/// let net = Network::new(NetworkConfig::standard(1000, 32, 500)).unwrap();
/// assert_eq!(net.num_parameters(), 1000 * 32 + 32 + 32 * 500 + 500);
/// let mut scratch = net.make_scratch();
/// let idx = [1u32, 17];
/// let val = [1.0f32, 0.5];
/// let x = slide_mem::SparseVecRef::new(&idx, &val);
/// let topk = net.predict(x, 5, &mut scratch, /*exact=*/true, 0);
/// assert_eq!(topk.len(), 5);
/// ```
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    input: SparseInputLayer,
    hidden: Vec<DenseLayer>,
    output: SampledOutputLayer,
}

impl Network {
    /// Build and initialize a network (weights seeded from
    /// `config.seed`, hash tables built from the initial weights).
    ///
    /// # Errors
    ///
    /// Returns the message from [`NetworkConfig::validate`] on an invalid
    /// configuration.
    pub fn new(config: NetworkConfig) -> Result<Self, String> {
        config.validate()?;
        let layout = config.memory.param_layout();
        let input = SparseInputLayer::new(
            config.input_dim,
            config.hidden_dims[0],
            layout,
            config.precision,
            config.seed,
        );
        let mut hidden = Vec::new();
        for w in config.hidden_dims.windows(2) {
            hidden.push(DenseLayer::new(
                w[0],
                w[1],
                layout,
                config.precision,
                config.seed ^ (0xD5 + hidden.len() as u64),
            ));
        }
        let last_hidden = *config.hidden_dims.last().expect("validated non-empty");
        let output = SampledOutputLayer::new(
            last_hidden,
            config.output_dim,
            &config.lsh,
            layout,
            config.precision,
            output_layer_seed(config.seed),
        );
        Ok(Network {
            config,
            input,
            hidden,
            output,
        })
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The sparse input layer.
    pub fn input(&self) -> &SparseInputLayer {
        &self.input
    }

    /// The dense hidden layers between input and output (empty for the
    /// paper's standard one-hidden-layer architecture).
    pub fn hidden_layers(&self) -> &[DenseLayer] {
        &self.hidden
    }

    /// The LSH-sampled output layer.
    pub fn output(&self) -> &SampledOutputLayer {
        &self.output
    }

    /// Exclusive access to all layers (checkpoint restore).
    pub(crate) fn layers_mut(
        &mut self,
    ) -> (
        &mut SparseInputLayer,
        &mut [DenseLayer],
        &mut SampledOutputLayer,
    ) {
        (&mut self.input, &mut self.hidden, &mut self.output)
    }

    /// Total learnable parameters (Table 1's "# Model Parameters").
    pub fn num_parameters(&self) -> u64 {
        self.input.params().num_parameters()
            + self
                .hidden
                .iter()
                .map(|l| l.params().num_parameters())
                .sum::<u64>()
            + self.output.params().num_parameters()
    }

    /// Allocate a worker scratch sized for this network.
    pub fn make_scratch(&self) -> WorkerScratch {
        WorkerScratch::new(
            &self.config.hidden_dims,
            self.config.output_dim,
            self.output.family(),
        )
    }

    /// Run the input + hidden stack, filling `scratch.acts`. Applies bf16
    /// activation quantization per the configured precision (§4.4).
    pub fn forward_hidden(&self, x: SparseVecRef<'_>, scratch: &mut WorkerScratch) {
        let ks = scratch.kernels;
        let mut acts = std::mem::take(&mut scratch.acts);
        self.input.forward(x, &mut acts[0], &ks);
        if self.config.precision != Precision::Fp32 {
            slide_simd::bf16::quantize_f32_slice(&mut acts[0]);
        }
        for (i, layer) in self.hidden.iter().enumerate() {
            let (src, dst) = acts.split_at_mut(i + 1);
            layer.forward(&src[i], &mut dst[0], &ks, &mut scratch.gather);
            if self.config.precision != Precision::Fp32 {
                slide_simd::bf16::quantize_f32_slice(&mut dst[0]);
            }
        }
        scratch.acts = acts;
    }

    /// Full forward + backward for one training sample. `scale` is the
    /// inverse batch size (gradients accumulate batch means); `stamp`
    /// identifies the batch for sparse-row marking; `salt` decorrelates
    /// active-set padding across samples.
    ///
    /// Returns the sample's cross-entropy loss.
    pub fn train_sample(
        &self,
        x: SparseVecRef<'_>,
        labels: &[u32],
        scratch: &mut WorkerScratch,
        scale: f32,
        stamp: u32,
        salt: u64,
    ) -> f32 {
        self.forward_hidden(x, scratch);
        let last = self.config.hidden_dims.len() - 1;

        // Temporarily detach the buffers so the output layer can borrow the
        // scratch mutably alongside them.
        let mut grads = std::mem::take(&mut scratch.grads);
        let acts = std::mem::take(&mut scratch.acts);

        grads[last].fill(0.0);
        let loss = self.output.train_sample(
            &acts[last],
            labels,
            scratch,
            scale,
            stamp,
            &mut grads[last],
            salt,
        );

        if loss != 0.0 {
            let ks = scratch.kernels;
            relu_backward_mask(&acts[last], &mut grads[last]);
            for i in (0..self.hidden.len()).rev() {
                let (lo, hi) = grads.split_at_mut(i + 1);
                let dy = &hi[0];
                let dx = &mut lo[i];
                dx.fill(0.0);
                self.hidden[i].backward(&acts[i], dy, Some(dx), scale, &ks, &mut scratch.gather);
                relu_backward_mask(&acts[i], dx);
            }
            self.input
                .backward(x, &grads[0], scale, stamp, &mut scratch.touched_in, &ks);
        }

        scratch.grads = grads;
        scratch.acts = acts;
        loss
    }

    /// Predict the top-`k` labels for one input. `exact` scores every output
    /// unit (full softmax argmax); otherwise only the LSH-retrieved active
    /// set is scored (SLIDE inference).
    pub fn predict(
        &self,
        x: SparseVecRef<'_>,
        k: usize,
        scratch: &mut WorkerScratch,
        exact: bool,
        salt: u64,
    ) -> Vec<u32> {
        self.forward_hidden(x, scratch);
        let last = self.config.hidden_dims.len() - 1;
        let acts = std::mem::take(&mut scratch.acts);
        let result = if exact {
            self.output.predict_topk_full(&acts[last], k, scratch)
        } else {
            self.output
                .predict_topk_sampled(&acts[last], k, scratch, salt)
        };
        scratch.acts = acts;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LshConfig;

    fn tiny_config() -> NetworkConfig {
        let mut cfg = NetworkConfig::standard(64, 16, 32);
        cfg.lsh = LshConfig {
            tables: 8,
            key_bits: 4,
            min_active: 8,
            ..Default::default()
        };
        cfg
    }

    #[test]
    fn construction_and_parameter_count() {
        let net = Network::new(tiny_config()).unwrap();
        assert_eq!(net.num_parameters(), 64 * 16 + 16 + 16 * 32 + 32);
        assert!(net.hidden_layers().is_empty());
    }

    #[test]
    fn deep_network_builds_and_runs() {
        let mut cfg = tiny_config();
        cfg.hidden_dims = vec![16, 12, 8];
        let net = Network::new(cfg).unwrap();
        assert_eq!(net.hidden_layers().len(), 2);
        let mut scratch = net.make_scratch();
        let idx = [3u32, 40];
        let val = [1.0f32, -0.5];
        let x = SparseVecRef::new(&idx, &val);
        let loss = net.train_sample(x, &[5], &mut scratch, 1.0, 1, 0);
        assert!(loss.is_finite() && loss > 0.0);
        let topk = net.predict(x, 3, &mut scratch, true, 0);
        assert_eq!(topk.len(), 3);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = tiny_config();
        cfg.output_dim = 0;
        assert!(Network::new(cfg).is_err());
    }

    #[test]
    fn training_reduces_loss_single_sample() {
        let net = Network::new(tiny_config()).unwrap();
        let mut scratch = net.make_scratch();
        let idx = [1u32, 5, 20];
        let val = [1.0f32, 0.5, 0.25];
        let x = SparseVecRef::new(&idx, &val);
        let step = slide_simd::AdamStep::bias_corrected(0.05, 0.9, 0.999, 1e-8, 1);
        let mut losses = Vec::new();
        for t in 1..=20u32 {
            let loss = net.train_sample(x, &[7], &mut scratch, 1.0, t, 0);
            losses.push(loss);
            // Apply updates for touched rows.
            for &r in scratch.touched_out.clone().iter() {
                unsafe {
                    net.output().params().adam_row(r as usize, step);
                    net.output().params().adam_bias_at(r as usize, step);
                }
            }
            for &r in scratch.touched_in.clone().iter() {
                unsafe { net.input().params().adam_row(r as usize, step) };
            }
            unsafe { net.input().params().adam_bias_full(step) };
            scratch.touched_out.clear();
            scratch.touched_in.clear();
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: {losses:?}"
        );
    }

    #[test]
    fn gradient_check_output_layer() {
        // Finite-difference check of dL/dW for an output row on the active
        // path: perturb one weight, compare loss delta to the accumulated
        // gradient. Uses min_active == output_dim so the softmax is exact.
        let mut cfg = tiny_config();
        cfg.lsh.min_active = 32; // full softmax
        let net = Network::new(cfg).unwrap();
        let mut scratch = net.make_scratch();
        let idx = [2u32, 9];
        let val = [0.8f32, -0.3];
        let x = SparseVecRef::new(&idx, &val);
        let labels = [4u32];

        // Analytic gradient: train_sample with scale 1 accumulates dL/dW.
        let _ = net.train_sample(x, &labels, &mut scratch, 1.0, 1, 0);
        // Read the accumulated gradient for (row 4, col 0) — the label row.
        let g_analytic = net.output().params().grad_at(4, 0);

        // Numeric gradient via central differences on the same loss
        // (scale 0 so the probes accumulate nothing).
        let eps = 1e-3;
        let loss_with = |delta: f32| {
            unsafe { net.output().params().nudge_weight(4, 0, delta) };
            let mut s = net.make_scratch();
            // min_active == output_dim ⇒ deterministic full active set.
            let l = net.train_sample(x, &labels, &mut s, 0.0, 2, 0);
            unsafe { net.output().params().nudge_weight(4, 0, -delta) };
            l
        };
        let lp = loss_with(eps);
        let lm = loss_with(-eps);
        let g_numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (g_analytic - g_numeric).abs() <= 2e-2 * g_numeric.abs().max(1e-2),
            "analytic {g_analytic} vs numeric {g_numeric}"
        );
    }
}
