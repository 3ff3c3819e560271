//! The SLIDE network: sparse input layer → one hidden layer → LSH-sampled
//! softmax output (the paper's architecture for every workload), with its
//! per-sample passes. All of them take `&self` and write no parameter: the
//! forward pass serves the trainer and inference, and
//! [`Network::train_sample`] computes one sample's loss and gradients for
//! tests and the benchmark. Only [`crate::Trainer`] writes parameters.

use crate::activation::relu_backward_mask;
use crate::config::{NetworkConfig, Precision};
use crate::layer::{SampledOutputLayer, SparseInputLayer};
use crate::params::LayerParams;
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
            config.hidden,
            layout,
            config.precision,
            config.seed,
        );
        let output = SampledOutputLayer::new(
            config.hidden,
            config.output_dim,
            &config.lsh,
            layout,
            config.precision,
            output_layer_seed(config.seed),
        );
        Ok(Network {
            config,
            input,
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

    /// The LSH-sampled output layer.
    pub fn output(&self) -> &SampledOutputLayer {
        &self.output
    }

    /// Exclusive access to the output layer (table rebuilds).
    pub(crate) fn output_mut(&mut self) -> &mut SampledOutputLayer {
        &mut self.output
    }

    /// Exclusive access to the input and output parameter blocks, in that
    /// order (checkpoint restore).
    pub(crate) fn params_mut(&mut self) -> [&mut LayerParams; 2] {
        [self.input.params_mut(), self.output.params_mut()]
    }

    /// Total learnable parameters (Table 1's "# Model Parameters").
    pub fn num_parameters(&self) -> u64 {
        self.input.params().num_parameters() + self.output.params().num_parameters()
    }

    /// Allocate a worker scratch sized for this network.
    pub fn make_scratch(&self) -> WorkerScratch {
        WorkerScratch::new(
            self.config.hidden,
            self.config.output_dim,
            self.output.family(),
        )
    }

    /// Run the input layer, leaving the hidden activation in
    /// `scratch.acts[0]`. Applies bf16 activation quantization per the
    /// configured precision (§4.4).
    pub fn forward_hidden(&self, x: SparseVecRef<'_>, scratch: &mut WorkerScratch) {
        let ks = scratch.kernels;
        let h = &mut scratch.acts[0];
        self.input.forward(x, h, &ks);
        if self.config.precision != Precision::Fp32 {
            slide_simd::bf16::quantize_f32_slice(h);
        }
    }

    /// One training sample's forward and backward, writing no parameter:
    /// the hidden activation (`scratch.acts[0]`), the sample's retrieved
    /// active set (`scratch.active`, labels first), the softmax deltas
    /// `p − t` over it (`scratch.probs`), and the hidden gradient `Wᵀδ`
    /// masked by the ReLU derivative (`scratch.grad`). `salt` decorrelates
    /// active-set padding across samples. A weight row's gradient is its
    /// delta times the activation; the trainer sums those per row.
    ///
    /// Returns the sample's cross-entropy loss; a sample without labels
    /// returns 0 and leaves `scratch.grad` zero.
    ///
    /// `scale` and `stamp` are ignored. They are kept only because the
    /// benchmark in `benchmark/` compiles against this signature.
    pub fn train_sample(
        &self,
        x: SparseVecRef<'_>,
        labels: &[u32],
        scratch: &mut WorkerScratch,
        _scale: f32,
        _stamp: u32,
        salt: u64,
    ) -> f32 {
        self.forward_hidden(x, scratch);

        // Temporarily detach the activation and its gradient so the output
        // layer can borrow the scratch mutably alongside them.
        let acts = std::mem::take(&mut scratch.acts);
        let mut grad = std::mem::take(&mut scratch.grad);
        grad.fill(0.0);
        let loss = self
            .output
            .sample_deltas(&acts[0], labels, scratch, &mut grad, salt);
        relu_backward_mask(&acts[0], &mut grad);
        scratch.grad = grad;
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
        let acts = std::mem::take(&mut scratch.acts);
        let result = if exact {
            self.output.predict_topk_full(&acts[0], k, scratch)
        } else {
            self.output.predict_topk_sampled(&acts[0], k, scratch, salt)
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
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = tiny_config();
        cfg.output_dim = 0;
        assert!(Network::new(cfg).is_err());
    }

    /// Plain SGD from the gradients `train_sample` leaves in `scratch`,
    /// applied through `&mut`: `W_out[r] -= lr·δ_r·h` over the active set,
    /// `W_in[j] -= lr·v_j·dh` over the input's non-zeros.
    fn sgd_step(net: &mut Network, scratch: &WorkerScratch, x: SparseVecRef<'_>, lr: f32) {
        let [input, output] = net.params_mut();
        for (&r, &delta) in scratch.active.iter().zip(&scratch.probs) {
            output.add_to_row(r as usize, -lr * delta, &scratch.acts[0]);
        }
        for (j, v) in x.iter() {
            input.add_to_row(j as usize, -lr * v, &scratch.grad);
        }
    }

    #[test]
    fn training_reduces_loss_single_sample() {
        let mut net = Network::new(tiny_config()).unwrap();
        let mut scratch = net.make_scratch();
        let idx = [1u32, 5, 20];
        let val = [1.0f32, 0.5, 0.25];
        let x = SparseVecRef::new(&idx, &val);
        let mut losses = Vec::new();
        for t in 1..=20u32 {
            losses.push(net.train_sample(x, &[7], &mut scratch, 1.0, t, 0));
            sgd_step(&mut net, &scratch, x, 0.2);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: {losses:?}"
        );
    }

    #[test]
    fn gradient_check_output_layer() {
        // Finite-difference check of dL/dW for an output row on the active
        // path: perturb one weight, compare the loss delta to the analytic
        // gradient δ·h. Uses min_active == output_dim so the softmax is
        // exact.
        let mut cfg = tiny_config();
        cfg.lsh.min_active = 32; // full softmax
        let mut net = Network::new(cfg).unwrap();
        let mut scratch = net.make_scratch();
        let idx = [2u32, 9];
        let val = [0.8f32, -0.3];
        let x = SparseVecRef::new(&idx, &val);
        let labels = [4u32];

        // Analytic gradient of (row 4, col c), the label row at the
        // activation's largest column: its delta times that activation.
        let _ = net.train_sample(x, &labels, &mut scratch, 1.0, 1, 0);
        let h = &scratch.acts[0];
        let c = (0..16).max_by(|&a, &b| h[a].total_cmp(&h[b])).unwrap();
        let slot = scratch.active.iter().position(|&r| r == 4).unwrap();
        let g_analytic = scratch.probs[slot] * h[c];
        assert!(g_analytic != 0.0, "the label row has a gradient");

        // Numeric gradient via central differences on the same loss.
        let eps = 1e-3;
        let mut unit = vec![0.0; 16];
        unit[c] = 1.0;
        let mut loss_with = |delta: f32| {
            net.params_mut()[1].add_to_row(4, delta, &unit);
            let mut s = net.make_scratch();
            // min_active == output_dim ⇒ deterministic full active set.
            let l = net.train_sample(x, &labels, &mut s, 1.0, 2, 0);
            net.params_mut()[1].add_to_row(4, -delta, &unit);
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
