//! The trainer's row-owned batch pass against a per-sample reference kept
//! here.
//!
//! From identical state, one batch at one thread through
//! `Trainer::train_batch` must leave the output layer — weights, ADAM
//! moments, bias and its moments — bit-identical to the reference: each
//! sample's forward pass and softmax deltas from the write-free
//! `Network::train_sample`, each output row's gradient `Σ δ·scale·h` and
//! bias gradient `Σ δ·scale` accumulated over its samples in batch order
//! (the weight gradient through the public fused row kernel
//! `KernelSet::backward_rows_{f32,bf16}`, one sample per call), then one
//! `adam_step_f32` /
//! `bf16::adam_step_bf16` per touched row on a copy of the parameters taken
//! with `LayerParams::export_into`. The logits, the row gradients and the
//! ADAM step are the same operations in the same order. The input layer is
//! walked by row too, but from a hidden gradient summed in a different order
//! (row by row instead of active slot by active slot), so it agrees within
//! `TOLERANCE` only; `batch_pass::tests` checks its row visit bit for bit
//! from the same hidden gradient.
//!
//! Covered: f32 and bf16 weights, coalesced and fragmented layouts, and
//! label-less samples in the batch. The output layer must also come out
//! bit-identical at 2–4 threads, where workers scatter softmax deltas into
//! each other's rows' entries. The hidden layer is 72 wide: past one
//! 64-column step and not a multiple of 16, so a kernel that sums a row in
//! another order than its reference shows.

use slide_core::{
    LayerParams, LshConfig, Network, NetworkConfig, Precision, Trainer, TrainerConfig, ADAM_BETA1,
    ADAM_BETA2, ADAM_EPS,
};
use slide_data::{generate_synthetic, Dataset, SynthConfig};
use slide_simd::{adam_step_f32, bf16, AdamStep, Bf16, KernelSet};
use std::collections::BTreeMap;

/// Bound on `|a − b| / max(1, |a|)` for every input-layer weight, moment
/// and bias after one batch. One ADAM step moves a weight by
/// at most ~`3.2 · lr` (2e-3 here); only gradients within rounding of zero
/// can move differently, and those by a small fraction of that.
const TOLERANCE: f32 = 1e-4;

fn data() -> Dataset {
    let d = generate_synthetic(&SynthConfig {
        feature_dim: 256,
        label_dim: 64,
        n_train: 96,
        n_test: 8,
        proto_nnz: 12,
        keep_fraction: 0.8,
        noise_nnz: 2,
        labels_per_sample: 2,
        zipf_exponent: 0.4,
        seed: 5,
    });
    // Every fifth sample loses its labels: the pass must skip it exactly as
    // the reference does.
    let mut out = Dataset::new(256, 64);
    for i in 0..d.train.len() {
        let x = d.train.features(i);
        let labels = if i % 5 == 3 {
            &[][..]
        } else {
            d.train.labels(i)
        };
        out.push(x.indices, x.values, labels);
    }
    out
}

fn config(hidden: usize, precision: Precision, coalesced: bool) -> NetworkConfig {
    let mut cfg = NetworkConfig::standard(256, hidden, 64);
    cfg.lsh = LshConfig {
        tables: 6,
        key_bits: 4,
        min_active: 20,
        ..Default::default()
    };
    cfg.precision = precision;
    cfg.memory.coalesced_params = coalesced;
    cfg.memory.coalesced_data = coalesced;
    cfg
}

fn trainer_config() -> TrainerConfig {
    TrainerConfig {
        batch_size: 96,
        learning_rate: 2e-3,
        threads: 1,
        ..Default::default()
    }
}

fn export(p: &LayerParams) -> Vec<f32> {
    let mut bytes = Vec::new();
    p.export_into(&mut bytes);
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// A copy of one layer's parameters in `LayerParams::export_into`'s order:
/// weights, bias, the weights' moments, the bias's moments. bf16 weights are
/// kept as bf16 bits, so they step exactly as the layer's do.
struct Reference {
    cols: usize,
    w: Vec<f32>,
    w_bf16: Option<Vec<u16>>,
    b: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl Reference {
    fn of(p: &LayerParams) -> Self {
        let all = export(p);
        let (weights, units) = (p.rows() * p.cols(), p.units());
        let mut parts = [weights, units, weights, weights, units, units]
            .into_iter()
            .scan(0, |at, len| {
                *at += len;
                Some(all[*at - len..*at].to_vec())
            });
        let mut next = || parts.next().unwrap();
        let w = next();
        let w_bf16 = p
            .is_bf16()
            .then(|| w.iter().map(|&x| Bf16::from_f32(x).to_bits()).collect());
        Reference {
            cols: p.cols(),
            w,
            w_bf16,
            b: next(),
            m: next(),
            v: next(),
            mb: next(),
            vb: next(),
        }
    }

    /// `g += delta·scale·h` for weight row `r` through the public fused row
    /// kernel, whose gradient bits the batch pass's row × samples kernels
    /// are specified to reproduce (bf16 rows sum their tail unfused).
    fn accumulate(
        &self,
        ks: &KernelSet,
        r: usize,
        delta: f32,
        scale: f32,
        h: &[f32],
        g: &mut [f32],
    ) {
        // The kernel's hidden-gradient output; the reference takes `dh`
        // from `train_sample` instead.
        let mut dx = vec![0.0; self.cols];
        let (at, grad) = (r * self.cols, [g.as_mut_ptr()]);
        assert!(at + self.cols <= self.w.len() && g.len() == self.cols);
        // SAFETY: each pointer starts `cols` elements of row `r` of this
        // copy or of `g`; `dx` aliases neither.
        unsafe {
            match &self.w_bf16 {
                Some(w) => {
                    ks.backward_rows_bf16(&[w[at..].as_ptr()], &grad, &[delta], scale, h, &mut dx)
                }
                None => ks.backward_rows_f32(
                    &[self.w[at..].as_ptr()],
                    &grad,
                    &[delta],
                    scale,
                    h,
                    &mut dx,
                ),
            }
        }
    }

    /// One ADAM step of weight row `r` with gradient `g`.
    fn step_row(&mut self, r: usize, g: &[f32], step: AdamStep) {
        let row = r * self.cols..(r + 1) * self.cols;
        let (m, v) = (&mut self.m[row.clone()], &mut self.v[row.clone()]);
        match &mut self.w_bf16 {
            Some(w) => bf16::adam_step_bf16(&mut w[row], m, v, g, step),
            None => adam_step_f32(&mut self.w[row], m, v, g, step),
        }
    }

    /// One ADAM step of the bias units `units` with gradient `g`.
    fn step_bias(&mut self, units: std::ops::Range<usize>, g: &[f32], step: AdamStep) {
        let (b, m, v) = (&mut self.b, &mut self.mb, &mut self.vb);
        let (b, m, v) = (&mut b[units.clone()], &mut m[units.clone()], &mut v[units]);
        adam_step_f32(b, m, v, g, step);
    }

    /// The state in `export`'s order (bf16 weights widened).
    fn export(&self) -> Vec<f32> {
        let w = match &self.w_bf16 {
            Some(w) => w.iter().map(|&b| Bf16::from_bits(b).to_f32()).collect(),
            None => self.w.clone(),
        };
        [w, self.b.clone(), self.m.clone(), self.v.clone()]
            .into_iter()
            .chain([self.mb.clone(), self.vb.clone()])
            .flatten()
            .collect()
    }
}

/// The trainer's first batch, one sample at a time on a fresh `net`: salt
/// `1 << 20 | i`, scale `1/n`, the step of ADAM time 1. Returns the input
/// and output layers after it.
fn reference_batch(
    net: &Network,
    data: &Dataset,
    batch: &[u32],
    tc: &TrainerConfig,
) -> (Reference, Reference) {
    let ks = KernelSet::resolve();
    let cols = net.config().hidden;
    let scale = 1.0 / batch.len() as f32;
    // Per output row: its weight gradient and its bias gradient. Per input
    // row: its weight gradient. Plus the hidden bias's gradient.
    let mut out_g: BTreeMap<u32, (Vec<f32>, f32)> = BTreeMap::new();
    let mut in_g: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
    let mut in_gb = vec![0.0; cols];
    let (mut inp, mut out) = (
        Reference::of(net.input().params()),
        Reference::of(net.output().params()),
    );
    let mut scratch = net.make_scratch();
    for (i, &s) in batch.iter().enumerate() {
        let (x, labels) = (data.features(s as usize), data.labels(s as usize));
        net.train_sample(x, labels, &mut scratch, scale, 1, 1 << 20 | i as u64);
        if labels.is_empty() {
            continue;
        }
        let h = &scratch.acts[0];
        for (&r, &delta) in scratch.active.iter().zip(&scratch.probs) {
            let (g, gb) = out_g.entry(r).or_insert_with(|| (vec![0.0; cols], 0.0));
            out.accumulate(&ks, r as usize, delta, scale, h, g);
            *gb += delta * scale;
        }
        for (j, v) in x.iter() {
            let g = in_g.entry(j).or_insert_with(|| vec![0.0; cols]);
            ks.axpy(v * scale, &scratch.grad, g);
        }
        ks.axpy(scale, &scratch.grad, &mut in_gb);
    }

    let step = AdamStep::bias_corrected(tc.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 1);
    for (&r, (g, gb)) in &out_g {
        let r = r as usize;
        out.step_row(r, g, step);
        out.step_bias(r..r + 1, &[*gb], step);
    }
    for (&j, g) in &in_g {
        inp.step_row(j as usize, g, step);
    }
    inp.step_bias(0..cols, &in_gb, step);
    (inp, out)
}

fn check(hidden: usize, precision: Precision, coalesced: bool) {
    let what = format!("hidden {hidden} {precision:?} coalesced={coalesced}");
    let data = data();
    let batch: Vec<u32> = (0..data.len() as u32).collect();
    let tc = trainer_config();

    let mut trainer = Trainer::new(
        Network::new(config(hidden, precision, coalesced)).unwrap(),
        tc,
    )
    .unwrap();
    trainer.train_batch(&data, &batch);
    let start = Network::new(config(hidden, precision, coalesced)).unwrap();
    let (inp, out) = reference_batch(&start, &data, &batch, &tc);
    let net = trainer.network();

    let (got, want) = (export(net.output().params()), out.export());
    assert_eq!(got.len(), want.len(), "{what}: output layer shape");
    assert_ne!(
        want,
        export(start.output().params()),
        "{what}: the batch moved the output layer"
    );
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: output layer element {i}: {a} vs {b}"
        );
    }

    let (a, b) = (export(net.input().params()), inp.export());
    assert_eq!(a.len(), b.len(), "{what}: input layer shape");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        let err = (x - y).abs() / x.abs().max(1.0);
        assert!(
            err <= TOLERANCE,
            "{what}: input layer element {i}: {x} vs {y}"
        );
    }
}

#[test]
fn one_batch_matches_the_per_sample_oracle_f32() {
    check(72, Precision::Fp32, true);
}

#[test]
fn one_batch_matches_the_per_sample_oracle_bf16() {
    check(72, Precision::Bf16Both, true);
    check(72, Precision::Bf16Activations, true);
}

#[test]
fn one_batch_matches_the_per_sample_oracle_fragmented() {
    check(72, Precision::Fp32, false);
}

#[test]
fn one_batch_leaves_the_output_layer_independent_of_thread_count() {
    let data = data();
    let batch: Vec<u32> = (0..data.len() as u32).collect();
    for precision in [Precision::Fp32, Precision::Bf16Both] {
        let run = |threads: usize| {
            let tc = TrainerConfig {
                threads,
                ..trainer_config()
            };
            let net = Network::new(config(72, precision, true)).unwrap();
            let mut trainer = Trainer::new(net, tc).unwrap();
            trainer.train_batch(&data, &batch);
            let out = export(trainer.network().output().params());
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let one = run(1);
        for threads in 2..=4 {
            assert!(
                run(threads) == one,
                "{precision:?}: the output layer at {threads} threads differs from 1 thread"
            );
        }
    }
}
