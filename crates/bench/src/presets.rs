//! The method lineup of Figure 6 / Table 2 (§5), each method a named
//! rewrite of a workload's optimized [`Run`]:
//!
//! * **Optimized SLIDE** — coalesced memory, SIMD auto, fp32 (CLX) or bf16
//!   (CPX, the only per-machine difference our single-host reproduction can
//!   express besides thread count),
//! * **Naive SLIDE** — the original implementation's profile: fragmented
//!   memory and scalar kernels,
//! * **TF full softmax** — the same trainer with every output row active; its
//!   V100 column is modeled from the CPU measurement, not run.

use crate::{Run, Workload};
use slide_data::Dataset;

/// The method lineup of Figure 6 / Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// TensorFlow full-softmax stand-in on the V100 device model.
    TfV100,
    /// TensorFlow full-softmax stand-in on this CPU.
    TfCpu,
    /// Original SLIDE: fragmented memory, scalar kernels, fp32.
    NaiveSlide,
    /// Optimized SLIDE without bf16 (the paper's CLX configuration).
    OptimizedSlideClx,
    /// Optimized SLIDE with bf16 activations+weights (the CPX configuration).
    OptimizedSlideCpx,
}

impl Method {
    /// Display name matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Method::TfV100 => "TF FullSoftmax, V100 (modeled)",
            Method::TfCpu => "TF FullSoftmax, CPU",
            Method::NaiveSlide => "Naive SLIDE",
            Method::OptimizedSlideClx => "Optimized SLIDE (CLX-like: AVX-512, fp32)",
            Method::OptimizedSlideCpx => "Optimized SLIDE (CPX-like: AVX-512 + BF16)",
        }
    }

    /// All methods in the paper's presentation order.
    pub fn all() -> [Method; 5] {
        [
            Method::TfV100,
            Method::TfCpu,
            Method::NaiveSlide,
            Method::OptimizedSlideClx,
            Method::OptimizedSlideCpx,
        ]
    }

    /// The run that measures this method on workload `w`, or `None` for the
    /// modeled V100 row (its time is [`Workload::v100_epoch_seconds`], its
    /// P@1 the TF-CPU run's).
    pub fn run(self, w: Workload, train: &Dataset) -> Option<Run> {
        let clx = w.run(self.label(), train);
        match self {
            Method::TfV100 => None,
            Method::TfCpu => Some(clx.tf_cpu()),
            Method::NaiveSlide => Some(clx.naive()),
            Method::OptimizedSlideClx => Some(clx),
            Method::OptimizedSlideCpx => Some(clx.cpx()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slide_core::{ActiveSets, MemoryConfig, NetworkConfig, Precision, TrainerConfig};
    use slide_data::{generate_synthetic, SynthConfig};
    use slide_simd::{SimdLevel, SimdPolicy};

    fn tiny_train() -> Dataset {
        generate_synthetic(&SynthConfig {
            feature_dim: 100,
            label_dim: 50,
            n_train: 32,
            n_test: 8,
            ..Default::default()
        })
        .train
    }

    fn run(method: Method) -> Run {
        method
            .run(Workload::Amazon670k, &tiny_train())
            .expect("a measured method")
    }

    #[test]
    fn presets_produce_valid_configs() {
        for method in Method::all().into_iter().skip(1) {
            let run = run(method);
            assert!(run.net.validate().is_ok(), "{run:?}");
            assert!(run.trainer.validate().is_ok(), "{run:?}");
        }
    }

    #[test]
    fn naive_is_fragmented_and_scalar() {
        let run = run(Method::NaiveSlide);
        assert!(!run.net.memory.coalesced_params);
        assert!(!run.net.memory.coalesced_data);
        assert_eq!(run.simd, SimdPolicy::Force(SimdLevel::Scalar));
    }

    #[test]
    fn cpx_uses_bf16_clx_does_not() {
        assert_eq!(
            run(Method::OptimizedSlideClx).net.precision,
            Precision::Fp32
        );
        assert_eq!(
            run(Method::OptimizedSlideCpx).net.precision,
            Precision::Bf16Both
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Method::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    /// The fields every named run of `paper`'s sections and the
    /// `end_to_end` bench trains with, written out in full: only the memory
    /// layout, the precision, the active sets and the SIMD policy differ
    /// from the workload's own network and trainer. The lineup and the
    /// rewrites the other sections call must agree, or a `Lab` would train
    /// one method twice.
    #[test]
    fn every_named_run_trains_its_pinned_configuration() {
        let train = tiny_train();
        let coalesced = MemoryConfig {
            coalesced_params: true,
            coalesced_data: true,
        };
        let fragmented = MemoryConfig {
            coalesced_params: false,
            coalesced_data: false,
        };
        let (auto, scalar) = (SimdPolicy::Auto, SimdPolicy::Force(SimdLevel::Scalar));
        for w in Workload::all() {
            let trainer = w.trainer_config();
            assert_eq!(trainer.active_sets, ActiveSets::Retrieval);
            let run = |m: Method| m.run(w, &train).expect("a measured method");

            let clx = run(Method::OptimizedSlideClx);
            let clx_net = NetworkConfig {
                memory: coalesced,
                precision: Precision::Fp32,
                ..w.network_config(100, 50)
            };
            assert_eq!((&clx.net, clx.trainer, clx.simd), (&clx_net, trainer, auto));

            let cpx = run(Method::OptimizedSlideCpx);
            let cpx_net = NetworkConfig {
                precision: Precision::Bf16Both,
                ..clx_net.clone()
            };
            assert_eq!((&cpx.net, cpx.trainer, cpx.simd), (&cpx_net, trainer, auto));

            let naive = run(Method::NaiveSlide);
            let naive_net = NetworkConfig {
                memory: fragmented,
                ..clx_net.clone()
            };
            assert_eq!(
                (&naive.net, naive.trainer, naive.simd),
                (&naive_net, trainer, scalar)
            );

            let tf_cpu = run(Method::TfCpu);
            let dense = TrainerConfig {
                active_sets: ActiveSets::All,
                ..trainer
            };
            assert_eq!(
                (&tf_cpu.net, tf_cpu.trainer, tf_cpu.simd),
                (&clx_net, dense, auto)
            );
            assert_eq!(
                Method::TfV100.run(w, &train),
                None,
                "the V100 row is modeled"
            );

            // The phases and ladder sections and the end_to_end bench call
            // the rewrites on `Workload::run` directly.
            let direct = |m: Method| w.run(m.label(), &train);
            assert_eq!(direct(Method::OptimizedSlideClx), clx);
            assert_eq!(direct(Method::OptimizedSlideCpx).cpx(), cpx);
            assert_eq!(direct(Method::NaiveSlide).naive(), naive);
            assert_eq!(direct(Method::TfCpu).tf_cpu(), tf_cpu);
        }
    }
}
