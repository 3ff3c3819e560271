//! Baselines for the SLIDE reproduction — the comparison points of §5:
//!
//! * the "TF FullSoftmax" CPU stand-in and uniform sampled softmax are not
//!   here: they are `slide_core::Trainer` runs under
//!   `slide_core::ActiveSets::All` / `ActiveSets::Uniform`, so the measured
//!   gap isolates which output rows are active,
//! * [`DeviceModel`] — the analytic V100 epoch-time model (the only
//!   *modeled* number in the reproduction; everything CPU-side is measured),
//! * [`Method`] and the `naive_slide` / `optimized_slide_*` presets — the
//!   named configurations of Figure 6 / Table 2.
//!
//! # Examples
//!
//! ```
//! use slide_baseline::{DeviceModel, Method};
//!
//! let v100 = DeviceModel::v100();
//! let secs = v100.epoch_seconds(103_000_000, 490_449, 1024);
//! assert!(secs > 0.0);
//! assert_eq!(Method::all().len(), 5);
//! ```

mod device_model;
mod presets;

pub use device_model::DeviceModel;
pub use presets::{naive_slide, optimized_slide_clx, optimized_slide_cpx, Method};
