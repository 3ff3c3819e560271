//! Binary model checkpointing.
//!
//! Format (all little-endian):
//!
//! ```text
//! magic  u32 = 0x511D_E5CB
//! version u32 = 1
//! n_layers u32 = 2 (the input layer, then the output layer)
//! per layer: rows u64, cols u64, units u64
//! per layer: the LayerParams::export_into payload (weights, bias, moments)
//! ```
//!
//! The checkpoint stores weights widened to f32 regardless of the runtime
//! precision mode — bf16 → f32 → bf16 is lossless — so a model trained in
//! one precision mode can be reloaded into another for comparison.

use crate::network::Network;
use slide_mem::{ByteReader, ReadError};
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: u32 = 0x511D_E5CB;
const VERSION: u32 = 1;

/// Error restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural mismatch (bad magic, wrong shapes, truncation).
    Format(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error on checkpoint: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Format(_) => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        CheckpointError::Format(e.to_string())
    }
}

/// Serialize a network's learnable + optimizer state.
///
/// A mutable reference works too (`save_checkpoint(&net, &mut writer)`).
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn save_checkpoint<W: Write>(network: &Network, mut writer: W) -> io::Result<()> {
    let params = layer_params(network);
    let mut buf =
        Vec::with_capacity(12 + params.iter().map(|p| p.export_len() + 24).sum::<usize>());
    for word in [MAGIC, VERSION, params.len() as u32] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    for p in &params {
        for dim in [p.rows(), p.cols(), p.units()] {
            buf.extend_from_slice(&(dim as u64).to_le_bytes());
        }
    }
    for p in &params {
        p.export_into(&mut buf);
    }
    writer.write_all(&buf)
}

/// Restore a network's state from a checkpoint written by
/// [`save_checkpoint`]. The network must have the same architecture; hash
/// tables are rebuilt from the restored weights.
///
/// All or nothing: the header, the shapes and the exact file length are
/// checked before any layer is written, so a refused checkpoint leaves the
/// network as it was.
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] on a shape/magic mismatch, a short
/// file or trailing bytes, and [`CheckpointError::Io`] on read failure.
pub fn load_checkpoint<R: Read>(
    network: &mut Network,
    mut reader: R,
) -> Result<(), CheckpointError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut r = ByteReader::new(&raw);
    if r.u32("checkpoint magic")? != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = r.u32("checkpoint version")?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let n_layers = r.u32("layer count")? as usize;
    let params = layer_params(network);
    if n_layers != params.len() {
        return Err(CheckpointError::Format(format!(
            "layer count mismatch: checkpoint {n_layers}, network {}",
            params.len()
        )));
    }
    for p in &params {
        let (rows, cols, units) = (r.u64("rows")?, r.u64("cols")?, r.u64("units")?);
        if [rows, cols, units] != [p.rows(), p.cols(), p.units()].map(|d| d as u64) {
            return Err(CheckpointError::Format(format!(
                "shape mismatch: checkpoint {rows}x{cols}/{units}, network {}x{}/{}",
                p.rows(),
                p.cols(),
                p.units()
            )));
        }
    }
    let payload = r.take(
        params.iter().map(|p| p.export_len()).sum(),
        "layer payloads",
    )?;
    r.finish("checkpoint")?;
    let mut payload = ByteReader::new(payload);
    for p in network.params_mut() {
        p.import_from(&mut payload)?;
    }
    network.output_mut().rebuild_serial();
    Ok(())
}

/// The parameter blocks a checkpoint holds, in file order: input, output.
fn layer_params(network: &Network) -> [&crate::params::LayerParams; 2] {
    [network.input().params(), network.output().params()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LshConfig, NetworkConfig, Precision, TrainerConfig};
    use crate::params::LayerParams;
    use crate::trainer::Trainer;
    use slide_data::Dataset;
    use slide_mem::SparseVecRef;

    fn config() -> NetworkConfig {
        let mut cfg = NetworkConfig::standard(64, 8, 32);
        cfg.lsh = LshConfig {
            tables: 6,
            key_bits: 4,
            min_active: 8,
            ..Default::default()
        };
        cfg
    }

    /// A network of `cfg` after nine training batches, so its weights,
    /// biases and moments are all distinctive.
    fn perturbed(cfg: NetworkConfig) -> Network {
        let mut data = Dataset::new(64, 32);
        data.push(&[1, 30], &[1.0, -2.0], &[3]);
        data.push(&[7, 30, 50], &[0.5, 1.0, 0.25], &[3, 17]);
        let tc = TrainerConfig {
            batch_size: 2,
            learning_rate: 1e-2,
            threads: 1,
            ..Default::default()
        };
        let mut trainer = Trainer::new(Network::new(cfg).unwrap(), tc).unwrap();
        for _ in 1..10 {
            trainer.train_batch(&data, &[0, 1]);
        }
        trainer.into_network()
    }

    fn export(p: &LayerParams) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.export_into(&mut bytes);
        bytes
    }

    #[test]
    fn roundtrip_restores_predictions() {
        let net = perturbed(config());
        // What is saved is not a fresh network's state: in both layers the
        // weights and the ADAM moments moved.
        let fresh = Network::new(config()).unwrap();
        for (p, f) in layer_params(&net).into_iter().zip(layer_params(&fresh)) {
            let (a, b) = (export(p), export(f));
            let weights = p.rows() * p.cols() * 4;
            let moments = weights + p.units() * 4;
            assert_ne!(a[..weights], b[..weights], "weights moved");
            assert_ne!(a[moments..], b[moments..], "moments moved");
        }
        let mut bytes = Vec::new();
        save_checkpoint(&net, &mut bytes).unwrap();

        let mut restored = Network::new(config()).unwrap();
        load_checkpoint(&mut restored, &bytes[..]).unwrap();

        let mut s1 = net.make_scratch();
        let mut s2 = restored.make_scratch();
        let idx = [5u32, 20];
        let val = [0.5f32, 1.5];
        let x = SparseVecRef::new(&idx, &val);
        assert_eq!(
            net.predict(x, 5, &mut s1, true, 0),
            restored.predict(x, 5, &mut s2, true, 0)
        );
        // Weights, biases and moments bit-identical.
        for (p, q) in layer_params(&net).into_iter().zip(layer_params(&restored)) {
            assert!(export(p) == export(q));
        }
    }

    /// The checkpoint of the nine-batch network, pinned as (length, CRC-32)
    /// per kernel tier: the tiers round differently, so each trains its own
    /// bits, but within a tier the bytes on disk must never move.
    #[test]
    fn golden_checkpoint_digest() {
        let mut bytes = Vec::new();
        save_checkpoint(&perturbed(config()), &mut bytes).unwrap();
        let level = slide_simd::effective_level();
        let want = match level {
            slide_simd::SimdLevel::Scalar => (9756, 225623436),
            slide_simd::SimdLevel::Avx2 => (9756, 896320620),
            slide_simd::SimdLevel::Avx512 => (9756, 3336575821),
        };
        assert_eq!(
            (bytes.len(), slide_mem::crc32(&bytes)),
            want,
            "{level:?}: checkpoint layout drifted"
        );
    }

    #[test]
    fn bf16_checkpoint_roundtrips_into_fp32_network() {
        let mut cfg = config();
        cfg.precision = Precision::Bf16Both;
        let net = perturbed(cfg.clone());
        assert_ne!(
            export(net.output().params()),
            export(Network::new(cfg).unwrap().output().params()),
            "the bf16 network trained"
        );
        let mut bytes = Vec::new();
        save_checkpoint(&net, &mut bytes).unwrap();

        let mut fp32 = Network::new(config()).unwrap();
        load_checkpoint(&mut fp32, &bytes[..]).unwrap();
        for r in 0..32 {
            assert_eq!(
                net.output().params().row_f32(r),
                fp32.output().params().row_f32(r)
            );
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let net = Network::new(config()).unwrap();
        let mut bytes = Vec::new();
        save_checkpoint(&net, &mut bytes).unwrap();
        let mut other_cfg = config();
        other_cfg.output_dim = 33;
        let mut other = Network::new(other_cfg).unwrap();
        match load_checkpoint(&mut other, &bytes[..]) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("mismatch"), "{msg}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut net = Network::new(config()).unwrap();
        let err = load_checkpoint(&mut net, &b"nope"[..]).unwrap_err();
        assert!(err.to_string().contains("invalid checkpoint"));
    }

    /// A file cut inside the output layer's payload is refused before any
    /// layer is written: the network keeps every byte it had.
    #[test]
    fn truncated_output_layer_leaves_network_untouched() {
        let mut bytes = Vec::new();
        save_checkpoint(&perturbed(config()), &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 4);
        let mut net = Network::new(config()).unwrap();
        let before: Vec<Vec<u8>> = layer_params(&net).into_iter().map(export).collect();
        match load_checkpoint(&mut net, &bytes[..]) {
            Err(CheckpointError::Format(_)) => {}
            other => panic!("expected format error, got {other:?}"),
        }
        let after: Vec<Vec<u8>> = layer_params(&net).into_iter().map(export).collect();
        assert!(
            before == after,
            "a refused checkpoint wrote into the network"
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let net = Network::new(config()).unwrap();
        let mut bytes = Vec::new();
        save_checkpoint(&net, &mut bytes).unwrap();
        bytes.push(0);
        let mut other = Network::new(config()).unwrap();
        match load_checkpoint(&mut other, &bytes[..]) {
            Err(CheckpointError::Format(_)) => {}
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let net = Network::new(config()).unwrap();
        let mut bytes = Vec::new();
        save_checkpoint(&net, &mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        let mut other = Network::new(config()).unwrap();
        assert!(load_checkpoint(&mut other, &bytes[..]).is_err());
    }
}
