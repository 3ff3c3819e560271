//! Locality-sensitive hashing substrate for the SLIDE reproduction.
//!
//! SLIDE replaces the full-softmax inner-product search with approximate
//! maximum-inner-product sampling: neurons are indexed into `L` hash tables
//! of `2^K` buckets keyed by an LSH family, and each input queries the tables
//! to retrieve a tiny "active set" of high-activation neurons (§2 of
//! "Accelerating SLIDE Deep Learning on Modern CPUs", after Chen et al. 2019).
//!
//! This crate provides:
//!
//! * [`DwtaHash`] — densified winner-take-all hashing (Chen & Shrivastava
//!   2018), vectorized per §4.3.3, used for the extreme-classification
//!   workloads (`K = 6, L = 400` on Amazon-670K in the paper),
//! * [`SimHash`] — signed random projection, used for Text8
//!   (`K = 9, L = 50`),
//! * [`LshFamily`] — runtime selector between the two,
//! * [`LshTables`] — the `L x 2^K` bounded-bucket index, built in one
//!   counting sort from every neuron's keys (full buckets keep a reservoir
//!   sample) and held as the CSR arrays a snapshot stores,
//! * [`mix`] — the universal integer-hash family underlying all of it.
//!
//! # Examples
//!
//! Index a few "neurons" by their weight vectors and retrieve candidates for
//! a query:
//!
//! ```
//! use slide_hash::{DwtaConfig, LshFamily, LshTables};
//!
//! let family = LshFamily::dwta(DwtaConfig { dim: 32, key_bits: 6, tables: 8, ..Default::default() });
//! let mut scratch = family.make_scratch();
//!
//! let neuron_weights: Vec<Vec<f32>> = (0..10)
//!     .map(|n| (0..32).map(|c| ((n * 13 + c * 7) % 11) as f32).collect())
//!     .collect();
//! // Every neuron's 8 keys, row-major, then one build.
//! let mut keys = vec![0u32; 10 * 8];
//! for (w, row_keys) in neuron_weights.iter().zip(keys.chunks_exact_mut(8)) {
//!     family.keys_dense(w, &mut scratch, row_keys);
//! }
//! let tables = LshTables::from_keys(8, 6, 64, 7, &keys);
//!
//! // Querying with neuron 3's own weights must retrieve neuron 3.
//! let mut query = vec![0u32; 8];
//! family.keys_dense(&neuron_weights[3], &mut scratch, &mut query);
//! let mut candidates = Vec::new();
//! tables.query_into(&query, &mut candidates);
//! assert!(candidates.contains(&3));
//! ```

mod dwta;
mod family;
pub mod mix;
mod srp;
mod table;

pub use dwta::{DwtaConfig, DwtaHash, DwtaScratch};
pub use family::{LshFamily, LshScratch};
pub use srp::{SimHash, SimHashConfig, SimHashScratch};
pub use table::{LshTables, TableStats};
