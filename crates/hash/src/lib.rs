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
//! * [`LshTables`] — the `L x 2^K` bounded-bucket index with FIFO and
//!   reservoir insertion policies, insert/query/rebuild,
//! * [`mix`] — the universal integer-hash family underlying all of it.
//!
//! # Examples
//!
//! Index a few "neurons" by their weight vectors and retrieve candidates for
//! a query:
//!
//! ```
//! use slide_hash::{BucketPolicy, DwtaConfig, LshFamily, LshTables};
//!
//! let family = LshFamily::dwta(DwtaConfig { dim: 32, key_bits: 6, tables: 8, ..Default::default() });
//! let mut tables = LshTables::new(8, 6, 64, BucketPolicy::Reservoir, 7);
//! let mut scratch = family.make_scratch();
//! let mut keys = vec![0u32; 8];
//!
//! let neuron_weights: Vec<Vec<f32>> = (0..10)
//!     .map(|n| (0..32).map(|c| ((n * 13 + c * 7) % 11) as f32).collect())
//!     .collect();
//! for (id, w) in neuron_weights.iter().enumerate() {
//!     family.keys_dense(w, &mut scratch, &mut keys);
//!     tables.insert(&keys, id as u32);
//! }
//!
//! // Querying with neuron 3's own weights must retrieve neuron 3.
//! family.keys_dense(&neuron_weights[3], &mut scratch, &mut keys);
//! let mut candidates = Vec::new();
//! tables.query_into(&keys, &mut candidates);
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
pub use table::{BucketPolicy, LshTables, TableStats, TablesCsr};
