//! # scnn-data
//!
//! Datasets for the `scnn` workspace: class-conditioned synthetic MNIST
//! and CIFAR-10 generators, plus loaders/writers for the real on-disk
//! formats (IDX and the CIFAR-10 binary batches).
//!
//! The paper evaluates on the genuine MNIST and CIFAR-10 files; this
//! environment does not ship them, so [`mnist_synth`] and [`cifar_synth`]
//! produce procedural stand-ins with the statistical structure the
//! experiments rely on — class-characteristic spatial patterns with
//! within-class variation (see `DESIGN.md` §2 for the substitution
//! argument). When the real files are present, [`idx`] and [`cifar_bin`]
//! feed them into the identical pipeline.
//!
//! # Examples
//!
//! ```
//! use scnn_data::mnist_synth::{generate, MnistSynthConfig};
//!
//! # fn main() -> Result<(), scnn_data::DatasetError> {
//! let ds = generate(&MnistSynthConfig { per_class: 10, ..Default::default() }, 42)?;
//! // The paper's §5.2 protocol uses four categories.
//! let four = ds.select_classes(&[0, 1, 2, 3]);
//! let (train, test) = four.split(0.8, 42);
//! assert_eq!(train.num_classes(), 4);
//! assert!(!test.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cifar_bin;
pub mod cifar_synth;
pub mod dataset;
pub mod idx;
pub mod mnist_synth;

pub use cifar_bin::CifarBinError;
pub use dataset::{Dataset, DatasetError};
pub use idx::IdxError;
