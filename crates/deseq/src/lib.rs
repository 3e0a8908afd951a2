//! DESeq2-style count normalization — pipeline step 4.
//!
//! The Transcriptomics Atlas pipeline ends by normalizing STAR's per-gene counts with
//! DESeq2. The part of DESeq2 the pipeline uses is *median-of-ratios* normalization
//! (Love et al. 2014, following Anders & Huber 2010): per-sample size factors are the
//! median, over genes, of each sample's counts divided by the gene's geometric mean
//! across samples; normalized counts are raw counts divided by the sample's factor.
//!
//! The full differential-expression machinery (dispersion shrinkage, Wald tests) is
//! out of pipeline scope — the Atlas only stores normalized counts.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod normalize;

pub use matrix::CountsMatrix;
pub use normalize::{normalize, size_factors, DeseqError, NormalizedMatrix};
