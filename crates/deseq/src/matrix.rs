//! Gene × sample counts matrix.

/// A dense counts matrix: rows are genes, columns are samples.
#[derive(Clone, Debug, PartialEq)]
pub struct CountsMatrix {
    gene_ids: Vec<String>,
    sample_ids: Vec<String>,
    /// Row-major: `data[gene * n_samples + sample]`.
    data: Vec<u64>,
}

impl CountsMatrix {
    /// An all-zero matrix with the given labels.
    pub fn zeros(gene_ids: Vec<String>, sample_ids: Vec<String>) -> CountsMatrix {
        let data = vec![0; gene_ids.len() * sample_ids.len()];
        CountsMatrix { gene_ids, sample_ids, data }
    }

    /// Build from rows (one `Vec` per gene). Panics if row lengths disagree with the
    /// sample count.
    pub fn from_rows(
        gene_ids: Vec<String>,
        sample_ids: Vec<String>,
        rows: Vec<Vec<u64>>,
    ) -> CountsMatrix {
        assert_eq!(rows.len(), gene_ids.len(), "one row per gene");
        let n = sample_ids.len();
        let mut data = Vec::with_capacity(gene_ids.len() * n);
        for row in &rows {
            assert_eq!(row.len(), n, "row length must equal sample count");
            data.extend_from_slice(row);
        }
        CountsMatrix { gene_ids, sample_ids, data }
    }

    /// Number of genes (rows).
    pub fn n_genes(&self) -> usize {
        self.gene_ids.len()
    }

    /// Number of samples (columns).
    pub fn n_samples(&self) -> usize {
        self.sample_ids.len()
    }

    /// Gene labels.
    pub fn gene_ids(&self) -> &[String] {
        &self.gene_ids
    }

    /// Sample labels.
    pub fn sample_ids(&self) -> &[String] {
        &self.sample_ids
    }

    /// The count for `(gene, sample)` by index.
    pub fn get(&self, gene: usize, sample: usize) -> u64 {
        self.data[gene * self.n_samples() + sample]
    }

    /// Set the count for `(gene, sample)` by index.
    pub fn set(&mut self, gene: usize, sample: usize, value: u64) {
        let n = self.n_samples();
        self.data[gene * n + sample] = value;
    }

    /// One gene's counts across samples.
    pub fn row(&self, gene: usize) -> &[u64] {
        let n = self.n_samples();
        &self.data[gene * n..(gene + 1) * n]
    }

    /// One sample's counts across genes (copied; columns are strided).
    pub fn column(&self, sample: usize) -> Vec<u64> {
        (0..self.n_genes()).map(|g| self.get(g, sample)).collect()
    }

    /// Total counts per sample (library sizes).
    pub fn library_sizes(&self) -> Vec<u64> {
        (0..self.n_samples()).map(|s| self.column(s).iter().sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CountsMatrix {
        CountsMatrix::from_rows(
            vec!["g1".into(), "g2".into(), "g3".into()],
            vec!["s1".into(), "s2".into()],
            vec![vec![10, 20], vec![0, 5], vec![7, 7]],
        )
    }

    #[test]
    fn shape_and_access() {
        let m = m();
        assert_eq!(m.n_genes(), 3);
        assert_eq!(m.n_samples(), 2);
        assert_eq!(m.get(0, 1), 20);
        assert_eq!(m.row(2), &[7, 7]);
        assert_eq!(m.column(0), vec![10, 0, 7]);
    }

    #[test]
    fn set_updates_in_place() {
        let mut m = m();
        m.set(1, 0, 99);
        assert_eq!(m.get(1, 0), 99);
    }

    #[test]
    fn library_sizes_sum_columns() {
        assert_eq!(m().library_sizes(), vec![17, 32]);
    }

    #[test]
    fn zeros_builds_correct_shape() {
        let z = CountsMatrix::zeros(vec!["a".into()], vec!["x".into(), "y".into(), "z".into()]);
        assert_eq!(z.n_genes(), 1);
        assert_eq!(z.n_samples(), 3);
        assert_eq!(z.row(0), &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn ragged_rows_panic() {
        CountsMatrix::from_rows(
            vec!["g".into()],
            vec!["s1".into(), "s2".into()],
            vec![vec![1]],
        );
    }
}
