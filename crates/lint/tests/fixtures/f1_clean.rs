//! F1 fixture, clean variant: integer units until the final report, so
//! the reduction associates.
pub fn run_grid_totals(xs: &[u64]) -> u64 {
    merge_deltas(xs)
}

fn merge_deltas(xs: &[u64]) -> u64 {
    let total: u64 = xs.iter().sum();
    total
}
