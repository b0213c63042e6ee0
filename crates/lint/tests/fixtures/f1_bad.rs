//! F1 fixture: unordered float reduction on the parallel grid merge path.
pub fn run_grid_totals(xs: &[f64]) -> f64 {
    merge_deltas(xs)
}

fn merge_deltas(xs: &[f64]) -> f64 {
    let total: f64 = xs.iter().sum();
    total
}
