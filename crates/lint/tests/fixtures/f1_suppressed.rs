//! F1 fixture: the same reduction, annotated with why the operand order
//! is actually pinned.
pub fn run_grid_totals(xs: &[f64]) -> f64 {
    merge_deltas(xs)
}

fn merge_deltas(xs: &[f64]) -> f64 {
    // silcfm-lint: allow(F1) -- job results arrive pre-sorted by job index, so the order is pinned
    let total: f64 = xs.iter().sum();
    total
}
