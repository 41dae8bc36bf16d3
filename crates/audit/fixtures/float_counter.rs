//# path: crates/sim/src/checkpoint.rs
//# expect: S005
// Float arithmetic in a counter module: 0.1 has no binary
// representation, and accumulation order changes the total.

pub fn weighted_cycles(cycles: u64) -> u64 {
    let weighted = cycles as f64 * 0.1;
    weighted as u64
}
