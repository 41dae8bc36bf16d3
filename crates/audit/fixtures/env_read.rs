//# path: crates/sim/src/fixture_env_read.rs
//# expect: S009
// A library knob read from the environment: the run now depends on
// process state its caller never passed, so two callers with the same
// arguments can get different results.

pub fn accesses_per_core() -> u64 {
    std::env::var("CSALT_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000)
}
