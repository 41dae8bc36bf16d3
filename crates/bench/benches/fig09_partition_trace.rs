//! Regenerates Figure 9: the TLB way-allocation of the L2/L3 caches over
//! time for connected component under CSALT-CD.

fn main() {
    let trace = csalt_sim::experiments::fig09(&csalt_bench::harness());
    println!("== Figure 9: fraction of cache ways allocated to TLB entries over time (ccomp, CSALT-CD) ==");
    println!(
        "{:<12}{:>16}{:>16}",
        "progress", "l2_tlb_frac", "l3_tlb_frac"
    );
    // The two traces have independent epochs; print the merged timeline.
    let mut points: Vec<(f64, Option<f64>, Option<f64>)> = Vec::new();
    for &(p, f) in &trace.l2 {
        points.push((p, Some(f), None));
    }
    for &(p, f) in &trace.l3 {
        points.push((p, None, Some(f)));
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite progress"));
    for (p, l2, l3) in points {
        let fmt = |v: Option<f64>| {
            v.map(|x| format!("{x:>16.3}"))
                .unwrap_or_else(|| format!("{:>16}", "-"))
        };
        println!("{p:<12.3}{}{}", fmt(l2), fmt(l3));
    }
    println!();
    println!(
        "paper: Figure 9 shows the TLB allocation tracking ccomp's iteration \
         phases, with the L3 TLB share dipping when the L2 TLB share rises."
    );
}
