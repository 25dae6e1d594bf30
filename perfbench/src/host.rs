//! Host measurements: process CPU time and peak RSS from `/proc`, and medians.

/// User + system CPU seconds this process has used so far (`/proc/self/stat`,
/// fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; the fields after it do not.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("stat has a command name") + 2..]
        .split_whitespace()
        .collect();
    let ticks = |index: usize| {
        fields[index - 3]
            .parse::<u64>()
            .expect("numeric stat field")
    };
    (ticks(14) + ticks(15)) as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB of 10^6 bytes.
pub fn peak_rss_mb() -> f64 {
    leopard::harness::report::peak_rss_bytes() as f64 / 1e6
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
