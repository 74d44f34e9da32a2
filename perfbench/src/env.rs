//! Environment guard, provenance and process measurements.

use p2h_core::kernels;

/// Environment variables that change the program being measured. The benchmark
/// pins every one of them to "unset": the program runs with its defaults (SIMD
/// kernels, the default front config, no background compaction policy, no fault
/// injection, no `P2H_TRACE` sampling, the default copying store loader).
pub const PINNED_UNSET: &[&str] =
    &["P2H_FORCE_SCALAR", "P2H_FAULTS", "P2H_TRACE", "P2H_STORE_MMAP"];

/// Prefixes of pinned variable families (every member must be unset).
pub const PINNED_PREFIXES: &[&str] = &["P2H_FRONT_", "P2H_LIVE_COMPACT_"];

/// Variables in `vars` that would silently change the program under test.
pub fn stray_variables(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let mut stray: Vec<String> = vars
        .into_iter()
        .filter(|(name, _)| {
            PINNED_UNSET.contains(&name.as_str())
                || PINNED_PREFIXES.iter().any(|prefix| name.starts_with(prefix))
        })
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    stray.sort();
    stray
}

/// Refuses to run when a pinned variable is set.
///
/// # Errors
///
/// Names every stray variable.
pub fn guard() -> Result<(), String> {
    let stray = stray_variables(std::env::vars());
    if stray.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: these variables change the program under test and must be \
             unset: {}",
            stray.join(" ")
        ))
    }
}

/// Available CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Provenance lines printed with every result.
pub fn provenance(rustc: &str, rev: &str) -> Vec<String> {
    vec![
        format!("provenance.nproc = {}", nproc()),
        format!("provenance.active_backend = {}", kernels::active_backend().label()),
        format!("provenance.detected_backend = {}", kernels::detected_backend().label()),
        "provenance.store_load_mode = copy".to_string(),
        format!("provenance.rustc = {rustc}"),
        format!("provenance.git_rev = {rev}"),
    ]
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_variables_are_caught_and_others_ignored() {
        let vars = [
            ("P2H_FRONT_MAX_BATCH", "1"),
            ("P2H_LIVE_COMPACT_POINTS", "10"),
            ("P2H_FORCE_SCALAR", "0"),
            ("P2H_SWEEP_GRACE_SECS", "5"),
            ("HOME", "/x"),
        ]
        .map(|(n, v)| (n.to_string(), v.to_string()));
        assert_eq!(
            stray_variables(vars),
            vec!["P2H_FORCE_SCALAR=0", "P2H_FRONT_MAX_BATCH=1", "P2H_LIVE_COMPACT_POINTS=10"]
        );
        assert!(stray_variables(Vec::new()).is_empty());
    }

    #[test]
    fn peak_rss_is_readable_for_this_process() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }
}
