//! Reading the Prometheus text the program already exposes (`/metrics` over the
//! front-end wire, or `Engine::render_metrics` in-process).

/// The sum of every sample of `name` whose labels include all of `labels`
/// (`name` is matched exactly, so `x_sum` and `x_count` are separate names).
pub fn sum(text: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let (family, label_text) = match series.split_once('{') {
                Some((family, rest)) => (family, rest.trim_end_matches('}')),
                None => (series, ""),
            };
            if family != name {
                return None;
            }
            let matches = labels.iter().all(|(key, want)| {
                label_text.split(',').any(|kv| kv == format!("{key}=\"{want}\""))
            });
            matches.then(|| value.trim().parse::<f64>().ok())?
        })
        .sum()
}

/// `after − before` for [`sum`].
pub fn delta(before: &str, after: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    sum(after, name, labels) - sum(before, name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# HELP p2h_front_dispatch_total x\n\
        # TYPE p2h_front_dispatch_total counter\n\
        p2h_front_dispatch_total{path=\"shard_parallel\"} 7\n\
        p2h_front_dispatch_total{path=\"query_parallel\"} 3\n\
        p2h_store_load_stage_ns_total{kind=\"bctree\",stage=\"crc\"} 1500\n\
        p2h_store_load_stage_ns_total{kind=\"linear\",stage=\"crc\"} 500\n\
        p2h_front_queue_wait_ns_sum 900\n\
        p2h_front_queue_wait_ns_count 3\n\
        p2h_front_requests_total 10\n";

    #[test]
    fn sums_by_family_and_label_subset() {
        assert_eq!(sum(TEXT, "p2h_front_dispatch_total", &[]), 10.0);
        assert_eq!(sum(TEXT, "p2h_front_dispatch_total", &[("path", "shard_parallel")]), 7.0);
        assert_eq!(sum(TEXT, "p2h_store_load_stage_ns_total", &[("stage", "crc")]), 2000.0);
        assert_eq!(sum(TEXT, "p2h_front_queue_wait_ns_sum", &[]), 900.0);
        assert_eq!(sum(TEXT, "p2h_front_queue_wait_ns", &[]), 0.0);
        assert_eq!(sum(TEXT, "p2h_front_requests_total", &[]), 10.0);
        assert_eq!(delta("", TEXT, "p2h_front_requests_total", &[]), 10.0);
    }
}
