//! Order statistics and the latency-limit rule shared by every workload.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when `xs` is empty. For repeated timings of one operation;
/// a latency distribution's median goes through [`percentile`].
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 { s[m] } else { (s[m - 1] + s[m]) / 2.0 })
}

/// Geometric mean over several sample sets of each set's percentile
/// `q`: the figure of a typical set, each set weighted equally whatever
/// its size. Refused like any [`percentile`], so a median needs 20
/// samples in every set, a p75 40 and a p90 100.
pub fn geomean_of_percentiles(sets: &[Vec<f64>], q: f64) -> Result<f64, String> {
    if sets.is_empty() {
        return Err("no sample sets".into());
    }
    let mut log_sum = 0.0;
    for set in sets {
        log_sum += percentile(set, q)?.ln();
    }
    Ok((log_sum / sets.len() as f64).exp())
}

/// Nearest-rank percentile `q` in `(0, 1)` of `xs`. Refused (`Err`)
/// unless at least [`MIN_BEYOND`] samples lie strictly beyond the
/// chosen rank, so a tail figure always rests on a tail.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must be in (0, 1)");
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} refused: {n} samples leave {beyond} beyond it, need {MIN_BEYOND}",
            q * 100.0
        ));
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank - 1])
}

/// How one served request ended, as the load generator saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `OK` with the prediction values.
    Ok(Vec<f32>),
    /// Answered, but not with a model prediction: `SHED`, `TIMEOUT`,
    /// `ERROR`, `DEGRADED`, or an unexpected HTTP status.
    Refused(String),
    /// Connect, write, read, or parse failure.
    Transport(String),
}

impl Answer {
    /// True for an `OK` answer.
    pub fn is_ok(&self) -> bool {
        matches!(self, Answer::Ok(_))
    }
}

/// Latency counted against a limit: a refused or failed request misses
/// every limit, so its latency is `+inf` whatever its round trip took.
pub fn effective_latency_ms(answer: &Answer, round_trip_ms: f64) -> f64 {
    if answer.is_ok() {
        round_trip_ms
    } else {
        f64::INFINITY
    }
}

/// True when the request was answered `OK` within `limit_ms`.
pub fn meets_limit(answer: &Answer, latency_ms: f64, limit_ms: f64) -> bool {
    effective_latency_ms(answer, latency_ms) <= limit_ms
}

/// True when `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_weights_each_set_equally() {
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        let sets = vec![small, vec![44.0; 100]];
        let g = geomean_of_percentiles(&sets, 0.5).unwrap();
        assert!((g - 22.0).abs() < 1e-12, "{g}");
        assert!(geomean_of_percentiles(&sets, 0.9).is_err(), "21 samples leave 2 beyond p90");
        assert!(geomean_of_percentiles(&[vec![1.0; 19], vec![1.0; 20]], 0.5).is_err());
        assert!(geomean_of_percentiles(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Ok(190.0));
        assert!(percentile(&xs[..199], 0.95).is_err(), "199 samples leave 9 beyond p95");
        assert!(percentile(&xs, 0.99).is_err(), "200 samples leave 2 beyond p99");
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Ok(990.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn refused_and_failed_requests_miss_the_limit() {
        let ok = Answer::Ok(vec![1.0]);
        assert!(meets_limit(&ok, 5.0, 10.0));
        assert!(!meets_limit(&ok, 11.0, 10.0));
        for bad in [Answer::Refused("SHED".into()), Answer::Transport("reset".into())] {
            assert!(!meets_limit(&bad, 0.1, 10.0), "{bad:?} answered fast but must miss");
            assert_eq!(effective_latency_ms(&bad, 0.1), f64::INFINITY);
        }
    }

    #[test]
    fn metric_names_are_checked() {
        for good in ["setup_s", "tail_ms.loaded", "models.ST-MetaNet.fwd_ms", "0x"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "μs", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
