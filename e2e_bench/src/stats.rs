//! Percentiles and the output digest.

use serde_json::Value;

/// Linear-interpolated percentile `p` (0–100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentile `p` of `(value, weight)` samples: the smallest value whose
/// cumulative weight reaches `p`% of the total.
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|&(_, w)| w).sum();
    let target = p / 100.0 * total as f64;
    let mut seen = 0u64;
    for &(x, w) in &v {
        seen += w;
        if seen as f64 >= target {
            return x;
        }
    }
    v.last().map_or(0.0, |&(x, _)| x)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// FNV-1a 64 over the canonical text of a session's final query:
/// one `fvp\tintervals` line per row in reply order, then one
/// `warning\t…` line per warning.
pub fn digest(rows: &[(String, String)], warnings: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |s: &str| {
        for &b in s.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (fvp, intervals) in rows {
        feed(fvp);
        feed("\t");
        feed(intervals);
        feed("\n");
    }
    for w in warnings {
        feed("warning\t");
        feed(w);
        feed("\n");
    }
    format!("{h:016x}")
}

/// Digest of a `query` reply frame.
pub fn reply_digest(reply: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("query reply: {e}"))?;
    if v["ok"] != true {
        return Err(format!("query failed: {reply}"));
    }
    let rows = v["rows"]
        .as_array()
        .ok_or("query reply without rows")?
        .iter()
        .map(|r| {
            (
                r["fvp"].as_str().unwrap_or_default().to_string(),
                r["intervals"].as_str().unwrap_or_default().to_string(),
            )
        })
        .collect::<Vec<_>>();
    let warnings = v["warnings"]
        .as_array()
        .ok_or("query reply without warnings")?
        .iter()
        .map(|w| w.as_str().unwrap_or_default().to_string())
        .collect::<Vec<_>>();
    Ok(digest(&rows, &warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(
            weighted_percentile(&[(1.0, 1), (5.0, 98), (9.0, 1)], 99.0),
            5.0
        );
        assert_eq!(
            weighted_percentile(&[(1.0, 1), (5.0, 98), (9.0, 1)], 100.0),
            9.0
        );
    }

    #[test]
    fn reply_digest_matches_rows() {
        let rows = vec![("f(a)=true".to_string(), "[(1,2)]".to_string())];
        let reply =
            r#"{"ok":true,"rows":[{"fvp":"f(a)=true","intervals":"[(1,2)]"}],"warnings":["w"]}"#;
        assert_eq!(
            reply_digest(reply).unwrap(),
            digest(&rows, &["w".to_string()])
        );
        assert_ne!(digest(&rows, &[]), digest(&rows, &["w".to_string()]));
    }
}
