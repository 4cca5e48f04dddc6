//! `perfbench compare`: parent runs against change runs, one row per
//! workload and end-to-end metric.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// How one metric is judged: its bound and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Share of the parent median by which the metric may worsen.
    pub bound: f64,
    /// Whether lower values are better.
    pub lower_is_better: bool,
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Parent median, first and third quartile.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Pairs (i-th parent run, i-th change run) the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// `better`, `worse`, `same` or `unresolved`.
    pub verdict: &'static str,
}

fn summary(v: &[f64]) -> Option<(f64, f64, f64)> {
    let m = stats::median(v)?;
    let (q1, q3) = stats::quartiles(v).unwrap_or((m, m));
    Some((m, q1, q3))
}

/// Judges change runs against parent runs, following the rule that a
/// gain needs nine tenths of the pairs and a median shift beyond the
/// parent's own spread, and that a spread wider than the bound leaves
/// the metric unresolved unless every change run beats every parent run.
pub fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Option<Row> {
    let p = summary(parent)?;
    let c = summary(change)?;
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    let spread = |(m, q1, q3): (f64, f64, f64)| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let worse_by = if rule.lower_is_better {
        (c.0 - p.0) / p.0.abs()
    } else {
        (p.0 - c.0) / p.0.abs()
    };
    let gain = wins * 10 >= pairs * 9 && (c.0 - p.0).abs() > (p.2 - p.1);
    let verdict = if all_better || (gain && better(c.0, p.0)) {
        "better"
    } else if spread(p) > rule.bound || spread(c) > rule.bound {
        "unresolved"
    } else if worse_by > rule.bound {
        "worse"
    } else {
        "same"
    };
    Some(Row {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    })
}

/// Metric values of every untraced `RECORD` line in `text`, by
/// workload and metric, in run order.
pub fn records(text: &str) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines() {
        let Some(json) = line.strip_prefix("RECORD ") else {
            continue;
        };
        let Ok(Value::Object(rec)) = serde_json::from_str::<Value>(json) else {
            continue;
        };
        let Some(Value::Object(stamp)) = rec.get("stamp") else {
            continue;
        };
        if stamp.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(Value::String(workload)) = stamp.get("workload") else {
            continue;
        };
        let Some(Value::Object(metrics)) = rec.get("metrics") else {
            continue;
        };
        let per = out.entry(workload.clone()).or_default();
        for (name, v) in metrics {
            if let Some(x) = number(v) {
                per.entry(name.clone()).or_default().push(x);
            }
        }
    }
    out
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// The `end_to_end` rules of a `BENCHMARK.json`.
pub fn rules(benchmark: &str) -> Result<BTreeMap<String, Rule>, String> {
    let v: Value = serde_json::from_str(benchmark).map_err(|e| e.to_string())?;
    let Value::Object(top) = v else {
        return Err("BENCHMARK.json is not an object".into());
    };
    let Some(Value::Array(metrics)) = top.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = BTreeMap::new();
    for m in metrics {
        let Value::Object(m) = m else { continue };
        let (Some(Value::String(name)), Some(bound), Some(Value::String(better))) = (
            m.get("name"),
            m.get("bound").and_then(number),
            m.get("better"),
        ) else {
            return Err("an end_to_end entry lacks name, bound or better".into());
        };
        out.insert(
            name.clone(),
            Rule {
                bound,
                lower_is_better: better == "lower",
            },
        );
    }
    Ok(out)
}

/// Renders the comparison table.
pub fn render(parent: &str, change: &str, benchmark: &str) -> Result<String, String> {
    let rules = rules(benchmark)?;
    let (p, c) = (records(parent), records(change));
    let mut s = String::from(
        "workload         metric         parent median [q1, q3]          change median [q1, q3]          delta    wins   verdict\n",
    );
    for (workload, pm) in &p {
        let Some(cm) = c.get(workload) else { continue };
        for (metric, rule) in &rules {
            let (Some(pv), Some(cv)) = (pm.get(metric), cm.get(metric)) else {
                continue;
            };
            let Some(row) = judge(pv, cv, *rule) else {
                continue;
            };
            let delta = if row.parent.0 != 0.0 {
                100.0 * (row.change.0 - row.parent.0) / row.parent.0.abs()
            } else {
                0.0
            };
            s.push_str(&format!(
                "{workload:<16} {metric:<14} {:>10.4} [{:.4}, {:.4}]  {:>10.4} [{:.4}, {:.4}]  {delta:>+6.2}%  {:>2}/{:<2}  {}\n",
                row.parent.0, row.parent.1, row.parent.2,
                row.change.0, row.change.1, row.change.2,
                row.wins, row.pairs, row.verdict
            ));
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        bound: 0.1,
        lower_is_better: true,
    };

    #[test]
    fn verdicts_follow_pairs_spread_and_bound() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let row = judge(&parent, &faster, LOWER).expect("samples");
        assert_eq!((row.wins, row.pairs, row.verdict), (10, 10, "better"));
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&parent, &slower, LOWER).map(|r| r.verdict),
            Some("worse")
        );
        let same: Vec<f64> = parent.iter().map(|x| x * 1.01).collect();
        assert_eq!(
            judge(&parent, &same, LOWER).map(|r| r.verdict),
            Some("same")
        );
        // Spread wider than the bound: unresolved, not "same".
        let noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0, 10.0];
        assert_eq!(
            judge(&noisy, &noisy, LOWER).map(|r| r.verdict),
            Some("unresolved")
        );
        // Higher-is-better metrics win upwards.
        let higher = Rule {
            bound: 0.1,
            lower_is_better: false,
        };
        assert_eq!(
            judge(&parent, &slower, higher).map(|r| r.verdict),
            Some("better")
        );
    }

    #[test]
    fn records_group_untraced_runs_by_workload() {
        let text = "noise\n\
            RECORD {\"stamp\":{\"workload\":\"a\",\"trace\":false},\"metrics\":{\"wall_s\":1.5}}\n\
            RECORD {\"stamp\":{\"workload\":\"a\",\"trace\":true},\"metrics\":{\"wall_s\":9.0}}\n\
            RECORD {\"stamp\":{\"workload\":\"a\",\"trace\":false},\"metrics\":{\"wall_s\":2.5}}\n";
        let r = records(text);
        assert_eq!(r["a"]["wall_s"], vec![1.5, 2.5]);
    }
}
