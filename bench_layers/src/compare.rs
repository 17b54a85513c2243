//! `bench_layers compare BASE HEAD`: the A/B verdict for every (metric,
//! workload) pair of two result files.
//!
//! Each file holds the `--out` lines of repeated runs of one commit; run
//! `i` of BASE is paired with run `i` of HEAD, so the runs should
//! alternate between the two commits. A gain needs at least ten pairs,
//! HEAD winning at least nine tenths of them (ties count for neither), and
//! a median gap larger than BASE's interquartile range. Otherwise HEAD is
//! "no worse" when its median is within the metric's bound from
//! `BENCHMARK.json`, "unresolved" when BASE's own spread exceeds that
//! bound (unless every HEAD run beats every BASE run), and "worse" when
//! neither holds.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        for r in v.get("results").map_or(&[][..], Json::as_arr) {
            let workload = r.get("workload").and_then(Json::as_str).unwrap_or("?");
            if let Some(Json::Obj(ms)) = r.get("metrics") {
                for (name, m) in ms {
                    if let Some(x) = m.get("value").and_then(Json::as_f64) {
                        runs.entry((workload.to_string(), name.clone()))
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
    }
    Ok(runs)
}

/// Direction and bound of every declared metric.
fn declared(path: &str) -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in v.get(section).map_or(&[][..], Json::as_arr) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            out.insert(
                name.to_string(),
                (lower, m.get("bound").and_then(Json::as_f64)),
            );
        }
    }
    Ok(out)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

/// How much better reading `x` is than reading `y` (negative: worse).
fn gain(lower_is_better: bool, x: f64, y: f64) -> f64 {
    if lower_is_better {
        y - x
    } else {
        x - y
    }
}

/// Pairs in which `a` reads better than `b`; ties count for neither.
fn wins(a: &[f64], b: &[f64], lower_is_better: bool) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| gain(lower_is_better, **x, **y) > 0.0)
        .count()
}

/// The A/B rule for one (metric, workload) pair.
pub fn verdict(base: &[f64], head: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let pairs = base.len().min(head.len());
    if pairs < 10 {
        return Verdict::Unresolved;
    }
    let (base, head) = (&base[..pairs], &head[..pairs]);
    let wins_head = wins(head, base, lower_is_better);
    let wins_base = wins(base, head, lower_is_better);
    let (q1, med, q3) = stats::quartiles(base);
    let gap = gain(lower_is_better, stats::median(head), med);
    if wins_head * 10 >= pairs * 9 && gap > q3 - q1 {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        let clearly_worse = wins_base * 10 >= pairs * 9 && -gap > q3 - q1;
        return if clearly_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    };
    let all_better = head
        .iter()
        .all(|&h| base.iter().all(|&b| gain(lower_is_better, h, b) > 0.0));
    if stats::spread(base) > bound && !all_better {
        Verdict::Unresolved
    } else if -gap <= bound * med.abs() {
        Verdict::NoWorse
    } else {
        Verdict::Worse
    }
}

pub fn main(args: &[String]) -> i32 {
    let (mut files, mut bench) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.clone().next()) {
            ("--benchmark", Some(p)) => {
                bench = p.clone();
                it.next();
            }
            _ => files.push(a.clone()),
        }
    }
    let [base_path, head_path] = files.as_slice() else {
        eprintln!("usage: bench_layers compare BASE HEAD [--benchmark BENCHMARK.json]");
        return 2;
    };
    let loaded =
        declared(&bench).and_then(|d| Ok((d, load_runs(base_path)?, load_runs(head_path)?)));
    let (decl, base, head) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!(
        "{:<15} {:<28} {:>5} {:>14} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "pairs", "base median", "base IQR", "head median", "wins"
    );
    let mut worse = 0;
    for ((workload, name), b) in &base {
        let (Some(h), Some(&(lower, bound))) =
            (head.get(&(workload.clone(), name.clone())), decl.get(name))
        else {
            continue;
        };
        let pairs = b.len().min(h.len());
        let wins = wins(&h[..pairs], &b[..pairs], lower);
        let (q1, med, q3) = stats::quartiles(&b[..pairs]);
        let v = verdict(b, h, lower, bound);
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{workload:<15} {name:<28} {pairs:>5} {med:>14.6} {:>14.6} {:>14.6} {wins:>6}  {v:?}",
            q3 - q1,
            stats::median(&h[..pairs]),
        );
    }
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_ab_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = base.iter().map(|b| b - 20.0).collect();
        let same = base.clone();
        let slower: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        assert_eq!(verdict(&base, &faster, true, Some(0.1)), Verdict::Improved);
        assert_eq!(verdict(&base, &same, true, Some(0.1)), Verdict::NoWorse);
        assert_eq!(verdict(&base, &slower, true, Some(0.1)), Verdict::Worse);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &faster, false, Some(0.1)), Verdict::Worse);
        // Fewer than ten pairs never resolve.
        assert_eq!(
            verdict(&base[..9], &faster[..9], true, Some(0.1)),
            Verdict::Unresolved
        );
        // A base whose own spread exceeds the bound is unresolved...
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        let noisy_head: Vec<f64> = noisy.iter().rev().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&noisy, &noisy_head, true, Some(0.1)),
            Verdict::Unresolved
        );
        // ...and per-layer metrics without a bound need a clear result.
        assert_eq!(verdict(&base, &same, true, None), Verdict::Unresolved);
        assert_eq!(verdict(&base, &slower, true, None), Verdict::Worse);
    }
}
