"""Compare two result files (JSON lines written by ``run.py``), metric by metric.

For each workload and metric it prints each side's median and quartiles
over its runs, the relative delta of the medians, the bound BENCHMARK.json
fixes for the metric, and a verdict:

* unresolved -- the run-to-run spread (quartile distance over the median) of
  either side exceeds the bound, unless every new run beats every base run;
* worse -- the new median is worse than the base median by more than the
  bound (by more than the base spread for metrics without a bound);
* improved -- the new median is better by more than the base spread;
* unchanged -- otherwise.
"""

from __future__ import annotations

import json
import statistics

#: wall-clock figures of the result records, compared next to the metrics
#: (name -> better); the gated metrics divide times by the reference task
EXTRAS = {"setup_wall_s": "lower", "op_s.p50": "lower", "op_s.tail": "lower",
          "ops_per_s": "higher", "reject_s.p50": "lower", "fail_share": "lower",
          "ref_s": "lower"}


def load(path) -> dict:
    """{workload: {metric: [values, one per run]}}."""
    out: dict = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            rec = json.loads(line)
            metrics = out.setdefault(rec["workload"], {})
            for name, value in rec["metrics"].items():
                metrics.setdefault(name, []).append(value)
            for name in EXTRAS:
                value = rec.get("end_to_end_extras", {}).get(name)
                if value is not None:
                    metrics.setdefault(name, []).append(value)
    return out


def summary(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(q1, med, q3) -> float:
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(base: list, new: list, better: str, bound) -> tuple[str, float]:
    """(verdict, relative delta of the medians, positive when new is larger)."""
    bq1, bmed, bq3 = summary(base)
    nq1, nmed, nq3 = summary(new)
    delta = (nmed - bmed) / abs(bmed) if bmed else (0.0 if nmed == bmed else float("inf"))
    worse_by = delta if better == "lower" else -delta
    base_spread = _spread(bq1, bmed, bq3)
    spread = max(base_spread, _spread(nq1, nmed, nq3))
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if bound is not None and spread > bound:
        return ("improved" if all_better else "unresolved"), delta
    if worse_by > (bound if bound is not None else base_spread):
        return "worse", delta
    if -worse_by > base_spread:
        return "improved", delta
    return "unchanged", delta


def main(base_path, new_path, spec: dict) -> int:
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    for name, better in EXTRAS.items():
        rules.setdefault(name, (better, None))
    base, new = load(base_path), load(new_path)
    header = (f"{'workload':<12} {'metric':<32} {'base median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            if name not in rules:
                continue
            better, bound = rules[name]
            b, n = base[workload][name], new[workload][name]
            result, delta = verdict(b, n, better, bound)
            bq1, bmed, bq3 = summary(b)
            nq1, nmed, nq3 = summary(n)
            print(f"{workload:<12} {name:<32} "
                  f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<34} "
                  f"{f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}]':<34} "
                  f"{100 * delta:>7.1f}% {'-' if bound is None else f'{bound:.2f}':>6}  {result}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload:<12} only in {'base' if workload in base else 'new'}")
    return 0
