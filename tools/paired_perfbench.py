#!/usr/bin/env python3
"""Paired perfbench runs of two revisions: parent against change.

    python3 tools/paired_perfbench.py --parent REV --change REV \\
        --workload W --seeds 1,2,3,90210

Run from inside the LiVo git repository. Each revision's committed files are
exported (git archive) into a temporary directory, removed at exit, so
uncommitted edits never reach a measurement and the repository gains no
worktree entry. Each side's perfbench/run.py is built and self-tested once,
then for every seed both sides run `--trace 0` one after the other, the
first seed with the parent first and each later seed in the other order, so
a slow spell of the host does not always land on one side. Both sides run
for the `run_seconds` of the change's BENCHMARK.json.

For every end-to-end metric of the change's BENCHMARK.json the report gives
each side's median and quartiles over its seeds with a result
(statistics.quantiles with n=4), the change's wins and ties over all seeds
run, judged by the metric's `better`, and whether the medians differ by
more than the parent's interquartile range. A seed whose run.py exits
without a result on either side is neither a win nor a tie. Failures are
counted in two units: run.py invocations that gave no result, and the
child runs that run.py itself reports failed within the invocations that
did.

Before the timed runs, each side's benchmark binary runs every seed once
untimed (`run --setups 1 --budget-s 0`), and the two virtual-time records
are compared on the fields of each side's perfbench/run.py REPEATED: the
report says "records equal" or names each field that differs, with both
values. A change meant to be bit-identical must read "records equal" on
every seed. The last stdout line is one JSON object with every per-seed
value and record comparison.

Layout control: moving code alone shifts `rt_parties` by a few percent,
so a claim of that size needs both sides built with their functions at the
same alignment. Run the tool with CXXFLAGS=-falign-functions=64 in its
environment: each side's run.py configures its fresh export once, and that
first configure takes CXXFLAGS into CMAKE_CXX_FLAGS. The report prints
each side's CMAKE_CXX_FLAGS from its .bench_build/perfbench/CMakeCache.txt
next to its commit, so the flag can be checked on both sides.
"""

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def log(msg=""):
    print(msg, flush=True)


def git(*args):
    return subprocess.run(["git"] + list(args), check=True, text=True,
                          capture_output=True).stdout.strip()


def export(rev, dest):
    """Writes the committed files of `rev` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)


def run_py(checkout, args):
    """Runs a side's perfbench/run.py; returns (exit code, last JSON line),
    the line being None after a failure, whose output goes to stderr. Each
    child's run line (its status, CPU times and speedometer rates) is
    printed, so a reading far from the others can be traced to its run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("  run "):
            log("    " + line.strip())
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return proc.returncode, result


def run_module(checkout):
    """A side's perfbench/run.py, loaded as a module."""
    path = os.path.join(checkout, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(checkout, workload, seed):
    """One untimed run of a side's benchmark binary; its RESULT object, or
    None when the run gave none."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LIVO_TRACE")}
    binary = os.path.join(checkout, ".bench_build", "perfbench",
                          "livo_perfbench")
    proc = subprocess.run([binary, "run", "--workload", workload, "--seed",
                           str(seed), "--setups", "1", "--budget-s", "0"],
                          cwd=checkout, env=env, capture_output=True,
                          text=True)
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            try:
                return json.loads(line[len("RESULT "):])
            except ValueError:
                return None
    sys.stderr.write(proc.stderr[-2000:])
    return None


def compare_records(checkouts, workload, seeds):
    """Compares both sides' virtual-time records seed by seed; returns
    {seed: "equal" | "no record" | {field: [parent, change]}}."""
    fields = []
    for side in SIDES:
        fields += [f for f in run_module(checkouts[side]).REPEATED
                   if f not in fields]
    comparison = {}
    for seed in seeds:
        records = {side: record(checkouts[side], workload, seed)
                   for side in SIDES}
        if None in records.values():
            missing = [side for side in SIDES if records[side] is None]
            log("  seed %d: no record on %s" % (seed, ", ".join(missing)))
            comparison[seed] = "no record"
            continue
        differ = {f: [records[side].get(f) for side in SIDES]
                  for f in fields
                  if records["parent"].get(f) != records["change"].get(f)}
        if differ:
            log("  seed %d: records differ: %s" % (seed, "; ".join(
                "%s parent %s change %s" % (f, p, c)
                for f, (p, c) in differ.items())))
        else:
            log("  seed %d: records equal" % seed)
        comparison[seed] = differ or "equal"
    return comparison


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0], values[0]) if values else (None,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(value):
    return "-" if value is None else "%.6g" % value


def summarize(spec, seeds, results):
    """Prints and returns the per-metric comparison."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [[results[side][seed]["metrics"][name]["value"]
                  if seed in results[side] else None for side in SIDES]
                 for seed in seeds]
        complete = [(p, c) for p, c in pairs if None not in (p, c)]
        wins = sum((c > p) if higher else (c < p) for p, c in complete)
        ties = sum(c == p for p, c in complete)
        pq, cq = (quartiles([pair[i] for pair in pairs if pair[i] is not None])
                  for i in range(len(SIDES)))
        iqr = None if pq[0] is None else pq[2] - pq[0]
        resolved = (iqr is not None and cq[1] is not None and
                    abs(cq[1] - pq[1]) > iqr)
        log("%s (%s, %s is better, %d pairs, %d with both results):" % (
            name, metric["unit"], metric["better"], len(pairs),
            len(complete)))
        for side, q in zip(SIDES, (pq, cq)):
            log("  %-7s median %s  quartiles %s / %s" % (
                side, fmt(q[1]), fmt(q[0]), fmt(q[2])))
        log("  change better in %d of %d pairs, tied in %d; medians differ "
            "by %s the parent's IQR (%s)" % (
                wins, len(pairs), ties, "more than" if resolved else
                "no more than", fmt(iqr)))
        summary[name] = {"pairs": pairs, "wins": wins, "ties": ties,
                         "parent_quartiles": pq, "change_quartiles": cq,
                         "beyond_parent_iqr": resolved}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated, e.g. 1,2,3,90210")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    commits = {"parent": git("rev-parse", args.parent + "^{commit}"),
               "change": git("rev-parse", args.change + "^{commit}")}

    # SIGTERM unwinds like Ctrl-C, so the temporary directory goes too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="paired_perfbench.")
    try:
        checkouts = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(commits[side], checkouts[side])
        with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = spec["run_seconds"]
        for side in SIDES:
            code, _ = run_py(checkouts[side], ["--selftest"])
            if code != 0:
                log("%s (%s): build or self-test failed, exit %d"
                    % (side, commits[side], code))
                return 2
        log("== paired perfbench: workload %s, %d s, seeds %s"
            % (args.workload, seconds, ",".join(map(str, seeds))))
        for side in SIDES:
            log("   %-7s %s  CMAKE_CXX_FLAGS=%r"
                % (side, commits[side], run_module(
                    checkouts[side]).cache_value("CMAKE_CXX_FLAGS")))
        log("virtual-time records (one untimed run per side and seed):")
        records = compare_records(checkouts, args.workload, seeds)

        results = {side: {} for side in SIDES}
        # Invocations without a result, and failed child runs within the
        # invocations that gave one, each against its own total.
        no_result = {side: 0 for side in SIDES}
        failed = {side: 0 for side in SIDES}
        attempted = {side: 0 for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                log("  seed %d %s:" % (seed, side))
                code, result = run_py(checkouts[side], [
                    "--workload", args.workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"])
                if result is None:
                    log("  seed %d %s: run.py exit %d, no result"
                        % (seed, side, code))
                    no_result[side] += 1
                    continue
                results[side][seed] = result
                failed[side] += result["failed"]
                attempted[side] += result["attempted"]
            log("  seed %d (%s first): %s" % (seed, order[0], "  ".join(
                "%s %s/%s" % (m["name"], *(
                    fmt(results[s][seed]["metrics"][m["name"]]["value"])
                    if seed in results[s] else "-" for s in SIDES))
                for m in spec["end_to_end"])))

        summary = summarize(spec, seeds, results)
        for side in SIDES:
            log("%s: %d of %d invocations gave no result; %d of %d child "
                "runs failed in the others" % (
                    side, no_result[side], len(seeds), failed[side],
                    attempted[side]))
        log("virtual-time records equal on %d of %d seeds" % (
            sum(r == "equal" for r in records.values()), len(seeds)))
        print(json.dumps({"workload": args.workload, "seconds": seconds,
                          "seeds": seeds, "commits": commits,
                          "no_result": no_result, "failed": failed,
                          "attempted": attempted, "metrics": summary,
                          "records": records}),
              flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
