"""Independent reference values from scipy.stats.binom, in a child process.

The benchmark never imports scipy itself, so scipy's import time and memory
stay out of its timings and peak RSS.  Input on stdin and output on stdout
are JSON: a list of jobs [k, n, [p, ...]] maps to a list of
[P(X <= k) for X ~ Binomial(n, p), ...].

``reference(jobs, cache_dir)`` runs this file and keeps the answer in
``cache_dir`` keyed by a hash of the jobs, so later runs skip scipy.
"""

import hashlib
import json
import os
import subprocess
import sys


def reference(jobs, cache_dir):
    text = json.dumps(jobs)
    path = os.path.join(cache_dir, "oracle-%s.json"
                        % hashlib.sha256(text.encode()).hexdigest()[:20])
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    out = subprocess.run([sys.executable, os.path.abspath(__file__)], input=text,
                         capture_output=True, text=True, check=True).stdout
    values = json.loads(out)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w") as f:
        f.write(out)
    os.replace(tmp, path)
    return values


def _main():
    from scipy.stats import binom

    jobs = json.load(sys.stdin)
    json.dump([[float(v) for v in binom.cdf(k, n, ps)] for k, n, ps in jobs], sys.stdout)


if __name__ == "__main__":
    _main()
