"""One cold op in a fresh process, for the benchmark's set-up time.

Usage: python3 cold.py <src dir> <json list of cli argv lists>

Prints one JSON line: the seconds spent importing ``dsvision.cli``, the
seconds of the first op (every argv list through ``cli.main``), and the
exit codes.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dsvision import cli  # noqa: E402

imported = time.perf_counter()
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "first_op_s": done - imported, "codes": codes}))
