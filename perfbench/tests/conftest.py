import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

# the benchmark's modules and the program they drive, as run.py sees them
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
