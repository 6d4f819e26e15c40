import sys

from perfbench import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
