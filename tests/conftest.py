import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# bounded searches run at bound 8, one above the library's default of 7,
# unless RLW_BOUND says otherwise (see acceptance criteria 7 and 8)
os.environ.setdefault("RLW_BOUND", "8")

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")
