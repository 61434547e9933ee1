import os

import pytest

full_scale = pytest.mark.skipif(
    os.environ.get("REPRO_FULL_SCALE", "0") != "1",
    reason="set REPRO_FULL_SCALE=1 for the level-16/17 trees")
