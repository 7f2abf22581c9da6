"""Training the two-pattern complex CNN in both arithmetic modes.

Runs the strictly linear and widely linear variants from a shared
initialization and prints held-out accuracy over the epochs, then the first
iteration at which each stays above 0.9 for good. Run with
``python3 demos/cnn_training_demo.py``.
"""

import numpy as np

from wlmf import train
from wlmf.cnn import PATTERN_ONE, PATTERN_TWO


def main():
    print("class patterns:")
    print("  1:", np.array2string(PATTERN_ONE, precision=2))
    print("  2:", np.array2string(PATTERN_TWO, precision=2))

    seed = 0
    modes = ("sl", "wl")
    results = dict(zip(modes, train(seed)))

    print("\nheld-out mean correct-class probability, seed %d:" % seed)
    print("            strictly linear     widely linear")
    print("  iter      P1      P2          P1      P2")
    sl_evals, wl_evals = results["sl"].evals, results["wl"].evals
    for (it, sl1, sl2), (_, wl1, wl2) in zip(sl_evals[::3], wl_evals[::3]):
        print("  %4d    %.3f   %.3f       %.3f   %.3f" % (it, sl1, sl2, wl1, wl2))

    for mode, label in (("sl", "strictly linear"), ("wl", "widely linear")):
        first = results[mode].first_sustained
        text = "iteration %d" % first if first is not None else "not reached"
        print("%s sustained above 0.9 from %s" % (label, text))

    final_sl, final_wl = sl_evals[-1], wl_evals[-1]
    print(
        "final means: SL (%.3f, %.3f), WL (%.3f, %.3f)"
        % (final_sl[1], final_sl[2], final_wl[1], final_wl[2])
    )


if __name__ == "__main__":
    main()
