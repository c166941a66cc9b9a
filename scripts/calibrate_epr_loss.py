#!/usr/bin/env python3
"""Fit the symmetric loss on the entangled pair that reproduces a
measured inseparability value, and report the resulting entanglement
criteria.

A loss eta on both arms of a pair squeezed to V_sq gives the Duan value
d = eta V_sq + 1 - eta, so the fit is the closed form
eta = (1 - d) / (1 - V_sq), defined for 0 < V_sq < 1 and V_sq <= d <= 1.

Usage:
    python3 scripts/calibrate_epr_loss.py [TARGET_DUAN] [SQUEEZING_DB]

Defaults: target 0.44 at -4.5 dB squeezing (the published calibration).
"""

import sys

from qss.components import epr_pair, loss
from qss.metrics import duan_inseparability, fit_symmetric_epr_loss, reid_epr
from qss.modes import MINUS, PLUS, db_to_linear, new_squeezed


def main() -> int:
    target = float(sys.argv[1]) if len(sys.argv) > 1 else 0.44
    sqz_db = float(sys.argv[2]) if len(sys.argv) > 2 else -4.5
    v_sq = db_to_linear(sqz_db)

    e1, e2 = epr_pair(new_squeezed(v_sq, None, MINUS), new_squeezed(v_sq, None, PLUS))
    print(f"pure {sqz_db} dB pair: Duan={duan_inseparability(e1, e2):.6f} "
          f"Reid={reid_epr(e1, e2):.6f}")

    eta = fit_symmetric_epr_loss(target, v_sq)
    l1, l2 = loss(e1, eta), loss(e2, eta)
    print(f"fitted symmetric efficiency eta={eta:.6f} for Duan={target}")
    print(f"lossy pair: Duan={duan_inseparability(l1, l2):.6f} "
          f"Reid={reid_epr(l1, l2):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
